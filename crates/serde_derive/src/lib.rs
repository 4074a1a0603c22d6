//! `#[derive(Serialize, Deserialize)]` for the in-tree serde codec.
//!
//! Parses the item by hand (no `syn`) and emits straight-line calls on
//! `serde::Writer` and `serde::Reader`. Supports what the workspace uses:
//! structs with named fields, tuple structs, externally and internally
//! (`tag = "..."`) tagged enums, `rename_all = "lowercase"`, and the
//! field attributes `default`, `default = "path"` and
//! `skip_serializing_if = "path"`.

extern crate proc_macro;

use proc_macro::{Delimiter, TokenStream, TokenTree};
use std::str::FromStr;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    emit(parse_item(input).map(|item| serialize_impl(&item)))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    emit(parse_item(input).map(|item| deserialize_impl(&item)))
}

fn emit(code: Result<String, String>) -> TokenStream {
    let code = code.unwrap_or_else(|e| format!("compile_error!({e:?});"));
    TokenStream::from_str(&code).expect("generated code parses")
}

#[derive(Default)]
struct Attrs {
    tag: Option<String>,
    lowercase: bool,
    /// `Some("")` for a bare `default`, `Some(path)` for `default = "path"`.
    default: Option<String>,
    skip_if: Option<String>,
}

struct Field {
    /// The identifier as written (`r#type`).
    ident: String,
    /// The member name in JSON (`type`).
    name: String,
    ty: String,
    attrs: Attrs,
}

enum Fields {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
}

struct Variant {
    name: String,
    fields: Fields,
}

enum Body {
    Struct(Vec<Field>),
    Tuple(usize),
    Enum(Vec<Variant>),
}

struct Item {
    name: String,
    attrs: Attrs,
    body: Body,
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    let attrs = parse_attrs(&tokens, &mut i)?;
    skip_visibility(&tokens, &mut i);
    let kind = ident_at(&tokens, i).ok_or("expected `struct` or `enum`")?;
    let name = ident_at(&tokens, i + 1).ok_or("expected a type name")?;
    i += 2;
    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!("serde stand-in: generic type `{name}` is not supported"));
    }
    let body = match (kind.as_str(), tokens.get(i)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Body::Struct(parse_named(g.stream())?)
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            Body::Tuple(split_commas(g.stream()).len())
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let variants = parse_variants(g.stream())?;
            let tuple = variants.iter().find(|v| matches!(v.fields, Fields::Tuple(_)));
            if let (Some(_), Some(v)) = (&attrs.tag, tuple) {
                return Err(format!("serde stand-in: tagged tuple variant `{}`", v.name));
            }
            Body::Enum(variants)
        }
        _ => return Err(format!("serde stand-in: cannot derive for `{name}`")),
    };
    Ok(Item { name, attrs, body })
}

fn ident_at(tokens: &[TokenTree], i: usize) -> Option<String> {
    match tokens.get(i) {
        Some(TokenTree::Ident(id)) => Some(id.to_string()),
        _ => None,
    }
}

fn skip_visibility(tokens: &[TokenTree], i: &mut usize) {
    if ident_at(tokens, *i).as_deref() == Some("pub") {
        *i += 1;
        if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
        {
            *i += 1;
        }
    }
}

/// Consume leading `#[...]` attributes, collecting `#[serde(...)]` keys.
fn parse_attrs(tokens: &[TokenTree], i: &mut usize) -> Result<Attrs, String> {
    let mut attrs = Attrs::default();
    while matches!(tokens.get(*i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
        let Some(TokenTree::Group(g)) = tokens.get(*i + 1) else {
            return Err("malformed attribute".into());
        };
        *i += 2;
        let inner: Vec<TokenTree> = g.stream().into_iter().collect();
        if !matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde") {
            continue;
        }
        let Some(TokenTree::Group(args)) = inner.get(1) else {
            return Err("malformed #[serde] attribute".into());
        };
        for arg in split_commas(args.stream()) {
            let key = match arg.first() {
                Some(TokenTree::Ident(id)) => id.to_string(),
                _ => return Err("malformed #[serde] argument".into()),
            };
            let value = match arg.get(2) {
                Some(TokenTree::Literal(lit)) => {
                    Some(lit.to_string().trim_matches('"').to_string())
                }
                _ => None,
            };
            match (key.as_str(), value) {
                ("tag", Some(v)) => attrs.tag = Some(v),
                ("rename_all", Some(v)) if v == "lowercase" => attrs.lowercase = true,
                ("default", v) => attrs.default = Some(v.unwrap_or_default()),
                ("skip_serializing_if", Some(v)) => attrs.skip_if = Some(v),
                (other, _) => return Err(format!("serde stand-in: unsupported `{other}`")),
            }
        }
    }
    Ok(attrs)
}

/// Split a token stream on commas outside `<...>`.
fn split_commas(stream: TokenStream) -> Vec<Vec<TokenTree>> {
    let mut out = vec![Vec::new()];
    let mut depth = 0i32;
    let mut prev_dash = false;
    for tt in stream {
        if let TokenTree::Punct(p) = &tt {
            match p.as_char() {
                '<' => depth += 1,
                '>' if !prev_dash => depth -= 1,
                ',' if depth == 0 => {
                    out.push(Vec::new());
                    prev_dash = false;
                    continue;
                }
                _ => {}
            }
            prev_dash = p.as_char() == '-';
        } else {
            prev_dash = false;
        }
        out.last_mut().expect("non-empty").push(tt);
    }
    out.retain(|part| !part.is_empty());
    out
}

fn parse_named(stream: TokenStream) -> Result<Vec<Field>, String> {
    split_commas(stream)
        .into_iter()
        .map(|field| {
            let mut i = 0;
            let attrs = parse_attrs(&field, &mut i)?;
            skip_visibility(&field, &mut i);
            let ident = ident_at(&field, i).ok_or("expected a field name")?;
            let ty = TokenStream::from_iter(field[i + 2..].iter().cloned()).to_string();
            let name = ident.trim_start_matches("r#").to_string();
            Ok(Field { ident, name, ty, attrs })
        })
        .collect()
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    split_commas(stream)
        .into_iter()
        .map(|v| {
            let mut i = 0;
            parse_attrs(&v, &mut i)?;
            let name = ident_at(&v, i).ok_or("expected a variant name")?;
            let fields = match v.get(i + 1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(split_commas(g.stream()).len())
                }
                _ => Fields::Unit,
            };
            Ok(Variant { name, fields })
        })
        .collect()
}

/// A variant's name in JSON.
fn wire(item: &Item, v: &Variant) -> String {
    if item.attrs.lowercase {
        v.name.to_lowercase()
    } else {
        v.name.clone()
    }
}

const S: &str = "::serde::Serialize::serialize";

// ---- Serialize ---------------------------------------------------------

/// Statements writing named fields, each bound to `binding(ident)`, as
/// an object that the JSON text `open` starts (`{"type":"Lease"`), or
/// `{` when `open` is empty. A key and the separator before it are one
/// literal wherever the separator is known: `{` before the first member
/// and `,` after a member that is always written. Elsewhere (after
/// members that `skip_serializing_if` may leave out) `Writer::field`
/// places the separator at run time.
fn write_object(open: &str, fields: &[Field], binding: impl Fn(&str) -> String) -> String {
    let mut out = String::new();
    let mut sep = Some("{");
    if !open.is_empty() {
        out.push_str(&format!("__w.raw({open:?});"));
        sep = Some(",");
    }
    for f in fields {
        if sep == Some("{") && f.attrs.skip_if.is_some() {
            out.push_str("__w.begin_object();");
            sep = None;
        }
        let key = match sep {
            Some(sep) => format!("__w.raw({:?});", format!("{sep}\"{}\":", f.name)),
            None => format!("__w.field({:?});", format!("\"{}\":", f.name)),
        };
        let b = binding(&f.ident);
        match &f.attrs.skip_if {
            Some(path) => out.push_str(&format!("if !{path}({b}) {{ {key} {S}({b}, __w); }}")),
            None => {
                out.push_str(&format!("{key} {S}({b}, __w);"));
                sep = Some(",");
            }
        }
    }
    if sep == Some("{") {
        out.push_str("__w.begin_object();");
    }
    out.push_str("__w.end_object();");
    out
}

/// Statements writing `n` positional values, `binding(k)` each: the
/// value itself for one, an array for more.
fn write_tuple(n: usize, binding: impl Fn(usize) -> String) -> String {
    if n == 1 {
        return format!("{S}({}, __w);", binding(0));
    }
    let items: String =
        (0..n).map(|k| format!("__w.element(); {S}({}, __w);", binding(k))).collect();
    format!("__w.begin_array(); {items} __w.end_array();")
}

fn serialize_impl(item: &Item) -> String {
    let body = match &item.body {
        Body::Struct(fields) => write_object("", fields, |n| format!("&self.{n}")),
        Body::Tuple(n) => write_tuple(*n, |k| format!("&self.{k}")),
        Body::Enum(variants) => {
            let arms: String = variants.iter().map(|v| serialize_arm(item, v)).collect();
            format!("match self {{ {arms} }}")
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{
            fn serialize(&self, __w: &mut ::serde::Writer) {{ {body} }}
        }}",
        name = item.name
    )
}

fn serialize_arm(item: &Item, v: &Variant) -> String {
    let wire = wire(item, v);
    let path = format!("{}::{}", item.name, v.name);
    let bind = |n: &str| format!("__f_{}", n.trim_start_matches("r#"));
    let (pattern, body) = match (&v.fields, &item.attrs.tag) {
        (Fields::Unit, None) => (path, format!("__w.raw({:?});", format!("\"{wire}\""))),
        (Fields::Tuple(n), _) => {
            let binds: Vec<String> = (0..*n).map(|k| format!("__f{k}")).collect();
            let payload = write_tuple(*n, |k| format!("__f{k}"));
            let open = format!("{{\"{wire}\":");
            let body = format!("__w.raw({open:?}); {payload} __w.end_object();");
            (format!("{path}({})", binds.join(", ")), body)
        }
        (Fields::Named(fields), None) => {
            let binds: Vec<String> =
                fields.iter().map(|f| format!("{}: {}", f.ident, bind(&f.name))).collect();
            let open = format!("{{\"{wire}\":");
            let payload = write_object("", fields, bind);
            let body = format!("__w.raw({open:?}); {payload} __w.end_object();");
            (format!("{path} {{ {} }}", binds.join(", ")), body)
        }
        (fields, Some(tag)) => {
            let fields = match fields {
                Fields::Named(fields) => &fields[..],
                _ => &[], // a unit variant: a tagged enum has no tuple variant (`parse_item`)
            };
            let binds: Vec<String> =
                fields.iter().map(|f| format!("{}: {}", f.ident, bind(&f.name))).collect();
            let open = format!("{{\"{tag}\":\"{wire}\"");
            (format!("{path} {{ {} }}", binds.join(", ")), write_object(&open, fields, bind))
        }
    };
    format!("{pattern} => {{ {body} }}")
}

// ---- Deserialize -------------------------------------------------------

/// An expression reading the object at the cursor into `path { fields }`.
/// Unknown members are skipped; `tag`, the member an internally tagged
/// enum names its variant with, is skipped too, once.
fn read_named(path: &str, fields: &[Field], tag: Option<&str>) -> String {
    let (mut slots, mut arms, mut inits) = (String::new(), String::new(), String::new());
    for (k, f) in fields.iter().enumerate() {
        let (name, ty) = (&f.name, &f.ty);
        slots.push_str(&format!("let mut __f{k}: ::core::option::Option<{ty}> = None;"));
        arms.push_str(&format!("{name:?} => __r.field(&mut __f{k}, {name:?})?,"));
        let value = match f.attrs.default.as_deref() {
            Some("") => format!("__f{k}.unwrap_or_default()"),
            Some(default) => format!("__f{k}.unwrap_or_else({default})"),
            None => format!("__r.required(__f{k}, {name:?})?"),
        };
        inits.push_str(&format!("{}: {value},", f.ident));
    }
    if let Some(tag) = tag {
        slots.push_str("let mut __tag: ::core::option::Option<::std::string::String> = None;");
        arms.push_str(&format!("{tag:?} => __r.field(&mut __tag, {tag:?})?,"));
    }
    format!(
        "{{ {slots}
            __r.begin_object()?;
            let mut __first = true;
            while let ::core::option::Option::Some(__k) = __r.next_key(&mut __first)? {{
                match &*__k {{ {arms} _ => __r.skip()?, }}
            }}
            {path} {{ {inits} }} }}"
    )
}

/// An expression reading `n` positional values into `path(..)`: the
/// value itself for one, an array for more.
fn read_tuple(path: &str, n: usize) -> String {
    if n == 1 {
        return format!("{path}(::serde::Deserialize::deserialize(__r)?)");
    }
    let items = vec!["__r.item(&mut __first)?"; n].join(", ");
    format!(
        "{{ __r.begin_array()?; let mut __first = true;
            let __v = {path}({items}); __r.end_items(&mut __first)?; __v }}"
    )
}

fn deserialize_impl(item: &Item) -> String {
    let name = &item.name;
    let body = match &item.body {
        Body::Struct(fields) => read_named(name, fields, None),
        Body::Tuple(n) => read_tuple(name, *n),
        Body::Enum(variants) => {
            let unknown = |pattern: &str| {
                format!(
                    "{pattern} => return ::core::result::Result::Err(__r.error(
                        ::core::format_args!(\"unknown variant `{{}}` of {name}\", __other))),"
                )
            };
            match &item.attrs.tag {
                Some(tag) => {
                    let arms: String = variants
                        .iter()
                        .map(|v| {
                            let fields = match &v.fields {
                                Fields::Named(fields) => &fields[..],
                                _ => &[], // a unit variant (`parse_item`)
                            };
                            let path = format!("{name}::{}", v.name);
                            format!(
                                "{:?} => {},",
                                wire(item, v),
                                read_named(&path, fields, Some(tag))
                            )
                        })
                        .collect();
                    format!("match &*__r.tag({tag:?})? {{ {arms} {} }}", unknown("__other"))
                }
                None => {
                    let arms: String = variants
                        .iter()
                        .map(|v| {
                            let path = format!("{name}::{}", v.name);
                            let (payload, value) = match &v.fields {
                                Fields::Unit => (false, path),
                                Fields::Tuple(n) => (true, read_tuple(&path, *n)),
                                Fields::Named(fields) => (true, read_named(&path, fields, None)),
                            };
                            format!("({:?}, {payload}) => {value},", wire(item, v))
                        })
                        .collect();
                    format!(
                        "{{ let (__name, __payload) = __r.variant()?;
                            let __v = match (&*__name, __payload) {{ {arms} {} }};
                            if __payload {{ __r.end_variant()?; }}
                            __v }}",
                        unknown("(__other, _)")
                    )
                }
            }
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{
            fn deserialize(__r: &mut ::serde::Reader<'_>) -> ::serde::Result<Self> {{
                ::core::result::Result::Ok({body})
            }}
        }}"
    )
}
