//! The workspace's one JSON codec, behind a std-only stand-in for the
//! `serde` API the workspace uses, so the workspace builds with no
//! registry.
//!
//! [`Serialize`] writes a value into a [`Writer`] as compact JSON, which
//! [`to_vec`] lays out two-space pretty on request; [`Deserialize`]
//! reads one from a [`Reader`], a cursor over a byte slice. Neither
//! builds a tree. The `derive` feature re-exports the derive macros,
//! which emit the per-type calls on both.
//!
//! The bytes are serde_json's: struct members in declaration order, map
//! keys in order, floats in ryu's shortest round-trip layout, non-finite
//! floats as `null`, strings escaped as serde_json escapes them.
//!
//! The reader accepts any layout of a document: whitespace, any member
//! order, unknown members (skipped), and every string escape including
//! `\u` surrogate pairs. It rejects a missing or repeated struct member
//! (an absent member with a `default` takes it), a number outside
//! JSON's grammar or its type's range, a lone surrogate, a raw control
//! character in a string, nesting deeper than 128, and any byte after
//! the document. Reading is total: arbitrary bytes yield `Err`, never a
//! panic, and the cursor never reads past the end of its input.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::{self, Display};
use std::io::Write as _;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// Deepest nesting of arrays and objects the reader follows, as
/// serde_json's limit.
const MAX_DEPTH: usize = 128;

/// A malformed or mistyped document.
#[derive(Debug)]
pub struct Error(String);

impl Error {
    /// An error with message `msg`.
    pub fn custom(msg: impl Display) -> Error {
        Error(msg.to_string())
    }
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Result of a read.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// A value that writes itself as JSON.
pub trait Serialize {
    fn serialize(&self, w: &mut Writer);
}

/// A value that reads itself from JSON.
pub trait Deserialize: Sized {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self>;
}

/// `value` as JSON: compact, or two-space pretty.
pub fn to_vec<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Vec<u8> {
    let mut w = Writer { out: Vec::new(), first: true };
    value.serialize(&mut w);
    if pretty {
        indent(&w.out)
    } else {
        w.out
    }
}

/// Compact JSON laid out as serde_json's pretty printer lays it out:
/// each member and element on a line of its own, indented two spaces
/// per level, `": "` after a key, and `{}` and `[]` kept whole.
fn indent(compact: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 * compact.len());
    let newline = |out: &mut Vec<u8>, depth: usize| {
        out.push(b'\n');
        out.resize(out.len() + 2 * depth, b' ');
    };
    let (mut depth, mut in_string, mut escaped) = (0, false, false);
    let mut bytes = compact.iter().copied().peekable();
    while let Some(c) = bytes.next() {
        if in_string {
            out.push(c);
            (in_string, escaped) = match c {
                _ if escaped => (true, false),
                b'\\' => (true, true),
                b'"' => (false, false),
                _ => (true, false),
            };
            continue;
        }
        match c {
            b'{' | b'[' => {
                out.push(c);
                // `}` and `]` follow `{` and `[` two code points on
                match bytes.next_if(|&next| next == c + 2) {
                    Some(close) => out.push(close),
                    None => {
                        depth += 1;
                        newline(&mut out, depth);
                    }
                }
            }
            b'}' | b']' => {
                depth -= 1;
                newline(&mut out, depth);
                out.push(c);
            }
            b',' => {
                out.push(c);
                newline(&mut out, depth);
            }
            b':' => out.extend_from_slice(b": "),
            _ => {
                in_string = c == b'"';
                out.push(c);
            }
        }
    }
    out
}

/// The `T` that `bytes` holds, with nothing but whitespace after it.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let mut r = Reader::new(bytes);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---- writer ---------------------------------------------------------------

/// The compact JSON writer every [`Serialize`] impl writes into. A
/// container's members and elements each start with [`Writer::key`],
/// [`Writer::field`] or [`Writer::element`], which place the comma, or
/// with [`Writer::raw`] text that holds it.
pub struct Writer {
    out: Vec<u8>,
    /// Nothing written yet inside the innermost open container.
    first: bool,
}

impl Writer {
    #[inline(always)]
    pub fn begin_object(&mut self) {
        self.out.push(b'{');
        self.first = true;
    }

    #[inline(always)]
    pub fn end_object(&mut self) {
        self.out.push(b'}');
        self.first = false;
    }

    #[inline(always)]
    pub fn begin_array(&mut self) {
        self.out.push(b'[');
        self.first = true;
    }

    #[inline(always)]
    pub fn end_array(&mut self) {
        self.out.push(b']');
        self.first = false;
    }

    /// Start the next array element.
    #[inline(always)]
    pub fn element(&mut self) {
        if !self.first {
            self.out.push(b',');
        }
        self.first = false;
    }

    /// Start an object member named `key`.
    #[inline(always)]
    pub fn key(&mut self, key: &str) {
        self.element();
        write_str(&mut self.out, key);
        self.out.push(b':');
    }

    /// [`Writer::key`] for a key given as its JSON text, quotes and
    /// colon included (`"name":`): a field name, which needs no escape.
    #[inline(always)]
    pub fn field(&mut self, quoted: &str) {
        self.element();
        self.out.extend_from_slice(quoted.as_bytes());
    }

    /// Append JSON text that needs no escape and carries its own
    /// separators: a quoted variant name, or a key with the `{` or `,`
    /// before it and the `:` after it. The derive writes field and
    /// variant names this way where it knows the separator.
    #[inline(always)]
    pub fn raw(&mut self, json: &str) {
        self.out.extend_from_slice(json.as_bytes());
    }

    #[inline(always)]
    pub fn str(&mut self, s: &str) {
        write_str(&mut self.out, s);
    }

    #[inline(always)]
    pub fn null(&mut self) {
        self.out.extend_from_slice(b"null");
    }

    #[inline(always)]
    pub fn bool(&mut self, v: bool) {
        self.out.extend_from_slice(if v { b"true" } else { b"false" });
    }

    #[inline(always)]
    pub fn u64(&mut self, mut n: u64) {
        let mut buf = [0u8; 20];
        let mut i = buf.len();
        loop {
            i -= 1;
            buf[i] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.out.extend_from_slice(&buf[i..]);
    }

    #[inline(always)]
    pub fn i64(&mut self, v: i64) {
        if v < 0 {
            self.out.push(b'-');
        }
        self.u64(v.unsigned_abs());
    }

    /// `v` in ryu's layout: Rust's shortest round-trip digits, laid out
    /// in plain notation for decimal exponents -5 < k ≤ 16 and in
    /// scientific notation otherwise; `null` for NaN and infinities.
    pub fn f64(&mut self, v: f64) {
        let out = &mut self.out;
        if !v.is_finite() {
            out.extend_from_slice(b"null");
            return;
        }
        // `{:e}` gives `[-]d[.ddd]e[-]x` with at most 17 digits
        let mut sci = [0u8; 32];
        let len = {
            let mut w = &mut sci[..];
            write!(w, "{v:e}").expect("a finite f64 fits 32 bytes");
            32 - w.len()
        };
        let sci = &sci[..len];
        let (mant, exp) = sci.split_at(sci.iter().position(|&c| c == b'e').unwrap_or(len));
        let exp: i32 = std::str::from_utf8(exp.get(1..).unwrap_or_default())
            .ok()
            .and_then(|e| e.parse().ok())
            .unwrap_or(0);
        let mut digits = [0u8; 24];
        let mut n = 0;
        for &c in mant {
            match c {
                b'-' => out.push(b'-'),
                b'.' => {}
                _ => {
                    digits[n] = c;
                    n += 1;
                }
            }
        }
        let digits = &digits[..n];
        // value = 0.digits × 10^kk
        let kk = exp + 1;
        let k = kk - n as i32;
        if 0 <= k && kk <= 16 {
            out.extend_from_slice(digits);
            out.resize(out.len() + k as usize, b'0');
            out.extend_from_slice(b".0");
        } else if 0 < kk && kk <= 16 {
            out.extend_from_slice(&digits[..kk as usize]);
            out.push(b'.');
            out.extend_from_slice(&digits[kk as usize..]);
        } else if -5 < kk && kk <= 0 {
            out.extend_from_slice(b"0.");
            out.resize(out.len() + (-kk) as usize, b'0');
            out.extend_from_slice(digits);
        } else {
            out.extend_from_slice(&digits[..1]);
            if n > 1 {
                out.push(b'.');
                out.extend_from_slice(&digits[1..]);
            }
            write!(out, "e{}", kk - 1).expect("writing to a Vec cannot fail");
        }
    }
}

/// Append `s` as a JSON string, escaped as serde_json escapes it.
#[inline(always)]
fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    let bytes = s.as_bytes();
    out.push(b'"');
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        let short = match b {
            b'"' => b'"',
            b'\\' => b'\\',
            b'\n' => b'n',
            b'\r' => b'r',
            b'\t' => b't',
            0x08 => b'b',
            0x0c => b'f',
            0x00..=0x1f => b'u',
            _ => continue,
        };
        out.extend_from_slice(&bytes[start..i]);
        out.extend_from_slice(&[b'\\', short]);
        if short == b'u' {
            out.extend_from_slice(&[
                b'0',
                b'0',
                HEX[usize::from(b >> 4)],
                HEX[usize::from(b & 0xf)],
            ]);
        }
        start = i + 1;
    }
    out.extend_from_slice(&bytes[start..]);
    out.push(b'"');
}

// ---- reader ---------------------------------------------------------------

/// A cursor over JSON bytes. Every read checks its bounds; malformed
/// input is an `Err` naming the byte offset.
pub struct Reader<'a> {
    b: &'a [u8],
    i: usize,
    /// Arrays and objects open at the cursor.
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { b: bytes, i: 0, depth: 0 }
    }

    /// An error at the cursor.
    pub fn error(&self, what: impl Display) -> Error {
        Error(format!("{what} at byte {}", self.i))
    }

    /// The next byte after any whitespace, without consuming it.
    #[inline(always)]
    pub fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\n' | b'\r' | b'\t') = self.b.get(self.i) {
            self.i += 1;
        }
        self.b.get(self.i).copied()
    }

    #[inline(always)]
    fn eat(&mut self, c: u8, what: &str) -> Result<()> {
        if self.peek() != Some(c) {
            return Err(self.error(what));
        }
        self.i += 1;
        Ok(())
    }

    #[inline(always)]
    fn literal(&mut self, lit: &[u8]) -> Result<()> {
        self.peek();
        if self.b.get(self.i..self.i + lit.len()) != Some(lit) {
            return Err(self.error("expected value"));
        }
        self.i += lit.len();
        Ok(())
    }

    /// Check that only whitespace follows.
    pub fn finish(&mut self) -> Result<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing characters")),
        }
    }

    #[inline(always)]
    fn open(&mut self, c: u8, what: &str) -> Result<()> {
        self.eat(c, what)?;
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.error("recursion limit exceeded"));
        }
        Ok(())
    }

    /// Whether the open container has another member or element, or
    /// `false` once its `close` byte is consumed. `first` starts `true`
    /// and is kept by the caller across the container.
    #[inline(always)]
    fn more(&mut self, close: u8, first: &mut bool) -> Result<bool> {
        match self.peek() {
            Some(c) if c == close => {
                self.i += 1;
                self.depth -= 1;
                return Ok(false);
            }
            Some(b',') if !*first => self.i += 1,
            _ if *first => {}
            _ => return Err(self.error(format_args!("expected `,` or `{}`", char::from(close)))),
        }
        *first = false;
        Ok(true)
    }

    /// Consume the `{` opening an object.
    #[inline(always)]
    pub fn begin_object(&mut self) -> Result<()> {
        self.open(b'{', "expected an object")
    }

    /// The key of the object's next member (its `:` consumed), or `None`
    /// once its closing `}` is consumed. `first` starts `true` and is
    /// kept by the caller across the object's members.
    #[inline(always)]
    pub fn next_key(&mut self, first: &mut bool) -> Result<Option<Cow<'a, str>>> {
        if !self.more(b'}', first)? {
            return Ok(None);
        }
        let key = self.string()?;
        self.eat(b':', "expected `:`")?;
        Ok(Some(key))
    }

    /// Consume the `[` opening an array.
    #[inline(always)]
    pub fn begin_array(&mut self) -> Result<()> {
        self.open(b'[', "expected an array")
    }

    /// Whether the array has another element, or `false` once its `]`
    /// is consumed; `first` as for [`Reader::next_key`].
    #[inline(always)]
    pub fn next_element(&mut self, first: &mut bool) -> Result<bool> {
        self.more(b']', first)
    }

    /// The next element of a fixed-length array.
    #[inline(always)]
    pub fn item<T: Deserialize>(&mut self, first: &mut bool) -> Result<T> {
        if !self.next_element(first)? {
            return Err(self.error("too few elements"));
        }
        T::deserialize(self)
    }

    /// The end of a fixed-length array.
    #[inline(always)]
    pub fn end_items(&mut self, first: &mut bool) -> Result<()> {
        match self.next_element(first)? {
            false => Ok(()),
            true => Err(self.error("too many elements")),
        }
    }

    /// Read a struct member's value into `slot`, rejecting a second
    /// occurrence.
    #[inline(always)]
    pub fn field<T: Deserialize>(&mut self, slot: &mut Option<T>, name: &str) -> Result<()> {
        if slot.is_some() {
            return Err(self.error(format_args!("duplicate field `{name}`")));
        }
        *slot = Some(T::deserialize(self)?);
        Ok(())
    }

    /// A required struct member's value.
    #[inline(always)]
    pub fn required<T>(&self, slot: Option<T>, name: &str) -> Result<T> {
        slot.ok_or_else(|| self.error(format_args!("missing field `{name}`")))
    }

    /// The variant of an externally tagged enum: its name, and whether a
    /// payload follows (`{"Name":payload}`, the cursor then at the
    /// payload) or not (`"Name"`).
    #[inline(always)]
    pub fn variant(&mut self) -> Result<(Cow<'a, str>, bool)> {
        if self.peek() == Some(b'"') {
            return Ok((self.string()?, false));
        }
        self.begin_object()?;
        match self.next_key(&mut true)? {
            Some(name) => Ok((name, true)),
            None => Err(self.error("expected a variant")),
        }
    }

    /// Consume the `}` closing a variant's payload.
    #[inline(always)]
    pub fn end_variant(&mut self) -> Result<()> {
        match self.next_key(&mut false)? {
            None => Ok(()),
            Some(_) => Err(self.error("expected `}` after a variant")),
        }
    }

    /// The variant that member `tag` of the object at the cursor names,
    /// the cursor left where it was: the tag may come at any position,
    /// and the variant's reader then skips it as a member.
    pub fn tag(&mut self, tag: &str) -> Result<Cow<'a, str>> {
        let (i, depth) = (self.i, self.depth);
        self.begin_object()?;
        let mut first = true;
        while let Some(key) = self.next_key(&mut first)? {
            if key == tag {
                let name = self.string()?;
                (self.i, self.depth) = (i, depth);
                return Ok(name);
            }
            self.skip()?;
        }
        Err(self.error(format_args!("missing field `{tag}`")))
    }

    /// A string, borrowed from the input unless it holds an escape.
    #[inline(always)]
    pub fn string(&mut self) -> Result<Cow<'a, str>> {
        self.eat(b'"', "expected a string")?;
        let start = self.i;
        loop {
            match self.b.get(self.i) {
                None => return Err(self.error("EOF while parsing a string")),
                Some(b'"') => break,
                Some(b'\\') => return self.escaped_string(start).map(Cow::Owned),
                Some(&c) if c < 0x20 => return Err(self.error("control character in a string")),
                Some(_) => self.i += 1,
            }
        }
        // start <= i < len: both ends were bounds-checked above
        let s =
            std::str::from_utf8(&self.b[start..self.i]).map_err(|_| self.error("invalid UTF-8"));
        self.i += 1;
        s.map(Cow::Borrowed)
    }

    /// The rest of a string whose first escape is at the cursor;
    /// `start` is where its contents began.
    fn escaped_string(&mut self, start: usize) -> Result<String> {
        let mut out = self.b[start..self.i].to_vec();
        loop {
            let c = *self.b.get(self.i).ok_or_else(|| self.error("EOF while parsing a string"))?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).map_err(|_| self.error("invalid UTF-8")),
                b'\\' => {
                    let e = *self.b.get(self.i).ok_or_else(|| self.error("EOF in an escape"))?;
                    self.i += 1;
                    let ch = match e {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => self.unicode_escape()?,
                        _ => return Err(self.error("invalid escape")),
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0u8; 4]).as_bytes());
                }
                c if c < 0x20 => return Err(self.error("control character in a string")),
                c => out.push(c),
            }
        }
    }

    /// The character of a `\uXXXX` escape (its `\u` consumed), joining a
    /// surrogate pair; a lone surrogate is an error.
    fn unicode_escape(&mut self) -> Result<char> {
        let hi = self.hex4()?;
        let code = match hi {
            0xD800..=0xDBFF => {
                if self.b.get(self.i..self.i + 2) != Some(b"\\u") {
                    return Err(self.error("lone leading surrogate"));
                }
                self.i += 2;
                let lo = self.hex4()?;
                if !(0xDC00..=0xDFFF).contains(&lo) {
                    return Err(self.error("invalid trailing surrogate"));
                }
                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
            }
            _ => hi,
        };
        char::from_u32(code).ok_or_else(|| self.error("lone trailing surrogate"))
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits =
            self.b.get(self.i..self.i + 4).ok_or_else(|| self.error("EOF in an escape"))?;
        let mut v = 0;
        for &d in digits {
            v = v * 16 + char::from(d).to_digit(16).ok_or_else(|| self.error("invalid escape"))?;
        }
        self.i += 4;
        Ok(v)
    }

    #[inline(always)]
    fn digits(&mut self) -> Result<()> {
        if !matches!(self.b.get(self.i), Some(b'0'..=b'9')) {
            return Err(self.error("invalid number"));
        }
        while let Some(b'0'..=b'9') = self.b.get(self.i) {
            self.i += 1;
        }
        Ok(())
    }

    /// The text of a number in JSON's grammar, and whether it has a
    /// fraction or an exponent.
    #[inline(always)]
    pub fn number(&mut self) -> Result<(&'a str, bool)> {
        self.peek();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        match self.b.get(self.i) {
            Some(b'0') => self.i += 1,
            _ => self.digits()?,
        }
        let mut float = false;
        if self.b.get(self.i) == Some(&b'.') {
            self.i += 1;
            self.digits()?;
            float = true;
        }
        if let Some(b'e' | b'E') = self.b.get(self.i) {
            self.i += 1;
            if let Some(b'+' | b'-') = self.b.get(self.i) {
                self.i += 1;
            }
            self.digits()?;
            float = true;
        }
        // start <= i <= len, and the span is ASCII
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| self.error("invalid number"))?;
        Ok((text, float))
    }

    #[inline(always)]
    pub fn u64(&mut self) -> Result<u64> {
        let (text, float) = self.number()?;
        if float || text.starts_with('-') {
            return Err(self.error("expected an unsigned integer"));
        }
        text.parse().map_err(|_| self.error("integer out of range"))
    }

    #[inline(always)]
    pub fn i64(&mut self) -> Result<i64> {
        let (text, float) = self.number()?;
        if float {
            return Err(self.error("expected an integer"));
        }
        text.parse().map_err(|_| self.error("integer out of range"))
    }

    /// A finite number.
    #[inline(always)]
    pub fn f64(&mut self) -> Result<f64> {
        let (text, _) = self.number()?;
        match text.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.error("number out of range")),
        }
    }

    #[inline(always)]
    pub fn bool(&mut self) -> Result<bool> {
        match self.peek() {
            Some(b't') => self.literal(b"true").map(|()| true),
            _ => self.literal(b"false").map(|()| false),
        }
    }

    #[inline(always)]
    pub fn null(&mut self) -> Result<()> {
        self.literal(b"null")
    }

    /// Skip one value of any type, checking its syntax.
    pub fn skip(&mut self) -> Result<()> {
        let mut first = true;
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key(&mut first)?.is_some() {
                    self.skip()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element(&mut first)? {
                    self.skip()?;
                }
            }
            Some(b'"') => {
                self.string()?;
            }
            Some(b't' | b'f') => {
                self.bool()?;
            }
            Some(b'n') => self.null()?,
            Some(b'-' | b'0'..=b'9') => {
                self.number()?;
            }
            _ => return Err(self.error("expected value")),
        }
        Ok(())
    }
}

// ---- impls ----------------------------------------------------------------

impl Serialize for bool {
    fn serialize(&self, w: &mut Writer) {
        w.bool(*self);
    }
}
impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        r.bool()
    }
}

macro_rules! int_impls {
    ($($ty:ty => $wide:ident),*) => {$(
        impl Serialize for $ty {
            fn serialize(&self, w: &mut Writer) {
                w.$wide(*self as $wide);
            }
        }
        impl Deserialize for $ty {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
                let v = r.$wide()?;
                <$ty>::try_from(v).map_err(|_| r.error(concat!("expected ", stringify!($ty))))
            }
        }
    )*};
}
int_impls!(u8 => u64, u32 => u64, u64 => u64, usize => u64, i32 => i64, i64 => i64);

impl Serialize for f64 {
    fn serialize(&self, w: &mut Writer) {
        w.f64(*self);
    }
}
impl Deserialize for f64 {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        r.f64()
    }
}

impl Serialize for str {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}
impl Serialize for String {
    fn serialize(&self, w: &mut Writer) {
        w.str(self);
    }
}
impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        r.string().map(Cow::into_owned)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}
impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize(&self, w: &mut Writer) {
        (**self).serialize(w);
    }
}
impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        T::deserialize(r).map(Box::new)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize(&self, w: &mut Writer) {
        match self {
            Some(v) => v.serialize(w),
            None => w.null(),
        }
    }
}
impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        if r.peek() == Some(b'n') {
            r.null()?;
            return Ok(None);
        }
        T::deserialize(r).map(Some)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        for item in self {
            w.element();
            item.serialize(w);
        }
        w.end_array();
    }
}
impl<T: Serialize> Serialize for Vec<T> {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w);
    }
}
impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        r.begin_array()?;
        let mut items = Vec::new();
        let mut first = true;
        while r.next_element(&mut first)? {
            items.push(T::deserialize(r)?);
        }
        Ok(items)
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn serialize(&self, w: &mut Writer) {
        self.as_slice().serialize(w);
    }
}
impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn serialize(&self, w: &mut Writer) {
        w.begin_array();
        w.element();
        self.0.serialize(w);
        w.element();
        self.1.serialize(w);
        w.end_array();
    }
}
/// An object; its keys are strings, written in the map's order.
impl<K: AsRef<str>, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize(&self, w: &mut Writer) {
        w.begin_object();
        for (k, v) in self {
            w.key(k.as_ref());
            v.serialize(w);
        }
        w.end_object();
    }
}
/// An object; a repeated key keeps its last value.
impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self> {
        r.begin_object()?;
        let mut map = BTreeMap::new();
        let mut first = true;
        while let Some(key) = r.next_key(&mut first)? {
            map.insert(key.into_owned(), V::deserialize(r)?);
        }
        Ok(map)
    }
}
