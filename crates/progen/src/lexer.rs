//! Tokenizer for the emitted CUDA/HIP kernel subset.

use std::fmt;

/// A lexical token. Identifiers and string literals borrow the source
/// text, so lexing copies no text and a token is `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Token<'a> {
    /// Identifier or keyword (`compute`, `double`, `for`, `__global__`, …).
    Ident(&'a str),
    /// Unsigned floating-point literal; `true` if it carried an `f`/`F`
    /// suffix (FP32).
    Float(f64, bool),
    /// Unsigned integer literal.
    Int(i64),
    /// A string literal's contents between the quotes, escapes kept
    /// verbatim.
    Str(&'a str),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semi,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `=`
    Assign,
    /// `+=`
    PlusAssign,
    /// `-=`
    MinusAssign,
    /// `*=`
    StarAssign,
    /// `/=`
    SlashAssign,
    /// `++`
    PlusPlus,
    /// `&`
    Amp,
    /// `.` (member access, e.g. `threadIdx.x`)
    Dot,
}

impl fmt::Display for Token<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Float(v, suf) => write!(f, "{v}{}", if *suf { "F" } else { "" }),
            Token::Int(v) => write!(f, "{v}"),
            Token::Str(s) => write!(f, "{s:?}"),
            other => {
                let s = match other {
                    Token::LParen => "(",
                    Token::RParen => ")",
                    Token::LBrace => "{",
                    Token::RBrace => "}",
                    Token::LBracket => "[",
                    Token::RBracket => "]",
                    Token::Comma => ",",
                    Token::Semi => ";",
                    Token::Plus => "+",
                    Token::Minus => "-",
                    Token::Star => "*",
                    Token::Slash => "/",
                    Token::Lt => "<",
                    Token::Le => "<=",
                    Token::Gt => ">",
                    Token::Ge => ">=",
                    Token::EqEq => "==",
                    Token::Ne => "!=",
                    Token::Assign => "=",
                    Token::PlusAssign => "+=",
                    Token::MinusAssign => "-=",
                    Token::StarAssign => "*=",
                    Token::SlashAssign => "/=",
                    Token::PlusPlus => "++",
                    Token::Amp => "&",
                    Token::Dot => ".",
                    _ => unreachable!(),
                };
                f.write_str(s)
            }
        }
    }
}

/// A lexing error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// Byte offset of the offending character.
    pub offset: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lex error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for LexError {}

/// Tokenize source text. Preprocessor lines (`#include …`) and comments
/// (`/* */`, `//`) are skipped.
pub fn tokenize(src: &str) -> Result<Vec<Token<'_>>, LexError> {
    let bytes = src.as_bytes();
    // a kernel runs to about one token per four bytes of source
    let mut tokens = Vec::with_capacity(src.len() / 4);
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\r' | '\n' => i += 1,
            '#' => {
                // preprocessor directive: skip to end of line
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                let start = i;
                i += 2;
                loop {
                    if i + 1 >= bytes.len() {
                        return Err(LexError {
                            offset: start,
                            message: "unterminated block comment".into(),
                        });
                    }
                    if bytes[i] == b'*' && bytes[i + 1] == b'/' {
                        i += 2;
                        break;
                    }
                    i += 1;
                }
            }
            '"' => {
                let start = i;
                i += 1;
                loop {
                    if i >= bytes.len() {
                        return Err(LexError {
                            offset: start,
                            message: "unterminated string literal".into(),
                        });
                    }
                    match bytes[i] {
                        b'"' => {
                            i += 1;
                            break;
                        }
                        b'\\' if i + 1 < bytes.len() => i += 2,
                        _ => i += 1,
                    }
                }
                // both quotes are ASCII bytes, so char boundaries
                tokens.push(Token::Str(&src[start + 1..i - 1]));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                tokens.push(Token::Ident(&src[start..i]));
            }
            '.' if i + 1 >= bytes.len() || !bytes[i + 1].is_ascii_digit() => {
                tokens.push(Token::Dot);
                i += 1;
            }
            '0'..='9' | '.' => {
                let (tok, next) = lex_number(src, i)?;
                tokens.push(tok);
                i = next;
            }
            _ => {
                // UTF-8 safe lookahead: `get` returns None when i+2 falls
                // inside a multi-byte character
                let two = src.get(i..i + 2).unwrap_or("");
                let (tok, len) = match two {
                    "<=" => (Token::Le, 2),
                    ">=" => (Token::Ge, 2),
                    "==" => (Token::EqEq, 2),
                    "!=" => (Token::Ne, 2),
                    "+=" => (Token::PlusAssign, 2),
                    "-=" => (Token::MinusAssign, 2),
                    "*=" => (Token::StarAssign, 2),
                    "/=" => (Token::SlashAssign, 2),
                    "++" => (Token::PlusPlus, 2),
                    _ => match c {
                        '(' => (Token::LParen, 1),
                        ')' => (Token::RParen, 1),
                        '{' => (Token::LBrace, 1),
                        '}' => (Token::RBrace, 1),
                        '[' => (Token::LBracket, 1),
                        ']' => (Token::RBracket, 1),
                        ',' => (Token::Comma, 1),
                        ';' => (Token::Semi, 1),
                        '+' => (Token::Plus, 1),
                        '-' => (Token::Minus, 1),
                        '*' => (Token::Star, 1),
                        '/' => (Token::Slash, 1),
                        '<' => (Token::Lt, 1),
                        '>' => (Token::Gt, 1),
                        '=' => (Token::Assign, 1),
                        '&' => (Token::Amp, 1),
                        other => {
                            return Err(LexError {
                                offset: i,
                                message: format!("unexpected character {other:?}"),
                            })
                        }
                    },
                };
                tokens.push(tok);
                i += len;
            }
        }
    }
    Ok(tokens)
}

/// Lex a numeric literal starting at `start`; returns the token and the
/// index just past it.
fn lex_number(src: &str, start: usize) -> Result<(Token<'static>, usize), LexError> {
    let bytes = src.as_bytes();
    let mut i = start;
    let mut saw_dot = false;
    let mut saw_exp = false;
    while i < bytes.len() {
        match bytes[i] {
            b'0'..=b'9' => i += 1,
            b'.' if !saw_dot && !saw_exp => {
                saw_dot = true;
                i += 1;
            }
            b'e' | b'E' if !saw_exp => {
                // exponent must be followed by digits or sign+digits
                let mut j = i + 1;
                if j < bytes.len() && (bytes[j] == b'+' || bytes[j] == b'-') {
                    j += 1;
                }
                if j < bytes.len() && bytes[j].is_ascii_digit() {
                    saw_exp = true;
                    i = j;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    let text = &src[start..i];
    let suffix = if i < bytes.len() && (bytes[i] == b'f' || bytes[i] == b'F') {
        i += 1;
        true
    } else {
        false
    };
    if !saw_dot && !saw_exp && !suffix {
        let v: i64 = text.parse().map_err(|_| LexError {
            offset: start,
            message: format!("bad integer literal {text:?}"),
        })?;
        Ok((Token::Int(v), i))
    } else {
        let v: f64 = text.parse().map_err(|_| LexError {
            offset: start,
            message: format!("bad float literal {text:?}"),
        })?;
        Ok((Token::Float(v, suffix), i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_identifiers_and_symbols() {
        let toks = tokenize("void compute(double comp) { comp += 1; }").unwrap();
        assert_eq!(toks[0], Token::Ident("void"));
        assert_eq!(toks[1], Token::Ident("compute"));
        assert_eq!(toks[2], Token::LParen);
        assert!(toks.contains(&Token::PlusAssign));
        assert!(toks.contains(&Token::Int(1)));
    }

    #[test]
    fn lexes_varity_float_literals() {
        let toks = tokenize("1.5955E-125 1.3305E12 0.0").unwrap();
        assert_eq!(toks[0], Token::Float(1.5955e-125, false));
        assert_eq!(toks[1], Token::Float(1.3305e12, false));
        assert_eq!(toks[2], Token::Float(0.0, false));
    }

    #[test]
    fn lexes_f32_suffix() {
        let toks = tokenize("1.5000E0F 2.5f").unwrap();
        assert_eq!(toks[0], Token::Float(1.5, true));
        assert_eq!(toks[1], Token::Float(2.5, true));
    }

    #[test]
    fn skips_comments_and_preprocessor() {
        let src = "#include <cmath>\n// line\n/* block\ncomment */ x";
        let toks = tokenize(src).unwrap();
        assert_eq!(toks, vec![Token::Ident("x")]);
    }

    #[test]
    fn lexes_string_literals() {
        let toks = tokenize(r#"printf("%.17g\n", comp);"#).unwrap();
        assert_eq!(toks[0], Token::Ident("printf"));
        assert_eq!(toks[1], Token::LParen);
        assert_eq!(toks[2], Token::Str("%.17g\\n"));
    }

    #[test]
    fn two_char_operators_win_over_one_char() {
        let toks = tokenize("a <= b >= c == d != e ++ f").unwrap();
        assert!(toks.contains(&Token::Le));
        assert!(toks.contains(&Token::Ge));
        assert!(toks.contains(&Token::EqEq));
        assert!(toks.contains(&Token::Ne));
        assert!(toks.contains(&Token::PlusPlus));
    }

    #[test]
    fn kernel_launch_chevrons_lex_as_lt_gt() {
        // <<< becomes three Lt tokens; the parser never sees host code, but
        // the lexer must not choke on it
        let toks = tokenize("compute<<<1, 1>>>(x);").unwrap();
        assert_eq!(toks.iter().filter(|t| **t == Token::Lt).count(), 3);
    }

    #[test]
    fn unterminated_comment_is_an_error() {
        assert!(tokenize("/* oops").is_err());
        assert!(tokenize("\"oops").is_err());
    }

    #[test]
    fn exponent_requires_digits() {
        // "1.5E" followed by identifier: the E terminates the number
        let toks = tokenize("1.5 Ex").unwrap();
        assert_eq!(toks[0], Token::Float(1.5, false));
        assert_eq!(toks[1], Token::Ident("Ex"));
    }

    #[test]
    fn negative_exponent_literal() {
        let toks = tokenize("1.9289E305 1.2924E-311").unwrap();
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[1], Token::Float(1.2924e-311, false));
    }
}
