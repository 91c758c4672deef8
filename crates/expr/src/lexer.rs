//! Tokenizer for the stencil code-segment language.

use crate::error::{ExprError, Result};

/// A lexical token together with its byte position in the source string.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SpannedToken<'a> {
    /// The token itself.
    pub token: Token<'a>,
    /// Byte offset of the first character of the token.
    pub position: usize,
}

/// Lexical tokens of the stencil expression language. An identifier
/// borrows its text from the source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Token<'a> {
    /// Identifier (field name, index variable, local variable, function name).
    Ident(&'a str),
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `,`
    Comma,
    /// `;`
    Semicolon,
    /// `=`
    Assign,
    /// `?`
    Question,
    /// `:`
    Colon,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `!`
    Not,
}

impl Token<'_> {
    /// Short human-readable description used in parse error messages.
    pub(crate) fn describe(&self) -> String {
        match self {
            Token::Ident(name) => format!("identifier `{name}`"),
            Token::Int(v) => format!("integer `{v}`"),
            Token::Float(v) => format!("float `{v}`"),
            other => format!("`{}`", other.symbol()),
        }
    }

    fn symbol(&self) -> &'static str {
        match self {
            Token::Plus => "+",
            Token::Minus => "-",
            Token::Star => "*",
            Token::Slash => "/",
            Token::LParen => "(",
            Token::RParen => ")",
            Token::LBracket => "[",
            Token::RBracket => "]",
            Token::Comma => ",",
            Token::Semicolon => ";",
            Token::Assign => "=",
            Token::Question => "?",
            Token::Colon => ":",
            Token::Lt => "<",
            Token::Gt => ">",
            Token::Le => "<=",
            Token::Ge => ">=",
            Token::EqEq => "==",
            Token::Ne => "!=",
            Token::AndAnd => "&&",
            Token::OrOr => "||",
            Token::Not => "!",
            Token::Ident(_) | Token::Int(_) | Token::Float(_) => "",
        }
    }
}

/// Tokenize a stencil code segment.
///
/// # Errors
///
/// Returns [`ExprError::Lex`] if an unexpected character is encountered.
pub(crate) fn tokenize(input: &str) -> Result<Vec<SpannedToken<'_>>> {
    let bytes = input.as_bytes();
    // About one token per three bytes of stencil code.
    let mut tokens = Vec::with_capacity(input.len() / 3 + 1);
    let mut pos = 0usize;

    while pos < bytes.len() {
        let c = bytes[pos];
        let next = bytes.get(pos + 1).copied();
        // An operator or punctuation arm yields its token and width in
        // bytes; the other arms consume their bytes and push themselves.
        let (token, width) = match c {
            b' ' | b'\t' | b'\n' | b'\r' => {
                pos += 1;
                continue;
            }
            b'#' => {
                // Comment until end of line; convenient for hand-written
                // multi-statement programs.
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
                continue;
            }
            b'+' => (Token::Plus, 1),
            b'-' => (Token::Minus, 1),
            b'*' => (Token::Star, 1),
            b'/' => (Token::Slash, 1),
            b'(' => (Token::LParen, 1),
            b')' => (Token::RParen, 1),
            b'[' => (Token::LBracket, 1),
            b']' => (Token::RBracket, 1),
            b',' => (Token::Comma, 1),
            b';' => (Token::Semicolon, 1),
            b'?' => (Token::Question, 1),
            b':' => (Token::Colon, 1),
            b'=' if next == Some(b'=') => (Token::EqEq, 2),
            b'=' => (Token::Assign, 1),
            b'<' if next == Some(b'=') => (Token::Le, 2),
            b'<' => (Token::Lt, 1),
            b'>' if next == Some(b'=') => (Token::Ge, 2),
            b'>' => (Token::Gt, 1),
            b'!' if next == Some(b'=') => (Token::Ne, 2),
            b'!' => (Token::Not, 1),
            b'&' if next == Some(b'&') => (Token::AndAnd, 2),
            b'|' if next == Some(b'|') => (Token::OrOr, 2),
            c if c.is_ascii_digit() || c == b'.' => {
                let start = pos;
                let mut saw_dot = false;
                let mut saw_exp = false;
                while pos < bytes.len() {
                    let d = bytes[pos];
                    if d.is_ascii_digit() {
                        pos += 1;
                    } else if d == b'.' && !saw_dot && !saw_exp {
                        saw_dot = true;
                        pos += 1;
                    } else if (d == b'e' || d == b'E') && !saw_exp && pos > start {
                        saw_exp = true;
                        pos += 1;
                        if pos < bytes.len() && (bytes[pos] == b'+' || bytes[pos] == b'-') {
                            pos += 1;
                        }
                    } else if d == b'f' && pos > start {
                        // Allow a trailing `f` suffix (C-style float literal).
                        pos += 1;
                        break;
                    } else {
                        break;
                    }
                }
                let mut text = &input[start..pos];
                if text.ends_with('f') {
                    text = &text[..text.len() - 1];
                    saw_dot = true;
                }
                let token = if saw_dot || saw_exp {
                    text.parse().ok().map(Token::Float)
                } else {
                    text.parse().ok().map(Token::Int)
                };
                let token = token.ok_or(ExprError::Lex {
                    position: start,
                    character: c as char,
                })?;
                tokens.push(SpannedToken {
                    token,
                    position: start,
                });
                continue;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = pos;
                let len = (bytes[pos..].iter())
                    .position(|&d| !(d.is_ascii_alphanumeric() || d == b'_'))
                    .unwrap_or(bytes.len() - pos);
                pos += len;
                tokens.push(SpannedToken {
                    token: Token::Ident(&input[start..pos]),
                    position: start,
                });
                continue;
            }
            // A lone `&` or `|`, or any other character. A non-ASCII
            // character is reported by its first byte.
            other => {
                return Err(ExprError::Lex {
                    position: pos,
                    character: other as char,
                });
            }
        };
        tokens.push(SpannedToken {
            token,
            position: pos,
        });
        pos += width;
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token<'_>> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn simple_expression() {
        assert_eq!(
            toks("a + 2"),
            vec![Token::Ident("a"), Token::Plus, Token::Int(2)]
        );
    }

    #[test]
    fn field_access_tokens() {
        assert_eq!(
            toks("u[i-1, j, k]"),
            vec![
                Token::Ident("u"),
                Token::LBracket,
                Token::Ident("i"),
                Token::Minus,
                Token::Int(1),
                Token::Comma,
                Token::Ident("j"),
                Token::Comma,
                Token::Ident("k"),
                Token::RBracket,
            ]
        );
    }

    #[test]
    fn float_literals() {
        assert_eq!(toks("0.5"), vec![Token::Float(0.5)]);
        assert_eq!(toks("1e-3"), vec![Token::Float(1e-3)]);
        assert_eq!(toks("2.5e2"), vec![Token::Float(250.0)]);
        assert_eq!(toks("3.0f"), vec![Token::Float(3.0)]);
    }

    #[test]
    fn comparison_and_logic_operators() {
        assert_eq!(
            toks("a <= b && c != d || !e"),
            vec![
                Token::Ident("a"),
                Token::Le,
                Token::Ident("b"),
                Token::AndAnd,
                Token::Ident("c"),
                Token::Ne,
                Token::Ident("d"),
                Token::OrOr,
                Token::Not,
                Token::Ident("e"),
            ]
        );
    }

    #[test]
    fn ternary_tokens() {
        assert_eq!(
            toks("a > 0 ? a : 0"),
            vec![
                Token::Ident("a"),
                Token::Gt,
                Token::Int(0),
                Token::Question,
                Token::Ident("a"),
                Token::Colon,
                Token::Int(0),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a # this is a comment\n + b"),
            vec![Token::Ident("a"), Token::Plus, Token::Ident("b")]
        );
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(matches!(tokenize("a $ b"), Err(ExprError::Lex { .. })));
        assert!(matches!(tokenize("a & b"), Err(ExprError::Lex { .. })));
        assert!(matches!(tokenize("a | b"), Err(ExprError::Lex { .. })));
    }

    #[test]
    fn positions_are_byte_offsets() {
        let tokens = tokenize("ab + cd").unwrap();
        assert_eq!(tokens[0].position, 0);
        assert_eq!(tokens[1].position, 3);
        assert_eq!(tokens[2].position, 5);
    }
}
