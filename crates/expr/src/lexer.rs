//! Tokenizer for the stencil code-segment language.

use crate::error::{ExprError, Result};

/// A lexical token together with its byte position in the source string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SpannedToken {
    /// The token itself.
    pub token: Token,
    /// Byte offset of the first character of the token.
    pub position: usize,
}

/// Lexical tokens of the stencil expression language.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Token {
    /// Identifier (field name, index variable, local variable, function name).
    Ident(String),
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

impl Token {
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
pub(crate) fn tokenize(input: &str) -> Result<Vec<SpannedToken>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut pos = 0usize;

    while pos < bytes.len() {
        let c = bytes[pos] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                pos += 1;
            }
            '#' => {
                // Comment until end of line; convenient for hand-written
                // multi-statement programs.
                while pos < bytes.len() && bytes[pos] as char != '\n' {
                    pos += 1;
                }
            }
            '+' => {
                tokens.push(SpannedToken {
                    token: Token::Plus,
                    position: pos,
                });
                pos += 1;
            }
            '-' => {
                tokens.push(SpannedToken {
                    token: Token::Minus,
                    position: pos,
                });
                pos += 1;
            }
            '*' => {
                tokens.push(SpannedToken {
                    token: Token::Star,
                    position: pos,
                });
                pos += 1;
            }
            '/' => {
                tokens.push(SpannedToken {
                    token: Token::Slash,
                    position: pos,
                });
                pos += 1;
            }
            '(' => {
                tokens.push(SpannedToken {
                    token: Token::LParen,
                    position: pos,
                });
                pos += 1;
            }
            ')' => {
                tokens.push(SpannedToken {
                    token: Token::RParen,
                    position: pos,
                });
                pos += 1;
            }
            '[' => {
                tokens.push(SpannedToken {
                    token: Token::LBracket,
                    position: pos,
                });
                pos += 1;
            }
            ']' => {
                tokens.push(SpannedToken {
                    token: Token::RBracket,
                    position: pos,
                });
                pos += 1;
            }
            ',' => {
                tokens.push(SpannedToken {
                    token: Token::Comma,
                    position: pos,
                });
                pos += 1;
            }
            ';' => {
                tokens.push(SpannedToken {
                    token: Token::Semicolon,
                    position: pos,
                });
                pos += 1;
            }
            '?' => {
                tokens.push(SpannedToken {
                    token: Token::Question,
                    position: pos,
                });
                pos += 1;
            }
            ':' => {
                tokens.push(SpannedToken {
                    token: Token::Colon,
                    position: pos,
                });
                pos += 1;
            }
            '=' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::EqEq,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Assign,
                        position: pos,
                    });
                    pos += 1;
                }
            }
            '<' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::Le,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Lt,
                        position: pos,
                    });
                    pos += 1;
                }
            }
            '>' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::Ge,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Gt,
                        position: pos,
                    });
                    pos += 1;
                }
            }
            '!' => {
                if bytes.get(pos + 1) == Some(&b'=') {
                    tokens.push(SpannedToken {
                        token: Token::Ne,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    tokens.push(SpannedToken {
                        token: Token::Not,
                        position: pos,
                    });
                    pos += 1;
                }
            }
            '&' => {
                if bytes.get(pos + 1) == Some(&b'&') {
                    tokens.push(SpannedToken {
                        token: Token::AndAnd,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    return Err(ExprError::Lex {
                        position: pos,
                        character: c,
                    });
                }
            }
            '|' => {
                if bytes.get(pos + 1) == Some(&b'|') {
                    tokens.push(SpannedToken {
                        token: Token::OrOr,
                        position: pos,
                    });
                    pos += 2;
                } else {
                    return Err(ExprError::Lex {
                        position: pos,
                        character: c,
                    });
                }
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = pos;
                let mut saw_dot = false;
                let mut saw_exp = false;
                while pos < bytes.len() {
                    let d = bytes[pos] as char;
                    if d.is_ascii_digit() {
                        pos += 1;
                    } else if d == '.' && !saw_dot && !saw_exp {
                        saw_dot = true;
                        pos += 1;
                    } else if (d == 'e' || d == 'E') && !saw_exp && pos > start {
                        saw_exp = true;
                        pos += 1;
                        if pos < bytes.len() && (bytes[pos] == b'+' || bytes[pos] == b'-') {
                            pos += 1;
                        }
                    } else if d == 'f' && pos > start {
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
                if saw_dot || saw_exp {
                    let value: f64 = text.parse().map_err(|_| ExprError::Lex {
                        position: start,
                        character: c,
                    })?;
                    tokens.push(SpannedToken {
                        token: Token::Float(value),
                        position: start,
                    });
                } else {
                    let value: i64 = text.parse().map_err(|_| ExprError::Lex {
                        position: start,
                        character: c,
                    })?;
                    tokens.push(SpannedToken {
                        token: Token::Int(value),
                        position: start,
                    });
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = pos;
                while pos < bytes.len() {
                    let d = bytes[pos] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        pos += 1;
                    } else {
                        break;
                    }
                }
                tokens.push(SpannedToken {
                    token: Token::Ident(input[start..pos].to_string()),
                    position: start,
                });
            }
            other => {
                return Err(ExprError::Lex {
                    position: pos,
                    character: other,
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
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
            vec![Token::Ident("a".into()), Token::Plus, Token::Int(2)]
        );
    }

    #[test]
    fn field_access_tokens() {
        assert_eq!(
            toks("u[i-1, j, k]"),
            vec![
                Token::Ident("u".into()),
                Token::LBracket,
                Token::Ident("i".into()),
                Token::Minus,
                Token::Int(1),
                Token::Comma,
                Token::Ident("j".into()),
                Token::Comma,
                Token::Ident("k".into()),
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
                Token::Ident("a".into()),
                Token::Le,
                Token::Ident("b".into()),
                Token::AndAnd,
                Token::Ident("c".into()),
                Token::Ne,
                Token::Ident("d".into()),
                Token::OrOr,
                Token::Not,
                Token::Ident("e".into()),
            ]
        );
    }

    #[test]
    fn ternary_tokens() {
        assert_eq!(
            toks("a > 0 ? a : 0"),
            vec![
                Token::Ident("a".into()),
                Token::Gt,
                Token::Int(0),
                Token::Question,
                Token::Ident("a".into()),
                Token::Colon,
                Token::Int(0),
            ]
        );
    }

    #[test]
    fn comments_are_skipped() {
        assert_eq!(
            toks("a # this is a comment\n + b"),
            vec![
                Token::Ident("a".into()),
                Token::Plus,
                Token::Ident("b".into())
            ]
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
