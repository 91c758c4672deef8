//! Recursive-descent parser for the stencil code-segment language.
//!
//! Grammar (in rough EBNF):
//!
//! ```text
//! program  := stmt (';' stmt)* ';'?
//! stmt     := IDENT '=' expr | expr
//! expr     := ternary
//! ternary  := or ('?' expr ':' ternary)?
//! or       := and ('||' and)*
//! and      := cmp ('&&' cmp)*
//! cmp      := add (CMPOP add)?
//! add      := mul (('+'|'-') mul)*
//! mul      := unary (('*'|'/') unary)*
//! unary    := ('-'|'!') unary | primary
//! primary  := NUMBER
//!           | IDENT '[' index (',' index)* ']'
//!           | IDENT '(' expr (',' expr)* ')'
//!           | IDENT
//!           | '(' expr ')'
//! index    := IDENT (('+'|'-') INT)? | INT
//! ```

use crate::ast::{BinOp, Expr, Index, MathFn, Program, Stmt, UnOp};
use crate::error::{ExprError, Result};
use crate::lexer::{tokenize, SpannedToken, Token};

/// Parse a full code segment (one or more statements) into a [`Program`].
///
/// # Errors
///
/// Returns [`ExprError`] on lexical or syntactic errors, unknown functions,
/// wrong arities, or an empty input.
///
/// # Example
///
/// ```
/// # use stencilflow_expr::parse_program;
/// let prog = parse_program("lap = a[i-1] + a[i+1] - 2.0 * a[i]; 0.5 * lap").unwrap();
/// assert_eq!(prog.statements.len(), 2);
/// ```
pub fn parse_program(input: &str) -> Result<Program> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(&tokens);
    let program = parser.parse_program()?;
    parser.expect_end()?;
    Ok(program)
}

/// Parse a single expression (no statements, no trailing tokens): how the
/// crate's unit tests reach the expression grammar without a statement list.
#[cfg(test)]
pub(crate) fn parse_expr(input: &str) -> Result<Expr> {
    let tokens = tokenize(input)?;
    let mut parser = Parser::new(&tokens);
    let expr = parser.parse_expr()?;
    parser.expect_end()?;
    Ok(expr)
}

struct Parser<'a> {
    tokens: &'a [SpannedToken<'a>],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(tokens: &'a [SpannedToken<'a>]) -> Self {
        Parser { tokens, pos: 0 }
    }

    fn peek(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos).map(|t| &t.token)
    }

    fn peek2(&self) -> Option<&Token<'a>> {
        self.tokens.get(self.pos + 1).map(|t| &t.token)
    }

    fn position(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|t| t.position)
            .unwrap_or_else(|| self.tokens.last().map(|t| t.position + 1).unwrap_or(0))
    }

    fn advance(&mut self) -> Option<&Token<'a>> {
        let token = self.tokens.get(self.pos).map(|t| &t.token);
        self.pos += 1;
        token
    }

    fn consume(&mut self, expected: &Token<'_>) -> Result<()> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            other => Err(ExprError::Parse {
                position: self.position(),
                message: format!(
                    "expected {}, found {}",
                    expected.describe(),
                    other
                        .map(|t| t.describe())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.pos < self.tokens.len() {
            Err(ExprError::Parse {
                position: self.position(),
                message: format!(
                    "unexpected trailing {}",
                    self.tokens[self.pos].token.describe()
                ),
            })
        } else {
            Ok(())
        }
    }

    fn parse_program(&mut self) -> Result<Program> {
        let mut statements = Vec::new();
        loop {
            if self.peek().is_none() {
                break;
            }
            statements.push(self.parse_stmt()?);
            match self.peek() {
                Some(Token::Semicolon) => {
                    self.advance();
                    // allow trailing semicolon
                    if self.peek().is_none() {
                        break;
                    }
                }
                None => break,
                Some(other) => {
                    return Err(ExprError::Parse {
                        position: self.position(),
                        message: format!(
                            "expected `;` or end of input, found {}",
                            other.describe()
                        ),
                    })
                }
            }
        }
        if statements.is_empty() {
            return Err(ExprError::EmptyProgram);
        }
        Ok(Program { statements })
    }

    fn parse_stmt(&mut self) -> Result<Stmt> {
        // Lookahead: IDENT '=' (but not '==') means an assignment.
        if let (Some(&Token::Ident(name)), Some(Token::Assign)) = (self.peek(), self.peek2()) {
            self.advance();
            self.advance();
            let value = self.parse_expr()?;
            return Ok(Stmt {
                name: Some(name.to_string()),
                value,
            });
        }
        let value = self.parse_expr()?;
        Ok(Stmt { name: None, value })
    }

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_ternary()
    }

    fn parse_ternary(&mut self) -> Result<Expr> {
        let cond = self.parse_or()?;
        if self.peek() == Some(&Token::Question) {
            self.advance();
            let then = self.parse_expr()?;
            self.consume(&Token::Colon)?;
            let otherwise = self.parse_ternary()?;
            Ok(Expr::ternary(cond, then, otherwise))
        } else {
            Ok(cond)
        }
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.peek() == Some(&Token::OrOr) {
            self.advance();
            let rhs = self.parse_and()?;
            lhs = Expr::binary(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_cmp()?;
        while self.peek() == Some(&Token::AndAnd) {
            self.advance();
            let rhs = self.parse_cmp()?;
            lhs = Expr::binary(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_cmp(&mut self) -> Result<Expr> {
        let lhs = self.parse_add()?;
        let op = match self.peek() {
            Some(Token::Lt) => Some(BinOp::Lt),
            Some(Token::Gt) => Some(BinOp::Gt),
            Some(Token::Le) => Some(BinOp::Le),
            Some(Token::Ge) => Some(BinOp::Ge),
            Some(Token::EqEq) => Some(BinOp::Eq),
            Some(Token::Ne) => Some(BinOp::Ne),
            _ => None,
        };
        if let Some(op) = op {
            self.advance();
            let rhs = self.parse_add()?;
            Ok(Expr::binary(op, lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn parse_add(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_mul()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinOp::Add,
                Some(Token::Minus) => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_mul()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_mul(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinOp::Mul,
                Some(Token::Slash) => BinOp::Div,
                _ => break,
            };
            self.advance();
            let rhs = self.parse_unary()?;
            lhs = Expr::binary(op, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        match self.peek() {
            Some(Token::Minus) => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::unary(UnOp::Neg, operand))
            }
            Some(Token::Not) => {
                self.advance();
                let operand = self.parse_unary()?;
                Ok(Expr::unary(UnOp::Not, operand))
            }
            _ => self.parse_primary(),
        }
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        let position = self.position();
        match self.advance().copied() {
            Some(Token::Int(v)) => Ok(Expr::IntLit(v)),
            Some(Token::Float(v)) => Ok(Expr::FloatLit(v)),
            Some(Token::LParen) => {
                let inner = self.parse_expr()?;
                self.consume(&Token::RParen)?;
                Ok(inner)
            }
            Some(Token::Ident(name)) => match self.peek() {
                Some(Token::LBracket) => {
                    self.advance();
                    // Fields span at most three dimensions in practice.
                    let mut indices = Vec::with_capacity(3);
                    indices.push(self.parse_index(name)?);
                    while self.peek() == Some(&Token::Comma) {
                        self.advance();
                        indices.push(self.parse_index(name)?);
                    }
                    self.consume(&Token::RBracket)?;
                    Ok(Expr::FieldAccess {
                        field: name.to_string(),
                        indices,
                    })
                }
                Some(Token::LParen) => {
                    self.advance();
                    let mut args = Vec::new();
                    if self.peek() != Some(&Token::RParen) {
                        args.push(self.parse_expr()?);
                        while self.peek() == Some(&Token::Comma) {
                            self.advance();
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.consume(&Token::RParen)?;
                    let func =
                        MathFn::from_name(name).ok_or_else(|| ExprError::UnknownFunction {
                            name: name.to_string(),
                        })?;
                    if args.len() != func.arity() {
                        return Err(ExprError::Arity {
                            name: name.to_string(),
                            expected: func.arity(),
                            found: args.len(),
                        });
                    }
                    Ok(Expr::Call { func, args })
                }
                _ => Ok(Expr::Var(name.to_string())),
            },
            other => Err(ExprError::Parse {
                position,
                message: format!(
                    "expected expression, found {}",
                    other
                        .map(|t| t.describe())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }

    /// Parse one index expression inside a field access: `i`, `i+1`, `i-2`,
    /// or a bare integer literal (interpreted as an absolute offset with an
    /// empty variable, used for constant-plane accesses such as `a[0]` on 1D
    /// parameter fields).
    fn parse_index(&mut self, field: &str) -> Result<Index> {
        match self.advance().copied() {
            Some(Token::Ident(var)) => {
                let offset = match self.peek() {
                    Some(Token::Plus) => {
                        self.advance();
                        self.parse_index_offset(field)?
                    }
                    Some(Token::Minus) => {
                        self.advance();
                        -self.parse_index_offset(field)?
                    }
                    _ => 0,
                };
                Ok(Index {
                    var: var.to_string(),
                    offset,
                })
            }
            Some(Token::Int(v)) => Ok(Index {
                var: String::new(),
                offset: v,
            }),
            other => Err(ExprError::InvalidIndex {
                field: field.to_string(),
                message: format!(
                    "expected an iteration variable, found {}",
                    other
                        .map(|t| t.describe())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }

    fn parse_index_offset(&mut self, field: &str) -> Result<i64> {
        match self.advance().copied() {
            Some(Token::Int(v)) => Ok(v),
            other => Err(ExprError::InvalidIndex {
                field: field.to_string(),
                message: format!(
                    "expected a constant offset, found {}",
                    other
                        .map(|t| t.describe())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{BinOp, Expr};

    #[test]
    fn parses_simple_addition() {
        let e = parse_expr("a0[i,j,k] + a1[i,j,k]").unwrap();
        match e {
            Expr::Binary { op, .. } => assert_eq!(op, BinOp::Add),
            other => panic!("unexpected parse result: {other:?}"),
        }
    }

    #[test]
    fn parses_offsets() {
        let e = parse_expr("b1[i-1, j, k+2]").unwrap();
        match e {
            Expr::FieldAccess { field, indices } => {
                assert_eq!(field, "b1");
                assert_eq!(indices.len(), 3);
                assert_eq!(indices[0].var, "i");
                assert_eq!(indices[0].offset, -1);
                assert_eq!(indices[1].offset, 0);
                assert_eq!(indices[2].offset, 2);
            }
            other => panic!("unexpected parse result: {other:?}"),
        }
    }

    #[test]
    fn parses_lower_dimensional_access() {
        let e = parse_expr("a2[i, k]").unwrap();
        match e {
            Expr::FieldAccess { indices, .. } => {
                assert_eq!(indices.len(), 2);
                assert_eq!(indices[0].var, "i");
                assert_eq!(indices[1].var, "k");
            }
            other => panic!("unexpected parse result: {other:?}"),
        }
    }

    #[test]
    fn parses_ternary_and_comparison() {
        let e = parse_expr("delta > 0.0 ? delta : 0.0").unwrap();
        assert!(matches!(e, Expr::Ternary { .. }));
    }

    #[test]
    fn parses_nested_ternary_right_associative() {
        let e = parse_expr("a > 0 ? 1 : b > 0 ? 2 : 3").unwrap();
        match e {
            Expr::Ternary { otherwise, .. } => assert!(matches!(*otherwise, Expr::Ternary { .. })),
            other => panic!("unexpected parse result: {other:?}"),
        }
    }

    #[test]
    fn parses_function_calls() {
        let e = parse_expr("sqrt(a[i]*a[i] + b[i]*b[i])").unwrap();
        assert!(matches!(
            e,
            Expr::Call {
                func: MathFn::Sqrt,
                ..
            }
        ));
        let e = parse_expr("min(a[i], max(b[i], 0.0))").unwrap();
        assert!(matches!(
            e,
            Expr::Call {
                func: MathFn::Min,
                ..
            }
        ));
    }

    #[test]
    fn rejects_unknown_function() {
        assert!(matches!(
            parse_expr("frobnicate(a[i])"),
            Err(ExprError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn rejects_wrong_arity() {
        assert!(matches!(
            parse_expr("min(a[i])"),
            Err(ExprError::Arity { .. })
        ));
        assert!(matches!(
            parse_expr("sqrt(a[i], b[i])"),
            Err(ExprError::Arity { .. })
        ));
    }

    #[test]
    fn rejects_trailing_tokens() {
        assert!(parse_expr("a[i] + b[i] )").is_err());
        assert!(parse_expr("a[i] b[i]").is_err());
    }

    #[test]
    fn rejects_empty_input() {
        assert!(matches!(parse_program(""), Err(ExprError::EmptyProgram)));
        assert!(matches!(parse_program("   "), Err(ExprError::EmptyProgram)));
    }

    #[test]
    fn rejects_non_constant_index() {
        assert!(parse_expr("a[2*i]").is_err());
        assert!(matches!(
            parse_expr("a[i+j]"),
            Err(ExprError::InvalidIndex { .. })
        ));
    }

    #[test]
    fn parses_multi_statement_program() {
        let prog = parse_program(
            "lap = -4.0*u[i,j,k] + u[i-1,j,k] + u[i+1,j,k] + u[i,j-1,k] + u[i,j+1,k];\n\
             delta = lap - u[i,j,k];\n\
             delta > 0.0 ? delta : 0.0",
        )
        .unwrap();
        assert_eq!(prog.statements.len(), 3);
        assert_eq!(prog.statements[0].name.as_deref(), Some("lap"));
        assert_eq!(prog.statements[1].name.as_deref(), Some("delta"));
        assert_eq!(prog.statements[2].name, None);
    }

    #[test]
    fn trailing_semicolon_is_allowed() {
        let prog = parse_program("x = a[i]; x + 1;").unwrap();
        assert_eq!(prog.statements.len(), 2);
    }

    #[test]
    fn unary_minus_binds_tighter_than_mul_operand() {
        let e = parse_expr("-a[i] * b[i]").unwrap();
        // Parses as (-a[i]) * b[i]
        match e {
            Expr::Binary { op, lhs, .. } => {
                assert_eq!(op, BinOp::Mul);
                assert!(matches!(*lhs, Expr::Unary { .. }));
            }
            other => panic!("unexpected parse result: {other:?}"),
        }
    }

    #[test]
    fn display_round_trips_through_parser() {
        let sources = [
            "a0[i, j, k] + a1[i, j, k]",
            "0.5 * (b0[i, j, k] + a2[i, k])",
            "b1[i-1, j, k] + b1[i+1, j, k]",
            "x = a[i] - b[i]; x > 0.0 ? x : -x",
            "sqrt(a[i] * a[i] + b[i] * b[i])",
            "min(a[i], 1.0) + max(b[i], 0.0)",
            "a[i] < b[i] && c[i] != 0.0 ? 1.0 : 0.0",
        ];
        for src in sources {
            let parsed = parse_program(src).unwrap();
            let printed = parsed.to_string();
            let reparsed = parse_program(&printed).unwrap();
            assert_eq!(
                parsed, reparsed,
                "round trip failed for `{src}` -> `{printed}`"
            );
        }
    }
}
