//! Constant folding of stencil expressions.
//!
//! The paper relies on the downstream HLS compiler for common-subexpression
//! elimination after fusion (§V-B); the only expression-level simplification
//! the StencilFlow layer itself performs is folding constant sub-expressions.
//! [`crate::compile`] folds every kernel before lowering it, so a fused
//! program with literal coefficients carries one constant where its source
//! spelled an expression. Latency estimates and operation counts read the
//! unfolded source.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::eval::eval_math_fn;
use crate::types::DataType;
use crate::value::{CompareOp, Value};

/// Constant-fold every statement of a program, bit-exactly: the folded
/// program evaluates to the same bits, of the same type, as the original.
///
/// Only sub-expressions whose operands are all literals fold, and only to
/// what a literal can carry: a comparison, a logical operator or a `!` of
/// literals yields a `Bool`, which no literal represents, so it stays for
/// the runtime. Identity rewrites (`x + 0`, `x * 1`, ...) are not done:
/// `x_f32 + 0.0_f64` promotes to `f64` in the evaluator, while `x_f32`
/// alone stays `f32` and would round every later operation.
pub fn fold_program(program: &Program) -> Program {
    Program {
        statements: program
            .statements
            .iter()
            .map(|stmt| Stmt {
                name: stmt.name.clone(),
                value: fold_expr(&stmt.value),
            })
            .collect(),
    }
}

fn fold_expr(expr: &Expr) -> Expr {
    fold_changed(expr).unwrap_or_else(|| expr.clone())
}

/// The folded form of `expr` (see [`fold_program`]), or `None` when nothing
/// in it folds, so a caller that only reads the result can borrow the
/// original instead of a copy.
pub(crate) fn fold_changed(expr: &Expr) -> Option<Expr> {
    match expr {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::FieldAccess { .. } => None,
        Expr::Unary { op, operand } => {
            let folded = fold_changed(operand);
            if *op == UnOp::Neg {
                if let Some(v) = literal_value(folded.as_ref().unwrap_or(operand)) {
                    return Some(value_to_literal(v.neg()));
                }
            }
            folded.map(|operand| Expr::Unary {
                op: *op,
                operand: Box::new(operand),
            })
        }
        Expr::Binary { op, lhs, rhs } => {
            let (l, r) = (fold_changed(lhs), fold_changed(rhs));
            let literals = (
                literal_value(l.as_ref().unwrap_or(lhs)),
                literal_value(r.as_ref().unwrap_or(rhs)),
            );
            if let (Some(l), Some(r)) = literals {
                if let Some(v) = fold_binary(*op, l, r) {
                    if v.data_type() != DataType::Bool {
                        return Some(value_to_literal(v));
                    }
                }
            }
            if l.is_none() && r.is_none() {
                return None;
            }
            Some(Expr::Binary {
                op: *op,
                lhs: Box::new(l.unwrap_or_else(|| (**lhs).clone())),
                rhs: Box::new(r.unwrap_or_else(|| (**rhs).clone())),
            })
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            let c = fold_changed(cond);
            let (t, e) = (fold_changed(then), fold_changed(otherwise));
            if let Some(c) = literal_value(c.as_ref().unwrap_or(cond)) {
                return Some(if c.as_bool() {
                    t.unwrap_or_else(|| (**then).clone())
                } else {
                    e.unwrap_or_else(|| (**otherwise).clone())
                });
            }
            if c.is_none() && t.is_none() && e.is_none() {
                return None;
            }
            Some(Expr::Ternary {
                cond: Box::new(c.unwrap_or_else(|| (**cond).clone())),
                then: Box::new(t.unwrap_or_else(|| (**then).clone())),
                otherwise: Box::new(e.unwrap_or_else(|| (**otherwise).clone())),
            })
        }
        Expr::Call { func, args } => {
            let folded: Vec<Option<Expr>> = args.iter().map(fold_changed).collect();
            let now = || (folded.iter().zip(args)).map(|(f, a)| f.as_ref().unwrap_or(a));
            let literals: Option<Vec<Value>> = now().map(literal_value).collect();
            if let Some(values) = literals {
                // The evaluator calls the same function on the same values.
                return Some(value_to_literal(eval_math_fn(*func, &values)));
            }
            if folded.iter().all(Option::is_none) {
                return None;
            }
            Some(Expr::Call {
                func: *func,
                args: now().cloned().collect(),
            })
        }
    }
}

fn literal_value(expr: &Expr) -> Option<Value> {
    match expr {
        Expr::IntLit(v) => Some(Value::I64(*v)),
        Expr::FloatLit(v) => Some(Value::F64(*v)),
        _ => None,
    }
}

fn value_to_literal(value: Value) -> Expr {
    match value {
        Value::I32(v) => Expr::IntLit(v as i64),
        Value::I64(v) => Expr::IntLit(v),
        Value::Bool(b) => Expr::IntLit(if b { 1 } else { 0 }),
        Value::F32(v) => Expr::FloatLit(v as f64),
        Value::F64(v) => Expr::FloatLit(v),
    }
}

fn fold_binary(op: BinOp, l: Value, r: Value) -> Option<Value> {
    Some(match op {
        BinOp::Add => l.add(r),
        BinOp::Sub => l.sub(r),
        BinOp::Mul => l.mul(r),
        BinOp::Div => l.div(r).ok()?,
        BinOp::Lt => l.compare(r, CompareOp::Lt),
        BinOp::Gt => l.compare(r, CompareOp::Gt),
        BinOp::Le => l.compare(r, CompareOp::Le),
        BinOp::Ge => l.compare(r, CompareOp::Ge),
        BinOp::Eq => l.compare(r, CompareOp::Eq),
        BinOp::Ne => l.compare(r, CompareOp::Ne),
        BinOp::And => Value::Bool(l.as_bool() && r.as_bool()),
        BinOp::Or => Value::Bool(l.as_bool() || r.as_bool()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_expr, parse_program};

    #[test]
    fn folds_constant_arithmetic() {
        let e = fold_expr(&parse_expr("2.0 * 3.0 + 1.0").unwrap());
        assert_eq!(e, Expr::FloatLit(7.0));
    }

    #[test]
    fn folds_constant_ternary() {
        let e = fold_expr(&parse_expr("1 ? a[i] : b[i]").unwrap());
        assert!(matches!(e, Expr::FieldAccess { ref field, .. } if field == "a"));
    }

    #[test]
    fn folds_constant_function_calls() {
        let e = fold_expr(&parse_expr("sqrt(16.0)").unwrap());
        assert_eq!(e, Expr::FloatLit(4.0));
        let e = fold_expr(&parse_expr("min(2.0, 3.0)").unwrap());
        assert_eq!(e, Expr::FloatLit(2.0));
    }

    #[test]
    fn does_not_fold_field_accesses() {
        let e = fold_expr(&parse_expr("a[i] + b[i]").unwrap());
        assert!(matches!(e, Expr::Binary { .. }));
    }

    #[test]
    fn exact_mode_folds_constants_but_keeps_identities() {
        // Constant subexpressions fold...
        let e = fold_expr(&parse_expr("2.0 * 3.0 + 1.0").unwrap());
        assert_eq!(e, Expr::FloatLit(7.0));
        // ...but `a[i] + 0.0` promotes an `f32` field to `f64`: dropping the
        // add would change the type.
        for code in ["a[i] + 0.0", "1.0 * a[i]", "a[i] / 1.0"] {
            let e = fold_expr(&parse_expr(code).unwrap());
            assert!(matches!(e, Expr::Binary { .. }), "{code}");
        }
        // No literal carries a `Bool`.
        let e = fold_expr(&parse_expr("1 > 0").unwrap());
        assert!(matches!(e, Expr::Binary { .. }));
        let e = fold_expr(&parse_expr("!1.0").unwrap());
        assert!(matches!(e, Expr::Unary { .. }));
    }

    #[test]
    fn folding_preserves_evaluation() {
        use crate::eval::{Evaluator, MapResolver};
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(3.0));
        let prog = parse_program("x = 2.0 * 2.0; a[i] * x + (1.0 - 1.0)").unwrap();
        let folded = fold_program(&prog);
        let v1 = Evaluator::new(&r).eval_program(&prog).unwrap();
        let v2 = Evaluator::new(&r).eval_program(&folded).unwrap();
        assert_eq!(v1, v2);
    }
}
