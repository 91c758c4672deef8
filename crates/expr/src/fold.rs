//! Constant folding of stencil expressions.
//!
//! The paper relies on the downstream HLS compiler for common-subexpression
//! elimination after fusion (§V-B); the only expression-level simplification
//! the StencilFlow layer itself performs is folding constant sub-expressions,
//! which keeps latency estimates and operation counts honest for fused
//! programs with literal coefficients.

use crate::ast::{BinOp, Expr, Program, Stmt, UnOp};
use crate::eval::eval_math_fn;
use crate::value::{CompareOp, Value};

/// Constant-fold every statement of a program.
///
/// Folding is conservative: it never changes evaluation results (including
/// IEEE behaviour for floats) and leaves anything involving a field access or
/// local variable untouched except where both operands are literals.
pub fn fold_program(program: &Program) -> Program {
    fold_program_impl(program, false)
}

/// Bit-exact constant folding: like [`fold_program`] but without the
/// identity simplifications (`x + 0`, `x * 1`, `x / 1`, ...).
///
/// Those rewrites are numerically exact but can change the *type* of an
/// intermediate: `x_f32 + 0.0_f64` promotes to `f64` in the evaluator, while
/// the simplified `x_f32` stays `f32` and is rounded on every subsequent
/// operation. The compiled-kernel path ([`crate::compile`]) must agree with
/// the tree-walking evaluator bit for bit, so it folds with this variant.
pub(crate) fn fold_program_exact(program: &Program) -> Program {
    fold_program_impl(program, true)
}

fn fold_program_impl(program: &Program, exact: bool) -> Program {
    Program {
        statements: program
            .statements
            .iter()
            .map(|stmt| Stmt {
                name: stmt.name.clone(),
                value: fold_expr_impl(&stmt.value, exact),
            })
            .collect(),
    }
}

fn fold_expr_impl(expr: &Expr, exact: bool) -> Expr {
    match expr {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::FieldAccess { .. } => {
            expr.clone()
        }
        Expr::Unary { op, operand } => {
            let operand = fold_expr_impl(operand, exact);
            match (&op, literal_value(&operand)) {
                (UnOp::Neg, Some(v)) => value_to_literal(v.neg()),
                // `!literal` evaluates to a Bool, which literals cannot
                // represent; folding it to 0/1 would change the result type,
                // so exact mode leaves it to the runtime.
                (UnOp::Not, Some(v)) if !exact => value_to_literal(v.not()),
                _ => Expr::Unary {
                    op: *op,
                    operand: Box::new(operand),
                },
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let lhs = fold_expr_impl(lhs, exact);
            let rhs = fold_expr_impl(rhs, exact);
            if let (Some(l), Some(r)) = (literal_value(&lhs), literal_value(&rhs)) {
                if let Some(v) = fold_binary(*op, l, r) {
                    // Comparisons and logic produce Bool, which literals
                    // cannot represent; exact mode must preserve the type.
                    if !(exact && v.data_type() == crate::types::DataType::Bool) {
                        return value_to_literal(v);
                    }
                }
            }
            // Identity simplifications that are numerically exact for floats
            // (x + 0, 0 + x, x - 0, x * 1, 1 * x, x / 1) but may change the
            // promoted type of the intermediate; skipped in exact mode.
            if !exact {
                match (op, literal_value(&lhs), literal_value(&rhs)) {
                    (BinOp::Add, Some(l), _)
                        if l.as_f64() == 0.0 && !l.as_f64().is_sign_negative() =>
                    {
                        return rhs
                    }
                    (BinOp::Add, _, Some(r))
                        if r.as_f64() == 0.0 && !r.as_f64().is_sign_negative() =>
                    {
                        return lhs
                    }
                    (BinOp::Sub, _, Some(r))
                        if r.as_f64() == 0.0 && !r.as_f64().is_sign_negative() =>
                    {
                        return lhs
                    }
                    (BinOp::Mul, Some(l), _) if l.as_f64() == 1.0 => return rhs,
                    (BinOp::Mul, _, Some(r)) if r.as_f64() == 1.0 => return lhs,
                    (BinOp::Div, _, Some(r)) if r.as_f64() == 1.0 => return lhs,
                    _ => {}
                }
            }
            Expr::Binary {
                op: *op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            }
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            let cond = fold_expr_impl(cond, exact);
            let then = fold_expr_impl(then, exact);
            let otherwise = fold_expr_impl(otherwise, exact);
            if let Some(c) = literal_value(&cond) {
                return if c.as_bool() { then } else { otherwise };
            }
            Expr::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                otherwise: Box::new(otherwise),
            }
        }
        Expr::Call { func, args } => {
            let args: Vec<Expr> = args.iter().map(|a| fold_expr_impl(a, exact)).collect();
            let literals: Option<Vec<Value>> = args.iter().map(literal_value).collect();
            if let Some(values) = literals {
                // Only fold functions that are exact on the folded values to
                // avoid perturbing results (sqrt of a perfect square is still
                // folded via f64, which matches evaluation semantics).
                return value_to_literal(eval_math_fn(*func, &values));
            }
            Expr::Call { func: *func, args }
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

    fn fold_expr(expr: &Expr) -> Expr {
        fold_expr_impl(expr, false)
    }

    fn fold_expr_exact(expr: &Expr) -> Expr {
        fold_expr_impl(expr, true)
    }

    #[test]
    fn folds_constant_arithmetic() {
        let e = fold_expr(&parse_expr("2.0 * 3.0 + 1.0").unwrap());
        assert_eq!(e, Expr::FloatLit(7.0));
    }

    #[test]
    fn folds_constant_ternary() {
        let e = fold_expr(&parse_expr("1 > 0 ? a[i] : b[i]").unwrap());
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
    fn identity_simplifications() {
        let e = fold_expr(&parse_expr("a[i] + 0.0").unwrap());
        assert!(matches!(e, Expr::FieldAccess { .. }));
        let e = fold_expr(&parse_expr("1.0 * a[i]").unwrap());
        assert!(matches!(e, Expr::FieldAccess { .. }));
        let e = fold_expr(&parse_expr("a[i] / 1.0").unwrap());
        assert!(matches!(e, Expr::FieldAccess { .. }));
    }

    #[test]
    fn does_not_fold_field_accesses() {
        let e = fold_expr(&parse_expr("a[i] + b[i]").unwrap());
        assert!(matches!(e, Expr::Binary { .. }));
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
        assert_eq!(v1.as_f64(), v2.as_f64());
    }

    #[test]
    fn exact_mode_folds_constants_but_keeps_identities() {
        // Constant subexpressions still fold...
        let e = fold_expr_exact(&parse_expr("2.0 * 3.0 + 1.0").unwrap());
        assert_eq!(e, Expr::FloatLit(7.0));
        // ...but type-changing identity rewrites are kept verbatim.
        let e = fold_expr_exact(&parse_expr("a[i] + 0.0").unwrap());
        assert!(matches!(e, Expr::Binary { .. }));
        let e = fold_expr_exact(&parse_expr("1.0 * a[i]").unwrap());
        assert!(matches!(e, Expr::Binary { .. }));
    }
}
