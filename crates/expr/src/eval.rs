//! Evaluation of stencil code segments.
//!
//! The evaluator is shared by the load/store reference executor
//! (`stencilflow-reference`) and by the functional mode of the spatial
//! hardware simulator (`stencilflow-sim`): both provide an
//! [`AccessResolver`] that maps field accesses at constant offsets (and
//! scalar symbols) to concrete [`Value`]s, and the evaluator computes the
//! output value of the stencil at one point of the iteration space.

use crate::ast::{BinOp, Expr, MathFn, Program, UnOp};
use crate::error::{ExprError, Result};
use crate::value::{CompareOp, Value};
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Resolves field accesses and scalar symbols to runtime values.
///
/// Implementations decide what an access *means*: the reference executor
/// resolves offsets against a dense grid with boundary-condition handling,
/// while the spatial simulator resolves them against shift-register internal
/// buffers.
pub trait AccessResolver {
    /// Resolve an access to `field` at the given constant `offsets`.
    ///
    /// The `offsets` slice has one entry per index used in the access (so a
    /// lower-dimensional access like `a2[i, k]` passes two offsets). Scalar
    /// symbol references pass an empty slice.
    ///
    /// Returns `None` if the symbol cannot be resolved; the evaluator turns
    /// that into [`ExprError::UnresolvedSymbol`].
    fn resolve(&self, field: &str, offsets: &[i64]) -> Option<Value>;
}

/// Simple map-backed resolver, mainly useful in tests and small tools.
///
/// Entries are kept sorted by `(field, offsets)` and looked up by binary
/// search with borrowed keys, so [`AccessResolver::resolve`] performs no
/// allocation (the obvious `BTreeMap<(String, Vec<i64>), _>` representation
/// would have to build an owned key for every lookup).
#[derive(Debug, Clone, Default)]
pub struct MapResolver {
    entries: Vec<((String, Vec<i64>), Value)>,
}

impl MapResolver {
    /// Create an empty resolver.
    pub fn new() -> Self {
        Self::default()
    }

    fn position(&self, field: &str, offsets: &[i64]) -> std::result::Result<usize, usize> {
        self.entries
            .binary_search_by(|((f, o), _)| match f.as_str().cmp(field) {
                Ordering::Equal => o.as_slice().cmp(offsets),
                other => other,
            })
    }

    /// Register the value returned for an access to `field` at `offsets`.
    pub fn insert_access(&mut self, field: &str, offsets: &[i64], value: Value) {
        match self.position(field, offsets) {
            Ok(found) => self.entries[found].1 = value,
            Err(insert_at) => self
                .entries
                .insert(insert_at, ((field.to_string(), offsets.to_vec()), value)),
        }
    }

    /// Register a scalar symbol.
    pub fn insert_scalar(&mut self, field: &str, value: Value) {
        self.insert_access(field, &[], value);
    }
}

impl AccessResolver for MapResolver {
    fn resolve(&self, field: &str, offsets: &[i64]) -> Option<Value> {
        self.position(field, offsets)
            .ok()
            .map(|found| self.entries[found].1)
    }
}

/// Evaluates code segments against an [`AccessResolver`].
pub struct Evaluator<'a, R: AccessResolver + ?Sized> {
    resolver: &'a R,
}

impl<'a, R: AccessResolver + ?Sized> Evaluator<'a, R> {
    /// Create an evaluator that resolves accesses through `resolver`.
    pub fn new(resolver: &'a R) -> Self {
        Evaluator { resolver }
    }

    /// Evaluate a full code segment, returning the value of its final
    /// (output) statement.
    ///
    /// # Errors
    ///
    /// Returns an error if a symbol cannot be resolved, an unknown local is
    /// referenced, or arithmetic fails (integer division by zero).
    pub fn eval_program(&self, program: &Program) -> Result<Value> {
        let mut locals: BTreeMap<&str, Value> = BTreeMap::new();
        let mut last = None;
        for stmt in &program.statements {
            let value = self.eval_expr(&stmt.value, &locals)?;
            if let Some(name) = &stmt.name {
                locals.insert(name.as_str(), value);
            }
            last = Some(value);
        }
        last.ok_or(ExprError::EmptyProgram)
    }

    /// Evaluate a single expression with the given local-variable bindings.
    pub(crate) fn eval_expr(&self, expr: &Expr, locals: &BTreeMap<&str, Value>) -> Result<Value> {
        match expr {
            Expr::IntLit(v) => Ok(Value::I64(*v)),
            Expr::FloatLit(v) => Ok(Value::F64(*v)),
            Expr::Var(name) => {
                if let Some(v) = locals.get(name.as_str()) {
                    Ok(*v)
                } else if let Some(v) = self.resolver.resolve(name, &[]) {
                    Ok(v)
                } else {
                    Err(ExprError::UnresolvedSymbol { name: name.clone() })
                }
            }
            Expr::FieldAccess { field, indices } => {
                let offsets: Vec<i64> = indices.iter().map(|ix| ix.offset).collect();
                self.resolver
                    .resolve(field, &offsets)
                    .ok_or_else(|| ExprError::UnresolvedSymbol {
                        name: format!("{field}{offsets:?}"),
                    })
            }
            Expr::Unary { op, operand } => {
                let v = self.eval_expr(operand, locals)?;
                Ok(match op {
                    UnOp::Neg => v.neg(),
                    UnOp::Not => v.not(),
                })
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logical operators.
                if *op == BinOp::And {
                    let l = self.eval_expr(lhs, locals)?;
                    if !l.as_bool() {
                        return Ok(Value::Bool(false));
                    }
                    let r = self.eval_expr(rhs, locals)?;
                    return Ok(Value::Bool(r.as_bool()));
                }
                if *op == BinOp::Or {
                    let l = self.eval_expr(lhs, locals)?;
                    if l.as_bool() {
                        return Ok(Value::Bool(true));
                    }
                    let r = self.eval_expr(rhs, locals)?;
                    return Ok(Value::Bool(r.as_bool()));
                }
                let l = self.eval_expr(lhs, locals)?;
                let r = self.eval_expr(rhs, locals)?;
                Ok(match op {
                    BinOp::Add => l.add(r),
                    BinOp::Sub => l.sub(r),
                    BinOp::Mul => l.mul(r),
                    BinOp::Div => l.div(r)?,
                    BinOp::Lt => l.compare(r, CompareOp::Lt),
                    BinOp::Gt => l.compare(r, CompareOp::Gt),
                    BinOp::Le => l.compare(r, CompareOp::Le),
                    BinOp::Ge => l.compare(r, CompareOp::Ge),
                    BinOp::Eq => l.compare(r, CompareOp::Eq),
                    BinOp::Ne => l.compare(r, CompareOp::Ne),
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                })
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let c = self.eval_expr(cond, locals)?;
                if c.as_bool() {
                    self.eval_expr(then, locals)
                } else {
                    self.eval_expr(otherwise, locals)
                }
            }
            Expr::Call { func, args } => {
                let mut values = Vec::with_capacity(args.len());
                for a in args {
                    values.push(self.eval_expr(a, locals)?);
                }
                Ok(eval_math_fn(*func, &values))
            }
        }
    }
}

/// Evaluate a built-in math function on already-evaluated arguments.
///
/// The result type follows the promoted type of the arguments, so `sqrt` of
/// an `f32` pipeline value stays `f32` (matching what the generated hardware
/// would compute).
pub(crate) fn eval_math_fn(func: MathFn, args: &[Value]) -> Value {
    let dtype = args
        .iter()
        .map(|v| v.data_type())
        .reduce(|a, b| a.promote(b))
        .unwrap_or(crate::types::DataType::Float64);
    let dtype = if dtype.is_float() {
        dtype
    } else {
        // Math functions always produce floating point.
        crate::types::DataType::Float64
    };
    let a = args.first().map(|v| v.as_f64()).unwrap_or(0.0);
    let b = args.get(1).map(|v| v.as_f64()).unwrap_or(0.0);
    Value::from_f64(math_fn_raw(func, a, b), dtype)
}

/// Raw `f64` math-function evaluation shared by [`eval_math_fn`] and the
/// type-specialized kernels ([`crate::compile::TypedKernel`]). Unary
/// functions ignore `b`. Callers apply the result-type rounding themselves.
pub(crate) fn math_fn_raw(func: MathFn, a: f64, b: f64) -> f64 {
    match func {
        MathFn::Sqrt => a.sqrt(),
        MathFn::Abs => a.abs(),
        MathFn::Min => a.min(b),
        MathFn::Max => a.max(b),
        MathFn::Exp => a.exp(),
        MathFn::Log => a.ln(),
        MathFn::Pow => a.powf(b),
        MathFn::Sin => a.sin(),
        MathFn::Cos => a.cos(),
        MathFn::Tan => a.tan(),
        MathFn::Floor => a.floor(),
        MathFn::Ceil => a.ceil(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn eval(code: &str, resolver: &MapResolver) -> Result<Value> {
        let prog = parse_program(code).unwrap();
        Evaluator::new(resolver).eval_program(&prog)
    }

    #[test]
    fn evaluates_arithmetic() {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(2.0));
        r.insert_access("b", &[0], Value::F32(3.0));
        assert_eq!(eval("a[i] * b[i] + 1.0", &r).unwrap().as_f64(), 7.0);
        assert_eq!(eval("(a[i] + b[i]) / 2.0", &r).unwrap().as_f64(), 2.5);
    }

    #[test]
    fn evaluates_locals_in_order() {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(4.0));
        let v = eval("x = a[i] * 2.0; y = x + 1.0; y * y", &r).unwrap();
        assert_eq!(v.as_f64(), 81.0);
    }

    #[test]
    fn evaluates_ternary_branches() {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(-2.0));
        assert_eq!(eval("a[i] > 0.0 ? a[i] : -a[i]", &r).unwrap().as_f64(), 2.0);
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(5.0));
        assert_eq!(eval("a[i] > 0.0 ? a[i] : -a[i]", &r).unwrap().as_f64(), 5.0);
    }

    #[test]
    fn evaluates_math_functions() {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(9.0));
        r.insert_access("b", &[0], Value::F32(-3.0));
        assert_eq!(eval("sqrt(a[i])", &r).unwrap().as_f64(), 3.0);
        assert_eq!(eval("abs(b[i])", &r).unwrap().as_f64(), 3.0);
        assert_eq!(eval("min(a[i], abs(b[i]))", &r).unwrap().as_f64(), 3.0);
        assert_eq!(eval("max(a[i], b[i])", &r).unwrap().as_f64(), 9.0);
        assert_eq!(eval("pow(b[i], 2.0)", &r).unwrap().as_f64(), 9.0);
    }

    #[test]
    fn short_circuit_logic() {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(0.0));
        // The right operand would divide by zero if evaluated eagerly on
        // integers; short circuiting avoids it.
        let v = eval("a[i] != 0.0 && 1 / 0 > 0 ? 1.0 : 2.0", &r).unwrap();
        assert_eq!(v.as_f64(), 2.0);
    }

    #[test]
    fn unresolved_symbol_errors() {
        let r = MapResolver::new();
        assert!(matches!(
            eval("missing[i]", &r),
            Err(ExprError::UnresolvedSymbol { .. })
        ));
        assert!(matches!(
            eval("missing_scalar + 1.0", &r),
            Err(ExprError::UnresolvedSymbol { .. })
        ));
    }

    #[test]
    fn scalar_symbols_resolve() {
        let mut r = MapResolver::new();
        r.insert_scalar("dt", Value::F32(0.25));
        r.insert_access("a", &[0], Value::F32(8.0));
        assert_eq!(eval("a[i] * dt", &r).unwrap().as_f64(), 2.0);
    }

    #[test]
    fn f32_pipeline_stays_f32() {
        let mut r = MapResolver::new();
        r.insert_access("a", &[0], Value::F32(2.0));
        let v = eval("sqrt(a[i])", &r).unwrap();
        assert_eq!(v.data_type(), crate::types::DataType::Float32);
    }
}
