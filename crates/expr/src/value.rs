//! Runtime values for evaluating stencil code segments.

// `add`/`sub`/`mul`/`div`/`neg`/`not` intentionally mirror the source-level
// operator names of the stencil language rather than implementing the std
// operator traits: `div` is fallible and the methods carry promotion
// semantics documented per method.
#![allow(clippy::should_implement_trait)]

use crate::error::{ExprError, Result};
use crate::types::DataType;
use std::fmt;

/// A runtime scalar value.
///
/// The evaluator and the functional mode of the spatial simulator operate on
/// these values. Arithmetic follows the usual promotion rules (see
/// [`DataType::promote`]); comparisons yield [`Value::Bool`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// 32-bit float.
    F32(f32),
    /// 64-bit float.
    F64(f64),
    /// 32-bit signed integer.
    I32(i32),
    /// 64-bit signed integer.
    I64(i64),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// The data type of this value.
    pub fn data_type(self) -> DataType {
        match self {
            Value::F32(_) => DataType::Float32,
            Value::F64(_) => DataType::Float64,
            Value::I32(_) => DataType::Int32,
            Value::I64(_) => DataType::Int64,
            Value::Bool(_) => DataType::Bool,
        }
    }

    /// Convert to `f64`, the widest representation (booleans become 0/1).
    pub fn as_f64(self) -> f64 {
        match self {
            Value::F32(v) => v as f64,
            Value::F64(v) => v,
            Value::I32(v) => v as f64,
            Value::I64(v) => v as f64,
            Value::Bool(v) => {
                if v {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// Interpret this value as a boolean (non-zero is true).
    pub(crate) fn as_bool(self) -> bool {
        match self {
            Value::Bool(v) => v,
            Value::F32(v) => v != 0.0,
            Value::F64(v) => v != 0.0,
            Value::I32(v) => v != 0,
            Value::I64(v) => v != 0,
        }
    }

    /// Construct a value of the given type from an `f64`.
    pub fn from_f64(value: f64, dtype: DataType) -> Value {
        match dtype {
            DataType::Float32 => Value::F32(value as f32),
            DataType::Float64 => Value::F64(value),
            DataType::Int32 => Value::I32(value as i32),
            DataType::Int64 => Value::I64(value as i64),
            DataType::Bool => Value::Bool(value != 0.0),
        }
    }

    fn promote_pair(self, other: Value) -> (f64, f64, DataType) {
        let dtype = self.data_type().promote(other.data_type());
        (self.as_f64(), other.as_f64(), dtype)
    }

    /// Add two values with type promotion.
    pub(crate) fn add(self, other: Value) -> Value {
        let (a, b, t) = self.promote_pair(other);
        Value::from_f64(a + b, t)
    }

    /// Subtract with type promotion.
    pub(crate) fn sub(self, other: Value) -> Value {
        let (a, b, t) = self.promote_pair(other);
        Value::from_f64(a - b, t)
    }

    /// Multiply with type promotion.
    pub(crate) fn mul(self, other: Value) -> Value {
        let (a, b, t) = self.promote_pair(other);
        Value::from_f64(a * b, t)
    }

    /// Divide with type promotion.
    ///
    /// # Errors
    ///
    /// Integer division by zero returns [`ExprError::Arithmetic`]. Float
    /// division by zero follows IEEE-754 (yields ±inf / NaN).
    pub(crate) fn div(self, other: Value) -> Result<Value> {
        let (a, b, t) = self.promote_pair(other);
        if t.is_integer() && b == 0.0 {
            return Err(ExprError::Arithmetic {
                message: "integer division by zero".into(),
            });
        }
        Ok(Value::from_f64(a / b, t))
    }

    /// Arithmetic negation.
    ///
    /// Booleans are promoted to integers first (C-style), so `-(a > b)`
    /// evaluates to `0` or `-1` rather than remaining a boolean.
    pub(crate) fn neg(self) -> Value {
        let dtype = if self.data_type() == DataType::Bool {
            DataType::Int64
        } else {
            self.data_type()
        };
        Value::from_f64(-self.as_f64(), dtype)
    }

    /// Logical negation.
    pub(crate) fn not(self) -> Value {
        Value::Bool(!self.as_bool())
    }

    /// Comparison producing a boolean value.
    pub(crate) fn compare(self, other: Value, op: CompareOp) -> Value {
        let a = self.as_f64();
        let b = other.as_f64();
        let result = match op {
            CompareOp::Lt => a < b,
            CompareOp::Gt => a > b,
            CompareOp::Le => a <= b,
            CompareOp::Ge => a >= b,
            CompareOp::Eq => a == b,
            CompareOp::Ne => a != b,
        };
        Value::Bool(result)
    }

    /// Whether the value is (numerically) close to another, with a relative
    /// tolerance suitable for comparing f32 pipelines against f64 references.
    pub fn approx_eq(self, other: Value, rel_tol: f64) -> bool {
        let a = self.as_f64();
        let b = other.as_f64();
        if a == b {
            return true;
        }
        if a.is_nan() && b.is_nan() {
            return true;
        }
        let scale = a.abs().max(b.abs()).max(1.0);
        (a - b).abs() <= rel_tol * scale
    }
}

/// Comparison operators used by `Value::compare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::F32(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::I32(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F32(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::I32(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_promotes_types() {
        let a = Value::F32(1.5);
        let b = Value::I32(2);
        assert_eq!(a.add(b).data_type(), DataType::Float32);
        assert_eq!(a.add(b).as_f64(), 3.5);

        let c = Value::F64(1.0);
        assert_eq!(a.mul(c).data_type(), DataType::Float64);
    }

    #[test]
    fn integer_division_by_zero_is_an_error() {
        assert!(Value::I32(1).div(Value::I32(0)).is_err());
        // Float division by zero is IEEE.
        let inf = Value::F32(1.0).div(Value::F32(0.0)).unwrap();
        assert!(inf.as_f64().is_infinite());
    }

    #[test]
    fn comparisons_yield_bool() {
        let v = Value::F32(1.0).compare(Value::F32(2.0), CompareOp::Lt);
        assert_eq!(v, Value::Bool(true));
        assert!(v.as_bool());
    }

    #[test]
    fn approx_eq_tolerates_f32_rounding() {
        let a = Value::F64(1.0 / 3.0);
        let b = Value::F32(1.0 / 3.0);
        assert!(a.approx_eq(b, 1e-6));
        assert!(!a.approx_eq(Value::F64(0.4), 1e-6));
        assert!(Value::F64(f64::NAN).approx_eq(Value::F64(f64::NAN), 1e-6));
    }

    #[test]
    fn conversions() {
        assert_eq!(Value::from(1.0f32), Value::F32(1.0));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::from_f64(3.7, DataType::Int32), Value::I32(3));
    }
}
