//! Scalar data types supported by the StencilFlow stack.
//!
//! The paper's evaluation focuses on 32-bit floating point ("as this is used
//! in production by our motivating weather simulation example"), but the
//! stack supports "any data type recognized by the underlying compiler,
//! including double precision floating point and integer types" (§VIII-B).

use std::fmt;
use std::str::FromStr;

/// Scalar element type of a field or intermediate value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum DataType {
    /// 32-bit IEEE-754 floating point (the default and the type used by the
    /// paper's benchmarks).
    #[default]
    Float32,
    /// 64-bit IEEE-754 floating point.
    Float64,
    /// 32-bit signed integer.
    Int32,
    /// 64-bit signed integer.
    Int64,
    /// Boolean (result of comparisons; only appears as an intermediate).
    Bool,
}

impl DataType {
    /// Size of one element of this type in bytes.
    ///
    /// Booleans are reported as one byte; they never reach off-chip memory in
    /// valid programs.
    pub fn size_bytes(self) -> usize {
        match self {
            DataType::Float32 | DataType::Int32 => 4,
            DataType::Float64 | DataType::Int64 => 8,
            DataType::Bool => 1,
        }
    }

    /// Whether this is a floating-point type.
    pub(crate) fn is_float(self) -> bool {
        matches!(self, DataType::Float32 | DataType::Float64)
    }

    /// Whether this is an integer type.
    pub(crate) fn is_integer(self) -> bool {
        matches!(self, DataType::Int32 | DataType::Int64)
    }

    /// The type resulting from combining two operands in an arithmetic
    /// operation, following the usual promotion rules (float beats int,
    /// wider beats narrower).
    pub fn promote(self, other: DataType) -> DataType {
        use DataType::*;
        match (self, other) {
            (Bool, x) | (x, Bool) => x,
            (Float64, _) | (_, Float64) => Float64,
            (Float32, _) | (_, Float32) => Float32,
            (Int64, _) | (_, Int64) => Int64,
            (Int32, Int32) => Int32,
        }
    }

    /// Canonical lowercase name, matching the JSON program description
    /// (`"float32"`, `"float64"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            DataType::Float32 => "float32",
            DataType::Float64 => "float64",
            DataType::Int32 => "int32",
            DataType::Int64 => "int64",
            DataType::Bool => "bool",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Error returned when parsing a [`DataType`] from a string fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDataTypeError {
    /// The string that could not be parsed.
    pub input: String,
}

impl fmt::Display for ParseDataTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown data type `{}`", self.input)
    }
}

impl std::error::Error for ParseDataTypeError {}

impl FromStr for DataType {
    type Err = ParseDataTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "float32" | "float" | "f32" => Ok(DataType::Float32),
            "float64" | "double" | "f64" => Ok(DataType::Float64),
            "int32" | "int" | "i32" => Ok(DataType::Int32),
            "int64" | "long" | "i64" => Ok(DataType::Int64),
            "bool" | "boolean" => Ok(DataType::Bool),
            _ => Err(ParseDataTypeError { input: s.into() }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes() {
        assert_eq!(DataType::Float32.size_bytes(), 4);
        assert_eq!(DataType::Float64.size_bytes(), 8);
        assert_eq!(DataType::Int32.size_bytes(), 4);
        assert_eq!(DataType::Int64.size_bytes(), 8);
    }

    #[test]
    fn promotion_rules() {
        use DataType::*;
        assert_eq!(Float32.promote(Float64), Float64);
        assert_eq!(Int32.promote(Float32), Float32);
        assert_eq!(Int32.promote(Int64), Int64);
        assert_eq!(Bool.promote(Float32), Float32);
        assert_eq!(Int32.promote(Int32), Int32);
    }

    #[test]
    fn parse_round_trip() {
        for dt in [
            DataType::Float32,
            DataType::Float64,
            DataType::Int32,
            DataType::Int64,
            DataType::Bool,
        ] {
            let parsed: DataType = dt.as_str().parse().unwrap();
            assert_eq!(parsed, dt);
        }
        assert!("quux".parse::<DataType>().is_err());
    }

    #[test]
    fn display_matches_json_names() {
        assert_eq!(DataType::Float32.to_string(), "float32");
        assert_eq!(DataType::Float64.to_string(), "float64");
    }
}
