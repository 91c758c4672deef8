//! Boundary conditions for out-of-bounds stencil accesses.
//!
//! Paper §II: "Currently supported boundary conditions include: *constant*,
//! where out of bounds accesses are replaced with a given constant value;
//! *copy*, where out of bounds accesses are replaced by the value at offset 0
//! in all dimensions (the 'center' value); and *shrink*, where all computed
//! values that read out of bounds values are simply ignored in the output.
//! The former two are specified per input, whereas shrink is specified on the
//! output."

use std::collections::BTreeMap;
use std::fmt;
use stencilflow_json::Json;

/// How out-of-bounds accesses to one input field are handled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundaryCondition {
    /// Replace out-of-bounds reads with a constant value.
    Constant(f64),
    /// Replace out-of-bounds reads with the value at the center offset.
    Copy,
}

impl BoundaryCondition {
    /// Wire representation in the JSON program description:
    /// `{"type": "constant", "value": 1}` or `{"type": "copy"}`.
    pub(crate) fn to_json(self) -> Json {
        match self {
            BoundaryCondition::Constant(v) => Json::Object(vec![
                ("type".to_string(), Json::String("constant".to_string())),
                ("value".to_string(), Json::Number(v)),
            ]),
            BoundaryCondition::Copy => {
                Json::Object(vec![("type".to_string(), Json::String("copy".to_string()))])
            }
        }
    }

    /// Parse the wire representation.
    pub(crate) fn from_json(value: &Json) -> Result<Self, BoundaryJsonError> {
        let kind = value
            .get("type")
            .and_then(Json::as_str)
            .ok_or(BoundaryJsonError::MissingType)?;
        match kind {
            "constant" => Ok(BoundaryCondition::Constant(
                value.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            )),
            "copy" => Ok(BoundaryCondition::Copy),
            other => Err(BoundaryJsonError::UnknownType {
                kind: other.to_string(),
            }),
        }
    }
}

/// Why the wire representation of a [`BoundaryCondition`] does not parse.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum BoundaryJsonError {
    /// Not an object with a string `type` key.
    MissingType,
    /// A `type` that names no condition.
    UnknownType { kind: String },
}

impl fmt::Display for BoundaryJsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundaryJsonError::MissingType => {
                f.write_str("boundary condition must be an object with a `type` key")
            }
            BoundaryJsonError::UnknownType { kind } => write!(
                f,
                "unknown boundary condition type `{kind}` (expected `constant` or `copy`)"
            ),
        }
    }
}

impl Default for BoundaryCondition {
    fn default() -> Self {
        // A zero constant is the least surprising default and matches the
        // reference implementation's behaviour for unspecified inputs.
        BoundaryCondition::Constant(0.0)
    }
}

impl fmt::Display for BoundaryCondition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoundaryCondition::Constant(v) => write!(f, "constant({v})"),
            BoundaryCondition::Copy => write!(f, "copy"),
        }
    }
}

/// The complete boundary specification of one stencil node: per-input
/// conditions plus the output-level `shrink` flag.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BoundarySpec {
    /// Per-input boundary conditions. Inputs without an entry use
    /// [`BoundaryCondition::default`].
    pub per_field: BTreeMap<String, BoundaryCondition>,
    /// Whether output cells whose computation read out-of-bounds values are
    /// dropped from the output ("shrink").
    pub shrink: bool,
}

impl BoundarySpec {
    /// A specification with no per-field entries and no shrink.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A specification marking the output as shrunk.
    pub(crate) fn shrink() -> Self {
        BoundarySpec {
            per_field: BTreeMap::new(),
            shrink: true,
        }
    }

    /// The condition applied to `field` (falling back to the default).
    pub fn condition_for(&self, field: &str) -> BoundaryCondition {
        self.per_field.get(field).copied().unwrap_or_default()
    }

    /// Whether two specifications describe the same boundary behaviour.
    ///
    /// This is the equality used by the stencil-fusion legality check
    /// (§V-B: fused stencils must "have the same StencilFlow boundary
    /// condition definitions").
    pub fn behaviour_eq(&self, other: &BoundarySpec) -> bool {
        self.shrink == other.shrink && self.per_field == other.per_field
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(field: &str, condition: BoundaryCondition) -> BoundarySpec {
        BoundarySpec {
            per_field: BTreeMap::from([(field.to_string(), condition)]),
            shrink: false,
        }
    }

    #[test]
    fn default_is_zero_constant() {
        assert_eq!(
            BoundaryCondition::default(),
            BoundaryCondition::Constant(0.0)
        );
        let spec = BoundarySpec::new();
        assert_eq!(
            spec.condition_for("whatever"),
            BoundaryCondition::Constant(0.0)
        );
        assert!(!spec.shrink);
    }

    #[test]
    fn builder_and_lookup() {
        let mut spec = spec("a0", BoundaryCondition::Constant(1.0));
        spec.per_field
            .insert("a1".to_string(), BoundaryCondition::Copy);
        assert_eq!(spec.condition_for("a0"), BoundaryCondition::Constant(1.0));
        assert_eq!(spec.condition_for("a1"), BoundaryCondition::Copy);
    }

    #[test]
    fn shrink_constructor() {
        let spec = BoundarySpec::shrink();
        assert!(spec.shrink);
        assert!(spec.per_field.is_empty());
    }

    #[test]
    fn behaviour_equality() {
        let a = spec("x", BoundaryCondition::Copy);
        let b = spec("x", BoundaryCondition::Copy);
        let c = spec("x", BoundaryCondition::Constant(2.0));
        assert!(a.behaviour_eq(&b));
        assert!(!a.behaviour_eq(&c));
        assert!(!a.behaviour_eq(&BoundarySpec::shrink()));
    }

    #[test]
    fn json_round_trip() {
        let condition = BoundaryCondition::Constant(1.5);
        let json = condition.to_json().to_string_compact();
        assert!(json.contains("constant"));
        let back = BoundaryCondition::from_json(&stencilflow_json::parse(&json).unwrap()).unwrap();
        assert_eq!(back, condition);

        let copy_json = stencilflow_json::parse(r#"{"type": "copy"}"#).unwrap();
        let back = BoundaryCondition::from_json(&copy_json).unwrap();
        assert_eq!(back, BoundaryCondition::Copy);

        assert!(BoundaryCondition::from_json(
            &stencilflow_json::parse(r#"{"type": "explode"}"#).unwrap()
        )
        .is_err());
    }

    #[test]
    fn each_misuse_has_its_own_error_and_text() {
        let parse = |text: &str| {
            BoundaryCondition::from_json(&stencilflow_json::parse(text).unwrap()).unwrap_err()
        };
        for text in [r#"{"value": 1}"#, r#"{"type": 3}"#, r#""copy""#] {
            let error = parse(text);
            assert_eq!(error, BoundaryJsonError::MissingType, "{text}");
            assert_eq!(
                error.to_string(),
                "boundary condition must be an object with a `type` key"
            );
        }
        let error = parse(r#"{"type": "explode"}"#);
        assert_eq!(
            error,
            BoundaryJsonError::UnknownType {
                kind: "explode".to_string()
            }
        );
        assert_eq!(
            error.to_string(),
            "unknown boundary condition type `explode` (expected `constant` or `copy`)"
        );
    }

    #[test]
    fn display() {
        assert_eq!(BoundaryCondition::Copy.to_string(), "copy");
        assert_eq!(BoundaryCondition::Constant(1.0).to_string(), "constant(1)");
    }
}
