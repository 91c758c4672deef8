//! The JSON-based program description format (paper Lst. 1).
//!
//! ```json
//! {
//!   "inputs": {
//!     "a0": { "dtype": "float32", "dims": ["i", "j", "k"] },
//!     "a2": { "dtype": "float32", "dims": ["i", "k"] }
//!   },
//!   "outputs": ["b4"],
//!   "shape": [32, 32, 32],
//!   "vectorization": 1,
//!   "program": {
//!     "b0": { "code": "a0[i,j,k] + a1[i,j,k]",
//!             "boundary_condition": { "a0": {"type": "constant", "value": 1},
//!                                      "a1": {"type": "copy"} } },
//!     "b4": { "code": "b2[i,j,k] + b3[i,j,k]",
//!             "boundary_condition": "shrink" }
//!   }
//! }
//! ```
//!
//! Only the minimum amount of information necessary to instantiate the
//! stencil DAG needs to be specified explicitly: boundary conditions,
//! vectorization, and data types all have defaults.

use crate::boundary::{BoundaryCondition, BoundarySpec};
use crate::error::{ProgramError, Result};
use crate::program::{StencilProgram, StencilProgramBuilder};
use std::collections::HashSet;
use stencilflow_expr::DataType;
use stencilflow_json::Json;

fn schema_error(message: impl Into<String>) -> ProgramError {
    ProgramError::Json {
        message: message.into(),
    }
}

/// Reject duplicate keys in a schema object. The JSON layer preserves
/// duplicates (`get` returns the first), which for a program description
/// would silently drop the later definition — e.g. two stencils with the
/// same name, where ignoring one changes program semantics. Every object
/// the schema consumes is checked; `context` names the object, and is only
/// rendered for the error.
fn check_unique_keys(value: &Json, context: impl FnOnce() -> String) -> Result<()> {
    let Some(members) = value.as_object() else {
        return Ok(());
    };
    let mut seen = HashSet::with_capacity(members.len());
    for (key, _) in members {
        if !seen.insert(key.as_str()) {
            return Err(schema_error(format!(
                "duplicate key `{key}` in {}",
                context()
            )));
        }
    }
    Ok(())
}

fn expect_str<'a>(value: &'a Json, context: &str) -> Result<&'a str> {
    value.as_str().ok_or_else(|| {
        schema_error(format!(
            "{context} must be a string, got {}",
            value.type_name()
        ))
    })
}

/// Parse a stencil program from its JSON description.
///
/// # Errors
///
/// Returns [`ProgramError::Json`] for schema violations, and the usual
/// validation errors (unknown fields, cycles, ...) for semantic problems.
///
/// # Example
///
/// ```
/// let text = r#"{
///   "inputs": { "a": {"dtype": "float32", "dims": ["i", "j"]} },
///   "outputs": ["b"],
///   "shape": [8, 8],
///   "program": { "b": "a[i,j] * 2.0" }
/// }"#;
/// let program = stencilflow_program::from_json(text).unwrap();
/// assert_eq!(program.stencil_count(), 1);
/// ```
pub fn from_json(text: &str) -> Result<StencilProgram> {
    let mut root = stencilflow_json::parse(text).map_err(|e| schema_error(e.to_string()))?;
    if root.as_object().is_none() {
        return Err(schema_error("program description must be a JSON object"));
    }
    check_unique_keys(&root, || "the program description".into())?;

    let name = match root.get("name") {
        Some(v) => expect_str(v, "`name`")?.to_string(),
        None => "stencil_program".to_string(),
    };
    let shape: Vec<usize> = root
        .get("shape")
        .and_then(Json::as_array)
        .ok_or_else(|| schema_error("missing or non-array `shape`"))?
        .iter()
        .map(|v| {
            v.as_usize()
                .ok_or_else(|| schema_error("`shape` entries must be non-negative integers"))
        })
        .collect::<Result<_>>()?;

    let mut builder = StencilProgramBuilder::new(&name, &shape);
    if let Some(dims_value) = root.get("dims") {
        let dims: Vec<&str> = dims_value
            .as_array()
            .ok_or_else(|| schema_error("`dims` must be an array of strings"))?
            .iter()
            .map(|v| expect_str(v, "`dims` entry"))
            .collect::<Result<_>>()?;
        builder = builder.dims(&dims);
    }
    if let Some(width) = root.get("vectorization") {
        let width = width
            .as_usize()
            .ok_or_else(|| schema_error("`vectorization` must be a non-negative integer"))?;
        builder = builder.vectorization(width);
    }

    let inputs = root
        .get("inputs")
        .and_then(Json::as_object)
        .ok_or_else(|| schema_error("missing or non-object `inputs`"))?;
    check_unique_keys(root.get("inputs").expect("checked above"), || {
        "`inputs`".into()
    })?;
    for (field, decl) in inputs {
        check_unique_keys(decl, || format!("input `{field}`"))?;
        let dtype_name = decl
            .get("dtype")
            .ok_or_else(|| schema_error(format!("input `{field}` is missing `dtype`")))
            .and_then(|v| expect_str(v, "`dtype`"))?;
        let dtype: DataType = dtype_name.parse().map_err(|_| {
            schema_error(format!(
                "unknown data type `{dtype_name}` for input `{field}`"
            ))
        })?;
        let dims: Vec<&str> = match decl.get("dims") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| schema_error(format!("`dims` of input `{field}` must be an array")))?
                .iter()
                .map(|d| expect_str(d, "`dims` entry"))
                .collect::<Result<_>>()?,
            None => Vec::new(),
        };
        builder = builder.input(field, dtype, &dims);
    }

    let program = root
        .get("program")
        .filter(|program| program.as_object().is_some())
        .ok_or_else(|| schema_error("missing or non-object `program`"))?;
    check_unique_keys(program, || "`program`".into())?;
    // The stencils' names and code move out of the parsed tree.
    let Some(Json::Object(stencils)) = root_member(&mut root, "program") else {
        unreachable!("checked above")
    };
    for (stencil, mut entry) in std::mem::take(stencils) {
        check_unique_keys(&entry, || format!("stencil `{stencil}`"))?;
        // The paper's format allows either a bare code string or an object
        // with `code`, `boundary_condition`, and `data_type`.
        let code = match &mut entry {
            Json::String(code) => std::mem::take(code),
            Json::Object(members) => {
                let code = (members.iter_mut())
                    .find_map(|(key, value)| (key == "code").then_some(value))
                    .ok_or_else(|| {
                        schema_error(format!("stencil `{stencil}` is missing `code`"))
                    })?;
                expect_str(code, "`code`")?;
                match code {
                    Json::String(code) => std::mem::take(code),
                    _ => unreachable!("a string, checked above"),
                }
            }
            other => {
                return Err(schema_error(format!(
                    "stencil `{stencil}` must be a string or object, got {}",
                    other.type_name()
                )))
            }
        };
        builder = builder.stencil_owned(&stencil, code);
        if let Some(boundary) = entry.get("boundary_condition") {
            builder = builder.boundary_spec(&stencil, parse_boundary(&stencil, boundary)?);
        }
        if let Some(dtype) = entry.get("data_type") {
            let dtype = expect_str(dtype, "`data_type`")?;
            let dtype: DataType = dtype.parse().map_err(|_| {
                schema_error(format!(
                    "unknown data type `{dtype}` for stencil `{stencil}`"
                ))
            })?;
            builder = builder.output_type(&stencil, dtype);
        }
    }

    let outputs = root
        .get("outputs")
        .and_then(Json::as_array)
        .ok_or_else(|| schema_error("missing or non-array `outputs`"))?;
    if outputs.is_empty() {
        return Err(schema_error("`outputs` must list at least one stencil"));
    }
    for output in outputs {
        builder = builder.output(expect_str(output, "`outputs` entry")?);
    }
    builder.build()
}

/// The first member `key` of the object `root`, mutably.
fn root_member<'a>(root: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match root {
        Json::Object(members) => (members.iter_mut()).find_map(|(k, v)| (k == key).then_some(v)),
        _ => None,
    }
}

fn parse_boundary(stencil: &str, value: &Json) -> Result<BoundarySpec> {
    match value {
        Json::String(s) if s == "shrink" => Ok(BoundarySpec::shrink()),
        Json::String(other) => Err(schema_error(format!(
            "boundary condition of `{stencil}` must be `\"shrink\"` or a per-field map, got `{other}`"
        ))),
        Json::Object(members) => {
            check_unique_keys(value, || format!("boundary condition of `{stencil}`"))?;
            let mut spec = BoundarySpec::new();
            for (field, condition) in members {
                if field == "shrink" {
                    spec.shrink = condition.as_bool().unwrap_or(true);
                    continue;
                }
                let condition = BoundaryCondition::from_json(condition).map_err(|e| {
                    schema_error(format!(
                        "invalid boundary condition for field `{field}` of `{stencil}`: {e}"
                    ))
                })?;
                spec.per_field.insert(field.clone(), condition);
            }
            Ok(spec)
        }
        other => Err(schema_error(format!(
            "boundary condition of `{stencil}` must be a string or object, got {}",
            other.type_name()
        ))),
    }
}

/// Serialize a stencil program back to its JSON description.
///
/// The output parses back into an equivalent program with [`from_json`]
/// (modulo key ordering).
pub fn to_json(program: &StencilProgram) -> String {
    let inputs = Json::Object(
        program
            .inputs()
            .map(|(name, decl)| {
                (
                    name.to_string(),
                    Json::Object(vec![
                        (
                            "dtype".to_string(),
                            Json::String(decl.data_type().as_str().to_string()),
                        ),
                        (
                            "dims".to_string(),
                            Json::Array(
                                decl.dims.iter().map(|d| Json::String(d.clone())).collect(),
                            ),
                        ),
                    ]),
                )
            })
            .collect(),
    );
    let stencils = Json::Object(
        program
            .stencils()
            .map(|stencil| {
                let mut entry = vec![("code".to_string(), Json::String(stencil.code.clone()))];
                let mut boundary: Vec<(String, Json)> = stencil
                    .boundary
                    .per_field
                    .iter()
                    .map(|(field, condition)| (field.clone(), condition.to_json()))
                    .collect();
                if stencil.boundary.shrink {
                    boundary.push(("shrink".to_string(), Json::Bool(true)));
                }
                if !boundary.is_empty() {
                    entry.push(("boundary_condition".to_string(), Json::Object(boundary)));
                }
                entry.push((
                    "data_type".to_string(),
                    Json::String(stencil.output_type.as_str().to_string()),
                ));
                (stencil.name.clone(), Json::Object(entry))
            })
            .collect(),
    );
    let description = Json::Object(vec![
        ("name".to_string(), Json::String(program.name().to_string())),
        ("inputs".to_string(), inputs),
        (
            "outputs".to_string(),
            Json::Array(
                program
                    .outputs()
                    .iter()
                    .map(|o| Json::String(o.clone()))
                    .collect(),
            ),
        ),
        (
            "shape".to_string(),
            Json::Array(
                program
                    .space()
                    .shape
                    .iter()
                    .map(|&s| Json::Number(s as f64))
                    .collect(),
            ),
        ),
        (
            "dims".to_string(),
            Json::Array(
                program
                    .space()
                    .dims
                    .iter()
                    .map(|d| Json::String(d.clone()))
                    .collect(),
            ),
        ),
        (
            "vectorization".to_string(),
            Json::Number(program.vectorization() as f64),
        ),
        ("program".to_string(), stencils),
    ]);
    description.to_string_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_cycle_error_names_a_node_on_the_cycle() {
        // `a1` only reads the cycle b -> c -> d -> b; the error used to name
        // it, the first unsorted node by name.
        let text = r#"{
          "inputs": { "x": {"dtype": "float32", "dims": ["i"]} },
          "outputs": ["a1"],
          "shape": [8],
          "program": { "b": "x[i] + d[i]", "c": "b[i]", "d": "c[i]", "a1": "d[i]" }
        }"#;
        let error = from_json(text).unwrap_err();
        assert_eq!(
            error,
            ProgramError::Cycle {
                node: "b".to_string()
            }
        );
        assert_eq!(
            error.to_string(),
            "dependency graph contains a cycle through `b`"
        );
    }

    /// The paper's Lst. 1, verbatim apart from fixing the typo in b3's code
    /// (`b1[i+1,j k]` is missing a comma in the paper).
    const LISTING1: &str = r#"{
      "inputs": {
        "a0": {"dtype": "float32", "dims": ["i","j","k"]},
        "a1": {"dtype": "float32", "dims": ["i","j","k"]},
        "a2": {"dtype": "float32", "dims": ["i","k"]}
      },
      "outputs": ["b4"],
      "shape": [32, 32, 32],
      "program": {
        "b0": {"code": "a0[i,j,k] + a1[i,j,k]",
               "boundary_condition": {
                 "a0": {"type": "constant", "value": 1},
                 "a1": {"type": "copy"} } },
        "b1": {"code": "0.5*(b0[i,j,k] + a2[i,k])",
               "boundary_condition": "shrink"},
        "b2": {"code": "0.5*(b0[i,j,k] - a2[i,k])",
               "boundary_condition": "shrink"},
        "b3": {"code": "b1[i-1,j,k] + b1[i+1,j,k]",
               "boundary_condition": "shrink"},
        "b4": {"code": "b2[i,j,k] + b3[i,j,k]",
               "boundary_condition": "shrink"}
      }
    }"#;

    #[test]
    fn parses_listing1() {
        let program = from_json(LISTING1).unwrap();
        assert_eq!(program.stencil_count(), 5);
        assert_eq!(program.outputs(), &["b4".to_string()]);
        assert_eq!(program.space().shape, vec![32, 32, 32]);
        let b0 = program.stencil("b0").unwrap();
        assert_eq!(
            b0.boundary.condition_for("a0"),
            BoundaryCondition::Constant(1.0)
        );
        assert_eq!(b0.boundary.condition_for("a1"), BoundaryCondition::Copy);
        assert!(program.stencil("b1").unwrap().boundary.shrink);
    }

    #[test]
    fn bare_code_strings_are_accepted() {
        let text = r#"{
          "inputs": { "a": {"dtype": "float32", "dims": ["i"]} },
          "outputs": ["b"],
          "shape": [16],
          "program": { "b": "a[i] * 2.0" }
        }"#;
        let program = from_json(text).unwrap();
        assert_eq!(program.stencil_count(), 1);
    }

    #[test]
    fn vectorization_and_dims_are_honoured() {
        let text = r#"{
          "inputs": { "a": {"dtype": "float32", "dims": ["x", "y"]} },
          "outputs": ["b"],
          "shape": [8, 16],
          "dims": ["x", "y"],
          "vectorization": 4,
          "program": { "b": "a[x,y] + 1.0" }
        }"#;
        let program = from_json(text).unwrap();
        assert_eq!(program.vectorization(), 4);
        assert_eq!(program.space().dims, vec!["x", "y"]);
    }

    #[test]
    fn json_round_trip() {
        let program = from_json(LISTING1).unwrap();
        let text = to_json(&program);
        let reparsed = from_json(&text).unwrap();
        assert_eq!(reparsed.stencil_count(), program.stencil_count());
        assert_eq!(reparsed.outputs(), program.outputs());
        assert_eq!(reparsed.space(), program.space());
        for stencil in program.stencils() {
            let other = reparsed.stencil(&stencil.name).unwrap();
            assert_eq!(other.program, stencil.program);
            assert!(other.boundary.behaviour_eq(&stencil.boundary));
        }
    }

    #[test]
    fn schema_errors_are_reported() {
        assert!(matches!(from_json("{"), Err(ProgramError::Json { .. })));
        assert!(matches!(
            from_json(r#"{"inputs": {}, "outputs": [], "shape": []}"#),
            Err(ProgramError::Json { .. })
        ));
        // Bad boundary condition type.
        let text = r#"{
          "inputs": { "a": {"dtype": "float32", "dims": ["i"]} },
          "outputs": ["b"],
          "shape": [16],
          "program": { "b": {"code": "a[i]", "boundary_condition": "explode"} }
        }"#;
        assert!(matches!(from_json(text), Err(ProgramError::Json { .. })));
        // Missing `dtype` is a schema violation, not a silent default.
        let text = r#"{
          "inputs": { "a": {"dims": ["i"]} },
          "outputs": ["b"],
          "shape": [16],
          "program": { "b": "a[i]" }
        }"#;
        assert!(matches!(from_json(text), Err(ProgramError::Json { .. })));
    }

    #[test]
    fn the_first_duplicate_key_is_reported() {
        let message = |text: &str| match from_json(text) {
            Err(ProgramError::Json { message }) => message,
            other => panic!("expected a schema error, got {other:?}"),
        };
        // `b` repeats before `a` does, so `b` is the first duplicate.
        let text = r#"{
          "inputs": { "x": {"dtype": "float32", "dims": ["i"]} },
          "outputs": ["a"],
          "shape": [16],
          "program": { "a": "x[i]", "b": "x[i]", "b": "a[i]", "a": "b[i]" }
        }"#;
        assert_eq!(message(text), "duplicate key `b` in `program`");
        let text = r#"{
          "inputs": { "x": {"dtype": "float32", "dims": ["i"], "dtype": "float64"} },
          "outputs": ["b"],
          "shape": [16],
          "program": { "b": "x[i]" }
        }"#;
        assert_eq!(message(text), "duplicate key `dtype` in input `x`");
        let text = r#"{ "shape": [16], "shape": [8] }"#;
        assert_eq!(
            message(text),
            "duplicate key `shape` in the program description"
        );
    }

    #[test]
    fn semantic_errors_surface_through_json_parsing() {
        let text = r#"{
          "inputs": { "a": {"dtype": "float32", "dims": ["i"]} },
          "outputs": ["b"],
          "shape": [16],
          "program": { "b": "zz[i] * 2.0" }
        }"#;
        assert!(matches!(
            from_json(text),
            Err(ProgramError::UnknownField { .. })
        ));
    }
}
