//! Fuzzing for the JSON program parser: malformed input of any shape must
//! come back as a named [`ProgramError`] variant — never a panic, abort, or
//! stack overflow. Uses the in-tree proptest stand-in for deterministic,
//! seed-driven case generation, plus fixed regression cases for the panics
//! the fuzzer originally surfaced.

use proptest::prelude::*;
use stencilflow_program::{from_json, ProgramError};

/// A syntactically valid program description to mutate. Exercises every
/// schema feature: dims, vectorization, typed inputs, scalars, boundary
/// conditions (constant / copy / shrink), output types, and a small DAG.
const TEMPLATE: &str = r#"{
  "name": "fuzz_template",
  "dims": ["i", "j", "k"],
  "shape": [8, 8, 8],
  "vectorization": 2,
  "inputs": {
    "a": { "dtype": "float32", "dims": ["i", "j", "k"] },
    "p": { "dtype": "float64", "dims": ["i", "k"] },
    "c": { "dtype": "float64", "dims": [] }
  },
  "outputs": ["b1"],
  "program": {
    "b0": { "code": "a[i,j,k] + p[i,k] * c",
            "boundary_condition": { "a": {"type": "constant", "value": 1.5},
                                    "p": {"type": "copy"} } },
    "b1": { "code": "b0[i-1,j,k] + b0[i+1,j,k]",
            "boundary_condition": "shrink",
            "dtype": "float64" }
  }
}"#;

/// Vocabulary for grammar-based generation: schema keys, plausible values,
/// and JSON punctuation, so random documents regularly get deep into the
/// schema checks rather than dying at the first parse error.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ":",
    ",",
    "\"",
    " ",
    "\n",
    "\"name\"",
    "\"dims\"",
    "\"shape\"",
    "\"vectorization\"",
    "\"inputs\"",
    "\"outputs\"",
    "\"program\"",
    "\"dtype\"",
    "\"code\"",
    "\"boundary_condition\"",
    "\"type\"",
    "\"value\"",
    "\"constant\"",
    "\"copy\"",
    "\"shrink\"",
    "\"float32\"",
    "\"float64\"",
    "\"i\"",
    "\"j\"",
    "\"k\"",
    "\"a\"",
    "\"b0\"",
    "\"b1\"",
    "\"a[i,j,k]\"",
    "\"a[i,j,k] + 1.0\"",
    "\"b0[i,j,k]\"",
    "0",
    "1",
    "8",
    "-1",
    "1e308",
    "1e-308",
    "-0.0",
    "18446744073709551615",
    "null",
    "true",
    "false",
    "\\u0000",
    "\\ud800",
    "𝛼",
];

/// The property under test: whatever we feed the parser, it returns a
/// `Result` — reaching this assertion at all proves no panic happened.
fn never_panics(text: &str) -> std::result::Result<(), TestCaseError> {
    match from_json(text) {
        Ok(_) => Ok(()),
        Err(
            e @ (ProgramError::Json { .. }
            | ProgramError::Code { .. }
            | ProgramError::UnknownField { .. }
            | ProgramError::DuplicateName { .. }
            | ProgramError::UnknownOutput { .. }
            | ProgramError::DuplicateOutput { .. }
            | ProgramError::OutputMemoryName { .. }
            | ProgramError::Cycle { .. }
            | ProgramError::InvalidShape { .. }
            | ProgramError::InvalidAccess { .. }
            | ProgramError::InvalidBoundary { .. }
            | ProgramError::Invalid { .. }
            | ProgramError::InvalidVectorization { .. }),
        ) => {
            // Every variant is named and printable.
            prop_assert!(!e.to_string().is_empty());
            Ok(())
        }
    }
}

fn grammar_case(rng: &mut TestRng) -> String {
    let len = rng.below(60) as usize + 1;
    let mut out = String::from("{");
    for _ in 0..len {
        out.push_str(TOKENS[rng.below(TOKENS.len() as u64) as usize]);
    }
    if rng.below(2) == 0 {
        out.push('}');
    }
    out
}

fn mutated_template(rng: &mut TestRng) -> String {
    let mut chars: Vec<char> = TEMPLATE.chars().collect();
    let edits = rng.below(8) + 1;
    for _ in 0..edits {
        if chars.is_empty() {
            break;
        }
        let at = rng.below(chars.len() as u64) as usize;
        match rng.below(5) {
            0 => {
                chars.remove(at);
            }
            1 => {
                let token = TOKENS[rng.below(TOKENS.len() as u64) as usize];
                for (k, c) in token.chars().enumerate() {
                    chars.insert(at + k, c);
                }
            }
            2 => {
                let replacement = b"{}[]:,\"0123456789eE+-. abz"[rng.below(26) as usize] as char;
                chars[at] = replacement;
            }
            3 => chars.truncate(at),
            _ => {
                // Duplicate a short span (breeds duplicate keys / members).
                let end = (at + rng.below(40) as usize + 1).min(chars.len());
                let span: Vec<char> = chars[at..end].to_vec();
                for (k, c) in span.into_iter().enumerate() {
                    chars.insert(end + k, c);
                }
            }
        }
    }
    chars.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structured-noise fuzzing: random documents built from schema tokens.
    #[test]
    fn fuzz_grammar_inputs_never_panic(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("fuzz_grammar", seed);
        for _ in 0..8 {
            never_panics(&grammar_case(&mut rng))?;
        }
    }

    /// Mutation fuzzing: corrupt a valid program description a few chars at
    /// a time, so inputs stay close to the happy path and stress the deep
    /// schema/validation code rather than the tokenizer.
    #[test]
    fn fuzz_mutated_templates_never_panic(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("fuzz_mutate", seed);
        for _ in 0..8 {
            never_panics(&mutated_template(&mut rng))?;
        }
    }

    /// Raw-noise fuzzing: arbitrary character soup, including non-ASCII.
    #[test]
    fn fuzz_random_text_never_panics(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("fuzz_raw", seed);
        let len = rng.below(200) as usize;
        let text: String = (0..len)
            .filter_map(|_| char::from_u32(rng.next_u64() as u32 % 0x2000))
            .collect();
        never_panics(&text)?;
    }
}

#[test]
fn template_is_valid() {
    // The mutation corpus must start from a parseable document, otherwise
    // `fuzz_mutated_templates_never_panic` silently tests nothing deep.
    let program = from_json(TEMPLATE).expect("fuzz template must parse");
    assert_eq!(program.stencil_count(), 2);
}

#[test]
fn regression_overflowing_shape_is_rejected_not_a_panic() {
    // Found by the fuzzer: `shape` extents multiply into `num_cells`, and a
    // product past usize::MAX used to overflow-panic under debug assertions
    // (the test profile) before any allocation was attempted.
    let text = r#"{
      "inputs": { "a": {"dtype": "float32", "dims": ["i", "j", "k"]} },
      "outputs": ["b"],
      "shape": [18446744073709551615, 18446744073709551615, 2],
      "program": { "b": "a[i,j,k]" }
    }"#;
    let err = from_json(text).unwrap_err();
    assert!(matches!(err, ProgramError::InvalidShape { .. }));
    assert!(err.to_string().contains("overflows"));
    // A cell count that fits in usize but whose byte size does not is also
    // rejected up front instead of aborting in the allocator later.
    let text = r#"{
      "inputs": { "a": {"dtype": "float64", "dims": ["i", "j"]} },
      "outputs": ["b"],
      "shape": [4294967296, 2147483648],
      "program": { "b": "a[i,j]" }
    }"#;
    assert!(matches!(
        from_json(text),
        Err(ProgramError::InvalidShape { .. })
    ));
}

#[test]
fn regression_deep_nesting_is_rejected_not_a_stack_overflow() {
    // Found by the fuzzer: the recursive-descent JSON parser recursed once
    // per `[`/`{`, so ~100k open brackets blew the thread stack. The parser
    // now enforces a nesting-depth bound and reports it as a schema error.
    let bomb = format!("{{\"shape\": {}", "[".repeat(100_000));
    let err = from_json(&bomb).unwrap_err();
    assert!(matches!(err, ProgramError::Json { .. }));
    assert!(err.to_string().contains("nesting"));
}

#[test]
fn regression_duplicate_keys_are_rejected_not_first_wins() {
    // The JSON layer preserves duplicate members and `get` returns the
    // first, so before the schema-level uniqueness check a duplicated
    // stencil, input, or top-level key silently dropped the later
    // definition — a semantic change, not a parse error. Pinned per
    // object the schema consumes.
    let cases: &[&str] = &[
        // Two stencils with the same name: which body runs?
        r#"{"shape": [8], "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["b"], "program": {"b": "a[i]", "b": "a[i] + 1.0"}}"#,
        // Two declarations of the same input with different dtypes.
        r#"{"shape": [8], "inputs": {"a": {"dtype": "float32", "dims": ["i"]},
                                      "a": {"dtype": "float64", "dims": ["i"]}},
            "outputs": ["b"], "program": {"b": "a[i]"}}"#,
        // Conflicting top-level shapes.
        r#"{"shape": [8], "shape": [4],
            "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["b"], "program": {"b": "a[i]"}}"#,
        // Duplicate key inside one input declaration.
        r#"{"shape": [8],
            "inputs": {"a": {"dtype": "float32", "dtype": "float64", "dims": ["i"]}},
            "outputs": ["b"], "program": {"b": "a[i]"}}"#,
        // Duplicate key inside a stencil entry.
        r#"{"shape": [8], "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["b"],
            "program": {"b": {"code": "a[i]", "code": "a[i] * 2.0"}}}"#,
        // Duplicate field in a boundary-condition map.
        r#"{"shape": [8], "inputs": {"a": {"dtype": "float32", "dims": ["i"]}},
            "outputs": ["b"],
            "program": {"b": {"code": "a[i-1]",
                               "boundary_condition": {"a": {"type": "copy"},
                                                       "a": {"type": "constant", "value": 0}}}}}"#,
    ];
    for case in cases {
        let err = from_json(case).expect_err("duplicate keys must be rejected");
        assert!(
            matches!(err, ProgramError::Json { .. }),
            "expected a schema error, got {err:?}"
        );
        assert!(err.to_string().contains("duplicate key"), "{err}");
    }
}

#[test]
fn regression_schema_edge_cases_yield_named_errors() {
    // Shapes the generators hit that must map to named variants, pinned so
    // they stay errors (not panics) as the schema evolves.
    let cases: &[&str] = &[
        "",
        "{",
        "[1,2",
        "\"\\ud800\"",
        "{\"shape\": [1e308], \"inputs\": {}, \"outputs\": [], \"program\": {}}",
        "{\"shape\": [-1], \"inputs\": {}, \"outputs\": [], \"program\": {}}",
        "{\"shape\": [8], \"inputs\": {\"a\": {\"dtype\": \"float128\", \"dims\": [\"i\"]}},
          \"outputs\": [\"b\"], \"program\": {\"b\": \"a[i]\"}}",
        "{\"shape\": [8], \"inputs\": {\"a\": {\"dtype\": \"float32\", \"dims\": [\"i\"]}},
          \"outputs\": [\"b\"], \"program\": {\"b\": \"b[i]\"}}",
        "{\"shape\": [8, 8], \"inputs\": {}, \"outputs\": [], \"program\": 7}",
    ];
    for case in cases {
        let err = from_json(case).expect_err("malformed input must not parse");
        assert!(!err.to_string().is_empty(), "error must be printable");
    }
}
