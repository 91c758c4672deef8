//! Analyzer goldens: broken programs must produce exactly the pinned
//! diagnostic codes, so the registry in `docs/analysis.md` stays an API.
//!
//! The builder's own validation rejects cyclic programs, so the cyclic
//! golden is built valid and then broken through the program-transform
//! mutators — the same route a buggy optimization pass would take.

use stencilflow_analysis::{analyze_program, Severity};
use stencilflow_expr::DataType;
use stencilflow_program::{StencilNode, StencilProgramBuilder};

fn codes(report: &stencilflow_analysis::AnalysisReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

#[test]
fn cyclic_dag_reports_sf0201_with_named_path() {
    let mut program = StencilProgramBuilder::new("cyclic", &[16, 16])
        .dims(&["i", "j"])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("b", "a[i,j] + 1.0")
        .stencil("c", "b[i,j] * 2.0")
        .output("c")
        .build()
        .unwrap();
    // Break it the way a buggy transform would: rewrite `b` to read its
    // own consumer.
    program.insert_stencil(StencilNode::parse("b", "a[i,j] + c[i,j]").unwrap());
    let report = analyze_program(&program);
    let cycles = report.with_code("SF0201");
    assert_eq!(cycles.len(), 1);
    assert_eq!(cycles[0].severity, Severity::Error);
    assert!(!report.is_clean());
    // The message names the actual cycle, not just its existence.
    let message = &cycles[0].message;
    assert!(
        message.contains("b -> c -> b") || message.contains("c -> b -> c"),
        "cycle path missing from: {message}"
    );
}

#[test]
fn type_mismatched_edge_reports_sf0204() {
    let program = StencilProgramBuilder::new("narrowing", &[16, 16])
        .dims(&["i", "j"])
        .input("wide", DataType::Float64, &["i", "j"])
        .stencil("out", "wide[i,j] * 0.5")
        .output("out") // output_type defaults to Float32: narrower than Float64
        .build()
        .unwrap();
    let report = analyze_program(&program);
    assert_eq!(codes(&report), vec!["SF0204"]);
    assert_eq!(report.diagnostics[0].severity, Severity::Warning);
    assert_eq!(report.diagnostics[0].location, "narrowing/out");
    assert!(report.is_clean(), "narrowing is a warning, not an error");
}

#[test]
fn dead_stencil_and_unused_input_report_sf0202_sf0203() {
    let program = StencilProgramBuilder::new("deadwood", &[16, 16])
        .dims(&["i", "j"])
        .input("a", DataType::Float32, &["i", "j"])
        .input("ghost", DataType::Float32, &["i", "j"])
        .stencil("live", "a[i,j] + 1.0")
        .stencil("orphan", "ghost[i,j] * 2.0")
        .output("live")
        .build()
        .unwrap();
    let report = analyze_program(&program);
    let mut found = codes(&report);
    found.sort_unstable();
    assert_eq!(found, vec!["SF0202", "SF0203"]);
    assert_eq!(report.with_code("SF0202")[0].location, "deadwood/orphan");
    assert_eq!(report.with_code("SF0203")[0].location, "deadwood/ghost");
}

#[test]
fn oversized_footprint_reports_sf0205() {
    let program = StencilProgramBuilder::new("oob", &[4, 4])
        .dims(&["i", "j"])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("b", "a[i-5,j] + a[i,j]")
        .output("b")
        .build()
        .unwrap();
    let report = analyze_program(&program);
    let oob = report.with_code("SF0205");
    assert_eq!(oob.len(), 1);
    assert_eq!(oob[0].severity, Severity::Error);
    assert!(!report.is_clean());
}

#[test]
fn reachable_integer_division_reports_sf0206() {
    let program = StencilProgramBuilder::new("intdiv", &[8, 8])
        .dims(&["i", "j"])
        .input("n", DataType::Int64, &["i", "j"])
        .input("d", DataType::Int64, &["i", "j"])
        .stencil("q", "n[i,j] / d[i,j]")
        .output_type("q", DataType::Int64)
        .output("q")
        .build()
        .unwrap();
    let report = analyze_program(&program);
    assert_eq!(codes(&report), vec!["SF0206"]);
    // Float division cannot fail, so the same shape in f64 is clean.
    let float_program = StencilProgramBuilder::new("floatdiv", &[8, 8])
        .dims(&["i", "j"])
        .input("n", DataType::Float64, &["i", "j"])
        .input("d", DataType::Float64, &["i", "j"])
        .stencil("q", "n[i,j] / d[i,j]")
        .output_type("q", DataType::Float64)
        .output("q")
        .build()
        .unwrap();
    assert!(analyze_program(&float_program).diagnostics.is_empty());
}
