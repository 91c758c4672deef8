//! Analyzer goldens: broken programs must produce exactly the pinned
//! diagnostic codes, so the registry in `docs/analysis.md` stays an API.
//!
//! The builder's own validation rejects cyclic programs, so the cyclic
//! golden is built valid and then broken through the program-transform
//! mutators — the same route a buggy optimization pass would take.

use stencilflow_analysis::{analyze_program, analyze_sharding, Severity};
use stencilflow_core::ShardLinkSpec;
use stencilflow_expr::DataType;
use stencilflow_program::{StencilNode, StencilProgram, StencilProgramBuilder};

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
    // Integer kernels also never specialize to a typed stream, so the
    // Tier-4 eligibility check reports alongside the division warning.
    assert_eq!(codes(&report), vec!["SF0206", "SF0208"]);
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

#[test]
fn native_ineligible_stencils_report_sf0208() {
    // An int32 output on a float kernel: fused-tier eligible, but Tier-4
    // stays off (the native sweep stores raw doubles).
    let program = StencilProgramBuilder::new("intout", &[8, 8])
        .dims(&["i", "j"])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j]")
        .output_type("s", DataType::Int32)
        .output("s")
        .build()
        .unwrap();
    let report = analyze_program(&program);
    let native = report.with_code("SF0208");
    assert_eq!(native.len(), 1);
    assert_eq!(native[0].severity, Severity::Info);
    assert_eq!(native[0].location, "intout/s");
    assert!(native[0].message.contains("not a float type"));
    assert!(report.is_clean(), "SF0208 is informational");

    // A select mixing an f32 slot with the f64 literal specializes (the
    // join is typed at run time) and is Tier-4 eligible: silent.
    let mixsel = |code: &str| {
        StencilProgramBuilder::new("mixsel", &[8, 8])
            .dims(&["i", "j"])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("s", code)
            .output("s")
            .build()
            .unwrap()
    };
    let mixed_width = analyze_program(&mixsel("a[i,j] < 0.5 ? a[i,j] : 0.5"));
    assert!(mixed_width.with_code("SF0208").is_empty());
    // An integer literal arm never specializes: no typed stream, so
    // neither the typed tiers nor Tier-4 apply.
    let report = analyze_program(&mixsel("a[i,j] < 0.5 ? a[i,j] : 1"));
    let native = report.with_code("SF0208");
    assert_eq!(native.len(), 1);
    assert!(native[0].message.contains("does not specialize"));

    // Every Tier-4-eligible kernel stays silent.
    let clean = StencilProgramBuilder::new("clean", &[8, 8])
        .dims(&["i", "j"])
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", "a[i-1,j] + a[i+1,j] * 0.5")
        .output("s")
        .build()
        .unwrap();
    assert!(analyze_program(&clean).with_code("SF0208").is_empty());
}

fn halo_chain() -> StencilProgram {
    StencilProgramBuilder::new("halo-chain", &[24, 10, 8])
        .input("f0", DataType::Float64, &["i", "j", "k"])
        .stencil("f1", "(f0[i-1,j,k] + f0[i+1,j,k] + f0[i,j,k]) * 0.333333")
        .output_type("f1", DataType::Float64)
        .output("f1")
        .build()
        .unwrap()
}

#[test]
fn undersized_shard_link_reports_sf0301() {
    let spec = ShardLinkSpec::new(4, 1, 4)
        .with_link_capacity_words(4)
        .with_feedback_pairs(1);
    let (requirement, diags) = analyze_sharding(&halo_chain(), &spec);
    let requirement = requirement.unwrap();
    assert!(requirement.deadlock_predicted);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].code, "SF0301");
    assert_eq!(diags[0].severity, Severity::Error);
    // The message carries the sizing math, not just the verdict.
    assert!(diags[0]
        .message
        .contains(&requirement.required_frame_words.to_string()));

    // The same geometry with default capacity is deadlock free.
    let default_spec = ShardLinkSpec::new(4, 1, 4).with_feedback_pairs(1);
    let (req, diags) = analyze_sharding(&halo_chain(), &default_spec);
    assert!(!req.unwrap().deadlock_predicted);
    assert!(diags.is_empty());
}
