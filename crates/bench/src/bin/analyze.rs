//! Static-analysis sweep over every workload: run the program/DAG
//! analyzer and the shard-link sizing pass on each, print the findings
//! compiler-style, and write a JSON artifact of every diagnostic. The
//! sweep also takes the census of kernel forms — how many stencils the
//! executor sweeps on a typed (lane-batched) kernel and how many on the
//! boxed `Value` kernel — per program and in total, and of fuse plans: how
//! many programs the fused tier takes and how many fall back to the
//! materializing sweep.
//!
//! With `--check`, exits non-zero if any workload produces an
//! error-severity diagnostic — the CI gate that keeps the whole workload
//! suite analysis-clean. Warnings and infos are reported but do not gate.
//!
//! Usage: `analyze [--check] [--out PATH]`

use stencilflow_analysis::{analyze_program, analyze_sharding, AnalysisReport, Severity};
use stencilflow_core::ShardLinkSpec;
use stencilflow_json::Json;
use stencilflow_reference::{ReferenceExecutor, Tier};
use stencilflow_workloads::analyze_suite;

/// A census pair as a JSON object with the two given member names.
fn pair_json(names: [&str; 2], (a, b): (usize, usize)) -> Json {
    Json::Object(vec![
        (names[0].into(), Json::Number(a as f64)),
        (names[1].into(), Json::Number(b as f64)),
    ])
}

fn main() {
    let mut check = false;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => {
                let Some(path) = args.next() else {
                    eprintln!("--out requires a path");
                    std::process::exit(2);
                };
                out = Some(path);
            }
            other => {
                eprintln!("unknown argument `{other}` (usage: analyze [--check] [--out PATH])");
                std::process::exit(2);
            }
        }
    }

    let mut reports: Vec<AnalysisReport> = Vec::new();
    let mut kernel_forms: Vec<(usize, usize)> = Vec::new();
    let mut fuse_plans = (0usize, 0usize);
    let executor = ReferenceExecutor::new();
    let mut errors = 0usize;
    let mut warnings = 0usize;
    for program in analyze_suite() {
        let mut report = analyze_program(&program);
        // Sweep the sharded-run configuration every workload would get by
        // default: the static pass must prove the default link sizing
        // deadlock free for each of them.
        let spec = ShardLinkSpec::new(4, 1, 4).with_feedback_pairs(program.outputs().len());
        let (_, shard_diags) = analyze_sharding(&program, &spec);
        report.diagnostics.extend(shard_diags);
        for diag in &report.diagnostics {
            println!("{}", diag.render());
            match diag.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
                Severity::Info => {}
            }
        }
        reports.push(report);
        let compiled = executor
            .prepare(&program)
            .expect("the suite's programs compile");
        let typed = compiled.typed_stencil_count();
        kernel_forms.push((typed, compiled.stencil_count() - typed));
        match compiled.tier_trace().reason(Tier::Fused, None) {
            None => fuse_plans.0 += 1,
            Some(_) => fuse_plans.1 += 1,
        }
    }

    let clean = reports.iter().filter(|r| r.diagnostics.is_empty()).count();
    println!(
        "analyzed {} workloads: {} clean, {} warning(s), {} error(s)",
        reports.len(),
        clean,
        warnings,
        errors
    );
    let total = kernel_forms
        .iter()
        .fold((0, 0), |(t, b), (typed, boxed)| (t + typed, b + boxed));
    println!("kernel forms: {} typed, {} boxed", total.0, total.1);
    println!(
        "fuse plans: {} fused, {} fallback",
        fuse_plans.0, fuse_plans.1
    );

    if let Some(path) = out {
        let json = Json::Object(vec![
            (
                "workloads".into(),
                Json::Array(
                    reports
                        .iter()
                        .zip(&kernel_forms)
                        .map(|(report, &forms)| {
                            let Json::Object(mut members) = report.to_json() else {
                                unreachable!("reports render as objects");
                            };
                            members.push((
                                "kernel_forms".into(),
                                pair_json(["typed", "boxed"], forms),
                            ));
                            Json::Object(members)
                        })
                        .collect(),
                ),
            ),
            ("kernel_forms".into(), pair_json(["typed", "boxed"], total)),
            (
                "fuse_plans".into(),
                pair_json(["fused", "fallback"], fuse_plans),
            ),
            ("errors".into(), Json::Number(errors as f64)),
            ("warnings".into(), Json::Number(warnings as f64)),
        ]);
        if let Err(e) = std::fs::write(&path, json.to_string_pretty()) {
            eprintln!("cannot write `{path}`: {e}");
            std::process::exit(2);
        }
        println!("wrote {path}");
    }

    if check && errors > 0 {
        eprintln!("analysis gate failed: {errors} error-severity diagnostic(s)");
        std::process::exit(1);
    }
}
