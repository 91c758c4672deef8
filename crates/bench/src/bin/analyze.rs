//! Static-analysis sweep over every workload: run the program/DAG
//! analyzer and the shard-link sizing pass on each, print the findings
//! compiler-style, and write a JSON artifact of every diagnostic. The
//! sweep also takes the census of kernel forms — how many stencils the
//! executor sweeps on a typed (lane-batched) kernel and how many on the
//! boxed `Value` kernel — per program and in total.
//!
//! With `--check`, exits non-zero if any workload produces an
//! error-severity diagnostic — the CI gate that keeps the whole workload
//! suite analysis-clean. Warnings and infos are reported but do not gate.
//!
//! Usage: `analyze [--check] [--out PATH]`

use stencilflow_analysis::{analyze_program, analyze_sharding, AnalysisReport, Severity};
use stencilflow_core::ShardLinkSpec;
use stencilflow_json::Json;
use stencilflow_reference::ReferenceExecutor;
use stencilflow_workloads::analyze_suite;

fn kernel_forms_json((typed, boxed): (usize, usize)) -> Json {
    Json::Object(vec![
        ("typed".into(), Json::Number(typed as f64)),
        ("boxed".into(), Json::Number(boxed as f64)),
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
                            members.push(("kernel_forms".into(), kernel_forms_json(forms)));
                            Json::Object(members)
                        })
                        .collect(),
                ),
            ),
            ("kernel_forms".into(), kernel_forms_json(total)),
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
