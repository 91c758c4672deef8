//! Static-analysis sweep over every workload: run the program/DAG
//! analyzer on each, print the findings compiler-style, and write a JSON
//! artifact of every diagnostic. Each program is also prepared for
//! execution, which adds two facts only the runtime can judge: SF0208
//! (info), rendered from the program's
//! [`TierTrace`](stencilflow_reference::TierTrace) when the JIT rung refuses
//! it, and the census of kernel forms — how many stencils the executor
//! sweeps on a typed (lane-batched) kernel and how many on the boxed
//! `Value` kernel — per program and in total.
//!
//! With `--check`, exits non-zero if any workload produces an
//! error-severity diagnostic — the CI gate that keeps the whole workload
//! suite analysis-clean. Warnings and infos are reported but do not gate.
//!
//! Usage: `analyze [--check] [--out PATH]`

use stencilflow_analysis::{analyze_program, AnalysisReport, Diagnostic, Severity};
use stencilflow_json::Json;
use stencilflow_program::StencilProgram;
use stencilflow_reference::{Ineligible, ReferenceExecutor};
use stencilflow_workloads::analyze_suite;

/// A kernel-forms census as a JSON object.
fn forms_json((typed, boxed): (usize, usize)) -> Json {
    Json::Object(vec![
        ("typed".into(), Json::Number(typed as f64)),
        ("boxed".into(), Json::Number(boxed as f64)),
    ])
}

/// SF0208: why the JIT rung refuses the program, as the runtime's trace
/// says it — live stages only, the first refusal — anchored at the stage
/// or stencil it names, or at the program when the module itself failed.
fn native_refusal(program: &str, why: &Ineligible) -> Diagnostic {
    let location = match why {
        Ineligible::Untyped { stencil: stage }
        | Ineligible::NonFloatOutput { stage, .. }
        | Ineligible::Unverified { stage, .. }
        | Ineligible::Emission { stage, .. } => format!("{program}/{stage}"),
        Ineligible::Native(_) => program.to_string(),
    };
    Diagnostic {
        severity: Severity::Info,
        code: "SF0208",
        location,
        message: why.to_string(),
    }
}

/// Every finding on `program` and its kernel forms (typed, boxed).
fn analyze(
    executor: &ReferenceExecutor,
    program: &StencilProgram,
) -> (AnalysisReport, (usize, usize)) {
    let mut report = analyze_program(program);
    let compiled = executor
        .prepare(program)
        .expect("the suite's programs compile");
    if let Some(why) = compiled.tier_trace().reason() {
        report.diagnostics.push(native_refusal(program.name(), why));
    }
    let typed = compiled.typed_stencil_count();
    (report, (typed, compiled.stencil_count() - typed))
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

    let executor = ReferenceExecutor::new();
    let analyzed: Vec<(AnalysisReport, (usize, usize))> = analyze_suite()
        .iter()
        .map(|program| analyze(&executor, program))
        .collect();
    let diagnostics = || analyzed.iter().flat_map(|(report, _)| &report.diagnostics);
    for diag in diagnostics() {
        println!("{}", diag.render());
    }
    let count = |severity| diagnostics().filter(|d| d.severity == severity).count();
    let (errors, warnings) = (count(Severity::Error), count(Severity::Warning));

    let clean = analyzed
        .iter()
        .filter(|(report, _)| report.diagnostics.is_empty())
        .count();
    println!(
        "analyzed {} workloads: {} clean, {} warning(s), {} error(s)",
        analyzed.len(),
        clean,
        warnings,
        errors
    );
    let total = analyzed
        .iter()
        .fold((0, 0), |(t, b), (_, (typed, boxed))| (t + typed, b + boxed));
    println!("kernel forms: {} typed, {} boxed", total.0, total.1);

    if let Some(path) = out {
        let json = Json::Object(vec![
            (
                "workloads".into(),
                Json::Array(
                    analyzed
                        .iter()
                        .map(|(report, forms)| {
                            let Json::Object(mut members) = report.to_json() else {
                                unreachable!("reports render as objects");
                            };
                            members.push(("kernel_forms".into(), forms_json(*forms)));
                            Json::Object(members)
                        })
                        .collect(),
                ),
            ),
            ("kernel_forms".into(), forms_json(total)),
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

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_jit::JitError;
    use stencilflow_program::StencilProgramBuilder;

    /// An `f32` stage `b` and an `int32` stencil `dead`; `output` is live.
    fn int_stage(name: &str, output: &str) -> StencilProgram {
        StencilProgramBuilder::new(name, &[8, 8])
            .dims(&["i", "j"])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i-1,j] + a[i+1,j]")
            .stencil("dead", "a[i,j] * 2.0")
            .output_type("dead", DataType::Int32)
            .output(output)
            .build()
            .unwrap()
    }

    #[test]
    fn a_dead_stage_the_jit_rung_never_sees_gets_no_sf0208() {
        // The runtime judges live stages only, so this program runs
        // natively and the analysis must not say otherwise.
        let (executor, program) = (ReferenceExecutor::new(), int_stage("deadint", "b"));
        let compiled = executor.prepare(&program).unwrap();
        assert_eq!(compiled.tier_trace().reason(), None);
        let (report, _) = analyze(&executor, &program);
        assert!(report.with_code("SF0208").is_empty(), "{report:?}");
    }

    #[test]
    fn a_refusal_renders_one_sf0208_with_the_trace_text() {
        let (executor, program) = (ReferenceExecutor::new(), int_stage("liveint", "dead"));
        let compiled = executor.prepare(&program).unwrap();
        let why = compiled.tier_trace().reason().unwrap();
        let (report, _) = analyze(&executor, &program);
        let native = report.with_code("SF0208");
        assert_eq!(native.len(), 1, "{report:?}");
        assert_eq!(native[0].severity, Severity::Info);
        assert_eq!(native[0].location, "liveint/dead");
        assert_eq!(native[0].message, why.to_string());
        assert!(report.is_clean(), "SF0208 is informational");
        // A module that failed names no stage: the program is the anchor.
        let after = std::time::Duration::from_secs(60);
        let diag = native_refusal("p", &Ineligible::Native(JitError::Timeout { after }));
        assert_eq!(diag.location, "p");
    }
}
