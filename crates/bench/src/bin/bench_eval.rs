//! Runs the evaluation-throughput harness and writes the JSON baseline
//! tracked as `BENCH_eval.json`, or — with `--check-floors` — gates an
//! existing JSON document against the speedup floors.
//!
//! Usage:
//!
//! * `bench_eval [--quick] [OUTPUT.json]` — prints the throughput table
//!   and the fused tiers' evaluation counts, then writes the JSON document
//!   to `OUTPUT.json` (or stdout when no path is given). `--quick` shrinks
//!   the domains for CI smoke runs.
//! * `bench_eval --check-floors INPUT.json` — reads a previously written
//!   document and exits non-zero if any speedup floor is violated (the CI
//!   perf gate; see `stencilflow_bench::check_floors`).

use stencilflow_reference::{generate_inputs, ReferenceExecutor, RunSpec, Tier, TierPolicy};
use stencilflow_workloads::{chain_program, jacobi3d, ChainSpec};

/// Cells the fused and JIT tiers evaluate on the chain and time-loop rows
/// against cells × stages × steps, on one worker. A count, not a timing:
/// it repeats exactly, and the wavefront makes it 1.00x (each further
/// worker adds the chunk dilation at one seam).
fn format_fused_evaluations(quick: bool) -> String {
    let n = if quick { 32 } else { 64 };
    let chain = ChainSpec::new(8, 8).with_shape(&[if quick { 96 } else { 384 }, 32, 32]);
    let steps = if quick { 16 } else { 8 };
    let rows = [
        ("chain 8x8op", chain_program(&chain), None, 8),
        (
            "jacobi3d steps",
            jacobi3d(1, &[n, n, n], 1),
            Some(steps),
            steps,
        ),
    ];
    let mut out =
        String::from("== Fused-tier evaluations: cells evaluated per cell x stage x step ==\n");
    let executor = ReferenceExecutor::new().with_max_threads(1);
    for (name, program, steps, sweeps) in rows {
        let inputs = generate_inputs(&program, 17);
        let compiled = executor.prepare(&program).unwrap();
        let cells = program.space().num_cells() * sweeps;
        for tier in [Tier::Fused, Tier::Jit] {
            let spec = RunSpec {
                steps,
                tier: TierPolicy::Fixed(tier),
            };
            let evaluated = executor.execute(&compiled, &inputs, &spec).unwrap().0;
            let evaluated = evaluated.cells_evaluated();
            out.push_str(&format!(
                "{name:<16} {:<6} {evaluated:>12} / {cells:>12} = {:.4}x\n",
                tier.to_string(),
                evaluated as f64 / cells as f64
            ));
        }
    }
    out
}

fn main() {
    let mut quick = false;
    let mut check_floors = false;
    let mut path: Option<String> = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check-floors" => check_floors = true,
            flag if flag.starts_with('-') => {
                eprintln!(
                    "unknown flag `{flag}`; usage: \
                     bench_eval [--quick] [OUTPUT.json] | bench_eval --check-floors INPUT.json"
                );
                std::process::exit(2);
            }
            p => {
                if let Some(previous) = &path {
                    eprintln!("multiple paths given (`{previous}`, `{p}`)");
                    std::process::exit(2);
                }
                path = Some(p.to_string());
            }
        }
    }
    if check_floors {
        let Some(path) = path else {
            eprintln!("--check-floors requires the JSON document to check");
            std::process::exit(2);
        };
        let text = std::fs::read_to_string(&path).unwrap_or_else(|err| {
            eprintln!("cannot read `{path}`: {err}");
            std::process::exit(2);
        });
        match stencilflow_bench::check_floors(&text) {
            Ok(summary) => {
                print!("{summary}");
                println!("all speedup floors hold in {path}");
            }
            Err(failures) => {
                eprintln!("speedup floors violated in {path}:\n{failures}");
                std::process::exit(1);
            }
        }
        return;
    }
    let rows = stencilflow_bench::eval_throughput(quick);
    print!("{}", stencilflow_bench::format_throughput(&rows));
    print!("{}", format_fused_evaluations(quick));
    let sharded = stencilflow_bench::sharded_throughput(quick);
    print!("{}", stencilflow_bench::format_sharded(&sharded));
    let json = stencilflow_bench::throughput_json(&rows, Some(&sharded), quick);
    match path {
        Some(path) => {
            std::fs::write(&path, format!("{json}\n")).expect("write benchmark JSON");
            println!("wrote {path}");
        }
        None => println!("{json}"),
    }
}
