//! Runs the evaluation-throughput harness and writes the JSON baseline
//! tracked as `BENCH_eval.json`, or — with `--check-floors` — gates an
//! existing JSON document against the speedup floors.
//!
//! Usage:
//!
//! * `bench_eval [--quick] [OUTPUT.json]` — prints the throughput table,
//!   then writes the JSON document to `OUTPUT.json` (or stdout when no path
//!   is given). `--quick` shrinks the domains for CI smoke runs.
//! * `bench_eval --check-floors INPUT.json` — reads a previously written
//!   document and exits non-zero if any speedup floor is violated (the CI
//!   perf gate; see `stencilflow_bench::check_floors`).

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
