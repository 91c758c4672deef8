//! Prints every table and figure of the paper's evaluation in one run,
//! plus the Fig. 4 deadlock demonstration. Pass `--quick` for the
//! shortened Fig. 14/15 and Tab. I domains used by the CI smoke step.
//! Tier throughput is `bench_eval`'s; end-to-end numbers are `benchmark/`'s.

fn main() {
    let quick = std::env::args().skip(1).any(|arg| arg == "--quick");
    let fig14 = stencilflow_bench::scaling_series(1, 8, quick);
    print!(
        "{}",
        stencilflow_bench::format_scaling(&fig14, "Figure 14 (W=1)")
    );
    let fig15 = stencilflow_bench::scaling_series(4, 24, quick);
    print!(
        "{}",
        stencilflow_bench::format_scaling(&fig15, "Figure 15 (W=4)")
    );
    print!(
        "{}",
        stencilflow_bench::format_table1(&stencilflow_bench::table1_rows(quick))
    );
    print!(
        "{}",
        stencilflow_bench::format_bandwidth(&stencilflow_bench::bandwidth_series())
    );
    let (rows, analysis) = stencilflow_bench::table2_rows();
    print!("{analysis}");
    print!("{}", stencilflow_bench::format_table2(&rows));
    let (deadlocked, completed) = stencilflow_bench::deadlock_demo();
    println!("== Figure 4: deadlock demonstration ==");
    println!(
        "unit-depth channels deadlock: {deadlocked}; analysis-computed depths stream: {completed}"
    );
}
