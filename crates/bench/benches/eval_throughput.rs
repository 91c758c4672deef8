//! Evaluation-throughput harness: prints the cells/second comparison of the
//! tree-walking evaluator against the compiled execution plan (Jacobi 3D
//! 64³ f32/f64, horizontal diffusion, and a `run_steps` time loop), then
//! times the two paths with Criterion.

use criterion::{criterion_group, Criterion};
use stencilflow_bench::{eval_throughput, format_throughput};
use stencilflow_reference::{generate_inputs, ReferenceExecutor};
use stencilflow_workloads::{horizontal_diffusion, jacobi3d, HorizontalDiffusionSpec};

fn bench_eval_throughput(c: &mut Criterion) {
    print!("{}", format_throughput(&eval_throughput(false)));
    let mut group = c.benchmark_group("eval_throughput");
    group.sample_size(10);

    let jacobi = jacobi3d(2, &[64, 64, 64], 1);
    let jacobi_inputs = generate_inputs(&jacobi, 17);
    let executor = ReferenceExecutor::new();
    group.bench_function("jacobi3d_64_interpreted", |b| {
        b.iter(|| executor.run_interpreted(&jacobi, &jacobi_inputs).unwrap());
    });
    group.bench_function("jacobi3d_64_simd", |b| {
        b.iter(|| executor.run(&jacobi, &jacobi_inputs).unwrap());
    });

    let step = jacobi3d(1, &[64, 64, 64], 1);
    let step_inputs = generate_inputs(&step, 17);
    group.bench_function("jacobi3d_64_run_steps_8", |b| {
        b.iter(|| executor.run_steps(&step, &step_inputs, 8).unwrap());
    });

    let hdiff = horizontal_diffusion(&HorizontalDiffusionSpec::small());
    let hdiff_inputs = generate_inputs(&hdiff, 17);
    group.bench_function("horizontal_diffusion_interpreted", |b| {
        b.iter(|| executor.run_interpreted(&hdiff, &hdiff_inputs).unwrap());
    });
    group.bench_function("horizontal_diffusion_simd", |b| {
        b.iter(|| executor.run(&hdiff, &hdiff_inputs).unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_eval_throughput);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
