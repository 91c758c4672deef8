//! The identity of a JIT module is its emitted C, which takes extents and
//! strides as arguments and never mentions a name: programs that differ
//! only in those share one compile, a changed literal is a new one — also
//! when the service queues them for the background compiler. One
//! test, alone in its process — it owns the process-wide engine, an empty
//! cache directory, and every tick of the engine's counters.

mod common;

use common::assert_tiers_bit_identical;
use std::sync::Arc;
use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{
    generate_inputs, jit_available, jit_cache_stats, JobSpec, ReferenceExecutor, RunSpec,
    ServeConfig, ServeExecutor, Tier, TierPolicy,
};

fn program(name: &str, shape: &[usize], literal: &str) -> StencilProgram {
    StencilProgramBuilder::new(name, shape)
        .input("a", DataType::Float32, &["i", "j"])
        .stencil("s", &format!("a[i-1,j] + {literal} * a[i,j+1]"))
        .output("s")
        .build()
        .unwrap()
}

#[test]
fn programs_that_emit_the_same_c_share_one_compile() {
    let dir = std::env::temp_dir().join(format!("sf-jit-sharing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("SF_JIT_CACHE_DIR", &dir);
    jit_available().expect("system cc must be available for JIT tests");
    let cc = || jit_cache_stats().unwrap().cc_invocations;
    assert_eq!(cc(), 0);

    assert_tiers_bit_identical(&program("first", &[6, 9], "0.5"), 41);
    assert_eq!(cc(), 1);
    assert_tiers_bit_identical(&program("second", &[11, 5], "0.5"), 42);
    assert_eq!(cc(), 1, "a new name and new extents are the same module");
    assert_tiers_bit_identical(&program("third", &[6, 9], "0.75"), 43);
    assert_eq!(cc(), 2, "a new literal is a new module");

    // Through the service, which never waits for `cc`: two programs whose
    // units are the same text queue one build between them.
    let serve = ServeExecutor::new(ServeConfig::new().with_workers(1));
    let programs = [("fourth", [7, 8]), ("fifth", [9, 4])]
        .map(|(name, shape)| Arc::new(program(name, &shape, "0.625")));
    for (seed, program) in (44..).zip(&programs) {
        let inputs = Arc::new(generate_inputs(program, seed));
        let outcome = serve.run_one(JobSpec::new(Arc::clone(program), inputs));
        assert_ne!(outcome.tier, Tier::Simd);
        serve.recycle(outcome.result.unwrap());
    }
    // Waiting for the module (a run on the library path) spawns nothing.
    let executor = ReferenceExecutor::new();
    let compiled = executor.prepare(&programs[1]).unwrap();
    let inputs = generate_inputs(&programs[1], 45);
    let spec = RunSpec {
        steps: None,
        tier: TierPolicy::Fixed(Tier::Jit),
    };
    let (_, ran) = executor.execute(&compiled, &inputs, &spec).unwrap();
    assert_eq!(ran, Tier::Jit);
    assert_eq!(cc(), 3, "one unit text, one compile");
    let _ = std::fs::remove_dir_all(dir);
}
