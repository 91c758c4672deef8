//! The identity of a JIT module is its emitted C, which takes extents and
//! strides as arguments and never mentions a name: programs that differ
//! only in those share one compile, a changed literal is a new one. One
//! test, alone in its process — it owns the process-wide engine, an empty
//! cache directory, and every tick of the engine's counters.

mod common;

use common::assert_tiers_bit_identical;
use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};
use stencilflow_reference::{jit_available, jit_cache_stats};

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
    let _ = std::fs::remove_dir_all(dir);
}
