//! Allocation guard for the mapping flow of a large program: description
//! text → `from_json` → `analyze_program` → `fuse_all` →
//! `HardwareMapping::build` → `generate_kernels` → `partition(8)`, the
//! work of one `map-large` job. The DAG and the mapping analyses run on
//! node ids, and codegen renders into one buffer, so the flow allocates a
//! fixed number of times per stencil: as often per stencil on a 1 024-stage
//! chain as on a 256-stage one, and no more than the ceiling below. A
//! counting global allocator counts this thread's allocations only, so
//! tests running beside this one do not disturb the counts; nothing here is
//! timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stencilflow::core::{AnalysisConfig, HardwareMapping, MultiDevicePlan, PartitionConfig};
use stencilflow::workloads::{chain_program, ChainSpec};

/// The system allocator, counting every allocation and reallocation.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation while this thread's locals are torn down
    // goes uncounted instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations per stencil of one mapping job on a chain of `stages`
/// stencils, counted from its description text on.
fn allocations_per_stencil(stages: usize) -> f64 {
    let text = stencilflow::program::to_json(&chain_program(&ChainSpec::new(stages, 8)));
    let config = AnalysisConfig::paper_defaults();
    let before = ALLOCATIONS.with(Cell::get);
    let program = stencilflow::from_json(&text).unwrap();
    assert!(stencilflow::analysis::analyze_program(&program).is_clean());
    let fused = stencilflow::dataflow::fuse_all(&program).unwrap();
    let mapping = HardwareMapping::build(&fused, &config).unwrap();
    let kernels = stencilflow::codegen::generate_kernels(&fused, &mapping);
    let plan = MultiDevicePlan::partition(&fused, &PartitionConfig::devices(8)).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert!(kernels.contains(&format!("stencil_f{stages}(")));
    assert_eq!(plan.devices.len(), 8);
    allocations as f64 / stages as f64
}

/// What this flow allocates per stencil of a chain in the test profile
/// (256.6), plus 10 %. The name-keyed flow made 360.6 there, and mapping
/// records that copied their nodes' names 264.7. A debug build runs the
/// bytecode verifier after each optimization pass and on each finished
/// kernel, about 90 allocations per stencil that a release build does not
/// make (168.6 there; 174.7 and 272.6 for the two before).
const CEILING: f64 = 282.0;

#[test]
fn mapping_allocates_a_fixed_number_of_times_per_stencil() {
    let small = allocations_per_stencil(256);
    let large = allocations_per_stencil(1024);
    println!("allocations per stencil: chain256 {small:.1}, chain1024 {large:.1}");
    assert!(
        (large - small).abs() <= 0.02 * small,
        "chain1024 allocates {large:.1} per stencil, chain256 {small:.1}: \
         something grows with pairs of stencils"
    );
    assert!(
        large <= CEILING,
        "chain1024 allocates {large:.1} per stencil, above the ceiling {CEILING}"
    );
}
