//! Allocation guard for the two grid walks every `Pipeline` job takes:
//! validating an output (`ExecutionResult::compare_field`) and generating
//! inputs (`Grid::from_fn`, under `generate_inputs`). Both walk the dense
//! row-major data, so the first allocates nothing and the second allocates
//! as often on a large grid as on a small one. A counting global allocator
//! counts this thread's allocations only, so tests running beside these do
//! not disturb the counts; nothing here is timed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stencilflow::expr::DataType;
use stencilflow::reference::{generate_inputs, Grid, ReferenceExecutor};
use stencilflow::workloads::jacobi3d_typed;

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

/// `f`'s result and the number of allocations it made on this thread.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

#[test]
fn comparing_an_output_allocates_nothing() {
    let program = jacobi3d_typed(1, &[32, 32, 32], 1, DataType::Float64);
    let inputs = generate_inputs(&program, 1);
    let result = ReferenceExecutor::new().run(&program, &inputs).unwrap();
    let output = &program.outputs()[0];
    let reference = result.field(output).unwrap().clone();
    assert!(result.valid_count(output) > 0);
    let (error, allocations) = allocations_in(|| result.compare_field(output, &reference));
    assert_eq!(error, Some(0.0));
    assert_eq!(allocations, 0, "compare_field allocated on a 32^3 output");
}

#[test]
fn filling_a_grid_allocates_the_same_at_any_size() {
    let fill = |n: usize| {
        allocations_in(|| {
            Grid::from_fn(&["i", "j", "k"], &[n, n, n], DataType::Float32, |ix| {
                ix.iter().sum::<usize>() as f64
            })
        })
    };
    let (small, small_allocations) = fill(8);
    let (large, large_allocations) = fill(64);
    assert_eq!(small.get(&[7, 7, 7]), 21.0);
    assert_eq!(large.get(&[63, 0, 1]), 64.0);
    assert_eq!(
        small_allocations, large_allocations,
        "Grid::from_fn allocates per cell"
    );
}
