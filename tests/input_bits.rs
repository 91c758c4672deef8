//! The input generator's output, pinned in bits. A seed reproduces its
//! grids only as long as `Grid::from_fn` calls its closure once per cell in
//! row-major order and rounds each value through the element type: a change
//! to either, or to the generator's stream, moves the one hash below.

use stencilflow::expr::DataType;
use stencilflow::reference::generate_inputs;
use stencilflow::workloads::{
    horizontal_diffusion, jacobi3d_typed, listing1, upwind3d, HorizontalDiffusionSpec,
};

/// FNV-1a (64-bit) over every grid of seeds 0..4 of each program, in
/// `BTreeMap` order: first the grid's name, byte by byte, then each cell's
/// `to_bits()` folded in as one word.
fn generator_hash() -> u64 {
    let programs = [
        jacobi3d_typed(1, &[24, 20, 16], 1, DataType::Float64),
        horizontal_diffusion(&HorizontalDiffusionSpec::bench()),
        listing1(),
        upwind3d(1, &[16, 16, 16], 1),
    ];
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for program in &programs {
        for seed in 0..4 {
            for (name, grid) in generate_inputs(program, seed) {
                name.bytes().for_each(|b| fold(u64::from(b)));
                grid.as_slice().iter().for_each(|v| fold(v.to_bits()));
            }
        }
    }
    hash
}

#[test]
fn generated_inputs_keep_their_bits() {
    let hash = generator_hash();
    assert_eq!(
        hash, 0x294e_a67b_2b3c_1b70,
        "generate_inputs moved: got {hash:#018x}"
    );
}
