//! Deterministic input-data generation for tests and benchmarks.

use crate::executor::declared_shape;
use crate::grid::Grid;
use std::collections::BTreeMap;
use stencilflow_program::StencilProgram;

/// Small deterministic split-mix-64 generator. Input data only needs to be
/// reproducible and well-spread, not cryptographic, so a local generator
/// avoids an external dependency.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        // Pre-mix so that small consecutive seeds produce unrelated streams.
        let mut rng = SplitMix64(seed ^ 0x9e3779b97f4a7c15);
        rng.next_u64();
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform `f64` in `[low, high)`.
    fn gen_range(&mut self, low: f64, high: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        low + unit * (high - low)
    }
}

/// Generates reproducible pseudo-random input grids for a program.
#[derive(Debug, Clone)]
pub struct InputGenerator {
    seed: u64,
}

impl InputGenerator {
    /// Create a generator with the given seed, producing values in
    /// `[0.1, 1.0)` (strictly positive, which keeps divisions and square
    /// roots in stencil codes well-defined).
    pub fn new(seed: u64) -> Self {
        InputGenerator { seed }
    }

    /// Generate one grid per program input, shaped per its declaration.
    pub fn generate(&self, program: &StencilProgram) -> BTreeMap<String, Grid> {
        let mut rng = SplitMix64::new(self.seed);
        let space = program.space();
        let mut grids = BTreeMap::new();
        for (name, decl) in program.inputs() {
            let dims: Vec<&str> = decl.dims.iter().map(String::as_str).collect();
            let shape: Vec<usize> = declared_shape(space, &decl.dims).collect();
            let grid = Grid::from_fn(&dims, &shape, decl.data_type(), |_| rng.gen_range(0.1, 1.0));
            grids.insert(name.to_string(), grid);
        }
        grids
    }
}

/// Convenience wrapper: generate inputs for `program` with the default range.
///
/// A seed reproduces its grids because each is filled by [`Grid::from_fn`],
/// which draws one value per cell in row-major order (inputs in name
/// order); that order is the contract, and `tests/input_bits.rs` pins it.
pub fn generate_inputs(program: &StencilProgram, seed: u64) -> BTreeMap<String, Grid> {
    InputGenerator::new(seed).generate(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    fn program() -> StencilProgram {
        StencilProgramBuilder::new("p", &[4, 6])
            .input("a", DataType::Float32, &["i", "j"])
            .input("row", DataType::Float32, &["j"])
            .scalar("dt", DataType::Float32)
            .stencil("b", "a[i,j] + row[j] * dt")
            .output("b")
            .build()
            .unwrap()
    }

    #[test]
    fn shapes_match_declarations() {
        let inputs = generate_inputs(&program(), 7);
        assert_eq!(inputs["a"].shape(), &[4, 6]);
        assert_eq!(inputs["row"].shape(), &[6]);
        assert_eq!(inputs["dt"].shape(), &[] as &[usize]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_inputs(&program(), 7);
        let b = generate_inputs(&program(), 7);
        let c = generate_inputs(&program(), 8);
        assert_eq!(a["a"], b["a"]);
        assert_ne!(a["a"], c["a"]);
    }

    #[test]
    fn values_respect_range() {
        let inputs = InputGenerator::new(1).generate(&program());
        for v in inputs["a"].as_slice() {
            assert!((0.1..1.0).contains(v));
        }
    }
}
