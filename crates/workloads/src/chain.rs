//! Linear chains of identical stencils (§VIII-C).
//!
//! "We produce benchmarks using such kernels to establish the highest
//! floating point performance reachable by StencilFlow [...] by chaining
//! together long linear sequences of stencils executed on a large input
//! domain, analogous to time-tiled iterative stencils."
//!
//! The chain generator is parameterized on the number of stages and the
//! operations per stage, so the Fig. 14 sweep (8 Op/stencil, 2¹⁵×32×32
//! domain) and the Fig. 15 sweep (24 Op/stencil, W = 4) are both instances
//! of the same generator.

use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};

/// Parameters of an iterative-style stencil chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainSpec {
    /// Number of chained stencil stages.
    pub stages: usize,
    /// Approximate floating-point operations per stencil stage (8 for the
    /// paper's non-vectorized sweep, 24 for the vectorized one).
    pub ops_per_stencil: usize,
    /// Iteration-space shape. Defaults to the paper's 2¹⁵×32×32 domain.
    pub shape: Vec<usize>,
    /// Vectorization width W.
    pub vectorization: usize,
}

impl ChainSpec {
    /// A chain with the given number of stages and operations per stage on
    /// the paper's benchmark domain (2¹⁵ × 32 × 32), unvectorized.
    pub fn new(stages: usize, ops_per_stencil: usize) -> Self {
        ChainSpec {
            stages,
            ops_per_stencil,
            shape: vec![1 << 15, 32, 32],
            vectorization: 1,
        }
    }

    /// Override the domain shape (builder style).
    pub fn with_shape(mut self, shape: &[usize]) -> Self {
        self.shape = shape.to_vec();
        self
    }

    /// Override the vectorization width (builder style).
    pub fn with_vectorization(mut self, width: usize) -> Self {
        self.vectorization = width;
        self
    }
}

/// Generate a chain program per `spec`.
///
/// Each stage is a symmetric 3-point stencil along the innermost dimension,
/// padded with extra multiply-add pairs to reach (approximately) the
/// requested operations per stencil; the access pattern (and therefore the
/// buffering behaviour) is identical across stages.
///
/// # Panics
///
/// Panics if `spec.stages == 0` or the shape is empty (caller error in
/// benchmark configuration).
pub fn chain_program(spec: &ChainSpec) -> StencilProgram {
    assert!(spec.stages > 0, "a chain needs at least one stage");
    assert!(!spec.shape.is_empty(), "the chain shape must be non-empty");
    let dims: Vec<&str> = ["i", "j", "k"][..spec.shape.len()].to_vec();
    let inner = *dims.last().expect("non-empty dims");

    let mut builder = StencilProgramBuilder::new(
        &format!("chain{}x{}op", spec.stages, spec.ops_per_stencil),
        &spec.shape,
    )
    .vectorization(spec.vectorization)
    .input("f0", DataType::Float32, &dims);

    let center = |field: &str| access(field, &dims, inner, 0);
    let minus = |field: &str| access(field, &dims, inner, -1);
    let plus = |field: &str| access(field, &dims, inner, 1);

    for stage in 1..=spec.stages {
        let prev = format!("f{}", stage - 1);
        let name = format!("f{stage}");
        // Base 3-point kernel: 2 adds + 2 muls = 4 ops.
        let mut code = format!(
            "acc = 0.25 * ({} + {}) + 0.5 * {}",
            minus(&prev),
            plus(&prev),
            center(&prev)
        );
        let mut ops = 4usize;
        // Pad with dependent multiply-add pairs (2 ops each) to reach the
        // requested per-stencil operation count.
        let mut term = 0usize;
        while ops + 1 < spec.ops_per_stencil {
            code.push_str(&format!(
                "; acc = acc * {:.6} + {:.6}",
                1.0 + 1e-6 * (term + 1) as f64,
                1e-3 * (term + 1) as f64
            ));
            ops += 2;
            term += 1;
        }
        code.push_str("; acc");
        builder = builder.stencil(&name, &code).shrink(&name);
    }
    builder
        .output(&format!("f{}", spec.stages))
        .build()
        .expect("generated chain programs are valid")
}

fn access(field: &str, dims: &[&str], inner: &str, offset: i64) -> String {
    let indices: Vec<String> = dims
        .iter()
        .map(|d| {
            if *d == inner && offset != 0 {
                if offset > 0 {
                    format!("{d}+{offset}")
                } else {
                    format!("{d}{offset}")
                }
            } else {
                d.to_string()
            }
        })
        .collect();
    format!("{field}[{}]", indices.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_requested_depth() {
        let program = chain_program(&ChainSpec::new(16, 8).with_shape(&[64, 8, 8]));
        assert_eq!(program.stencil_count(), 16);
        let order = program.topological_stencils().unwrap();
        assert_eq!(order.first().unwrap(), "f1");
        assert_eq!(order.last().unwrap(), "f16");
    }

    #[test]
    fn ops_per_stencil_is_close_to_requested() {
        for requested in [4, 8, 16, 24, 32] {
            let program = chain_program(&ChainSpec::new(2, requested).with_shape(&[32, 8, 8]));
            let per_stencil = program.ops_per_cell().flops() as f64 / 2.0;
            let diff = (per_stencil - requested as f64).abs();
            assert!(
                diff <= 1.0,
                "requested {requested} ops/stencil, generated {per_stencil}"
            );
        }
    }

    #[test]
    fn vectorization_and_shape_are_applied() {
        let spec = ChainSpec::new(4, 8)
            .with_shape(&[128, 16, 16])
            .with_vectorization(4);
        let program = chain_program(&spec);
        assert_eq!(program.vectorization(), 4);
        assert_eq!(program.space().shape, vec![128, 16, 16]);
    }

    #[test]
    fn chain_works_in_one_and_two_dimensions() {
        chain_program(&ChainSpec::new(3, 8).with_shape(&[256]))
            .validate()
            .unwrap();
        chain_program(&ChainSpec::new(3, 8).with_shape(&[64, 64]))
            .validate()
            .unwrap();
    }

    #[test]
    fn default_shape_matches_paper_domain() {
        let spec = ChainSpec::new(1, 8);
        assert_eq!(spec.shape, vec![32768, 32, 32]);
    }
}
