//! Workload generators for the StencilFlow reproduction.
//!
//! Every benchmark of the paper's evaluation (§VIII–IX) is driven by one of
//! the stencil programs generated here:
//!
//! * [`mod@listing1`] — the running example of §II (Lst. 1 / Fig. 2).
//! * [`chain`] — linear chains of identical stencils ("analogous to
//!   time-tiled iterative stencils"), the workload of the Fig. 14/15 scaling
//!   experiments.
//! * [`jacobi`] / [`diffusion`] — the Jacobi 2D/3D and Diffusion 2D/3D
//!   kernels of Tab. I.
//! * [`membench`] — bandwidth microbenchmarks with a configurable number of
//!   parallel off-chip access points (Fig. 16).
//! * [`mod@horizontal_diffusion`] — the COSMO horizontal-diffusion stencil
//!   program with Smagorinsky diffusion (§IX), the full-complexity
//!   application study.
//! * [`upwind`] — first-order upwind advection, the branchy
//!   (data-dependent-select) workload gating if-conversion and the
//!   lane-batched evaluation of ternary kernels.
//! * [`random`] — seeded random DAGs, the program generator the
//!   differential test suites share.

#![forbid(unsafe_code)]

pub mod chain;
pub mod diffusion;
pub mod horizontal_diffusion;
pub mod jacobi;
pub mod jobmix;
pub mod listing1;
pub mod membench;
pub mod random;
pub mod upwind;

pub use chain::{chain_program, ChainSpec};
pub use diffusion::{diffusion2d, diffusion3d};
pub use horizontal_diffusion::{horizontal_diffusion, HorizontalDiffusionSpec};
pub use jacobi::{jacobi2d, jacobi3d, jacobi3d_typed};
pub use jobmix::{JobClass, JobMixSpec, JobTemplate};
pub use listing1::listing1;
pub use membench::{membench_program, MembenchSpec};
pub use random::random_dag;
pub use upwind::{upwind3d, upwind3d_typed};

/// The ten programs `analyze --check` sweeps in CI: one of every workload
/// family, at the small shapes the static analyses and their goldens use.
pub fn analyze_suite() -> Vec<stencilflow_program::StencilProgram> {
    use stencilflow_expr::DataType;
    vec![
        listing1(),
        jacobi2d(1, &[32, 32], 1),
        jacobi3d(1, &[16, 16, 8], 1),
        jacobi3d_typed(1, &[16, 16, 8], 1, DataType::Float64),
        diffusion2d(1, &[32, 32], 1),
        diffusion3d(1, &[16, 16, 8], 1),
        chain_program(&ChainSpec::new(8, 8)),
        membench_program(&MembenchSpec::new(8, 1)),
        horizontal_diffusion(&HorizontalDiffusionSpec::small()),
        upwind3d(2, &[8, 8, 8], 1),
    ]
}

/// [`analyze_suite`] at execution-sized shapes, the one list the
/// equivalence suites and the jit gate run through the tree-walking
/// interpreter: Listing 1 at 8³, and the chain and membench programs
/// (whose default shapes are bandwidth-benchmark domains) cut to a few
/// thousand cells.
pub fn execution_suite() -> Vec<stencilflow_program::StencilProgram> {
    use stencilflow_expr::DataType;
    vec![
        listing1::listing1_with_shape(&[8, 8, 8]),
        jacobi2d(1, &[32, 32], 1),
        jacobi3d(1, &[16, 16, 8], 1),
        jacobi3d_typed(1, &[16, 16, 8], 1, DataType::Float64),
        diffusion2d(1, &[32, 32], 1),
        diffusion3d(1, &[16, 16, 8], 1),
        chain_program(&ChainSpec::new(8, 8).with_shape(&[32, 16, 16])),
        membench_program(&MembenchSpec::new(8, 1).with_shape(&[16, 8, 8])),
        horizontal_diffusion(&HorizontalDiffusionSpec::small()),
        upwind3d(2, &[8, 8, 8], 1),
    ]
}

/// DAG queries the workload tests share.
#[cfg(test)]
pub(crate) mod dag_checks {
    use stencilflow_program::StencilProgram;

    /// Whether the DAG has an edge from `from` to `to`.
    pub(crate) fn has_edge(program: &StencilProgram, from: &str, to: &str) -> bool {
        let dag = program.dag();
        let (Some(from), Some(to)) = (dag.id(from), dag.id(to)) else {
            return false;
        };
        dag.successors(from).contains(&to)
    }

    /// Number of edges into node `name`.
    pub(crate) fn fan_in(program: &StencilProgram, name: &str) -> usize {
        let dag = program.dag();
        dag.id(name).map_or(0, |id| dag.predecessors(id).len())
    }

    /// Whether two paths of the DAG reconverge (it is not a multi-tree, so
    /// it needs delay buffers, §III-A), in one pass over the topological
    /// order: a node whose in-edges come from producers with a common
    /// ancestor (or one producer twice) is where two paths meet. Each node
    /// keeps its ancestors as a bit set.
    pub(crate) fn reconverges(program: &StencilProgram) -> bool {
        let dag = program.dag();
        let words = dag.node_count().div_ceil(64);
        let mut ancestors = vec![vec![0u64; words]; dag.node_count()];
        for &node in program.topological_nodes().expect("acyclic") {
            let mut seen = vec![0u64; words];
            for &producer in dag.predecessors(node) {
                let mut reach = ancestors[producer.index()].clone();
                reach[producer.index() / 64] |= 1 << (producer.index() % 64);
                if reach.iter().zip(&seen).any(|(a, b)| a & b != 0) {
                    return true;
                }
                seen.iter_mut().zip(&reach).for_each(|(s, r)| *s |= r);
            }
            ancestors[node.index()] = seen;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_generators_produce_valid_programs() {
        // Validation happens inside the builders; just exercise every
        // generator once with small parameters.
        listing1().validate().unwrap();
        jacobi2d(4, &[16, 16], 1).validate().unwrap();
        jacobi3d(4, &[8, 8, 8], 1).validate().unwrap();
        diffusion2d(4, &[16, 16], 1).validate().unwrap();
        diffusion3d(4, &[8, 8, 8], 1).validate().unwrap();
        chain_program(&ChainSpec::new(8, 8)).validate().unwrap();
        membench_program(&MembenchSpec::new(8, 1))
            .validate()
            .unwrap();
        horizontal_diffusion(&HorizontalDiffusionSpec::default())
            .validate()
            .unwrap();
        upwind3d(2, &[8, 8, 8], 1).validate().unwrap();
    }

    #[test]
    fn typing_mixed_width_joins_left_every_other_typed_stream_alone() {
        // 40 of the suite's 52 stencils specialized before mixed-width
        // joins did (horizontal diffusion's twelve limiter stencils are
        // the rest). The FNV-1a hash of their typed streams' debug text
        // was taken with the specializer as it was then: they must come
        // out byte for byte the same, and the twelve must now specialize
        // too.
        use stencilflow_expr::{CompiledKernel, DataType};
        let mut hash = 0xcbf2_9ce4_8422_2325_u64;
        let mut unchanged = 0;
        let mut joined = 0;
        for program in analyze_suite() {
            for stencil in program.stencils() {
                let kernel = CompiledKernel::compile(&stencil.program).unwrap();
                let types: Vec<DataType> = kernel
                    .slots()
                    .iter()
                    .map(|slot| program.field_type(&slot.field).unwrap())
                    .collect();
                let typed = kernel
                    .specialize(&types)
                    .unwrap_or_else(|| panic!("`{}` does not specialize", stencil.name));
                let limiter = program.name() == "horizontal_diffusion"
                    && (stencil.name.starts_with("fl")
                        || ["u_tmp", "v_tmp", "w_out", "pp_out"].contains(&stencil.name.as_str()));
                if limiter {
                    joined += 1;
                    continue;
                }
                unchanged += 1;
                for byte in format!("{:?}", typed.ops()).bytes() {
                    hash = (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!((unchanged, joined), (40, 12));
        assert_eq!(hash, 0x032e_5bed_af29_6b69);
    }
    #[test]
    fn kernel_tiers_agree_on_the_analyze_suite() {
        // The two kernels a stencil's expression compiles to — `Value`
        // bytecode and the typed kernel, one cell at a time and at both
        // lane widths — must agree bit for bit on every stencil of the
        // suite: the executor and the simulator run whichever one the
        // expression allows and are compared with the interpreter only on
        // that one. So must the by-rule kernels of `golden_equivalence.rs`
        // that reach the lanes only since specialization speculates
        // division (a mixed-width join in tail position, and one whose
        // runtime width flag is read) or since the sweep gathers strided
        // taps, over `f32` and over mixed slots.
        use stencilflow_expr::{
            parse_program, CompiledKernel, DataType, EvalScratch, LaneScratch, TypedKernel,
            TypedScratch, Value, KERNEL_LANES, KERNEL_LANES_WIDE,
        };
        const SPECIAL: [f64; 6] = [
            0.0,
            -0.0,
            1.0e-310,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        const ROWS: usize = 64;
        let mut rng = jobmix::SplitMix64::new(0x5eed);

        /// Whether `got` is `want` for a kernel evaluated on `row`: the same
        /// bits, except that a row carrying a NaN input may yield any NaN.
        /// Which NaN an operation on two of them returns depends on the
        /// operand order the compiler picks (`inf - inf` makes the x86
        /// default NaN, `0xFFF8…`, and meeting the input's `0x7FF8…` in a
        /// commuted `fadd` returns the other); a row without a NaN input
        /// must match bit for bit, NaNs it makes included.
        fn same(row: &[f64], want: f64, got: f64) -> bool {
            want.to_bits() == got.to_bits()
                || (want.is_nan() && got.is_nan() && row.iter().any(|v| v.is_nan()))
        }

        /// Lane `l` of every `L`-wide batch of `rows` (`ROWS` is a multiple
        /// of both widths) against `expected[l]`.
        fn assert_lanes<const L: usize>(typed: &TypedKernel, rows: &[Vec<f64>], expected: &[f64]) {
            let mut scratch = LaneScratch::<L>::default();
            for (batch, expected) in rows.chunks(L).zip(expected.chunks(L)) {
                let taps: Vec<[f64; L]> = (0..rows[0].len())
                    .map(|slot| std::array::from_fn(|lane| batch[lane][slot]))
                    .collect();
                let batched = typed.eval_lanes(&taps, &mut scratch);
                for ((row, want), got) in batch.iter().zip(expected).zip(batched) {
                    assert!(same(row, *want, got), "{L} lanes on {row:?}");
                }
            }
        }

        let mut check = |what: &str, kernel: &CompiledKernel, types: &[DataType]| {
            let typed = kernel
                .specialize(types)
                .unwrap_or_else(|| panic!("{what} does not specialize"));
            // Slot vectors as grid storage would hold them (rounded
            // through the slot's type): one uniform row per special
            // value, one with a zero in every slot but the first (a zero
            // divisor under a finite dividend), then random rows salted
            // with the special values.
            let rows: Vec<Vec<f64>> = (0..ROWS)
                .map(|row| {
                    types
                        .iter()
                        .enumerate()
                        .map(|(slot, &dtype)| {
                            let raw = match (SPECIAL.get(row), rng.next()) {
                                (Some(&special), _) => special,
                                (None, _) if row == SPECIAL.len() => f64::from(slot == 0),
                                (None, r) if r % 8 == 0 => SPECIAL[(r >> 8) as usize % 6],
                                (None, r) => (r >> 11) as f64 / (1u64 << 51) as f64 - 2.0,
                            };
                            Value::from_f64(raw, dtype).as_f64()
                        })
                        .collect()
                })
                .collect();
            let (mut eval, mut scalar) = (EvalScratch::default(), TypedScratch::default());
            let expected: Vec<f64> = rows
                .iter()
                .map(|row| {
                    let values: Vec<Value> = row
                        .iter()
                        .zip(types)
                        .map(|(&raw, &dtype)| Value::from_f64(raw, dtype))
                        .collect();
                    let value = kernel.eval_slots(&values, &mut eval).unwrap().as_f64();
                    let typed = typed.eval_slots(row, &mut scalar);
                    assert!(
                        same(row, value, typed),
                        "{what} on {row:?}: Value {value:?}, typed {typed:?}"
                    );
                    value
                })
                .collect();
            assert_lanes::<KERNEL_LANES>(&typed, &rows, &expected);
            assert_lanes::<KERNEL_LANES_WIDE>(&typed, &rows, &expected);
        };

        let mut stencils = 0;
        for program in analyze_suite() {
            for stencil in program.stencils() {
                stencils += 1;
                let kernel = CompiledKernel::compile(&stencil.program).unwrap();
                let types: Vec<DataType> = kernel
                    .slots()
                    .iter()
                    .map(|slot| program.field_type(&slot.field).unwrap())
                    .collect();
                let what = format!("`{}` of `{}`", stencil.name, program.name());
                check(&what, &kernel, &types);
            }
        }
        assert_eq!(stencils, 52);

        for code in [
            "u[i,j] > 0.5 ? 1.0 / u[i-1,j] : u[i,j+2]",
            "(u[i,j] > 0.5 ? 1.0 / u[i-1,j] : u[i,j+2]) * u[i,j-2]",
            "t[j-1,i] + u[i,j-2] * u[i+1,j+2]",
        ] {
            let kernel = CompiledKernel::compile(&parse_program(code).unwrap()).unwrap();
            let slots = kernel.slots().len();
            let mixed: Vec<DataType> = [DataType::Float32, DataType::Float64]
                .into_iter()
                .cycle()
                .take(slots)
                .collect();
            check(code, &kernel, &vec![DataType::Float32; slots]);
            check(code, &kernel, &mixed);
        }
    }
}
