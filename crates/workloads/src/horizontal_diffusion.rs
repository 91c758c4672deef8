//! The COSMO horizontal-diffusion stencil program (§IX).
//!
//! Horizontal diffusion is a 4th-order explicit method on a staggered
//! latitude–longitude grid with Smagorinsky diffusion to smoothen the wind
//! velocity components. It is the paper's full-complexity application study:
//! a DAG of heterogeneous stencils with many shared inputs (the paper counts
//! 28 accesses of 10 unique fields), deep reconvergent dependencies (each
//! non-source stencil receives data from 2–6 other stencils), lower-
//! dimensional parameter fields, and data-dependent branches.
//!
//! The paper obtains its input program from a MeteoSwiss/Dawn-generated SDFG;
//! that toolchain (and the proprietary COSMO source) is not available here,
//! so this module reconstructs the stencil DAG from the published structure
//! (Fig. 17) and the operation inventory of §IX-A: four diffused fields
//! (`u`, `v`, `w`, `pp`), each with a weighted horizontal Laplacian, flux
//! computations with limiters in both horizontal directions, and a
//! flux-divergence update masked by `hdmask`; plus a Smagorinsky branch that
//! computes shear/tension terms from the diffused wind components and
//! produces the final `u_out` / `v_out`. The resulting operation counts
//! (≈84 additions, ≈40 multiplications, 2 square roots, 2 min, 2 max, 20
//! data-dependent branches per output point) closely track the paper's
//! 87 / 41 / 2 / 2 / 2 / 20 inventory; `report` prints the exact numbers
//! under `§IX-A horizontal diffusion analysis`.

use stencilflow_expr::DataType;
use stencilflow_program::{StencilProgram, StencilProgramBuilder};

/// Parameters of the horizontal-diffusion program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HorizontalDiffusionSpec {
    /// Iteration-space shape `[i, j, k]`. The paper benchmarks the
    /// production domain of 128×128 horizontal points stacked in 80 vertical
    /// layers; the vertical (contiguous) dimension is `k`.
    pub shape: [usize; 3],
    /// Vectorization width W (8 for the paper's bandwidth-bound benchmark,
    /// 16 for the simulated-infinite-bandwidth variant).
    pub vectorization: usize,
}

impl Default for HorizontalDiffusionSpec {
    fn default() -> Self {
        HorizontalDiffusionSpec {
            shape: [128, 128, 80],
            vectorization: 1,
        }
    }
}

impl HorizontalDiffusionSpec {
    /// The MeteoSwiss benchmarking domain (128×128×80) at a given
    /// vectorization width.
    pub fn production(vectorization: usize) -> Self {
        HorizontalDiffusionSpec {
            shape: [128, 128, 80],
            vectorization,
        }
    }

    /// A reduced domain for functional tests and simulation.
    pub fn small() -> Self {
        HorizontalDiffusionSpec {
            shape: [10, 10, 8],
            vectorization: 1,
        }
    }

    /// A throughput-benchmark domain sized so the lane tier is measured
    /// fairly. The [`HorizontalDiffusionSpec::small`] domain understates
    /// lane batching structurally: its 8-cell vertical rows fit exactly
    /// one default-width batch which — with `shrink` halos reaching into
    /// every row — is always a *mixed* halo batch, the 19200-cell sweep
    /// sits below the row-parallelism threshold, and per-sweep fixed
    /// costs amortize over only 800 cells per stencil. This domain's
    /// 64-cell rows give every lane-ready stencil real interior batches
    /// (and the wide f32 lane width) while staying small enough for CI.
    ///
    /// Measuring it also exposed what used to be the *dominant* limiter on
    /// this program, which no domain size fixes: in half of its 24
    /// stencils the flux/update limiter ternaries (`delta > 4.0 ? 4.0 :
    /// delta`) join an `f64` literal arm with an `f32` expression arm, so
    /// the value's width is data-dependent. Those stencils once evaluated
    /// on the tagged `Value` path and capped the program-level lane
    /// speedup by Amdahl's law. `CompiledKernel::specialize` now types
    /// such a join with a runtime width flag, and all 24 stencils sweep on
    /// lane-batched typed kernels. (Rewriting the limiters as `min`/`max`
    /// would have specialized too, but would change the §IX-A branch
    /// inventory this reconstruction pins.)
    pub fn bench() -> Self {
        HorizontalDiffusionSpec {
            shape: [24, 24, 64],
            vectorization: 1,
        }
    }
}

/// Build the horizontal-diffusion stencil program.
pub fn horizontal_diffusion(spec: &HorizontalDiffusionSpec) -> StencilProgram {
    let shape: Vec<usize> = spec.shape.to_vec();
    let mut builder = StencilProgramBuilder::new("horizontal_diffusion", &shape)
        .vectorization(spec.vectorization)
        // Diffused prognostic fields.
        .input("u_in", DataType::Float32, &["i", "j", "k"])
        .input("v_in", DataType::Float32, &["i", "j", "k"])
        .input("w_in", DataType::Float32, &["i", "j", "k"])
        .input("pp_in", DataType::Float32, &["i", "j", "k"])
        // Diffusion mask.
        .input("hdmask", DataType::Float32, &["i", "j", "k"])
        // Latitude-dependent metric coefficients (1D over j).
        .input("crlato", DataType::Float32, &["j"])
        .input("crlatu", DataType::Float32, &["j"])
        .input("crlavo", DataType::Float32, &["j"])
        .input("crlavu", DataType::Float32, &["j"])
        .input("acrlat0", DataType::Float32, &["j"]);

    // Type-2 diffusion pipeline (laplacian -> flux x -> flux y -> update)
    // for each of the four fields. For `u` and `v` the update produces the
    // intermediate `u_tmp` / `v_tmp` consumed by the Smagorinsky branch; for
    // `w` and `pp` it directly produces the program output.
    for (field, result) in [
        ("u_in", "u_tmp"),
        ("v_in", "v_tmp"),
        ("w_in", "w_out"),
        ("pp_in", "pp_out"),
    ] {
        let lap = format!("lap_{field}");
        let flx = format!("flx_{field}");
        let fly = format!("fly_{field}");

        // Weighted horizontal Laplacian on the staggered grid.
        builder = builder
            .stencil(
                &lap,
                &format!(
                    "{field}[i+1,j,k] + {field}[i-1,j,k] + {field}[i,j+1,k] + {field}[i,j-1,k] \
                     - 4.0 * {field}[i,j,k] \
                     + crlato[j] * ({field}[i,j+1,k] - {field}[i,j,k]) \
                     + crlatu[j] * ({field}[i,j-1,k] - {field}[i,j,k])"
                ),
            )
            .shrink(&lap);

        // Longitude-direction diffusive flux with a monotonic limiter and a
        // saturation branch.
        builder = builder
            .stencil(
                &flx,
                &format!(
                    "delta = {lap}[i+1,j,k] - {lap}[i,j,k]; \
                     lim = delta > 4.0 ? 4.0 : delta; \
                     lim * ({field}[i+1,j,k] - {field}[i,j,k]) > 0.0 ? 0.0 : lim"
                ),
            )
            .shrink(&flx);

        // Latitude-direction diffusive flux, weighted by the metric term.
        builder = builder
            .stencil(
                &fly,
                &format!(
                    "delta = crlato[j] * ({lap}[i,j+1,k] - {lap}[i,j,k]); \
                     lim = delta > 4.0 ? 4.0 : delta; \
                     lim * ({field}[i,j+1,k] - {field}[i,j,k]) > 0.0 ? 0.0 : lim"
                ),
            )
            .shrink(&fly);

        // Flux-divergence update masked by hdmask, with an amplitude clamp.
        builder = builder
            .stencil(
                result,
                &format!(
                    "res = {field}[i,j,k] - hdmask[i,j,k] * \
                       ({flx}[i,j,k] - {flx}[i-1,j,k] + {fly}[i,j,k] - {fly}[i,j-1,k]); \
                     res > 100000.0 ? 100000.0 : res"
                ),
            )
            .shrink(result);
    }

    // Smagorinsky diffusion branch: shear and tension of the diffused wind
    // field, the corresponding diffusion coefficients, and the final wind
    // updates.
    builder = builder
        .stencil(
            "t_s",
            "(v_tmp[i,j,k] - v_tmp[i,j-1,k]) * crlavu[j] \
             - (u_tmp[i,j,k] - u_tmp[i-1,j,k]) * acrlat0[j]",
        )
        .shrink("t_s")
        .stencil(
            "s_uv",
            "(u_tmp[i,j+1,k] - u_tmp[i,j,k]) * crlavo[j] \
             + (v_tmp[i+1,j,k] - v_tmp[i,j,k]) * acrlat0[j]",
        )
        .shrink("s_uv")
        .stencil("sqr_s", "t_s[i,j,k] * t_s[i,j,k]")
        .shrink("sqr_s")
        .stencil("sqr_uv", "s_uv[i,j,k] * s_uv[i,j,k]")
        .shrink("sqr_uv")
        .stencil(
            "smag_u",
            "zs = 0.025 * sqrt(sqr_s[i,j,k] + sqr_uv[i,j,k]) - hdmask[i,j,k]; \
             min(0.5, max(0.0, zs))",
        )
        .shrink("smag_u")
        .stencil(
            "smag_v",
            "zs = 0.025 * sqrt(sqr_s[i,j+1,k] + sqr_uv[i+1,j,k]) - hdmask[i,j,k]; \
             min(0.5, max(0.0, zs))",
        )
        .shrink("smag_v")
        .stencil(
            "u_out",
            "u_tmp[i,j,k] + smag_u[i,j,k] * \
             (u_tmp[i+1,j,k] + u_tmp[i-1,j,k] + u_tmp[i,j+1,k] + u_tmp[i,j-1,k] \
              - 4.0 * u_tmp[i,j,k])",
        )
        .shrink("u_out")
        .stencil(
            "v_out",
            "v_tmp[i,j,k] + smag_v[i,j,k] * \
             (v_tmp[i+1,j,k] + v_tmp[i-1,j,k] + v_tmp[i,j+1,k] + v_tmp[i,j-1,k] \
              - 4.0 * v_tmp[i,j,k])",
        )
        .shrink("v_out");

    builder
        .output("u_out")
        .output("v_out")
        .output("w_out")
        .output("pp_out")
        .build()
        .expect("the horizontal diffusion program is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structure_matches_paper_inventory() {
        let program = horizontal_diffusion(&HorizontalDiffusionSpec::default());
        // 10 unique input fields, 4 outputs.
        assert_eq!(program.inputs().count(), 10);
        assert_eq!(program.outputs().len(), 4);
        // 4 fields x 4 type-2 stages + 8 Smagorinsky stages = 24 stencils.
        assert_eq!(program.stencil_count(), 24);
        assert_eq!(program.space().shape, vec![128, 128, 80]);
    }

    #[test]
    fn operation_counts_track_section9a() {
        let program = horizontal_diffusion(&HorizontalDiffusionSpec::default());
        let ops = program.ops_per_cell();
        // Paper: 87 additions, 41 multiplications, 2 sqrt, 2 min, 2 max, 20
        // data-dependent branches. Our reconstruction is within a few
        // operations of those counts (`report`'s `§IX-A horizontal
        // diffusion analysis` prints ours).
        assert!(
            (75..=95).contains(&ops.additions),
            "adds = {}",
            ops.additions
        );
        assert!(
            (35..=45).contains(&ops.multiplications),
            "muls = {}",
            ops.multiplications
        );
        assert_eq!(ops.square_roots, 2);
        assert_eq!(ops.minimums, 2);
        assert_eq!(ops.maximums, 2);
        assert_eq!(ops.branches, 20);
        // Total flops close to the paper's 130 Op per point.
        let flops = ops.flops();
        assert!((115..=145).contains(&flops), "flops = {flops}");
    }

    #[test]
    fn dependency_complexity_requires_delay_buffers() {
        let program = horizontal_diffusion(&HorizontalDiffusionSpec::small());
        use crate::dag_checks::{fan_in, reconverges};
        assert!(reconverges(&program));
        // Each update stencil receives data from several producers
        // (paper: 2-6 other stencil nodes).
        assert!(fan_in(&program, "u_out") >= 2);
        assert!(fan_in(&program, "w_out") >= 3);
    }

    #[test]
    fn memory_traffic_matches_9ijk_plus_5j() {
        let spec = HorizontalDiffusionSpec::default();
        let program = horizontal_diffusion(&spec);
        let [i, j, k] = spec.shape;
        let ijk = i * j * k;
        // 5 full-domain reads + 4 full-domain writes + 5 one-dimensional
        // parameter fields (paper Eq. 2: 9*IJK + 5*I operands).
        let expected_operands = 9 * ijk + 5 * j;
        assert_eq!(program.total_memory_bytes(), expected_operands * 4);
        // Arithmetic intensity ~ 130/9/4 Op/B (Eq. 2).
        let ai = program.arithmetic_intensity();
        assert!(
            (ai - 130.0 / 36.0).abs() < 0.5,
            "arithmetic intensity = {ai}"
        );
    }

    #[test]
    fn production_and_small_variants() {
        let prod = horizontal_diffusion(&HorizontalDiffusionSpec::production(8));
        assert_eq!(prod.vectorization(), 8);
        let small = horizontal_diffusion(&HorizontalDiffusionSpec::small());
        assert!(small.space().num_cells() < 1000);
    }
}
