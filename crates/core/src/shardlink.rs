//! Static shard-link sizing: the fig04 buffer analysis extended to the
//! halo-exchange links of the sharded runtime.
//!
//! The paper's fig04 analysis proves a *delay buffer* deep enough to hold
//! the data in flight between two stencil units, ruling out deadlock before
//! anything runs. The sharded tier (`stencilflow_reference::shard`) has the
//! same failure mode one level up: neighbors exchange framed halo slabs
//! over bounded FIFOs, and a link too shallow to hold one whole frame can
//! never drain — the sender blocks mid-frame forever and the receiver
//! starves. PR 6 *detects* that case at runtime with a progress watchdog;
//! this module *predicts* it, from the program and the shard configuration
//! alone, with the arithmetic the runtime plans by:
//!
//! ```text
//! radius        = cumulative dim0 halo radius of the DAG per step
//! halo_rows     = radius × window
//! payload_words = halo_rows × row_words          (one halo slab)
//! required      = FRAME_HEADER_WORDS + payload_words
//! deadlock      ⇔ shards > 1 ∧ configured capacity < required
//! ```
//!
//! The runtime calls this: its planner hands [`analyze_shard_links`] the
//! requested geometry and runs on the shards, window, slab ranges and link
//! capacity it returns, so prediction and detection agree by construction;
//! `tests/analysis_prediction.rs` checks the prediction against the live
//! watchdog report.

use crate::error::{CoreError, Result};
use crate::partition::{SlabPartition, SlabRange};
use std::collections::BTreeMap;
use stencilflow_program::{ProgramError, StencilProgram};

/// Words of framing metadata accounted for ahead of every halo payload on
/// a link: sequence number, window, field, payload length and checksum,
/// plus the one word that used to hold a magic sentinel and stays in the
/// accounting so every sized capacity keeps its value. The runtime's
/// `Frame` is charged this much on top of its payload.
pub const FRAME_HEADER_WORDS: usize = 6;

/// The fig04-style minimum capacity of a halo link: it must hold at least
/// one whole frame (header plus payload), or the sender can never complete
/// a push and the receiver starves — the sharded analogue of the paper's
/// undersized delay-buffer deadlock (Fig. 4).
pub(crate) fn minimum_link_depth_words(payload_words: usize) -> usize {
    FRAME_HEADER_WORDS + payload_words
}

/// Cumulative per-step halo radius of the DAG along the outermost
/// dimension: how many rows of garbage one time step can propagate inward
/// from a wrong boundary. Accumulates each stencil's dim0 reach on top of
/// its upstream producers' radii along the topological order.
///
/// # Errors
///
/// Returns the underlying [`ProgramError`] when the DAG is cyclic.
pub fn halo_radius(program: &StencilProgram) -> std::result::Result<usize, ProgramError> {
    let space = program.space();
    let dim0 = &space.dims[0];
    let mut radius: BTreeMap<String, i64> = program
        .inputs()
        .map(|(name, _)| (name.to_string(), 0))
        .collect();
    let mut max_radius = 0i64;
    for name in program.topological_stencils()? {
        let stencil = program
            .stencil(name)
            .expect("topological order lists stencils");
        let mut r = 0i64;
        for (field, info) in stencil.accesses.iter() {
            let upstream = radius.get(field).copied().unwrap_or(0);
            // Position of the outermost dimension within the accessed
            // field's dims: inputs may be lower-dimensional; stencil
            // outputs always span the full space with dim0 first.
            let pos = if program.is_input(field) {
                program
                    .input(field)
                    .and_then(|decl| decl.dims.iter().position(|d| d == dim0))
            } else {
                Some(0)
            };
            let reach = pos
                .map(|p| {
                    info.offsets
                        .iter()
                        .map(|offsets| offsets.get(p).map(|o| o.abs()).unwrap_or(0))
                        .max()
                        .unwrap_or(0)
                })
                .unwrap_or(0);
            r = r.max(upstream + reach);
        }
        max_radius = max_radius.max(r);
        radius.insert(name.clone(), r);
    }
    Ok(max_radius as usize)
}

/// Shard-run parameters the link-sizing pass needs: the knobs of the
/// runtime's `ShardConfig`. `window` is the *requested* steps per temporal
/// window (the runtime's `with_window`); the pass shrinks an infeasible
/// request, and the geometry it resolves is the one the runtime runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLinkSpec {
    /// Requested shard count.
    pub shards: usize,
    /// Requested steps per temporal window.
    pub window: usize,
    /// Total time steps of the run.
    pub steps: usize,
    /// Explicit per-link capacity in words; `None` uses the runtime's
    /// default sizing (which is never undersized by construction).
    pub link_capacity_words: Option<usize>,
    /// Number of feedback pairs of the run (`run_steps` mode); sizes the
    /// default capacity.
    pub feedback_pairs: usize,
}

impl ShardLinkSpec {
    /// Spec for `shards` shards stepping `steps` times with `window` steps
    /// per window and default capacity.
    pub fn new(shards: usize, window: usize, steps: usize) -> Self {
        ShardLinkSpec {
            shards,
            window,
            steps,
            link_capacity_words: None,
            feedback_pairs: 0,
        }
    }

    /// Override the per-link capacity (the runtime's
    /// `with_link_capacity_words`).
    pub fn with_link_capacity_words(mut self, words: usize) -> Self {
        self.link_capacity_words = Some(words);
        self
    }

    /// Set the feedback-pair count (one per output field fed back into an
    /// input between steps).
    pub fn with_feedback_pairs(mut self, pairs: usize) -> Self {
        self.feedback_pairs = pairs;
        self
    }
}

/// What the static link-sizing pass proved about one shard configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLinkRequirement {
    /// Shard count after feasibility shrinking.
    pub shards: usize,
    /// Window after feasibility shrinking.
    pub window: usize,
    /// Rows each shard owns under that geometry, in shard order.
    pub slabs: Vec<SlabRange>,
    /// Cumulative per-step halo radius of the DAG.
    pub radius: usize,
    /// Halo rows exchanged per window (`radius × window`).
    pub halo_rows: usize,
    /// Words per row of the iteration space.
    pub row_words: usize,
    /// Payload words of one halo frame.
    pub payload_words: usize,
    /// Minimum link capacity that can drain one frame
    /// (`minimum_link_depth_words`).
    pub required_frame_words: usize,
    /// Capacity the runtime would actually configure.
    pub configured_capacity_words: usize,
    /// The fig04 verdict: with more than one shard, a configured capacity
    /// below the one-frame minimum deadlocks the exchange (the runtime's
    /// watchdog will trip and degrade). Single-shard runs exchange no
    /// halos and cannot deadlock regardless of capacity.
    pub deadlock_predicted: bool,
}

/// Statically size the halo links of a sharded run and decide whether the
/// configuration deadlocks (see the module docs). The only place a
/// requested geometry is shrunk and a link sized: the runtime plans from
/// the returned requirement.
///
/// # Errors
///
/// Returns [`CoreError::Program`] when the program's DAG is invalid and
/// [`CoreError::Partition`] when no feasible slab split exists at all.
pub fn analyze_shard_links(
    program: &StencilProgram,
    spec: &ShardLinkSpec,
) -> Result<ShardLinkRequirement> {
    let space = program.space();
    let extent = space.shape[0];
    let row_words: usize = space.shape[1..].iter().product::<usize>().max(1);
    let radius = halo_radius(program).map_err(CoreError::Program)?;

    // Shrink the window, then the shard count, until every shard can own
    // at least its dilation depth, so halos always come from interior rows.
    let mut shards = spec.shards.min(extent).max(1);
    let mut window = spec.window.clamp(1, spec.steps.max(1));
    let slabs = loop {
        let min_rows = (radius * window).max(1);
        match SlabPartition::split(extent, shards, min_rows) {
            Ok(partition) => break partition.ranges,
            Err(_) if window > 1 => window -= 1,
            Err(_) if shards > 1 => shards -= 1,
            Err(e) => {
                return Err(CoreError::Partition {
                    message: format!("cannot shard `{}`: {e}", program.name()),
                })
            }
        }
    };

    let halo_rows = radius * window;
    let payload_words = halo_rows * row_words;
    let required_frame_words = minimum_link_depth_words(payload_words);
    // Default: room for every feedback field's frame in both the original
    // and a duplicated transmission, so two neighbors pushing at each other
    // before either drains can never mutually block.
    let configured_capacity_words = spec
        .link_capacity_words
        .unwrap_or_else(|| 4 * spec.feedback_pairs.max(1) * required_frame_words);
    Ok(ShardLinkRequirement {
        shards,
        window,
        slabs,
        radius,
        halo_rows,
        row_words,
        payload_words,
        required_frame_words,
        configured_capacity_words,
        deadlock_predicted: shards > 1 && configured_capacity_words < required_frame_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    fn chain(extent: usize) -> StencilProgram {
        StencilProgramBuilder::new("chain", &[extent, 4])
            .dims(&["i", "j"])
            .input("a", DataType::Float64, &["i", "j"])
            .stencil("b", "0.5 * (a[i-1,j] + a[i+1,j])")
            .stencil("c", "0.5 * (b[i-1,j] + b[i+1,j])")
            .output("c")
            .build()
            .unwrap()
    }

    #[test]
    fn radius_accumulates_along_the_chain() {
        assert_eq!(halo_radius(&chain(32)).unwrap(), 2);
    }

    #[test]
    fn default_capacity_is_never_undersized() {
        let program = chain(32);
        for shards in [1, 2, 4] {
            for window in [1, 2] {
                let req =
                    analyze_shard_links(&program, &ShardLinkSpec::new(shards, window, 4)).unwrap();
                assert!(
                    !req.deadlock_predicted,
                    "{shards} shards window {window}: default capacity predicted to deadlock"
                );
                assert!(req.configured_capacity_words >= req.required_frame_words);
            }
        }
    }

    #[test]
    fn undersized_override_is_predicted_to_deadlock() {
        let program = chain(32);
        let spec = ShardLinkSpec::new(4, 1, 4).with_link_capacity_words(4);
        let req = analyze_shard_links(&program, &spec).unwrap();
        assert!(req.deadlock_predicted);
        assert_eq!(req.configured_capacity_words, 4);
        assert_eq!(
            req.required_frame_words,
            FRAME_HEADER_WORDS + req.payload_words
        );
    }

    #[test]
    fn single_shard_cannot_deadlock() {
        let program = chain(32);
        let spec = ShardLinkSpec::new(1, 1, 4).with_link_capacity_words(1);
        let req = analyze_shard_links(&program, &spec).unwrap();
        assert!(!req.deadlock_predicted);
    }

    #[test]
    fn infeasible_geometry_shrinks_before_failing() {
        // 8 rows cannot hold 4 shards × window-4 dilation; the pass must
        // shrink (window first) rather than error, like the runtime.
        let program = chain(8);
        let req = analyze_shard_links(&program, &ShardLinkSpec::new(4, 4, 8)).unwrap();
        assert!(req.window < 4 || req.shards < 4);
        // The slabs it hands the runtime are the shrunk geometry's.
        assert_eq!(req.slabs.len(), req.shards);
        assert_eq!((req.slabs[0].start, req.slabs[req.shards - 1].end), (0, 8));
        assert!(req.slabs.iter().all(|s| s.end - s.start >= req.halo_rows));
    }
}
