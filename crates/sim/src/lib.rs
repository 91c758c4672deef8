//! Cycle-level spatial dataflow simulator for StencilFlow designs.
//!
//! The paper evaluates StencilFlow on a Stratix 10 FPGA testbed; no FPGA (or
//! HLS toolchain) is available in this reproduction, so this crate stands in
//! for the hardware: it simulates, cycle for cycle — stepped, with exact
//! jumps over linear stretches — exactly the architecture the paper's code
//! generator emits (§VI, Fig. 12):
//!
//! * one **stencil unit** per DAG node, whose control fills shift-register
//!   internal buffers to their tap distance and passes through the
//!   initialization / streaming / draining phases;
//! * bounded **FIFO channels** between units, each holding the depth the
//!   delay-buffer analysis (`stencilflow-core`) computed for its edge plus
//!   its producer's compute latency, as the analysis charged it: a hardware
//!   unit holds those words in its pipeline, a simulated one emits in the
//!   cycle it fires, so its channel holds them instead;
//! * dedicated **memory readers / writers** at source and sink nodes, subject
//!   to an optional off-chip bandwidth budget;
//! * for designs spanning multiple devices, **network channels** (SMI
//!   substitute) whose latency and bandwidth are the partition plan's
//!   (`PartitionConfig`), and which hold their link latency in flight.
//!
//! The simulated design is the mapped one, `HardwareMapping`'s: no size in
//! it comes from [`SimConfig`], which only says how long to run, what
//! off-chip bandwidth to allow, and — to reproduce Fig. 4 — a channel depth
//! that replaces the analysed one. The analysis charges the link latency
//! on every edge that crosses devices, so a multi-device design streams at
//! full rate because the analysis sized it to.
//!
//! The simulator answers timing questions; the values a design computes
//! are already fixed by the program. **Control is count-driven**: whether a
//! unit consumes, fires or stalls in a cycle depends on how many elements
//! it has consumed, how full its FIFOs are, and on bandwidth credits and
//! network arrival times — never on what a word *is* (the streaming units
//! produce one word per cell whatever its value). So the cycle loop moves
//! tokens, not data, and its cycle count, per-unit stalls and per-channel
//! watermarks are exactly those of a loop that drags every `f64` along.
//! Once a run has completed, its outputs are taken from the reference
//! executor's run of the same program (prepared when the simulator is
//! built), so they are bit-identical to the interpreter. The program is
//! prepared on the process-wide executor that `Pipeline` validates on, so
//! rebuilding a design of a program seen before compiles nothing; that is
//! safe because its cache is bounded and keyed by the program's
//! fingerprint, and its pooled buffers are overwritten before they are
//! read. A `#[cfg(test)]` oracle keeps the value-carrying loop, wired by
//! name as the simulator once was, and pins the engine to it, statistic
//! for statistic and bit for bit, and the mapping's wiring to its own.
//!
//! **A hot program's values are computed natively.** The run that supplies
//! the outputs is `ReferenceExecutor::run_tiered`, the FPGA path's one
//! entry point, shared with `Pipeline`'s validation. It follows the
//! ski-rental rule: a program's runs there take the fused rung until they
//! have cost as much as one native build (a 200 ms constant, about the
//! median cold `cc` build of a `sim-pipeline` unit), then ask for the JIT
//! rung without waiting — fused until `cc`'s module lands, native after.
//! The two rungs are bit-identical, so the rule moves time, never a value
//! or a cycle; a design simulated once never starts `cc`.
//!
//! **Most cycles repeat the one before.** A streaming design fills, streams
//! and drains: for long stretches every unit does in each cycle what it did
//! in the last one. Every decision of a cycle compares a count (words
//! consumed, cells produced, channel occupancy, a network word's arrival
//! against the clock) with a constant, or reads a bandwidth credit. So when
//! a stepped cycle leaves every credit as it found it, the counts move by
//! the same amount in each following cycle until the first comparison
//! changes its answer — a port meets its fill distance, a unit its last
//! cell, a channel runs empty or full or passes its watermark, a network
//! word lands, a writer finishes, the cycle limit or the deadlock window
//! comes up — and that cycle is computed in closed form. The loop jumps to
//! it in one step and steps on from there (the `forward` module has the
//! argument). The state it lands on is the one stepping would have
//! reached, so the report is exact; the oracle tests also check how few
//! cycles were stepped (listing 1: 9 of 288; a Fig. 4 deadlock: 8 of
//! 10 005).
//!
//! Its cycle counts are compared against the analytical model `C = L + I·N`
//! (Eq. 1) in the test suite. Crucially, it also reproduces the paper's
//! deadlock scenario (Fig. 4): running a reconvergent DAG with insufficient
//! channel depths stalls permanently, while the analysis-computed depths
//! stream to completion (`tests/sim_sufficiency.rs` builds 450 designs,
//! on one, two and four devices, and every one completes).

#![forbid(unsafe_code)]

mod channel;
pub mod config;
mod forward;
mod memory;
#[cfg(test)]
mod oracle;
pub mod report;
pub mod simulator;
mod unit;

pub use config::SimConfig;
pub use report::{SimOutcome, SimReport};
pub use simulator::Simulator;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::assert_same_grid;
    use std::collections::BTreeMap;
    use stencilflow_core::AnalysisConfig;
    use stencilflow_reference::{generate_inputs, ReferenceExecutor};
    use stencilflow_workloads::listing1::listing1_with_shape;

    #[test]
    fn listing1_streams_to_completion_and_matches_reference() {
        let program = listing1_with_shape(&[6, 6, 6]);
        let inputs = generate_inputs(&program, 11);
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();

        let sim = Simulator::paper_defaults(&program);
        let report = sim.run(&inputs).unwrap();
        assert_eq!(report.outcome, SimOutcome::Completed);
        // The simulated values are the executor's, bit for bit.
        let expected = reference.field("b4").unwrap();
        assert_same_grid("b4", report.output("b4").unwrap(), expected);
        // Eq. 1: cycles are close to N + L (never less than N).
        let n = program.space().num_cells() as u64;
        assert!(report.cycles >= n);
        assert!(
            report.cycles < 3 * n,
            "cycles = {} for N = {n}",
            report.cycles
        );
    }

    #[test]
    fn insufficient_channel_depths_deadlock() {
        // Fig. 4: the fork/join of listing1 (b0 feeds b1/b2, reconverging at
        // b4 through paths of different latency) deadlocks when all channels
        // are forced to depth 1.
        let program = listing1_with_shape(&[6, 6, 6]);
        let inputs = generate_inputs(&program, 11);
        let config = SimConfig {
            channel_depth_override: Some(1),
            ..SimConfig::default()
        };
        let sim = Simulator::build(&program, &AnalysisConfig::paper_defaults(), &config).unwrap();
        let report = sim.run(&inputs).unwrap();
        assert_eq!(report.outcome, SimOutcome::Deadlocked);
    }

    #[test]
    fn memory_bandwidth_limit_slows_the_design_down() {
        let program = listing1_with_shape(&[6, 6, 6]);
        let inputs = generate_inputs(&program, 3);
        let unlimited = Simulator::paper_defaults(&program).run(&inputs).unwrap();
        let limited_config = SimConfig {
            memory_words_per_cycle: Some(1.0),
            ..SimConfig::default()
        };
        let limited =
            Simulator::build(&program, &AnalysisConfig::paper_defaults(), &limited_config)
                .unwrap()
                .run(&inputs)
                .unwrap();
        assert_eq!(limited.outcome, SimOutcome::Completed);
        assert!(limited.cycles > unlimited.cycles);
        // Results stay correct, only slower.
        let a = unlimited.output("b4").unwrap();
        let b = limited.output("b4").unwrap();
        assert!(a.approx_eq(b, 1e-6));
    }

    #[test]
    fn horizontal_diffusion_small_matches_reference() {
        use stencilflow_workloads::{horizontal_diffusion, HorizontalDiffusionSpec};
        let program = horizontal_diffusion(&HorizontalDiffusionSpec::small());
        let inputs = generate_inputs(&program, 5);
        let reference = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let sim = Simulator::paper_defaults(&program);
        let report = sim.run(&inputs).unwrap();
        assert_eq!(report.outcome, SimOutcome::Completed);
        for output in ["u_out", "v_out", "w_out", "pp_out"] {
            let expected = reference.field(output).unwrap();
            assert_same_grid(output, report.output(output).unwrap(), expected);
        }
    }

    #[test]
    fn missing_inputs_are_reported() {
        let program = listing1_with_shape(&[4, 4, 4]);
        let sim = Simulator::paper_defaults(&program);
        let empty: BTreeMap<String, stencilflow_reference::Grid> = BTreeMap::new();
        assert!(sim.run(&empty).is_err());
    }
}
