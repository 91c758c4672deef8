//! `sim-pipeline`: the simulated-hardware run the reproduction stands on.
//! Per program: `Pipeline::from_json().execute_with_inputs()` (fuse →
//! analyze → map → codegen → `Simulator` → validate against the reference)
//! then `MultiDevicePlan::partition(4)` → `Simulator::build_multi_device()
//! .run()`. The same `core`/`dataflow` calls as `map-large`, but on small
//! DAGs where they are noise; a mapping change that makes simulated designs
//! slower shows as `sim.cycles`.
//!
//! `Pipeline` is one call from outside, so the traced run replaces it by
//! the same public calls in the same order, one span each.

use std::time::Instant;

use super::{map, ms_since, whole_iterations, Ctx, Layers, Tally, Workload};
use crate::stats::Rng;
use crate::sut::{self, Inputs, Program, SimRun};
use crate::trace::Tracer;

const DEVICES: usize = 4;
const MAX_ERROR: f64 = 1e-5;

struct Member {
    text: String,
    inputs: Inputs,
}

/// What simulating one program reported; cycle counts are exact and must
/// repeat on every pass.
#[derive(Clone, Copy, PartialEq, Default)]
struct Facts {
    single_cycles: u64,
    multi_cycles: u64,
    cells: u64,
}

pub struct SimPipeline {
    set: Vec<Member>,
    rng: Rng,
    first_pass: Vec<Option<Facts>>,
}

impl SimPipeline {
    pub fn setup(ctx: &Ctx) -> Result<SimPipeline, String> {
        let mut set = Vec::new();
        for (ix, (_, text)) in sut::sim_set().into_iter().enumerate() {
            let program = sut::program_from_json(&text)?;
            let inputs = sut::gen_inputs(&program, ctx.seed.wrapping_add(ix as u64));
            set.push(Member { text, inputs });
        }
        let mut sim = SimPipeline {
            first_pass: vec![None; set.len()],
            set,
            rng: Rng::new(ctx.seed),
        };
        let mut tally = Tally::default();
        sim.pass(&mut tally, &mut Tracer::new());
        if tally.failed + tally.mismatches > 0 {
            return Err("the warm-up pass failed".into());
        }
        Ok(sim)
    }

    fn pass(&mut self, tally: &mut Tally, tracer: &mut Tracer) {
        let mut order: Vec<usize> = (0..self.set.len()).collect();
        self.rng.shuffle(&mut order);
        for ix in order {
            tally.attempted += 1;
            let member = &self.set[ix];
            let start = Instant::now();
            let simulated = if tracer.enabled() {
                simulate_traced(member, ix as u64, tracer)
            } else {
                simulate(member)
            };
            tally.latencies_ms.push(ms_since(start));
            match simulated {
                Ok((facts, sound)) => {
                    tally.cells += facts.cells;
                    let repeatable = *self.first_pass[ix].get_or_insert(facts) == facts;
                    tally.mismatches += u64::from(!(sound && repeatable));
                }
                Err(_) => tally.failed += 1,
            }
        }
    }
}

/// The oracle of one job: both simulations completed, the single-device
/// outputs are within tolerance of the reference executor, and the
/// multi-device outputs equal the single-device ones bit for bit.
fn judge(
    fused: &Program,
    completed: bool,
    max_error: f64,
    single: &SimRun,
    multi: &SimRun,
) -> (Facts, bool) {
    let facts = Facts {
        single_cycles: single.cycles(),
        multi_cycles: multi.cycles(),
        // Simulated cell updates: the fused design, once per simulation.
        cells: 2 * sut::cell_updates(fused),
    };
    let sound =
        completed && max_error < MAX_ERROR && multi.completed() && single.same_outputs(multi);
    (facts, sound)
}

fn simulate(member: &Member) -> Result<(Facts, bool), String> {
    let run = sut::pipeline_execute(&member.text, &member.inputs)?;
    let plan = sut::partition(&run.fused, DEVICES)?;
    let multi = sut::sim_build_multi(&run.fused, &plan)?.run(&member.inputs)?;
    Ok(judge(
        &run.fused,
        run.completed,
        run.max_error,
        &run.sim,
        &multi,
    ))
}

/// [`simulate`] with `Pipeline::execute_with_inputs` unrolled into its
/// public calls.
fn simulate_traced(
    member: &Member,
    job: u64,
    tracer: &mut Tracer,
) -> Result<(Facts, bool), String> {
    let id = Some(job);
    let inputs = &member.inputs;
    let program = tracer.span("program.from_json", id, || {
        sut::program_from_json(&member.text)
    })?;
    let fused = tracer.span("dataflow.fuse_all", id, || sut::fuse_all(&program))?;
    tracer.span("core.analyze", id, || sut::core_analyze(&fused))?;
    let mapping = tracer.span("core.mapping", id, || sut::build_mapping(&fused))?;
    tracer.span("codegen.generate", id, || {
        sut::generate_kernels(&fused, &mapping)
    });
    let design = tracer.span("sim.build", id, || sut::sim_build(&fused))?;
    let single = tracer.span("sim.run", id, || design.run(inputs))?;
    let max_error = tracer.span("sim.validate", id, || {
        let reference = sut::Executor::new().run(&program, inputs)?;
        Ok::<f64, String>(single.max_error_against(&program, &reference))
    })?;
    let plan = tracer.span("core.partition", id, || sut::partition(&fused, DEVICES))?;
    let design = tracer.span("sim.build_multi", id, || {
        sut::sim_build_multi(&fused, &plan)
    })?;
    let multi = tracer.span("sim.run_multi", id, || design.run(inputs))?;
    Ok(judge(
        &fused,
        single.completed(),
        max_error,
        &single,
        &multi,
    ))
}

impl Workload for SimPipeline {
    fn tail_percentile(&self) -> f64 {
        0.90
    }

    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) {
        whole_iterations(seconds, tally, tracer, |tally, tracer| {
            self.pass(tally, tracer)
        });
    }

    /// The oracle runs inside every job (see [`judge`]).
    fn verify(&mut self, _tally: &mut Tally, _layers: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
        let jobs = self.set.len();
        map::layer_times(tracer, jobs, layers);
        let run_us = tracer.pass_total_us(&["sim.run", "sim.run_multi"], jobs);
        layers.insert(
            "sim.build_us".into(),
            tracer.pass_total_us(&["sim.build", "sim.build_multi"], jobs),
        );
        layers.insert("sim.run_ms".into(), run_us / 1e3);
        layers.insert(
            "sim.validate_ms".into(),
            tracer.pass_total_us(&["sim.validate"], jobs) / 1e3,
        );

        let facts: Vec<Facts> = self
            .first_pass
            .iter()
            .map(|f| f.unwrap_or_default())
            .collect();
        let cells: u64 = facts.iter().map(|f| f.cells).sum();
        let single: u64 = facts.iter().map(|f| f.single_cycles).sum();
        let multi: u64 = facts.iter().map(|f| f.multi_cycles).sum();
        layers.insert("sim.cells_per_s".into(), cells as f64 / (run_us / 1e6));
        layers.insert("sim.cycles".into(), (single + multi) as f64);
        layers.insert("sim.multi_device_cycles".into(), multi as f64);

        // The paper's runtime model (`C = L + I·N`) against the simulated
        // single-device cycle counts, over the set.
        let mut model_gap = 0.0;
        let mut model_cycles = 0u64;
        for (member, facts) in self.set.iter().zip(&facts) {
            let fused = sut::fuse_all(&sut::program_from_json(&member.text)?)?;
            let expected = sut::expected_cycles(&fused)?;
            model_cycles += expected;
            model_gap += (expected as f64 - facts.single_cycles as f64).abs();
        }
        layers.insert("perf.model_cycles".into(), model_cycles as f64);
        layers.insert(
            "perf.model_error_share".into(),
            model_gap / single.max(1) as f64,
        );
        Ok(())
    }
}
