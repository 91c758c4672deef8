//! The seven workloads: six that `BENCHMARK.json` lists and one ungated
//! ([`UNGATED`]). Each is set up from `--seed`, runs whole iterations of its
//! loop for the measured window, checks its outputs against an oracle, and
//! (in the traced run) probes the layers it names.

mod cold;
mod flood;
mod map;
mod sim;
mod sweep;
mod wire;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use crate::sut;
use crate::trace::Tracer;

/// What a workload is set up from.
pub struct Ctx {
    pub seed: u64,
    /// Service worker threads: `min(nproc, 4)`.
    pub workers: usize,
    /// This process's private scratch directory.
    pub dir: PathBuf,
}

impl Ctx {
    /// Workers of the two sweep workloads, which run one large job at a
    /// time: one per two logical CPUs. This host's two CPUs share a core,
    /// and a second worker made `jacobi-steps` 8 % slower (it is memory
    /// bound) and its job times three times as scattered.
    pub fn sweep_workers(&self) -> usize {
        (self.workers / 2).max(1)
    }
}

/// What the measured window counted.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: u64,
    /// Cell updates of completed jobs (space cells × stencils × steps).
    pub cells: u64,
    pub window_s: f64,
    /// One record per whole iteration, in order; the end-to-end timing
    /// metrics are computed per iteration.
    pub iterations: Vec<Iteration>,
    /// Submit → outcome on the benchmark's clock, one per measured job
    /// (small jobs only where a workload mixes sizes).
    pub latencies_ms: Vec<f64>,
}

/// One whole iteration of a workload's loop.
pub struct Iteration {
    pub wall_s: f64,
    pub completed: u64,
    /// This iteration's part of [`Tally::latencies_ms`].
    pub latencies: std::ops::Range<usize>,
}

impl Tally {
    fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    /// Close an iteration that began when the running totals read `mark`
    /// (see [`Tally::mark`]).
    fn close_iteration(&mut self, mark: (u64, usize), wall_s: f64) {
        self.iterations.push(Iteration {
            wall_s,
            completed: self.completed() - mark.0,
            latencies: mark.1..self.latencies_ms.len(),
        });
    }

    fn mark(&self) -> (u64, usize) {
        (self.completed(), self.latencies_ms.len())
    }
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

pub trait Workload {
    /// The percentile `job_tail_ms` reports: the highest that keeps about
    /// ten samples beyond it in one window.
    fn tail_percentile(&self) -> f64;

    /// The auto tier decisions in force, for the run's header: when a
    /// number moves between runs, a different pick is the first suspect.
    fn tier_choices(&self) -> Vec<String> {
        Vec::new()
    }

    /// Run whole iterations until at least `seconds` have passed.
    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer);

    /// The untimed oracle: adds to `tally.mismatches`; may report the
    /// interpreter baseline it timed on the way.
    fn verify(&mut self, tally: &mut Tally, layers: &mut Layers) -> Result<(), String>;

    /// Per-layer probes of the traced run; `tracer` holds the traced
    /// window's spans.
    fn probe(&mut self, tracer: &Tracer, layers: &mut Layers) -> Result<(), String>;
}

/// Workloads `BENCHMARK.json` does not list, so the driver neither runs nor
/// bounds them: they run by name, and `run.sh` without a name runs them
/// after the listed ones. `wire-mixed` spends a third of its time in the
/// kernel (file creation, truncation and reads per job, threads per
/// dispatch round), and on this shared host that part moves by 15 % from one
/// minute to the next: ten same-code runs spread over 0.12 of their median
/// in a quiet hour and over 0.3 in the driver's check, whatever statistic
/// the run reports.
pub const UNGATED: [&str; 1] = ["wire-mixed"];

/// Set a workload up. Everything here is `setup_s`: inputs, files, the
/// tier pre-warm and the warm-up iterations.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "jacobi-steps" => Box::new(sweep::Sweep::jacobi_steps(ctx)?),
        "hdiff" => Box::new(sweep::Sweep::hdiff(ctx)?),
        "small-flood" => Box::new(flood::Flood::setup(ctx)?),
        "wire-mixed" => Box::new(wire::Wire::setup(ctx)?),
        "cold-compile" => Box::new(cold::Cold::setup(ctx)?),
        "map-large" => Box::new(map::MapLarge::setup(ctx)?),
        "sim-pipeline" => Box::new(sim::SimPipeline::setup(ctx)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The tier pre-warm: run the job pinned to every tier, then let auto see it.
///
/// Auto decides on first sight from one timed run per tier, and a job above
/// 1 M cell·steps gets no warm-up run first — so on a cold executor the JIT
/// tier's time includes `cc`, and `jacobi-steps` then settles on the fused
/// tier (3.5× slower) whenever the compiler took longer than the difference.
/// With every tier pinned once beforehand, `cc` has run, the module table is
/// hot, and the decision is made on steady times, alone on the executor.
/// Returns the checksum (values and masks) all runs agreed on.
fn prewarm(serve: &sut::Serve, program: &sut::Program, job: &sut::Job) -> Result<u64, String> {
    let mut expected = None;
    for tier in sut::TIERS.into_iter().map(Some).chain([None]) {
        let outputs = serve.run_one(job, tier).outputs?;
        let got = sut::checksum(program, &outputs, true);
        serve.recycle(outputs);
        if *expected.get_or_insert(got) != got {
            return Err(format!("tier {tier:?} disagrees with the pinned simd run"));
        }
    }
    expected.ok_or("no tier ran".into())
}

/// The measured loop: whole iterations until `seconds` have passed.
fn whole_iterations(
    seconds: f64,
    tally: &mut Tally,
    tracer: &mut Tracer,
    mut iteration: impl FnMut(&mut Tally, &mut Tracer),
) {
    let start = Instant::now();
    loop {
        let (mark, began) = (tally.mark(), Instant::now());
        iteration(tally, tracer);
        tally.close_iteration(mark, began.elapsed().as_secs_f64());
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    tally.window_s += start.elapsed().as_secs_f64();
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}
