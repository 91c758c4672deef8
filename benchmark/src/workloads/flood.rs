//! `small-flood`: a 500-job `JobMixSpec` batch through
//! `ServeExecutor::run_batch_with`, results recycled in the sink. Per-job
//! bind, pool, tier-cache lookup and work stealing dominate; the sweeps
//! themselves are tens of microseconds.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use super::{prewarm, whole_iterations, Ctx, Layers, Tally, Workload};
use crate::stats::{median_us, Rng};
use crate::sut::{self, Inputs, Job, MixJob, Program, Serve, ServeCounters};
use crate::trace::{Kind, Tracer};

/// A quarter of the default `JobMixSpec` (2000 jobs, 4 large): a batch is
/// an iteration, the run reports its best iteration, and a 45 ms batch fits
/// into a quiet gap on this shared host four times as often as a 190 ms one
/// (spread of `jobs_per_s` over five same-code runs: 0.13 at 2000 jobs, 0.05
/// at 500).
const JOBS: usize = 500;
const LARGE_JOBS: usize = 1;
const TENANTS: u64 = 16;
const WARMUP_BATCHES: usize = 8;

/// A job mix with each job's inputs generated once per (template, tenant
/// seed) and shared, as `small-flood` and `wire-mixed` both run it.
pub struct PreparedMix {
    pub mix: Vec<MixJob>,
    /// Job index → kind index.
    pub kind_of: Vec<usize>,
    /// Kind index → (program, inputs, steps). A kind fixes a job's output.
    pub kinds: Vec<(Program, Inputs, usize)>,
}

impl PreparedMix {
    /// Draw a mix from `seed`, keep the first jobs that fill equal quotas
    /// per small template, and deal them out in rounds of one job per
    /// template, each round in an order drawn from the seed; the large jobs
    /// keep the front-loaded slots `JobMixSpec` gives them. So every seed's
    /// mix holds the same work *and* the same work before any position:
    /// which tenants, and the order within a round, is what the seed
    /// decides. A plain draw varies the share of the one expensive template
    /// by several per cent from seed to seed, and the cost of the first half
    /// of the batch, which is what a job's median latency measures, by 25 %.
    pub fn new(jobs: usize, large_jobs: usize, seed: u64) -> PreparedMix {
        let drawn = sut::job_mix(2 * jobs, large_jobs, TENANTS, seed);
        let small_jobs = jobs - large_jobs;
        let mut large_slots = Vec::new();
        let mut queues: BTreeMap<usize, VecDeque<MixJob>> = BTreeMap::new();
        for (slot, job) in drawn.into_iter().enumerate() {
            if job.small {
                queues.entry(job.template).or_default().push_back(job);
            } else {
                large_slots.push((slot, job));
            }
        }
        let templates: Vec<usize> = queues.keys().copied().collect();
        for (nth, queue) in queues.values_mut().enumerate() {
            let share = small_jobs / templates.len();
            queue.truncate(share + usize::from(nth < small_jobs % templates.len()));
        }
        let mut rng = Rng::new(seed);
        let mut mix = Vec::with_capacity(jobs);
        let mut round = templates.clone();
        while mix.len() < small_jobs {
            rng.shuffle(&mut round);
            let before = mix.len();
            mix.extend(
                round
                    .iter()
                    .filter_map(|template| queues.get_mut(template)?.pop_front()),
            );
            assert!(mix.len() > before, "the draw holds too few small jobs");
        }
        for (slot, job) in large_slots {
            mix.insert(slot.min(mix.len()), job);
        }

        let mut index: BTreeMap<(usize, u64), usize> = BTreeMap::new();
        let mut kinds = Vec::new();
        let kind_of = mix
            .iter()
            .map(|job| {
                *index
                    .entry((job.template, job.input_seed))
                    .or_insert_with(|| {
                        let inputs = sut::gen_inputs(&job.program, job.input_seed);
                        kinds.push((job.program.clone(), inputs, job.steps));
                        kinds.len() - 1
                    })
            })
            .collect();
        PreparedMix {
            mix,
            kind_of,
            kinds,
        }
    }

    /// The first kind of every template, large ones included.
    pub fn one_kind_per_template(&self) -> impl Iterator<Item = &(Program, Inputs, usize)> {
        let mut seen = BTreeSet::new();
        self.mix
            .iter()
            .zip(&self.kind_of)
            .filter(move |(job, _)| seen.insert(job.template))
            .map(|(_, &kind)| &self.kinds[kind])
    }

    pub fn job(&self, ix: usize) -> Job {
        let (program, inputs, steps) = &self.kinds[self.kind_of[ix]];
        sut::job(program, inputs, *steps)
    }

    pub fn cells(&self, ix: usize) -> u64 {
        sut::cell_updates(&self.mix[ix].program) * self.mix[ix].steps as u64
    }

    /// The interpreter's checksum of every kind (`masks` as the caller's
    /// outputs carry them).
    pub fn oracle_checksums(&self, masks: bool) -> Result<Vec<u64>, String> {
        self.kinds
            .iter()
            .map(|(program, inputs, steps)| {
                let reference = sut::interpret(program, inputs, *steps)?;
                Ok(sut::checksum(program, &reference, masks))
            })
            .collect()
    }
}

/// How one job of a batch ended, as the sink saw it.
struct Landed {
    job: usize,
    latency: Duration,
    /// `None` when the job failed.
    checksum: Option<u64>,
}

pub struct Flood {
    mix: PreparedMix,
    jobs: Vec<Job>,
    serve: Serve,
    /// Checksum per kind from the first warm-up batch; the oracle later
    /// confirms the table against the interpreter.
    table: Vec<u64>,
    /// Counter movement over the last window (must be flat).
    steady: ServeCounters,
}

impl Flood {
    pub fn setup(ctx: &Ctx) -> Result<Flood, String> {
        let mix = PreparedMix::new(JOBS, LARGE_JOBS, ctx.seed);
        let jobs = (0..mix.mix.len()).map(|ix| mix.job(ix)).collect();
        let mut flood = Flood {
            table: vec![0; mix.kinds.len()],
            mix,
            jobs,
            serve: Serve::new(ctx.workers),
            steady: ServeCounters::default(),
        };
        // Every template decides its tier alone on the executor, not in the
        // middle of a batch with the other worker busy.
        for (program, inputs, steps) in flood.mix.one_kind_per_template() {
            prewarm(&flood.serve, program, &sut::job(program, inputs, *steps))?;
        }
        // The first batch fills the checksum table; the rest fill the pools
        // to their steady depth.
        for batch in 0..WARMUP_BATCHES {
            for landed in flood.run_batch().1 {
                let kind = flood.mix.kind_of[landed.job];
                let got = landed.checksum.ok_or("a warm-up job failed")?;
                if batch == 0 {
                    flood.table[kind] = got;
                } else if flood.table[kind] != got {
                    return Err("a job's output changed between warm-up batches".into());
                }
            }
        }
        Ok(flood)
    }

    /// One batch, closed loop: returns its submission instant and how
    /// every job landed. Checksums and recycling happen in the sink, on
    /// the worker that finished the job.
    fn run_batch(&self) -> (Instant, Vec<Landed>) {
        let landed = Mutex::new(Vec::with_capacity(self.jobs.len()));
        let jobs = self.jobs.clone();
        let submitted = Instant::now();
        self.serve.run_batch(jobs, |job, done| {
            let latency = submitted.elapsed();
            let checksum = done.outputs.ok().map(|outputs| {
                let sum = sut::checksum(&self.mix.mix[job].program, &outputs, true);
                self.serve.recycle(outputs);
                sum
            });
            landed.lock().expect("sink poisoned").push(Landed {
                job,
                latency,
                checksum,
            });
        });
        (submitted, landed.into_inner().expect("sink poisoned"))
    }
}

impl Workload for Flood {
    fn tail_percentile(&self) -> f64 {
        0.99
    }

    fn tier_choices(&self) -> Vec<String> {
        self.serve.tier_choices()
    }

    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) {
        let before = self.serve.counters();
        whole_iterations(seconds, tally, tracer, |tally, tracer| {
            let (submitted, landed) = tracer.span(
                "serve.run_batch",
                Some(tally.iterations.len() as u64),
                || self.run_batch(),
            );
            for Landed {
                job,
                latency,
                checksum,
            } in landed
            {
                tally.attempted += 1;
                tracer.record(
                    "serve.job",
                    Kind::Job,
                    submitted,
                    submitted + latency,
                    Some(job as u64),
                );
                match checksum {
                    Some(sum) => {
                        tally.cells += self.mix.cells(job);
                        tally.mismatches += u64::from(sum != self.table[self.mix.kind_of[job]]);
                        // Small jobs only: the fairness number.
                        if self.mix.mix[job].small {
                            tally.latencies_ms.push(latency.as_secs_f64() * 1e3);
                        }
                    }
                    None => tally.failed += 1,
                }
            }
        });
        let after = self.serve.counters();
        self.steady = ServeCounters {
            compiles: after.compiles - before.compiles,
            pool_misses: after.pool_misses - before.pool_misses,
            mask_misses: after.mask_misses - before.mask_misses,
            tier_measurements: after.tier_measurements - before.tier_measurements,
            steals: after.steals - before.steals,
        };
    }

    fn verify(&mut self, tally: &mut Tally, _layers: &mut Layers) -> Result<(), String> {
        let oracle = self.mix.oracle_checksums(true)?;
        tally.mismatches += oracle
            .iter()
            .zip(&self.table)
            .filter(|(a, b)| a != b)
            .count() as u64;
        Ok(())
    }

    fn probe(&mut self, _tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
        layers.insert(
            "executor.compiles_steady".into(),
            self.steady.compiles as f64,
        );
        layers.insert(
            "serve.pool_misses_steady".into(),
            self.steady.pool_misses as f64,
        );
        layers.insert(
            "serve.mask_misses_steady".into(),
            self.steady.mask_misses as f64,
        );
        layers.insert(
            "serve.tier_measurements".into(),
            self.steady.tier_measurements as f64,
        );
        layers.insert("serve.steals".into(), self.steady.steals as f64);

        // Service time: one small job on an empty queue. The batch p50
        // minus this is queue wait.
        let small = (0..self.jobs.len())
            .find(|&ix| self.mix.mix[ix].small)
            .ok_or("the mix has no small job")?;
        let mut failed = false;
        let run_one_us = median_us(200, || {
            match self.serve.run_one(&self.jobs[small], None).outputs {
                Ok(outputs) => self.serve.recycle(outputs),
                Err(_) => failed = true,
            }
        });
        if failed {
            return Err("the service-time probe job failed".into());
        }
        layers.insert("serve.run_one_us".into(), run_one_us);

        // A compile-cache hit: fingerprint walk plus lookup.
        let executor = sut::Executor::new();
        let program = &self.mix.mix[small].program;
        executor.prepare(program)?;
        layers.insert(
            "executor.prepare_hit_us".into(),
            median_us(200, || executor.prepare(program).is_ok()),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_seed_holds_the_same_work_before_any_position() {
        for seed in [1, 2, 3] {
            let mix = PreparedMix::new(JOBS, LARGE_JOBS, seed).mix;
            assert_eq!(mix.len(), JOBS);
            assert_eq!(mix.iter().filter(|job| !job.small).count(), LARGE_JOBS);
            // The large job sits where `JobMixSpec` puts it: at the front.
            assert!(!mix[0].small);
            // Small jobs come in rounds of one per template.
            let small: Vec<usize> = mix.iter().filter(|j| j.small).map(|j| j.template).collect();
            let templates: BTreeSet<usize> = small.iter().copied().collect();
            for round in small.chunks(templates.len()) {
                let seen: BTreeSet<usize> = round.iter().copied().collect();
                assert_eq!(seen.len(), round.len(), "seed {seed}: {round:?}");
            }
        }
        let order = |seed| -> Vec<(usize, u64)> {
            let mix = PreparedMix::new(JOBS, LARGE_JOBS, seed).mix;
            mix.iter().map(|j| (j.template, j.input_seed)).collect()
        };
        assert_eq!(order(7), order(7));
        assert_ne!(order(7), order(8));
    }
}
