//! Seeded multi-tenant job mixes for the service layer.
//!
//! `bench_serve` and the service tests need a reproducible stream of
//! "thousands of small jobs plus a few large ones" — the traffic shape
//! the scheduler's fairness guarantee is about. This module generates
//! that stream deterministically from a seed, as plain descriptors
//! (program + input seed + steps) so it depends on nothing but the
//! program layer; callers materialize grids with their own generator.

use std::sync::Arc;
use stencilflow_program::StencilProgram;

/// Size class of one job in a mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobClass {
    /// The common case: a small grid, microsecond-scale work.
    Small,
    /// The rare case: a grid hundreds of times larger, which must not
    /// starve the small jobs behind it.
    Large,
}

/// One generated job: a shared program, the seed for its input grids, and
/// its step count. Programs are `Arc`-shared across the mix so a thousand
/// jobs over the same template stay one compilation and one allocation.
#[derive(Debug, Clone)]
pub struct JobTemplate {
    /// The program to run.
    pub program: Arc<StencilProgram>,
    /// Seed for deterministic input-grid generation.
    pub input_seed: u64,
    /// Time steps (1 = single application).
    pub steps: usize,
    /// Size class this job was drawn from.
    pub class: JobClass,
}

/// Shape of a generated mix.
#[derive(Debug, Clone)]
pub struct JobMixSpec {
    /// Total jobs in the mix.
    pub jobs: usize,
    /// How many of them are large (clamped to `jobs`).
    pub large_jobs: usize,
    /// Distinct input seeds per template: small enough that traffic
    /// revisits working sets (the steady-state pool case), large enough
    /// to exercise more than one tenant.
    pub tenants: u64,
    /// Seed for the mix itself (job order, seeds, template choice).
    pub seed: u64,
}

impl Default for JobMixSpec {
    fn default() -> Self {
        JobMixSpec {
            jobs: 2000,
            large_jobs: 4,
            tenants: 16,
            seed: 0x5f3c_9d2b,
        }
    }
}

impl JobMixSpec {
    /// The default mixed-traffic shape: 2000 small jobs, 4 large ones.
    pub fn new() -> Self {
        Self::default()
    }

    /// A reduced mix for quick CI runs.
    pub fn quick() -> Self {
        JobMixSpec {
            jobs: 300,
            large_jobs: 2,
            ..Self::default()
        }
    }

    /// Generate the mix. Deterministic in the spec: same spec, same
    /// stream. Large jobs are placed early in the stream so small jobs
    /// queued behind them make the fairness property observable (their
    /// p99 latency collapses if the scheduler lets a large job hog the
    /// pool).
    pub fn generate(&self) -> Vec<JobTemplate> {
        let mut rng = SplitMix64::new(self.seed);
        // Small templates cover the tier spread: a fused/JIT-friendly
        // Jacobi, a multi-stencil diffusion, the paper's listing, and a
        // stepped Jacobi (the stepped tier-cache key).
        let small: Vec<(Arc<StencilProgram>, usize)> = vec![
            (Arc::new(crate::jacobi2d(1, &[24, 24], 1)), 1),
            (Arc::new(crate::diffusion2d(1, &[32, 32], 1)), 1),
            (Arc::new(crate::listing1()), 1),
            (Arc::new(crate::jacobi2d(1, &[16, 16], 1)), 4),
        ];
        // One large template: ~65k cells per stencil, two orders of
        // magnitude over the small ones.
        let large = Arc::new(crate::jacobi2d(1, &[512, 128], 1));

        let large_jobs = self.large_jobs.min(self.jobs);
        let small_jobs = self.jobs - large_jobs;
        let mut mix = Vec::with_capacity(self.jobs);
        for _ in 0..small_jobs {
            let (program, steps) = &small[(rng.next() % small.len() as u64) as usize];
            mix.push(JobTemplate {
                program: Arc::clone(program),
                input_seed: rng.next() % self.tenants.max(1),
                steps: *steps,
                class: JobClass::Small,
            });
        }
        // Front-load the large jobs across the first quarter of the
        // stream (deterministic slots, not appended at the end where
        // nothing would ever queue behind them).
        for ix in 0..large_jobs {
            let slot = if mix.is_empty() {
                0
            } else {
                (ix * mix.len() / (4 * large_jobs.max(1))).min(mix.len())
            };
            mix.insert(
                slot,
                JobTemplate {
                    program: Arc::clone(&large),
                    input_seed: rng.next() % self.tenants.max(1),
                    steps: 1,
                    class: JobClass::Large,
                },
            );
        }
        mix
    }
}

/// SplitMix64: the same tiny deterministic generator the input-data and
/// proptest stand-ins use, inlined to keep this crate's dependencies flat.
pub(crate) struct SplitMix64(u64);

impl SplitMix64 {
    pub(crate) fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub(crate) fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_shaped() {
        let spec = JobMixSpec {
            jobs: 100,
            large_jobs: 3,
            ..JobMixSpec::new()
        };
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a.len(), 100);
        let larges: Vec<usize> = a
            .iter()
            .enumerate()
            .filter(|(_, j)| j.class == JobClass::Large)
            .map(|(ix, _)| ix)
            .collect();
        assert_eq!(larges.len(), 3);
        // Large jobs sit early in the stream so small jobs queue behind.
        assert!(*larges.last().unwrap() < 50, "{larges:?}");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.program.name(), y.program.name());
            assert_eq!(x.input_seed, y.input_seed);
            assert_eq!(x.steps, y.steps);
        }
        // Shared templates: far fewer distinct programs than jobs.
        let mut names: Vec<&str> = a.iter().map(|j| j.program.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert!(names.len() <= 5);
    }

    #[test]
    fn large_count_is_clamped() {
        let spec = JobMixSpec {
            jobs: 2,
            large_jobs: 10,
            ..JobMixSpec::new()
        };
        let mix = spec.generate();
        assert_eq!(mix.len(), 2);
    }
}
