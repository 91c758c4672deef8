//! Execution-tier selection: the tier names, the ladder of one compiled
//! program ([`TierTrace`]), the pinned-or-measured policy, and the one
//! `TierRouter` that times tiers against each other.
//!
//! All tiers are bit-identical, so which one runs is purely a performance
//! decision; which rungs a run *can* take, [`TierTrace`] decides. Under
//! [`TierPolicy::Auto`] the first sight of a `(program fingerprint,
//! stepped?)` key decides the tier and caches it; repeat traffic pays one
//! lock and one map lookup. A program the JIT rung takes is decided by
//! rule, with nothing timed; any other runs every rung it reaches on the
//! job's real inputs — the measurement runs *are* the job — and the
//! fastest wins. Both
//! [`ReferenceExecutor::execute`](crate::ReferenceExecutor::execute) and
//! the service layer route through `TierRouter::route`, and both hand it
//! the executor's one per-tier runner, which reports the rung that ran
//! (the service wraps it in its panic boundary, gives the materializing
//! sweep a cancellation probe, and never waits for a native module).

use crate::executor::CompiledProgram;
use crate::fuse::FusePlan;
use crate::jit::JitUnit;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stencilflow_expr::{DataType, VerifyError};
use stencilflow_jit::JitError;
use stencilflow_json::Json;

/// Execution tiers a run can be scheduled on (the interpreter and the
/// plain bytecode tiers exist for reference/testing, not for routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The lane-batched compiled sweep (per-stencil materialization).
    Simd,
    /// The fused tier (pooled ring buffers, windowed time stepping).
    Fused,
    /// The Tier-4 native backend (fused schedule, `cc`-compiled sweeps).
    Jit,
}

impl Tier {
    /// Stable lowercase name (CLI / JSON rendering).
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Simd => "simd",
            Tier::Fused => "fused",
            Tier::Jit => "jit",
        }
    }
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The ladder, floor first: a rung takes every run a rung above it takes.
static LADDER: [Tier; 3] = [Tier::Simd, Tier::Fused, Tier::Jit];

impl std::str::FromStr for Tier {
    type Err = String;
    fn from_str(s: &str) -> std::result::Result<Tier, String> {
        LADDER
            .into_iter()
            .find(|tier| tier.as_str() == s)
            .ok_or_else(|| format!("unknown tier `{s}` (expected `simd`, `fused`, or `jit`)"))
    }
}

/// How the execution tier of a run is picked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierPolicy {
    /// Measure the eligible tiers on first sight of a program fingerprint
    /// and cache the winner (the default).
    Auto,
    /// Pin one tier (a run the tier cannot take lands on the highest rung
    /// below it that can — jit → fused → materializing — and reports it).
    Fixed(Tier),
}

/// Why a rung cannot take a run: one variant per reason the fuse plan
/// ([`Tier::Fused`], see `fuse.rs`) or the native unit ([`Tier::Jit`])
/// gives. Only live fields and stages are judged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Ineligible {
    /// An input indexes the iteration space out of order.
    InputOutOfOrder { input: String },
    /// A stencil has no type-specialized kernel.
    Untyped { stencil: String },
    /// The consumers of `field` disagree on its boundary constant.
    ConstantConflict { field: String },
    /// `stencil` reads `field` out of domain under a `Copy` boundary.
    CopyBoundary { stencil: String, field: String },
    /// More than one step, and the feedback pairing does not derive or its
    /// two sides disagree on a boundary constant.
    NoStepPlan,
    /// A stage's output type is not `f32`/`f64`.
    NonFloatOutput { stage: String, dtype: DataType },
    /// A stage's bytecode failed the verifier against its slot types.
    Unverified { stage: String, error: VerifyError },
    /// The C emitter refused the unit.
    Emission(String),
    /// The JIT rung runs the fused schedule, which cannot take the run.
    NeedsFused,
    /// The unit's module could not be built or loaded (seen by a run once
    /// the engine's compile thread gave up on it).
    Native(JitError),
}

impl std::fmt::Display for Ineligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ineligible::InputOutOfOrder { input } => {
                write!(
                    f,
                    "input `{input}` indexes the iteration space out of order"
                )
            }
            Ineligible::Untyped { stencil } => write!(f, "stencil `{stencil}` has no typed kernel"),
            Ineligible::ConstantConflict { field } => {
                write!(
                    f,
                    "consumers of `{field}` disagree on the boundary constant"
                )
            }
            Ineligible::CopyBoundary { stencil, field } => {
                write!(
                    f,
                    "stencil `{stencil}` reads `{field}` with a copy boundary"
                )
            }
            Ineligible::NoStepPlan => f.write_str("no fused step plan for the feedback pairing"),
            Ineligible::NonFloatOutput { stage, dtype } => {
                write!(f, "stage `{stage}` output type {dtype} is not a float type")
            }
            Ineligible::Unverified { stage, error } => {
                write!(f, "stage `{stage}` failed bytecode verification: {error}")
            }
            Ineligible::Emission(message) => f.write_str(message),
            Ineligible::NeedsFused => f.write_str("needs the fused rung"),
            Ineligible::Native(error) => write!(f, "the native module failed: {error}"),
        }
    }
}

/// The tier ladder of one compiled program, judged once by `prepare`: the
/// fused rung's plan and the JIT rung's unit, or why there is none (the
/// SIMD floor takes every run). Every run — pinned, measured, sharded or
/// served — lands on the rung its request resolves to here, and reports it.
#[derive(Debug)]
pub struct TierTrace {
    pub(crate) fused: Result<FusePlan, Ineligible>,
    pub(crate) jit: Result<JitUnit, Ineligible>,
}

impl TierTrace {
    /// Why `tier` cannot take a run of `steps`, or `None` when it can: a
    /// program fact, or — on the JIT rung — a module whose build a run has
    /// seen fail. (Without a working compiler, [`crate::jit_available`], a
    /// JIT run also lands on the fused rung.)
    pub fn reason(&self, tier: Tier, steps: Option<usize>) -> Option<&Ineligible> {
        let built = match (&self.jit, tier) {
            (Ok(unit), Tier::Jit) => unit.failure(),
            _ => None,
        };
        self.fact(tier, steps).or(built)
    }

    /// [`TierTrace::reason`] without the build: what the program allows.
    fn fact(&self, tier: Tier, steps: Option<usize>) -> Option<&Ineligible> {
        let fused = match &self.fused {
            // One step never reads a ring another step wrote.
            Ok(plan) if steps.unwrap_or(1) > 1 && !plan.supports_steps() => {
                Some(&Ineligible::NoStepPlan)
            }
            fused => fused.as_ref().err(),
        };
        match tier {
            Tier::Simd => None,
            Tier::Fused => fused,
            Tier::Jit if fused.is_some() => Some(&Ineligible::NeedsFused),
            Tier::Jit => self.jit.as_ref().err(),
        }
    }

    /// The rung a run of `steps` asking for `tier` lands on: the highest
    /// at or below `tier` the program allows. The JIT rung also needs a
    /// working compiler, probed here, and only once the program is
    /// eligible; whether its module is loaded is the runner's business
    /// ([`crate::jit::TierUp`]).
    pub(crate) fn rung(&self, tier: Tier, steps: Option<usize>) -> Tier {
        let takes = |rung: &Tier| {
            *rung <= tier
                && self.fact(*rung, steps).is_none()
                && (*rung != Tier::Jit || crate::jit::jit_available().is_ok())
        };
        LADDER.into_iter().rev().find(takes).unwrap_or(Tier::Simd)
    }
}

/// A run's result and the rung it ran on; a failed run reports `asked`.
fn ran<R, E>(run: Result<(R, Tier), E>, asked: Tier) -> (Result<R, E>, Tier) {
    match run {
        Ok((result, tier)) => (Ok(result), tier),
        Err(err) => (Err(err), asked),
    }
}

/// One cached tier decision (reporting snapshot).
#[derive(Debug, Clone)]
pub struct TierChoice {
    /// Hex program fingerprint (the cache identity).
    pub fingerprint: String,
    /// Program name recorded at decision time.
    pub program: String,
    /// Whether the decision covers stepped jobs.
    pub stepped: bool,
    /// The winning tier.
    pub tier: Tier,
}

/// What importing a persisted tier-decision cache did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierCacheLoad {
    /// Decisions loaded into the live cache.
    pub loaded: usize,
    /// True when the persisted salt did not match this build (crate
    /// version, lane widths, debug vs release, native compiler) and every
    /// decision was discarded as stale.
    pub stale: bool,
}

/// Tier decisions kept before the cache is reset (safety valve, mirroring
/// the compiled-program cache policy).
const TIER_CACHE_CAPACITY: usize = 1024;

/// Format tag of the persisted tier-decision cache.
const TIER_CACHE_FORMAT: &str = "stencilflow-tier-cache-v1";

/// Runs at or below this many cell·steps get a warmup run before each
/// timed tier measurement (first-touch pool misses would otherwise bias
/// the pick); larger runs are measured in one shot.
const MEASURE_WARMUP_MAX_CELLS: usize = 1 << 20;

/// The bench-relevant build fingerprint that salts persisted tier
/// decisions: anything that can shift the measured tier ranking — crate
/// version, kernel lane widths, debug vs release codegen, and the native
/// compiler and target behind the JIT tier — invalidates the cache.
fn build_fingerprint() -> String {
    let jit = crate::jit::jit_available().unwrap_or("jit-unavailable");
    format!(
        "v{} lanes{}/{} {} [{jit}]",
        env!("CARGO_PKG_VERSION"),
        stencilflow_expr::KERNEL_LANES,
        stencilflow_expr::KERNEL_LANES_WIDE,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

/// Identity of one routing decision: the `(fingerprint, stepped)` cache
/// key plus the program name recorded next to the winner for reporting.
#[derive(Debug, Clone, Copy)]
struct RouteKey<'a> {
    fingerprint: u64,
    stepped: bool,
    program: &'a str,
}

/// The measured tier decisions of one executor.
#[derive(Debug, Default)]
pub(crate) struct TierRouter {
    /// Winning tier per `(fingerprint, stepped?)`, with the program name
    /// for reporting.
    decisions: Mutex<BTreeMap<(u64, bool), (Tier, String)>>,
    /// First-sight measurements performed.
    measurements: AtomicUsize,
}

impl TierRouter {
    /// First-sight measurements performed (each covers one
    /// `(fingerprint, stepped?)` key; repeat traffic hits the cache).
    pub(crate) fn measure_count(&self) -> usize {
        self.measurements.load(Ordering::Relaxed)
    }

    /// [`TierRouter::route`] for one job of `compiled` (`steps: None` is a
    /// single application) under `policy`; returns the rung that ran, as
    /// `run` reports it (a run asking for the JIT rung runs fused until its
    /// module is loaded, if it does not wait for it). A pinned tier is a
    /// ceiling. On a first sight, a program the JIT rung takes is decided
    /// by rule — native is the fused plan, schedule and bits with compiled
    /// sweeps, faster on every measured row — and nothing is timed; the
    /// rest measure the rungs they reach.
    pub(crate) fn dispatch<R, E>(
        &self,
        compiled: &CompiledProgram,
        steps: Option<usize>,
        policy: TierPolicy,
        mut run: impl FnMut(Tier) -> Result<(R, Tier), E>,
        discard: impl FnMut(R),
    ) -> (Result<R, E>, Tier) {
        let trace = compiled.tier_trace();
        if let TierPolicy::Fixed(tier) = policy {
            return ran(run(tier), trace.rung(tier, steps));
        }
        let key = RouteKey {
            fingerprint: compiled.fingerprint(),
            stepped: steps.unwrap_or(1) > 1,
            program: compiled.name(),
        };
        let first_sight = || {
            let top = trace.rung(Tier::Jit, steps);
            if top == Tier::Jit {
                return (&LADDER[Tier::Jit as usize..], false);
            }
            let work = compiled.cell_count().saturating_mul(steps.unwrap_or(1));
            (&LADDER[..=top as usize], work <= MEASURE_WARMUP_MAX_CELLS)
        };
        self.route(key, first_sight, run, discard)
    }

    /// Run one job on its cached tier, deciding the tier first if `key`
    /// has never been seen — the hit path is one lock and one map lookup.
    ///
    /// Only a miss asks `first_sight` for the candidate tiers (floor first,
    /// never empty) and whether to warm up. A single candidate is recorded
    /// and run, and is not counted as a measurement. Otherwise every
    /// candidate is warmed up once if asked and `run` once under the clock;
    /// the fastest wins, is cached, and its result is the job's result —
    /// all tiers are bit-identical, so no work is wasted. Losing results go
    /// to `discard`. The floor's failure is the call's failure; any other
    /// candidate that fails is merely excluded from this decision.
    fn route<R, E>(
        &self,
        key: RouteKey<'_>,
        first_sight: impl FnOnce() -> (&'static [Tier], bool),
        mut run: impl FnMut(Tier) -> Result<(R, Tier), E>,
        mut discard: impl FnMut(R),
    ) -> (Result<R, E>, Tier) {
        let cached = self
            .decisions
            .lock()
            .expect("tier cache poisoned")
            .get(&(key.fingerprint, key.stepped))
            .map(|&(tier, _)| tier);
        if let Some(tier) = cached {
            return ran(run(tier), tier);
        }
        let (candidates, warm) = first_sight();
        let floor = candidates[0];
        if candidates.len() == 1 {
            self.record(key, floor);
            return ran(run(floor), floor);
        }
        let mut best: Option<(Duration, Tier, R)> = None;
        for &tier in candidates {
            if warm {
                // Warmup errors surface in the timed run below.
                if let Ok((result, _)) = run(tier) {
                    discard(result);
                }
            }
            let t0 = Instant::now();
            match run(tier) {
                Ok((result, _)) => {
                    let elapsed = t0.elapsed();
                    if best.as_ref().is_some_and(|(b, _, _)| elapsed >= *b) {
                        discard(result);
                    } else if let Some((_, _, previous)) = best.replace((elapsed, tier, result)) {
                        discard(previous);
                    }
                }
                Err(err) if tier == floor => return (Err(err), floor),
                Err(_) => {}
            }
        }
        let (_, tier, result) = best.expect("the floor tier either measured or returned above");
        self.record(key, tier);
        self.measurements.fetch_add(1, Ordering::Relaxed);
        (Ok(result), tier)
    }

    fn record(&self, key: RouteKey<'_>, tier: Tier) {
        let mut decisions = self.decisions.lock().expect("tier cache poisoned");
        if decisions.len() >= TIER_CACHE_CAPACITY {
            decisions.clear();
        }
        decisions.insert(
            (key.fingerprint, key.stepped),
            (tier, key.program.to_string()),
        );
    }

    /// Snapshot of the cached decisions.
    pub(crate) fn choices(&self) -> Vec<TierChoice> {
        self.decisions
            .lock()
            .expect("tier cache poisoned")
            .iter()
            .map(|(&(fp, stepped), &(tier, ref program))| TierChoice {
                fingerprint: format!("{fp:016x}"),
                program: program.clone(),
                stepped,
                tier,
            })
            .collect()
    }

    /// Serialize the decisions (plus the build salt) as a text-JSON
    /// document suitable for a cache file.
    pub(crate) fn export(&self) -> String {
        let text = |s: &str| Json::String(s.to_string());
        let object = |members: Vec<(&str, Json)>| {
            Json::Object(
                members
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let decisions = self.choices().into_iter().map(|choice| {
            object(vec![
                ("fingerprint", text(&choice.fingerprint)),
                ("program", text(&choice.program)),
                ("stepped", Json::Bool(choice.stepped)),
                ("tier", text(choice.tier.as_str())),
            ])
        });
        object(vec![
            ("format", text(TIER_CACHE_FORMAT)),
            ("salt", text(&build_fingerprint())),
            ("decisions", Json::Array(decisions.collect())),
        ])
        .to_string_pretty()
    }

    /// Load previously exported decisions. A salt that does not match
    /// this build discards every decision (`stale: true`); malformed
    /// documents are errors; a decision already measured live is never
    /// overridden.
    pub(crate) fn import(&self, text: &str) -> Result<TierCacheLoad, String> {
        fn member<'j, T>(
            object: &'j Json,
            key: &str,
            read: impl FnOnce(&'j Json) -> Option<T>,
        ) -> Result<T, String> {
            let missing = || format!("missing `{key}`");
            object.get(key).and_then(read).ok_or_else(missing)
        }
        let top = |e: String| format!("tier cache: {e}");
        let doc = stencilflow_json::parse(text).map_err(|e| top(e.to_string()))?;
        let format = member(&doc, "format", Json::as_str).map_err(top)?;
        if format != TIER_CACHE_FORMAT {
            return Err(top(format!("unknown format `{format}`")));
        }
        let salt = member(&doc, "salt", Json::as_str).map_err(top)?;
        let decisions = member(&doc, "decisions", Json::as_array).map_err(top)?;
        let stale = salt != build_fingerprint();
        let decisions = if stale { &[] } else { decisions };
        let mut loaded = 0usize;
        let mut live = self.decisions.lock().expect("tier cache poisoned");
        for (ix, entry) in decisions.iter().enumerate() {
            let fail = |e: String| format!("tier cache decision {ix}: {e}");
            let fingerprint = member(entry, "fingerprint", Json::as_str).map_err(fail)?;
            let fingerprint = u64::from_str_radix(fingerprint, 16)
                .map_err(|_| fail("`fingerprint` is not a hex u64".to_string()))?;
            let program = member(entry, "program", Json::as_str).map_err(fail)?;
            let stepped = member(entry, "stepped", Json::as_bool).map_err(fail)?;
            let tier = member(entry, "tier", Json::as_str).map_err(fail)?;
            let tier: Tier = tier.parse().map_err(fail)?;
            if live.len() >= TIER_CACHE_CAPACITY {
                break;
            }
            live.entry((fingerprint, stepped))
                .or_insert_with(|| (tier, program.to_string()));
            loaded += 1;
        }
        Ok(TierCacheLoad { loaded, stale })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::{Cell, RefCell};

    /// Closure fakes for one `route` call: per-tier run times in
    /// milliseconds (indexed by `Tier as usize`) and the tier whose run
    /// fails. Counts runs and discards.
    #[derive(Default)]
    struct Fake {
        run_ms: [u64; 3],
        run_fails: Option<Tier>,
        runs: Cell<usize>,
        discards: Cell<usize>,
    }

    impl Fake {
        fn route(&self, router: &TierRouter, fingerprint: u64, stepped: bool, warm: bool) -> Tier {
            let key = RouteKey {
                fingerprint,
                stepped,
                program: "fake",
            };
            let (result, tier) = router.route(
                key,
                || (&LADDER, warm),
                |tier| {
                    self.runs.set(self.runs.get() + 1);
                    std::thread::sleep(Duration::from_millis(self.run_ms[tier as usize]));
                    if self.run_fails == Some(tier) {
                        Err(format!("{tier} exploded"))
                    } else {
                        Ok((tier, tier))
                    }
                },
                |_| self.discards.set(self.discards.get() + 1),
            );
            match result {
                Ok(won) => assert_eq!(won, tier, "the winner's own result is returned"),
                Err(_) => assert_eq!(self.run_fails, Some(tier)),
            }
            tier
        }
    }

    #[test]
    fn a_jit_eligible_program_is_decided_with_zero_measurements() {
        // First sight of a program the JIT rung takes: the one run asks for
        // the JIT rung, nothing is timed, and the rung reported is the one
        // the runner says it ran (here: fused, as while `cc` is busy).
        let program = stencilflow_program::StencilProgramBuilder::new("rule", &[8, 8])
            .input("u", DataType::Float32, &["i", "j"])
            .stencil("v", "u[i-1,j] + u[i,j+1]")
            .output("v")
            .build()
            .unwrap();
        let compiled = crate::ReferenceExecutor::new().prepare(&program).unwrap();
        let top = compiled.tier_trace().rung(Tier::Jit, None);
        let router = TierRouter::default();
        let asked = RefCell::new(Vec::new());
        let run = |tier: Tier| {
            asked.borrow_mut().push(tier);
            Ok::<_, String>(((), tier.min(Tier::Fused)))
        };
        let (result, ran) = router.dispatch(&compiled, None, TierPolicy::Auto, run, drop);
        assert!(result.is_ok());
        if top == Tier::Jit {
            assert_eq!(*asked.borrow(), [Tier::Jit]);
            assert_eq!(ran, Tier::Fused);
            assert_eq!(router.measure_count(), 0);
            assert_eq!(router.choices()[0].tier, Tier::Jit);
        } else {
            // No compiler on this machine: simd and fused are measured.
            assert_eq!(router.measure_count(), 1);
        }
    }

    #[test]
    fn a_failing_non_floor_candidate_is_excluded() {
        // Fused fails to run: SIMD is all that is left once JIT is slower.
        let router = TierRouter::default();
        let fake = Fake {
            run_ms: [20, 0, 40],
            run_fails: Some(Tier::Fused),
            ..Fake::default()
        };
        assert_eq!(fake.route(&router, 2, false, true), Tier::Simd);
        assert_eq!(fake.discards.get(), 3, "two warm-ups and JIT's result");
        assert_eq!(router.choices()[0].tier, Tier::Simd);
    }

    #[test]
    fn a_failing_floor_candidate_fails_the_call() {
        let router = TierRouter::default();
        let fake = Fake {
            run_fails: Some(Tier::Simd),
            ..Fake::default()
        };
        assert_eq!(fake.route(&router, 3, false, false), Tier::Simd);
        assert_eq!(fake.runs.get(), 1, "nothing is tried after the floor fails");
        assert_eq!(router.measure_count(), 0);
        assert!(router.choices().is_empty(), "a failed call decides nothing");
    }

    #[test]
    fn a_second_route_on_the_same_key_measures_nothing() {
        let router = TierRouter::default();
        let fake = Fake {
            run_ms: [1, 15, 15],
            ..Fake::default()
        };
        assert_eq!(fake.route(&router, 4, false, false), Tier::Simd);
        assert_eq!(fake.runs.get(), 3);
        // The hit path runs the cached tier once: no warm-up, no discard.
        let hit = Fake::default();
        assert_eq!(hit.route(&router, 4, false, true), Tier::Simd);
        assert_eq!((hit.runs.get(), hit.discards.get()), (1, 0));
        assert_eq!(router.measure_count(), 1);
        // Stepped traffic on the same fingerprint is a distinct key.
        fake.route(&router, 4, true, false);
        assert_eq!(router.measure_count(), 2);
    }
}
