//! Execution tiers: the tier names and the ladder of one compiled program
//! ([`TierTrace`]).
//!
//! All tiers are bit-identical, so which one runs is purely a performance
//! decision, and it is made by one rule: a run asks for a ceiling —
//! [`Tier::Jit`] unless the caller pins [`Tier::Fused`] — and lands on the
//! highest rung at or below it that [`TierTrace`] allows for its program,
//! so a run's rung is a pure function of the two. No rung is timed against
//! another: the fused rung is the streaming design the paper maps every
//! stencil program onto, and takes every program; native is its compiled
//! form. Both [`ReferenceExecutor::execute`](crate::ReferenceExecutor::execute)
//! and the service layer run through the executor's one per-tier runner,
//! which reports the rung that ran (the service wraps it in its panic
//! boundary, gives it a cancellation probe it asks once per fused window,
//! and never waits for a native module).
//!
//! The FPGA path — the simulator's outputs and `Pipeline`'s validation,
//! through [`ReferenceExecutor::run_tiered`](crate::ReferenceExecutor::run_tiered)
//! — picks its ceiling by the ski-rental rule (Karlin, Manasse, Rudolph and
//! Sleator, "Competitive snoopy caching", Algorithmica 3, 1988): a program
//! runs at the fused ceiling until its fused runs on that path have cost
//! as much as one native build (`NATIVE_BUILD_COST`, 200 ms), then at the
//! JIT ceiling without waiting — fused until `cc`'s module lands, native
//! after.
//! That never spends more than twice what the better choice in hindsight
//! would have, and a program that runs once never starts `cc`.

use crate::fuse::FusePlan;
use crate::jit::JitUnit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;
use stencilflow_codegen::EmitError;
use stencilflow_expr::{DataType, VerifyError};
use stencilflow_jit::JitError;
use stencilflow_program::StencilProgram;

/// Execution tiers a run can be scheduled on (the interpreter exists for
/// reference/testing, not for routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Tier {
    /// The fused tier (pooled ring buffers, windowed time stepping).
    Fused,
    /// The Tier-4 native backend (fused schedule, `cc`-compiled sweeps).
    Jit,
}

impl Tier {
    /// Stable lowercase name (CLI / JSON rendering).
    pub fn as_str(self) -> &'static str {
        match self {
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

/// What one native build costs, as fused run time on the FPGA path: a
/// program's runs there take the JIT ceiling once its fused runs have spent
/// this much. Cold `cc` builds of the seven `sim-pipeline` units took
/// 144–470 ms, median 196 ms (2-vCPU Xeon host, `-O2`, one unit at a time).
pub(crate) const NATIVE_BUILD_COST: Duration = Duration::from_millis(200);

/// The ladder, floor first: a rung takes every run a rung above it takes.
static LADDER: [Tier; 2] = [Tier::Fused, Tier::Jit];

impl std::str::FromStr for Tier {
    type Err = ParseTierError;
    /// A tier name. `simd` — the materializing sweep's rung, which is
    /// gone — still names [`Tier::Fused`]: a shim for the frozen
    /// benchmark adapter, which pins every name it knows.
    fn from_str(s: &str) -> Result<Tier, ParseTierError> {
        if s == "simd" {
            return Ok(Tier::Fused);
        }
        LADDER
            .into_iter()
            .find(|tier| tier.as_str() == s)
            .ok_or_else(|| ParseTierError::Unknown(s.to_string()))
    }
}

/// Why a string names no tier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseTierError {
    /// Not `fused` or `jit`.
    Unknown(String),
}

impl std::fmt::Display for ParseTierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseTierError::Unknown(name) => {
                write!(f, "unknown tier `{name}` (expected `fused` or `jit`)")
            }
        }
    }
}

impl std::error::Error for ParseTierError {}

/// Why the JIT rung cannot take a run: one variant per reason the native
/// unit gives (the fused rung takes every program). Only live stages are
/// judged.
#[derive(Debug, Clone, PartialEq)]
pub enum Ineligible {
    /// A stencil has no typed kernel (its stage sweeps boxed `Value`s).
    Untyped { stencil: String },
    /// A stage's output type is not `f32`/`f64`.
    NonFloatOutput { stage: String, dtype: DataType },
    /// A stage's bytecode failed the verifier against its slot types.
    Unverified { stage: String, error: VerifyError },
    /// The C emitter refused a stage.
    Emission { stage: String, error: EmitError },
    /// The unit's module could not be built or loaded (seen by a run once
    /// the engine's compile thread gave up on it).
    Native(JitError),
}

impl std::fmt::Display for Ineligible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Ineligible::Untyped { stencil } => write!(f, "stencil `{stencil}` has no typed kernel"),
            Ineligible::NonFloatOutput { stage, dtype } => {
                write!(f, "stage `{stage}` output type {dtype} is not a float type")
            }
            Ineligible::Unverified { stage, error } => {
                write!(f, "stage `{stage}` failed bytecode verification: {error}")
            }
            Ineligible::Emission { stage, error } => write!(f, "stage `{stage}`: {error}"),
            Ineligible::Native(error) => write!(f, "the native module failed: {error}"),
        }
    }
}

/// The tier ladder of one compiled program: the program both rungs sweep,
/// the fused rung's plan, which takes every run, and the JIT rung's unit,
/// or why there is none. The unit is judged, and its C emitted, once, by
/// the first question only the JIT rung raises — a run asking for the
/// [`Tier::Jit`] ceiling, [`TierTrace::reason`], or the emitted source — so
/// a program that only ever runs fused never emits C. Every run — pinned or
/// not, sharded or served — lands on the rung its ceiling resolves to here,
/// and reports it.
pub struct TierTrace {
    /// The program, sharing the DAG and kernels of the one prepared.
    pub(crate) program: StencilProgram,
    pub(crate) fused: FusePlan,
    jit: OnceLock<Result<JitUnit, Ineligible>>,
    /// Nanoseconds the program's fused runs on the FPGA path have taken,
    /// up to the first that reached [`NATIVE_BUILD_COST`].
    fused_spent: AtomicU64,
}

impl std::fmt::Debug for TierTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TierTrace")
            .field("fused", &self.fused)
            .field("jit", &self.jit.get())
            .finish_non_exhaustive()
    }
}

impl TierTrace {
    pub(crate) fn new(program: StencilProgram, fused: FusePlan) -> Self {
        TierTrace {
            program,
            fused,
            jit: OnceLock::new(),
            fused_spent: AtomicU64::new(0),
        }
    }

    /// The ceiling of the program's next run on the FPGA path:
    /// [`Tier::Fused`] until its fused runs there ([`Self::charge_fused`])
    /// have cost one native build, [`Tier::Jit`] from then on.
    pub(crate) fn fpga_ceiling(&self) -> Tier {
        let build = NATIVE_BUILD_COST.as_nanos() as u64;
        if self.fused_spent.load(Ordering::Relaxed) >= build {
            Tier::Jit
        } else {
            Tier::Fused
        }
    }

    /// Charge a fused run of the FPGA path that took `spent`.
    pub(crate) fn charge_fused(&self, spent: Duration) {
        self.fused_spent
            .fetch_add(spent.as_nanos() as u64, Ordering::Relaxed);
    }

    /// The JIT rung's unit, or why the program cannot take the rung.
    pub(crate) fn jit(&self) -> Result<&JitUnit, &Ineligible> {
        let unit = self.jit.get_or_init(|| self.fused.jit_unit(&self.program));
        unit.as_ref()
    }

    /// Why the JIT rung — the only rung that can refuse — cannot take a
    /// run, or `None` when it can: a program fact, or a module whose build
    /// a run has seen fail. (Without a working compiler,
    /// [`crate::jit_available`], a JIT run also lands on the fused rung.)
    pub fn reason(&self) -> Option<&Ineligible> {
        match self.jit() {
            Ok(unit) => unit.failure(),
            Err(why) => Some(why),
        }
    }

    /// The rung a run asking for `tier` lands on: the JIT rung when asked
    /// for, if the program has a unit and the machine a working compiler
    /// (probed here, and only once the program is eligible), the fused rung
    /// otherwise. Whether the module is loaded is the runner's business
    /// ([`crate::jit::TierUp`]).
    pub(crate) fn rung(&self, tier: Tier) -> Tier {
        let native = tier == Tier::Jit && self.jit().is_ok() && crate::jit::jit_available().is_ok();
        if native {
            Tier::Jit
        } else {
            Tier::Fused
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip_and_unknown_names_are_typed_errors() {
        for tier in LADDER {
            assert_eq!(tier.as_str().parse::<Tier>(), Ok(tier));
        }
        let error = "gpu".parse::<Tier>().unwrap_err();
        assert_eq!(error, ParseTierError::Unknown("gpu".to_string()));
        assert_eq!(
            error.to_string(),
            "unknown tier `gpu` (expected `fused` or `jit`)"
        );
        // The retired rung's name is an alias of the fused one.
        assert_eq!("simd".parse::<Tier>(), Ok(Tier::Fused));
    }
}
