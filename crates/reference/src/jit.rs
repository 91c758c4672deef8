//! Tier-4 native execution glue: the process-wide JIT engine and the
//! per-program bridge from a compiled fuse plan to loaded stage functions.
//!
//! Ownership is split three ways:
//!
//! * `stencilflow-codegen` emits the C translation unit (from the typed,
//!   verified bytecode — see [`crate::fuse::FusePlan::jit_unit`], which
//!   judges the JIT rung and builds the [`JitUnit`] a program's
//!   [`crate::tier::TierTrace`] holds once the rung is first asked about);
//! * `stencilflow-jit` compiles and caches it (system `cc`, disk-backed
//!   code cache keyed by the emitted text plus a compiler salt — the unit
//!   names no program, field or extent, so programs that differ only in
//!   those share one module) and quarantines the `dlopen` boundary;
//! * this module holds the lazily probed process-wide engine and resolves,
//!   once per compiled program, the per-stage sweep symbols it runs on.
//!
//! The ladder is decided in one place, the program's
//! [`crate::tier::TierTrace`]: a JIT request on an ineligible program, or
//! on a machine without a working `cc`, lands on the fused rung (or below)
//! and reports it. Every module is built on the engine's one compile
//! thread, with two waiting policies ([`TierUp`]): the service and the
//! FPGA path ([`crate::ReferenceExecutor::run_tiered`]) never wait — their
//! runs take the fused rung until the module is loaded, and a unit whose
//! build failed stays there, the typed failure kept on its trace — while
//! [`crate::ReferenceExecutor::execute`] waits, and surfaces a
//! *failing* compile or load of an eligible program as an error (it
//! indicates an emitter bug, and hiding it would mask codegen regressions
//! from CI).

use crate::tier::Ineligible;
use std::sync::{Arc, OnceLock};
use stencilflow_jit::{
    CacheStats, JitConfig, JitEngine, JitError, ModuleHandle, ModuleStatus, StageFn, Width,
};
use stencilflow_program::{ProgramError, Result};

/// The emitted translation unit for one compiled program, plus the symbols
/// each fused stage exports. Built once per compiled program; compiling
/// and loading happen on the engine's compile thread.
#[derive(Debug)]
pub(crate) struct JitUnit {
    /// The complete C source (one or two exported symbols per live stage,
    /// one sweep body per distinct stage).
    pub source: String,
    /// Symbols per fuse-plan stage index (`None` for dead stages).
    pub symbols: Vec<Option<StageSymbols>>,
    /// Distinct sweep bodies in `source`.
    pub bodies: usize,
    /// The loaded stage functions, indexed like `symbols`, or why the
    /// module could not be built ([`Ineligible::Native`]); settled by the
    /// first run that finds the build finished, so later runs never ask
    /// the engine.
    pub resolved: OnceLock<std::result::Result<Vec<Option<NativeStage>>, Ineligible>>,
}

/// What one live stage exports, and the widths its bodies were emitted
/// for. A stage stores either into its ring, at its field's width, or —
/// an output no stage of its step reads, in the last step of a window —
/// straight to an `f64` output slab; of a field held in `f64` one symbol
/// does both.
#[derive(Debug)]
pub(crate) struct StageSymbols {
    /// Per kernel slot: the width of the tap it reads, `None` for a scalar.
    pub slots: Vec<Option<Width>>,
    /// The symbol storing into the ring, and the ring's width, when some
    /// run stores there.
    pub ring: Option<(String, Width)>,
    /// The symbol storing to an `f64` slab, when some run stores there.
    pub direct: Option<String>,
}

/// The loaded functions of one live stage (see [`StageSymbols`]).
#[derive(Debug)]
pub(crate) struct NativeStage {
    pub ring: Option<StageFn>,
    pub direct: Option<StageFn>,
}

impl JitUnit {
    /// Why the unit's module failed to build, once a run has seen it fail.
    pub(crate) fn failure(&self) -> Option<&Ineligible> {
        self.resolved.get()?.as_ref().err()
    }
}

/// How a run that lands on the JIT rung gets its module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TierUp {
    /// Wait for the compile thread: the run is native, or fails with the
    /// build's error ([`crate::ReferenceExecutor::execute`]).
    Wait,
    /// Never wait: until the module is loaded the run takes the fused rung
    /// (the service, and the FPGA path once a program is hot).
    Background,
}

/// The process-wide engine, probed once: `Ok` holds the engine, `Err` why
/// native execution is unavailable on this machine (typically: no system
/// `cc`).
fn engine() -> &'static std::result::Result<Arc<JitEngine>, JitError> {
    static ENGINE: OnceLock<std::result::Result<Arc<JitEngine>, JitError>> = OnceLock::new();
    ENGINE.get_or_init(|| JitEngine::try_from(JitConfig::from_env()).map(Arc::new))
}

/// Whether native execution can run at all on this machine. `Ok` carries
/// the engine's salt — compiler identity, flags, and the `-march` they
/// resolve to on this host. `Err` carries the probe failure (the JIT tier
/// falls back to the fused tier in that case, and `verify.sh` refuses to
/// skip it on CI).
pub fn jit_available() -> std::result::Result<&'static str, &'static JitError> {
    engine().as_ref().map(|e| e.salt())
}

/// Cache counters of the process-wide engine, which the first call probes
/// (`None` when the engine failed to initialize).
pub fn jit_cache_stats() -> Option<CacheStats> {
    engine().as_ref().ok().map(|e| e.stats())
}

/// The loaded stage functions of program `program`'s unit, indexed by
/// fuse-plan stage (dead stages `None`), as `tier_up` gets them: `None`
/// while a [`TierUp::Background`] run finds the module still queued, or
/// its build failed (kept as the unit's [`JitUnit::failure`]). Only the
/// JIT rung asks, so the program is eligible and the engine probed: an
/// `Err` is a [`TierUp::Wait`] run whose unit failed to compile, load, or
/// resolve — an emitter bug to surface, not to swallow.
pub(crate) fn stage_fns<'a>(
    program: &str,
    unit: &'a JitUnit,
    tier_up: TierUp,
) -> Result<Option<&'a [Option<NativeStage>]>> {
    let resolved = match (unit.resolved.get(), engine()) {
        (Some(resolved), _) => resolved,
        (None, Ok(engine)) => {
            let built = match tier_up {
                TierUp::Wait => engine.wait(program, &unit.source),
                TierUp::Background => match engine.request(program, &unit.source) {
                    ModuleStatus::Queued => return Ok(None),
                    ModuleStatus::Ready(module) => Ok(module),
                    ModuleStatus::Failed(error) => Err(error),
                },
            };
            unit.resolved.get_or_init(|| resolve(engine, unit, built))
        }
        (None, Err(probe)) => {
            return Err(ProgramError::Invalid {
                message: format!("native JIT unavailable for `{program}`: {probe}"),
            })
        }
    };
    match (resolved, tier_up) {
        (Ok(fns), _) => Ok(Some(fns)),
        (Err(_), TierUp::Background) => Ok(None),
        (Err(why), TierUp::Wait) => Err(ProgramError::Invalid {
            message: format!("native JIT failed for eligible program `{program}`: {why}"),
        }),
    }
}

/// The stage functions of `unit` in its built module.
fn resolve(
    engine: &JitEngine,
    unit: &JitUnit,
    built: std::result::Result<Arc<ModuleHandle>, JitError>,
) -> std::result::Result<Vec<Option<NativeStage>>, Ineligible> {
    let module = built.map_err(Ineligible::Native)?;
    let stage = |symbols: &StageSymbols| {
        let symbol = |name: &str, out| {
            let fail = |e: stencilflow_jit::FfiError| {
                let message = e.to_string();
                Ineligible::Native(JitError::Load { message })
            };
            engine
                .stage_fn(&module, name, &symbols.slots, out)
                .map_err(fail)
        };
        let ring = symbols.ring.as_ref();
        Ok(NativeStage {
            ring: ring.map(|(name, out)| symbol(name, *out)).transpose()?,
            direct: (symbols.direct.as_ref())
                .map(|name| symbol(name, Width::F64))
                .transpose()?,
        })
    };
    unit.symbols
        .iter()
        .map(|symbols| symbols.as_ref().map(stage).transpose())
        .collect()
}
