//! Tier-4 native execution glue: the process-wide JIT engine and the
//! per-program bridge from a compiled fuse plan to loaded stage functions.
//!
//! Ownership is split three ways:
//!
//! * `stencilflow-codegen` emits the C translation unit (from the typed,
//!   verified bytecode — see [`crate::fuse::FusePlan::jit_unit`], which
//!   judges the JIT rung and builds the [`JitUnit`] every program's
//!   [`crate::tier::TierTrace`] holds);
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
//! and reports it; a *failing* compile or load of an eligible program is
//! surfaced as an error (it indicates an emitter bug, and hiding it would
//! mask codegen regressions from CI).

use std::sync::{Arc, OnceLock};
use stencilflow_jit::{CacheStats, JitConfig, JitEngine, StageFn};
use stencilflow_program::{ProgramError, Result};

/// The emitted translation unit for one compiled program, plus the symbol
/// each fused stage exports. Built once per compiled program; compiling
/// and loading happen lazily on the first JIT run.
#[derive(Debug)]
pub(crate) struct JitUnit {
    /// The complete C source (one exported `sf_stage_{i}` per live stage,
    /// one sweep body per distinct stage).
    pub source: String,
    /// Symbol per fuse-plan stage index (`None` for dead stages).
    pub symbols: Vec<Option<String>>,
    /// Distinct sweep bodies in `source`.
    pub bodies: usize,
    /// The loaded stage functions, indexed like `symbols`; filled by the
    /// first successful [`stage_fns`], so a warm run never asks the engine.
    pub resolved: OnceLock<Vec<Option<StageFn>>>,
}

/// The process-wide engine, probed once: `Ok` holds the engine, `Err` the
/// human-readable reason native execution is unavailable on this machine
/// (typically: no system `cc`).
fn engine() -> &'static std::result::Result<Arc<JitEngine>, String> {
    static ENGINE: OnceLock<std::result::Result<Arc<JitEngine>, String>> = OnceLock::new();
    ENGINE.get_or_init(|| JitEngine::new(JitConfig::from_env()).map(Arc::new))
}

/// Whether native execution can run at all on this machine. `Ok` carries
/// the engine's salt — compiler identity, flags, and the `-march` they
/// resolve to on this host — which is also folded into the build
/// fingerprint that keys persisted tier decisions (another compiler or CPU
/// can rank the JIT tier differently). `Err` carries the probe failure
/// (the JIT tier falls back to the fused tier in that case, and
/// `verify.sh` refuses to skip it on CI).
pub fn jit_available() -> std::result::Result<&'static str, String> {
    engine().as_ref().map(|e| e.salt()).map_err(String::clone)
}

/// Cache counters of the process-wide engine (`None` before the first
/// probe attempt or when the engine failed to initialize).
pub fn jit_cache_stats() -> Option<CacheStats> {
    engine().as_ref().ok().map(|e| e.stats())
}

/// The loaded stage functions of program `program`'s unit, indexed by
/// fuse-plan stage (dead stages `None`). Only the JIT rung asks, so the
/// program is eligible and the engine probed: an `Err` is an emitted unit
/// that failed to compile, load, or resolve — an emitter bug to surface,
/// not to swallow.
pub(crate) fn stage_fns<'a>(program: &str, unit: &'a JitUnit) -> Result<&'a [Option<StageFn>]> {
    if let Some(fns) = unit.resolved.get() {
        return Ok(fns);
    }
    let load = || -> std::result::Result<Vec<Option<StageFn>>, String> {
        let engine = engine().as_ref().map_err(String::clone)?;
        let module = engine.load(program, &unit.source)?;
        let resolve = |symbol: &Option<String>| {
            symbol
                .as_ref()
                .map(|name| engine.stage_fn(&module, name))
                .transpose()
        };
        unit.symbols.iter().map(resolve).collect()
    };
    let fns = load().map_err(|message| ProgramError::Invalid {
        message: format!("native JIT failed for eligible program `{program}`: {message}"),
    })?;
    Ok(unit.resolved.get_or_init(|| fns))
}
