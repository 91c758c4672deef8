//! Tier-4 native execution glue: the process-wide JIT engine and the
//! per-program bridge from a compiled fuse plan to loaded stage functions.
//!
//! Ownership is split three ways:
//!
//! * `stencilflow-codegen` emits the C translation unit (from the typed,
//!   verified bytecode — see [`crate::fuse::FusePlan::jit_unit`], which
//!   runs the eligibility judgment and builds the [`JitUnit`] stored on
//!   every [`crate::CompiledProgram`]);
//! * `stencilflow-jit` compiles and caches it (system `cc`, disk-backed
//!   code cache keyed by the emitted text plus a compiler salt — the unit
//!   names no program, field or extent, so programs that differ only in
//!   those share one module) and quarantines the `dlopen` boundary;
//! * this module holds the lazily probed process-wide engine and resolves,
//!   once per compiled program, the per-stage sweep symbols it runs on.
//!
//! The fallback ladder lives in
//! [`crate::ReferenceExecutor::execute`]: statically ineligible programs
//! and machines without a working `cc` fall back to the fused tier
//! transparently; a *failing* compile or load of an eligible program is
//! surfaced as an error (it indicates an emitter bug, and hiding it would
//! mask codegen regressions from CI).

use crate::executor::CompiledProgram;
use std::sync::{Arc, OnceLock};
use stencilflow_jit::{CacheStats, JitConfig, JitEngine, StageFn};
use stencilflow_program::{ProgramError, Result};

/// The emitted translation unit for one compiled program, plus the symbol
/// each fused stage exports. Built once per [`CompiledProgram`]; compiling
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

/// Whether native execution can run at all on this machine; `Err` carries
/// the probe failure (the JIT tier falls back to the fused tier in that
/// case, and `verify.sh` refuses to skip it on CI).
pub fn jit_available() -> std::result::Result<(), String> {
    engine().as_ref().map(|_| ()).map_err(String::clone)
}

/// Cache counters of the process-wide engine (`None` before the first
/// probe attempt or when the engine failed to initialize).
pub fn jit_cache_stats() -> Option<CacheStats> {
    engine().as_ref().ok().map(|e| e.stats())
}

/// The engine's compiler salt (compiler identity + flags), or `None` when
/// native execution is unavailable. Folded into the build fingerprint
/// that keys persisted tier decisions: a different compiler can rank the
/// JIT tier differently, so its decisions must not survive the swap.
pub(crate) fn jit_salt() -> Option<String> {
    engine().as_ref().ok().map(|e| e.salt().to_string())
}

/// Resolve the loaded stage functions for a compiled program.
///
/// * `Ok(Some(fns))` — the program is statically eligible and the module
///   is loaded; `fns` is indexed by fuse-plan stage (dead stages `None`).
/// * `Ok(None)` — ineligible, or no working compiler: fall back to the
///   bytecode sweeps of the fused tier.
/// * `Err` — eligible but the emitted unit failed to compile, load, or
///   resolve: an emitter bug to surface, not to swallow.
pub(crate) fn stage_fns(compiled: &CompiledProgram) -> Result<Option<&[Option<StageFn>]>> {
    let (Ok(unit), Ok(engine)) = (compiled.jit_unit(), engine()) else {
        return Ok(None);
    };
    if let Some(fns) = unit.resolved.get() {
        return Ok(Some(fns));
    }
    let load = || -> std::result::Result<Vec<Option<StageFn>>, String> {
        let module = engine.load(compiled.name(), &unit.source)?;
        let resolve = |symbol: &Option<String>| {
            symbol
                .as_ref()
                .map(|name| engine.stage_fn(&module, name))
                .transpose()
        };
        unit.symbols.iter().map(resolve).collect()
    };
    let fns = load().map_err(|message| ProgramError::Invalid {
        message: format!(
            "native JIT failed for eligible program `{}`: {message}",
            compiled.name()
        ),
    })?;
    Ok(Some(unit.resolved.get_or_init(|| fns)))
}
