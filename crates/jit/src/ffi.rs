//! The quarantined `unsafe` surface of the JIT tier: `dlopen`-family
//! declarations, shared-object handles, and the typed symbol wrappers the
//! safe API hands out.
//!
//! This module is the **only** place in the workspace where `unsafe`
//! appears (the crate is `#![deny(unsafe_code)]`; every other crate keeps
//! `#![forbid(unsafe_code)]`). The exposure is kept minimal on purpose:
//!
//! * the raw symbols loaded here are produced exclusively by
//!   `stencilflow-codegen`'s whole-program emitter, which only emits from
//!   bytecode that carries a clean `stencilflow_expr::verify::KernelJudgment`
//!   (verified stack/local/slot safety, branch-free) — the generated C
//!   reads slot rows at `p[k]` for `k ∈ [0, nk)` and writes the output row
//!   at the same bounded indices, nothing else;
//! * independently of that judgment, [`StageFn::sweep`] re-validates every
//!   buffer bound against the sweep geometry *in safe code* before the
//!   call, so even a miscomputed base/stride is rejected instead of
//!   dereferenced;
//! * aliasing is ruled out by construction: the output row is an exclusive
//!   `&mut` borrow while every tap is a shared borrow, which the borrow
//!   checker enforces at the call site (the emitted C declares the output
//!   pointer `restrict`, matching that guarantee).
//!
//! It also arms the compiler child process (`demote`): two system calls
//! between `fork` and `exec`.
#![allow(unsafe_code)]

use std::ffi::{c_char, c_int, c_void, CStr, CString};
use std::path::Path;
use std::process::Command;
use std::sync::Arc;

/// The lowest scheduling priority (`nice 19`): a background compile only
/// takes CPU time the service's workers leave idle.
const BACKGROUND_NICE: c_int = 19;

#[cfg(target_os = "linux")]
extern "C" {
    fn setpriority(which: c_int, who: u32, prio: c_int) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
    fn getppid() -> c_int;
}

/// Have `cmd`'s child run at [`BACKGROUND_NICE`], and be killed by the
/// kernel (`PR_SET_PDEATHSIG`, `SIGKILL`) when the thread that spawns it
/// exits — with the process, say — so no compiler outlives the engine that
/// started it. Elsewhere than Linux the child runs as it is.
pub(crate) fn demote(cmd: &mut Command) {
    #[cfg(target_os = "linux")]
    {
        use std::os::unix::process::CommandExt;
        const PRIO_PROCESS: c_int = 0;
        const PR_SET_PDEATHSIG: c_int = 1;
        const SIGKILL: std::ffi::c_ulong = 9;
        let parent = std::process::id() as c_int;
        // SAFETY: the hook runs in the forked child before `exec`, where
        // only async-signal-safe calls are allowed: `setpriority`, `prctl`
        // and `getppid` are plain system calls that allocate nothing and
        // take no lock. A parent that died before the death signal was
        // armed fails the spawn instead of leaving an orphan.
        unsafe {
            cmd.pre_exec(move || {
                if setpriority(PRIO_PROCESS, 0, BACKGROUND_NICE) != 0
                    || prctl(PR_SET_PDEATHSIG, SIGKILL) != 0
                    || getppid() != parent
                {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (cmd, BACKGROUND_NICE);
}

// `dlopen`/`dlsym`/`dlclose`/`dlerror` live in libc proper on every glibc
// ≥ 2.34 (and in libSystem on macOS), both of which the Rust runtime
// already links; no extra link attribute is needed.
extern "C" {
    fn dlopen(filename: *const c_char, flags: c_int) -> *mut c_void;
    fn dlsym(handle: *mut c_void, symbol: *const c_char) -> *mut c_void;
    fn dlclose(handle: *mut c_void) -> c_int;
    fn dlerror() -> *mut c_char;
}

/// `RTLD_NOW`: resolve all symbols at load time, so a missing libm symbol
/// fails the load instead of aborting mid-sweep.
const RTLD_NOW: c_int = 2;

/// The last `dlerror` message, or a fallback when libdl reports none.
fn dl_error_message() -> String {
    // SAFETY: `dlerror` returns either NULL or a pointer to a
    // NUL-terminated string in libdl's static buffer, valid until the next
    // dl* call on this thread; it is only read here, immediately.
    let ptr = unsafe { dlerror() };
    if ptr.is_null() {
        return "unknown dlopen error".to_string();
    }
    // SAFETY: non-NULL `dlerror` results are valid NUL-terminated C
    // strings (POSIX); the bytes are copied out before any further dl*
    // call could invalidate the buffer.
    unsafe { CStr::from_ptr(ptr) }
        .to_string_lossy()
        .into_owned()
}

/// An open shared object. Closing happens on drop; symbol wrappers keep the
/// handle alive through an [`Arc`], so a loaded function can never outlive
/// its module.
#[derive(Debug)]
pub struct ModuleHandle {
    raw: *mut c_void,
}

// SAFETY: a POSIX `dlopen` handle is process-global state, not
// thread-affine — `dlsym` and `dlclose` on it are thread-safe (POSIX
// requires the dl* family to be thread-safe), and the code loaded from a
// stencilflow JIT module is pure (no writable globals are ever emitted),
// so sharing the handle across the executor's sweep workers is sound.
unsafe impl Send for ModuleHandle {}
// SAFETY: see `Send` above; `&ModuleHandle` only permits `dlsym` lookups,
// which are thread-safe.
unsafe impl Sync for ModuleHandle {}

impl ModuleHandle {
    /// Open a shared object with `RTLD_NOW`.
    pub(crate) fn open(path: &Path) -> Result<ModuleHandle, String> {
        let c_path = CString::new(path.to_string_lossy().into_owned())
            .map_err(|_| format!("module path contains a NUL byte: {}", path.display()))?;
        // SAFETY: `c_path` is a valid NUL-terminated string and the flags
        // are a supported `dlopen` mode; a NULL return is handled below.
        let raw = unsafe { dlopen(c_path.as_ptr(), RTLD_NOW) };
        if raw.is_null() {
            return Err(dl_error_message());
        }
        Ok(ModuleHandle { raw })
    }

    /// Look up a symbol's raw address.
    fn symbol_address(&self, symbol: &str) -> Result<*mut c_void, String> {
        let c_symbol = CString::new(symbol)
            .map_err(|_| format!("symbol name contains a NUL byte: {symbol}"))?;
        // SAFETY: `self.raw` is a live handle (it is only closed in Drop,
        // and `self` is borrowed) and `c_symbol` is a valid C string; a
        // NULL result is handled below (emitted functions are never at
        // address zero).
        let addr = unsafe { dlsym(self.raw, c_symbol.as_ptr()) };
        if addr.is_null() {
            return Err(format!(
                "symbol `{symbol}` not found: {}",
                dl_error_message()
            ));
        }
        Ok(addr)
    }
}

impl Drop for ModuleHandle {
    fn drop(&mut self) {
        // SAFETY: `raw` came from a successful `dlopen` and is closed
        // exactly once (Drop consumes the sole owner; symbol wrappers hold
        // the Arc that delays this drop until they are gone).
        unsafe { dlclose(self.raw) };
    }
}

/// ABI of an emitted stage-sweep function (see
/// `stencilflow_codegen::jit_unit` for the generating side):
///
/// ```c
/// void sf_stage_N(const double *const *slots, const double *scalars,
///                 const int64_t *ss0, const int64_t *ss1,
///                 double *restrict out, int64_t os0, int64_t os1,
///                 int64_t n0, int64_t n1, int64_t nk);
/// ```
///
/// The function sweeps `n0 × n1` rows of `nk` cells; the row pointer of
/// slot `s` at `(i0, i1)` is `slots[s] + i0*ss0[s] + i1*ss1[s]`, and only
/// indices `[0, nk)` of each row pointer (shifted by nothing further) are
/// read or written.
type RawStageFn = unsafe extern "C" fn(
    *const *const f64,
    *const f64,
    *const i64,
    *const i64,
    *mut f64,
    i64,
    i64,
    i64,
    i64,
    i64,
);

/// ABI of an emitted scalar evaluation function (round-trip tests):
/// `double sf_eval(const double *slots)` over `arity` slot values.
type RawEvalFn = unsafe extern "C" fn(*const f64) -> f64;

/// How one kernel slot is fed to a [`StageFn::sweep`] call.
#[derive(Debug)]
pub enum SlotArg<'a> {
    /// Scalar symbol: the emitted code reads it from the scalar table, the
    /// tap pointer for this slot is never dereferenced.
    Scalar(f64),
    /// Buffer tap: row `(i0, i1)` starts at `buf[base + i0*s0 + i1*s1]`
    /// and the sweep reads cells `[0, nk)` of it.
    Tap {
        /// The scratch buffer the slot reads.
        buf: &'a [f64],
        /// Flat offset of the `(0, 0)` row's `k = 0` cell.
        base: usize,
        /// Outer-row stride.
        s0: usize,
        /// Inner-row stride.
        s1: usize,
    },
}

/// One stage-sweep call: geometry plus the borrowed buffers. The `&mut`
/// output against `&` taps makes caller-side aliasing impossible.
#[derive(Debug)]
pub struct SweepArgs<'a> {
    /// Per-slot sources, indexed by kernel slot.
    pub slots: &'a [SlotArg<'a>],
    /// Output buffer (the stage's scratch buffer, temporarily detached).
    pub out: &'a mut [f64],
    /// Flat offset of the output's `(0, 0)` row `k = 0` cell.
    pub out_base: usize,
    /// Output outer-row stride.
    pub out_s0: usize,
    /// Output inner-row stride.
    pub out_s1: usize,
    /// Outer row count.
    pub n0: usize,
    /// Inner row count.
    pub n1: usize,
    /// Cells per row.
    pub nk: usize,
}

/// Largest flat index a `(base, s0, s1)` row layout touches over an
/// `n0 × n1 × nk` sweep, or `None` on arithmetic overflow (which the
/// caller treats as out of bounds).
fn max_index(base: usize, s0: usize, s1: usize, n0: usize, n1: usize, nk: usize) -> Option<usize> {
    base.checked_add((n0 - 1).checked_mul(s0)?)?
        .checked_add((n1 - 1).checked_mul(s1)?)?
        .checked_add(nk - 1)
}

/// A stage-sweep symbol bound to its (kept-alive) module.
#[derive(Debug, Clone)]
pub struct StageFn {
    module: Arc<ModuleHandle>,
    raw: RawStageFn,
}

impl StageFn {
    pub(crate) fn resolve(module: &Arc<ModuleHandle>, symbol: &str) -> Result<StageFn, String> {
        let addr = module.symbol_address(symbol)?;
        // SAFETY: the address is a non-NULL function symbol from a module
        // emitted by the stencilflow code generator, whose stage symbols
        // all have exactly the `RawStageFn` signature (the emitter and
        // this declaration are pinned to each other by the round-trip and
        // golden-equivalence suites).
        let raw = unsafe { std::mem::transmute::<*mut c_void, RawStageFn>(addr) };
        Ok(StageFn {
            module: Arc::clone(module),
            raw,
        })
    }

    /// Sweep `args.n0 × args.n1` rows of `args.nk` cells through the
    /// compiled stage.
    ///
    /// # Errors
    ///
    /// Returns a description when any tap or the output cannot hold the
    /// sweep (`base + (n0-1)·s0 + (n1-1)·s1 + nk` exceeds the buffer);
    /// nothing is dereferenced in that case.
    pub fn sweep(&self, args: &mut SweepArgs<'_>) -> Result<(), String> {
        if args.n0 == 0 || args.n1 == 0 || args.nk == 0 {
            return Ok(());
        }
        // The module must stay loaded for the duration of the call.
        let _keep_alive = &self.module;
        // Validate every reachable index in safe code before the native
        // call: the emitted code touches exactly the row-layout footprint
        // checked here (by the emitter's construction from verified,
        // branch-free bytecode — its only loads are `p[k]`, `k < nk`).
        for (ix, slot) in args.slots.iter().enumerate() {
            if let SlotArg::Tap { buf, base, s0, s1 } = slot {
                let max = max_index(*base, *s0, *s1, args.n0, args.n1, args.nk);
                match max {
                    Some(max) if max < buf.len() => {}
                    _ => {
                        return Err(format!(
                            "slot {ix} tap out of bounds: base {base} strides ({s0}, {s1}) \
                             over {}x{}x{} exceeds buffer of {}",
                            args.n0,
                            args.n1,
                            args.nk,
                            buf.len()
                        ));
                    }
                }
            }
        }
        match max_index(
            args.out_base,
            args.out_s0,
            args.out_s1,
            args.n0,
            args.n1,
            args.nk,
        ) {
            Some(max) if max < args.out.len() => {}
            _ => {
                return Err(format!(
                    "output out of bounds: base {} strides ({}, {}) over {}x{}x{} \
                     exceeds buffer of {}",
                    args.out_base,
                    args.out_s0,
                    args.out_s1,
                    args.n0,
                    args.n1,
                    args.nk,
                    args.out.len()
                ));
            }
        }
        let mut slot_ptrs: Vec<*const f64> = Vec::with_capacity(args.slots.len());
        let mut scalars: Vec<f64> = Vec::with_capacity(args.slots.len());
        let mut ss0: Vec<i64> = Vec::with_capacity(args.slots.len());
        let mut ss1: Vec<i64> = Vec::with_capacity(args.slots.len());
        for slot in args.slots.iter() {
            match slot {
                SlotArg::Scalar(v) => {
                    // The tap pointer of a scalar slot is never
                    // dereferenced (the emitter reads the scalar table
                    // instead); a well-aligned dangling pointer keeps the
                    // array free of NULLs.
                    slot_ptrs.push(std::ptr::NonNull::<f64>::dangling().as_ptr());
                    scalars.push(*v);
                    ss0.push(0);
                    ss1.push(0);
                }
                SlotArg::Tap { buf, base, s0, s1 } => {
                    slot_ptrs.push(buf[*base..].as_ptr());
                    scalars.push(0.0);
                    ss0.push(*s0 as i64);
                    ss1.push(*s1 as i64);
                }
            }
        }
        let out = &mut args.out[args.out_base..];
        // SAFETY: the call target is a stage function emitted from
        // bytecode holding a clean `KernelJudgment` (verified, branch-free
        // — see the module docs), so its entire memory footprint is the
        // row layout validated above: every tap read and output write
        // lands strictly inside the borrowed slices, the output slice is
        // an exclusive borrow disjoint from every tap (borrow-checked at
        // the call site, matching the emitted `restrict`), and the
        // argument arrays outlive the call. The module stays loaded for
        // the life of `self.module`.
        unsafe {
            (self.raw)(
                slot_ptrs.as_ptr(),
                scalars.as_ptr(),
                ss0.as_ptr(),
                ss1.as_ptr(),
                out.as_mut_ptr(),
                args.out_s0 as i64,
                args.out_s1 as i64,
                args.n0 as i64,
                args.n1 as i64,
                args.nk as i64,
            );
        }
        Ok(())
    }
}

/// A scalar-evaluation symbol bound to its (kept-alive) module; used by the
/// codegen round-trip tests to execute emitted expressions one cell at a
/// time.
#[derive(Debug, Clone)]
pub struct EvalFn {
    module: Arc<ModuleHandle>,
    raw: RawEvalFn,
    arity: usize,
}

impl EvalFn {
    pub(crate) fn resolve(
        module: &Arc<ModuleHandle>,
        symbol: &str,
        arity: usize,
    ) -> Result<EvalFn, String> {
        let addr = module.symbol_address(symbol)?;
        // SAFETY: as for `StageFn::resolve` — eval symbols are emitted
        // with exactly the `RawEvalFn` signature.
        let raw = unsafe { std::mem::transmute::<*mut c_void, RawEvalFn>(addr) };
        Ok(EvalFn {
            module: Arc::clone(module),
            raw,
            arity,
        })
    }

    /// Evaluate the compiled expression on one slot-value vector.
    ///
    /// # Errors
    ///
    /// Returns a description when `slots` does not match the arity the
    /// symbol was resolved with.
    pub fn call(&self, slots: &[f64]) -> Result<f64, String> {
        if slots.len() != self.arity {
            return Err(format!(
                "eval arity mismatch: got {} slot values, symbol takes {}",
                slots.len(),
                self.arity
            ));
        }
        let _keep_alive = &self.module;
        // SAFETY: the target reads exactly `arity` doubles from the
        // pointer (pinned by the emitter, validated against `slots.len()`
        // above) and performs no other memory access — it is emitted from
        // the same verified branch-free bytecode as the stage sweeps.
        Ok(unsafe { (self.raw)(slots.as_ptr()) })
    }
}
