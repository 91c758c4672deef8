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
//!   buffer's element width against the one its body was emitted for, and
//!   every buffer bound against the sweep geometry, *in safe code* before
//!   the call, so even a miscomputed width, base or stride is rejected
//!   instead of dereferenced;
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

/// Why the module boundary refused a request: one variant per failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FfiError {
    /// A module path holds a NUL byte, which no C string can carry.
    NulInPath {
        /// The path.
        path: String,
    },
    /// `dlopen` refused the module.
    Open {
        /// The loader's message.
        message: String,
    },
    /// A symbol name holds a NUL byte.
    NulInSymbol {
        /// The name.
        symbol: String,
    },
    /// The module does not export the symbol.
    MissingSymbol {
        /// The name.
        symbol: String,
        /// The loader's message.
        message: String,
    },
}

impl std::fmt::Display for FfiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FfiError::NulInPath { path } => write!(f, "module path contains a NUL byte: {path}"),
            FfiError::Open { message } => f.write_str(message),
            FfiError::NulInSymbol { symbol } => {
                write!(f, "symbol name contains a NUL byte: {symbol}")
            }
            FfiError::MissingSymbol { symbol, message } => {
                write!(f, "symbol `{symbol}` not found: {message}")
            }
        }
    }
}

impl std::error::Error for FfiError {}

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
    pub(crate) fn open(path: &Path) -> Result<ModuleHandle, FfiError> {
        let path = path.to_string_lossy().into_owned();
        let c_path = CString::new(path.clone()).map_err(|_| FfiError::NulInPath { path })?;
        // SAFETY: `c_path` is a valid NUL-terminated string and the flags
        // are a supported `dlopen` mode; a NULL return is handled below.
        let raw = unsafe { dlopen(c_path.as_ptr(), RTLD_NOW) };
        if raw.is_null() {
            let message = dl_error_message();
            return Err(FfiError::Open { message });
        }
        Ok(ModuleHandle { raw })
    }

    /// Look up a symbol's raw address.
    fn symbol_address(&self, symbol: &str) -> Result<*mut c_void, FfiError> {
        let c_symbol = CString::new(symbol).map_err(|_| FfiError::NulInSymbol {
            symbol: symbol.to_string(),
        })?;
        // SAFETY: `self.raw` is a live handle (it is only closed in Drop,
        // and `self` is borrowed) and `c_symbol` is a valid C string; a
        // NULL result is handled below (emitted functions are never at
        // address zero).
        let addr = unsafe { dlsym(self.raw, c_symbol.as_ptr()) };
        if addr.is_null() {
            let (symbol, message) = (symbol.to_string(), dl_error_message());
            return Err(FfiError::MissingSymbol { symbol, message });
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
/// void sf_stage_N(const void *const *slots, const double *scalars,
///                 const int64_t *ss0, const int64_t *ss1,
///                 void *restrict out, int64_t os0, int64_t os1,
///                 int64_t n0, int64_t n1, int64_t nk);
/// ```
///
/// Slot and output pointers are untyped: the body casts each to the
/// element width it was emitted for (`const float *` or `const double *`,
/// strides counted in elements of that width), which the [`StageFn`]
/// records and [`StageFn::sweep`] checks. The function sweeps `n0 × n1`
/// rows of `nk` cells; the row pointer of slot `s` at `(i0, i1)` is
/// `slots[s] + i0*ss0[s] + i1*ss1[s]`, and only indices `[0, nk)` of each
/// row pointer (shifted by nothing further) are read or written.
type RawStageFn = unsafe extern "C" fn(
    *const *const c_void,
    *const f64,
    *const i64,
    *const i64,
    *mut c_void,
    i64,
    i64,
    i64,
    i64,
    i64,
);

/// The element width of a buffer a stage function reads or writes: C
/// `float` or `double`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Width {
    /// `float` (binary32).
    F32,
    /// `double` (binary64).
    F64,
}

/// A buffer a tap reads, of either width.
#[derive(Debug, Clone, Copy)]
pub enum Cells<'a> {
    /// `float` cells.
    F32(&'a [f32]),
    /// `double` cells.
    F64(&'a [f64]),
}

impl Cells<'_> {
    /// The element width.
    pub(crate) fn width(&self) -> Width {
        match self {
            Cells::F32(_) => Width::F32,
            Cells::F64(_) => Width::F64,
        }
    }

    /// Elements held.
    pub(crate) fn len(&self) -> usize {
        match self {
            Cells::F32(cells) => cells.len(),
            Cells::F64(cells) => cells.len(),
        }
    }

    /// Cell `at`, widened to `f64` (exact).
    #[inline]
    pub fn get(&self, at: usize) -> f64 {
        match self {
            Cells::F32(cells) => f64::from(cells[at]),
            Cells::F64(cells) => cells[at],
        }
    }

    /// Address of cell `at`; `at` is in bounds (the caller checked).
    fn ptr_at(&self, at: usize) -> *const c_void {
        match self {
            Cells::F32(cells) => cells[at..].as_ptr().cast(),
            Cells::F64(cells) => cells[at..].as_ptr().cast(),
        }
    }
}

/// A buffer a stage writes, of either width.
#[derive(Debug)]
pub enum CellsMut<'a> {
    /// `float` cells.
    F32(&'a mut [f32]),
    /// `double` cells.
    F64(&'a mut [f64]),
}

impl Default for CellsMut<'_> {
    /// An empty `double` buffer (what `std::mem::take` leaves behind).
    fn default() -> Self {
        CellsMut::F64(&mut [])
    }
}

impl CellsMut<'_> {
    /// The element width.
    pub(crate) fn width(&self) -> Width {
        self.as_cells().width()
    }

    /// Elements held.
    pub(crate) fn len(&self) -> usize {
        self.as_cells().len()
    }

    /// The same cells, for a shorter borrow.
    pub fn reborrow(&mut self) -> CellsMut<'_> {
        match self {
            CellsMut::F32(cells) => CellsMut::F32(cells),
            CellsMut::F64(cells) => CellsMut::F64(cells),
        }
    }

    /// The same cells, shared.
    pub fn as_cells(&self) -> Cells<'_> {
        match self {
            CellsMut::F32(cells) => Cells::F32(cells),
            CellsMut::F64(cells) => Cells::F64(cells),
        }
    }

    /// Store `value` over `range`, rounded to the element width (exact
    /// when `value` already is a binary32 value or the buffer is `double`).
    pub fn fill(&mut self, range: std::ops::Range<usize>, value: f64) {
        match self {
            CellsMut::F32(cells) => cells[range].fill(value as f32),
            CellsMut::F64(cells) => cells[range].fill(value),
        }
    }

    /// Address of cell `at`; `at` is in bounds (the caller checked).
    fn ptr_at(&mut self, at: usize) -> *mut c_void {
        match self {
            CellsMut::F32(cells) => cells[at..].as_mut_ptr().cast(),
            CellsMut::F64(cells) => cells[at..].as_mut_ptr().cast(),
        }
    }
}

/// How one kernel slot is fed to a [`StageFn::sweep`] call.
#[derive(Debug, Clone, Copy)]
pub enum SlotArg<'a> {
    /// Scalar symbol: the emitted code reads it from the scalar table, the
    /// tap pointer for this slot is never dereferenced.
    Scalar(f64),
    /// Buffer tap: row `(i0, i1)` starts at `buf[base + i0*s0 + i1*s1]`
    /// and the sweep reads cells `[0, nk)` of it.
    Tap {
        /// The scratch buffer the slot reads, of the width the stage was
        /// emitted to read it at.
        buf: Cells<'a>,
        /// Flat offset of the `(0, 0)` row's `k = 0` cell.
        base: usize,
        /// Outer-row stride.
        s0: usize,
        /// Inner-row stride.
        s1: usize,
    },
}

impl SlotArg<'_> {
    /// The width of the buffer fed (`None`: a scalar).
    fn width(&self) -> Option<Width> {
        match self {
            SlotArg::Scalar(_) => None,
            SlotArg::Tap { buf, .. } => Some(buf.width()),
        }
    }
}

/// One stage-sweep call's geometry and output. The `&mut` output against
/// the `&` taps of the call's [`SlotArg`]s makes caller-side aliasing
/// impossible.
#[derive(Debug)]
pub struct SweepArgs<'a> {
    /// Output buffer (the stage's scratch buffer or an output slab,
    /// temporarily detached), of the width the stage stores.
    pub out: CellsMut<'a>,
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

/// The argument arrays of [`StageFn::sweep`] calls, kept by the caller (one
/// per worker thread) and refilled by every call, so a call allocates
/// nothing once they have grown to the widest stage's slot count. Between
/// calls they hold nothing that is read again.
#[derive(Debug, Default)]
pub struct SweepBuffers {
    slot_ptrs: Vec<*const c_void>,
    scalars: Vec<f64>,
    ss0: Vec<i64>,
    ss1: Vec<i64>,
}

/// Why [`StageFn::sweep`] refused a call: the arguments do not match the
/// slots and widths the stage was emitted for, or a row layout reaches
/// past its buffer (`base + (n0-1)·s0 + (n1-1)·s1 + nk` exceeds its
/// length, or the sum overflows). Nothing was dereferenced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SweepError {
    /// The call fed another number of slots than the kernel reads.
    SlotCount {
        /// Slots the stage reads.
        expected: usize,
        /// Slots the call fed.
        found: usize,
    },
    /// A slot was fed a buffer of another width than the stage reads it
    /// at, or a scalar where it reads a tap (or the reverse); `None` is a
    /// scalar.
    SlotWidth {
        /// The kernel slot.
        slot: usize,
        /// What the stage reads.
        expected: Option<Width>,
        /// What the call fed.
        found: Option<Width>,
    },
    /// The output buffer has another width than the stage stores.
    OutputWidth {
        /// What the stage stores.
        expected: Width,
        /// What the call fed.
        found: Width,
    },
    /// A tap cannot hold the sweep.
    TapOutOfBounds {
        /// The kernel slot.
        slot: usize,
        /// Flat offset of the tap's `(0, 0)` row.
        base: usize,
        /// Outer- and inner-row strides.
        strides: (usize, usize),
        /// `n0 × n1 × nk`.
        extents: [usize; 3],
        /// The tap's buffer length.
        len: usize,
    },
    /// The output cannot hold the sweep.
    OutputOutOfBounds {
        /// Flat offset of the output's `(0, 0)` row.
        base: usize,
        /// Outer- and inner-row strides.
        strides: (usize, usize),
        /// `n0 × n1 × nk`.
        extents: [usize; 3],
        /// The output buffer length.
        len: usize,
    },
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let width = |w: &Option<Width>| match w {
            Some(Width::F32) => "f32 tap",
            Some(Width::F64) => "f64 tap",
            None => "scalar",
        };
        let (base, (s0, s1), [n0, n1, nk], len) = match self {
            SweepError::SlotCount { expected, found } => {
                return write!(f, "{found} slots fed, the stage reads {expected}");
            }
            SweepError::SlotWidth {
                slot,
                expected,
                found,
            } => {
                let (expected, found) = (width(expected), width(found));
                return write!(f, "slot {slot}: {found} fed, the stage reads an {expected}");
            }
            SweepError::OutputWidth { expected, found } => {
                return write!(
                    f,
                    "output: {found:?} cells fed, the stage stores {expected:?}"
                );
            }
            SweepError::TapOutOfBounds {
                slot,
                base,
                strides,
                extents,
                len,
            } => {
                write!(f, "slot {slot} tap")?;
                (base, strides, extents, len)
            }
            SweepError::OutputOutOfBounds {
                base,
                strides,
                extents,
                len,
            } => {
                write!(f, "output")?;
                (base, strides, extents, len)
            }
        };
        write!(
            f,
            " out of bounds: base {base} strides ({s0}, {s1}) over {n0}x{n1}x{nk} \
             exceeds buffer of {len}"
        )
    }
}

impl std::error::Error for SweepError {}

/// Largest flat index a `(base, s0, s1)` row layout touches over an
/// `n0 × n1 × nk` sweep, or `None` on arithmetic overflow (which the
/// caller treats as out of bounds).
fn max_index(base: usize, s0: usize, s1: usize, n0: usize, n1: usize, nk: usize) -> Option<usize> {
    base.checked_add((n0 - 1).checked_mul(s0)?)?
        .checked_add((n1 - 1).checked_mul(s1)?)?
        .checked_add(nk - 1)
}

/// A stage-sweep symbol bound to its (kept-alive) module, with the slot
/// and output widths its body was emitted for.
#[derive(Debug, Clone)]
pub struct StageFn {
    module: Arc<ModuleHandle>,
    raw: RawStageFn,
    /// Per kernel slot: the width of the tap it reads, `None` for a scalar.
    slots: Arc<[Option<Width>]>,
    out: Width,
}

impl StageFn {
    pub(crate) fn resolve(
        module: &Arc<ModuleHandle>,
        symbol: &str,
        slots: &[Option<Width>],
        out: Width,
    ) -> Result<StageFn, FfiError> {
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
            slots: slots.into(),
            out,
        })
    }

    /// Sweep `args.n0 × args.n1` rows of `args.nk` cells through the
    /// compiled stage, kernel slot `s` fed by the `s`-th item of `slots`;
    /// the argument arrays are built in `buffers`.
    ///
    /// # Errors
    ///
    /// Returns, before anything is dereferenced: a slot count or a slot
    /// or output width the stage was not emitted for, then the first tap,
    /// then the output, that cannot hold the sweep
    /// (`base + (n0-1)·s0 + (n1-1)·s1 + nk` exceeds the buffer).
    pub fn sweep<'s>(
        &self,
        slots: impl IntoIterator<Item = SlotArg<'s>>,
        args: &mut SweepArgs<'_>,
        buffers: &mut SweepBuffers,
    ) -> Result<(), SweepError> {
        // The module must stay loaded for the duration of the call.
        let _keep_alive = &self.module;
        let extents = [args.n0, args.n1, args.nk];
        let empty = extents.contains(&0);
        let SweepBuffers {
            slot_ptrs,
            scalars,
            ss0,
            ss1,
        } = buffers;
        slot_ptrs.clear();
        scalars.clear();
        ss0.clear();
        ss1.clear();
        // Validate every slot's width and every reachable index in safe
        // code before the native call: a body reads each slot at the width
        // it was emitted for, and touches exactly the row-layout footprint
        // checked here (by the emitter's construction from verified,
        // branch-free bytecode — its only loads are `p[k]`, `k < nk`).
        let mut fed = 0;
        for (ix, slot) in slots.into_iter().enumerate() {
            fed += 1;
            // A surplus slot is counted, and refused below.
            let Some(&expected) = self.slots.get(ix) else {
                continue;
            };
            if slot.width() != expected {
                let found = slot.width();
                return Err(SweepError::SlotWidth {
                    slot: ix,
                    expected,
                    found,
                });
            }
            match slot {
                SlotArg::Scalar(v) => {
                    // The tap pointer of a scalar slot is never
                    // dereferenced (the emitter reads the scalar table
                    // instead); a well-aligned dangling pointer keeps the
                    // array free of NULLs.
                    slot_ptrs.push(std::ptr::NonNull::<f64>::dangling().as_ptr().cast());
                    scalars.push(v);
                    ss0.push(0);
                    ss1.push(0);
                }
                SlotArg::Tap { buf, base, s0, s1 } => {
                    if empty {
                        continue;
                    }
                    match max_index(base, s0, s1, args.n0, args.n1, args.nk) {
                        Some(max) if max < buf.len() => {}
                        _ => {
                            return Err(SweepError::TapOutOfBounds {
                                slot: ix,
                                base,
                                strides: (s0, s1),
                                extents,
                                len: buf.len(),
                            });
                        }
                    }
                    slot_ptrs.push(buf.ptr_at(base));
                    scalars.push(0.0);
                    ss0.push(s0 as i64);
                    ss1.push(s1 as i64);
                }
            }
        }
        if fed != self.slots.len() {
            let (expected, found) = (self.slots.len(), fed);
            return Err(SweepError::SlotCount { expected, found });
        }
        if args.out.width() != self.out {
            let (expected, found) = (self.out, args.out.width());
            return Err(SweepError::OutputWidth { expected, found });
        }
        if empty {
            return Ok(());
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
                return Err(SweepError::OutputOutOfBounds {
                    base: args.out_base,
                    strides: (args.out_s0, args.out_s1),
                    extents,
                    len: args.out.len(),
                });
            }
        }
        let out = args.out.ptr_at(args.out_base);
        // SAFETY: the call target is a stage function emitted from
        // bytecode holding a clean `KernelJudgment` (verified, branch-free
        // — see the module docs), so its entire memory footprint is the
        // row layout validated above, at the widths validated above (each
        // pointer is to elements of exactly the width the body casts it
        // to): every tap read and output write lands strictly inside the
        // borrowed slices (whose lifetime `'s` outlives this call), the
        // output slice is an exclusive borrow disjoint from every tap
        // (borrow-checked at the call site, matching the emitted
        // `restrict`), and the argument arrays, filled above from exactly
        // those slices, outlive the call. The module stays loaded for the
        // life of `self.module`.
        unsafe {
            (self.raw)(
                slot_ptrs.as_ptr(),
                scalars.as_ptr(),
                ss0.as_ptr(),
                ss1.as_ptr(),
                out,
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
