//! Native Tier-4 backend for StencilFlow: drive the system C compiler over
//! emitted translation units, cache the resulting shared objects on disk,
//! and load them through a quarantined `dlopen` boundary.
//!
//! The crate deliberately knows nothing about stencils: it accepts C
//! *source* — whose text, salted here with the compiler version, the flags
//! and the host target they resolve to, *is* the identity of a module; the
//! label passed along is provenance for the build log only — and returns a
//! loaded module from which typed symbols can be resolved. All policy —
//! which programs are eligible, what the C looks like, how sweeps map onto
//! the emitted ABI — lives in `stencilflow-codegen` and
//! `stencilflow-reference`; this crate only guarantees that
//!
//! * identical `(salt, source)` pairs never invoke `cc` twice, even
//!   across processes and labels (the disk cache is the source of truth;
//!   an atomic `.key` sidecar written last marks an entry complete), and a
//!   changed source — a new emitter or optimizer — is a miss by construction;
//! * a disk entry is served only if its `.c` equals the source and its
//!   `.so` has the length and hash its sidecar recorded; a torn, truncated
//!   or unloadable entry is one rebuild, never an error or wrong code;
//! * entries built under a different compiler version, flag set or host
//!   target are evicted at engine start, and the cache stays under a byte
//!   bound via least-recently-used eviction;
//! * every build runs on the engine's one compile thread, which a caller
//!   may wait for or not ([`JitEngine::wait`], [`JitEngine::request`]); the
//!   compiler runs at the lowest CPU priority, dies with that thread, and
//!   is killed at a fixed deadline, and every way a build can fail is one
//!   [`JitError`] variant, kept so the unit is never built again;
//! * everything `unsafe` stays inside [`ffi`], each block justified
//!   against the verifier judgment the emitted code was derived from (the
//!   rest of the workspace keeps `#![forbid(unsafe_code)]`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ffi;

pub use ffi::{
    Cells, CellsMut, FfiError, ModuleHandle, SlotArg, StageFn, SweepArgs, SweepBuffers, SweepError,
    Width,
};

use std::collections::{HashMap, VecDeque};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Output, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant, SystemTime};

/// Compiler flags every JIT translation unit is built with. The set is part
/// of the cache salt; *bit-identity with the interpreter* rules out every
/// value-changing flag, and within that the level was measured
/// (`docs/evaluation.md`, Tier 4):
///
/// * `-O2 -fvect-cost-model=cheap` — the stage loops vectorize as at `-O3`
///   (plain `-O2`'s very-cheap cost model leaves them scalar) for less `cc`
///   time per cold unit.
/// * `-march=native` — units use the host's vector ISA. A cache directory
///   shared between machines stays safe because the salt carries what
///   `native` resolved to here (the `-march=` value and a hash of the
///   compiler's whole target report, probed under these flags): an engine
///   on a CPU that resolves differently finds every entry built here stale
///   and evicts it, instead of loading code that could fault with `SIGILL`.
/// * `-ffp-contract=off` — GCC's GNU-C default is `fast`, which fuses
///   `a*b + c` into FMA and changes results by one rounding; the
///   interpreter performs two roundings, so contraction must be off (it
///   stays off whatever FMA units `-march=native` enables).
/// * `-fno-math-errno` — frees the compiler from materializing `errno`
///   stores around libm calls without changing any computed value.
/// * `-fno-trapping-math` — lets GCC if-convert the emitted selects, whose
///   arms are both evaluated, into vector blends; without it no stage loop
///   with a select vectorizes. It changes no computed value: FP exceptions
///   are masked and never read, so a speculated arm may only raise flags
///   nobody looks at.
/// * no `-ffast-math`: value-changing optimization is out of the question.
///
/// `jit_gate` compiles every unit once more with these flags to count the
/// stage loops GCC vectorizes.
pub const BASE_CFLAGS: &[&str] = &[
    "-std=c11",
    "-O2",
    "-fvect-cost-model=cheap",
    "-march=native",
    "-fPIC",
    "-shared",
    "-ffp-contract=off",
    "-fno-math-errno",
    "-fno-trapping-math",
];

/// Default cap on the on-disk cache (sources, objects, sidecars, logs).
pub(crate) const DEFAULT_MAX_CACHE_BYTES: u64 = 256 * 1024 * 1024;

/// In-process loaded-module cache capacity; mirrors the executor's
/// compiled-program cache discipline (clear on overflow, no LRU churn).
const MODULE_CACHE_CAPACITY: usize = 64;

/// How long one compiler run may take before it is killed and its unit
/// fails closed ([`JitError::Timeout`]). The largest unit the workloads
/// emit builds in well under a second.
const CC_DEADLINE: Duration = Duration::from_secs(60);

/// How often the compile thread looks at a running compiler.
const CC_POLL: Duration = Duration::from_millis(2);

/// Counters for the disk cache and compiler driver, exported into the CI
/// artifact bundle by the `jit_gate` binary.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Loads served from a valid existing cache entry (disk or in-process).
    pub hits: u64,
    /// Loads that required building a new entry.
    pub misses: u64,
    /// Times the external C compiler was actually spawned. The CI jit gate
    /// asserts this stays 0 on a warmed cache.
    pub cc_invocations: u64,
    /// Entries removed by salt-change or LRU byte-bound eviction.
    pub evictions: u64,
    /// Total bytes currently held by the on-disk cache.
    pub cache_bytes: u64,
}

/// Why a unit's module could not be built or loaded, or why the engine
/// that builds them could not start: one variant per cause. The engine
/// keeps a build's, so a failed unit is never built again; an engine that
/// failed its start ([`JitEngine::try_from`]) builds nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JitError {
    /// `program` (the compiler, or the engine's compile thread) could not
    /// be started.
    Spawn {
        /// What was started.
        program: String,
        /// Why the operating system refused.
        kind: std::io::ErrorKind,
    },
    /// The compiler was still running at the deadline and was killed.
    Timeout {
        /// How long it had run.
        after: Duration,
    },
    /// The compiler rejected the unit.
    Compile {
        /// Its exit status.
        status: ExitStatus,
        /// What it wrote to standard error (also kept in the entry's
        /// `.log`).
        log: String,
    },
    /// The built object does not load, or lacks a symbol the unit exports.
    Load {
        /// The loader's message.
        message: String,
    },
    /// A file of the cache entry could not be written, read or renamed.
    Cache {
        /// The file.
        path: PathBuf,
        /// Why the operating system refused.
        kind: std::io::ErrorKind,
    },
    /// A probe of the compiler at engine start (`cc --version`, `cc -Q
    /// --help=target`) could not be started.
    ProbeSpawn {
        /// The command line that was started.
        command: String,
        /// The operating system's message.
        message: String,
    },
    /// `cc --version` ran and failed.
    VersionFailed {
        /// The compiler.
        cc: String,
        /// Its exit status.
        status: ExitStatus,
        /// What it wrote to standard error, trimmed.
        stderr: String,
    },
    /// `cc --version` printed no version line.
    NoVersionLine {
        /// The compiler.
        cc: String,
    },
    /// `cc -Q --help=target` does not say which `-march` the flags
    /// resolve to (a compiler that is not GCC, or one that failed).
    MarchUnresolved {
        /// The compiler.
        cc: String,
        /// The flags, joined by spaces.
        flags: String,
        /// What it wrote to standard error, trimmed.
        stderr: String,
    },
    /// The cache directory could not be created.
    CacheDir {
        /// The directory.
        dir: PathBuf,
        /// The operating system's message.
        message: String,
    },
}

impl std::fmt::Display for JitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JitError::Spawn { program, kind } => write!(f, "cannot run `{program}`: {kind}"),
            JitError::Timeout { after } => {
                write!(f, "the compiler was killed after {after:?} (deadline)")
            }
            JitError::Compile { status, log } => {
                write!(f, "the compiler failed with {status}:\n{log}")
            }
            JitError::Load { message } => write!(f, "the built module does not load: {message}"),
            JitError::Cache { path, kind } => write!(f, "cache file {}: {kind}", path.display()),
            JitError::ProbeSpawn { command, message } => {
                write!(f, "cannot run `{command}`: {message}")
            }
            JitError::VersionFailed { cc, status, stderr } => {
                write!(f, "`{cc} --version` failed with {status}: {stderr}")
            }
            JitError::NoVersionLine { cc } => write!(f, "`{cc} --version` produced no output"),
            JitError::MarchUnresolved { cc, flags, stderr } => write!(
                f,
                "`{cc} -Q --help=target` does not say which -march {flags} resolves to: {stderr}"
            ),
            JitError::CacheDir { dir, message } => {
                write!(
                    f,
                    "cannot create JIT cache dir {}: {message}",
                    dir.display()
                )
            }
        }
    }
}

impl std::error::Error for JitError {}

/// Where the module of a unit stands in a [`JitEngine`].
#[derive(Debug, Clone)]
pub enum ModuleStatus {
    /// Loaded: in the engine's in-memory table.
    Ready(Arc<ModuleHandle>),
    /// Queued for, or being built by, the engine's compile thread.
    Queued,
    /// Its build failed (see [`JitError`]).
    Failed(JitError),
}

/// Construction parameters for a [`JitEngine`].
#[derive(Debug, Clone)]
pub struct JitConfig {
    /// Directory holding `{hash}.c/.so/.key/.log` entries; created if absent.
    pub cache_dir: PathBuf,
    /// Byte bound enforced by LRU eviction after each build.
    pub max_cache_bytes: u64,
    /// The C compiler to drive (a name resolved via `PATH` or a path).
    pub cc: String,
    /// Extra flags appended after `BASE_CFLAGS`; they participate in the
    /// cache salt, so changing them invalidates prior entries.
    pub extra_flags: Vec<String>,
}

impl JitConfig {
    /// Configuration from the environment:
    /// `SF_JIT_CACHE_DIR` (default: `<tmp>/stencilflow-jit-cache`),
    /// `SF_JIT_CACHE_MAX_BYTES` (default 256 MiB), `SF_JIT_CC` (default
    /// `cc`).
    pub fn from_env() -> JitConfig {
        let cache_dir = std::env::var_os("SF_JIT_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("stencilflow-jit-cache"));
        let max_cache_bytes = std::env::var("SF_JIT_CACHE_MAX_BYTES")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_MAX_CACHE_BYTES);
        let cc = std::env::var("SF_JIT_CC").unwrap_or_else(|_| "cc".to_string());
        JitConfig {
            cache_dir,
            max_cache_bytes,
            cc,
            extra_flags: Vec::new(),
        }
    }
}

/// A compiler driver plus disk-backed code cache, with one compile queue
/// drained by one background thread (started by the first unit it builds).
/// Cheap to share behind an `Arc`; all interior state is mutex-guarded.
///
/// Every build goes through the queue, whoever asks: [`JitEngine::request`]
/// never waits for it, [`JitEngine::wait`] (and [`JitEngine::load`]) does.
/// The compiler runs at the lowest CPU priority, under a deadline, and dies
/// with the thread that started it; dropping the engine kills a running
/// compiler instead of waiting for it.
#[derive(Debug)]
pub struct JitEngine {
    shared: Arc<Shared>,
}

/// What the engine and its compile thread share.
#[derive(Debug)]
struct Shared {
    config: JitConfig,
    /// First line of `cc --version`, the full flag set, and the target
    /// those flags resolve to on this host ([`resolve_target`]); keys every
    /// cache entry so a toolchain, flag or CPU change can never serve stale
    /// code.
    salt: String,
    /// How long one compiler run may take ([`CC_DEADLINE`]).
    deadline: Duration,
    /// Set (under the `units` lock) when the engine is dropped.
    closed: AtomicBool,
    stats: Mutex<CacheStats>,
    units: Mutex<Units>,
    /// Signalled when a unit is queued, a build ends, or the engine closes.
    changed: Condvar,
}

/// The engine's units by entry hash.
#[derive(Debug, Default)]
struct Units {
    /// Loaded modules.
    modules: HashMap<String, Arc<ModuleHandle>>,
    /// Units not loaded: `None` while queued or building, the error once
    /// their build failed.
    builds: HashMap<String, Option<JitError>>,
    /// Queued builds, oldest first: hash, label and source (never a
    /// program: the source is all a build needs).
    queue: VecDeque<(String, String, String)>,
    /// Whether the compile thread has been started.
    worker: bool,
}

/// `mutex`, locked; a holder's panic leaves no half-made change behind in
/// the engine's tables, so a poisoned lock is taken over.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

impl TryFrom<JitConfig> for JitEngine {
    type Error = JitError;

    /// Probe the configured compiler and the target it builds for, prepare
    /// the cache directory, and evict entries built under a different salt.
    ///
    /// # Errors
    ///
    /// Fails when the compiler cannot be spawned (the usual "no `cc` on
    /// this machine" case — callers surface this as the JIT-unavailable
    /// reason and fall back to the fused tier), cannot say which `-march`
    /// the flags resolve to, or the cache directory cannot be created: one
    /// [`JitError`] variant each.
    fn try_from(config: JitConfig) -> Result<JitEngine, JitError> {
        JitEngine::with_deadline(config, CC_DEADLINE)
    }
}

impl JitEngine {
    /// [`JitEngine::try_from`] with the error rendered as text.
    ///
    /// # Errors
    ///
    /// The failures of [`JitEngine::try_from`].
    pub fn new(config: JitConfig) -> Result<JitEngine, String> {
        JitEngine::try_from(config).map_err(|e| e.to_string())
    }

    /// [`JitEngine::try_from`] with compiler deadline `deadline` (tests
    /// pass a short one).
    fn with_deadline(config: JitConfig, deadline: Duration) -> Result<JitEngine, JitError> {
        let mut flags: Vec<String> = BASE_CFLAGS.iter().map(|f| f.to_string()).collect();
        flags.extend(config.extra_flags.iter().cloned());
        // Both probes run at once, so the engine starts in the time of the
        // slower one rather than of the two in turn. Both are waited on
        // before either is judged, and the version probe is judged first.
        let version = start_probe(&config.cc, ["--version"], "--version");
        let target_args = flags
            .iter()
            .map(String::as_str)
            .chain(["-Q", "--help=target"]);
        let target = start_probe(&config.cc, target_args, "-Q --help=target");
        let (version, target) = (version(), target());
        let probe = version?;
        if !probe.status.success() {
            return Err(JitError::VersionFailed {
                cc: config.cc.clone(),
                status: probe.status,
                stderr: String::from_utf8_lossy(&probe.stderr).trim().to_string(),
            });
        }
        let version_line = String::from_utf8_lossy(&probe.stdout)
            .lines()
            .next()
            .unwrap_or("")
            .trim()
            .to_string();
        if version_line.is_empty() {
            return Err(JitError::NoVersionLine {
                cc: config.cc.clone(),
            });
        }
        let target = resolve_target(&config.cc, &flags, target?)?;
        let salt = format!("{version_line} | {} | {target}", flags.join(" "));
        fs::create_dir_all(&config.cache_dir).map_err(|e| JitError::CacheDir {
            dir: config.cache_dir.clone(),
            message: e.to_string(),
        })?;
        let shared = Shared {
            config,
            salt,
            deadline,
            closed: AtomicBool::new(false),
            stats: Mutex::new(CacheStats::default()),
            units: Mutex::new(Units::default()),
            changed: Condvar::new(),
        };
        shared.evict_stale_salt();
        shared.refresh_cache_bytes();
        Ok(JitEngine {
            shared: Arc::new(shared),
        })
    }

    /// The compiler-identity salt mixed into every cache key.
    pub fn salt(&self) -> &str {
        &self.shared.salt
    }

    /// A snapshot of the cache counters.
    pub fn stats(&self) -> CacheStats {
        lock(&self.shared.stats).clone()
    }

    /// Where the module for `source` stands, without waiting: loaded (an
    /// in-memory hit), failed, or queued — a unit the engine has not seen
    /// is queued by this call for the compile thread, which serves it from
    /// the disk cache or builds it, at most once per `(salt, source)` across
    /// all processes sharing the cache directory. `label` heads the entry's
    /// `.log` and is not part of the key.
    pub fn request(&self, label: &str, source: &str) -> ModuleStatus {
        let hash = self.shared.entry_hash(source);
        self.status(&mut lock(&self.shared.units), &hash, label, source)
    }

    /// [`JitEngine::request`], then wait for the compile thread.
    ///
    /// # Errors
    ///
    /// Why the module could not be built or loaded; the compiler's stderr
    /// is in [`JitError::Compile`] and in the entry's `.log`.
    pub fn wait(&self, label: &str, source: &str) -> Result<Arc<ModuleHandle>, JitError> {
        let hash = self.shared.entry_hash(source);
        let mut units = lock(&self.shared.units);
        let mut status = self.status(&mut units, &hash, label, source);
        loop {
            match status {
                ModuleStatus::Ready(module) => return Ok(module),
                ModuleStatus::Failed(error) => return Err(error),
                ModuleStatus::Queued => {}
            }
            units = self
                .shared
                .changed
                .wait(units)
                .unwrap_or_else(PoisonError::into_inner);
            status = match (units.modules.get(&hash), units.builds.get(&hash)) {
                (Some(module), _) => ModuleStatus::Ready(Arc::clone(module)),
                (None, Some(Some(error))) => ModuleStatus::Failed(error.clone()),
                (None, Some(None)) => ModuleStatus::Queued,
                // Built, then evicted before this thread woke.
                (None, None) => self.status(&mut units, &hash, label, source),
            };
        }
    }

    /// [`JitEngine::wait`] with the error rendered as text.
    ///
    /// # Errors
    ///
    /// Fails when the compiler rejects the source (its stderr is included
    /// and persisted to the entry's `.log`) or the freshly built object
    /// cannot be loaded.
    pub fn load(&self, label: &str, source: &str) -> Result<Arc<ModuleHandle>, String> {
        self.wait(label, source).map_err(|e| e.to_string())
    }

    /// The status of unit `hash`, queueing it if it is new.
    fn status(&self, units: &mut Units, hash: &str, label: &str, source: &str) -> ModuleStatus {
        if let Some(module) = units.modules.get(hash) {
            lock(&self.shared.stats).hits += 1;
            return ModuleStatus::Ready(Arc::clone(module));
        }
        match units.builds.get(hash) {
            Some(Some(error)) => return ModuleStatus::Failed(error.clone()),
            Some(None) => return ModuleStatus::Queued,
            None => {}
        }
        if !units.worker {
            let shared = Arc::clone(&self.shared);
            let started = std::thread::Builder::new()
                .name("sf-jit-compile".to_string())
                .spawn(move || shared.compile_loop());
            if let Err(e) = started {
                let error = JitError::Spawn {
                    program: "the compile thread".to_string(),
                    kind: e.kind(),
                };
                units.builds.insert(hash.to_string(), Some(error.clone()));
                return ModuleStatus::Failed(error);
            }
            units.worker = true;
        }
        units.builds.insert(hash.to_string(), None);
        let queued = (hash.to_string(), label.to_string(), source.to_string());
        units.queue.push_back(queued);
        self.shared.changed.notify_all();
        ModuleStatus::Queued
    }

    /// Resolve a stage-sweep symbol from a loaded module, emitted to read
    /// slot `s` at width `slots[s]` (`None`: a scalar) and to store `out`
    /// cells; [`StageFn::sweep`] refuses any other.
    ///
    /// # Errors
    ///
    /// Fails when the symbol is absent from the module.
    pub fn stage_fn(
        &self,
        module: &Arc<ModuleHandle>,
        symbol: &str,
        slots: &[Option<Width>],
        out: Width,
    ) -> Result<StageFn, FfiError> {
        StageFn::resolve(module, symbol, slots, out)
    }
}

impl Drop for JitEngine {
    /// Closes the queue without waiting: the compile thread kills a running
    /// compiler and ends.
    fn drop(&mut self) {
        let _units = lock(&self.shared.units);
        self.shared.closed.store(true, Ordering::Release);
        self.shared.changed.notify_all();
    }
}

impl Shared {
    /// The compile thread: build queued units one at a time, oldest first,
    /// until the engine closes.
    fn compile_loop(&self) {
        loop {
            let (hash, label, source) = {
                let mut units = lock(&self.units);
                loop {
                    if self.closed.load(Ordering::Acquire) {
                        return;
                    }
                    if let Some(next) = units.queue.pop_front() {
                        break next;
                    }
                    units = self
                        .changed
                        .wait(units)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            let built = self.module(&hash, &label, &source);
            let mut units = lock(&self.units);
            match built {
                Ok(module) => {
                    units.builds.remove(&hash);
                    if units.modules.len() >= MODULE_CACHE_CAPACITY {
                        units.modules.clear();
                    }
                    units.modules.insert(hash, module);
                }
                Err(error) => {
                    units.builds.insert(hash, Some(error));
                }
            }
            drop(units);
            self.changed.notify_all();
        }
    }

    /// The module of one queued unit: its disk entry if intact, else built.
    fn module(&self, hash: &str, label: &str, source: &str) -> Result<Arc<ModuleHandle>, JitError> {
        if let Some(module) = self.open_cached(hash, source) {
            lock(&self.stats).hits += 1;
            // Touch the hit marker so LRU eviction sees recent use.
            let _ = fs::OpenOptions::new()
                .write(true)
                .open(self.entry_path(hash, "key"))
                .and_then(|f| f.set_modified(SystemTime::now()));
            return Ok(Arc::new(module));
        }
        self.build_entry(hash, label, source)?;
        ModuleHandle::open(&self.entry_path(hash, "so"))
            .map(Arc::new)
            .map_err(|e| JitError::Load {
                message: e.to_string(),
            })
    }

    /// The cache entry hash of `source` under this engine's salt; stable
    /// across processes, names the module-table entry and the disk entry.
    fn entry_hash(&self, source: &str) -> String {
        // Two independently seeded FNV-1a-64 passes give a 128-bit name; a
        // disk hit is still compared against the stored source.
        let lane = |basis| {
            let salted = fnv1a64(fnv1a64(basis, self.salt.as_bytes()), b"\n");
            fnv1a64(salted, source.as_bytes())
        };
        let (a, b) = (lane(FNV_BASIS), lane(FNV_BASIS ^ 0x9e37_79b9_7f4a_7c15));
        format!("{a:016x}{b:016x}")
    }

    /// The `.key` sidecar of an entry whose object is `so`: the salt (read
    /// back by [`Self::evict_stale_salt`]) and the object's length and hash.
    fn key_material(&self, so: &[u8]) -> String {
        let hash = fnv1a64(FNV_BASIS, so);
        format!("{}\n{} {hash:016x}\n", self.salt, so.len())
    }

    fn entry_path(&self, hash: &str, ext: &str) -> PathBuf {
        self.config.cache_dir.join(format!("{hash}.{ext}"))
    }

    /// Open the disk entry `hash` if it is intact: its sidecar must name
    /// this salt and exactly the `.so` on disk, its `.c` must be `source`.
    /// `None` — no entry, a torn write, a damaged object, one `dlopen`
    /// refuses — means build (which drops whatever was there).
    fn open_cached(&self, hash: &str, source: &str) -> Option<ModuleHandle> {
        let so_path = self.entry_path(hash, "so");
        let key = fs::read_to_string(self.entry_path(hash, "key")).ok()?;
        if key != self.key_material(&fs::read(&so_path).ok()?)
            || fs::read(self.entry_path(hash, "c")).ok()? != source.as_bytes()
        {
            return None;
        }
        ModuleHandle::open(&so_path).ok()
    }

    fn build_entry(&self, hash: &str, label: &str, source: &str) -> Result<(), JitError> {
        let c_path = self.entry_path(hash, "c");
        let so_path = self.entry_path(hash, "so");
        let key_path = self.entry_path(hash, "key");
        let log_path = self.entry_path(hash, "log");
        // A rebuild over a damaged entry must first drop the old hit
        // marker, so a crash mid-build leaves a miss, never a wrong hit.
        let _ = fs::remove_file(&key_path);
        write_atomic(&c_path, source.as_bytes())?;
        // The compiler writes its diagnostics straight into the log, after
        // the line that says who caused the build.
        let mut log = fs::File::create(&log_path).map_err(cache_error(&log_path))?;
        writeln!(log, "built for `{label}`").map_err(cache_error(&log_path))?;
        let so_tmp = unique_tmp(&so_path);
        let mut cmd = Command::new(&self.config.cc);
        cmd.args(BASE_CFLAGS.iter())
            .args(self.config.extra_flags.iter())
            .arg("-o")
            .arg(&so_tmp)
            .arg(&c_path)
            .arg("-lm")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        ffi::demote(&mut cmd);
        {
            let mut stats = lock(&self.stats);
            stats.misses += 1;
            stats.cc_invocations += 1;
        }
        let status = self.run_to_deadline(cmd);
        if !status.as_ref().is_ok_and(ExitStatus::success) {
            let _ = fs::remove_file(&so_tmp);
            let text = fs::read_to_string(&log_path).unwrap_or_default();
            let log = text.split_once('\n').map_or("", |(_, rest)| rest);
            let log = log.trim().to_string();
            return Err(status.map_or_else(|e| e, |status| JitError::Compile { status, log }));
        }
        let so = fs::read(&so_tmp)
            .map_err(cache_error(&so_tmp))
            .and_then(|so| {
                fs::rename(&so_tmp, &so_path).map_err(cache_error(&so_path))?;
                Ok(so)
            });
        if so.is_err() {
            // Nothing lists or evicts a scratch object: drop it here.
            let _ = fs::remove_file(&so_tmp);
        }
        let so = so?;
        // The `.key` sidecar is the commit point: written last, atomically.
        write_atomic(&key_path, self.key_material(&so).as_bytes())?;
        self.enforce_byte_bound(hash);
        self.refresh_cache_bytes();
        Ok(())
    }

    /// Run the compiler to its end, looking at it every [`CC_POLL`]; at the
    /// deadline, or when the engine closes, it is killed.
    fn run_to_deadline(&self, mut cmd: Command) -> Result<ExitStatus, JitError> {
        let refused = |e: std::io::Error| JitError::Spawn {
            program: self.config.cc.clone(),
            kind: e.kind(),
        };
        let mut child = cmd.spawn().map_err(refused)?;
        let started = Instant::now();
        loop {
            let exited = child.try_wait();
            let after = started.elapsed();
            if let Ok(Some(status)) = exited {
                return Ok(status);
            }
            let over = after >= self.deadline || self.closed.load(Ordering::Acquire);
            if over || exited.is_err() {
                let _ = child.kill();
                let _ = child.wait();
                return Err(exited.map_or_else(refused, |_| JitError::Timeout { after }));
            }
            std::thread::sleep(CC_POLL);
        }
    }

    /// Remove every entry whose sidecar was written under a different
    /// salt (compiler upgrade, flag change, a host whose target resolves
    /// differently). Runs once at engine start.
    fn evict_stale_salt(&self) {
        let mut evicted = 0u64;
        for (hash, key_path) in self.cache_keys() {
            let stale = match fs::read_to_string(&key_path) {
                Ok(stored) => stored.lines().next().unwrap_or("") != self.salt,
                Err(_) => true,
            };
            if stale {
                self.remove_entry(&hash);
                evicted += 1;
            }
        }
        if evicted > 0 {
            lock(&self.stats).evictions += evicted;
        }
    }

    /// Drop least-recently-used entries (by `.key` mtime) until the cache
    /// is within its byte bound; the entry named `keep` (the one just
    /// built) is never evicted.
    fn enforce_byte_bound(&self, keep: &str) {
        let mut entries: Vec<(String, SystemTime, u64)> = Vec::new();
        for (hash, key_path) in self.cache_keys() {
            let mtime = fs::metadata(&key_path)
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH);
            entries.push((hash.clone(), mtime, self.entry_bytes(&hash)));
        }
        let mut total: u64 = entries.iter().map(|(_, _, b)| b).sum();
        entries.sort_by_key(|(_, mtime, _)| *mtime);
        let mut evicted = 0u64;
        for (hash, _, bytes) in entries {
            if total <= self.config.max_cache_bytes {
                break;
            }
            if hash == keep {
                continue;
            }
            self.remove_entry(&hash);
            total = total.saturating_sub(bytes);
            evicted += 1;
        }
        if evicted > 0 {
            lock(&self.stats).evictions += evicted;
        }
    }

    /// `(hash, key-path)` for every committed entry in the cache dir.
    fn cache_keys(&self) -> Vec<(String, PathBuf)> {
        let mut keys = Vec::new();
        let Ok(dir) = fs::read_dir(&self.config.cache_dir) else {
            return keys;
        };
        for entry in dir.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) == Some("key") {
                if let Some(hash) = path.file_stem().and_then(|s| s.to_str()) {
                    keys.push((hash.to_string(), path.clone()));
                }
            }
        }
        keys
    }

    fn entry_bytes(&self, hash: &str) -> u64 {
        ["c", "so", "key", "log"]
            .iter()
            .filter_map(|ext| fs::metadata(self.entry_path(hash, ext)).ok())
            .map(|m| m.len())
            .sum()
    }

    fn remove_entry(&self, hash: &str) {
        // Sidecar first: once the hit marker is gone the entry is a miss
        // even if later removals fail.
        for ext in ["key", "so", "c", "log"] {
            let _ = fs::remove_file(self.entry_path(hash, ext));
        }
        lock(&self.units).modules.remove(hash);
    }

    fn refresh_cache_bytes(&self) {
        let total: u64 = self
            .cache_keys()
            .iter()
            .map(|(hash, _)| self.entry_bytes(hash))
            .sum();
        lock(&self.stats).cache_bytes = total;
    }
}

/// The [`JitError::Cache`] of an I/O failure on `path`.
fn cache_error(path: &Path) -> impl FnOnce(std::io::Error) -> JitError + '_ {
    move |e| JitError::Cache {
        path: path.to_path_buf(),
        kind: e.kind(),
    }
}

/// The standard FNV-1a-64 offset basis.
const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes` from an explicit offset basis (seeding the basis
/// differently yields an independent hash stream).
fn fnv1a64(basis: u64, bytes: &[u8]) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Start `cc args` with no input and both output streams captured; the
/// returned closure waits for it. `what` completes the command's name in
/// a [`JitError::ProbeSpawn`].
fn start_probe<'a>(
    cc: &str,
    args: impl IntoIterator<Item = &'a str>,
    what: &str,
) -> impl FnOnce() -> Result<Output, JitError> {
    let command = format!("{cc} {what}");
    let child = Command::new(cc)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn();
    move || {
        child
            .and_then(Child::wait_with_output)
            .map_err(|e| JitError::ProbeSpawn {
                command,
                message: e.to_string(),
            })
    }
}

/// The target `flags` make `cc` build for on this host, as `-march=<cpu>`
/// plus a hash of the compiler's whole target-option report (`probe`, the
/// output of `-Q --help=target` under the same flags: ISA extensions,
/// tuning, cache sizes), so two hosts that name the same CPU but enable
/// different extensions still resolve differently. Probed once per engine.
fn resolve_target(cc: &str, flags: &[String], probe: Output) -> Result<String, JitError> {
    let report = String::from_utf8_lossy(&probe.stdout);
    let march = report
        .lines()
        .find_map(|line| line.trim_start().strip_prefix("-march="))
        .map(str::trim)
        .filter(|march| probe.status.success() && !march.is_empty())
        .ok_or_else(|| JitError::MarchUnresolved {
            cc: cc.to_string(),
            flags: flags.join(" "),
            stderr: String::from_utf8_lossy(&probe.stderr).trim().to_string(),
        })?;
    Ok(format!(
        "-march={march} {:016x}",
        fnv1a64(FNV_BASIS, &probe.stdout)
    ))
}

/// A scratch name beside `path` that no other build of the same entry —
/// another thread under another label, another process — is writing.
fn unique_tmp(path: &Path) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(format!("{}.{}-{n}", path.display(), std::process::id()))
}

/// Write `bytes` to `path` atomically (a scratch file, then rename), so a
/// concurrent reader sees either the old content or the new, never a torn
/// file.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), JitError> {
    let tmp = unique_tmp(path);
    let written = fs::write(&tmp, bytes).map_err(cache_error(&tmp));
    let written = written.and_then(|()| fs::rename(&tmp, path).map_err(cache_error(path)));
    if written.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    written
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static TEST_DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

    fn test_config() -> JitConfig {
        let n = TEST_DIR_COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir = std::env::temp_dir().join(format!("sf-jit-test-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        JitConfig {
            cache_dir: dir,
            max_cache_bytes: DEFAULT_MAX_CACHE_BYTES,
            cc: std::env::var("SF_JIT_CC").unwrap_or_else(|_| "cc".to_string()),
            extra_flags: Vec::new(),
        }
    }

    const STAGE_SOURCE: &str = "#include <stdint.h>\n\
        void sf_stage_0(const void *const *sf_slots, const double *sf_scalars,\n\
                        const int64_t *sf_ss0, const int64_t *sf_ss1,\n\
                        void *restrict sf_out, int64_t sf_os0, int64_t sf_os1,\n\
                        int64_t sf_n0, int64_t sf_n1, int64_t sf_nk) {\n\
            for (int64_t i0 = 0; i0 < sf_n0; ++i0) {\n\
                for (int64_t i1 = 0; i1 < sf_n1; ++i1) {\n\
                    const double *sf_p0 = (const double *)sf_slots[0] + i0 * sf_ss0[0] + i1 * sf_ss1[0];\n\
                    double *sf_o = (double *)sf_out + i0 * sf_os0 + i1 * sf_os1;\n\
                    for (int64_t sf_k = 0; sf_k < sf_nk; ++sf_k) {\n\
                        sf_o[sf_k] = sf_p0[sf_k] * sf_scalars[1];\n\
                    }\n\
                }\n\
            }\n\
        }\n";

    /// [`STAGE_SOURCE`] with another sweep: the same symbol, another
    /// module.
    fn stage_source_b() -> String {
        STAGE_SOURCE.replace("sf_scalars[1];", "sf_scalars[1] + 1.0;")
    }

    /// [`STAGE_SOURCE`]'s slots: an `f64` tap, then a scalar.
    const STAGE_SLOTS: [Option<Width>; 2] = [Some(Width::F64), None];

    /// A tap over `buf` as [`geometry`] sweeps it.
    fn tap(buf: Cells<'_>) -> SlotArg<'_> {
        SlotArg::Tap {
            buf,
            base: 0,
            s0: 12,
            s1: 4,
        }
    }

    /// A sweep of 2 × 3 rows of 4 cells into `out`: 24 cells, row by row.
    fn geometry(out: CellsMut<'_>) -> SweepArgs<'_> {
        SweepArgs {
            out,
            out_base: 0,
            out_s0: 12,
            out_s1: 4,
            n0: 2,
            n1: 3,
            nk: 4,
        }
    }

    /// What `module`'s `sf_stage_0` ([`STAGE_SOURCE`] or
    /// [`stage_source_b`]) writes from tap cells `0, 1, ..., 23` and scalar
    /// `3.0`, per cell over `3·cell`.
    fn swept(engine: &JitEngine, module: &Arc<ModuleHandle>) -> Vec<f64> {
        let stage = engine
            .stage_fn(module, "sf_stage_0", &STAGE_SLOTS, Width::F64)
            .expect("symbol");
        let input: Vec<f64> = (0..24).map(f64::from).collect();
        let mut out = vec![0.0; 24];
        let slots = [tap(Cells::F64(&input)), SlotArg::Scalar(3.0)];
        let mut args = geometry(CellsMut::F64(&mut out));
        (stage.sweep(slots, &mut args, &mut SweepBuffers::default())).expect("sweep");
        (out.iter().enumerate())
            .map(|(cell, v)| v - 3.0 * cell as f64)
            .collect()
    }

    #[test]
    fn stage_sweep_runs_and_validates_bounds() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        let module = engine.load("stage-basic", STAGE_SOURCE).expect("load");
        let stats = engine.stats();
        assert_eq!((stats.misses, stats.cc_invocations), (1, 1));
        assert!(stats.cache_bytes > 0);
        assert_eq!(swept(&engine, &module), [0.0; 24]);

        // Geometry that reaches past the buffer must be rejected in safe
        // code, not dereferenced.
        let stage = engine
            .stage_fn(&module, "sf_stage_0", &STAGE_SLOTS, Width::F64)
            .expect("symbol");
        let input: Vec<f64> = (0..24).map(f64::from).collect();
        let slots = [tap(Cells::F64(&input)), SlotArg::Scalar(3.0)];
        let mut short = vec![0.0; 23];
        let mut bad = geometry(CellsMut::F64(&mut short));
        let mut buffers = SweepBuffers::default();
        let refused = stage.sweep(slots, &mut bad, &mut buffers).unwrap_err();
        assert_eq!(
            refused,
            SweepError::OutputOutOfBounds {
                base: 0,
                strides: (12, 4),
                extents: [2, 3, 4],
                len: 23,
            }
        );
        assert_eq!(
            refused.to_string(),
            "output out of bounds: base 0 strides (12, 4) over 2x3x4 exceeds buffer of 23"
        );
        // Taps are checked first, in slot order.
        let refused = stage
            .sweep(
                [tap(Cells::F64(&input[..20])), slots[1]],
                &mut bad,
                &mut buffers,
            )
            .unwrap_err();
        assert_eq!(
            refused,
            SweepError::TapOutOfBounds {
                slot: 0,
                base: 0,
                strides: (12, 4),
                extents: [2, 3, 4],
                len: 20,
            }
        );
        let _ = fs::remove_dir_all(dir);
    }

    /// [`STAGE_SOURCE`] over `float` cells.
    fn stage_source_f32() -> String {
        let source = STAGE_SOURCE.replace("double", "float");
        source.replace("const float *sf_scalars", "const double *sf_scalars")
    }

    #[test]
    fn stage_sweep_refuses_buffers_of_another_width() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        let narrow = engine.load("stage-f32", &stage_source_f32()).expect("load");
        let wide = engine.load("stage-f64", STAGE_SOURCE).expect("load");
        let f32_slots = [Some(Width::F32), None];
        let narrow =
            (engine.stage_fn(&narrow, "sf_stage_0", &f32_slots, Width::F32)).expect("symbol");
        let wide =
            (engine.stage_fn(&wide, "sf_stage_0", &STAGE_SLOTS, Width::F64)).expect("symbol");
        let in32: Vec<f32> = (0..24).map(|i| i as f32).collect();
        let in64: Vec<f64> = (0..24).map(f64::from).collect();
        let mut buffers = SweepBuffers::default();
        // The sentinel survives every refusal: nothing was dereferenced,
        // nothing stored.
        let (mut out32, mut out64) = (vec![-1.0f32; 24], vec![-1.0f64; 24]);
        let refusals = [
            // An `f64` buffer to the `f32` slot, and the reverse.
            (
                narrow.sweep(
                    [tap(Cells::F64(&in64)), SlotArg::Scalar(3.0)],
                    &mut geometry(CellsMut::F32(&mut out32)),
                    &mut buffers,
                ),
                SweepError::SlotWidth {
                    slot: 0,
                    expected: Some(Width::F32),
                    found: Some(Width::F64),
                },
            ),
            (
                wide.sweep(
                    [tap(Cells::F32(&in32)), SlotArg::Scalar(3.0)],
                    &mut geometry(CellsMut::F64(&mut out64)),
                    &mut buffers,
                ),
                SweepError::SlotWidth {
                    slot: 0,
                    expected: Some(Width::F64),
                    found: Some(Width::F32),
                },
            ),
            // A scalar where the body reads a tap.
            (
                wide.sweep(
                    [SlotArg::Scalar(1.0), SlotArg::Scalar(3.0)],
                    &mut geometry(CellsMut::F64(&mut out64)),
                    &mut buffers,
                ),
                SweepError::SlotWidth {
                    slot: 0,
                    expected: Some(Width::F64),
                    found: None,
                },
            ),
            // Outputs of the other width, either way.
            (
                narrow.sweep(
                    [tap(Cells::F32(&in32)), SlotArg::Scalar(3.0)],
                    &mut geometry(CellsMut::F64(&mut out64)),
                    &mut buffers,
                ),
                SweepError::OutputWidth {
                    expected: Width::F32,
                    found: Width::F64,
                },
            ),
            (
                wide.sweep(
                    [tap(Cells::F64(&in64)), SlotArg::Scalar(3.0)],
                    &mut geometry(CellsMut::F32(&mut out32)),
                    &mut buffers,
                ),
                SweepError::OutputWidth {
                    expected: Width::F64,
                    found: Width::F32,
                },
            ),
            // A slot short.
            (
                wide.sweep(
                    [tap(Cells::F64(&in64))],
                    &mut geometry(CellsMut::F64(&mut out64)),
                    &mut buffers,
                ),
                SweepError::SlotCount {
                    expected: 2,
                    found: 1,
                },
            ),
        ];
        for (refused, want) in refusals {
            assert_eq!(refused, Err(want));
        }
        assert!(out32.iter().all(|&v| v == -1.0));
        assert!(out64.iter().all(|&v| v == -1.0));
        // At its own widths the narrow stage sweeps.
        narrow
            .sweep(
                [tap(Cells::F32(&in32)), SlotArg::Scalar(3.0)],
                &mut geometry(CellsMut::F32(&mut out32)),
                &mut buffers,
            )
            .expect("sweep");
        for (i, v) in out32.iter().enumerate() {
            assert_eq!(*v, i as f32 * 3.0, "cell {i}");
        }
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn second_engine_hits_disk_cache_without_invoking_cc() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        {
            let engine = JitEngine::new(config.clone()).expect("engine");
            engine.load("shared-entry", STAGE_SOURCE).expect("load");
            assert_eq!(engine.stats().cc_invocations, 1);
        }
        // Fresh engine, same directory: must be a pure disk hit.
        let engine = JitEngine::new(config).expect("engine");
        let module = engine.load("shared-entry", STAGE_SOURCE).expect("load");
        assert_eq!(swept(&engine, &module), [0.0; 24]);
        let stats = engine.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.cc_invocations, 0, "warm cache must never recompile");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn one_label_with_two_sources_yields_two_modules() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        let a = engine.load("same-label", STAGE_SOURCE).expect("load a");
        let b = engine
            .load("same-label", &stage_source_b())
            .expect("load b");
        assert_eq!(swept(&engine, &a), [0.0; 24]);
        assert_eq!(swept(&engine, &b), [1.0; 24]);
        assert_eq!(engine.stats().cc_invocations, 2);
        assert_ne!(
            engine.shared.entry_hash(STAGE_SOURCE),
            engine.shared.entry_hash(&stage_source_b())
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn two_labels_with_one_source_compile_once() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config.clone()).expect("engine");
        engine.load("first-label", STAGE_SOURCE).expect("load");
        engine.load("second-label", STAGE_SOURCE).expect("load");
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.cc_invocations), (1, 1));
        drop(engine);
        // Neither the in-process table nor the disk entry knows the label.
        let engine = JitEngine::new(config).expect("engine");
        engine.load("third-label", STAGE_SOURCE).expect("load");
        assert_eq!(engine.stats().cc_invocations, 0);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 4, "one c/so/key/log");
        let log = dir.join(format!("{}.log", engine.shared.entry_hash(STAGE_SOURCE)));
        assert!(
            fs::read_to_string(log).unwrap().contains("first-label"),
            "the log names who caused the build"
        );
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn damaged_cache_entries_are_rebuilt_not_reported() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config.clone()).expect("engine");
        engine.load("damaged", STAGE_SOURCE).expect("load");
        let hash = engine.shared.entry_hash(STAGE_SOURCE);
        drop(engine);
        let path = |ext: &str| dir.join(format!("{hash}.{ext}"));
        let intact = fs::read(path("so")).unwrap();

        type Damage<'a> = &'a dyn Fn(&JitEngine);
        let truncated: Damage = &|_| fs::write(path("so"), &intact[..intact.len() / 2]).unwrap();
        let empty: Damage = &|_| fs::write(path("so"), b"").unwrap();
        let flipped: Damage = &|_| {
            let mut bytes = intact.clone();
            let last = bytes.len() - 1;
            bytes[last] ^= 1;
            fs::write(path("so"), bytes).unwrap();
        };
        // A sidecar that vouches for an object `dlopen` refuses.
        let unloadable: Damage = &|engine| {
            fs::write(path("so"), b"not an object").unwrap();
            fs::write(path("key"), engine.shared.key_material(b"not an object")).unwrap();
        };
        // As if another source had hashed into this entry, or the `.c`
        // write was torn.
        let other_source: Damage = &|_| fs::write(path("c"), stage_source_b()).unwrap();

        for damage in [truncated, empty, flipped, unloadable, other_source] {
            let engine = JitEngine::new(config.clone()).expect("engine");
            damage(&engine);
            let module = engine
                .load("damaged", STAGE_SOURCE)
                .expect("rebuilt, not reported");
            assert_eq!(swept(&engine, &module), [0.0; 24]);
            let stats = engine.stats();
            assert_eq!((stats.hits, stats.cc_invocations), (0, 1));
            assert_eq!(
                fs::read_to_string(path("key")).unwrap(),
                engine.shared.key_material(&fs::read(path("so")).unwrap()),
                "the rebuild must leave a committed, self-consistent entry"
            );
            assert_eq!(fs::read(path("c")).unwrap(), STAGE_SOURCE.as_bytes());
        }
        // A torn sidecar names no salt: evicted at start, then a miss.
        fs::write(path("key"), "").unwrap();
        let engine = JitEngine::new(config).expect("engine");
        engine.load("damaged", STAGE_SOURCE).expect("load");
        let stats = engine.stats();
        assert_eq!((stats.hits, stats.cc_invocations), (0, 1));
        let _ = fs::remove_dir_all(dir);
    }

    /// `engine`'s unit of [`STAGE_SOURCE`] fails with a
    /// [`JitError::Cache`] on the file `is_path` accepts; asked again, it
    /// answers the kept failure without another compiler run.
    fn fails_on_a_cache_file(engine: &JitEngine, is_path: impl Fn(&Path) -> bool) {
        let err = engine
            .wait("cache-fault", STAGE_SOURCE)
            .expect_err("the entry cannot be written");
        let JitError::Cache { path, .. } = &err else {
            panic!("expected a cache error, got {err:?}");
        };
        assert!(is_path(path), "{err}");
        assert!(err.to_string().contains(&path.display().to_string()));
        let runs = engine.stats().cc_invocations;
        assert!(matches!(
            engine.request("cache-fault", STAGE_SOURCE),
            ModuleStatus::Failed(JitError::Cache { .. })
        ));
        assert_eq!(engine.stats().cc_invocations, runs);
    }

    #[test]
    fn a_removed_cache_directory_fails_the_unit_as_a_cache_error() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        fs::remove_dir_all(&dir).unwrap();
        let hash = engine.shared.entry_hash(STAGE_SOURCE);
        // The first write of the entry, the source's scratch file, fails.
        fails_on_a_cache_file(&engine, |path| {
            let name = path.file_name().unwrap().to_string_lossy();
            path.parent() == Some(&dir) && name.starts_with(&format!("{hash}.c."))
        });
        assert_eq!(engine.stats().cc_invocations, 0);
    }

    #[test]
    fn a_directory_in_an_entry_files_place_fails_the_unit_as_a_cache_error() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        let so = dir.join(format!("{}.so", engine.shared.entry_hash(STAGE_SOURCE)));
        fs::create_dir(&so).unwrap();
        // The compiler runs; moving its object into place fails.
        fails_on_a_cache_file(&engine, |path| path == so);
        assert_eq!(engine.stats().cc_invocations, 1);
        // The failed build leaves no scratch file (`<name>.<pid>-<n>`).
        let scratch = format!(".{}-", std::process::id());
        let left: Vec<_> = (fs::read_dir(&dir).unwrap().flatten())
            .map(|entry| entry.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(&scratch))
            .collect();
        assert!(left.is_empty(), "scratch files left behind: {left:?}");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn salt_change_evicts_stale_entries() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        {
            let engine = JitEngine::new(config.clone()).expect("engine");
            engine.load("salted", STAGE_SOURCE).expect("load");
        }
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 4, "c/so/key/log");

        // A flag change is a salt change: the old entry must be evicted at
        // engine start and the load must recompile.
        let mut changed = config;
        changed.extra_flags = vec!["-DSF_SALT_CHANGE".to_string()];
        let engine = JitEngine::new(changed).expect("engine");
        assert_eq!(
            fs::read_dir(&dir).unwrap().count(),
            0,
            "stale-salt entries must be gone after engine init"
        );
        engine.load("salted", STAGE_SOURCE).expect("load");
        let stats = engine.stats();
        assert!(stats.evictions >= 1);
        assert_eq!(stats.cc_invocations, 1);
        assert_eq!(stats.hits, 0);
        let _ = fs::remove_dir_all(dir);
    }

    /// The `-march=` value the salt records, `None` if it records none.
    fn resolved_march(engine: &JitEngine) -> Option<&str> {
        let target = engine.salt().rsplit(" | ").next()?;
        target.strip_prefix("-march=")?.split(' ').next()
    }

    #[test]
    fn salt_carries_the_resolved_target_not_the_literal_native() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        assert!(engine.salt().contains("-march=native"), "{}", engine.salt());
        let march = resolved_march(&engine).expect("the salt names the resolved target");
        assert!(!march.is_empty() && march != "native", "{}", engine.salt());
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn another_target_resolves_differently_and_evicts_as_stale() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let native = JitEngine::new(config.clone()).expect("engine");
        native.load("host-isa", STAGE_SOURCE).expect("load");
        let native_march = resolved_march(&native).unwrap().to_string();
        drop(native);

        // What another CPU sharing the directory looks like: the probe runs
        // under the full flag set, so the appended `-march` wins.
        let mut baseline = config;
        baseline.extra_flags = vec!["-march=x86-64".to_string()];
        let engine = JitEngine::new(baseline).expect("engine");
        assert_eq!(resolved_march(&engine), Some("x86-64"));
        assert_ne!(native_march, "x86-64");
        assert_eq!(engine.stats().evictions, 1, "the host-ISA entry is stale");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let module = engine.load("host-isa", STAGE_SOURCE).expect("load");
        assert_eq!(swept(&engine, &module), [0.0; 24]);
        assert_eq!(engine.stats().cc_invocations, 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn byte_bound_evicts_least_recently_used_entry() {
        let mut config = test_config();
        let dir = config.cache_dir.clone();
        // Far below the size of a single entry: every new build must push
        // out everything older than itself.
        config.max_cache_bytes = 1;
        let engine = JitEngine::new(config).expect("engine");
        engine.load("lru-a", STAGE_SOURCE).expect("load");
        let hash_a = engine.shared.entry_hash(STAGE_SOURCE);
        engine.load("lru-b", &stage_source_b()).expect("load");
        let hash_b = engine.shared.entry_hash(&stage_source_b());
        assert!(
            !dir.join(format!("{hash_a}.key")).exists(),
            "oldest entry must be evicted when over the byte bound"
        );
        assert!(
            dir.join(format!("{hash_b}.so")).exists(),
            "the just-built entry must survive"
        );
        assert!(engine.stats().evictions >= 1);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn compile_error_reports_compiler_stderr() {
        let config = test_config();
        let dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("engine");
        let err = engine
            .load(
                "broken",
                "double sf_broken(const double *s) { return undeclared_symbol; }\n",
            )
            .expect_err("must fail");
        assert!(
            err.contains("undeclared_symbol"),
            "compiler stderr must be surfaced, got: {err}"
        );
        let _ = fs::remove_dir_all(dir);
    }

    /// A stand-in compiler in `dir`: it answers the version and target
    /// probes like `cc`, and runs the shell command `build` when asked to
    /// compile.
    fn fake_cc(dir: &Path, build: &str) -> String {
        fake_script(
            dir,
            &format!(
                "case \"$*\" in\n\
                 *--version*) echo 'fake-cc 1.0' ;;\n\
                 *--help=target*) echo '  -march=                fake' ;;\n\
                 *) {build} ;;\nesac\n"
            ),
        )
    }

    /// A `/bin/sh` script running `body`, as a fake compiler.
    fn fake_script(dir: &Path, body: &str) -> String {
        use std::os::unix::fs::PermissionsExt;
        fs::create_dir_all(dir).unwrap();
        let path = dir.join("fake-cc");
        fs::write(&path, format!("#!/bin/sh\n{body}")).unwrap();
        fs::set_permissions(&path, fs::Permissions::from_mode(0o755)).unwrap();
        path.display().to_string()
    }

    /// Start an engine driving the fake compiler of `config`, with a short
    /// deadline. A child another test thread forks while the script is
    /// being written inherits its write handle until that child's `exec`,
    /// and running the script meanwhile fails with "text file busy".
    fn start_fake(config: &JitConfig) -> Result<JitEngine, JitError> {
        for _ in 0..100 {
            match JitEngine::with_deadline(config.clone(), Duration::from_millis(300)) {
                Err(JitError::ProbeSpawn { message, .. }) if message.contains("busy") => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                started => return started,
            }
        }
        panic!("the fake compiler stayed busy")
    }

    /// A private engine over a fresh cache directory driving a fake
    /// compiler, with a short deadline.
    fn fake_engine(build: &str) -> (JitEngine, PathBuf) {
        let mut config = test_config();
        let dir = config.cache_dir.clone();
        config.cc = fake_cc(&dir.with_extension("bin"), build);
        match start_fake(&config) {
            Ok(engine) => (engine, dir),
            Err(e) => panic!("the fake answers both probes: {e}"),
        }
    }

    fn remove_fake(dir: PathBuf) {
        let _ = fs::remove_dir_all(dir.with_extension("bin"));
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_compiler_past_the_deadline_is_killed_and_the_unit_fails_closed() {
        let (engine, dir) = fake_engine("exec sleep 30");
        assert!(matches!(
            engine.request("slow", STAGE_SOURCE),
            ModuleStatus::Queued
        ));
        let started = Instant::now();
        let err = engine.wait("slow", STAGE_SOURCE).expect_err("killed");
        assert!(matches!(err, JitError::Timeout { .. }), "{err}");
        assert!(started.elapsed() < Duration::from_secs(10));
        // The failure is kept: asking again starts no second compiler.
        assert!(matches!(
            engine.request("slow", STAGE_SOURCE),
            ModuleStatus::Failed(JitError::Timeout { .. })
        ));
        assert_eq!(engine.stats().cc_invocations, 1);
        remove_fake(dir);
    }

    #[test]
    fn a_failing_compiler_is_a_typed_error_carrying_its_log() {
        let (engine, dir) = fake_engine("echo 'fake-cc: refused' >&2; exit 3");
        match engine.wait("refused", STAGE_SOURCE) {
            Err(JitError::Compile { status, log }) => {
                assert_eq!(status.code(), Some(3));
                assert_eq!(log, "fake-cc: refused");
            }
            other => panic!("expected a compile error, got {other:?}"),
        }
        let hash = engine.shared.entry_hash(STAGE_SOURCE);
        assert!(
            !dir.join(format!("{hash}.key")).exists(),
            "nothing committed"
        );
        remove_fake(dir);
    }

    #[test]
    fn dropping_an_engine_does_not_wait_for_its_compiler() {
        let (engine, dir) = fake_engine("exec sleep 30");
        engine.request("in-flight", STAGE_SOURCE);
        // Let the compile thread start the compiler.
        while engine.stats().cc_invocations == 0 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let started = Instant::now();
        drop(engine);
        assert!(started.elapsed() < Duration::from_millis(100));
        remove_fake(dir);
    }

    #[test]
    fn missing_compiler_is_a_loud_construction_error() {
        let mut config = test_config();
        config.cc = "definitely-not-a-compiler-sf".to_string();
        let err = JitEngine::try_from(config.clone()).expect_err("must fail");
        let command = "definitely-not-a-compiler-sf --version".to_string();
        assert!(
            matches!(&err, JitError::ProbeSpawn { command: c, .. } if *c == command),
            "{err:?}"
        );
        assert_eq!(
            JitEngine::new(config).expect_err("must fail"),
            err.to_string()
        );
    }

    /// Each way the engine's start fails is its own variant, and prints
    /// what the untyped probe used to, byte for byte.
    #[test]
    fn engine_start_failures_print_the_probe_text() {
        use std::os::unix::process::ExitStatusExt;
        let status = ExitStatus::from_raw(3 << 8);
        let cases = [
            (
                JitError::ProbeSpawn {
                    command: "cc --version".into(),
                    message: "No such file or directory (os error 2)".into(),
                },
                "cannot run `cc --version`: No such file or directory (os error 2)",
            ),
            (
                JitError::VersionFailed {
                    cc: "cc".into(),
                    status,
                    stderr: "bad".into(),
                },
                "`cc --version` failed with exit status: 3: bad",
            ),
            (
                JitError::NoVersionLine { cc: "cc".into() },
                "`cc --version` produced no output",
            ),
            (
                JitError::MarchUnresolved {
                    cc: "clang".into(),
                    flags: "-O2 -march=native".into(),
                    stderr: "unknown".into(),
                },
                "`clang -Q --help=target` does not say which -march -O2 -march=native \
                 resolves to: unknown",
            ),
            (
                JitError::CacheDir {
                    dir: PathBuf::from("/nonexistent/cache"),
                    message: "Permission denied (os error 13)".into(),
                },
                "cannot create JIT cache dir /nonexistent/cache: Permission denied (os error 13)",
            ),
        ];
        for (error, text) in cases {
            assert_eq!(error.to_string(), text);
        }
    }

    /// Start an engine on a fake compiler running `script`, expecting it
    /// to be refused.
    fn refused(script: &str) -> JitError {
        let mut config = test_config();
        let dir = config.cache_dir.clone();
        config.cc = fake_script(&dir.with_extension("bin"), script);
        let started = start_fake(&config);
        remove_fake(dir);
        started.expect_err("the probe fails")
    }

    /// A compiler whose `--version` fails, or prints nothing, or that
    /// cannot name its `-march`, is refused with the variant for that cause.
    #[test]
    fn each_failed_probe_is_its_own_variant() {
        let version = refused("echo 'no' >&2; exit 1");
        assert!(matches!(&version, JitError::VersionFailed { stderr, .. } if stderr == "no"));
        let silent = refused("exit 0");
        assert!(
            matches!(silent, JitError::NoVersionLine { .. }),
            "{silent:?}"
        );
        let march = refused(r#"case "$*" in *--version*) echo fake 1.0 ;; *) exit 0 ;; esac"#);
        assert!(
            matches!(march, JitError::MarchUnresolved { .. }),
            "{march:?}"
        );
    }

    /// The two probes run at once, but a failed `--version` is still the
    /// error reported when the target probe succeeds.
    #[test]
    fn a_failed_version_probe_is_reported_whatever_the_target_probe_says() {
        let version = refused(
            r#"case "$*" in *--version*) echo 'no' >&2; exit 1 ;; *) echo '  -march=  fake' ;; esac"#,
        );
        assert!(
            matches!(&version, JitError::VersionFailed { stderr, .. } if stderr == "no"),
            "{version:?}"
        );
    }
}
