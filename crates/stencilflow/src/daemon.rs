//! JSON-lines wire protocol for the resilient serving daemon.
//!
//! `stencilflow daemon` is a long-lived ingest loop: it reads one request
//! object per line from its input and writes one response object per line
//! to its output. The daemon core ([`stencilflow_reference::Daemon`])
//! stays free of I/O; this module owns every disk- and stream-facing
//! concern — request parsing, program/grid ingestion (the same
//! [`crate::ingest`] paths and `SFGS` framing the batch CLI uses).
//!
//! Requests (`op` selects the verb; unknown keys are rejected):
//!
//! * `{"op":"submit","id":ID,"tenant":T,"program":PATH,"grids":PATH,
//!   "steps":N,"tier":NAME,"soft_deadline_ms":N,"hard_timeout_ms":N,
//!   "out":PATH}` — admit one job. The response echoes the id with
//!   `"ok":true`, or `"ok":false` plus the structured reject code
//!   (`SF0401`..`SF0406`). Resilience gates that embed the loop with
//!   [`DaemonLoopOptions::with_fault_injection`] may add
//!   `"fault":"poison"|{"stall_ms":N}`; any other loop answers that key
//!   with an `error` line.
//! * `{"op":"manifest","path":PATH,"tenant":T}` — admit a whole serve
//!   manifest (the `stencilflow serve` format); jobs get ids derived
//!   from the entry label and index.
//! * `{"op":"dispatch"}` — run one earliest-deadline micro-batch and
//!   emit an `outcome` line per settled job.
//! * `{"op":"stats"}` — emit admission and executor counters.
//! * `{"op":"drain"}` — graceful shutdown: close admission, finish the
//!   queue, emit the remaining outcomes and a `drain` report. Later
//!   submits are rejected with `SF0406`.
//!
//! End of input always drains (idempotently), so piping a finite script
//! into the daemon leaves no job unsettled. A malformed line produces an
//! `{"op":"error",...}` response and the loop keeps reading — the daemon
//! never aborts on bad input.
//!
//! Outcome lines are sorted by job id within each dispatch/drain round,
//! so output is deterministic under concurrent workers. A job's tier is a
//! pure function of its program and its pin, so the loop keeps no tier
//! state across restarts.

use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::ingest;
use stencilflow_json::Json;
use stencilflow_reference::{
    Daemon, DaemonConfig, DaemonOutcome, DaemonRequest, DaemonStats, DrainReport, JobFault,
    JobSpec, JobStatus, Tier,
};

/// One parsed request line.
#[derive(Debug, Clone)]
pub enum Request {
    /// Admit one job.
    Submit(SubmitRequest),
    /// Admit a whole serve manifest.
    Manifest {
        /// Manifest path (entries resolve relative to it).
        path: PathBuf,
        /// Tenant the manifest's jobs bill against (default `manifest`).
        tenant: Option<String>,
    },
    /// Run one earliest-deadline micro-batch.
    Dispatch,
    /// Emit admission and executor counters.
    Stats,
    /// Graceful shutdown: close admission and work the queue down.
    Drain,
}

/// The fields of a `submit` request.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Caller-chosen id, unique among live jobs.
    pub id: String,
    /// Tenant the job bills against.
    pub tenant: String,
    /// Program description path (text JSON).
    pub program: PathBuf,
    /// Grid-set path (`SFGS` binary or the text escape hatch).
    pub grids: PathBuf,
    /// Time steps (default 1).
    pub steps: usize,
    /// Fixed tier override; `None` defers to the service policy.
    pub tier: Option<Tier>,
    /// Soft deadline from submission (EDF priority).
    pub soft_deadline: Option<Duration>,
    /// Hard timeout from submission.
    pub hard_timeout: Option<Duration>,
    /// Deterministic fault injection (only ever set by a loop embedded
    /// with [`DaemonLoopOptions::with_fault_injection`]).
    pub fault: Option<JobFault>,
    /// Where to write the outputs as a binary grid set.
    pub out: Option<PathBuf>,
}

/// Parse one request line as a default-configured loop does (a `fault`
/// key is rejected). Total over arbitrary input: every failure is a
/// structured message, never a panic — the fuzz suite holds this to
/// malformed JSON, wrong shapes, unknown ops/keys, and hostile numbers.
pub fn parse_request(line: &str) -> Result<Request, String> {
    parse_line(line, false)
}

fn parse_line(line: &str, fault_injection: bool) -> Result<Request, String> {
    let json = stencilflow_json::parse(line).map_err(|e| format!("malformed request: {e}"))?;
    let object = json
        .as_object()
        .ok_or_else(|| format!("request must be an object, found {}", json.type_name()))?;
    let op = json
        .get("op")
        .ok_or("missing `op`")?
        .as_str()
        .ok_or("`op` must be a string")?;
    match op {
        "submit" => parse_submit(&json, fault_injection),
        "manifest" => {
            check_keys(object, &["op", "path", "tenant"])?;
            let path = PathBuf::from(required_str(&json, "path")?);
            let tenant = optional_str(&json, "tenant")?;
            Ok(Request::Manifest { path, tenant })
        }
        "dispatch" => {
            check_keys(object, &["op"])?;
            Ok(Request::Dispatch)
        }
        "stats" => {
            check_keys(object, &["op"])?;
            Ok(Request::Stats)
        }
        "drain" => {
            check_keys(object, &["op"])?;
            Ok(Request::Drain)
        }
        other => Err(format!("unknown op `{other}`")),
    }
}

fn parse_submit(json: &Json, fault_injection: bool) -> Result<Request, String> {
    let object = json.as_object().expect("caller checked the shape");
    check_keys(
        object,
        &[
            "op",
            "id",
            "tenant",
            "program",
            "grids",
            "steps",
            "tier",
            "soft_deadline_ms",
            "hard_timeout_ms",
            "fault",
            "out",
        ],
    )?;
    let id = required_str(json, "id")?;
    if id.is_empty() {
        return Err("`id` must be non-empty".to_string());
    }
    let tenant = required_str(json, "tenant")?;
    if tenant.is_empty() {
        return Err("`tenant` must be non-empty".to_string());
    }
    let program = PathBuf::from(required_str(json, "program")?);
    let grids = PathBuf::from(required_str(json, "grids")?);
    let steps = match json.get("steps") {
        None => 1,
        Some(v) => v
            .as_usize()
            .filter(|&s| s >= 1)
            .ok_or("`steps` must be a positive integer")?,
    };
    let tier = match optional_str(json, "tier")? {
        None => None,
        Some(name) => Some(name.parse::<Tier>().map_err(|e| format!("`tier`: {e}"))?),
    };
    let soft_deadline = duration_ms(json, "soft_deadline_ms")?;
    let hard_timeout = duration_ms(json, "hard_timeout_ms")?;
    let fault = match json.get("fault") {
        None => None,
        Some(_) if !fault_injection => {
            return Err("`fault` is rejected: fault injection is not enabled on this daemon".into())
        }
        Some(Json::String(name)) if name == "poison" => Some(JobFault::Poison),
        Some(Json::String(name)) => return Err(format!("unknown fault `{name}`")),
        Some(value) => {
            let fields = value
                .as_object()
                .ok_or(r#"`fault` must be "poison" or {"stall_ms": N}"#)?;
            check_keys(fields, &["stall_ms"])?;
            let stall = duration_ms(value, "stall_ms")?
                .ok_or("`fault` object needs a `stall_ms` number")?;
            Some(JobFault::Stall(stall))
        }
    };
    let out = optional_str(json, "out")?.map(PathBuf::from);
    Ok(Request::Submit(SubmitRequest {
        id,
        tenant,
        program,
        grids,
        steps,
        tier,
        soft_deadline,
        hard_timeout,
        fault,
        out,
    }))
}

/// Reject unknown and duplicate keys — the same hardening the manifest
/// parser applies, so a typo fails loudly instead of being ignored.
fn check_keys(object: &[(String, Json)], allowed: &[&str]) -> Result<(), String> {
    let mut seen = std::collections::BTreeSet::new();
    for (key, _) in object {
        if !allowed.contains(&key.as_str()) {
            return Err(format!("unknown key `{key}`"));
        }
        if !seen.insert(key.as_str()) {
            return Err(format!("duplicate key `{key}`"));
        }
    }
    Ok(())
}

fn required_str(json: &Json, key: &str) -> Result<String, String> {
    optional_str(json, key)?.ok_or_else(|| format!("missing required key `{key}`"))
}

fn optional_str(json: &Json, key: &str) -> Result<Option<String>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_str()
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("`{key}` must be a string")),
    }
}

/// Millisecond durations arrive as JSON numbers; negatives, NaN, and
/// values outside `Duration`'s range are rejected before any conversion.
fn duration_ms(json: &Json, key: &str) -> Result<Option<Duration>, String> {
    match json.get(key) {
        None => Ok(None),
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|ms| ms.is_finite() && *ms >= 0.0)
                .ok_or_else(|| format!("`{key}` must be a non-negative number"))?;
            Duration::try_from_secs_f64(ms / 1e3)
                .map(Some)
                .map_err(|_| format!("`{key}` is out of range"))
        }
    }
}

/// Silence the default panic hook for *injected* poison faults only, so
/// resilience gates don't spray backtraces into logs; every real panic
/// still reports through the previous hook. (The panic itself is always
/// caught and isolated by the serving layer either way.)
pub fn quiet_injected_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("injected poison-job fault"));
        if !injected {
            previous(info);
        }
    }));
}

/// Transport configuration for [`run_loop`].
#[derive(Debug, Clone, Default)]
pub struct DaemonLoopOptions {
    /// The daemon configuration (queue, quotas, deadlines).
    pub config: DaemonConfig,
    /// Whether `submit` requests may carry a `fault` key. Off unless the
    /// embedding binary turns it on: nothing on the wire or the CLI can.
    pub fault_injection: bool,
}

impl DaemonLoopOptions {
    /// Default daemon configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the daemon configuration.
    pub fn with_config(mut self, config: DaemonConfig) -> Self {
        self.config = config;
        self
    }

    /// Accepted and ignored: there are no tier decisions to persist. Kept
    /// only because the frozen `benchmark/src/sut.rs` calls it; goes with
    /// the next benchmark re-anchor.
    pub fn with_tier_cache(self, _path: impl Into<PathBuf>) -> Self {
        self
    }

    /// Accept the `fault` key of `submit` requests (resilience gates and
    /// tests that embed the loop; a production daemon never calls this).
    pub fn with_fault_injection(mut self) -> Self {
        self.fault_injection = true;
        self
    }
}

/// What one [`run_loop`] session did, for the caller's exit code and
/// reporting.
#[derive(Debug)]
pub struct LoopSummary {
    /// Final admission/completion counters.
    pub stats: DaemonStats,
    /// The combined drain report (explicit `drain` ops plus the end-of-
    /// input drain).
    pub drain: DrainReport,
}

/// Run the daemon ingest loop until end of input. See the module docs
/// for the protocol. Errors are I/O failures on `output` only — bad
/// requests, rejections, and job failures are all in-band responses.
pub fn run_loop<R: BufRead, W: Write>(
    input: R,
    output: &mut W,
    options: DaemonLoopOptions,
) -> std::io::Result<LoopSummary> {
    let daemon = Daemon::new(options.config);
    let outs: Mutex<BTreeMap<String, PathBuf>> = Mutex::new(BTreeMap::new());
    let mut drain = DrainReport {
        clean: true,
        cancelled: 0,
    };
    for line in input.lines() {
        let Ok(line) = line else {
            // A broken input stream still gets the graceful path below.
            break;
        };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line, options.fault_injection) {
            Err(message) => respond(output, error_json(&message))?,
            Ok(Request::Submit(submit)) => handle_submit(&daemon, &outs, submit, output)?,
            Ok(Request::Manifest { path, tenant }) => {
                handle_manifest(&daemon, &path, tenant.as_deref(), output)?
            }
            Ok(Request::Dispatch) => {
                let (_, outcomes) = dispatch_round(&daemon, &outs);
                for (_, json) in outcomes {
                    respond(output, json)?;
                }
            }
            Ok(Request::Stats) => respond(output, stats_json(&daemon))?,
            Ok(Request::Drain) => {
                let report = drain_now(&daemon, &outs, output)?;
                drain.clean &= report.clean;
                drain.cancelled += report.cancelled;
            }
        }
    }
    // End of input always drains; a no-op when a `drain` op already ran
    // and nothing was submitted after it.
    let report = drain_now(&daemon, &outs, output)?;
    drain.clean &= report.clean;
    drain.cancelled += report.cancelled;
    Ok(LoopSummary {
        stats: daemon.stats(),
        drain,
    })
}

fn handle_submit<W: Write>(
    daemon: &Daemon,
    outs: &Mutex<BTreeMap<String, PathBuf>>,
    submit: SubmitRequest,
    output: &mut W,
) -> std::io::Result<()> {
    let loaded = ingest::load_program(&submit.program)
        .and_then(|program| ingest::load_grid_set(&submit.grids).map(|grids| (program, grids)));
    let (program, grids) = match loaded {
        Ok(pair) => pair,
        Err(e) => {
            return respond(
                output,
                obj(vec![
                    ("op", s("submit")),
                    ("id", s(&submit.id)),
                    ("ok", Json::Bool(false)),
                    ("error", s(e.to_string())),
                ]),
            )
        }
    };
    let mut job = JobSpec::new(program, Arc::new(grids)).with_steps(submit.steps);
    if let Some(tier) = submit.tier {
        job = job.with_tier(tier);
    }
    if let Some(fault) = submit.fault {
        job = job.with_fault(fault);
    }
    let mut request = DaemonRequest::new(&submit.id, &submit.tenant, job);
    if let Some(deadline) = submit.soft_deadline {
        request = request.with_soft_deadline(deadline);
    }
    if let Some(timeout) = submit.hard_timeout {
        request = request.with_hard_timeout(timeout);
    }
    match daemon.submit(request) {
        Ok(()) => {
            if let Some(path) = submit.out {
                outs.lock()
                    .expect("output registry poisoned")
                    .insert(submit.id.clone(), path);
            }
            respond(
                output,
                obj(vec![
                    ("op", s("submit")),
                    ("id", s(&submit.id)),
                    ("ok", Json::Bool(true)),
                ]),
            )
        }
        Err(reason) => respond(
            output,
            obj(vec![
                ("op", s("submit")),
                ("id", s(&submit.id)),
                ("ok", Json::Bool(false)),
                ("code", s(reason.code())),
                ("error", s(reason.to_string())),
            ]),
        ),
    }
}

fn handle_manifest<W: Write>(
    daemon: &Daemon,
    path: &Path,
    tenant: Option<&str>,
    output: &mut W,
) -> std::io::Result<()> {
    let manifest = match ingest::load_manifest(path) {
        Ok(manifest) => manifest,
        Err(e) => return respond(output, error_json(&e.to_string())),
    };
    let tenant = tenant.unwrap_or("manifest");
    let mut admitted = 0usize;
    let mut rejected = 0usize;
    for (ix, entry) in manifest.iter().enumerate() {
        let tier = match &entry.tier {
            None => None,
            Some(name) => match name.parse::<Tier>() {
                Ok(tier) => Some(tier),
                Err(e) => {
                    return respond(
                        output,
                        error_json(&format!("manifest job {ix}: `tier` {name}: {e}")),
                    )
                }
            },
        };
        for k in 0..entry.count {
            let mut job =
                JobSpec::new(entry.program.clone(), entry.inputs.clone()).with_steps(entry.steps);
            if let Some(tier) = tier {
                job = job.with_tier(tier);
            }
            let id = format!("{}#{ix}.{k}", entry.label);
            match daemon.submit(DaemonRequest::new(id, tenant, job)) {
                Ok(()) => admitted += 1,
                Err(_) => rejected += 1,
            }
        }
    }
    respond(
        output,
        obj(vec![
            ("op", s("manifest")),
            ("ok", Json::Bool(true)),
            ("admitted", num(admitted as f64)),
            ("rejected", num(rejected as f64)),
        ]),
    )
}

/// Run one dispatch round, collecting the (id, response) pairs the
/// worker threads produce and sorting them by id for deterministic
/// output.
fn dispatch_round(
    daemon: &Daemon,
    outs: &Mutex<BTreeMap<String, PathBuf>>,
) -> (usize, Vec<(String, Json)>) {
    let collected: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());
    let settled = daemon.dispatch(|outcome| {
        let line = outcome_json(daemon, outs, outcome);
        collected.lock().expect("outcome sink poisoned").push(line);
    });
    let mut lines = collected.into_inner().expect("outcome sink poisoned");
    lines.sort_by(|a, b| a.0.cmp(&b.0));
    (settled, lines)
}

/// Drain the daemon, then write every settled outcome (sorted by id)
/// and the drain report.
fn drain_now<W: Write>(
    daemon: &Daemon,
    outs: &Mutex<BTreeMap<String, PathBuf>>,
    output: &mut W,
) -> std::io::Result<DrainReport> {
    let collected: Mutex<Vec<(String, Json)>> = Mutex::new(Vec::new());
    let report = daemon.drain(|outcome| {
        let line = outcome_json(daemon, outs, outcome);
        collected.lock().expect("outcome sink poisoned").push(line);
    });
    let mut lines = collected.into_inner().expect("outcome sink poisoned");
    lines.sort_by(|a, b| a.0.cmp(&b.0));
    for (_, json) in lines {
        respond(output, json)?;
    }
    respond(
        output,
        obj(vec![
            ("op", s("drain")),
            ("clean", Json::Bool(report.clean)),
            ("cancelled", num(report.cancelled as f64)),
        ]),
    )?;
    Ok(report)
}

/// Render one settled job as its `outcome` response, writing the
/// outputs to the registered path (if any) and recycling the result
/// buffers back into the executor pool.
fn outcome_json(
    daemon: &Daemon,
    outs: &Mutex<BTreeMap<String, PathBuf>>,
    outcome: DaemonOutcome,
) -> (String, Json) {
    let out_path = outs
        .lock()
        .expect("output registry poisoned")
        .remove(&outcome.id);
    let mut fields = vec![
        ("op", s("outcome")),
        ("id", s(&outcome.id)),
        ("tenant", s(&outcome.tenant)),
        ("status", s(outcome.status.label())),
        ("wait_ms", num(outcome.wait.as_secs_f64() * 1e3)),
        ("latency_ms", num(outcome.latency.as_secs_f64() * 1e3)),
    ];
    match outcome.status {
        JobStatus::Done { tier, result } => {
            fields.push(("tier", s(tier.to_string())));
            fields.push(("cells", num(result.cells_evaluated() as f64)));
            if let Some(path) = out_path {
                let grids: Vec<(String, stencilflow_reference::Grid)> = result
                    .fields()
                    .map(|(name, grid)| (name.to_string(), grid.clone()))
                    .collect();
                match ingest::write_grid_set(&path, grids.into_iter()) {
                    Ok(()) => fields.push(("out", s(path.display().to_string()))),
                    Err(e) => fields.push(("error", s(format!("writing outputs: {e}")))),
                }
            }
            daemon.serve().recycle(result);
        }
        JobStatus::Failed(e) => fields.push(("error", s(e.to_string()))),
        JobStatus::Panicked(message) => {
            fields.push(("code", s("SF0409")));
            fields.push(("error", s(message)));
        }
        JobStatus::Cancelled(reason) => {
            fields.push(("code", s(reason.code())));
            fields.push(("error", s(reason.to_string())));
        }
    }
    (outcome.id, obj(fields))
}

fn stats_json(daemon: &Daemon) -> Json {
    let stats = daemon.stats();
    let serve = daemon.serve().stats();
    let rejects = stats
        .rejects_by_code
        .iter()
        .map(|(code, count)| (code.to_string(), num(*count as f64)))
        .collect();
    obj(vec![
        ("op", s("stats")),
        ("submitted", num(stats.submitted as f64)),
        ("admitted", num(stats.admitted as f64)),
        ("rejected", num(stats.rejected as f64)),
        ("rejects", Json::Object(rejects)),
        ("completed", num(stats.completed as f64)),
        ("failed", num(stats.failed as f64)),
        ("panicked", num(stats.panicked as f64)),
        ("cancelled", num(stats.cancelled as f64)),
        ("max_queue_depth", num(stats.max_queue_depth as f64)),
        ("queue_depth", num(daemon.queue_depth() as f64)),
        (
            "serve",
            obj(vec![
                ("jobs", num(serve.jobs as f64)),
                ("compiles", num(serve.compiles as f64)),
                ("pool_misses", num(serve.pool_misses as f64)),
                ("mask_misses", num(serve.mask_misses as f64)),
            ]),
        ),
    ])
}

fn respond<W: Write>(output: &mut W, json: Json) -> std::io::Result<()> {
    writeln!(output, "{}", json.to_string_compact())
}

fn error_json(message: &str) -> Json {
    obj(vec![("op", s("error")), ("error", s(message))])
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

fn s(value: impl Into<String>) -> Json {
    Json::String(value.into())
}

fn num(value: f64) -> Json {
    Json::Number(value)
}
