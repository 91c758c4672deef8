//! `wire-mixed`: the `small-flood` jobs through
//! `stencilflow::daemon::run_loop`, in process, over an in-memory reader
//! and writer. The only workload that crosses `json`, `ingest`, request
//! parsing, admission, the EDF queue, per-round dispatch and output
//! framing; the gap to `small-flood` *is* the wire and daemon cost.
//!
//! One session is one `run_loop` call. The reader hands the script out
//! line by line and stamps each hand-over; the writer stamps each response
//! line. Those two clocks give every job's submit → outcome latency and
//! every op's span without touching the daemon.

use std::cell::RefCell;
use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use super::flood::PreparedMix;
use super::{Ctx, Iteration, Layers, Tally, Workload};
use crate::stats::{median, median_us};
use crate::sut;
use crate::trace::{Kind, Tracer};

const JOBS: usize = 512;
const LARGE_JOBS: usize = 2;
/// `submit` lines between runs of `dispatch` lines.
const SUBMIT_WINDOW: usize = 64;
/// Jobs per dispatch round, set explicitly rather than left to the
/// worker-count default.
const BATCH_SIZE: usize = 16;

#[derive(Clone)]
struct Line {
    text: String,
    /// The job a `submit` line admits; `None` for `dispatch`.
    job: Option<usize>,
}

/// What the reader and writer stamped during one session.
#[derive(Default)]
struct Stamps {
    window_start: Option<Instant>,
    window_end: Option<Instant>,
    /// When each measured pass began.
    pass_starts: Vec<Instant>,
    /// Per job: when its `submit` line was handed over, and in which
    /// measured pass.
    submit_at: Vec<Option<(Instant, usize)>>,
    /// The op whose line was handed over last and is still being handled.
    open_op: Option<(&'static str, Instant, Option<u64>)>,
    /// Closed ops of the measured window: name, start, end, job.
    ops: Vec<(&'static str, Instant, Instant, Option<u64>)>,
    /// Measured jobs that came back `done`: job, pass, submit, outcome.
    done: Vec<(usize, usize, Instant, Instant)>,
    submitted: u64,
    bytes_in: u64,
    bytes_out: u64,
    partial_line: Vec<u8>,
}

impl Stamps {
    fn measuring(&self) -> bool {
        self.window_start.is_some() && self.window_end.is_none()
    }

    fn close_op(&mut self, now: Instant) {
        if let Some((name, start, job)) = self.open_op.take() {
            if self.measuring() {
                self.ops.push((name, start, now, job));
            }
        }
    }

    fn response_line(&mut self, line: &[u8]) {
        if !self.measuring() {
            return;
        }
        let now = Instant::now();
        self.bytes_out += line.len() as u64;
        // Anything but a `done` outcome leaves its job out of `done`, which
        // is how the window counts it as failed.
        let text = String::from_utf8_lossy(line);
        let Some(rest) = text.strip_prefix("{\"op\":\"outcome\",\"id\":\"j") else {
            return;
        };
        let job = rest.split('"').next().and_then(|n| n.parse::<usize>().ok());
        if let (Some(job), true) = (job, rest.contains("\"status\":\"done\"")) {
            if let Some((at, pass)) = self.submit_at.get(job).copied().flatten() {
                self.done.push((job, pass, at, now));
            }
        }
    }
}

/// Hands the script out: `warm_passes` unmeasured passes, then whole
/// measured passes until `seconds` have passed, then end of input (which
/// makes the daemon drain).
struct ScriptReader<'a> {
    script: &'a [Line],
    stamps: &'a RefCell<Stamps>,
    warm_passes: usize,
    seconds: f64,
    pass: usize,
    next: usize,
    pos: usize,
    handed: bool,
    eof: bool,
}

impl Read for ScriptReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(buf.len());
        buf[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ScriptReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.eof {
            return Ok(&[]);
        }
        if !self.handed {
            // The daemon asks for its next line: the previous op is over.
            let now = Instant::now();
            let mut stamps = self.stamps.borrow_mut();
            stamps.close_op(now);
            if self.next == 0 && self.pass >= self.warm_passes {
                match stamps.window_start {
                    None if self.seconds > 0.0 => stamps.window_start = Some(now),
                    Some(start) if (now - start).as_secs_f64() < self.seconds => {}
                    _ => {
                        stamps.window_end = Some(now);
                        self.eof = true;
                        return Ok(&[]);
                    }
                }
                stamps.pass_starts.push(now);
            }
            let line = &self.script[self.next];
            let name = match line.job {
                Some(job) => {
                    stamps.submit_at[job] = Some((now, stamps.pass_starts.len().saturating_sub(1)));
                    "wire.submit"
                }
                None => "daemon.dispatch",
            };
            stamps.open_op = Some((name, now, line.job.map(|j| j as u64)));
            if stamps.measuring() {
                stamps.bytes_in += line.text.len() as u64;
                stamps.submitted += u64::from(line.job.is_some());
            }
            self.handed = true;
            self.pos = 0;
        }
        Ok(&self.script[self.next].text.as_bytes()[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos += amount;
        if self.handed && self.pos >= self.script[self.next].text.len() {
            self.handed = false;
            self.next += 1;
            if self.next == self.script.len() {
                self.next = 0;
                self.pass += 1;
            }
        }
    }
}

struct StampWriter<'a>(&'a RefCell<Stamps>);

impl Write for StampWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut stamps = self.0.borrow_mut();
        for &byte in buf {
            if byte == b'\n' {
                let line = std::mem::take(&mut stamps.partial_line);
                stamps.response_line(&line);
                stamps.partial_line = line;
                stamps.partial_line.clear();
            } else {
                stamps.partial_line.push(byte);
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub struct Wire {
    mix: PreparedMix,
    script: Vec<Line>,
    dir: PathBuf,
    workers: usize,
    /// Counters of the last session, for the probes.
    last: Option<(sut::WireSummary, u64, u64, u64)>,
}

impl Wire {
    pub fn setup(ctx: &Ctx) -> Result<Wire, String> {
        let mix = PreparedMix::new(JOBS, LARGE_JOBS, ctx.seed);
        let dir = ctx.dir.join("wire");
        std::fs::create_dir_all(dir.join("out")).map_err(|e| e.to_string())?;
        let mut written = vec![
            false;
            mix.mix
                .iter()
                .map(|j| j.template)
                .max()
                .map_or(0, |t| t + 1)
        ];
        for job in &mix.mix {
            if !std::mem::replace(&mut written[job.template], true) {
                std::fs::write(
                    program_path(&dir, job.template),
                    sut::program_to_json(&job.program),
                )
                .map_err(|e| e.to_string())?;
            }
        }
        for (kind, (_, inputs, _)) in mix.kinds.iter().enumerate() {
            sut::write_grid_set(&grids_path(&dir, kind), inputs)?;
        }
        let submit = |ix: usize| {
            let job = &mix.mix[ix];
            Line {
                text: format!(
                    "{{\"op\":\"submit\",\"id\":\"j{ix}\",\"tenant\":\"t{}\",\"program\":{},\
                     \"grids\":{},\"steps\":{},\"out\":{}}}\n",
                    job.input_seed,
                    json_string(&program_path(&dir, job.template)),
                    json_string(&grids_path(&dir, mix.kind_of[ix])),
                    job.steps,
                    json_string(&out_path(&dir, ix)),
                ),
                job: Some(ix),
            }
        };
        let dispatch = || Line {
            text: "{\"op\":\"dispatch\"}\n".to_string(),
            job: None,
        };
        let mut script = Vec::new();
        for window in (0..mix.mix.len()).collect::<Vec<_>>().chunks(SUBMIT_WINDOW) {
            script.extend(window.iter().map(|&ix| submit(ix)));
            script.extend((0..window.len().div_ceil(BATCH_SIZE)).map(|_| dispatch()));
        }
        // A daemon's cold start. First one job of every template, each
        // dispatched alone, so auto decides every tier on an otherwise idle
        // executor (see `prewarm`); the decisions persist for the later
        // sessions, as they would across restarts. Then one whole pass,
        // which leaves every output file on disk.
        let mut seen = std::collections::BTreeSet::new();
        let mut cold_start: Vec<Line> = (0..mix.mix.len())
            .filter(|&ix| seen.insert(mix.mix[ix].template))
            .flat_map(|ix| [submit(ix), dispatch()])
            .collect();
        cold_start.extend(script.iter().cloned());
        let wire = Wire {
            mix,
            script,
            dir,
            workers: ctx.workers,
            last: None,
        };
        let (_, summary) = wire.session(&cold_start, 0.0)?;
        if summary.unsettled + summary.rejected > 0 {
            return Err("the cold-start session left jobs unsettled".into());
        }
        Ok(wire)
    }

    /// One `run_loop` session over `script`: a warm-up pass, then measured
    /// passes for `seconds` (none when 0).
    fn session(&self, script: &[Line], seconds: f64) -> Result<(Stamps, sut::WireSummary), String> {
        let stamps = RefCell::new(Stamps {
            submit_at: vec![None; self.mix.mix.len()],
            ..Stamps::default()
        });
        let reader = ScriptReader {
            script,
            stamps: &stamps,
            warm_passes: 1,
            seconds,
            pass: 0,
            next: 0,
            pos: 0,
            handed: false,
            eof: false,
        };
        let summary = sut::wire_session(
            reader,
            &mut StampWriter(&stamps),
            self.workers,
            BATCH_SIZE,
            self.dir.join("tiers.json"),
        )
        .map_err(|e| e.to_string())?;
        Ok((stamps.into_inner(), summary))
    }
}

impl Workload for Wire {
    fn tail_percentile(&self) -> f64 {
        0.99
    }

    fn run_window(&mut self, seconds: f64, tally: &mut Tally, tracer: &mut Tracer) {
        let stamps = match self.session(&self.script, seconds) {
            Ok((stamps, summary)) => {
                self.last = Some((summary, stamps.submitted, stamps.bytes_in, stamps.bytes_out));
                stamps
            }
            Err(_) => {
                tally.attempted += 1;
                tally.failed += 1;
                return;
            }
        };
        let (Some(start), Some(end)) = (stamps.window_start, stamps.window_end) else {
            return;
        };
        tally.window_s += (end - start).as_secs_f64();
        tally.attempted += stamps.submitted;
        tally.failed += stamps.submitted - stamps.done.len() as u64;
        for (name, from, to, job) in stamps.ops {
            tracer.record(name, Kind::Call, from, to, job);
        }
        // One iteration per pass: a pass's dispatch lines settle every job
        // it submitted, so its jobs all land before the next pass begins.
        let mut done = stamps.done.into_iter().peekable();
        let ends = stamps.pass_starts.iter().skip(1).chain([&end]);
        for (pass, (from, to)) in stamps.pass_starts.iter().zip(ends).enumerate() {
            let first = tally.latencies_ms.len();
            let (mut completed, mut cells) = (0, 0);
            while let Some((job, _, submitted, outcome)) = done.next_if(|d| d.1 == pass) {
                completed += 1;
                cells += self.mix.cells(job);
                if self.mix.mix[job].small {
                    tally
                        .latencies_ms
                        .push((outcome - submitted).as_secs_f64() * 1e3);
                }
                tracer.record("wire.job", Kind::Job, submitted, outcome, Some(job as u64));
            }
            tally.cells += cells;
            tally.iterations.push(Iteration {
                wall_s: (*to - *from).as_secs_f64(),
                completed,
                latencies: first..tally.latencies_ms.len(),
            });
        }
    }

    /// Decode the grid sets the last pass wrote and compare each with the
    /// interpreter (values only: the wire format carries no masks).
    fn verify(&mut self, tally: &mut Tally, _layers: &mut Layers) -> Result<(), String> {
        let oracle = self.mix.oracle_checksums(false)?;
        for ix in 0..self.mix.mix.len() {
            let written = sut::load_grid_set(&out_path(&self.dir, ix))?;
            let got = sut::checksum_grid_set(&self.mix.mix[ix].program, &written);
            tally.mismatches += u64::from(got != oracle[self.mix.kind_of[ix]]);
        }
        Ok(())
    }

    fn probe(&mut self, _tracer: &Tracer, layers: &mut Layers) -> Result<(), String> {
        if let Some((summary, submitted, bytes_in, bytes_out)) = &self.last {
            let jobs = (*submitted).max(1) as f64;
            layers.insert("wire.bytes_in_per_job".into(), *bytes_in as f64 / jobs);
            layers.insert("wire.bytes_out_per_job".into(), *bytes_out as f64 / jobs);
            layers.insert(
                "daemon.max_queue_depth".into(),
                summary.max_queue_depth as f64,
            );
            layers.insert(
                "daemon.rejected".into(),
                (summary.rejected + summary.unsettled) as f64,
            );
        }

        // The same stream through the daemon core, programs and grids
        // already in memory: what is left of the gap to `small-flood`.
        let core = sut::DaemonCore::new(self.workers, BATCH_SIZE);
        let jobs: Vec<sut::Job> = (0..self.mix.mix.len()).map(|ix| self.mix.job(ix)).collect();
        let waits = std::sync::Mutex::new(Vec::new());
        let (mut submit_us, mut dispatch_ms) = (Vec::new(), Vec::new());
        let mut core_s = 0.0;
        for pass in 0..3 {
            let pass_start = Instant::now();
            for window in (0..jobs.len()).collect::<Vec<_>>().chunks(SUBMIT_WINDOW) {
                for &ix in window {
                    let id = format!("j{ix}");
                    let tenant = format!("t{}", self.mix.mix[ix].input_seed);
                    let start = Instant::now();
                    let admitted = core.submit(&id, &tenant, &jobs[ix]);
                    submit_us.push(start.elapsed().as_secs_f64() * 1e6);
                    if !admitted {
                        return Err("the daemon core rejected a probe job".into());
                    }
                }
                loop {
                    let start = Instant::now();
                    let settled = core.dispatch(|wait_ms, _| {
                        waits.lock().expect("sink poisoned").push(wait_ms);
                    });
                    if settled == 0 {
                        break;
                    }
                    dispatch_ms.push(start.elapsed().as_secs_f64() * 1e3);
                }
            }
            // The first pass decides tiers and fills pools.
            if pass > 0 {
                core_s += pass_start.elapsed().as_secs_f64();
            }
        }
        layers.insert(
            "daemon.core_jobs_per_s".into(),
            (2 * jobs.len()) as f64 / core_s,
        );
        layers.insert("daemon.submit_us".into(), median(&submit_us));
        layers.insert("daemon.dispatch_ms".into(), median(&dispatch_ms));
        layers.insert(
            "daemon.wait_p50_ms".into(),
            median(&waits.into_inner().expect("sink poisoned")),
        );

        // The pieces of a `submit`: request parse, program load, grid load;
        // and of an outcome: the grid-set write.
        let small = (0..jobs.len())
            .find(|&ix| self.mix.mix[ix].small)
            .ok_or("the mix has no small job")?;
        let program_file = program_path(&self.dir, self.mix.mix[small].template);
        let grids_file = grids_path(&self.dir, self.mix.kind_of[small]);
        let (_, inputs, _) = &self.mix.kinds[self.mix.kind_of[small]];
        let text = std::fs::read_to_string(&program_file).map_err(|e| e.to_string())?;
        let submit_line = self.script[0].text.trim_end().to_string();
        layers.insert(
            "wire.parse_request_us".into(),
            median_us(200, || sut::parse_request(&submit_line).is_ok()),
        );
        layers.insert(
            "ingest.load_program_us".into(),
            median_us(200, || sut::load_program(&program_file).is_ok()),
        );
        layers.insert(
            "ingest.load_grid_set_us".into(),
            median_us(200, || sut::load_grid_set(&grids_file).is_ok()),
        );
        let scratch = self.dir.join("probe.sfgs");
        layers.insert(
            "ingest.write_grid_set_us".into(),
            median_us(200, || sut::write_grid_set(&scratch, inputs).is_ok()),
        );
        layers.insert(
            "json.parse_us".into(),
            median_us(200, || sut::json_parse(&text).is_ok()),
        );
        layers.insert(
            "program.from_json_us".into(),
            median_us(200, || sut::program_from_json(&text).is_ok()),
        );

        // Grid-set framing throughput, on the large job's grids.
        let large = (0..jobs.len())
            .find(|&ix| !self.mix.mix[ix].small)
            .ok_or("the mix has no large job")?;
        let (_, large_inputs, _) = &self.mix.kinds[self.mix.kind_of[large]];
        let encoded = sut::sfgs_encode(large_inputs)?;
        let megabytes = encoded.len() as f64 / 1e6;
        layers.insert(
            "json.sfgs_encode_mb_per_s".into(),
            megabytes / (median_us(20, || sut::sfgs_encode(large_inputs).is_ok()) / 1e6),
        );
        layers.insert(
            "json.sfgs_decode_mb_per_s".into(),
            megabytes / (median_us(20, || sut::sfgs_decode(&encoded).is_ok()) / 1e6),
        );
        Ok(())
    }
}

fn program_path(dir: &Path, template: usize) -> PathBuf {
    dir.join(format!("p{template}.json"))
}

fn grids_path(dir: &Path, kind: usize) -> PathBuf {
    dir.join(format!("g{kind}.sfgs"))
}

fn out_path(dir: &Path, job: usize) -> PathBuf {
    dir.join("out").join(format!("j{job}.sfgs"))
}

/// A path as a JSON string literal.
fn json_string(path: &Path) -> String {
    let mut out = String::from("\"");
    for c in path.display().to_string().chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reader_and_writer_stamp_one_warm_and_whole_measured_passes() {
        let script = [
            Line {
                text: "{\"op\":\"submit\",\"id\":\"j0\"}\n".into(),
                job: Some(0),
            },
            Line {
                text: "{\"op\":\"dispatch\"}\n".into(),
                job: None,
            },
        ];
        let stamps = RefCell::new(Stamps {
            submit_at: vec![None],
            ..Stamps::default()
        });
        let mut reader = ScriptReader {
            script: &script,
            stamps: &stamps,
            warm_passes: 1,
            // Any positive window: over after the first measured pass.
            seconds: 1e-9,
            pass: 0,
            next: 0,
            pos: 0,
            handed: false,
            eof: false,
        };
        let mut writer = StampWriter(&stamps);
        let mut handed = Vec::new();
        let mut line = String::new();
        while reader.read_line(&mut line).unwrap() > 0 {
            handed.push(std::mem::take(&mut line));
            // The daemon answers each dispatch with the job's outcome, in
            // two writes as `writeln!` may make them.
            if handed.last().unwrap().contains("dispatch") {
                writer
                    .write_all(b"{\"op\":\"outcome\",\"id\":\"j0\",\"status\":\"done\"}")
                    .unwrap();
                writer.write_all(b"\n").unwrap();
            }
        }
        // One warm pass and one measured pass, then end of input.
        assert_eq!(handed.len(), 4);
        let stamps = stamps.into_inner();
        assert_eq!(stamps.pass_starts.len(), 1);
        assert_eq!(stamps.submitted, 1);
        assert_eq!(
            stamps.bytes_in,
            (script[0].text.len() + script[1].text.len()) as u64
        );
        let [(job, pass, submitted, outcome)] = stamps.done[..] else {
            panic!("one measured job, not {}", stamps.done.len());
        };
        assert_eq!((job, pass), (0, 0));
        assert!(stamps.window_start.unwrap() <= submitted && submitted <= outcome);
        assert!(outcome <= stamps.window_end.unwrap());
        let names: Vec<&str> = stamps.ops.iter().map(|op| op.0).collect();
        assert_eq!(names, ["wire.submit", "daemon.dispatch"]);
    }

    #[test]
    fn only_done_outcomes_count_as_completed() {
        let mut stamps = Stamps {
            window_start: Some(Instant::now()),
            submit_at: vec![Some((Instant::now(), 0))],
            ..Stamps::default()
        };
        stamps.response_line(b"{\"op\":\"outcome\",\"id\":\"j0\",\"status\":\"failed\"}");
        stamps.response_line(b"{\"op\":\"submit\",\"id\":\"j0\",\"ok\":false,\"code\":\"SF0401\"}");
        stamps.response_line(b"{\"op\":\"submit\",\"id\":\"j0\",\"ok\":true}");
        assert!(stamps.done.is_empty());
        stamps.response_line(b"{\"op\":\"outcome\",\"id\":\"j0\",\"status\":\"done\"}");
        assert_eq!(stamps.done.len(), 1);
    }

    #[test]
    fn paths_become_json_strings() {
        assert_eq!(json_string(Path::new("a/b \"c\"\\d")), r#""a/b \"c\"\\d""#);
    }
}
