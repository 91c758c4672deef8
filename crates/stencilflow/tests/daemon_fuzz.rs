//! Property tests for the daemon's wire boundary: [`daemon::parse_request`]
//! must be total over arbitrary input (every failure a structured message,
//! never a panic), and the ingest loop itself must survive malformed
//! lines, duplicate ids, and extent-overflow programs — shedding each with
//! a structured response instead of aborting.

use std::io::Cursor;
use std::path::Path;
use std::time::Duration;

use proptest::prelude::*;
use stencilflow::daemon::{self, DaemonLoopOptions, Request};
use stencilflow::ingest;
use stencilflow::reference::{generate_inputs, DaemonConfig, ServeConfig};
use stencilflow_json::Json;

// ---------------------------------------------------------------------
// Parser totality.
// ---------------------------------------------------------------------

/// A JSON-ish alphabet plus noise: biased so random strings exercise the
/// parser's structure handling, not just its first-byte rejection.
fn random_line(rng: &mut TestRng) -> String {
    const ALPHABET: &[u8] = br#"{}[]",:truefalsnu0123456789.eE+-_ op submit"#;
    let len = rng.below(80) as usize;
    (0..len)
        .map(|_| {
            if rng.below(16) == 0 {
                char::from_u32(rng.next_u64() as u32 % 0xD800).unwrap_or('\u{FFFD}')
            } else {
                ALPHABET[rng.below(ALPHABET.len() as u64) as usize] as char
            }
        })
        .collect()
}

/// A well-formed submit line all mutations start from.
fn valid_submit_fields() -> Vec<(String, Json)> {
    [
        ("op", Json::String("submit".to_string())),
        ("id", Json::String("job-1".to_string())),
        ("tenant", Json::String("acme".to_string())),
        ("program", Json::String("p.json".to_string())),
        ("grids", Json::String("g.sfgs".to_string())),
        ("steps", Json::Number(2.0)),
        ("soft_deadline_ms", Json::Number(250.0)),
        ("hard_timeout_ms", Json::Number(1000.0)),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

fn render(fields: Vec<(String, Json)>) -> String {
    Json::Object(fields).to_string_compact()
}

/// A hostile number for a field that expects a non-negative finite value.
fn hostile_number(rng: &mut TestRng) -> Json {
    match rng.below(5) {
        0 => Json::Number(f64::NAN),
        1 => Json::Number(f64::INFINITY),
        2 => Json::Number(-1.0),
        3 => Json::Number(1e308),
        _ => Json::Number(-1e308),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Byte soup: the parser returns, it never panics. (The property is
    /// totality; Ok on an accidentally-valid line is fine.)
    #[test]
    fn parse_request_is_total_over_noise(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("daemon_noise", seed);
        for _ in 0..8 {
            let line = random_line(&mut rng);
            let _ = daemon::parse_request(&line);
        }
    }

    /// Structured mutations of a valid submit: unknown keys, duplicate
    /// keys, wrong types, and hostile numbers must all come back as a
    /// structured error, never a panic and never a silently-mangled
    /// request.
    #[test]
    fn submit_mutations_are_rejected_structurally(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("daemon_mutate", seed);
        for _ in 0..8 {
            let mut fields = valid_submit_fields();
            let which = rng.below(5);
            match which {
                0 => {
                    // Unknown key.
                    fields.push(("surprise".to_string(), Json::Bool(true)));
                }
                1 => {
                    // Duplicate key (last-wins smuggling must be refused).
                    let ix = rng.below(fields.len() as u64) as usize;
                    fields.push(fields[ix].clone());
                }
                2 => {
                    // Wrong type for a string field.
                    let ix = rng.below(5) as usize; // op..grids
                    fields[ix].1 = Json::Array(vec![Json::Number(1.0)]);
                }
                3 => {
                    // Hostile number where a duration/steps belongs.
                    let ix = 5 + rng.below(3) as usize; // steps..hard_timeout_ms
                    fields[ix].1 = hostile_number(&mut rng);
                }
                _ => {
                    // Drop a required field.
                    let ix = rng.below(5) as usize; // op..grids
                    fields.remove(ix);
                }
            }
            let line = render(fields);
            match daemon::parse_request(&line) {
                Err(message) => prop_assert!(!message.is_empty()),
                Ok(_) => prop_assert!(false, "mutation {} accepted: {}", which, line),
            }
        }
    }

    /// The unmutated line parses, as a control for the mutation test.
    #[test]
    fn valid_submit_parses(seed in any::<u32>()) {
        let mut rng = TestRng::for_case("daemon_control", seed);
        let mut fields = valid_submit_fields();
        // Shuffle field order: objects are order-insensitive.
        for i in (1..fields.len()).rev() {
            fields.swap(i, rng.below((i + 1) as u64) as usize);
        }
        match daemon::parse_request(&render(fields)) {
            Ok(Request::Submit(submit)) => {
                prop_assert_eq!(submit.id.as_str(), "job-1");
                prop_assert_eq!(submit.steps, 2);
                prop_assert_eq!(submit.soft_deadline, Some(Duration::from_millis(250)));
                prop_assert_eq!(submit.hard_timeout, Some(Duration::from_secs(1)));
            }
            other => prop_assert!(false, "control line failed: {:?}", other),
        }
    }
}

// ---------------------------------------------------------------------
// The loop survives hostile scripts.
// ---------------------------------------------------------------------

struct Fixture {
    dir: std::path::PathBuf,
}

impl Fixture {
    fn new(label: &str) -> Fixture {
        let dir = std::env::temp_dir().join(format!(
            "stencilflow-daemon-fuzz-{label}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("fixture dir");
        Fixture { dir }
    }

    fn write(&self, name: &str, text: &str) -> std::path::PathBuf {
        let path = self.dir.join(name);
        std::fs::write(&path, text).expect("fixture write");
        path
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

const SMALL_JSON: &str = r#"{
  "inputs": { "a": {"dtype": "float32", "dims": ["i", "j"]} },
  "outputs": ["b"],
  "shape": [8, 8],
  "program": { "b": "a[i,j] * 2.0" }
}"#;

fn submit_line(id: &str, program: &Path, grids: &Path) -> String {
    render(
        [
            ("op", Json::String("submit".to_string())),
            ("id", Json::String(id.to_string())),
            ("tenant", Json::String("t".to_string())),
            ("program", Json::String(program.display().to_string())),
            ("grids", Json::String(grids.display().to_string())),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect(),
    )
}

fn run_script(script: String, config: DaemonConfig) -> Vec<Json> {
    run_script_with(script, DaemonLoopOptions::new().with_config(config))
}

fn run_script_with(script: String, options: DaemonLoopOptions) -> Vec<Json> {
    let mut output = Vec::new();
    daemon::run_loop(Cursor::new(script), &mut output, options)
        .expect("the loop itself never fails on request content");
    String::from_utf8(output)
        .expect("responses are UTF-8")
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| stencilflow_json::parse(l).expect("responses are valid JSON"))
        .collect()
}

fn submit_response<'j>(responses: &'j [Json], id: &str) -> &'j Json {
    responses
        .iter()
        .filter(|r| r.get("op").and_then(Json::as_str) == Some("submit"))
        .find(|r| r.get("id").and_then(Json::as_str) == Some(id))
        .unwrap_or_else(|| panic!("no submit response for `{id}`"))
}

#[test]
fn loop_sheds_duplicates_and_malformed_lines_without_aborting() {
    let fixture = Fixture::new("dup");
    let program = fixture.write("p.json", SMALL_JSON);
    let parsed = ingest::load_program(&program).expect("fixture program loads");
    let grids = fixture.dir.join("g.sfgs");
    ingest::write_grid_set(&grids, generate_inputs(&parsed, 11).into_iter())
        .expect("fixture grids write");

    let mut script = String::new();
    script.push_str(&submit_line("dup-1", &program, &grids));
    script.push('\n');
    script.push_str("this is not json\n");
    script.push_str("{\"op\": 42}\n");
    script.push_str(&submit_line("dup-1", &program, &grids));
    script.push('\n');
    script.push_str("{\"op\":\"drain\"}\n");

    let responses = run_script(
        script,
        DaemonConfig::new().with_serve(ServeConfig::new().with_workers(1)),
    );

    let first = submit_response(&responses, "dup-1");
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    let errors: Vec<&Json> = responses
        .iter()
        .filter(|r| r.get("op").and_then(Json::as_str) == Some("error"))
        .collect();
    assert_eq!(errors.len(), 2, "each malformed line earns an error line");
    // The duplicate is the *second* submit response for the same id.
    let dup = responses
        .iter()
        .filter(|r| r.get("op").and_then(Json::as_str) == Some("submit"))
        .filter(|r| r.get("id").and_then(Json::as_str) == Some("dup-1"))
        .nth(1)
        .expect("duplicate submit answered");
    assert_eq!(dup.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(dup.get("code").and_then(Json::as_str), Some("SF0405"));
    // The admitted copy still ran to completion.
    let outcome = responses
        .iter()
        .find(|r| r.get("op").and_then(Json::as_str) == Some("outcome"))
        .expect("admitted job settles");
    assert_eq!(outcome.get("status").and_then(Json::as_str), Some("done"));
    let drain = responses
        .iter()
        .find(|r| r.get("op").and_then(Json::as_str) == Some("drain"))
        .expect("drain report emitted");
    assert_eq!(drain.get("clean").and_then(Json::as_bool), Some(true));
}

#[test]
fn fault_submits_are_rejected_unless_the_embedder_allows_them() {
    let fixture = Fixture::new("fault");
    let program = fixture.write("p.json", SMALL_JSON);
    let parsed = ingest::load_program(&program).expect("fixture program loads");
    let grids = fixture.dir.join("g.sfgs");
    ingest::write_grid_set(&grids, generate_inputs(&parsed, 11).into_iter())
        .expect("fixture grids write");

    let poison =
        submit_line("poison-1", &program, &grids).replacen("{", "{\"fault\":\"poison\",", 1);
    assert!(daemon::parse_request(&poison)
        .unwrap_err()
        .contains("fault injection is not enabled"));
    let script = format!(
        "{poison}\n{}\n{{\"op\":\"drain\"}}\n",
        submit_line("ok-1", &program, &grids)
    );
    let config = || DaemonConfig::new().with_serve(ServeConfig::new().with_workers(1));
    let outcomes = |responses: &[Json]| -> Vec<(String, String)> {
        responses
            .iter()
            .filter(|r| r.get("op").and_then(Json::as_str) == Some("outcome"))
            .map(|r| {
                let text = |key| r.get(key).and_then(Json::as_str).unwrap().to_string();
                (text("id"), text("status"))
            })
            .collect()
    };

    // Default loop: the fault submit is an in-band error, never a job, and
    // the loop goes on to serve the next request.
    let responses = run_script(script.clone(), config());
    let error = responses
        .iter()
        .find(|r| r.get("op").and_then(Json::as_str) == Some("error"))
        .expect("the fault submit earns an error line");
    assert!(error
        .get("error")
        .and_then(Json::as_str)
        .unwrap()
        .contains("`fault`"));
    assert_eq!(
        outcomes(&responses),
        [("ok-1".to_string(), "done".to_string())]
    );

    // An embedder that allows faults gets the poison job, isolated.
    let responses = run_script_with(
        script,
        DaemonLoopOptions::new()
            .with_config(config())
            .with_fault_injection(),
    );
    assert_eq!(
        outcomes(&responses),
        [
            ("ok-1".to_string(), "done".to_string()),
            ("poison-1".to_string(), "panicked".to_string())
        ]
    );
}

#[test]
fn extent_overflow_is_shed_at_admission_before_any_allocation() {
    let fixture = Fixture::new("overflow");
    // ~10^18 cells: must be rejected from the program description alone.
    // If admission tried to allocate first, this test would OOM, not fail.
    let program = fixture.write(
        "huge.json",
        r#"{
  "inputs": { "a": {"dtype": "float32", "dims": ["i", "j"]} },
  "outputs": ["b"],
  "shape": [1000000000, 1000000000],
  "program": { "b": "a[i,j] * 2.0" }
}"#,
    );
    let grids = fixture.write("empty.sfgs", "{}");

    let mut script = submit_line("huge-1", &program, &grids);
    script.push('\n');
    script.push_str("{\"op\":\"drain\"}\n");

    let responses = run_script(
        script,
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(1))
            .with_max_job_cells(1_000_000),
    );
    let reject = submit_response(&responses, "huge-1");
    assert_eq!(reject.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(reject.get("code").and_then(Json::as_str), Some("SF0404"));
    assert!(
        !responses
            .iter()
            .any(|r| r.get("op").and_then(Json::as_str) == Some("outcome")),
        "a shed job must never reach an outcome"
    );
}
