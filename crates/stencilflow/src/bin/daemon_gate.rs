//! Seeded mixed-traffic smoke gate for the resilient serving daemon.
//!
//! Pass 1 pipes one chaos script through the JSON-lines loop: normal
//! single and stepped jobs, a poison job (injected panic), an over-quota
//! tenant, a past-deadline job, a duplicate id, and a submit after the
//! mid-stream `drain`. The gate asserts every admitted job reaches a
//! structured outcome, the daemon never aborts, the drain is clean, and
//! every completed output is **bitwise identical** to the reference
//! executor recomputed in-process.
//!
//! Pass 2 restarts the loop against the persisted tier cache and proves
//! the restart contract: the cache loads non-stale, zero tier
//! measurements happen, and the outputs are byte-identical to pass 1's.
//!
//! A stats JSON artifact is written to `--out PATH` (or `$DAEMON_JSON`,
//! default `daemon_gate_ci.json`). Exit 0 on pass, 1 on the first
//! failed check.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::path::Path;
use std::time::Duration;

use stencilflow::daemon::{run_loop, DaemonLoopOptions};
use stencilflow::ingest;
use stencilflow::reference::{
    generate_inputs, DaemonConfig, Grid, ReferenceExecutor, ServeConfig, TenantQuota,
};
use stencilflow_json::Json;

fn check(cond: bool, message: &str) {
    if !cond {
        eprintln!("daemon gate: FAIL: {message}");
        std::process::exit(1);
    }
}

fn s(value: impl Into<String>) -> Json {
    Json::String(value.into())
}

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Render one request line (paths go through the JSON encoder so the
/// script survives any temp-dir spelling).
fn line(fields: Vec<(&str, Json)>) -> String {
    let mut text = obj(fields).to_string_compact();
    text.push('\n');
    text
}

fn path_json(path: &Path) -> Json {
    s(path.display().to_string())
}

/// Parse the response stream into one Json per line.
fn parse_responses(bytes: &[u8]) -> Vec<Json> {
    let text = String::from_utf8(bytes.to_vec()).expect("responses are UTF-8");
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| stencilflow_json::parse(l).expect("responses are valid JSON"))
        .collect()
}

fn op_is(json: &Json, op: &str) -> bool {
    json.get("op").and_then(Json::as_str) == Some(op)
}

fn field_str<'j>(json: &'j Json, key: &str) -> &'j str {
    json.get(key).and_then(Json::as_str).unwrap_or("")
}

/// The outcome line for one job id, which must exist exactly once.
fn outcome_for<'j>(responses: &'j [Json], id: &str) -> &'j Json {
    let mut found = None;
    for response in responses.iter().filter(|r| op_is(r, "outcome")) {
        if field_str(response, "id") == id {
            check(
                found.is_none(),
                &format!("job `{id}` settled more than once"),
            );
            found = Some(response);
        }
    }
    found.unwrap_or_else(|| {
        eprintln!("daemon gate: FAIL: admitted job `{id}` never reached an outcome");
        std::process::exit(1);
    })
}

/// Bitwise comparison of a written grid set against in-process grids.
fn check_bitwise(label: &str, written: &Path, expected: &[(String, Grid)]) {
    let loaded = ingest::load_grid_set(written).unwrap_or_else(|e| -> BTreeMap<String, Grid> {
        eprintln!("daemon gate: FAIL: loading {label}: {e}");
        std::process::exit(1);
    });
    check(
        loaded.len() == expected.len(),
        &format!(
            "{label}: wrote {} grids, expected {}",
            loaded.len(),
            expected.len()
        ),
    );
    for (name, grid) in expected {
        let Some(back) = loaded.get(name) else {
            check(false, &format!("{label}: output `{name}` missing"));
            return;
        };
        check(
            back.shape() == grid.shape(),
            &format!("{label}: output `{name}` shape mismatch"),
        );
        for (ix, (a, b)) in back.as_slice().iter().zip(grid.as_slice()).enumerate() {
            if a.to_bits() != b.to_bits() {
                check(
                    false,
                    &format!("{label}: output `{name}` differs from the reference at cell {ix}"),
                );
            }
        }
    }
}

const JACOBI_JSON: &str = r#"{
  "inputs": { "a": {"dtype": "float32", "dims": ["i", "j"]} },
  "outputs": ["b"],
  "shape": [24, 20],
  "program": { "b": "0.25 * (a[i-1,j] + a[i+1,j] + a[i,j-1] + a[i,j+1])" }
}"#;

const STEPPED_JSON: &str = r#"{
  "inputs": { "u": {"dtype": "float32", "dims": ["i", "j"]} },
  "outputs": ["u_next"],
  "shape": [16, 12],
  "program": { "u_next": "0.25 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1])" }
}"#;

fn main() {
    stencilflow::daemon::quiet_injected_panics();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artifact =
        std::env::var("DAEMON_JSON").unwrap_or_else(|_| "daemon_gate_ci.json".into());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => match it.next() {
                Some(path) => artifact = path.clone(),
                None => {
                    eprintln!("daemon gate: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("daemon gate: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let workdir =
        std::env::temp_dir().join(format!("stencilflow-daemon-gate-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).expect("create gate workdir");
    let file = |name: &str| workdir.join(name);

    // Fixture programs and deterministic inputs, staged on disk the same
    // way real traffic arrives.
    let jac_path = file("jacobi.json");
    let step_path = file("stepped.json");
    std::fs::write(&jac_path, JACOBI_JSON).expect("write program");
    std::fs::write(&step_path, STEPPED_JSON).expect("write program");
    let jac_program = ingest::load_program(&jac_path).expect("jacobi parses");
    let step_program = ingest::load_program(&step_path).expect("stepped program parses");
    let jac_inputs = generate_inputs(&jac_program, 42);
    let step_inputs = generate_inputs(&step_program, 7);
    let jac_grids = file("jacobi.sfgs");
    let step_grids = file("stepped.sfgs");
    ingest::write_grid_set(&jac_grids, jac_inputs.clone().into_iter()).expect("write grids");
    ingest::write_grid_set(&step_grids, step_inputs.clone().into_iter()).expect("write grids");

    let tier_cache = file("tier_cache.json");
    let _ = std::fs::remove_file(&tier_cache);
    let config = || {
        DaemonConfig::new()
            .with_serve(ServeConfig::new().with_workers(2))
            .with_queue_capacity(32)
            .with_batch_size(2)
            .with_max_job_cells(1_000_000)
            .with_default_soft_deadline(Duration::from_secs(1))
            .with_tenant_quota("greedy", TenantQuota::new().with_cell_budget(10))
    };
    let options = || {
        // The chaos script carries a poison job; only an embedder can let
        // faults onto the wire.
        DaemonLoopOptions::new()
            .with_config(config())
            .with_tier_cache(&tier_cache)
            .with_fault_injection()
    };

    // ---- Pass 1: seeded chaos traffic with a mid-stream shutdown. ----
    let out1 = file("out1.sfgs");
    let out2 = file("out2.sfgs");
    let submit = |id: &str, tenant: &str, program: &Path, grids: &Path| {
        vec![
            ("op", s("submit")),
            ("id", s(id)),
            ("tenant", s(tenant)),
            ("program", path_json(program)),
            ("grids", path_json(grids)),
        ]
    };
    let mut script = String::new();
    let mut fields = submit("norm-1", "acme", &jac_path, &jac_grids);
    fields.push(("out", path_json(&out1)));
    script.push_str(&line(fields));
    let mut fields = submit("step-1", "acme", &step_path, &step_grids);
    fields.push(("steps", Json::Number(3.0)));
    fields.push(("out", path_json(&out2)));
    script.push_str(&line(fields));
    let mut fields = submit("poison-1", "chaos", &jac_path, &jac_grids);
    fields.push(("fault", s("poison")));
    script.push_str(&line(fields));
    script.push_str(&line(submit("greedy-1", "greedy", &jac_path, &jac_grids)));
    let mut fields = submit("late-1", "acme", &jac_path, &jac_grids);
    fields.push(("hard_timeout_ms", Json::Number(0.0)));
    script.push_str(&line(fields));
    // Duplicate id while norm-1 is still queued.
    script.push_str(&line(submit("norm-1", "acme", &jac_path, &jac_grids)));
    script.push_str(&line(vec![("op", s("stats"))]));
    // Mid-stream shutdown: drain now, then keep talking.
    script.push_str(&line(vec![("op", s("drain"))]));
    script.push_str(&line(submit("tail-1", "acme", &jac_path, &jac_grids)));
    script.push_str("this line is not JSON\n");

    let mut output = Vec::new();
    let summary1 = run_loop(Cursor::new(script), &mut output, options())
        .expect("the daemon loop never aborts on in-band traffic");
    let responses = parse_responses(&output);

    // Admission decisions, in submission order.
    let submits: Vec<&Json> = responses.iter().filter(|r| op_is(r, "submit")).collect();
    check(submits.len() == 7, "expected 7 submit responses");
    let ok = |r: &Json| r.get("ok").and_then(Json::as_bool).unwrap_or(false);
    check(ok(submits[0]), "norm-1 admitted");
    check(ok(submits[1]), "step-1 admitted");
    check(ok(submits[2]), "poison-1 admitted");
    check(
        !ok(submits[3]) && field_str(submits[3], "code") == "SF0403",
        "greedy-1 rejected over budget (SF0403)",
    );
    check(ok(submits[4]), "late-1 admitted");
    check(
        !ok(submits[5]) && field_str(submits[5], "code") == "SF0405",
        "duplicate norm-1 rejected (SF0405)",
    );
    check(
        !ok(submits[6]) && field_str(submits[6], "code") == "SF0406",
        "post-drain tail-1 rejected (SF0406)",
    );
    check(
        responses.iter().any(|r| op_is(r, "error")),
        "the malformed line produced an error response",
    );

    // Every admitted job settled, with the right structured outcome.
    let norm = outcome_for(&responses, "norm-1");
    check(field_str(norm, "status") == "done", "norm-1 completed");
    let step = outcome_for(&responses, "step-1");
    check(field_str(step, "status") == "done", "step-1 completed");
    let poison = outcome_for(&responses, "poison-1");
    check(
        field_str(poison, "status") == "panicked" && field_str(poison, "code") == "SF0409",
        "poison-1 isolated as panicked (SF0409)",
    );
    let late = outcome_for(&responses, "late-1");
    check(
        field_str(late, "status") == "cancelled" && field_str(late, "code") == "SF0407",
        "late-1 cancelled by hard timeout (SF0407)",
    );
    for drain in responses.iter().filter(|r| op_is(r, "drain")) {
        check(
            drain.get("clean").and_then(Json::as_bool) == Some(true),
            "every drain was clean",
        );
    }
    check(summary1.drain.clean, "pass 1 drain clean");
    check(
        summary1.stats.admitted == 4 && summary1.stats.rejected == 3,
        "pass 1 admission counts (4 admitted, 3 rejected)",
    );
    check(
        summary1.stats.completed == 2
            && summary1.stats.panicked == 1
            && summary1.stats.cancelled == 1,
        "pass 1 outcome counts (2 done, 1 panicked, 1 cancelled)",
    );

    // Bitwise recheck against the reference executor, recomputed here.
    let plain = ReferenceExecutor::new();
    let interpreted = plain
        .run_interpreted(&jac_program, &jac_inputs)
        .expect("interpreter baseline");
    let expected: Vec<(String, Grid)> = jac_program
        .outputs()
        .iter()
        .map(|name| (name.clone(), interpreted.field(name).unwrap().clone()))
        .collect();
    check_bitwise("out1 (vs interpreter)", &out1, &expected);
    let stepped_baseline = plain
        .run_steps(&step_program, &step_inputs, 3)
        .expect("stepped baseline");
    let expected: Vec<(String, Grid)> = step_program
        .outputs()
        .iter()
        .map(|name| (name.clone(), stepped_baseline.field(name).unwrap().clone()))
        .collect();
    check_bitwise("out2 (vs reference stepper)", &out2, &expected);
    check(tier_cache.exists(), "tier decisions persisted on exit");

    // ---- Pass 2: restart against the persisted tier cache. ----
    let out1b = file("out1b.sfgs");
    let out2b = file("out2b.sfgs");
    let mut script = String::new();
    let mut fields = submit("norm-1", "acme", &jac_path, &jac_grids);
    fields.push(("out", path_json(&out1b)));
    script.push_str(&line(fields));
    let mut fields = submit("step-1", "acme", &step_path, &step_grids);
    fields.push(("steps", Json::Number(3.0)));
    fields.push(("out", path_json(&out2b)));
    script.push_str(&line(fields));
    script.push_str(&line(vec![("op", s("drain"))]));
    script.push_str(&line(vec![("op", s("stats"))]));

    let mut output = Vec::new();
    let summary2 = run_loop(Cursor::new(script), &mut output, options())
        .expect("the restarted daemon loop runs");
    let responses = parse_responses(&output);
    let cache = summary2.cache.unwrap_or_else(|| {
        eprintln!("daemon gate: FAIL: restart did not load the tier cache");
        std::process::exit(1);
    });
    check(
        !cache.stale,
        "persisted tier decisions match this build's salt",
    );
    check(
        cache.loaded >= 2,
        "restart reloaded the single and stepped tier decisions",
    );
    let stats = responses
        .iter()
        .find(|r| op_is(r, "stats"))
        .expect("stats response present");
    let measurements = stats
        .get("serve")
        .and_then(|s| s.get("tier_measurements"))
        .and_then(Json::as_usize);
    check(
        measurements == Some(0),
        "restart re-measured nothing (0 tier measurements)",
    );
    check(
        field_str(outcome_for(&responses, "norm-1"), "status") == "done"
            && field_str(outcome_for(&responses, "step-1"), "status") == "done",
        "pass 2 jobs completed",
    );
    let same = |a: &Path, b: &Path| std::fs::read(a).ok() == std::fs::read(b).ok();
    check(
        same(&out1, &out1b) && same(&out2, &out2b),
        "restart outputs byte-identical to pass 1",
    );

    // ---- Stats artifact next to the bench CI JSON. ----
    let rejects: Vec<(String, Json)> = summary1
        .stats
        .rejects_by_code
        .iter()
        .map(|(code, count)| (code.to_string(), Json::Number(*count as f64)))
        .collect();
    let report = obj(vec![
        ("gate", s("daemon")),
        (
            "pass1",
            obj(vec![
                ("submitted", Json::Number(summary1.stats.submitted as f64)),
                ("admitted", Json::Number(summary1.stats.admitted as f64)),
                ("rejected", Json::Number(summary1.stats.rejected as f64)),
                ("rejects", Json::Object(rejects)),
                ("completed", Json::Number(summary1.stats.completed as f64)),
                ("panicked", Json::Number(summary1.stats.panicked as f64)),
                ("cancelled", Json::Number(summary1.stats.cancelled as f64)),
                ("drain_clean", Json::Bool(summary1.drain.clean)),
            ]),
        ),
        (
            "pass2",
            obj(vec![
                ("tier_cache_loaded", Json::Number(cache.loaded as f64)),
                ("tier_cache_stale", Json::Bool(cache.stale)),
                ("tier_measurements", Json::Number(0.0)),
                ("restart_bitwise_identical", Json::Bool(true)),
            ]),
        ),
    ]);
    let mut text = report.to_string_pretty();
    text.push('\n');
    std::fs::write(&artifact, text).unwrap_or_else(|e| {
        eprintln!("daemon gate: FAIL: writing {artifact}: {e}");
        std::process::exit(1);
    });
    println!(
        "daemon gate: PASS (4 admitted: 2 done, 1 panicked, 1 cancelled; \
         3 rejected: SF0403/SF0405/SF0406; restart reused {} tier decisions, 0 re-measurements; \
         stats -> {artifact})",
        cache.loaded
    );
}
