#!/usr/bin/env bash
# Mirror of the CI gates (.github/workflows/ci.yml) so local runs and CI
# cannot drift: the workflow invokes this script, and a local
# `scripts/verify.sh` run reproduces exactly what CI enforces.
#
# Gates, in order:
#   1. cargo fmt --check          — formatting
#   2. cargo build --release     — the build the benchmarks and examples
#                                  use, then the same for `benchmark/`
#                                  (a workspace of its own that compiles
#                                  against the crates' public API and that
#                                  nothing else here builds)
#   3. cargo test -q             — tier-1 tests (incl. golden equivalence
#                                  and the `pub`-surface census,
#                                  tests/pub_surface.rs: every `pub` name of
#                                  a crate's library has a user outside it;
#                                  the compile-count guard,
#                                  tests/pipeline_compile_guard.rs: a
#                                  repeated Pipeline + multi-device
#                                  simulation job compiles nothing on the
#                                  process-wide executor; the sufficiency
#                                  test, tests/sim_sufficiency.rs: 450
#                                  designs complete at the analysed channel
#                                  depths on 1, 2 and 4 devices, at pinned
#                                  cycle counts; the tier-up test,
#                                  tests/sim_tier_up.rs: a simulated
#                                  program asks for its JIT module only
#                                  once its fused runs have cost one
#                                  native build, and every output before
#                                  and after the switch is the
#                                  interpreter's in bits; the derivation
#                                  test, tests/derive_once.rs: a program
#                                  builds its DAG and its buffering
#                                  analysis once, each stencil compiles
#                                  its kernel once, clones share them,
#                                  fusion shares the kernels, four
#                                  fingerprints stay pinned, programs
#                                  that differ in one field hash apart
#                                  and a JSON round trip keeps the
#                                  value, and (a unit test of the
#                                  reference crate's fuse module) a
#                                  prepared program's stages evaluate the
#                                  typed kernels the program keeps, by
#                                  pointer, fresh and on a cache hit; the
#                                  front-end
#                                  pin, tests/frontend_bits.rs: one hash
#                                  over the AST, the field accesses and
#                                  the compiled op streams and slots of
#                                  3 804 kernels must not move; the
#                                  generator pin, tests/input_bits.rs: one
#                                  hash over generate_inputs' grids; the
#                                  allocation guard,
#                                  tests/grid_alloc_guard.rs: comparing an
#                                  output allocates nothing and
#                                  Grid::from_fn allocates as often at 64^3
#                                  as at 8^3; the order-equivalence suite,
#                                  tests/order_equivalence.rs: the id-
#                                  indexed DAG, orders, footprints, buffers,
#                                  channels and 8-device partition equal
#                                  the name-keyed algorithms kept as test
#                                  code; the mapping allocation guard,
#                                  tests/mapping_alloc_guard.rs: text ->
#                                  generate_kernels + partition allocates
#                                  as often per stencil on a 1024-stage
#                                  chain as on a 256-stage one, under a
#                                  pinned ceiling; the wiring oracle, the
#                                  sim crate's unit test
#                                  the_mapping_wires_the_design_as_by_name:
#                                  the design the simulator reads off
#                                  HardwareMapping, on one device and on
#                                  four, equals the name-keyed wiring kept
#                                  as test code, channel for channel and
#                                  unit for unit; no timing floor — speed
#                                  floors live in gate 10 only)
#   4. cargo clippy -D warnings  — lints
#   5. cargo doc -D warnings     — documentation (intra-doc links included)
#   6. analyze --check           — the static-analysis gate: every workload
#                                  must be free of error-severity
#                                  diagnostics (cycles, out-of-domain
#                                  footprints, failed kernel
#                                  verification); the info SF0208 (the JIT rung refuses a
#                                  program) is rendered from the runtime's
#                                  own tier trace, not re-judged; the
#                                  diagnostics JSON lands in $ANALYSIS_JSON
#   7. examples                  — compile-and-run every example
#   8. jit gate                  — the Tier-4 native-JIT gate, run twice:
#                                  a first pass against an empty
#                                  $SF_JIT_CACHE_DIR sweeps all ten
#                                  workloads through the `cc`-compiled
#                                  `.so` backend and diffs each bitwise
#                                  against the interpreter (writing the
#                                  emitted C, compiler logs, and cache
#                                  stats to $JIT_ARTIFACTS), then a second
#                                  pass in a fresh process asserts the
#                                  disk cache serves every module without
#                                  spawning the compiler again. A working
#                                  system `cc` is probed up front; set
#                                  SF_JIT_ALLOW_MISSING_CC=1 to downgrade
#                                  a missing compiler to a skip.
#   9. bench_eval --quick + report --quick
#                                — the benchmark smoke run: bench_eval
#                                  measures the tier throughput and writes
#                                  the JSON document the floor gate checks;
#                                  report prints the paper's tables and
#                                  figures only (no measurement, < 1 s)
#  10. bench_eval --check-floors — the one home of the speed floors (the
#                                  tier-1 tests carry none): one
#                                  kernel-tier gate per row (the fused
#                                  tier — what `run` takes — over the
#                                  tree-walking interpreter on jacobi3d,
#                                  upwind3d, chain, listing1 and
#                                  benchmark-domain horizontal diffusion,
#                                  all sweeping 32-lane batches in quick
#                                  mode, set so that a stencil silently
#                                  falling to the boxed `Value` kernel
#                                  trips it; higher on the chain and
#                                  time-stepping rows, by the factors
#                                  they once had to beat the deleted
#                                  materializing sweep by), the streamed
#                                  floor on listing1, and the Tier-4
#                                  jit-vs-fused floor on the jacobi3d
#                                  rows)
#  11. bench_serve --quick + --check-floors
#                                — the multi-tenant service-layer gate:
#                                  runs the seeded job mix through the
#                                  batch executor and fails the build if
#                                  sustained throughput falls under the
#                                  host-conditioned floor, the small-job
#                                  p99 latency bound breaks (fairness:
#                                  the FIFO job queue, one job per
#                                  worker, nothing split or stolen),
#                                  any job errors, or a measured
#                                  steady-state batch allocates at all
#                                  (pool/mask misses or recompiles != 0);
#                                  the JSON also records, per job
#                                  template, the median us of a warm
#                                  `prepare` hit (recorded, no floor)
#  12. daemon gate               — the resilient-daemon smoke gate: pipes
#                                  a seeded mixed-traffic script (normal
#                                  + stepped jobs, a poison job, an
#                                  over-quota tenant, a past-deadline
#                                  job, a duplicate id, a mid-stream
#                                  drain) through the JSON-lines loop and
#                                  asserts every admitted job settles
#                                  with a structured outcome, completed
#                                  outputs are bitwise identical to the
#                                  interpreter, the drain is clean, and a
#                                  restarted daemon completes the same
#                                  jobs with byte-identical outputs;
#                                  the stats JSON lands in $DAEMON_JSON
#
# The quick-mode JSON lands in $BENCH_JSON (default: bench_eval_ci.json in
# the repository root), the serve JSON in $SERVE_JSON (default:
# bench_serve_ci.json), the daemon JSON in $DAEMON_JSON (default:
# daemon_gate_ci.json), and the jit bundle in $JIT_ARTIFACTS (default:
# jit_artifacts_ci/); CI uploads all of them as artifacts.

set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_JSON="${BENCH_JSON:-bench_eval_ci.json}"
SERVE_JSON="${SERVE_JSON:-bench_serve_ci.json}"
DAEMON_JSON="${DAEMON_JSON:-daemon_gate_ci.json}"
ANALYSIS_JSON="${ANALYSIS_JSON:-analysis_ci.json}"
JIT_ARTIFACTS="${JIT_ARTIFACTS:-jit_artifacts_ci}"
# The jit gate owns its cache directory so the zero-recompile assertion
# measures exactly the modules this run built, not a stale machine cache.
export SF_JIT_CACHE_DIR="${SF_JIT_CACHE_DIR:-$PWD/target/jit-cache-ci}"

# Probe for a usable C compiler before spending time on the build: the
# Tier-4 jit gate needs one, and a missing toolchain should fail loudly
# up front (opt out with SF_JIT_ALLOW_MISSING_CC=1, which downgrades the
# jit gate to an explicit skip).
JIT_CC="${SF_JIT_CC:-cc}"
HAVE_CC=1
if ! CC_PROBE="$("${JIT_CC}" --version 2>&1)"; then
  HAVE_CC=0
  if [ "${SF_JIT_ALLOW_MISSING_CC:-0}" != "1" ]; then
    echo "verify.sh: no usable C compiler: \`${JIT_CC} --version\` failed:" >&2
    echo "${CC_PROBE}" >&2
    echo "(set SF_JIT_ALLOW_MISSING_CC=1 to skip the jit gate instead)" >&2
    exit 1
  fi
else
  echo "==> C compiler probe: $(printf '%s' "${CC_PROBE}" | head -n 1)"
fi

echo "==> cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "==> cargo build --release"
cargo build --release
cargo build --release --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> static-analysis gate -> ${ANALYSIS_JSON}"
cargo run --release --bin analyze -- --check --out "${ANALYSIS_JSON}"

echo "==> examples"
cargo run --release --example quickstart
cargo run --release --example horizontal_diffusion
cargo run --release --example multi_device
cargo run --release --example deadlock_buffers

if [ "${HAVE_CC}" = "1" ]; then
  echo "==> jit gate (cold cache) -> ${JIT_ARTIFACTS}"
  rm -rf "${SF_JIT_CACHE_DIR}" "${JIT_ARTIFACTS}"
  cargo run --release --bin jit_gate -- --artifacts "${JIT_ARTIFACTS}"
  echo "==> jit gate (warm cache, fresh process, zero recompiles)"
  cargo run --release --bin jit_gate -- --assert-cached
else
  echo "==> jit gate: SKIPPED (no cc)"
fi

echo "==> bench smoke run (quick mode) -> ${BENCH_JSON}"
cargo run --release --bin bench_eval -- --quick "${BENCH_JSON}"
cargo run --release --bin report -- --quick

echo "==> speed floors (kernel, fused and jit tiers)"
cargo run --release --bin bench_eval -- --check-floors "${BENCH_JSON}"

echo "==> service-layer smoke run (quick mode) -> ${SERVE_JSON}"
cargo run --release --bin bench_serve -- --quick "${SERVE_JSON}"

echo "==> service-layer floors (throughput, p99 fairness, zero steady-state allocation)"
cargo run --release --bin bench_serve -- --check-floors "${SERVE_JSON}"

echo "==> resilient-daemon gate (chaos script + byte-identical restart) -> ${DAEMON_JSON}"
cargo run --release --bin daemon_gate -- --out "${DAEMON_JSON}"

echo "verify.sh: all gates passed"
