//! Pins taken with the last binary whose `specialize` typed a jump-form
//! stream and if-converted it afterwards (PR 18's): every typed stream of
//! the analyze suite and of the benchmark's horizontal diffusion, and the
//! emitted C of the ten `jit_gate` workloads. Speculating division *before*
//! typing must reproduce every row — same ops in the same order with the
//! same round flags, same declared stack bound and local count — or the
//! FNV pins, JIT cache keys and simulator goldens downstream would move.
//!
//! The emitted C carries two pins per workload: the unit as it is emitted
//! now (one body per distinct stage, one `SF_STAGE` line per live stage), and the
//! unit rewritten into the form that binary emitted — every live stage's
//! body under its own exported name — whose hashes are still that binary's.
//! Sharing bodies therefore changed no byte of any body.
//!
//! On a mismatch the failure message prints the table as this binary
//! computes it.

use stencilflow_expr::{CompiledKernel, DataType};
use stencilflow_program::StencilProgram;
use stencilflow_reference::ReferenceExecutor;
use stencilflow_workloads::{
    analyze_suite, execution_suite, horizontal_diffusion, HorizontalDiffusionSpec,
};

fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `program/stencil fnv(typed ops) max_stack local_count`, or `boxed` for a
/// stencil that does not specialize.
fn typed_stream_rows(program: &StencilProgram) -> Vec<String> {
    let mut rows = Vec::new();
    for stencil in program.stencils() {
        let kernel = CompiledKernel::compile(&stencil.program).unwrap();
        let types: Vec<DataType> = kernel
            .slots()
            .iter()
            .map(|slot| program.field_type(&slot.field).unwrap())
            .collect();
        let form = match kernel.specialize(&types) {
            Some(typed) => format!(
                "{:016x} {} {}",
                fnv1a(&format!("{:?}", typed.ops())),
                typed.max_stack(),
                typed.local_count()
            ),
            None => "boxed".to_string(),
        };
        rows.push(format!("{}/{} {form}", program.name(), stencil.name));
    }
    rows
}

fn assert_table(what: &str, actual: &[String], pinned: &[&str]) {
    assert!(
        actual.iter().map(String::as_str).eq(pinned.iter().copied()),
        "{what} moved; this binary computes:\n{}",
        actual.join("\n")
    );
}

#[test]
fn typed_streams_reproduce_the_parent_pins() {
    let mut rows = Vec::new();
    for program in analyze_suite() {
        rows.extend(typed_stream_rows(&program));
    }
    let bench = horizontal_diffusion(&HorizontalDiffusionSpec::bench());
    rows.extend(
        typed_stream_rows(&bench)
            .into_iter()
            .map(|row| format!("bench:{row}")),
    );
    assert_eq!(rows.len(), 52 + 24);
    assert_table("typed streams", &rows, TYPED_STREAMS);
}

/// A unit with its sharing undone, as that binary emitted it: the comment
/// and the includes, then for every `SF_STAGE(stage, body)` line, in
/// order, the body under the stage's own exported name.
fn one_body_per_stage(source: &str) -> String {
    let (head, rest) = source.split_once("#ifdef __ELF__").unwrap();
    let mut unit = head.to_string();
    let mut parts: Vec<&str> = rest.trim_end().split("\n\n").collect();
    let stages = parts.pop().unwrap();
    for stage in stages.lines() {
        let (symbol, body) = stage
            .strip_prefix("SF_STAGE(")
            .and_then(|s| s.strip_suffix(')'))
            .and_then(|s| s.split_once(", "))
            .unwrap();
        let k: usize = body.strip_prefix("sf_body_").unwrap().parse().unwrap();
        // parts[0] is the `SF_STAGE` definition; the bodies follow it.
        let (_, text) = parts[1 + k].split_once(body).unwrap();
        unit.push_str(&format!("\nvoid {symbol}{text}\n"));
    }
    unit
}

#[test]
fn jit_sources_reproduce_the_parent_pins() {
    let executor = ReferenceExecutor::new();
    let rows: Vec<String> = execution_suite()
        .iter()
        .map(|program| {
            let compiled = executor.prepare(program).unwrap();
            match compiled.jit_source() {
                Some(source) => format!(
                    "{} {:016x} {:016x}",
                    program.name(),
                    fnv1a(source),
                    fnv1a(&one_body_per_stage(source))
                ),
                None => format!("{} fallback", program.name()),
            }
        })
        .collect();
    assert_table("JIT sources", &rows, JIT_SOURCES);
}

const TYPED_STREAMS: &[&str] = &[
    "listing1/b0 e9a13f75ccc3dd2b 2 0",
    "listing1/b1 314ad1b0d4f0eaaf 3 0",
    "listing1/b2 d86019dff5519678 3 0",
    "listing1/b3 e9a13f75ccc3dd2b 2 0",
    "listing1/b4 e9a13f75ccc3dd2b 2 0",
    "jacobi2d/f1 9440d0f7534ace22 3 0",
    "jacobi3d/f1 c7325f267a3f7394 3 0",
    "jacobi3d/f1 f3e2b6c732af6c8a 3 0",
    "diffusion2d/f1 329160538d3ae527 3 0",
    "diffusion3d/f1 7dc465d2bda655c4 3 0",
    "chain8x8op/f1 031f3c0936dbcaa0 3 0",
    "chain8x8op/f2 031f3c0936dbcaa0 3 0",
    "chain8x8op/f3 031f3c0936dbcaa0 3 0",
    "chain8x8op/f4 031f3c0936dbcaa0 3 0",
    "chain8x8op/f5 031f3c0936dbcaa0 3 0",
    "chain8x8op/f6 031f3c0936dbcaa0 3 0",
    "chain8x8op/f7 031f3c0936dbcaa0 3 0",
    "chain8x8op/f8 031f3c0936dbcaa0 3 0",
    "membench8x1/out0 ade1e17de645b657 2 0",
    "membench8x1/out1 ade1e17de645b657 2 0",
    "membench8x1/out2 ade1e17de645b657 2 0",
    "membench8x1/out3 ade1e17de645b657 2 0",
    "membench8x1/out4 ade1e17de645b657 2 0",
    "membench8x1/out5 ade1e17de645b657 2 0",
    "membench8x1/out6 ade1e17de645b657 2 0",
    "membench8x1/out7 ade1e17de645b657 2 0",
    "horizontal_diffusion/flx_pp_in d7e0de18a55ed19d 4 6",
    "horizontal_diffusion/flx_u_in d7e0de18a55ed19d 4 6",
    "horizontal_diffusion/flx_v_in d7e0de18a55ed19d 4 6",
    "horizontal_diffusion/flx_w_in d7e0de18a55ed19d 4 6",
    "horizontal_diffusion/fly_pp_in 1f82f62b62fc9dec 4 6",
    "horizontal_diffusion/fly_u_in 1f82f62b62fc9dec 4 6",
    "horizontal_diffusion/fly_v_in 1f82f62b62fc9dec 4 6",
    "horizontal_diffusion/fly_w_in 1f82f62b62fc9dec 4 6",
    "horizontal_diffusion/lap_pp_in 0fc9e52e3675b689 4 0",
    "horizontal_diffusion/lap_u_in 0fc9e52e3675b689 4 0",
    "horizontal_diffusion/lap_v_in 0fc9e52e3675b689 4 0",
    "horizontal_diffusion/lap_w_in 0fc9e52e3675b689 4 0",
    "horizontal_diffusion/pp_out 1c86f072f4a8b7bc 4 1",
    "horizontal_diffusion/s_uv 161583e3f12ab3c5 3 0",
    "horizontal_diffusion/smag_u a397214394fdfaa8 5 0",
    "horizontal_diffusion/smag_v a397214394fdfaa8 5 0",
    "horizontal_diffusion/sqr_s 81d1a6758eded411 2 0",
    "horizontal_diffusion/sqr_uv 81d1a6758eded411 2 0",
    "horizontal_diffusion/t_s 559e231d327b2cf6 3 0",
    "horizontal_diffusion/u_out 367fdea650978b49 5 0",
    "horizontal_diffusion/u_tmp 1c86f072f4a8b7bc 4 1",
    "horizontal_diffusion/v_out 367fdea650978b49 5 0",
    "horizontal_diffusion/v_tmp 1c86f072f4a8b7bc 4 1",
    "horizontal_diffusion/w_out 1c86f072f4a8b7bc 4 1",
    "upwind3d/c1 88ece0aeb4b24103 7 1",
    "upwind3d/c2 88ece0aeb4b24103 7 1",
    "bench:horizontal_diffusion/flx_pp_in d7e0de18a55ed19d 4 6",
    "bench:horizontal_diffusion/flx_u_in d7e0de18a55ed19d 4 6",
    "bench:horizontal_diffusion/flx_v_in d7e0de18a55ed19d 4 6",
    "bench:horizontal_diffusion/flx_w_in d7e0de18a55ed19d 4 6",
    "bench:horizontal_diffusion/fly_pp_in 1f82f62b62fc9dec 4 6",
    "bench:horizontal_diffusion/fly_u_in 1f82f62b62fc9dec 4 6",
    "bench:horizontal_diffusion/fly_v_in 1f82f62b62fc9dec 4 6",
    "bench:horizontal_diffusion/fly_w_in 1f82f62b62fc9dec 4 6",
    "bench:horizontal_diffusion/lap_pp_in 0fc9e52e3675b689 4 0",
    "bench:horizontal_diffusion/lap_u_in 0fc9e52e3675b689 4 0",
    "bench:horizontal_diffusion/lap_v_in 0fc9e52e3675b689 4 0",
    "bench:horizontal_diffusion/lap_w_in 0fc9e52e3675b689 4 0",
    "bench:horizontal_diffusion/pp_out 1c86f072f4a8b7bc 4 1",
    "bench:horizontal_diffusion/s_uv 161583e3f12ab3c5 3 0",
    "bench:horizontal_diffusion/smag_u a397214394fdfaa8 5 0",
    "bench:horizontal_diffusion/smag_v a397214394fdfaa8 5 0",
    "bench:horizontal_diffusion/sqr_s 81d1a6758eded411 2 0",
    "bench:horizontal_diffusion/sqr_uv 81d1a6758eded411 2 0",
    "bench:horizontal_diffusion/t_s 559e231d327b2cf6 3 0",
    "bench:horizontal_diffusion/u_out 367fdea650978b49 5 0",
    "bench:horizontal_diffusion/u_tmp 1c86f072f4a8b7bc 4 1",
    "bench:horizontal_diffusion/v_out 367fdea650978b49 5 0",
    "bench:horizontal_diffusion/v_tmp 1c86f072f4a8b7bc 4 1",
    "bench:horizontal_diffusion/w_out 1c86f072f4a8b7bc 4 1",
];

/// `name fnv(unit) fnv(unit with one body per stage)`; the second column
/// is the parent pins, unmoved. `listing1` joined the native programs when
/// its lower-rank `a2[i,k]` became a broadcast tap; both of its columns
/// were taken then. `horizontal_diffusion` and `upwind3d`, the two units
/// with selects, moved both columns when a select became two evaluated
/// arms tested `!= 0.0` and `min`/`max` inline selects; the other units
/// emit the same bytes.
/// The units of `float32` programs were re-pinned when their rings,
/// copies and arithmetic became `float`. The other two rows, the `float64`
/// jacobi3d and membench (whose copies read their inputs in place and
/// store straight to their output slabs, both `f64`), were re-pinned when
/// every unit took the one stage signature of untyped pointers, which each
/// body casts.
const JIT_SOURCES: &[&str] = &[
    "listing1 8c2e1f98aa3a4994 337c7894c5439a61",
    "jacobi2d 0389f6f537be5105 3cde97a327405ed5",
    "jacobi3d f46fab0e3e69f055 8a0ae38b4175dff1",
    "jacobi3d c888fee7277aed9c ba943b14b1b7bf81",
    "diffusion2d fc56dcab4222a82d 51f37dcebb7051b9",
    "diffusion3d 219689da8db81841 500e062d315cd149",
    "chain8x8op ce1df14ca88fe9af 11f9925234151b2c",
    "membench8x1 adf5eb2bce491bb4 0c052864f1841376",
    "horizontal_diffusion a633d1243c46faeb 59ce41b56bda4342",
    "upwind3d 144a29a5bdb1443b 430d2a55d9201f1b",
];
