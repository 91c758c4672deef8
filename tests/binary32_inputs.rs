//! The native rung holds a `float32` field's rings and copies in `f32`
//! and computes on its values in `float`. Both are exact only because
//! every value of a `float32` field is a binary32 value: every way a value
//! enters a `float32` grid must round it through `f32`. (The narrowing
//! copy-in debug-asserts the same on every cell it copies, NaN excepted.)

use std::collections::BTreeMap;
use stencilflow::expr::DataType;
use stencilflow::ingest::{load_grid_set, write_grid_set};
use stencilflow::reference::{generate_inputs, Grid, ReferenceExecutor, RunSpec, Tier};
use stencilflow::workloads::{execution_suite, jacobi2d};

/// Values binary32 cannot hold: inexact decimals, a value below its
/// smallest subnormal, values past its largest finite one, a tiny
/// negative that rounds to `-0.0`, and NaN.
const AWKWARD: [f64; 8] = [
    0.1,
    1.0 / 3.0,
    1e-40,
    1e-46,
    3.4028235677973366e38,
    1e300,
    -2.5e-46,
    f64::NAN,
];

fn binary32(v: f64) -> bool {
    v.is_nan() || f64::from(v as f32) == v
}

fn assert_binary32(what: &str, grid: &Grid) {
    assert_eq!(grid.data_type(), DataType::Float32, "{what}");
    for (cell, v) in grid.as_slice().iter().enumerate() {
        assert!(
            binary32(*v),
            "{what}, cell {cell}: {v:e} is not a binary32 value"
        );
    }
}

#[test]
fn every_way_into_a_float32_grid_rounds_to_binary32() {
    let n = AWKWARD.len();
    // The constructors and `set`.
    assert_binary32("from_values", &Grid::from_values(&["i"], &[n], &AWKWARD));
    let typed = Grid::from_values_typed(&["i"], &[n], DataType::Float32, &AWKWARD);
    assert_binary32("from_values_typed", &typed);
    let from_fn = Grid::from_fn(&["i"], &[n], DataType::Float32, |ix| AWKWARD[ix[0]]);
    assert_binary32("from_fn", &from_fn);
    for v in AWKWARD {
        assert_binary32("scalar", &Grid::scalar(v, DataType::Float32));
    }
    let mut set = Grid::zeros(&["i"], &[n], DataType::Float32);
    for (i, v) in AWKWARD.into_iter().enumerate() {
        set.set(&[i], v);
    }
    assert_binary32("set", &set);

    // Generated inputs of every `float32` field of the shared workloads.
    for program in execution_suite() {
        for (name, grid) in generate_inputs(&program, 5) {
            if grid.data_type() == DataType::Float32 {
                assert_binary32(&format!("{}.{name}", program.name()), &grid);
            }
        }
    }

    // The grid-set decoder: the text escape hatch with decimals binary32
    // cannot hold (JSON has no NaN or inf, so the finite ones), and the
    // binary `SFGS` set.
    let dir = std::env::temp_dir().join(format!("sf-binary32-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let finite: Vec<String> = AWKWARD[..6].iter().map(|v| format!("{v:e}")).collect();
    let text = format!(
        "{{\"a\": {{\"dims\": [\"i\"], \"shape\": [6], \"dtype\": \"float32\", \
         \"values\": [{}]}}}}",
        finite.join(", ")
    );
    let path = dir.join("text.json");
    std::fs::write(&path, text).unwrap();
    assert_binary32("text grid set", &load_grid_set(&path).unwrap()["a"]);
    let path = dir.join("set.sfgs");
    write_grid_set(&path, [("a".to_string(), typed)].into_iter()).unwrap();
    assert_binary32("SFGS grid set", &load_grid_set(&path).unwrap()["a"]);
    let _ = std::fs::remove_dir_all(dir);

    // Window state: a stepped `float32` program whose windows hand their
    // state to the next through full grids, on both rungs — the outputs
    // are that state after the last window.
    let program = jacobi2d(1, &[12, 10], 1);
    let inputs: BTreeMap<String, Grid> = generate_inputs(&program, 9);
    let executor = ReferenceExecutor::new().with_fusion_window(2);
    let compiled = executor.prepare(&program).unwrap();
    for tier in [Tier::Fused, Tier::Jit] {
        for steps in 1..=5 {
            let spec = RunSpec {
                steps: Some(steps),
                tier,
            };
            let (result, _) = executor.execute(&compiled, &inputs, &spec).unwrap();
            for (name, grid) in result.fields() {
                assert_binary32(&format!("{tier} steps={steps} {name}"), grid);
            }
        }
    }
}
