//! Execution-level round-trips of emitted JIT stages: the C the emitter
//! produces is compiled with the real system `cc`, swept over one row of
//! cells per case set, and compared against the typed bytecode interpreter
//! **bitwise** on adversarial values — NaN, signed zeros, subnormals, range
//! extremes, and inputs chosen to expose double-rounding in the f32
//! `(double)(float)` wraps. Text pins (in the unit tests) say what the
//! emitter wrote; these tests say what the compiled code *does*.
//!
//! A kernel over `float32` slots is swept twice: from `float` cells (a
//! ring) and from `double` cells (a grid read in place). In both, an
//! operation on binary32 operands whose result rounds to binary32 runs in
//! `float` (`+`, `-`, `*`, `/`, `sqrt`, and the exact `fabs`, `min`, `max`,
//! negation and selects). For the first five, rounding the `double` result
//! to binary32 equals the `float` operation (Figueroa, "When is double
//! rounding innocuous?", 1995: 53 ≥ 2·24 + 2), which is also what makes the
//! `(double)(float)(...)` wrap a faithful image of the typed tier's
//! `finish(v, round)`. It does NOT hold for the transcendental calls, which
//! the emitter forwards to the same libm the interpreter uses, in `double`.

use stencilflow_codegen::{jit_translation_unit, JitSlotKind, JitStageSpec};
use stencilflow_expr::{parse_program, CompiledKernel, DataType, TypedKernel, TypedScratch};
use stencilflow_jit::{
    Cells, CellsMut, JitConfig, JitEngine, SlotArg, SweepArgs, SweepBuffers, Width,
};

fn typed(source: &str, slots: &[DataType]) -> TypedKernel {
    typed_with_slots(source, slots).0
}

/// The kernel of `source` specialized to `slots` (cycled over its slots),
/// with the slot types it was specialized to.
fn typed_with_slots(source: &str, slots: &[DataType]) -> (TypedKernel, Vec<DataType>) {
    let program = parse_program(source).expect("test kernels parse");
    let kernel = CompiledKernel::compile(&program).expect("test kernels compile");
    let slot_types: Vec<DataType> = kernel
        .slots()
        .iter()
        .zip(slots.iter().cycle())
        .map(|(_, t)| *t)
        .collect();
    let typed = kernel
        .specialize(&slot_types)
        .unwrap_or_else(|| panic!("`{source}` should specialize"));
    (typed, slot_types)
}

fn engine() -> JitEngine {
    let mut config = JitConfig::from_env();
    config.cache_dir =
        std::env::temp_dir().join(format!("sf-jit-roundtrip-{}", std::process::id()));
    JitEngine::new(config).expect("system cc must be available for round-trip tests")
}

/// The width of a buffer of element type `dtype`.
fn width(dtype: DataType) -> Width {
    match dtype {
        DataType::Float32 => Width::F32,
        _ => Width::F64,
    }
}

/// A row of cells of element type `dtype`.
enum Row {
    F32(Vec<f32>),
    F64(Vec<f64>),
}

impl Row {
    /// `values` as cells of `dtype`; a `float` cell must hold its value
    /// exactly.
    fn new(dtype: DataType, values: impl Iterator<Item = f64>) -> Row {
        match dtype {
            DataType::Float32 => Row::F32(
                values
                    .map(|v| {
                        assert!(v.is_nan() || f64::from(v as f32) == v, "{v} is no f32");
                        v as f32
                    })
                    .collect(),
            ),
            _ => Row::F64(values.collect()),
        }
    }

    fn cells(&self) -> Cells<'_> {
        match self {
            Row::F32(cells) => Cells::F32(cells),
            Row::F64(cells) => Cells::F64(cells),
        }
    }
}

/// Emit `source` as one stage over `slots` (cycled over its slots), slot
/// `s` a tap of `cells[s]` cells (cycled), storing into `store` cells —
/// a `Float32` store rounds the result — and sweep it natively over one
/// row holding every case of `cases` (each one slot assignment). Every
/// stored cell must agree with the bytecode, stored alike, by `agree(case,
/// native, bytecode)`. Returns the unit.
fn sweep_roundtrip(
    engine: &JitEngine,
    source: &str,
    slots: &[DataType],
    cells: &[DataType],
    store: DataType,
    cases: &[&[f64]],
    agree: fn(&[f64], f64, f64) -> bool,
) -> String {
    let (kernel, slot_types) = typed_with_slots(source, slots);
    let count = slot_types.len();
    let cells: Vec<DataType> = cells.iter().cycle().take(count).copied().collect();
    let round = store == DataType::Float32;
    let spec = JitStageSpec {
        symbol: "sf_stage_0".to_string(),
        kernel: &kernel,
        slot_kinds: cells.iter().map(|&t| JitSlotKind::Tap(t)).collect(),
        slot_types: &slot_types,
        round_output: round,
        store,
    };
    let (unit, _) = jit_translation_unit(&[spec]).expect("eligible stages emit");
    let module = engine.load(source, &unit).expect("emitted unit compiles");
    let widths: Vec<Option<Width>> = cells.iter().map(|&t| Some(width(t))).collect();
    let stage = engine
        .stage_fn(&module, "sf_stage_0", &widths, width(store))
        .expect("the stage symbol resolves");
    for case in cases {
        assert!(case.len() >= count, "bad case arity for `{source}`");
    }
    let rows: Vec<Row> = (cells.iter().enumerate())
        .map(|(s, &dtype)| Row::new(dtype, cases.iter().map(|case| case[s])))
        .collect();
    let n = cases.len();
    let taps = rows.iter().map(|row| SlotArg::Tap {
        buf: row.cells(),
        base: 0,
        s0: n,
        s1: n,
    });
    let mut out = Row::new(store, std::iter::repeat_n(0.0, n));
    let out_cells = match &mut out {
        Row::F32(cells) => CellsMut::F32(cells),
        Row::F64(cells) => CellsMut::F64(cells),
    };
    let mut args = SweepArgs {
        out: out_cells,
        out_base: 0,
        out_s0: n,
        out_s1: n,
        n0: 1,
        n1: 1,
        nk: n,
    };
    stage
        .sweep(taps, &mut args, &mut SweepBuffers::default())
        .expect("sweep");
    let mut scratch = TypedScratch::default();
    for (cell, full) in cases.iter().enumerate() {
        let case = &full[..count];
        let want = kernel.eval_slots(case, &mut scratch);
        let want = if round { f64::from(want as f32) } else { want };
        let got = out.cells().get(cell);
        assert!(
            agree(case, got, want),
            "`{source}` on {case:?}: native {got:?} ({:#x}) != bytecode {want:?} ({:#x})\n{unit}",
            got.to_bits(),
            want.to_bits()
        );
    }
    unit
}

/// Sweep `source` over `slots` from cells of each slot's own type and, for
/// a kernel with `float32` slots, from `double` cells too, storing the
/// unrounded result into `double` cells, on every row of `cases`; agreement
/// is judged by `agree`. Returns the unit of the first sweep.
fn roundtrip(
    engine: &JitEngine,
    source: &str,
    slots: &[DataType],
    cases: &[&[f64]],
    agree: fn(&[f64], f64, f64) -> bool,
) -> String {
    let f64s = [DataType::Float64];
    let unit = sweep_roundtrip(engine, source, slots, slots, f64s[0], cases, agree);
    if slots.contains(&DataType::Float32) {
        sweep_roundtrip(engine, source, slots, &f64s, f64s[0], cases, agree);
    }
    unit
}

/// [`roundtrip`], bit for bit.
fn assert_roundtrip(
    engine: &JitEngine,
    source: &str,
    slots: &[DataType],
    cases: &[&[f64]],
) -> String {
    roundtrip(engine, source, slots, cases, same_bits)
}

/// Bitwise equality.
fn same_bits(_: &[f64], got: f64, want: f64) -> bool {
    got.to_bits() == want.to_bits()
}

/// The NaN contract of `kernel_tiers_agree_on_the_analyze_suite`: a NaN
/// equals a NaN only on a row that carries a NaN input — which NaN of two
/// survives an operation is unspecified — and bits match everywhere else.
fn nan_contract(case: &[f64], got: f64, want: f64) -> bool {
    same_bits(case, got, want) || (got.is_nan() && want.is_nan() && case.iter().any(|v| v.is_nan()))
}

/// Adversarial f64 operand pairs: NaN, signed zeros, subnormals, the
/// double-rounding tripwire, and range extremes.
///
/// Only the default quiet NaN appears: when *both* operands of a
/// commutative operation are NaNs with different payload or sign bits,
/// IEEE 754 leaves the surviving payload unspecified and Rust and C
/// compilers may legally pick different operands, so that case sits
/// outside the bit-identity contract. Every NaN the pipeline itself
/// manufactures (0/0, inf−inf, …) is the default quiet NaN, for which the
/// question is moot.
///
/// The NaN *sign bit* through negation is equally unspecified: compilers
/// fold `-(x) + c` to `c - x` (exact for every non-NaN `x`), which keeps
/// the NaN's sign where the bytecode's explicit `Neg` flips it — so
/// negation kernels are exercised on the NaN-free set below.
#[allow(clippy::excessive_precision)] // the over-long literal IS the test
fn f64_pairs() -> Vec<[f64; 2]> {
    let specials = [
        f64::NAN,
        0.0,
        -0.0,
        5e-324, // minimum subnormal
        -5e-324,
        2.2250738585072011e-308, // largest subnormal (double-rounding tripwire)
        f64::MIN_POSITIVE,
        1.0,
        -1.0,
        1.0000000000000002, // nextafter(1.0)
        0.1,
        -2.5,
        1e300,
        -1.7976931348623157e308,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut pairs = Vec::new();
    for &a in &specials {
        for &b in &specials {
            pairs.push([a, b]);
        }
    }
    pairs
}

/// Adversarial *exact-f32* operand pairs, widened to f64 the way the
/// runtime widens f32 grids.
fn f32_pairs() -> Vec<[f64; 2]> {
    let specials: Vec<f64> = [
        f32::NAN,
        0.0f32,
        -0.0f32,
        1e-45f32, // minimum f32 subnormal
        -1e-45f32,
        1.1754942e-38f32, // largest f32 subnormal
        f32::MIN_POSITIVE,
        1.0f32,
        1.0000001f32, // nextafter(1.0f)
        0.1f32,
        -2.25f32,
        3.4028235e38f32, // f32::MAX
        -3.4028235e38f32,
        f32::INFINITY,
        f32::NEG_INFINITY,
    ]
    .iter()
    .map(|&v| v as f64)
    .collect();
    let mut pairs = Vec::new();
    for &a in &specials {
        for &b in &specials {
            pairs.push([a, b]);
        }
    }
    pairs
}

#[test]
fn f64_arithmetic_round_trips_on_special_values() {
    let engine = engine();
    let pairs = f64_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for source in [
        "a[i] + b[i]",
        "a[i] - b[i]",
        "a[i] * b[i]",
        "a[i] / b[i]",
        "a[i] * b[i] + a[i] / b[i] - 2.5",
        "min(a[i], b[i])",
        "max(a[i], b[i])",
        "min(b[i], a[i]) - max(b[i], a[i])",
        "min(a[i], 0.0) + max(-0.0, b[i])",
        "abs(a[i]) + floor(b[i]) - ceil(b[i])",
        "sqrt(abs(a[i])) * b[i]",
        // Both arms of a select are evaluated: the division runs for every
        // divisor, its result is dropped where the guard fails.
        "b[i] != 0.0 ? a[i] / b[i] : 0.0",
        "delta = a[i+1] - a[i]; delta > 4.0 ? 4.0 : delta",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float64], &cases);
    }
}

#[test]
fn negation_round_trips_on_nan_free_specials() {
    // Signed zeros and infinities through `Neg`: -(-0.0) must come back
    // as +0.0 bitwise. NaN is excluded — see `f64_pairs` on why the NaN
    // sign bit through negation is compiler-unspecified.
    let engine = engine();
    let values = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1.0,
        -1.0,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut pairs = Vec::new();
    for &a in &values {
        for &b in &values {
            // 0 × inf manufactures a NaN mid-kernel, putting the pair
            // back in the unspecified NaN-sign territory.
            if (a * b).is_nan() || (b + 0.5).is_nan() {
                continue;
            }
            pairs.push([a, b]);
        }
    }
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for source in ["-a[i]", "-(a[i] * b[i]) + 0.5", "-a[i] * (b[i] + 0.5)"] {
        assert_roundtrip(&engine, source, &[DataType::Float64], &cases);
    }
}

#[test]
fn f32_round_wraps_round_trip_on_special_values() {
    // Every store and intermediate carries the f32 round flag; the C side
    // must land on bit-identical doubles through (double)(float) wraps.
    let engine = engine();
    let pairs = f32_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for source in [
        "a[i] + b[i]",
        "a[i] - b[i]",
        "a[i] * b[i]",
        "a[i] / b[i]",
        "a[i] * b[i] + a[i] / b[i]",
        "min(a[i], b[i])",
        "max(a[i], b[i])",
        "min(b[i], a[i]) - max(b[i], a[i])",
        "min(a[i], 0.0) + max(-0.0, b[i])",
        "abs(a[i]) - b[i]",
        "sqrt(abs(a[i]))",
        "floor(a[i]) + ceil(b[i])",
        "b[i] != 0.0 ? a[i] / b[i] : 0.0",
        // Horizontal diffusion's limiter: the arms have different widths
        // (the f64 literal, the f32 difference), so the select also picks
        // whether the result rounds.
        "delta = a[i+1] - a[i]; delta > 4.0 ? 4.0 : delta",
        // `!x` is 1.0 only for ±0.0; `x && y` tests `y != 0.0`, so NaN is
        // true and -0.0 false.
        "(!a[i]) * 2.0 + b[i]",
        "a[i] && b[i] ? 1.0 : 2.0",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float32], &cases);
    }
}

#[test]
fn mixed_width_joins_round_trip_on_special_values() {
    // f32 slots joined with f64 literal arms: the value's width is a
    // runtime flag, and every operation on it rounds by select. The C side
    // must reproduce that on the rows where rounding decides the result —
    // above all a product that is positive in f64 but underflows to zero
    // in f32, which flips horizontal diffusion's `lim * diff > 0.0`.
    let engine = engine();
    let pairs = f32_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for source in [
        "x = a[i] > 0.5 ? 0.1 : a[i]; x * b[i]",
        "x = a[i] > 0.5 ? a[i] : 0.1; b[i] / x",
        "x = a[i] > 0.5 ? 0.1 : a[i]; x * b[i] > 0.0 ? 0.0 : x",
        "x = a[i] > 0.5 ? 0.1 : a[i]; sqrt(abs(x)) + min(x, b[i]) - max(0.3, x)",
        "x = a[i] > 0.5 ? 0.1 : a[i]; y = b[i] > 0.0 ? b[i] : 0.7; x * y + x",
        "x = a[i] > 0.5 ? 0.1 : a[i]; y = b[i] > 0.0 ? x : b[i]; y * b[i] - 0.1",
        "a[i] < 0.5 ? a[i] : 0.5",
        "a[i] * b[i] > 100000.0 ? 100000.0 : a[i] * b[i]",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float32], &cases);
    }
    // The flux limiter itself, slots a[i+1], a[i], b[i+1], b[i].
    let tiny = 1e-30f32 as f64;
    let sub = 1e-45f32 as f64;
    let max = f32::MAX as f64;
    let quads: Vec<[f64; 4]> = vec![
        // lim is f32 and lim * diff underflows in f32 only.
        [tiny, 0.0, tiny, 0.0],
        [sub, 0.0, sub, 0.0],
        [-tiny, 0.0, 0.0, tiny],
        // lim is the f64 literal: the product must stay unrounded.
        [9.0, 1.0, sub, 0.0],
        [9.0, 1.0, 0.0, sub],
        [max, -max, 0.1f32 as f64, 0.0],
        // Signed zeros, infinities, NaN.
        [-0.0, 0.0, 0.0, -0.0],
        [0.0, -0.0, -0.0, 0.0],
        [f64::INFINITY, 1.0, f64::NEG_INFINITY, 1.0],
        [1.0, f64::INFINITY, 1.0, f64::INFINITY],
        [f64::NAN, 1.0, 2.0, 1.0],
        [5.0, 1.0, f64::NAN, 1.0],
        [1.0, f64::NAN, f64::NAN, 1.0],
    ];
    let cases: Vec<&[f64]> = quads.iter().map(|q| q.as_slice()).collect();
    assert_roundtrip(
        &engine,
        "delta = a[i+1] - a[i]; lim = delta > 4.0 ? 4.0 : delta; \
         lim * (b[i+1] - b[i]) > 0.0 ? 0.0 : lim",
        &[DataType::Float32],
        &cases,
    );
}

#[test]
fn exact_float_literals_survive_c_parsing() {
    // Literals are emitted with Rust's shortest-round-trip formatting; the
    // C compiler must parse them back to the identical doubles. Exercised
    // at execution: `a + lit - a` style kernels leak any literal drift.
    let engine = engine();
    let zero: &[f64] = &[0.0];
    let one: &[f64] = &[1.0];
    for source in [
        "a[i] + 0.1",
        "a[i] + 5e-324",
        "a[i] + 2.2250738585072011e-308",
        "a[i] + 1.0000000000000002",
        "a[i] + 3.141592653589793",
        "a[i] * 1e300",
        "a[i] - 1.7976931348623157e308",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float64], &[zero, one]);
    }
}

#[test]
fn clamp_fusion_is_nan_faithful_in_compiled_code() {
    // The emitter fuses literal-else clamp selects to fmin/fmax only in
    // the orientations where the IEEE fmin/fmax NaN rule ("return the
    // non-NaN operand") agrees with the bytecode select. Execute every
    // orientation on NaN and friends against the interpreter: any
    // unfaithful fusion shows up as a bitwise diff here.
    let engine = engine();
    let values: Vec<[f64; 1]> = [
        f64::NAN,
        -f64::NAN,
        0.0,
        -0.0,
        0.5,
        0.25,
        0.75,
        5e-324,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
    .iter()
    .map(|&v| [v])
    .collect();
    let cases: Vec<&[f64]> = values.iter().map(|p| p.as_slice()).collect();
    for source in [
        // Fusible orientations (fmin/fmax spelling).
        "a[i] < 0.5 ? a[i] : 0.5",
        "a[i] > 0.5 ? a[i] : 0.5",
        "a[i] <= 0.5 ? a[i] : 0.5",
        "a[i] >= 0.5 ? a[i] : 0.5",
        // Literal-then orientations: NOT fusible (fmin/fmax would launder
        // the NaN into the literal); must stay C ternaries.
        "a[i] < 0.5 ? 0.5 : a[i]",
        "a[i] > 0.5 ? 0.5 : a[i]",
        // Reversed operand orders.
        "0.5 < a[i] ? a[i] : 0.5",
        "0.5 > a[i] ? a[i] : 0.5",
        // Equality selects never fuse.
        "a[i] == 0.5 ? a[i] : 0.5",
        "a[i] != 0.5 ? a[i] : 0.5",
        // Two-sided clamp.
        "min(max(a[i], 0.25), 0.75)",
        "a[i] < 0.25 ? 0.25 : (a[i] > 0.75 ? 0.75 : a[i])",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float64], &cases);
    }
}

#[test]
fn locals_comparisons_and_logic_round_trip() {
    let engine = engine();
    let pairs = f64_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for source in [
        // CSE/user locals become const double temporaries.
        "u = a[i] * b[i]; u + u / b[i]",
        "u = a[i] + b[i]; v = u * u; v - u",
        // Comparison results feed arithmetic as exact 0.0/1.0.
        "(a[i] < b[i]) + (a[i] > b[i]) * 2.0",
        // Select on a NaN condition takes the else arm, like JumpIfFalse.
        "a[i] == a[i] ? 1.0 : 2.0",
        // A raw float condition is true when non-zero, NaN included.
        "a[i] ? b[i] : 2.5",
        "a[i] < b[i] ? a[i] - b[i] : b[i] - a[i]",
        // Short-circuit logic if-converts to selects; NaN is falsy in
        // comparisons and truthy nowhere here.
        "a[i] > 0.0 && b[i] > 0.0 ? a[i] : b[i]",
        "a[i] > 0.0 || b[i] > 0.0 ? a[i] : b[i]",
        "!(a[i] < b[i]) ? a[i] : b[i]",
        // `!` and the truth test of `&&`/`||` on NaN and -0.0.
        "(!a[i]) * 2.0 + b[i]",
        "!a[i] ? b[i] : 2.5",
        "a[i] && b[i] ? 1.0 : 2.0",
        "(a[i] || b[i]) * 3.0",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float64], &cases);
    }
}

#[test]
fn transcendental_calls_forward_to_libm_bitwise() {
    // exp/log/pow/sin/cos/tan are not double-rounding-exact, so they are
    // only tested in f64 kernels (no round wraps): both sides call the
    // same libm and must agree bitwise.
    let engine = engine();
    let pairs = f64_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for source in [
        "exp(a[i]) + b[i]",
        "log(abs(a[i]) + 1.0)",
        "pow(abs(a[i]), b[i])",
        "sin(a[i]) * cos(b[i]) + tan(a[i])",
    ] {
        assert_roundtrip(&engine, source, &[DataType::Float64], &cases);
    }
}

#[test]
fn stage_symbols_sweep_alike_as_aliases_and_as_forwarders() {
    // Three stages over two bodies. `SF_STAGE` exports a stage as an alias
    // of its body on ELF and as a forwarding call elsewhere; `-U__ELF__`
    // compiles the elsewhere here. (Its own cache directories: another
    // salt in the shared one would evict the other tests' entries.)
    let shared = typed("0.5 * a[i] + b[i]", &[DataType::Float64]);
    let other = typed("a[i] - 0.25 * b[i]", &[DataType::Float64]);
    let stages = [&shared, &other, &shared];
    let specs: Vec<JitStageSpec<'_>> = stages
        .iter()
        .enumerate()
        .map(|(ix, kernel)| JitStageSpec {
            symbol: format!("sf_stage_{ix}"),
            kernel,
            slot_kinds: vec![JitSlotKind::Tap(DataType::Float64); 2],
            slot_types: &[DataType::Float64; 2],
            round_output: false,
            store: DataType::Float64,
        })
        .collect();
    let (unit, bodies) = jit_translation_unit(&specs).expect("eligible stages emit");
    assert_eq!(bodies, 2);

    let a: Vec<f64> = (0..24).map(|i| f64::from(i) * 0.37 - 3.0).collect();
    let b: Vec<f64> = (0..24).map(|i| 1.0 / (f64::from(i) + 0.5)).collect();
    let tap = |buf| SlotArg::Tap {
        buf: Cells::F64(buf),
        base: 0,
        s0: 12,
        s1: 4,
    };
    let mut scratch = TypedScratch::default();
    for (form, flags) in [
        ("alias", vec![]),
        ("forward", vec!["-U__ELF__".to_string()]),
    ] {
        let mut config = JitConfig::from_env();
        config.cache_dir =
            std::env::temp_dir().join(format!("sf-jit-roundtrip-{form}-{}", std::process::id()));
        config.extra_flags = flags;
        let cache_dir = config.cache_dir.clone();
        let engine = JitEngine::new(config).expect("system cc must be available");
        let module = engine.load(form, &unit).expect("emitted unit compiles");
        for (ix, kernel) in stages.iter().enumerate() {
            let widths = [Some(Width::F64); 2];
            let stage = engine
                .stage_fn(&module, &format!("sf_stage_{ix}"), &widths, Width::F64)
                .expect("every stage exports its own symbol");
            let mut out = vec![0.0; 24];
            let mut args = SweepArgs {
                out: CellsMut::F64(&mut out),
                out_base: 0,
                out_s0: 12,
                out_s1: 4,
                n0: 2,
                n1: 3,
                nk: 4,
            };
            stage
                .sweep([tap(&a), tap(&b)], &mut args, &mut SweepBuffers::default())
                .expect("sweep");
            for (cell, got) in out.iter().enumerate() {
                let want = kernel.eval_slots(&[a[cell], b[cell]], &mut scratch);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{form} stage {ix} cell {cell}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(cache_dir);
    }
}

#[test]
fn binary32_operations_run_in_float_and_round_trip_on_special_values() {
    // Every operation the emitter moves to `float` on binary32 operands
    // (±0, subnormals, the largest finite values, ±inf and the default
    // NaN, which the NaN contract of `f64_pairs` admits), in the spelling
    // a stage body over `float` cells gets (`roundtrip` also sweeps them
    // from `double` cells).
    let engine = engine();
    let pairs = f32_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for (source, form) in [
        ("a[i] + b[i]", "(sf_p0[sf_k] + sf_p1[sf_k])"),
        ("a[i] - b[i]", "(sf_p0[sf_k] - sf_p1[sf_k])"),
        ("a[i] * b[i]", "(sf_p0[sf_k] * sf_p1[sf_k])"),
        ("a[i] / b[i]", "(sf_p0[sf_k] / sf_p1[sf_k])"),
        ("sqrt(a[i]) + b[i]", "(sqrtf(sf_p0[sf_k]) + sf_p1[sf_k])"),
        ("abs(a[i]) - b[i]", "(fabsf(sf_p0[sf_k]) - sf_p1[sf_k])"),
        ("min(a[i], b[i])", "sf_minf(sf_p0[sf_k], sf_p1[sf_k])"),
        ("max(a[i], b[i])", "sf_maxf(sf_p0[sf_k], sf_p1[sf_k])"),
        ("a[i] < b[i] ? a[i] : b[i]", "const float sf_t2 = "),
        (
            "(a[i] + b[i]) * (a[i] - b[i]) / (a[i] * b[i])",
            "sf_o[sf_k] = (double)(((sf_p0[sf_k] + sf_p1[sf_k]) * (sf_p0[sf_k] - sf_p1[sf_k])) \
             / (sf_p0[sf_k] * sf_p1[sf_k]));",
        ),
    ] {
        let unit = roundtrip(&engine, source, &[DataType::Float32], &cases, nan_contract);
        assert!(unit.contains(form), "`{source}`: no `{form}` in:\n{unit}");
    }
}

#[test]
fn a_stored_round_floats_the_last_op_only_over_binary32_literals() {
    // The f64 product of an f32 field and a literal rounds only on the
    // f32 store. `0.125` is a binary32 value, so the product runs in
    // float; `0.1` is not, so it stays double and the store rounds.
    let engine = engine();
    let f32s = [DataType::Float32];
    let pairs = f32_pairs();
    let cases: Vec<&[f64]> = pairs.iter().map(|p| p.as_slice()).collect();
    for (source, store) in [
        (
            "0.125 * (a[i] + b[i])",
            "sf_o[sf_k] = (0.125f * (sf_p0[sf_k] + sf_p1[sf_k]));",
        ),
        (
            "0.1 * (a[i] + b[i])",
            "sf_o[sf_k] = (float)((0.1 * (double)(sf_p0[sf_k] + sf_p1[sf_k])));",
        ),
        (
            "0.1 * a[i]",
            "sf_o[sf_k] = (float)((0.1 * (double)sf_p0[sf_k]));",
        ),
    ] {
        let unit = sweep_roundtrip(&engine, source, &f32s, &f32s, f32s[0], &cases, nan_contract);
        assert!(unit.contains(store), "`{source}`: no `{store}` in:\n{unit}");
    }
}
