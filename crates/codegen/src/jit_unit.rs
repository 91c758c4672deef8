//! The C expression emitter, and whole-program units for the Tier-4 native
//! backend.
//!
//! Every kernel body this crate prints comes from `emit_kernel`, which
//! emits from the **typed** instruction stream ([`TypedOp`]) the
//! interpreter's fast tiers actually execute: all arithmetic in `double`
//! with explicit `(double)(float)` wraps exactly where the typed kernel
//! carries a static `round` flag. That makes the compiled code
//! bit-identical to `TypedKernel::eval_slots` / `eval_lanes` by
//! construction — the same operations in the same order with the same
//! roundings, lowered through the same libm symbols — which is the
//! foundation of the Tier-4 golden pins. The OpenCL kernel file
//! ([`crate::opencl`]) prints the same body as each stencil's compute
//! phase; only how a slot is read differs.
//!
//! Two entry points here:
//!
//! * [`jit_translation_unit`] — the real backend: one exported
//!   `sf_stage_{i}` per fused stage, each a name for one of the unit's
//!   *distinct* sweep bodies (a chain of identical stencils has one), all
//!   in a single translation unit compiled once per distinct text.
//! * [`jit_eval_unit`] — a single `double f(const double *slots)` wrapper
//!   around one kernel, used by the execution-level round-trip tests to
//!   compare compiled C against the bytecode one value vector at a time.
//!
//! A typed kernel is a straight-line expression DAG by type (`TypedOp`
//! has no jumps; conditionals are `Select`s), so emission fails only on a
//! malformed stream or a NaN constant (unrepresentable as a C literal):
//! the JIT surfaces the error as an ineligibility reason and falls back to
//! the fused tier, the OpenCL file as an `#error` line.

use std::collections::HashMap;
use stencilflow_expr::value::CompareOp;
use stencilflow_expr::{BinOp, MathFn, TypedKernel, TypedOp};

/// How one kernel slot is materialized inside an emitted stage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitSlotKind {
    /// A program scalar: hoisted once from the scalar table, loop-invariant.
    Scalar,
    /// A grid tap: read through the slot's per-row pointer at the sweep
    /// index.
    Tap,
}

/// One fused stage to emit into the translation unit.
#[derive(Debug)]
pub struct JitStageSpec<'a> {
    /// Exported symbol name (`sf_stage_{i}` by convention).
    pub symbol: String,
    /// The typed (specialized) kernel for the stage's stencil.
    pub kernel: &'a TypedKernel,
    /// One entry per kernel slot, in slot order.
    pub slot_kinds: Vec<JitSlotKind>,
    /// Round the stored result through `f32` (the stage's output grid is
    /// `Float32`), mirroring the executor's `round_lanes`.
    pub round_output: bool,
}

/// The C signature every emitted stage function has. Row pointers: slot
/// `s` at `(i0, i1)` starts at `sf_slots[s] + i0*sf_ss0[s] + i1*sf_ss1[s]`,
/// the output row at `sf_out + i0*sf_os0 + i1*sf_os1`; the sweep touches
/// indices `[0, sf_nk)` of each row and nothing else.
pub(crate) const JIT_STAGE_PARAMS: &str =
    "(const double *const *sf_slots, const double *sf_scalars, \
     const int64_t *sf_ss0, const int64_t *sf_ss1, \
     double *restrict sf_out, int64_t sf_os0, int64_t sf_os1, \
     int64_t sf_n0, int64_t sf_n1, int64_t sf_nk)";

/// [`JIT_STAGE_PARAMS`]' names in order: what a forwarding stage passes on.
const JIT_STAGE_ARGS: &str =
    "(sf_slots, sf_scalars, sf_ss0, sf_ss1, sf_out, sf_os0, sf_os1, sf_n0, sf_n1, sf_nk)";

/// Emit a whole fused program — every live stage — as one C translation
/// unit, and say how many distinct sweep bodies it holds.
///
/// Stages whose emitted sweeps are the same text share one `static
/// sf_body_{k}`, and every stage exports its own symbol over its body
/// (`SF_STAGE`: an alias on ELF, which costs `cc` nothing; a forwarding
/// call elsewhere): the symbol table follows the stage list, the code
/// `cc` optimizes follows the number of distinct kernels. Sameness is
/// judged on the text, not on the specs — `0.0 == -0.0` for a derived
/// `PartialEq`, not for a stencil.
///
/// # Errors
///
/// Fails when any stage's kernel reads an uninitialized local or embeds a
/// NaN constant; the message names the
/// offending symbol so executors can report a precise fallback reason.
pub fn jit_translation_unit(stages: &[JitStageSpec<'_>]) -> Result<(String, usize), String> {
    let mut unit = format!(
        "/* Generated by stencilflow-codegen (Tier-4 native backend). Do not edit.\n\
          * Arithmetic is double with explicit (double)(float) rounds, matching the\n\
          * typed bytecode tiers bit for bit; compile with -ffp-contract=off. */\n\
         #include <stdint.h>\n\
         #include <math.h>\n\
         #ifdef __ELF__\n\
         #define SF_STAGE(stage, body) \
         void stage{JIT_STAGE_PARAMS} __attribute__((alias(#body)));\n\
         #else\n\
         #define SF_STAGE(stage, body) \
         void stage{JIT_STAGE_PARAMS} {{ body{JIT_STAGE_ARGS}; }}\n\
         #endif\n"
    );
    let mut bodies: HashMap<String, usize> = HashMap::new();
    let mut exports = String::from("\n");
    for stage in stages {
        let body = emit_stage(stage).map_err(|e| format!("stage `{}`: {e}", stage.symbol))?;
        let fresh = bodies.len();
        let k = *bodies.entry(body).or_insert_with_key(|body| {
            unit.push_str(&format!(
                "\nstatic void sf_body_{fresh}{JIT_STAGE_PARAMS} {body}"
            ));
            fresh
        });
        exports.push_str(&format!("SF_STAGE({}, sf_body_{k})\n", stage.symbol));
    }
    unit.push_str(&exports);
    Ok((unit, bodies.len()))
}

/// Emit one kernel as `double {symbol}(const double *sf_slots)` (every
/// slot read straight from the argument vector), for the execution-level
/// round-trip tests.
///
/// # Errors
///
/// Same conditions as [`jit_translation_unit`].
pub fn jit_eval_unit(kernel: &TypedKernel, symbol: &str) -> Result<String, String> {
    let body = emit_kernel(kernel, &|ix| format!("sf_slots[{ix}]"))?;
    let mut unit = String::new();
    unit.push_str(
        "/* Generated by stencilflow-codegen (Tier-4 native backend). Do not edit. */\n\
         #include <stdint.h>\n\
         #include <math.h>\n\n",
    );
    unit.push_str(&format!("double {symbol}(const double *sf_slots) {{\n"));
    for stmt in &body.statements {
        unit.push_str(&format!("    {stmt}\n"));
    }
    unit.push_str(&format!("    return {};\n}}\n", body.result));
    Ok(unit)
}

/// Statements plus final expression produced by symbolically executing a
/// typed kernel.
pub(crate) struct EmittedKernel {
    pub(crate) statements: Vec<String>,
    result: String,
}

impl EmittedKernel {
    /// The result as stored to an output grid. Storing mirrors the
    /// executor's `round_lanes`: `Float32` outputs (`round`) round the
    /// final double through `f32`, `Float64` stores as-is.
    pub(crate) fn stored(&self, round: bool) -> String {
        if round {
            format!("(double)(float)({})", self.result)
        } else {
            self.result.clone()
        }
    }
}

/// The braces of one stage's sweep function and everything between them.
fn emit_stage(stage: &JitStageSpec<'_>) -> Result<String, String> {
    if stage.slot_kinds.len() != stage.kernel.slot_count() {
        return Err(format!(
            "slot kinds ({}) do not match kernel slots ({})",
            stage.slot_kinds.len(),
            stage.kernel.slot_count()
        ));
    }
    let body = emit_kernel(stage.kernel, &|ix| match stage.slot_kinds[ix] {
        JitSlotKind::Scalar => format!("sf_s{ix}"),
        JitSlotKind::Tap => format!("sf_p{ix}[sf_k]"),
    })?;
    let taps: Vec<usize> = stage
        .slot_kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| **k == JitSlotKind::Tap)
        .map(|(ix, _)| ix)
        .collect();
    let scalars: Vec<usize> = stage
        .slot_kinds
        .iter()
        .enumerate()
        .filter(|(_, k)| **k == JitSlotKind::Scalar)
        .map(|(ix, _)| ix)
        .collect();

    let mut f = String::from("{\n");
    // Silence unused-parameter warnings for stages without scalars/taps;
    // the parameter list is fixed by the ABI.
    if taps.is_empty() {
        f.push_str("    (void)sf_slots; (void)sf_ss0; (void)sf_ss1;\n");
    }
    if scalars.is_empty() {
        f.push_str("    (void)sf_scalars;\n");
    }
    for ix in &scalars {
        f.push_str(&format!("    const double sf_s{ix} = sf_scalars[{ix}];\n"));
    }
    f.push_str("    for (int64_t sf_i0 = 0; sf_i0 < sf_n0; ++sf_i0) {\n");
    f.push_str("        for (int64_t sf_i1 = 0; sf_i1 < sf_n1; ++sf_i1) {\n");
    for ix in &taps {
        f.push_str(&format!(
            "            const double *sf_p{ix} = sf_slots[{ix}] \
             + sf_i0 * sf_ss0[{ix}] + sf_i1 * sf_ss1[{ix}];\n"
        ));
    }
    f.push_str("            double *sf_o = sf_out + sf_i0 * sf_os0 + sf_i1 * sf_os1;\n");
    f.push_str("            for (int64_t sf_k = 0; sf_k < sf_nk; ++sf_k) {\n");
    for stmt in &body.statements {
        f.push_str(&format!("                {stmt}\n"));
    }
    f.push_str(&format!(
        "                sf_o[sf_k] = {};\n",
        body.stored(stage.round_output)
    ));
    f.push_str("            }\n        }\n    }\n}\n");
    Ok(f)
}

/// Wrap `expr` in the typed tiers' `finish(v, round)`: an `f64 → f32 →
/// f64` round-trip when the instruction carries the static round flag.
fn finish(expr: String, round: bool) -> String {
    if round {
        format!("(double)(float){expr}")
    } else {
        expr
    }
}

fn compare_binop(op: CompareOp) -> BinOp {
    match op {
        CompareOp::Lt => BinOp::Lt,
        CompareOp::Gt => BinOp::Gt,
        CompareOp::Le => BinOp::Le,
        CompareOp::Ge => BinOp::Ge,
        CompareOp::Eq => BinOp::Eq,
        CompareOp::Ne => BinOp::Ne,
    }
}

/// The libm (and OpenCL builtin) name of a math function, `double`
/// flavor.
fn mathfn_c(func: MathFn) -> &'static str {
    match func {
        MathFn::Sqrt => "sqrt",
        MathFn::Abs => "fabs",
        MathFn::Min => "fmin",
        MathFn::Max => "fmax",
        MathFn::Exp => "exp",
        MathFn::Log => "log",
        MathFn::Pow => "pow",
        MathFn::Sin => "sin",
        MathFn::Cos => "cos",
        MathFn::Tan => "tan",
        MathFn::Floor => "floor",
        MathFn::Ceil => "ceil",
    }
}

/// Structural summary of a stack entry tracked by [`emit_kernel`] to
/// recognize clamp patterns at `Select` sites.
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    /// A finite floating-point literal.
    Literal(f64),
    /// An ordering comparison with its operands' rendered C expressions
    /// (and, when literal, their values).
    Compare {
        op: BinOp,
        lhs: String,
        rhs: String,
        lhs_literal: Option<f64>,
        rhs_literal: Option<f64>,
    },
    /// Anything else.
    Other,
}

/// Try to fuse `cond ? then : otherwise` into `fmin` / `fmax`.
///
/// Only the bit-faithful orientations fuse: the *else* arm must be a
/// finite **non-zero** literal `c` and the *then* arm the other compared
/// operand `x` (`x < c ? x : c`, `x > c ? x : c`, `c < x ? x : c`,
/// `c > x ? x : c`). A NaN `x` fails the comparison and selects `c` —
/// exactly what IEEE `fmin`/`fmax` return against a NaN operand — and
/// with `c` non-zero a numeric tie (`x == c`) implies identical bits, so
/// the fused form agrees with the ternary on *every* input. Zero
/// literals are excluded: `x = ∓0.0` ties against `c = ±0.0` with
/// different bits, and `fmin`/`fmax` may return either zero where the
/// ternary's pick is fixed by the comparison. The mirrored orientation
/// with the literal in the then-arm (`x > c ? c : x`) propagates a NaN
/// where `fmin` would return `c`, so it deliberately stays a select.
fn fuse_clamp(cond: &Shape, then: &str, otherwise: &Shape, otherwise_str: &str) -> Option<String> {
    let Shape::Compare {
        op,
        lhs,
        rhs,
        lhs_literal,
        rhs_literal,
    } = cond
    else {
        return None;
    };
    let Shape::Literal(c) = otherwise else {
        return None;
    };
    if !c.is_finite() || *c == 0.0 {
        return None;
    }
    // `x` is whichever compared operand the then-arm repeats; the else
    // arm must be the other (literal) operand.
    let (x, pick_smaller) = if then == lhs && otherwise_str == rhs && rhs_literal.is_some() {
        // x OP c ? x : c
        match op {
            BinOp::Lt | BinOp::Le => (lhs, true),
            BinOp::Gt | BinOp::Ge => (lhs, false),
            _ => return None,
        }
    } else if then == rhs && otherwise_str == lhs && lhs_literal.is_some() {
        // c OP x ? x : c
        match op {
            BinOp::Lt | BinOp::Le => (rhs, false),
            BinOp::Gt | BinOp::Ge => (rhs, true),
            _ => return None,
        }
    } else {
        return None;
    };
    let func = if pick_smaller { "fmin" } else { "fmax" };
    Some(format!("{func}({x}, {otherwise_str})"))
}

/// Symbolically execute a typed kernel into C statements plus a result
/// expression, rendering slot `ix` through `slot_expr`.
///
/// The value forms exactly mirror `TypedKernel::eval_slots`: comparisons
/// and logical ops produce C int 0/1 (which converts to the typed tiers'
/// `0.0`/`1.0` in any arithmetic context), `Select` tests C truthiness
/// (`!= 0`, identical to the typed `cond != 0.0` — NaN is true in both),
/// and clamp-shaped selects fuse to `fmin`/`fmax` only when bit-faithful
/// (see [`fuse_clamp`]).
pub(crate) fn emit_kernel(
    kernel: &TypedKernel,
    slot_expr: &dyn Fn(usize) -> String,
) -> Result<EmittedKernel, String> {
    let mut statements = Vec::new();
    let mut stack: Vec<(String, Shape)> = Vec::new();
    let mut locals: Vec<Option<String>> = vec![None; kernel.local_count()];
    let mut next_temp = 0usize;
    let pop = |stack: &mut Vec<(String, Shape)>, what: &str| {
        stack
            .pop()
            .ok_or_else(|| format!("stack underflow at {what}"))
    };
    for op in kernel.ops() {
        match op {
            TypedOp::Const(v) => {
                if v.is_nan() {
                    // No C literal round-trips a NaN payload; programs
                    // with NaN constants stay on the bytecode tiers.
                    return Err("NaN constant has no faithful C literal".to_string());
                }
                let rendered = if v.is_infinite() {
                    if *v > 0.0 { "(1.0/0.0)" } else { "(-1.0/0.0)" }.to_string()
                } else {
                    // `{v:?}` prints the shortest decimal that round-trips
                    // to `v` exactly; `{v}` does not guarantee that.
                    format!("{v:?}")
                };
                let shape = if v.is_finite() {
                    Shape::Literal(*v)
                } else {
                    Shape::Other
                };
                stack.push((rendered, shape));
            }
            TypedOp::Slot(ix) => stack.push((slot_expr(*ix as usize), Shape::Other)),
            TypedOp::Local(ix) => {
                let name = locals[*ix as usize]
                    .clone()
                    .ok_or_else(|| format!("read of uninitialized local {ix}"))?;
                stack.push((name, Shape::Other));
            }
            TypedOp::Store(ix) => {
                let (value, _) = pop(&mut stack, "Store")?;
                let name = format!("sf_t{next_temp}");
                next_temp += 1;
                statements.push(format!("const double {name} = {value};"));
                locals[*ix as usize] = Some(name);
            }
            TypedOp::Pop => {
                // Typed instructions are side-effect free; a popped value
                // can simply not be emitted.
                pop(&mut stack, "Pop")?;
            }
            TypedOp::Neg { round } => {
                let (v, _) = pop(&mut stack, "Neg")?;
                stack.push((finish(format!("(-{v})"), *round), Shape::Other));
            }
            TypedOp::Not => {
                let (v, _) = pop(&mut stack, "Not")?;
                stack.push((format!("(!{v})"), Shape::Other));
            }
            TypedOp::Add { round } => {
                let (r, _) = pop(&mut stack, "Add rhs")?;
                let (l, _) = pop(&mut stack, "Add lhs")?;
                stack.push((finish(format!("({l} + {r})"), *round), Shape::Other));
            }
            TypedOp::Sub { round } => {
                let (r, _) = pop(&mut stack, "Sub rhs")?;
                let (l, _) = pop(&mut stack, "Sub lhs")?;
                stack.push((finish(format!("({l} - {r})"), *round), Shape::Other));
            }
            TypedOp::Mul { round } => {
                let (r, _) = pop(&mut stack, "Mul rhs")?;
                let (l, _) = pop(&mut stack, "Mul lhs")?;
                stack.push((finish(format!("({l} * {r})"), *round), Shape::Other));
            }
            TypedOp::Div { round } => {
                let (r, _) = pop(&mut stack, "Div rhs")?;
                let (l, _) = pop(&mut stack, "Div lhs")?;
                stack.push((finish(format!("({l} / {r})"), *round), Shape::Other));
            }
            TypedOp::Compare(op) => {
                let (r, r_shape) = pop(&mut stack, "Compare rhs")?;
                let (l, l_shape) = pop(&mut stack, "Compare lhs")?;
                let bin = compare_binop(*op);
                let rendered = format!("({l} {} {r})", bin.symbol());
                // Only ordering comparisons can seed a clamp fusion.
                let shape = match bin {
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => Shape::Compare {
                        op: bin,
                        lhs_literal: match l_shape {
                            Shape::Literal(v) => Some(v),
                            _ => None,
                        },
                        rhs_literal: match r_shape {
                            Shape::Literal(v) => Some(v),
                            _ => None,
                        },
                        lhs: l,
                        rhs: r,
                    },
                    _ => Shape::Other,
                };
                stack.push((rendered, shape));
            }
            TypedOp::Call1(func, round) => {
                let (a, _) = pop(&mut stack, "Call1")?;
                let call = format!("{}({a})", mathfn_c(*func));
                stack.push((finish(call, *round), Shape::Other));
            }
            TypedOp::Call2(func, round) => {
                let (b, _) = pop(&mut stack, "Call2 arg 2")?;
                let (a, _) = pop(&mut stack, "Call2 arg 1")?;
                let call = format!("{}({a}, {b})", mathfn_c(*func));
                stack.push((finish(call, *round), Shape::Other));
            }
            TypedOp::ToBool => {
                let (v, _) = pop(&mut stack, "ToBool")?;
                stack.push((format!("({v} != 0.0)"), Shape::Other));
            }
            TypedOp::Select => {
                let (otherwise, otherwise_shape) = pop(&mut stack, "Select otherwise")?;
                let (then, _) = pop(&mut stack, "Select then")?;
                let (cond, cond_shape) = pop(&mut stack, "Select cond")?;
                if let Some(fused) = fuse_clamp(&cond_shape, &then, &otherwise_shape, &otherwise) {
                    stack.push((fused, Shape::Other));
                    continue;
                }
                stack.push((format!("({cond} ? {then} : {otherwise})"), Shape::Other));
            }
        }
    }
    let (result, _) = pop(&mut stack, "result")?;
    if !stack.is_empty() {
        return Err(format!("{} values left on stack after result", stack.len()));
    }
    Ok(EmittedKernel { statements, result })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::{parse_program, CompiledKernel, DataType};

    fn typed(source: &str, slot_types: &[DataType]) -> TypedKernel {
        let kernel = CompiledKernel::compile(&parse_program(source).unwrap()).unwrap();
        kernel.specialize(slot_types).expect("must specialize")
    }

    /// The eval unit of `code` with every slot `f64`.
    fn f64_unit(code: &str) -> String {
        let program = parse_program(code).unwrap();
        let slots = CompiledKernel::compile(&program).unwrap().slots().len();
        jit_eval_unit(&typed(code, &vec![DataType::Float64; slots]), "sf_eval").unwrap()
    }

    #[test]
    fn eval_unit_emits_double_arithmetic_with_round_wraps() {
        let kernel = typed(
            "0.5 * (a[i-1] + a[i+1])",
            &[DataType::Float32, DataType::Float32],
        );
        let unit = jit_eval_unit(&kernel, "sf_eval").unwrap();
        assert!(unit.contains("double sf_eval(const double *sf_slots)"));
        // f32 kernel: adds and muls round through float, literals stay
        // double (the typed stream computes in f64).
        assert!(
            unit.contains("(double)(float)"),
            "missing round wrap:\n{unit}"
        );
        assert!(unit.contains("0.5"));
        assert!(!unit.contains("0.5f"), "literal must be double:\n{unit}");
    }

    #[test]
    fn f64_kernels_have_no_round_wraps() {
        let unit = f64_unit("0.5 * (a[i-1] + a[i+1])");
        assert!(
            !unit.contains("(float)"),
            "f64 kernel must not round:\n{unit}"
        );
    }

    #[test]
    fn clamp_fuses_to_fmin_in_double_spelling() {
        let unit = f64_unit("min(a[i], 2.0)");
        assert!(unit.contains("fmin("), "no fmin in:\n{unit}");
        assert!(!unit.contains("fminf"), "double spelling required:\n{unit}");
    }

    #[test]
    fn select_clamp_pattern_fuses_only_when_bit_faithful() {
        // `x < c ? x : c` with non-zero finite literal c fuses...
        let unit = f64_unit("a[i] < 2.0 ? a[i] : 2.0");
        assert!(unit.contains("fmin(") || unit.contains("fmax("), "{unit}");
        // ...but a zero literal must stay a ternary (signed-zero ties).
        let unit = f64_unit("a[i] < 0.0 ? a[i] : 0.0");
        assert!(unit.contains('?'), "zero clamp must stay a select:\n{unit}");
    }

    #[test]
    fn clamp_selects_fuse_into_min_max() {
        // NaN-faithful orientations: the else-arm is a non-zero finite
        // literal, so a NaN input selects the literal in both the ternary
        // and the IEEE fmin/fmax rendering.
        for (code, expected) in [
            ("a[i] < 4.0 ? a[i] : 4.0", "fmin(sf_slots[0], 4.0)"),
            ("a[i] <= 4.0 ? a[i] : 4.0", "fmin(sf_slots[0], 4.0)"),
            ("a[i] > 0.125 ? a[i] : 0.125", "fmax(sf_slots[0], 0.125)"),
            ("0.5 > a[i] ? a[i] : 0.5", "fmin(sf_slots[0], 0.5)"),
            ("0.5 < a[i] ? a[i] : 0.5", "fmax(sf_slots[0], 0.5)"),
        ] {
            let unit = f64_unit(code);
            assert!(unit.contains(expected), "`{code}` should fuse:\n{unit}");
            assert!(!unit.contains('?'), "select not fused in:\n{unit}");
        }
    }

    #[test]
    fn clamp_chains_fuse_through_cse_temporaries() {
        let unit = f64_unit("x = a[i] > 0.25 ? a[i] : 0.25; x < 1.0 ? x : 1.0");
        assert!(unit.contains("const double sf_t0 = fmax(sf_slots[0], 0.25);"));
        assert!(unit.contains("return fmin(sf_t0, 1.0);"), "{unit}");
    }

    #[test]
    fn nan_divergent_clamp_orientations_stay_selects() {
        for code in [
            // `x > c ? c : x` propagates a NaN `x` where fmin would return
            // `c` (the horizontal-diffusion limiter shape).
            "a[i] > 4.0 ? 4.0 : a[i]",
            "a[i] < 4.0 ? 4.0 : a[i]",
            // Non-literal bound: NaN-safety cannot be established.
            "a[i] < b[i] ? a[i] : b[i]",
            // Zero bound (relu): x = -0.0 ties against +0.0 with different
            // bits, and fmax may return either zero.
            "a[i] > 0.0 ? a[i] : 0.0",
            "a[i] < 0.0 ? a[i] : 0.0",
        ] {
            let unit = f64_unit(code);
            assert!(unit.contains('?'), "`{code}` must stay a select:\n{unit}");
            assert!(!unit.contains("fmin") && !unit.contains("fmax"), "{unit}");
        }
    }

    #[test]
    fn kernel_emission_renders_selects_as_ternaries() {
        let unit = f64_unit("a[i] > 0.0 ? a[i] : -a[i]");
        assert!(unit.contains(" ? sf_slots[0] : "), "no ternary in:\n{unit}");
    }

    #[test]
    fn locals_become_const_double_temporaries() {
        let unit = f64_unit("d = a[i] - b[i]; d * d + 1.0");
        assert!(unit.contains("const double sf_t0 ="), "{unit}");
    }

    #[test]
    fn kernel_emission_names_cse_temporaries() {
        // A subexpression CSE shares is computed once, into a temporary.
        let unit = f64_unit("(a[i-1] + a[i+1]) * (a[i-1] + a[i+1])");
        assert_eq!(unit.matches(" + ").count(), 1, "add not shared in:\n{unit}");
        assert!(unit.contains("return (sf_t0 * sf_t0);"), "{unit}");
    }

    #[test]
    fn stage_unit_hoists_scalars_and_strides_taps() {
        let kernel = typed(
            "a[i] * dt + a[i-1]",
            &[DataType::Float32, DataType::Float32, DataType::Float32],
        );
        // Kernel slots are in first-use order: `dt` is slot 1.
        let mut kinds = vec![JitSlotKind::Tap; kernel.slot_count()];
        kinds[1] = JitSlotKind::Scalar;
        let spec = JitStageSpec {
            symbol: "sf_stage_0".to_string(),
            kernel: &kernel,
            slot_kinds: kinds,
            round_output: true,
        };
        let (unit, _) = jit_translation_unit(&[spec]).unwrap();
        assert!(unit.contains("static void sf_body_0(const double *const *sf_slots"));
        assert!(unit.contains("\nSF_STAGE(sf_stage_0, sf_body_0)\n"));
        assert!(
            unit.contains("const double sf_s1 = sf_scalars[1];"),
            "{unit}"
        );
        assert!(unit.contains("sf_p0[sf_k]"), "{unit}");
        assert!(
            unit.contains("sf_o[sf_k] = (double)(float)("),
            "f32 output must round on store:\n{unit}"
        );
        assert!(unit.contains("#include <math.h>"));
    }

    /// `(unit text, bodies the emitter reports)` for stages `sf_stage_{i}`
    /// of `(source, slot kinds, round_output)`, all slots `f64`.
    fn unit_of(stages: &[(&str, &[JitSlotKind], bool)]) -> (String, usize) {
        let kernels: Vec<TypedKernel> = stages
            .iter()
            .map(|(source, kinds, _)| typed(source, &vec![DataType::Float64; kinds.len()]))
            .collect();
        let specs: Vec<JitStageSpec<'_>> = stages
            .iter()
            .zip(&kernels)
            .enumerate()
            .map(|(ix, ((_, kinds, round_output), kernel))| JitStageSpec {
                symbol: format!("sf_stage_{ix}"),
                kernel,
                slot_kinds: kinds.to_vec(),
                round_output: *round_output,
            })
            .collect();
        let (unit, bodies) = jit_translation_unit(&specs).unwrap();
        assert_eq!(unit.matches("\nstatic void sf_body_").count(), bodies);
        assert_eq!(unit.matches("\nSF_STAGE(sf_stage_").count(), stages.len());
        (unit, bodies)
    }

    #[test]
    fn equal_stages_share_one_body_and_keep_their_own_symbols() {
        use JitSlotKind::{Scalar, Tap};
        let stage = ("a[i] * c + a[i-1]", &[Tap, Scalar, Tap][..], false);
        let (unit, bodies) = unit_of(&[stage, stage]);
        assert_eq!(bodies, 1);
        assert!(
            unit.ends_with(
                "}\n\nSF_STAGE(sf_stage_0, sf_body_0)\nSF_STAGE(sf_stage_1, sf_body_0)\n"
            ),
            "both stages must name the shared body:\n{unit}"
        );
        // One more stage is one more symbol: units of different stage
        // counts differ in text even when they share their only body.
        let (longer, bodies) = unit_of(&[stage, stage, stage]);
        assert_eq!(bodies, 1);
        assert_ne!(unit, longer);
    }

    #[test]
    fn stages_that_differ_anywhere_keep_separate_bodies() {
        use JitSlotKind::{Scalar, Tap};
        let base = ("a[i] * c + 0.0", &[Tap, Scalar][..], false);
        for other in [
            ("a[i] * c + 0.0", &[Tap, Scalar][..], true),
            ("a[i] * c + 0.0", &[Tap, Tap][..], false),
            ("a[i] * c + 0.5", &[Tap, Scalar][..], false),
            // Equal under `f64`'s `==`, one rounding apart at `a[i]*c = -0.0`.
            ("a[i] * c + (-0.0)", &[Tap, Scalar][..], false),
        ] {
            let (unit, bodies) = unit_of(&[base, other, base]);
            assert_eq!(bodies, 2, "{other:?} must not share `base`'s body:\n{unit}");
            assert!(
                unit.contains("\nSF_STAGE(sf_stage_1, sf_body_1)\n"),
                "{unit}"
            );
        }
    }

    #[test]
    fn nan_constants_are_rejected() {
        let kernel = typed("a[i] + (0.0 / 0.0)", &[DataType::Float64]);
        let err = jit_eval_unit(&kernel, "sf_eval");
        // Constant folding may or may not have produced a NaN literal; if
        // it did, emission must refuse rather than emit `NaN`.
        if let Ok(unit) = err {
            assert!(!unit.contains("NaN"), "NaN leaked into C:\n{unit}");
        }
    }

    #[test]
    fn infinity_constants_render_as_division_forms() {
        let unit = f64_unit("min(a[i], 1.0 / 0.0)");
        if unit.contains("inf") {
            panic!("bare inf literal leaked:\n{unit}");
        }
    }
}
