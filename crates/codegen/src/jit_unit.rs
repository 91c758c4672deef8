//! The C expression emitter, and whole-program units for the Tier-4 native
//! backend.
//!
//! Every kernel body this crate prints comes from `emit_kernel`, which
//! emits from the **typed** instruction stream ([`TypedOp`]) the
//! interpreter's fast tiers actually execute, in one spelling. An operation
//! runs in `float` where that gives the same bits: `+`, `-`, `*`, `/` and
//! `sqrt` whose every operand is a binary32 value (a `float32` slot, a
//! rounded result, a literal binary32 represents) and whose result rounds
//! to binary32 (by its flag, or by an `f32` store). Doing such an operation
//! in `double` and rounding once gives the correctly rounded binary32
//! result, because 53 ≥ 2·24 + 2 (S. A. Figueroa, "When is double rounding
//! innocuous?", SIGNUM Newsletter 30(3), 1995); `fabs`, `min`, `max`,
//! negation and selects of binary32 values are exact in either type. Every
//! other operation is `double`, with an explicit `(double)(float)` wrap
//! exactly where the typed kernel carries a static `round` flag. So the
//! compiled code is bit-identical to `TypedKernel::eval_slots` /
//! `eval_lanes` by construction — the same operations in the same order
//! with the same roundings, every math function but `min`/`max` lowered to
//! the libm symbol the typed tiers call — which is the foundation of the
//! Tier-4 golden pins. An `f64` kernel has no binary32 value, so its text
//! is all `double`.
//!
//! A stage body reads each tap from `float` or `double` cells and stores
//! to either, as its [`JitStageSpec`] says: a `float32` field's rings hold
//! `f32`. Every stage takes untyped slot and output pointers, which its
//! body casts to the width it was emitted for. The OpenCL kernel file
//! ([`crate::opencl`]) prints a stencil's stage body statements as its
//! compute phase, each field read from its shift register at the field's
//! type as a ring tap is; only how a slot is read differs, and `min`,
//! `max`, `sqrt` and `fabs` are the OpenCL builtins (`Dialect`).
//!
//! The native forms are chosen so that GCC vectorizes every stage loop
//! (built with `-fno-trapping-math`, which changes no value):
//!
//! * a `Select` binds both arms and its result to `const` temporaries and
//!   tests `cond != 0.0` — it evaluates both arms, as the typed lane
//!   kernels do, so the loop has no control flow left;
//! * `Compare`, `ToBool` and `Not` yield the typed tiers' `double`
//!   `1.0`/`0.0`, never a C `int` mixed into floating-point code;
//! * `min`/`max` (and the clamps fused into them) call the unit prelude's
//!   `static inline` selects `sf_min`/`sf_max` (`sf_minf`/`sf_maxf` on
//!   `float`s), which copy Rust's `f64::min`/`max` tie and NaN rules,
//!   instead of a per-cell libm `fmin`/`fmax`. Only a unit that uses them
//!   carries the prelude, so every other unit's text does not depend on
//!   it.
//!
//! [`jit_translation_unit`] is the entry point: one exported `sf_stage_{i}`
//! (and `sf_stage_{i}_d` for a second store width) per fused stage, each a
//! name for one of the unit's *distinct* sweep bodies (a chain of identical
//! stencils has one), all in a single translation unit compiled once per
//! distinct text.
//!
//! A typed kernel is a straight-line expression DAG by type (`TypedOp`
//! has no jumps; conditionals are `Select`s), so emission fails only on a
//! malformed stream or a NaN constant (unrepresentable as a C literal):
//! the JIT surfaces the [`EmitError`] as an ineligibility reason and falls
//! back to the fused tier, the OpenCL file as an `#error` line.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use stencilflow_expr::value::CompareOp;
use stencilflow_expr::{BinOp, DataType, ExprError, MathFn, TypedKernel, TypedOp};

/// Why the emitter refused a kernel: one variant per refusal.
#[derive(Debug, Clone, PartialEq)]
pub enum EmitError {
    /// An op found fewer operands on the stack than it takes (a malformed
    /// typed stream).
    StackUnderflow { op: &'static str },
    /// Values were left on the stack after the result.
    StackLeftover { values: usize },
    /// An op read a local no op had stored.
    UninitializedLocal { local: u16 },
    /// A NaN constant: no C literal round-trips its payload.
    NanConstant,
    /// A stage's slot kinds do not match its kernel's slots.
    SlotKinds { kinds: usize, slots: usize },
    /// A stage stores an unrounded (`f64`) result into `float` cells.
    NarrowStore,
    /// A stencil's output type is not `f32`/`f64`: the stored result
    /// rounds through `f32` or not at all.
    NonFloatOutput { dtype: DataType },
    /// A stencil's kernel does not type-specialize (integer or boolean
    /// operands).
    Untyped,
    /// A stencil's code does not compile.
    Compile(ExprError),
}

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EmitError::StackUnderflow { op } => write!(f, "stack underflow at {op}"),
            EmitError::StackLeftover { values } => {
                write!(f, "{values} values left on stack after result")
            }
            EmitError::UninitializedLocal { local } => {
                write!(f, "read of uninitialized local {local}")
            }
            EmitError::NanConstant => f.write_str("NaN constant has no faithful C literal"),
            EmitError::SlotKinds { kinds, slots } => {
                write!(
                    f,
                    "slot kinds ({kinds}) do not match kernel slots ({slots})"
                )
            }
            EmitError::NarrowStore => f.write_str("an unrounded result cannot be stored as float"),
            EmitError::NonFloatOutput { dtype } => {
                write!(f, "output type {dtype} is not a float type")
            }
            EmitError::Untyped => {
                f.write_str("kernel does not type-specialize (integer or boolean operands)")
            }
            EmitError::Compile(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for EmitError {}

/// How one kernel slot is materialized inside an emitted stage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JitSlotKind {
    /// A program scalar: hoisted once from the scalar table, loop-invariant.
    Scalar,
    /// A grid tap: read through the slot's per-row pointer at the sweep
    /// index, from a buffer of this element type (`Float32`: C `float`,
    /// anything else `double`).
    Tap(DataType),
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
    /// The slot types the kernel was specialized to: a `Float32` slot's
    /// values are binary32 values, whatever buffer holds them.
    pub slot_types: &'a [DataType],
    /// Round the stored result through `f32` (the stage's output grid is
    /// `Float32`), mirroring the executor's `round_lanes`.
    pub round_output: bool,
    /// Element type of the cells the result is stored into (`Float32`:
    /// C `float`, which needs `round_output`; anything else `double`).
    pub store: DataType,
}

/// The C signature of every stage function. Slot and output pointers are
/// untyped: each body casts every pointer to the element type it was
/// emitted for, and strides count elements of that type. Row pointers: slot
/// `s` at `(i0, i1)` starts at `sf_slots[s] + i0*sf_ss0[s] + i1*sf_ss1[s]`,
/// the output row at `sf_out + i0*sf_os0 + i1*sf_os1`; the sweep touches
/// indices `[0, sf_nk)` of each row and nothing else.
const JIT_STAGE_PARAMS: &str = "(const void *const *sf_slots, const double *sf_scalars, \
     const int64_t *sf_ss0, const int64_t *sf_ss1, \
     void *restrict sf_out, int64_t sf_os0, int64_t sf_os1, \
     int64_t sf_n0, int64_t sf_n1, int64_t sf_nk)";

/// The inline `min`/`max` of native units, spelled as the selects LLVM
/// lowers Rust's `f64::min`/`max` to on x86-64: a NaN `a` yields `b`, a
/// tie (`0.0` against `-0.0` included) yields `a`.
const MIN_MAX_PRELUDE: &str = "\
/* min/max as the typed tiers compute them: a NaN first operand yields the\n\
 * second, a tie (0.0 against -0.0 included) the first. Selects instead of\n\
 * libm fmin/fmax so the stage loops vectorize; every select in this unit\n\
 * evaluates both arms (build with -fno-trapping-math). */\n\
static inline double sf_min(double a, double b) { return (a != a || b < a) ? b : a; }\n\
static inline double sf_max(double a, double b) { return (a != a || b > a) ? b : a; }\n";

/// [`MIN_MAX_PRELUDE`] on binary32 operands: the same selects, so the
/// same pick, on `float`s.
const MIN_MAX_F32_PRELUDE: &str = "\
static inline float sf_minf(float a, float b) { return (a != a || b < a) ? b : a; }\n\
static inline float sf_maxf(float a, float b) { return (a != a || b > a) ? b : a; }\n";

/// Which language an emitted kernel is spelled in: only the names of
/// `min`/`max` and of the `float` math functions differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dialect {
    /// C for the native units: `sf_min`/`sf_max` from [`MIN_MAX_PRELUDE`]
    /// (`sf_minf`/`sf_maxf` on `float`s), and libm's `sqrtf`/`fabsf`.
    C,
    /// OpenCL C for the compute phase: the builtins `fmin`, `fmax`,
    /// `sqrt` and `fabs`, overloaded on `float` and `double`.
    OpenCl,
}

/// [`JIT_STAGE_PARAMS`]' names in order: what a forwarding stage passes on.
const JIT_STAGE_ARGS: &str =
    "(sf_slots, sf_scalars, sf_ss0, sf_ss1, sf_out, sf_os0, sf_os1, sf_n0, sf_n1, sf_nk)";

/// The C type a buffer of element type `dtype` is read or written as.
fn c_type(dtype: DataType) -> CType {
    if dtype == DataType::Float32 {
        CType::Float
    } else {
        CType::Double
    }
}

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
/// Fails when any stage's kernel does not emit (see [`EmitError`]), with
/// the index of the first such stage in `stages`, so executors can name
/// it in their fallback reason.
pub fn jit_translation_unit(
    stages: &[JitStageSpec<'_>],
) -> Result<(String, usize), (usize, EmitError)> {
    let mut bodies_text = Vec::with_capacity(stages.len());
    let (mut uses_min_max, mut uses_min_max_f32) = (false, false);
    for (ix, stage) in stages.iter().enumerate() {
        let (body, kernel) = stage_body(stage).map_err(|e| (ix, e))?;
        uses_min_max |= kernel.uses_min_max;
        uses_min_max_f32 |= kernel.uses_min_max_f32;
        bodies_text.push(body);
    }
    let mut unit = format!(
        "#ifdef __ELF__\n\
         #define SF_STAGE(stage, body) \
         void stage{JIT_STAGE_PARAMS} __attribute__((alias(#body)));\n\
         #else\n\
         #define SF_STAGE(stage, body) \
         void stage{JIT_STAGE_PARAMS} {{ body{JIT_STAGE_ARGS}; }}\n\
         #endif\n"
    );
    let mut bodies: HashMap<String, usize> = HashMap::new();
    let mut exports = String::from("\n");
    for (stage, body) in stages.iter().zip(bodies_text) {
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
    let head = "/* Generated by stencilflow-codegen (Tier-4 native backend). Do not edit.\n\
         * Operations on binary32 operands whose result rounds to binary32 run in\n\
         * float (+ - * / sqrt: double rounding is innocuous, Figueroa 1995), the\n\
         * rest in double with explicit (double)(float) rounds, matching the typed\n\
         * bytecode tiers bit for bit; compile with -ffp-contract=off. */\n\
         #include <stdint.h>\n\
         #include <math.h>\n";
    let mut prelude = String::new();
    if uses_min_max {
        prelude.push_str(MIN_MAX_PRELUDE);
    }
    if uses_min_max_f32 {
        prelude.push_str(MIN_MAX_F32_PRELUDE);
    }
    Ok((format!("{head}{prelude}{unit}"), bodies.len()))
}

/// The C type of a value in an emitted body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CType {
    Float,
    Double,
}

impl CType {
    fn name(self) -> &'static str {
        match self {
            CType::Float => "float",
            CType::Double => "double",
        }
    }
}

/// One value on the emitter's stack: its C expression and C type, whether
/// it is a binary32 value (a `float` always is; a `double` is when it is a
/// `Float32` slot, a rounded result, a literal binary32 represents, or a
/// pick among such values), and its shape for clamp fusion.
#[derive(Debug, Clone, PartialEq)]
struct Operand {
    text: String,
    ty: CType,
    exact: bool,
    shape: Shape,
}

impl Operand {
    fn value(text: String, ty: CType, exact: bool) -> Operand {
        Operand {
            text,
            ty,
            exact,
            shape: Shape::Other,
        }
    }

    /// The value as a `double` expression (widening a `float` is exact).
    fn double(&self) -> InType<'_> {
        InType(self, CType::Double)
    }

    /// The value as a `float` expression; exact only for an exact operand.
    fn float(&self) -> InType<'_> {
        InType(self, CType::Float)
    }

    /// The value in type `ty`.
    fn as_type(&self, ty: CType) -> InType<'_> {
        InType(self, ty)
    }

    /// `0.0` of the operand's type: what its truth test compares against.
    fn zero(&self) -> &'static str {
        match self.ty {
            CType::Float => "0.0f",
            CType::Double => "0.0",
        }
    }
}

/// An operand's value as an expression of a C type, rendered where it is
/// formatted: a `float` widens exactly to `double`; a `double` narrows to
/// `float` by a cast, or a literal by its `f32` spelling.
struct InType<'a>(&'a Operand, CType);

impl fmt::Display for InType<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let InType(operand, ty) = self;
        match (ty, operand.ty, &operand.shape) {
            (CType::Double, CType::Float, _) => write!(f, "(double){}", operand.text),
            (CType::Double, CType::Double, _) | (CType::Float, CType::Float, _) => {
                f.write_str(&operand.text)
            }
            // `{v:?}` of the `f32` prints its shortest round-trip decimal.
            (CType::Float, CType::Double, Shape::Literal(v)) => write!(f, "{:?}f", *v as f32),
            (CType::Float, CType::Double, _) => write!(f, "(float){}", operand.text),
        }
    }
}

/// The final expression produced by symbolically executing a typed kernel
/// (its statements went to the caller's text).
pub(crate) struct EmittedKernel {
    result: Operand,
    /// Whether the kernel calls `min`/`max` on `double`s (it needs
    /// [`MIN_MAX_PRELUDE`] in [`Dialect::C`]) or on `float`s
    /// ([`MIN_MAX_F32_PRELUDE`]).
    uses_min_max: bool,
    uses_min_max_f32: bool,
}

impl EmittedKernel {
    /// The result as stored into a cell of element type `store`. Storing
    /// mirrors the executor's `round_lanes`: `Float32` outputs (`round`)
    /// round the result through `f32`, `Float64` stores it as-is.
    pub(crate) fn stored(&self, round: bool, store: DataType) -> impl fmt::Display + '_ {
        Stored {
            result: &self.result,
            round,
            store,
        }
    }
}

/// [`EmittedKernel::stored`], rendered where it is written.
struct Stored<'a> {
    result: &'a Operand,
    round: bool,
    store: DataType,
}

impl fmt::Display for Stored<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let result = self.result;
        match (c_type(self.store), result.ty) {
            (CType::Float, CType::Float) => f.write_str(&result.text),
            (CType::Float, CType::Double) => write!(f, "(float)({})", result.text),
            (CType::Double, CType::Float) => write!(f, "{}", result.double()),
            (CType::Double, CType::Double) if self.round => {
                write!(f, "(double)(float)({})", result.text)
            }
            (CType::Double, CType::Double) => f.write_str(&result.text),
        }
    }
}

/// The braces of one stage's sweep function and everything between them,
/// and the kernel emitted into them.
fn stage_body(stage: &JitStageSpec<'_>) -> Result<(String, EmittedKernel), EmitError> {
    let of_kind = |scalar: bool| -> Vec<usize> {
        (stage.slot_kinds.iter().enumerate())
            .filter(|(_, k)| (**k == JitSlotKind::Scalar) == scalar)
            .map(|(ix, _)| ix)
            .collect()
    };
    let (taps, scalars) = (of_kind(false), of_kind(true));

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
        let _ = writeln!(f, "    const double sf_s{ix} = sf_scalars[{ix}];");
    }
    f.push_str("    for (int64_t sf_i0 = 0; sf_i0 < sf_n0; ++sf_i0) {\n");
    f.push_str("        for (int64_t sf_i1 = 0; sf_i1 < sf_n1; ++sf_i1) {\n");
    for &ix in &taps {
        let JitSlotKind::Tap(dtype) = stage.slot_kinds[ix] else {
            unreachable!("taps are taps");
        };
        let ty = c_type(dtype).name();
        let _ = writeln!(
            f,
            "            const {ty} *sf_p{ix} = (const {ty} *)sf_slots[{ix}] \
             + sf_i0 * sf_ss0[{ix}] + sf_i1 * sf_ss1[{ix}];"
        );
    }
    let store = c_type(stage.store);
    let ty = store.name();
    let _ = writeln!(
        f,
        "            {ty} *sf_o = ({ty} *)sf_out + sf_i0 * sf_os0 + sf_i1 * sf_os1;"
    );
    f.push_str("            for (int64_t sf_k = 0; sf_k < sf_nk; ++sf_k) {\n");
    let slots: Vec<String> = (stage.slot_kinds.iter().enumerate())
        .map(|(slot, kind)| match kind {
            JitSlotKind::Scalar => format!("sf_s{slot}"),
            JitSlotKind::Tap(_) => format!("sf_p{slot}[sf_k]"),
        })
        .collect();
    let body = emit_kernel(stage, Dialect::C, &slots, &mut f, "                ")?;
    let _ = writeln!(
        f,
        "                sf_o[sf_k] = {};",
        body.stored(stage.round_output, stage.store)
    );
    f.push_str("            }\n        }\n    }\n}\n");
    Ok((f, body))
}

/// Wrap `expr` in the typed tiers' `finish(v, round)`: an `f64 → f32 →
/// f64` round-trip when the instruction carries the static round flag. A
/// rounded result is a binary32 value.
fn finish(hint: usize, expr: fmt::Arguments<'_>, round: bool) -> Operand {
    if round {
        let text = render(hint + 16, format_args!("(double)(float){expr}"));
        Operand::value(text, CType::Double, true)
    } else {
        Operand::value(render(hint, expr), CType::Double, false)
    }
}

/// `args` rendered into a string allocated once for `hint` bytes: an
/// operand's text grows with every op, and `format!` would grow it again
/// from a guess at every op.
fn render(hint: usize, args: fmt::Arguments<'_>) -> String {
    let mut text = String::with_capacity(hint);
    let _ = text.write_fmt(args);
    text
}

/// Room for the text of `operands` and the casts, parentheses and names an
/// op adds around them.
fn room(operands: &[&Operand]) -> usize {
    operands.iter().map(|o| o.text.len()).sum::<usize>() + 48
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

/// The name of a math function, `double` flavor: the libm (and OpenCL
/// builtin) symbol, `min`/`max` as `dialect` spells them.
fn mathfn_c(func: MathFn, dialect: Dialect) -> &'static str {
    match func {
        MathFn::Sqrt => "sqrt",
        MathFn::Abs => "fabs",
        MathFn::Min if dialect == Dialect::C => "sf_min",
        MathFn::Max if dialect == Dialect::C => "sf_max",
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

/// The `float` flavor of the math functions that may run in `float` (see
/// [`emit_kernel`]): `sqrt` (correctly rounded, so innocuous under double
/// rounding), and the exact `fabs`, `min` and `max`, as `dialect` spells
/// them.
fn mathfn_f32(func: MathFn, dialect: Dialect) -> Option<&'static str> {
    match func {
        MathFn::Sqrt | MathFn::Abs | MathFn::Min | MathFn::Max if dialect == Dialect::OpenCl => {
            Some(mathfn_c(func, dialect))
        }
        MathFn::Sqrt => Some("sqrtf"),
        MathFn::Abs => Some("fabsf"),
        MathFn::Min => Some("sf_minf"),
        MathFn::Max => Some("sf_maxf"),
        _ => None,
    }
}

/// Structural summary of a stack entry tracked by [`emit_kernel`] to
/// recognize clamp patterns at `Select` sites.
#[derive(Debug, Clone, PartialEq)]
enum Shape {
    /// A finite floating-point literal.
    Literal(f64),
    /// An ordering comparison with its operands.
    Compare {
        op: BinOp,
        lhs: Box<Operand>,
        rhs: Box<Operand>,
    },
    /// Anything else.
    Other,
}

impl Shape {
    fn literal(&self) -> Option<f64> {
        match self {
            Shape::Literal(v) => Some(*v),
            _ => None,
        }
    }
}

/// Try to fuse `cond ? then : otherwise` into `min` / `max`: the picked
/// operands `(x, c)` and the function.
///
/// Only the bit-faithful orientations fuse: the *else* arm must be a
/// finite **non-zero** literal `c` and the *then* arm the other compared
/// operand `x` (`x < c ? x : c`, `x > c ? x : c`, `c < x ? x : c`,
/// `c > x ? x : c`). A NaN `x` fails the comparison and selects `c` —
/// exactly what IEEE `fmin`/`fmax` return against a NaN operand — and
/// with `c` non-zero a numeric tie (`x == c`) implies identical bits, so
/// the fused form agrees with the ternary on *every* input (for the
/// inline `sf_min`/`sf_max` and the IEEE builtins alike). Zero literals
/// are excluded: `x = ∓0.0` ties against `c = ±0.0` with different bits,
/// and `fmin`/`fmax` may return either zero where the ternary's pick is
/// fixed by the comparison. The mirrored orientation with the literal in
/// the then-arm (`x > c ? c : x`) propagates a NaN where `fmin` would
/// return `c`, so it deliberately stays a select.
fn fuse_clamp<'a>(
    cond: &'a Shape,
    then: &Operand,
    otherwise: &'a Operand,
) -> Option<(&'a Operand, &'a Operand, MathFn)> {
    let Shape::Compare { op, lhs, rhs } = cond else {
        return None;
    };
    let c = otherwise.shape.literal()?;
    if !c.is_finite() || c == 0.0 {
        return None;
    }
    // `x` is whichever compared operand the then-arm repeats; the else
    // arm must be the other (literal) operand.
    let (x, pick_smaller) = if then.text == lhs.text
        && otherwise.text == rhs.text
        && rhs.shape.literal().is_some()
    {
        // x OP c ? x : c
        match op {
            BinOp::Lt | BinOp::Le => (lhs, true),
            BinOp::Gt | BinOp::Ge => (lhs, false),
            _ => return None,
        }
    } else if then.text == rhs.text && otherwise.text == lhs.text && lhs.shape.literal().is_some() {
        // c OP x ? x : c
        match op {
            BinOp::Lt | BinOp::Le => (rhs, false),
            BinOp::Gt | BinOp::Ge => (rhs, true),
            _ => return None,
        }
    } else {
        return None;
    };
    let func = if pick_smaller {
        MathFn::Min
    } else {
        MathFn::Max
    };
    Some((x, otherwise, func))
}

/// Symbolically execute one stage's typed kernel into statements, each
/// written to `out` as a line after `indent`, plus a result expression in
/// `dialect`, slot `ix` spelled `slots[ix]`: a scalar
/// is the `double` hoisted from the scalar table, a tap a value of its
/// buffer's C type. Either is a binary32 value when the kernel was
/// specialized to a `Float32` slot or the buffer holds `float`s.
///
/// The value forms exactly mirror `TypedKernel::eval_slots`: comparisons
/// and logical ops produce the `double` `1.0`/`0.0`, a `Select` evaluates
/// both arms into temporaries and tests `cond != 0.0` (NaN is true, as in
/// the typed tiers), and clamp-shaped selects fuse to `min`/`max` only
/// when bit-faithful (see [`fuse_clamp`]).
///
/// An operation runs in `float` where that gives the typed tiers' bits:
/// `+`, `-`, `*`, `/` and `sqrt` when every operand is a binary32 value and
/// the result is rounded to binary32 — by the op's own round flag, or (the
/// stage's `round_output`) by the store of a result the last op produces. Computing such an op in `double` and rounding gives the
/// `float` op's result, since 53 ≥ 2·24 + 2 (Figueroa, "When is double
/// rounding innocuous?", 1995). `fabs`, `min`/`max`, negation, selects and
/// comparisons pick or flip binary32 values exactly, so on binary32
/// operands at least one of which is already a `float` they stay `float`
/// too. Everything else is `double`, wrapped in `(double)(float)` where
/// the typed kernel rounds. Without a binary32 slot or a round flag (an
/// `f64` kernel) no value becomes a `float`.
pub(crate) fn emit_kernel(
    stage: &JitStageSpec<'_>,
    dialect: Dialect,
    slots: &[String],
    out: &mut String,
    indent: &str,
) -> Result<EmittedKernel, EmitError> {
    let kernel = stage.kernel;
    if stage.slot_kinds.len() != kernel.slot_count()
        || stage.slot_types.len() != kernel.slot_count()
    {
        return Err(EmitError::SlotKinds {
            kinds: stage.slot_kinds.len(),
            slots: kernel.slot_count(),
        });
    }
    if c_type(stage.store) == CType::Float && !stage.round_output {
        return Err(EmitError::NarrowStore);
    }
    let slot = |ix: usize| {
        let ty = match stage.slot_kinds[ix] {
            JitSlotKind::Scalar => CType::Double,
            JitSlotKind::Tap(dtype) => c_type(dtype),
        };
        let exact = stage.slot_types[ix] == DataType::Float32 || ty == CType::Float;
        Operand::value(slots[ix].clone(), ty, exact)
    };
    let mut stack: Vec<Operand> = Vec::new();
    let mut locals: Vec<Option<Operand>> = vec![None; kernel.local_count()];
    let mut next_temp = 0usize;
    let mut uses_min_max = false;
    let mut uses_min_max_f32 = false;
    // A fresh `const` temporary holding `value` as type `ty`.
    let mut bind = |value: &dyn fmt::Display, ty: CType, exact: bool| {
        let name = format!("sf_t{next_temp}");
        next_temp += 1;
        let _ = writeln!(out, "{indent}const {} {name} = {value};", ty.name());
        Operand::value(name, ty, exact)
    };
    let pop = |stack: &mut Vec<Operand>, op: &'static str| {
        stack.pop().ok_or(EmitError::StackUnderflow { op })
    };
    // Whether an op on `operands` runs in `float`: all binary32 values,
    // and a rounded result or a `float` among them.
    let in_float = |operands: &[&Operand], rounded: bool| {
        operands.iter().all(|o| o.exact)
            && (rounded || operands.iter().any(|o| o.ty == CType::Float))
    };
    let last = kernel.ops().len().saturating_sub(1);
    for (at, op) in kernel.ops().iter().enumerate() {
        // The store rounds what the last op pushes.
        let stored_round = stage.round_output && at == last;
        match op {
            TypedOp::Const(v) => {
                if v.is_nan() {
                    // No C literal round-trips a NaN payload; programs
                    // with NaN constants stay on the bytecode tiers.
                    return Err(EmitError::NanConstant);
                }
                let rendered = if v.is_infinite() {
                    if *v > 0.0 { "(1.0/0.0)" } else { "(-1.0/0.0)" }.to_string()
                } else {
                    // `{v:?}` prints the shortest decimal that round-trips
                    // to `v` exactly; `{v}` does not guarantee that.
                    format!("{v:?}")
                };
                let exact = f64::from(*v as f32) == *v;
                let mut operand = Operand::value(rendered, CType::Double, exact);
                if v.is_finite() {
                    operand.shape = Shape::Literal(*v);
                }
                stack.push(operand);
            }
            TypedOp::Slot(ix) => stack.push(slot(*ix as usize)),
            TypedOp::Local(ix) => {
                let local = locals[*ix as usize]
                    .clone()
                    .ok_or(EmitError::UninitializedLocal { local: *ix })?;
                stack.push(local);
            }
            TypedOp::Store(ix) => {
                let value = pop(&mut stack, "Store")?;
                locals[*ix as usize] = Some(bind(&value.text, value.ty, value.exact));
            }
            TypedOp::Pop => {
                // Typed instructions are side-effect free; a popped value
                // can simply not be emitted.
                pop(&mut stack, "Pop")?;
            }
            TypedOp::Neg { round } => {
                let v = pop(&mut stack, "Neg")?;
                stack.push(if v.exact {
                    // The negative of a binary32 value is one: the round
                    // changes nothing.
                    Operand::value(
                        render(room(&[&v]), format_args!("(-{})", v.text)),
                        v.ty,
                        true,
                    )
                } else {
                    finish(room(&[&v]), format_args!("(-{})", v.double()), *round)
                });
            }
            TypedOp::Not | TypedOp::ToBool => {
                let (name, yes, no) = if matches!(op, TypedOp::Not) {
                    ("Not", "0.0", "1.0")
                } else {
                    ("ToBool", "1.0", "0.0")
                };
                let v = pop(&mut stack, name)?;
                let text = render(
                    room(&[&v]),
                    format_args!("(({} != {}) ? {yes} : {no})", v.text, v.zero()),
                );
                stack.push(Operand::value(text, CType::Double, true));
            }
            TypedOp::Add { round }
            | TypedOp::Sub { round }
            | TypedOp::Mul { round }
            | TypedOp::Div { round } => {
                let (symbol, rhs, lhs) = match op {
                    TypedOp::Add { .. } => ("+", "Add rhs", "Add lhs"),
                    TypedOp::Sub { .. } => ("-", "Sub rhs", "Sub lhs"),
                    TypedOp::Mul { .. } => ("*", "Mul rhs", "Mul lhs"),
                    _ => ("/", "Div rhs", "Div lhs"),
                };
                let r = pop(&mut stack, rhs)?;
                let l = pop(&mut stack, lhs)?;
                let rounded = *round || stored_round;
                stack.push(if rounded && in_float(&[&l, &r], true) {
                    let text = render(
                        room(&[&l, &r]),
                        format_args!("({} {symbol} {})", l.float(), r.float()),
                    );
                    Operand::value(text, CType::Float, true)
                } else {
                    finish(
                        room(&[&l, &r]),
                        format_args!("({} {symbol} {})", l.double(), r.double()),
                        *round,
                    )
                });
            }
            TypedOp::Compare(op) => {
                let r = pop(&mut stack, "Compare rhs")?;
                let l = pop(&mut stack, "Compare lhs")?;
                let bin = compare_binop(*op);
                let ty = if in_float(&[&l, &r], false) {
                    CType::Float
                } else {
                    CType::Double
                };
                let rendered = render(
                    room(&[&l, &r]),
                    format_args!(
                        "(({} {} {}) ? 1.0 : 0.0)",
                        l.as_type(ty),
                        bin.symbol(),
                        r.as_type(ty)
                    ),
                );
                let mut operand = Operand::value(rendered, CType::Double, true);
                // Only ordering comparisons can seed a clamp fusion.
                if matches!(bin, BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge) {
                    operand.shape = Shape::Compare {
                        op: bin,
                        lhs: Box::new(l),
                        rhs: Box::new(r),
                    };
                }
                stack.push(operand);
            }
            TypedOp::Call1(func, round) | TypedOp::Call2(func, round) => {
                let last = match op {
                    TypedOp::Call1(..) => pop(&mut stack, "Call1")?,
                    _ => pop(&mut stack, "Call2 arg 2")?,
                };
                let first = match op {
                    TypedOp::Call2(..) => Some(pop(&mut stack, "Call2 arg 1")?),
                    _ => None,
                };
                let arg_refs: Vec<&Operand> = first.iter().chain([&last]).collect();
                // The arguments in type `ty`, comma-separated.
                let args = |ty: CType| match &first {
                    Some(first) => render(
                        room(&[first, &last]),
                        format_args!("{}, {}", first.as_type(ty), last.as_type(ty)),
                    ),
                    None => last.as_type(ty).to_string(),
                };
                // `sqrt` rounds correctly, so it needs the rounded result;
                // the rest pick or flip an operand exactly.
                let rounded = *round || stored_round;
                let float_form = mathfn_f32(*func, dialect)
                    .filter(|_| in_float(&arg_refs, rounded) && (rounded || *func != MathFn::Sqrt));
                let is_min_max = matches!(func, MathFn::Min | MathFn::Max);
                stack.push(match float_form {
                    Some(name) => {
                        uses_min_max_f32 |= is_min_max;
                        let args = args(CType::Float);
                        let text = render(args.len() + 16, format_args!("{name}({args})"));
                        Operand::value(text, CType::Float, true)
                    }
                    None => {
                        uses_min_max |= is_min_max;
                        let name = mathfn_c(*func, dialect);
                        let exact = is_min_max && arg_refs.iter().all(|a| a.exact);
                        let args = args(CType::Double);
                        let mut result =
                            finish(args.len() + 16, format_args!("{name}({args})"), *round);
                        result.exact |= exact;
                        result
                    }
                });
            }
            TypedOp::Select => {
                let otherwise = pop(&mut stack, "Select otherwise")?;
                let then = pop(&mut stack, "Select then")?;
                let cond = pop(&mut stack, "Select cond")?;
                if let Some((x, c, func)) = fuse_clamp(&cond.shape, &then, &otherwise) {
                    let exact = x.exact && c.exact;
                    stack.push(if in_float(&[x, c], false) {
                        uses_min_max_f32 = true;
                        let name = mathfn_f32(func, dialect).expect("min/max have a float form");
                        let text = render(
                            room(&[x, c]),
                            format_args!("{name}({}, {})", x.float(), c.float()),
                        );
                        Operand::value(text, CType::Float, true)
                    } else {
                        uses_min_max = true;
                        let name = mathfn_c(func, dialect);
                        let text = render(
                            room(&[x, c]),
                            format_args!("{name}({}, {})", x.double(), c.double()),
                        );
                        Operand::value(text, CType::Double, exact)
                    });
                    continue;
                }
                // Both arms are evaluated, so the select is a blend.
                let ty = if in_float(&[&then, &otherwise], false) {
                    CType::Float
                } else {
                    CType::Double
                };
                let exact = then.exact && otherwise.exact;
                let then = bind(&then.as_type(ty), ty, exact);
                let otherwise = bind(&otherwise.as_type(ty), ty, exact);
                let select = format!(
                    "({} != {}) ? {} : {}",
                    cond.text,
                    cond.zero(),
                    then.text,
                    otherwise.text
                );
                stack.push(bind(&select, ty, exact));
            }
        }
    }
    let result = pop(&mut stack, "result")?;
    if !stack.is_empty() {
        let values = stack.len();
        return Err(EmitError::StackLeftover { values });
    }
    Ok(EmittedKernel {
        result,
        uses_min_max,
        uses_min_max_f32,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::{parse_program, CompiledKernel, DataType};

    fn typed(source: &str, slot_types: &[DataType]) -> TypedKernel {
        let kernel = CompiledKernel::compile(&parse_program(source).unwrap()).unwrap();
        kernel.specialize(slot_types).expect("must specialize")
    }

    /// The unit of stage `sf_stage_0` over `kernel`, specialized to `types`,
    /// its slots read as `kinds`, storing into `store` cells (`round`:
    /// through `f32`).
    fn one_stage(
        kernel: &TypedKernel,
        kinds: Vec<JitSlotKind>,
        types: &[DataType],
        round: bool,
        store: DataType,
    ) -> Result<String, (usize, EmitError)> {
        let spec = JitStageSpec {
            symbol: "sf_stage_0".to_string(),
            kernel,
            slot_kinds: kinds,
            slot_types: types,
            round_output: round,
            store,
        };
        jit_translation_unit(&[spec]).map(|(unit, _)| unit)
    }

    /// The unit of one stage over `code`, slot `s` specialized to
    /// `types[s]` (cycled over the slots) and read from cells of that type,
    /// storing the unrounded result into `double` cells.
    fn try_stage_unit(code: &str, types: &[DataType]) -> Result<String, (usize, EmitError)> {
        let program = parse_program(code).unwrap();
        let slots = CompiledKernel::compile(&program).unwrap().slots().len();
        let types: Vec<DataType> = types.iter().cycle().take(slots).copied().collect();
        let kinds = types.iter().map(|&t| JitSlotKind::Tap(t)).collect();
        one_stage(
            &typed(code, &types),
            kinds,
            &types,
            false,
            DataType::Float64,
        )
    }

    fn stage_unit(code: &str, types: &[DataType]) -> String {
        try_stage_unit(code, types).unwrap()
    }

    /// [`stage_unit`] with every slot `f64`.
    fn f64_unit(code: &str) -> String {
        stage_unit(code, &[DataType::Float64])
    }

    /// The statements of `unit`'s innermost loop: the kernel and its store.
    fn kernel_lines(unit: &str) -> &str {
        let (_, inner) = unit.split_once("++sf_k) {\n").expect("a stage loop");
        &inner[..inner.find("            }\n").expect("the loop closes")]
    }

    #[test]
    fn binary32_slots_compute_in_float_from_either_cell_width() {
        let types = [DataType::Float32, DataType::Float32];
        let kernel = typed("0.5 * (a[i-1] + a[i+1])", &types);
        for (cells, add) in [
            // `float` cells (a ring): the add of two binary32 operands
            // whose result rounds runs in float.
            (DataType::Float32, "(sf_p0[sf_k] + sf_p1[sf_k])"),
            // `double` cells (a grid read in place) hold the same binary32
            // values, cast to float.
            (
                DataType::Float64,
                "((float)sf_p0[sf_k] + (float)sf_p1[sf_k])",
            ),
        ] {
            let kinds = vec![JitSlotKind::Tap(cells); 2];
            let unit = one_stage(&kernel, kinds, &types, false, DataType::Float64).unwrap();
            // The product does not round, so it and its literal stay double.
            let store = format!("sf_o[sf_k] = (0.5 * (double){add});");
            assert!(kernel_lines(&unit).contains(&store), "{unit}");
            assert!(
                !unit.contains("0.5f"),
                "the f64 literal stays double:\n{unit}"
            );
        }
    }

    #[test]
    fn float_forms_need_binary32_operands_and_a_rounded_result() {
        for (code, expected) in [
            // Rounded ops on binary32 operands: float.
            (
                "a[i] * b[i] - a[i]",
                "sf_o[sf_k] = (double)((sf_p0[sf_k] * sf_p1[sf_k]) - sf_p0[sf_k]);",
            ),
            (
                "sqrt(a[i]) / b[i]",
                "sf_o[sf_k] = (double)(sqrtf(sf_p0[sf_k]) / sf_p1[sf_k]);",
            ),
            (
                "x = a[i] + b[i]; x * x",
                "const float sf_t0 = (sf_p0[sf_k] + sf_p1[sf_k]);",
            ),
            // `fabs` and `min`/`max` of binary32 values are exact.
            (
                "min(abs(a[i]), b[i])",
                "sf_o[sf_k] = (double)sf_minf(fabsf(sf_p0[sf_k]), sf_p1[sf_k]);",
            ),
            // `0.1` is no binary32 value: the rounded product stays double.
            ("0.1 * a[i]", "sf_o[sf_k] = (0.1 * (double)sf_p0[sf_k]);"),
            // `0.125` is one, but the f64 product does not round.
            (
                "0.125 * a[i]",
                "sf_o[sf_k] = (0.125 * (double)sf_p0[sf_k]);",
            ),
        ] {
            let unit = stage_unit(code, &[DataType::Float32]);
            assert!(
                kernel_lines(&unit).contains(expected),
                "`{code}`: no `{expected}` in:\n{unit}"
            );
        }
        // A rounded op on an f64 operand stays double.
        let unit = stage_unit("a[i] * b[i]", &[DataType::Float32, DataType::Float64]);
        assert!(
            kernel_lines(&unit).contains("sf_o[sf_k] = ((double)sf_p0[sf_k] * sf_p1[sf_k]);"),
            "{unit}"
        );
    }

    #[test]
    fn f64_kernels_have_no_round_wraps() {
        let unit = f64_unit("0.5 * (a[i-1] + a[i+1])");
        assert!(
            !kernel_lines(&unit).contains("float"),
            "f64 kernel must not round:\n{unit}"
        );
        // Its pointers are cast to `double` all the same: one signature.
        assert!(unit.contains("const double *sf_p0 = (const double *)sf_slots[0] + "));
        assert!(
            unit.contains("double *sf_o = (double *)sf_out + "),
            "{unit}"
        );
        assert!(unit.contains("static void sf_body_0(const void *const *sf_slots"));
    }

    #[test]
    fn clamp_fuses_to_fmin_in_double_spelling() {
        let unit = f64_unit("min(a[i], 2.0)");
        assert!(
            kernel_lines(&unit).contains("sf_o[sf_k] = sf_min(sf_p0[sf_k], 2.0);"),
            "{unit}"
        );
        assert!(
            unit.contains("static inline double sf_min(double a, double b)"),
            "no prelude in:\n{unit}"
        );
        assert!(!unit.contains("fminf"), "double spelling required:\n{unit}");
    }

    #[test]
    fn select_clamp_pattern_fuses_only_when_bit_faithful() {
        // `x < c ? x : c` with non-zero finite literal c fuses...
        let unit = f64_unit("a[i] < 2.0 ? a[i] : 2.0");
        assert!(kernel_lines(&unit).contains("sf_min("), "{unit}");
        // ...but a zero literal must stay a select (signed-zero ties).
        let unit = f64_unit("a[i] < 0.0 ? a[i] : 0.0");
        assert!(
            kernel_lines(&unit).contains('?'),
            "zero clamp must stay a select:\n{unit}"
        );
    }

    #[test]
    fn clamp_selects_fuse_into_min_max() {
        // NaN-faithful orientations: the else-arm is a non-zero finite
        // literal, so a NaN input selects the literal in both the ternary
        // and the fused `sf_min`/`sf_max` (and IEEE fmin/fmax).
        for (code, expected) in [
            ("a[i] < 4.0 ? a[i] : 4.0", "sf_min(sf_p0[sf_k], 4.0)"),
            ("a[i] <= 4.0 ? a[i] : 4.0", "sf_min(sf_p0[sf_k], 4.0)"),
            ("a[i] > 0.125 ? a[i] : 0.125", "sf_max(sf_p0[sf_k], 0.125)"),
            ("0.5 > a[i] ? a[i] : 0.5", "sf_min(sf_p0[sf_k], 0.5)"),
            ("0.5 < a[i] ? a[i] : 0.5", "sf_max(sf_p0[sf_k], 0.5)"),
        ] {
            let unit = f64_unit(code);
            assert!(unit.contains(expected), "`{code}` should fuse:\n{unit}");
            assert!(
                !kernel_lines(&unit).contains('?'),
                "select not fused in:\n{unit}"
            );
        }
    }

    #[test]
    fn clamp_chains_fuse_through_cse_temporaries() {
        let unit = f64_unit("x = a[i] > 0.25 ? a[i] : 0.25; x < 1.0 ? x : 1.0");
        assert!(unit.contains("const double sf_t0 = sf_max(sf_p0[sf_k], 0.25);"));
        assert!(unit.contains("sf_o[sf_k] = sf_min(sf_t0, 1.0);"), "{unit}");
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
            let lines = kernel_lines(&unit);
            assert!(lines.contains('?'), "`{code}` must stay a select:\n{unit}");
            assert!(
                !unit.contains("sf_min") && !unit.contains("sf_max"),
                "{unit}"
            );
        }
    }

    #[test]
    fn kernel_emission_renders_selects_as_ternaries() {
        // Both arms and the result are temporaries; the condition is a
        // double compared against 0.0, so the loop has no control flow and
        // no C `int` in it.
        let unit = f64_unit("a[i] > 0.0 ? a[i] : -a[i]");
        for line in [
            "const double sf_t0 = sf_p0[sf_k];",
            "const double sf_t1 = (-sf_p0[sf_k]);",
            "const double sf_t2 = (((sf_p0[sf_k] > 0.0) ? 1.0 : 0.0) != 0.0) ? sf_t0 : sf_t1;",
            "sf_o[sf_k] = sf_t2;",
        ] {
            assert!(unit.contains(line), "no `{line}` in:\n{unit}");
        }
        assert!(
            !unit.contains("sf_min"),
            "no prelude without min/max:\n{unit}"
        );
    }

    #[test]
    fn comparisons_and_logic_yield_doubles() {
        for (code, expected) in [
            (
                "(a[i] < b[i]) * 2.0",
                "sf_o[sf_k] = (((sf_p0[sf_k] < sf_p1[sf_k]) ? 1.0 : 0.0) * 2.0);",
            ),
            (
                "(!a[i]) * 2.0",
                "sf_o[sf_k] = (((sf_p0[sf_k] != 0.0) ? 0.0 : 1.0) * 2.0);",
            ),
            (
                "a[i] && b[i] ? 1.0 : 2.0",
                "const double sf_t0 = ((sf_p1[sf_k] != 0.0) ? 1.0 : 0.0);",
            ),
        ] {
            let unit = f64_unit(code);
            assert!(
                unit.contains(expected),
                "`{code}`: no `{expected}` in:\n{unit}"
            );
        }
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
        let lines = kernel_lines(&unit);
        assert_eq!(
            lines.matches(" + ").count(),
            1,
            "add not shared in:\n{unit}"
        );
        assert!(lines.contains("sf_o[sf_k] = (sf_t0 * sf_t0);"), "{unit}");
    }

    #[test]
    fn stage_unit_hoists_scalars_and_strides_taps() {
        let kernel = typed(
            "a[i] * dt + a[i-1]",
            &[DataType::Float32, DataType::Float32, DataType::Float32],
        );
        // Kernel slots are in first-use order: `dt` is slot 1.
        let mut kinds = vec![JitSlotKind::Tap(DataType::Float32); kernel.slot_count()];
        kinds[1] = JitSlotKind::Scalar;
        let f32s = [DataType::Float32; 3];
        let unit = one_stage(&kernel, kinds, &f32s, true, DataType::Float32).unwrap();
        // `float` cells: untyped pointers, cast in the body.
        assert!(unit.contains("static void sf_body_0(const void *const *sf_slots"));
        assert!(unit.contains("\nSF_STAGE(sf_stage_0, sf_body_0)\n"));
        assert!(
            unit.contains("const double sf_s1 = sf_scalars[1];"),
            "{unit}"
        );
        assert!(
            unit.contains("const float *sf_p0 = (const float *)sf_slots[0] + "),
            "{unit}"
        );
        assert!(unit.contains("float *sf_o = (float *)sf_out + "), "{unit}");
        // Both ops round: float arithmetic, stored as it is.
        assert!(
            unit.contains("sf_o[sf_k] = ((sf_p0[sf_k] * (float)sf_s1) + sf_p2[sf_k]);"),
            "{unit}"
        );
        assert!(unit.contains("#include <math.h>"));
        // The same stage storing to `double` cells widens the float result.
        let scalars = vec![JitSlotKind::Scalar; 3];
        let unit = one_stage(&kernel, scalars, &f32s, true, DataType::Float64).unwrap();
        assert!(
            unit.contains("sf_o[sf_k] = (double)(((float)sf_s0 * (float)sf_s1) + (float)sf_s2);"),
            "{unit}"
        );
        assert!(
            unit.contains("double *sf_o = (double *)sf_out + "),
            "{unit}"
        );
    }

    #[test]
    fn unrounded_results_are_never_stored_as_float() {
        let f64s = [DataType::Float64; 2];
        let kernel = typed("a[i] + a[i-1]", &f64s);
        let kinds = vec![JitSlotKind::Tap(DataType::Float64); 2];
        let refused = one_stage(&kernel, kinds, &f64s, false, DataType::Float32);
        assert_eq!(refused.unwrap_err(), (0, EmitError::NarrowStore));
    }

    /// A tap of `f64` cells.
    const TAP: JitSlotKind = JitSlotKind::Tap(DataType::Float64);

    /// `(unit text, bodies the emitter reports)` for stages `sf_stage_{i}`
    /// of `(source, slot kinds, round_output)`, all slots `f64`.
    fn unit_of(stages: &[(&str, &[JitSlotKind], bool)]) -> (String, usize) {
        let types = [DataType::Float64; 8];
        let kernels: Vec<TypedKernel> = stages
            .iter()
            .map(|(source, kinds, _)| typed(source, &types[..kinds.len()]))
            .collect();
        let specs: Vec<JitStageSpec<'_>> = stages
            .iter()
            .zip(&kernels)
            .enumerate()
            .map(|(ix, ((_, kinds, round_output), kernel))| JitStageSpec {
                symbol: format!("sf_stage_{ix}"),
                kernel,
                slot_kinds: kinds.to_vec(),
                slot_types: &types[..kinds.len()],
                round_output: *round_output,
                store: DataType::Float64,
            })
            .collect();
        let (unit, bodies) = jit_translation_unit(&specs).unwrap();
        assert_eq!(unit.matches("\nstatic void sf_body_").count(), bodies);
        assert_eq!(unit.matches("\nSF_STAGE(sf_stage_").count(), stages.len());
        (unit, bodies)
    }

    #[test]
    fn equal_stages_share_one_body_and_keep_their_own_symbols() {
        use JitSlotKind::Scalar;
        let stage = ("a[i] * c + a[i-1]", &[TAP, Scalar, TAP][..], false);
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
        use JitSlotKind::Scalar;
        let base = ("a[i] * c + 0.0", &[TAP, Scalar][..], false);
        for other in [
            ("a[i] * c + 0.0", &[TAP, Scalar][..], true),
            ("a[i] * c + 0.0", &[TAP, TAP][..], false),
            ("a[i] * c + 0.5", &[TAP, Scalar][..], false),
            // Equal under `f64`'s `==`, one rounding apart at `a[i]*c = -0.0`.
            ("a[i] * c + (-0.0)", &[TAP, Scalar][..], false),
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
        // Constant folding may or may not have produced a NaN literal; if
        // it did, emission must refuse rather than emit `NaN`.
        if let Ok(unit) = try_stage_unit("a[i] + (0.0 / 0.0)", &[DataType::Float64]) {
            assert!(!unit.contains("NaN"), "NaN leaked into C:\n{unit}");
        }
    }

    #[test]
    fn infinity_constants_render_as_division_forms() {
        // An `inf` token, not a substring: the float prelude names
        // `sf_minf`.
        let bare_inf = |unit: &str| {
            unit.split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
                .any(|token| token == "inf")
        };
        for unit in [
            f64_unit("min(a[i], 1.0 / 0.0)"),
            stage_unit("min(a[i], 1.0 / 0.0)", &[DataType::Float32]),
        ] {
            assert!(!bare_inf(&unit), "bare inf literal leaked:\n{unit}");
        }
    }
}
