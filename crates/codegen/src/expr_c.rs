//! Translation of stencil expressions to C (OpenCL C) source text.
//!
//! Two emitters are provided:
//!
//! * [`kernel_to_c`] — the preferred path: emits from the **optimized
//!   bytecode** ([`CompiledKernel`]), so the generated code reflects what
//!   the shared pass pipeline produced (if-converted selects, CSE'd
//!   subexpressions held in named temporaries, dead code already gone).
//!   It handles branch-free kernels only and returns `None` when jumps
//!   remain (an arm that resisted if-conversion).
//! * [`program_to_c`] / [`expr_to_c`] — the raw AST walk, kept as the
//!   fallback for jump-carrying kernels, where lazy evaluation must be
//!   expressed with native C ternaries.
//!
//! Both emit float literals in shortest-round-trip form and derive the
//! literal suffix (and math-function flavor, `sqrtf` vs `sqrt`) from the
//! kernel's element type, so `double` kernels are not silently truncated
//! through `float` constants.

use stencilflow_expr::ast::{BinOp, Expr, MathFn, Program, UnOp};
use stencilflow_expr::{CompiledKernel, DataType, Op, Value};

/// How [`kernel_to_c`] renders an [`Op::Select`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum SelectStyle {
    /// A C conditional expression, `(c ? t : e)`.
    #[default]
    Ternary,
    /// The OpenCL `select(e, t, c)` builtin (note the operand order), with
    /// the condition cast to the integer type of matching width.
    OpenClSelect,
}

/// C scalar type name for a kernel element type.
fn c_type(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Float64 => "double",
        _ => "float",
    }
}

/// Emit a floating-point literal in shortest-round-trip form, suffixed for
/// the kernel's element type (`f` only for `float` kernels — a `double`
/// kernel must not have its constants truncated through `float`).
pub(crate) fn float_literal(v: f64, dtype: DataType) -> String {
    // `{v:?}` prints the shortest decimal that round-trips to `v` exactly;
    // `{v}` does not guarantee that, and fixed-precision formats lose bits.
    let body = format!("{v:?}");
    match dtype {
        DataType::Float64 => body,
        _ => format!("{body}f"),
    }
}

/// Math-function spelling for the kernel's element type (`fminf` vs
/// `fmin`, ...).
pub(crate) fn mathfn_c(func: MathFn, dtype: DataType) -> String {
    let base = match func {
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
    };
    match dtype {
        DataType::Float64 => base.to_string(),
        _ => format!("{base}f"),
    }
}

/// Translate a full code segment to a sequence of C statements via the raw
/// AST walk. Field accesses are rendered through `access`, which receives
/// the field name and its offsets and returns the C expression for that tap
/// (e.g. a shift-register read with boundary predication). `dtype` is the
/// kernel's element type, driving literal suffixes, local declarations, and
/// math-function flavors.
///
/// Prefer [`kernel_to_c`], which emits from the optimized bytecode; this
/// walk remains for kernels whose control flow resists if-conversion.
pub(crate) fn program_to_c(
    program: &Program,
    access: &impl Fn(&str, &[i64]) -> String,
    dtype: DataType,
) -> Vec<String> {
    let mut lines = Vec::new();
    for (idx, stmt) in program.statements.iter().enumerate() {
        let rhs = expr_to_c(&stmt.value, access, dtype);
        let line = match (&stmt.name, idx + 1 == program.statements.len()) {
            (Some(name), _) => format!("const {} {name} = {rhs};", c_type(dtype)),
            (None, true) => format!("result = {rhs};"),
            (None, false) => format!("(void)({rhs});"),
        };
        lines.push(line);
    }
    lines
}

/// Translate one expression to C (see [`program_to_c`]).
pub(crate) fn expr_to_c(
    expr: &Expr,
    access: &impl Fn(&str, &[i64]) -> String,
    dtype: DataType,
) -> String {
    match expr {
        Expr::IntLit(v) => format!("{v}"),
        Expr::FloatLit(v) => float_literal(*v, dtype),
        Expr::Var(name) => name.clone(),
        Expr::FieldAccess { field, indices } => {
            let offsets: Vec<i64> = indices.iter().map(|ix| ix.offset).collect();
            access(field, &offsets)
        }
        Expr::Unary { op, operand } => {
            let inner = expr_to_c(operand, access, dtype);
            match op {
                UnOp::Neg => format!("(-{inner})"),
                UnOp::Not => format!("(!{inner})"),
            }
        }
        Expr::Binary { op, lhs, rhs } => {
            let l = expr_to_c(lhs, access, dtype);
            let r = expr_to_c(rhs, access, dtype);
            format!("({l} {} {r})", op.symbol())
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            let c = expr_to_c(cond, access, dtype);
            let t = expr_to_c(then, access, dtype);
            let e = expr_to_c(otherwise, access, dtype);
            format!("({c} ? {t} : {e})")
        }
        Expr::Call { func, args } => {
            let rendered: Vec<String> = args.iter().map(|a| expr_to_c(a, access, dtype)).collect();
            format!("{}({})", mathfn_c(*func, dtype), rendered.join(", "))
        }
    }
}

/// Structural summary of a stack entry tracked by [`kernel_to_c`] to
/// recognize clamp patterns at [`Op::Select`] sites.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Shape {
    /// A finite floating-point literal.
    Literal(f64),
    /// An ordering comparison with its operands' rendered C expressions
    /// (and, when literal, their values).
    Compare {
        /// The comparison operator.
        op: BinOp,
        /// Rendered C expression of the left operand.
        lhs: String,
        /// Rendered C expression of the right operand.
        rhs: String,
        /// The left operand's value when it is a finite literal.
        lhs_literal: Option<f64>,
        /// The right operand's value when it is a finite literal.
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
pub(crate) fn fuse_clamp(
    cond: &Shape,
    then: &str,
    otherwise: &Shape,
    otherwise_str: &str,
    dtype: DataType,
    style: SelectStyle,
) -> Option<String> {
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
    // OpenCL C has no `fminf`/`fmaxf` — only the overloaded `fmin`/`fmax`
    // builtins — so the OpenCL style always uses the unsuffixed spelling.
    let func = match (pick_smaller, style) {
        (true, SelectStyle::OpenClSelect) => "fmin".to_string(),
        (false, SelectStyle::OpenClSelect) => "fmax".to_string(),
        (true, SelectStyle::Ternary) => mathfn_c(MathFn::Min, dtype),
        (false, SelectStyle::Ternary) => mathfn_c(MathFn::Max, dtype),
    };
    Some(format!("{func}({x}, {otherwise_str})"))
}

/// Emit C statements from a compiled (optimized) kernel's bytecode.
///
/// The instruction stream is symbolically executed with a stack of C
/// expression strings: slot reads render through `access`, CSE-introduced
/// registers become `const` temporaries (`t0`, `t1`, ...), and
/// [`Op::Select`] renders per `style` — a C ternary or the OpenCL `select`
/// builtin — except for **clamp patterns**, which fuse into
/// `fmin`/`fmax` calls when (and only when) the fused form is bit-faithful
/// to the ternary on every input, NaNs and signed zeros included (see the
/// `fuse_clamp` helper). Returns `None` when the kernel
/// still carries control flow (jump diamonds that resisted if-conversion
/// need the lazy AST walk, [`program_to_c`]).
pub(crate) fn kernel_to_c(
    kernel: &CompiledKernel,
    access: &impl Fn(&str, &[i64]) -> String,
    dtype: DataType,
    style: SelectStyle,
) -> Option<Vec<String>> {
    let mut lines = Vec::new();
    let mut stack: Vec<(String, Shape)> = Vec::new();
    let mut locals: Vec<Option<String>> = vec![None; kernel.local_count()];
    for op in kernel.ops() {
        match op {
            Op::Const(v) => stack.push(match v {
                Value::I32(x) => (format!("{x}"), Shape::Other),
                Value::I64(x) => (format!("{x}"), Shape::Other),
                Value::Bool(b) => (if *b { "1" } else { "0" }.to_string(), Shape::Other),
                Value::F32(x) => (float_literal(*x as f64, dtype), Shape::Literal(*x as f64)),
                Value::F64(x) => (float_literal(*x, dtype), Shape::Literal(*x)),
            }),
            Op::Slot(ix) => {
                let slot = &kernel.slots()[*ix as usize];
                // Scalar symbols are bare parameters, not buffer taps —
                // exactly like the AST walk's `Expr::Var` arm.
                let rendered = if slot.is_scalar() {
                    slot.field.clone()
                } else {
                    access(&slot.field, &slot.offsets)
                };
                stack.push((rendered, Shape::Other));
            }
            Op::Local(ix) => stack.push((locals[*ix as usize].clone()?, Shape::Other)),
            Op::Store(ix) => {
                let (value, _) = stack.pop()?;
                let name = format!("t{ix}");
                lines.push(format!("const {} {name} = {value};", c_type(dtype)));
                locals[*ix as usize] = Some(name);
            }
            Op::Pop => {
                let (value, _) = stack.pop()?;
                lines.push(format!("(void)({value});"));
            }
            Op::Unary(op) => {
                let (inner, _) = stack.pop()?;
                stack.push((
                    match op {
                        UnOp::Neg => format!("(-{inner})"),
                        UnOp::Not => format!("(!{inner})"),
                    },
                    Shape::Other,
                ));
            }
            Op::Binary(op) => {
                let (r, r_shape) = stack.pop()?;
                let (l, l_shape) = stack.pop()?;
                let rendered = format!("({l} {} {r})", op.symbol());
                let shape = match op {
                    BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => Shape::Compare {
                        op: *op,
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
            Op::Call1(func) => {
                let (a, _) = stack.pop()?;
                stack.push((format!("{}({a})", mathfn_c(*func, dtype)), Shape::Other));
            }
            Op::Call2(func) => {
                let (b, _) = stack.pop()?;
                let (a, _) = stack.pop()?;
                stack.push((
                    format!("{}({a}, {b})", mathfn_c(*func, dtype)),
                    Shape::Other,
                ));
            }
            Op::ToBool => {
                let (a, _) = stack.pop()?;
                stack.push((format!("({a} != 0)"), Shape::Other));
            }
            Op::Select => {
                let (otherwise, otherwise_shape) = stack.pop()?;
                let (then, _) = stack.pop()?;
                let (cond, cond_shape) = stack.pop()?;
                if let Some(fused) = fuse_clamp(
                    &cond_shape,
                    &then,
                    &otherwise_shape,
                    &otherwise,
                    dtype,
                    style,
                ) {
                    stack.push((fused, Shape::Other));
                    continue;
                }
                let rendered = match style {
                    SelectStyle::Ternary => format!("({cond} ? {then} : {otherwise})"),
                    SelectStyle::OpenClSelect => {
                        // OpenCL `select(a, b, c)` picks `b` where `c` is
                        // true; the condition must be an integer type of
                        // the operands' width. Language truthiness is
                        // `!= 0.0`, and a raw float condition (`c[i] ? …`)
                        // must not be truncated by the integer cast —
                        // 0.5 is true — so the comparison happens first.
                        let cond_type = match dtype {
                            DataType::Float64 => "long",
                            _ => "int",
                        };
                        let zero = float_literal(0.0, dtype);
                        format!("select({otherwise}, {then}, ({cond_type})({cond} != {zero}))")
                    }
                };
                stack.push((rendered, Shape::Other));
            }
            // Control flow cannot be expressed as a C expression DAG; the
            // caller falls back to the AST walk with native ternaries.
            Op::Jump(_) | Op::JumpIfFalse(_) | Op::AndShortCircuit(_) | Op::OrShortCircuit(_) => {
                return None;
            }
        }
    }
    let (result, _) = stack.pop()?;
    if !stack.is_empty() {
        return None;
    }
    lines.push(format!("result = {result};"));
    Some(lines)
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::parse_program;

    fn simple_access(field: &str, offsets: &[i64]) -> String {
        let parts: Vec<String> = offsets.iter().map(|o| format!("{o}")).collect();
        format!("buf_{field}[{}]", parts.join("]["))
    }

    #[test]
    fn translates_arithmetic_and_calls() {
        let program = parse_program("0.5 * (a[i-1] + a[i+1]) - sqrt(b[i])").unwrap();
        let c = program_to_c(&program, &simple_access, DataType::Float32);
        assert_eq!(c.len(), 1);
        assert!(c[0].contains("0.5f"));
        assert!(c[0].contains("buf_a[-1]"));
        assert!(c[0].contains("sqrtf(buf_b[0])"));
        assert!(c[0].starts_with("result ="));
    }

    #[test]
    fn translates_locals_ternaries_and_minmax() {
        let program =
            parse_program("d = a[i] - b[i]; min(max(d, 0.0), 1.0) > 0.5 ? d : -d").unwrap();
        let c = program_to_c(&program, &simple_access, DataType::Float32);
        assert_eq!(c.len(), 2);
        assert!(c[0].starts_with("const float d ="));
        assert!(c[1].contains("fminf(fmaxf(d, 0.0f), 1.0f)"));
        assert!(c[1].contains("? d : (-d)"));
    }

    #[test]
    fn float_literals_round_trip_exactly() {
        // 0.1 has no finite binary expansion: the emitted literal must be
        // the shortest decimal that parses back to the same f64, not a
        // fixed-precision rendering.
        let program = parse_program("a[i] * 0.1 + 1.0 + 0.30000000000000004").unwrap();
        let c = program_to_c(&program, &simple_access, DataType::Float32);
        assert!(c[0].contains("0.1f"));
        assert!(c[0].contains("1.0f"));
        assert!(c[0].contains("0.30000000000000004f"));
    }

    #[test]
    fn double_kernels_drop_the_float_suffix() {
        let program = parse_program("sqrt(a[i]) * 0.5 + min(b[i], 2.0)").unwrap();
        let c = program_to_c(&program, &simple_access, DataType::Float64);
        assert!(c[0].contains("0.5"));
        assert!(!c[0].contains("0.5f"));
        assert!(c[0].contains("sqrt(buf_a[0])"));
        assert!(!c[0].contains("sqrtf"));
        assert!(c[0].contains("fmin(buf_b[0], 2.0)"));
    }

    #[test]
    fn kernel_emission_renders_selects_as_ternaries() {
        let program = parse_program("a[i] > 0.0 ? a[i] : -a[i]").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let lines = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::Ternary,
        )
        .expect("if-converted kernels are branch-free");
        let body = lines.join("\n");
        assert!(body.contains('?'), "no ternary in:\n{body}");
        assert!(body.contains("buf_a[0]"));
        assert!(lines.last().unwrap().starts_with("result ="));
    }

    #[test]
    fn kernel_emission_renders_opencl_selects() {
        let program = parse_program("a[i] > 0.0 ? a[i] : -a[i]").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let lines = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::OpenClSelect,
        )
        .unwrap();
        let body = lines.join("\n");
        assert!(body.contains("select("), "no select in:\n{body}");
        assert!(body.contains("(int)("), "condition not cast in:\n{body}");
        let double = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float64,
            SelectStyle::OpenClSelect,
        )
        .unwrap()
        .join("\n");
        assert!(double.contains("(long)("));
    }

    #[test]
    fn kernel_emission_renders_scalar_symbols_as_bare_names() {
        // Scalar symbols (empty-offset slots) must emit as plain parameter
        // names, not as zero-dimensional buffer taps.
        let program = parse_program("a[i] * dt + a[i-1]").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let lines = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::Ternary,
        )
        .unwrap();
        let body = lines.join("\n");
        assert!(body.contains("* dt)"), "scalar not bare in:\n{body}");
        assert!(!body.contains("buf_dt"), "scalar rendered as tap:\n{body}");
    }

    #[test]
    fn opencl_select_preserves_float_truthiness() {
        // A raw float condition is true when non-zero (0.5 is true); the
        // integer cast must apply to the comparison, not the float.
        let program = parse_program("a[i] ? b[i] : -b[i]").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let body = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::OpenClSelect,
        )
        .unwrap()
        .join("\n");
        assert!(
            body.contains("(int)(buf_a[0] != 0.0f)"),
            "condition cast truncates truthiness in:\n{body}"
        );
    }

    #[test]
    fn kernel_emission_names_cse_temporaries() {
        // The shared subexpression appears once, bound to a temporary.
        let program = parse_program("(a[i-1] + a[i+1]) * (a[i-1] + a[i+1])").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let lines = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::Ternary,
        )
        .unwrap();
        let body = lines.join("\n");
        assert_eq!(body.matches('+').count(), 1, "add not shared in:\n{body}");
        assert!(body.contains("const float t0 ="));
        assert!(body.contains("(t0 * t0)"));
    }

    #[test]
    fn clamp_selects_fuse_into_min_max() {
        // NaN-faithful orientations: the else-arm is the literal, so a
        // NaN input selects the literal in both the ternary and the
        // IEEE fmin/fmax rendering.
        for (code, expected) in [
            ("a[i] < 4.0 ? a[i] : 4.0", "fminf(buf_a[0], 4.0f)"),
            ("a[i] <= 4.0 ? a[i] : 4.0", "fminf(buf_a[0], 4.0f)"),
            ("a[i] > 0.125 ? a[i] : 0.125", "fmaxf(buf_a[0], 0.125f)"),
            ("0.5 > a[i] ? a[i] : 0.5", "fminf(buf_a[0], 0.5f)"),
            ("0.5 < a[i] ? a[i] : 0.5", "fmaxf(buf_a[0], 0.5f)"),
        ] {
            let program = parse_program(code).unwrap();
            let kernel = CompiledKernel::compile(&program).unwrap();
            let body = kernel_to_c(
                &kernel,
                &simple_access,
                DataType::Float32,
                SelectStyle::Ternary,
            )
            .unwrap()
            .join("\n");
            assert!(
                body.contains(expected),
                "`{code}` should fuse to `{expected}`:\n{body}"
            );
            assert!(!body.contains('?'), "select not fused in:\n{body}");
            // The OpenCL flavor has no suffixed fminf/fmaxf builtins: the
            // fused spelling must be the overloaded fmin/fmax.
            let opencl = kernel_to_c(
                &kernel,
                &simple_access,
                DataType::Float32,
                SelectStyle::OpenClSelect,
            )
            .unwrap()
            .join("\n");
            let unsuffixed = expected
                .replace("fminf(", "fmin(")
                .replace("fmaxf(", "fmax(");
            assert!(
                opencl.contains(&unsuffixed)
                    && !opencl.contains("fminf")
                    && !opencl.contains("fmaxf"),
                "`{code}` should fuse to `{unsuffixed}` under OpenCL:\n{opencl}"
            );
            assert!(
                !opencl.contains("select("),
                "select not fused in:\n{opencl}"
            );
        }
        // Double kernels use the double-flavored functions.
        let program = parse_program("a[i] < 4.0 ? a[i] : 4.0").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let body = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float64,
            SelectStyle::Ternary,
        )
        .unwrap()
        .join("\n");
        assert!(body.contains("fmin(buf_a[0], 4.0)"), "{body}");
    }

    #[test]
    fn clamp_chains_fuse_through_cse_temporaries() {
        // A two-sided clamp built from chained ternaries: the shared
        // subexpression lands in a temporary and both selects fuse.
        let code = "x = a[i] > 0.25 ? a[i] : 0.25; x < 1.0 ? x : 1.0";
        let program = parse_program(code).unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        let body = kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::Ternary,
        )
        .unwrap()
        .join("\n");
        assert!(
            body.contains("fmaxf(buf_a[0], 0.25f)"),
            "inner clamp not fused in:\n{body}"
        );
        assert!(body.contains("fminf("), "outer clamp not fused in:\n{body}");
        assert!(!body.contains('?'), "clamp chain kept a ternary:\n{body}");
    }

    #[test]
    fn nan_divergent_clamp_orientations_stay_selects() {
        // `x > c ? c : x` propagates a NaN `x` where fminf would return
        // `c`: the then-arm literal orientation must not fuse. (This is
        // the horizontal-diffusion limiter shape — correctness over
        // aesthetics.)
        for code in [
            "a[i] > 4.0 ? 4.0 : a[i]",
            "a[i] < 4.0 ? 4.0 : a[i]",
            // Non-literal bound: NaN-safety cannot be established.
            "a[i] < b[i] ? a[i] : b[i]",
            // Zero bound (relu): x = -0.0 ties against +0.0 with
            // different bits, and fmax may return either zero where the
            // ternary's pick is fixed — signed-zero faithfulness forbids
            // the fusion.
            "a[i] > 0.0 ? a[i] : 0.0",
            "a[i] < 0.0 ? a[i] : 0.0",
        ] {
            let program = parse_program(code).unwrap();
            let kernel = CompiledKernel::compile(&program).unwrap();
            let body = kernel_to_c(
                &kernel,
                &simple_access,
                DataType::Float32,
                SelectStyle::Ternary,
            )
            .unwrap()
            .join("\n");
            assert!(body.contains('?'), "`{code}` must stay a select:\n{body}");
            assert!(
                !body.contains("fminf") && !body.contains("fmaxf"),
                "`{code}` fused unsafely:\n{body}"
            );
        }
    }

    #[test]
    fn kernel_emission_falls_back_on_jumpy_kernels() {
        // A division in an arm keeps the jump diamond; the bytecode
        // emitter declines and the AST walk takes over.
        let program = parse_program("a[i] > 0.0 ? a[i] / b[i] : a[i]").unwrap();
        let kernel = CompiledKernel::compile(&program).unwrap();
        assert!(kernel_to_c(
            &kernel,
            &simple_access,
            DataType::Float32,
            SelectStyle::Ternary
        )
        .is_none());
        let fallback = program_to_c(&program, &simple_access, DataType::Float32);
        assert!(fallback[0].contains('?'));
    }
}
