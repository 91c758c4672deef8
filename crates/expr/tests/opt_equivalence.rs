//! Property test for the optimization pipeline: randomly generated
//! programs with (nested) ternaries and short-circuit logic, asserting the
//! optimized bytecode — if-converted, then CSE'd (which drops dead code
//! too) — is bitwise identical
//! to both the unoptimized bytecode and the tree-walking interpreter,
//! across f32, f64, and mixed slot types, on the `Value` path and (where
//! the kernel specializes) the typed and lane paths. A second generator
//! builds nested ternaries whose arms differ in float width — a literal
//! against an `f32` expression — and feeds the result through locals into
//! rounding-sensitive consumers; there, specialization is required rather
//! than merely checked when it happens.

use proptest::prelude::*;
use stencilflow_expr::ast::{BinOp, Expr, Index, MathFn, Program, Stmt, UnOp};
use stencilflow_expr::{
    AccessExtractor, AccessResolver, CompiledKernel, EvalScratch, Evaluator, LaneScratch,
    MapResolver, TypedScratch, Value,
};

/// Random expressions biased towards ternaries (including nested ones) and
/// repeated subexpressions — the constructs if-conversion and CSE act on.
/// Division is included deliberately: it blocks if-conversion of the arm
/// containing it, exercising the mixed jump-plus-select paths.
fn arb_expr(_depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i32..100).prop_map(|v| Expr::FloatLit(v as f64 / 8.0)),
        (0i64..4).prop_map(Expr::IntLit),
        (0usize..3usize, -2i64..3, -2i64..3).prop_map(|(f, di, dj)| access(f, di, dj)),
    ];
    leaf.prop_recursive(4, 96, 3, |inner| {
        prop_oneof![
            // The ternary arm appears three times: the offline proptest
            // stand-in has no weighted arms, and nesting should be common.
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ternary(c, t, e)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ternary(c, t, e)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ternary(c, t, e)),
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(a, b, op)| {
                let op = match op % 8 {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Div,
                    4 => BinOp::Lt,
                    5 => BinOp::And,
                    6 => BinOp::Or,
                    _ => BinOp::Ge,
                };
                Expr::binary(op, a, b)
            }),
            // Duplicated subtree: guaranteed CSE fodder.
            inner
                .clone()
                .prop_map(|a| Expr::binary(BinOp::Mul, a.clone(), a)),
            inner.clone().prop_map(|a| Expr::unary(UnOp::Neg, a)),
            inner.clone().prop_map(|a| Expr::unary(UnOp::Not, a)),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(a, b, is_min)| {
                Expr::Call {
                    func: if is_min { MathFn::Min } else { MathFn::Max },
                    args: vec![a, b],
                }
            }),
            inner.clone().prop_map(|a| Expr::Call {
                func: MathFn::Sqrt,
                args: vec![a],
            }),
        ]
    })
    .boxed()
}

fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_expr(4), 1..4).prop_map(|exprs| {
        let n = exprs.len();
        Program {
            statements: exprs
                .into_iter()
                .enumerate()
                .map(|(idx, value)| Stmt {
                    name: if idx + 1 < n {
                        Some(format!("tmp{idx}"))
                    } else {
                        None
                    },
                    value,
                })
                .collect(),
        }
    })
}

/// Slot typing modes the equivalence is checked under.
#[derive(Debug, Clone, Copy)]
enum SlotMode {
    AllF32,
    AllF64,
    Mixed,
}

fn resolver_for(program: &Program, mode: SlotMode) -> MapResolver {
    resolver_variant(program, mode, 0)
}

/// [`resolver_for`] with the slot values moved by `variant`, so a program
/// evaluated over several variants takes each arm of its ternaries.
fn resolver_variant(program: &Program, mode: SlotMode, variant: usize) -> MapResolver {
    let mut resolver = MapResolver::new();
    let accesses = AccessExtractor::extract(program);
    for (field, info) in accesses.iter() {
        if info.is_scalar() {
            resolver.insert_scalar(field, Value::F64(1.25));
        }
        for offsets in &info.offsets {
            let v = offsets
                .iter()
                .enumerate()
                .map(|(d, o)| (*o as f64) * (d as f64 + 1.0) * 0.37)
                .sum::<f64>()
                + field.len() as f64
                - 1.4;
            let v = v * (1.0 + 0.83 * variant as f64) - 0.61 * variant as f64;
            let f32_slot = match mode {
                SlotMode::AllF32 => true,
                SlotMode::AllF64 => false,
                SlotMode::Mixed => (offsets.iter().sum::<i64>()).rem_euclid(2) == 0,
            };
            let value = if f32_slot {
                Value::F32(v as f32)
            } else {
                Value::F64(v)
            };
            resolver.insert_access(field, offsets, value);
        }
    }
    resolver
}

fn bits_match(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// The full differential check for one program and one slot mode:
/// interpreter vs unoptimized bytecode vs optimized bytecode (values,
/// types, and errors), plus the typed and lane tiers when the optimized
/// kernel specializes.
fn check_optimized_equivalence(program: &Program, mode: SlotMode) -> Result<(), TestCaseError> {
    let resolver = resolver_for(program, mode);
    let interpreted = Evaluator::new(&resolver).eval_program(program);
    let optimized = CompiledKernel::compile(program).expect("non-empty programs compile");
    let unoptimized = CompiledKernel::compile_unoptimized(program).unwrap();
    for kernel in [&optimized, &unoptimized] {
        let compiled = kernel.eval(&resolver);
        match (&interpreted, &compiled) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.data_type(), b.data_type());
                prop_assert!(
                    bits_match(a.as_f64(), b.as_f64()),
                    "compiled {:?} differs from interpreted {:?} for `{}`",
                    b,
                    a,
                    program
                );
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(
                false,
                "outcome mismatch for `{program}`: interpreted {a:?}, compiled {b:?}"
            ),
        }
    }

    // Typed and lane tiers of the optimized kernel, when they exist.
    let mut slot_types = Vec::with_capacity(optimized.slots().len());
    let mut values = Vec::with_capacity(optimized.slots().len());
    let mut raw = Vec::with_capacity(optimized.slots().len());
    for slot in optimized.slots() {
        let value = resolver
            .resolve(&slot.field, &slot.offsets)
            .expect("resolver covers every access");
        slot_types.push(value.data_type());
        raw.push(value.as_f64());
        values.push(value);
    }
    if let Some(typed) = optimized.specialize(&slot_types) {
        let reference = optimized
            .eval_slots(&values, &mut EvalScratch::default())
            .expect("specialized kernels cannot fail");
        let specialized = typed.eval_slots(&raw, &mut TypedScratch::default());
        prop_assert!(
            bits_match(reference.as_f64(), specialized),
            "typed mismatch for `{}`: {:?} vs {}",
            program,
            reference,
            specialized
        );
        const LANES: usize = 4;
        let lanes: Vec<[f64; LANES]> = raw.iter().map(|&v| [v; LANES]).collect();
        let batched = typed.eval_lanes(&lanes, &mut LaneScratch::<LANES>::default());
        for lane in batched {
            prop_assert!(
                bits_match(specialized, lane),
                "lane mismatch for `{program}`: {specialized} vs {lane}"
            );
        }
    }
    Ok(())
}

fn access(field: usize, di: i64, dj: i64) -> Expr {
    Expr::FieldAccess {
        field: format!("f{field}"),
        indices: vec![
            Index {
                var: "i".into(),
                offset: di,
            },
            Index {
                var: "j".into(),
                offset: dj,
            },
        ],
    }
}

fn arb_access() -> BoxedStrategy<Expr> {
    (0usize..3usize, -1i64..2, -1i64..2)
        .prop_map(|(f, di, dj)| access(f, di, dj))
        .boxed()
}

/// Literals in tenths: `f64`-typed, and mostly not representable in `f32`,
/// so a wrongly rounded (or wrongly unrounded) result shows in the bits.
fn arb_literal() -> BoxedStrategy<Expr> {
    (-9i32..40)
        .prop_map(|v| Expr::FloatLit(v as f64 / 10.0))
        .boxed()
}

/// A ternary joining a literal arm with an expression arm (itself possibly
/// such a ternary), in either arm order. With `division` the expression
/// arms may divide, which keeps the untyped diamond.
fn arb_join(division: bool) -> BoxedStrategy<Expr> {
    let arm = prop_oneof![
        arb_access(),
        (arb_access(), arb_access(), any::<u8>()).prop_map(move |(a, b, op)| {
            let op = match op % 4 {
                0 => BinOp::Sub,
                1 => BinOp::Mul,
                2 if division => BinOp::Div,
                _ => BinOp::Add,
            };
            Expr::binary(op, a, b)
        }),
    ];
    arm.prop_recursive(3, 16, 2, |inner| {
        (
            arb_access(),
            arb_literal(),
            arb_literal(),
            inner,
            any::<bool>(),
            any::<bool>(),
        )
            .prop_map(|(probe, bound, literal, arm, greater, literal_first)| {
                let cond = Expr::binary(if greater { BinOp::Gt } else { BinOp::Lt }, probe, bound);
                if literal_first {
                    Expr::ternary(cond, literal, arm)
                } else {
                    Expr::ternary(cond, arm, literal)
                }
            })
    })
    .boxed()
}

/// `t0 = join; t1 = join; t2 = consumer(t0, t1, field); tail(t0, t1, t2)`:
/// the joined values reach `* / sqrt min max`, a `+` with a literal (which
/// settles the width at `f64`), each other, and a tail ternary through
/// locals.
fn arb_mixed_program(division: bool) -> impl Strategy<Value = Program> {
    (
        arb_join(division),
        arb_join(division),
        arb_access(),
        arb_literal(),
        any::<u8>(),
        any::<u8>(),
    )
        .prop_map(|(j0, j1, field, literal, consumer, tail)| {
            let var = |name: &str| Expr::Var(name.to_string());
            let call = |func, args| Expr::Call { func, args };
            let t2 = match consumer % 8 {
                0 => Expr::binary(BinOp::Mul, var("t0"), field.clone()),
                1 => Expr::binary(BinOp::Div, field.clone(), var("t0")),
                2 => call(
                    MathFn::Sqrt,
                    vec![Expr::binary(BinOp::Mul, var("t0"), var("t0"))],
                ),
                3 => call(MathFn::Min, vec![var("t0"), field.clone()]),
                4 => call(MathFn::Max, vec![literal.clone(), var("t1")]),
                5 => Expr::binary(BinOp::Mul, var("t0"), var("t1")),
                6 => Expr::binary(BinOp::Add, var("t0"), literal.clone()),
                _ => Expr::binary(
                    BinOp::Sub,
                    Expr::unary(UnOp::Neg, var("t1")),
                    Expr::binary(BinOp::Lt, var("t0"), field.clone()),
                ),
            };
            let last = match tail % 4 {
                // The flux limiter's shape: the joined value decides the
                // branch through a product, then is one of the arms.
                0 => Expr::ternary(
                    Expr::binary(
                        BinOp::Gt,
                        Expr::binary(BinOp::Mul, var("t0"), field),
                        Expr::FloatLit(0.0),
                    ),
                    Expr::FloatLit(0.0),
                    var("t2"),
                ),
                1 => Expr::ternary(
                    Expr::binary(BinOp::Lt, var("t2"), literal),
                    var("t1"),
                    var("t2"),
                ),
                2 => Expr::binary(BinOp::Mul, var("t2"), var("t1")),
                _ => Expr::binary(BinOp::Div, var("t2"), field),
            };
            Program {
                statements: [("t0", j0), ("t1", j1), ("t2", t2)]
                    .into_iter()
                    .map(|(name, value)| Stmt {
                        name: Some(name.to_string()),
                        value,
                    })
                    .chain(std::iter::once(Stmt {
                        name: None,
                        value: last,
                    }))
                    .collect(),
            }
        })
}

/// Interpreter, `Value` bytecode, typed and lane results of a mixed-width
/// program agree bit for bit over several slot-value variants (one lane
/// per variant). The programs are all-float, so each must specialize —
/// whether or not a division kept a diamond in its `Value` bytecode.
fn check_mixed_equivalence(program: &Program, mode: SlotMode) -> Result<(), TestCaseError> {
    const VARIANTS: usize = 6;
    let kernel = CompiledKernel::compile(program).expect("non-empty programs compile");
    let mut typed = None;
    let mut lanes = vec![[0.0; VARIANTS]; kernel.slots().len()];
    let mut references = [0.0; VARIANTS];
    for variant in 0..VARIANTS {
        let resolver = resolver_variant(program, mode, variant);
        let interpreted = Evaluator::new(&resolver)
            .eval_program(program)
            .expect("float programs cannot fail");
        let values: Vec<Value> = kernel
            .slots()
            .iter()
            .map(|slot| resolver.resolve(&slot.field, &slot.offsets).unwrap())
            .collect();
        let reference = kernel
            .eval_slots(&values, &mut EvalScratch::default())
            .expect("float programs cannot fail");
        prop_assert_eq!(interpreted.data_type(), reference.data_type());
        prop_assert!(bits_match(interpreted.as_f64(), reference.as_f64()));
        references[variant] = reference.as_f64();
        for (lane, value) in lanes.iter_mut().zip(&values) {
            lane[variant] = value.as_f64();
        }
        if variant == 0 {
            let slot_types: Vec<_> = values.iter().map(|v| v.data_type()).collect();
            typed = kernel.specialize(&slot_types);
            prop_assert!(typed.is_some(), "`{}` must specialize", program);
        }
        let typed = typed.as_ref().expect("typed by the first variant");
        let raw: Vec<f64> = values.iter().map(|v| v.as_f64()).collect();
        let specialized = typed.eval_slots(&raw, &mut TypedScratch::default());
        prop_assert!(
            bits_match(reference.as_f64(), specialized),
            "typed mismatch for `{}` (variant {}): {:?} vs {}",
            program,
            variant,
            reference,
            specialized
        );
    }
    let typed = typed.expect("typed by the first variant");
    let batched = typed.eval_lanes(&lanes, &mut LaneScratch::<VARIANTS>::default());
    for (variant, (lane, reference)) in batched.iter().zip(references).enumerate() {
        prop_assert!(
            bits_match(reference, *lane),
            "lane mismatch for `{}` (variant {}): {} vs {}",
            program,
            variant,
            reference,
            lane
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Select-form joins of a literal arm with an `f32` (or, under mixed
    /// slots, some other float) arm specialize, and the typed and lane
    /// tiers agree with the `Value` path bit for bit.
    #[test]
    fn mixed_width_joins_specialize_bitwise(program in arb_mixed_program(false)) {
        check_mixed_equivalence(&program, SlotMode::AllF32)?;
        check_mixed_equivalence(&program, SlotMode::Mixed)?;
    }

    /// With a division in an arm the untyped diamond stays; the join
    /// specializes all the same, division speculated, and the bits agree.
    #[test]
    fn mixed_width_joins_with_division_arms_stay_bitwise(program in arb_mixed_program(true)) {
        check_mixed_equivalence(&program, SlotMode::AllF32)?;
        check_mixed_equivalence(&program, SlotMode::Mixed)?;
    }

    /// Optimized bytecode is bitwise identical to the unoptimized bytecode
    /// and to the interpreter on all-f32 slots (per-operation rounding).
    #[test]
    fn optimized_matches_interpreter_f32(program in arb_program()) {
        check_optimized_equivalence(&program, SlotMode::AllF32)?;
    }

    /// ... on all-f64 slots.
    #[test]
    fn optimized_matches_interpreter_f64(program in arb_program()) {
        check_optimized_equivalence(&program, SlotMode::AllF64)?;
    }

    /// ... and on mixed f32/f64 slots, stressing promotion across the
    /// select joins.
    #[test]
    fn optimized_matches_interpreter_mixed(program in arb_program()) {
        check_optimized_equivalence(&program, SlotMode::Mixed)?;
    }
}
