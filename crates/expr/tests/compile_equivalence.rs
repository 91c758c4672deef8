//! Property test: the compiled kernel agrees with the tree-walking
//! evaluator on randomly generated programs and resolvers — same values
//! (bit for bit), same types, same errors.

use proptest::prelude::*;
use stencilflow_expr::ast::{BinOp, Expr, Index, MathFn, Program, Stmt, UnOp};
use stencilflow_expr::{
    AccessExtractor, CompiledKernel, EvalScratch, Evaluator, MapResolver, TypedScratch, Value,
};

/// Random well-formed expressions over a small set of fields and offsets
/// (mirrors the strategy of the parser round-trip suite, plus division and
/// logic to stress error and short-circuit paths).
fn arb_expr(_depth: u32) -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i64..5).prop_map(Expr::IntLit),
        (0i32..100).prop_map(|v| Expr::FloatLit(v as f64 / 8.0)),
        (0usize..3usize, -2i64..3, -2i64..3).prop_map(|(f, di, dj)| Expr::FieldAccess {
            field: format!("f{f}"),
            indices: vec![
                Index {
                    var: "i".into(),
                    offset: di
                },
                Index {
                    var: "j".into(),
                    offset: dj
                },
            ],
        }),
    ];
    leaf.prop_recursive(3, 64, 3, |inner| {
        prop_oneof![
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
            inner.clone().prop_map(|a| Expr::unary(UnOp::Neg, a)),
            inner.clone().prop_map(|a| Expr::unary(UnOp::Not, a)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ternary(c, t, e)),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(a, b, is_min)| Expr::Call {
                func: if is_min { MathFn::Min } else { MathFn::Max },
                args: vec![a, b],
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
    proptest::collection::vec(arb_expr(3), 1..4).prop_map(|exprs| {
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

/// Deterministic resolver covering every access of the program. `f32_mode`
/// stresses the type-promotion paths with mixed f32/f64 values.
fn resolver_for(program: &Program, f32_mode: bool) -> MapResolver {
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
                .map(|(d, o)| (*o as f64) * (d as f64 + 1.0) * 0.5)
                .sum::<f64>()
                + field.len() as f64;
            let value = if f32_mode && offsets.len() % 2 == 0 {
                Value::F32(v as f32)
            } else {
                Value::F64(v)
            };
            resolver.insert_access(field, offsets, value);
        }
    }
    resolver
}

fn check_equivalence(program: &Program, resolver: &MapResolver) -> Result<(), TestCaseError> {
    let interpreted = Evaluator::new(resolver).eval_program(program);
    let kernel = CompiledKernel::compile(program).expect("non-empty programs compile");
    let compiled = kernel.eval(resolver);
    match (interpreted, compiled) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(a.data_type(), b.data_type());
            prop_assert!(
                a.as_f64().to_bits() == b.as_f64().to_bits()
                    || (a.as_f64().is_nan() && b.as_f64().is_nan()),
                "compiled {b:?} differs from interpreted {a:?} for `{program}`"
            );
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(
            false,
            "outcome mismatch for `{program}`: interpreted {a:?}, compiled {b:?}"
        ),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Compiled evaluation is bit-identical to interpretation (f64 inputs).
    #[test]
    fn compiled_matches_interpreter_f64(program in arb_program()) {
        let resolver = resolver_for(&program, false);
        check_equivalence(&program, &resolver)?;
    }

    /// ... and with mixed f32/f64 inputs, which stresses type promotion and
    /// per-operation rounding.
    #[test]
    fn compiled_matches_interpreter_mixed_types(program in arb_program()) {
        let resolver = resolver_for(&program, true);
        check_equivalence(&program, &resolver)?;
    }

    /// Whenever a kernel specializes for its bind-time slot types, the
    /// typed `f64` loop agrees bit for bit with the `Value` bytecode (and
    /// therefore, by the tests above, with the interpreter).
    #[test]
    fn typed_kernel_matches_value_path(program in arb_program(), f32_mode in any::<bool>()) {
        let resolver = resolver_for(&program, f32_mode);
        let kernel = CompiledKernel::compile(&program).expect("non-empty programs compile");
        let mut slot_types = Vec::with_capacity(kernel.slots().len());
        let mut values = Vec::with_capacity(kernel.slots().len());
        let mut raw = Vec::with_capacity(kernel.slots().len());
        for slot in kernel.slots() {
            let value = stencilflow_expr::AccessResolver::resolve(
                &resolver, &slot.field, &slot.offsets,
            ).expect("resolver covers every access");
            slot_types.push(value.data_type());
            raw.push(value.as_f64());
            values.push(value);
        }
        if let Some(typed) = kernel.specialize(&slot_types) {
            // Specialized kernels reject every failing construct, so the
            // Value path must succeed too.
            let reference = kernel
                .eval_slots(&values, &mut EvalScratch::default())
                .expect("specialized kernels cannot fail");
            let specialized = typed.eval_slots(&raw, &mut TypedScratch::default());
            prop_assert!(
                reference.as_f64().to_bits() == specialized.to_bits()
                    || (reference.as_f64().is_nan() && specialized.is_nan()),
                "typed mismatch for `{program}`: {reference:?} vs {specialized}"
            );
        }
    }

    /// Compilation is deterministic: two lowerings of the same program are
    /// identical, and re-evaluation yields the same bits.
    #[test]
    fn compilation_is_deterministic(program in arb_program()) {
        let a = CompiledKernel::compile(&program).unwrap();
        let b = CompiledKernel::compile(&program).unwrap();
        // Compared as text: a folded `0.0 / 0.0` leaves a NaN constant,
        // which is not `==` to itself.
        prop_assert_eq!(format!("{:?}", a.ops()), format!("{:?}", b.ops()));
        prop_assert_eq!(a.slots(), b.slots());
        let resolver = resolver_for(&program, false);
        let first = a.eval(&resolver);
        let second = a.eval(&resolver);
        prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));
    }
}
