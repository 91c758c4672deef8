//! Agreement between the bytecode verifier and the evaluators: on random
//! programs, every compiled kernel must verify, evaluation must never
//! panic (the verifier's stack/local/jump judgment is exactly what lets
//! the eval loops run unchecked in release), and a kernel the verifier
//! judges infallible must never return a runtime error — across f64,
//! integer, and mixed slot typings, optimized and unoptimized bytecode,
//! and the typed tier.

use proptest::prelude::*;
use stencilflow_expr::ast::{BinOp, Expr, Index, MathFn, Program, Stmt, UnOp};
use stencilflow_expr::{
    verify_kernel, verify_typed, AccessExtractor, AccessResolver, CompiledKernel, DataType,
    EvalScratch, MapResolver, Value,
};

/// Random expressions biased towards division (the language's only
/// fallible operation) and ternaries (the only branch source), so both
/// halves of the verifier's judgment — infallibility and control flow —
/// are exercised hard.
fn arb_expr() -> BoxedStrategy<Expr> {
    let leaf = prop_oneof![
        (0i32..16).prop_map(|v| Expr::FloatLit(v as f64 / 4.0)),
        (-2i64..4).prop_map(Expr::IntLit),
        (0usize..3usize, -1i64..2, -1i64..2).prop_map(|(f, di, dj)| Expr::FieldAccess {
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
    leaf.prop_recursive(4, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ternary(c, t, e)),
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(a, b, op)| {
                let op = match op % 8 {
                    // Division twice: the infallibility judgment is the
                    // property under test.
                    0 | 1 => BinOp::Div,
                    2 => BinOp::Add,
                    3 => BinOp::Sub,
                    4 => BinOp::Mul,
                    5 => BinOp::Lt,
                    6 => BinOp::And,
                    _ => BinOp::Or,
                };
                Expr::binary(op, a, b)
            }),
            inner.clone().prop_map(|a| Expr::unary(UnOp::Neg, a)),
            inner.clone().prop_map(|a| Expr::unary(UnOp::Not, a)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Call {
                func: MathFn::Min,
                args: vec![a, b],
            }),
        ]
    })
    .boxed()
}

fn arb_program() -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_expr(), 1..4).prop_map(|exprs| {
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

/// Slot typings the agreement is checked under. Integer slots (with zeros
/// among the values) are the interesting half: they make division
/// genuinely fallible, so the infallibility judgment must *not* hold and
/// real division errors must surface as `Err`, never as panics.
#[derive(Debug, Clone, Copy)]
enum SlotMode {
    AllF64,
    AllI64,
    Mixed,
}

fn resolver_for(program: &Program, mode: SlotMode) -> MapResolver {
    let mut resolver = MapResolver::new();
    let accesses = AccessExtractor::extract(program);
    for (field, info) in accesses.iter() {
        if info.is_scalar() {
            resolver.insert_scalar(field, Value::F64(1.25));
        }
        for offsets in &info.offsets {
            // Deterministic small values including zero, so integer
            // division by zero actually occurs in some cases.
            let v = offsets.iter().sum::<i64>() + field.len() as i64 - 2;
            let integer_slot = match mode {
                SlotMode::AllF64 => false,
                SlotMode::AllI64 => true,
                SlotMode::Mixed => v.rem_euclid(2) == 0,
            };
            let value = if integer_slot {
                Value::I64(v)
            } else {
                Value::F64(v as f64 * 0.75)
            };
            resolver.insert_access(field, offsets, value);
        }
    }
    resolver
}

/// The agreement check for one program and slot mode. Any panic in here
/// (stack underflow, bad local, out-of-range jump) is itself a failure of
/// the property that verified kernels evaluate safely.
fn check_agreement(program: &Program, mode: SlotMode) -> Result<(), TestCaseError> {
    let optimized = CompiledKernel::compile(program).expect("non-empty programs compile");
    let unoptimized = CompiledKernel::compile_unoptimized(program).unwrap();
    let resolver = resolver_for(program, mode);

    for kernel in [&optimized, &unoptimized] {
        // Gather the real slot values and their types.
        let mut slot_types: Vec<DataType> = Vec::with_capacity(kernel.slots().len());
        let mut values = Vec::with_capacity(kernel.slots().len());
        for slot in kernel.slots() {
            let value = resolver
                .resolve(&slot.field, &slot.offsets)
                .expect("resolver covers every access");
            slot_types.push(value.data_type());
            values.push(value);
        }

        // 1. The verifier accepts every kernel the compiler emits, both
        //    typeless (conservative) and with the real slot types.
        let conservative = verify_kernel(kernel, None);
        prop_assert!(
            conservative.is_ok(),
            "typeless verification rejected `{}`: {:?}",
            program,
            conservative
        );
        let judgment = verify_kernel(kernel, Some(&slot_types));
        prop_assert!(
            judgment.is_ok(),
            "typed verification rejected `{}`: {:?}",
            program,
            judgment
        );
        let judgment = judgment.unwrap();

        // 2. Verifier-accepted kernels evaluate without panicking; this
        //    call is the whole point of the unchecked release eval loops.
        let outcome = kernel.eval_slots(&values, &mut EvalScratch::default());

        // 3. Infallibility judgment: if the verifier proved no error is
        //    reachable, evaluation must not produce one.
        if judgment.infallible {
            prop_assert!(
                outcome.is_ok(),
                "verifier judged `{}` infallible but eval errored: {:?}",
                program,
                outcome
            );
        }

        // 4. A conservative judgment may only ever be *more* pessimistic
        //    than the typed one: typeless-infallible implies
        //    typed-infallible.
        if conservative.unwrap().infallible {
            prop_assert!(judgment.infallible);
        }

        // 5. The typed tier, when it exists, verifies too.
        if let Some(typed) = kernel.specialize(&slot_types) {
            let typed_judgment = verify_typed(&typed);
            prop_assert!(
                typed_judgment.is_ok(),
                "typed-kernel verification rejected `{}`: {:?}",
                program,
                typed_judgment
            );
            let typed_judgment = typed_judgment.unwrap();
            prop_assert!(typed_judgment.max_stack <= typed.max_stack());
            prop_assert_eq!(typed_judgment.local_count, typed.local_count());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// All-float slots: division cannot fail, so every kernel must be
    /// judged infallible and must evaluate without error.
    #[test]
    fn verified_kernels_evaluate_safely_f64(program in arb_program()) {
        check_agreement(&program, SlotMode::AllF64)?;
    }

    /// All-integer slots: division by zero is reachable; the judgment
    /// must stay sound while evaluation reports real errors as `Err`.
    #[test]
    fn verified_kernels_evaluate_safely_i64(program in arb_program()) {
        check_agreement(&program, SlotMode::AllI64)?;
    }

    /// Mixed integer/float slots stress the promotion rules the
    /// infallibility judgment mirrors.
    #[test]
    fn verified_kernels_evaluate_safely_mixed(program in arb_program()) {
        check_agreement(&program, SlotMode::Mixed)?;
    }
}
