//! Property-based tests for the expression language: pretty-printer/parser
//! round trips, folding soundness, and evaluator consistency.

use proptest::prelude::*;
use std::collections::BTreeMap;
use stencilflow_expr::ast::{BinOp, Expr, Index, MathFn, Program, Stmt, UnOp};
use stencilflow_expr::{
    count_ops, critical_path_latency, fold_program, parse_program, AccessExtractor, Evaluator,
    LatencyTable, MapResolver, Value,
};

/// Strategy producing random (but well-formed) expressions over a small set
/// of fields and offsets.
fn arb_expr(depth: u32) -> BoxedStrategy<Expr> {
    // Literal leaves are non-negative: negative constants are represented as
    // `Unary(Neg, lit)` by the parser, so a negative literal in the generated
    // AST would not survive a print/parse round trip even though it is
    // semantically identical.
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
    leaf.prop_recursive(depth, 64, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(a, b, op)| {
                let op = match op % 6 {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    2 => BinOp::Mul,
                    3 => BinOp::Div,
                    4 => BinOp::Lt,
                    _ => BinOp::Ge,
                };
                Expr::binary(op, a, b)
            }),
            inner.clone().prop_map(|a| Expr::unary(UnOp::Neg, a)),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, e)| Expr::ternary(c, t, e)),
            (inner.clone(), inner.clone(), any::<bool>()).prop_map(|(a, b, is_min)| Expr::Call {
                func: if is_min { MathFn::Min } else { MathFn::Max },
                args: vec![a, b],
            }),
            inner.clone().prop_map(|a| Expr::Call {
                func: MathFn::Abs,
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

fn resolver_for(program: &Program) -> MapResolver {
    let mut resolver = MapResolver::new();
    let accesses = AccessExtractor::extract(program);
    for (field, info) in accesses.iter() {
        if info.is_scalar() {
            resolver.insert_scalar(field, Value::F64(1.25));
        }
        for offsets in &info.offsets {
            // Deterministic pseudo-values derived from the offsets.
            let v = offsets
                .iter()
                .enumerate()
                .map(|(d, o)| (*o as f64) * (d as f64 + 1.0) * 0.5)
                .sum::<f64>()
                + field.len() as f64;
            resolver.insert_access(field, offsets, Value::F64(v));
        }
    }
    resolver
}

/// Whether `a` and `b` are the same value: the same type and the same bits
/// (a NaN equals a NaN of the same payload).
fn same_bits(a: Value, b: Value) -> bool {
    match (a, b) {
        (Value::F32(a), Value::F32(b)) => a.to_bits() == b.to_bits(),
        (Value::F64(a), Value::F64(b)) => a.to_bits() == b.to_bits(),
        (a, b) => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Pretty-printing a program and re-parsing it yields the same AST.
    #[test]
    fn print_parse_round_trip(program in arb_program()) {
        let printed = program.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(program, reparsed);
    }

    /// Constant folding never changes the value a program evaluates to:
    /// not its type, not one bit.
    #[test]
    fn folding_preserves_semantics(program in arb_program()) {
        let resolver = resolver_for(&program);
        let original = Evaluator::new(&resolver).eval_program(&program);
        let folded = fold_program(&program);
        let after = Evaluator::new(&resolver).eval_program(&folded);
        match (original, after) {
            (Ok(a), Ok(b)) => prop_assert!(same_bits(a, b),
                "folding changed value: {a:?} vs {b:?}"),
            (Err(_), Err(_)) => {}
            // Folding may turn an erroring program (integer div by zero on a
            // dead branch) into a succeeding one, but never the reverse.
            (Err(_), Ok(_)) => {}
            (Ok(a), Err(e)) => prop_assert!(false,
                "folding introduced an error: value was {a:?}, error {e}"),
        }
    }

    /// Folding never increases the operation count or the critical path.
    #[test]
    fn folding_never_increases_cost(program in arb_program()) {
        let folded = fold_program(&program);
        let table = LatencyTable::stratix10_defaults();
        prop_assert!(count_ops(&folded).total_logic_ops() <= count_ops(&program).total_logic_ops());
        prop_assert!(critical_path_latency(&folded, &table)
            <= critical_path_latency(&program, &table));
    }

    /// The critical path never exceeds the per-op latency sum (a loose but
    /// structural upper bound), and is zero only for leaf-only programs.
    #[test]
    fn critical_path_bounds(program in arb_program()) {
        let table = LatencyTable::unit();
        let latency = critical_path_latency(&program, &table);
        let ops = count_ops(&program);
        prop_assert!(latency <= ops.total_logic_ops());
    }

    /// Evaluation is deterministic.
    #[test]
    fn evaluation_is_deterministic(program in arb_program()) {
        let resolver = resolver_for(&program);
        let a = Evaluator::new(&resolver).eval_program(&program);
        let b = Evaluator::new(&resolver).eval_program(&program);
        prop_assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}

#[test]
fn evaluator_matches_hand_computation() {
    let program = parse_program("x = a[i, j] * 2.0; x + b[i-1, j]").unwrap();
    let mut resolver = MapResolver::new();
    resolver.insert_access("a", &[0, 0], Value::F64(3.0));
    resolver.insert_access("b", &[-1, 0], Value::F64(0.5));
    let locals: BTreeMap<&str, Value> = BTreeMap::new();
    let _ = locals; // silence unused in case of refactors
    let value = Evaluator::new(&resolver).eval_program(&program).unwrap();
    assert_eq!(value.as_f64(), 6.5);
}
