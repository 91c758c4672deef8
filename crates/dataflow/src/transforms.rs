//! `StencilFusion` (§V-B, Fig. 10): the greedy search for fusable
//! producer/consumer pairs and the rewrite that merges a pair's code.

use std::collections::{BTreeSet, HashMap, HashSet};
use stencilflow_expr::ast::{Expr, Program, Stmt};
use stencilflow_program::{Result, StencilNode, StencilProgram};

/// Result of the aggressive fusion pass.
#[derive(Debug, Clone)]
pub struct FusionOutcome {
    /// The fused program.
    pub program: StencilProgram,
    /// `(producer, consumer)` pairs fused, in application order.
    pub fused: Vec<(String, String)>,
}

/// The single-pair form of the rewrite, with conditions 3 and 4 checked by
/// scanning the program: the reference [`fuse_all_with_report`]'s indexed
/// search is tested against.
#[cfg(test)]
fn try_fuse(
    program: &StencilProgram,
    producer: &str,
    consumer: &str,
) -> Result<Option<StencilProgram>> {
    let Some(prod) = program.stencil(producer) else {
        return Ok(None);
    };
    let Some(cons) = program.stencil(consumer) else {
        return Ok(None);
    };
    // Condition 4: producer must not be a program output.
    if program.outputs().iter().any(|o| o == producer) {
        return Ok(None);
    }
    // Condition 3: the producer's output is consumed only by `consumer`.
    let mut readers = program.stencils().filter(|s| s.reads(producer));
    if readers.next().map(|s| s.name.as_str()) != Some(consumer) || readers.next().is_some() {
        return Ok(None);
    }
    // Condition 2: identical boundary behaviour; condition 5: center-only
    // accesses to the producer.
    let center = (cons.accesses.get(producer)).is_some_and(|info| center_only(&info.offsets));
    if !prod.boundary.behaviour_eq(&cons.boundary) || !center {
        return Ok(None);
    }
    let mut fused = program.clone();
    fused.remove_stencil(producer);
    fused.insert_stencil(fused_node(prod, cons)?);
    fused.validate()?;
    Ok(Some(fused))
}

/// Condition 5 for one reader of a field: whether every access of it is at
/// offset zero in every dimension.
fn center_only(offsets: &BTreeSet<Vec<i64>>) -> bool {
    offsets.iter().all(|o| o.iter().all(|&x| x == 0))
}

/// The node that replaces `cons` once `prod`, which `cons` alone reads and
/// only at its center, under the same boundary behaviour, is fused into it.
fn fused_node(prod: &StencilNode, cons: &StencilNode) -> Result<StencilNode> {
    let producer = prod.name.as_str();
    // Build the fused code: producer statements (locals renamed), a binding
    // for the producer's output value, then the consumer statements with
    // center accesses to the producer replaced by that binding.
    let bound_name = format!("__fused_{producer}");
    let mut statements: Vec<Stmt> = Vec::new();
    let prefix = |name: &str| format!("__{producer}_{name}");
    for (idx, stmt) in prod.program.statements.iter().enumerate() {
        let value = rename_locals(&stmt.value, &prod.program, &prefix);
        let name = if idx + 1 == prod.program.statements.len() {
            Some(bound_name.clone())
        } else {
            stmt.name.as_ref().map(|n| prefix(n))
        };
        statements.push(Stmt { name, value });
    }
    for stmt in cons.program.statements.iter() {
        let replaced = replace_center_access(&stmt.value, producer, &bound_name);
        statements.push(Stmt {
            name: stmt.name.clone(),
            value: replaced,
        });
    }
    let fused_ast = Program { statements };
    let fused_code = fused_ast.to_string();

    let mut node = StencilNode::parse(&cons.name, &fused_code)?;
    // Merge boundary specifications (identical by condition 2, minus the now
    // internal producer field).
    let mut boundary = cons.boundary.clone();
    for (field, condition) in &prod.boundary.per_field {
        boundary
            .per_field
            .entry(field.clone())
            .or_insert(*condition);
    }
    boundary.per_field.remove(producer);
    node.boundary = boundary;
    node.output_type = cons.output_type;
    Ok(node)
}

fn rename_locals(expr: &Expr, program: &Program, prefix: &impl Fn(&str) -> String) -> Expr {
    let locals: std::collections::BTreeSet<&str> = program.local_names().into_iter().collect();
    map_expr(expr, &|e| match e {
        Expr::Var(name) if locals.contains(name.as_str()) => Some(Expr::Var(prefix(name))),
        _ => None,
    })
}

fn replace_center_access(expr: &Expr, field: &str, with_var: &str) -> Expr {
    map_expr(expr, &|e| match e {
        Expr::FieldAccess { field: f, indices }
            if f == field && indices.iter().all(|ix| ix.offset == 0) =>
        {
            Some(Expr::Var(with_var.to_string()))
        }
        _ => None,
    })
}

/// Structurally rewrite an expression bottom-up: `f` returns `Some` to
/// replace a node, `None` to keep it (children already rewritten).
fn map_expr(expr: &Expr, f: &impl Fn(&Expr) -> Option<Expr>) -> Expr {
    let rebuilt = match expr {
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::FieldAccess { .. } => {
            expr.clone()
        }
        Expr::Unary { op, operand } => Expr::Unary {
            op: *op,
            operand: Box::new(map_expr(operand, f)),
        },
        Expr::Binary { op, lhs, rhs } => Expr::Binary {
            op: *op,
            lhs: Box::new(map_expr(lhs, f)),
            rhs: Box::new(map_expr(rhs, f)),
        },
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => Expr::Ternary {
            cond: Box::new(map_expr(cond, f)),
            then: Box::new(map_expr(then, f)),
            otherwise: Box::new(map_expr(otherwise, f)),
        },
        Expr::Call { func, args } => Expr::Call {
            func: *func,
            args: args.iter().map(|a| map_expr(a, f)).collect(),
        },
    };
    f(&rebuilt).unwrap_or(rebuilt)
}

/// Apply stencil fusion greedily until no more pairs can be fused (the
/// "aggressive stencil fusion" the paper applies to its input programs).
///
/// # Errors
///
/// Propagates re-validation errors from the rewriting.
pub fn fuse_all(program: &StencilProgram) -> Result<StencilProgram> {
    Ok(fuse_all_with_report(program)?.program)
}

/// Like [`fuse_all`], additionally reporting which pairs were fused.
///
/// Each round indexes the readers of every field once, collects the producers
/// whose only reader may absorb them, and fuses the first of those in
/// dependency order. The order is taken afresh every round because
/// contracting a pair can reorder the stencils behind it; a round costs
/// O(stencils + accesses), and the program is validated once, after the last
/// fusion.
///
/// # Errors
///
/// Propagates re-validation errors from the rewriting.
pub fn fuse_all_with_report(program: &StencilProgram) -> Result<FusionOutcome> {
    let outputs: HashSet<&str> = program.outputs().iter().map(String::as_str).collect();
    let mut current = program.clone();
    let mut fused = Vec::new();
    loop {
        // Condition 3, for every field at once: how many stencils read it,
        // and one of them (the only one where the count is 1) with
        // condition 5 for it, read off the accesses while they are at hand.
        let mut readers: HashMap<&str, (usize, &StencilNode, bool)> =
            HashMap::with_capacity(current.stencil_count() + current.inputs().count());
        for stencil in current.stencils() {
            for (field, info) in stencil.accesses.iter() {
                (readers.entry(field))
                    .or_insert_with(|| (0, stencil, center_only(&info.offsets)))
                    .0 += 1;
            }
        }
        // Conditions 4 (the producer is no program output) and 2, only for
        // the fields that pass 3 and 5: a program with nothing to fuse
        // touches no stencil a second time.
        let fusable: HashMap<&str, &StencilNode> = (readers.iter())
            .filter(|&(&field, &(count, _, center))| {
                count == 1 && center && !outputs.contains(field)
            })
            .filter_map(|(&field, &(_, cons, _))| {
                let prod = current.stencil(field)?;
                (prod.boundary.behaviour_eq(&cons.boundary)).then_some((field, cons))
            })
            .collect();
        if fusable.is_empty() {
            break;
        }
        let order = current.topological_stencils()?;
        let (producer, cons) = order
            .iter()
            .find_map(|name| fusable.get(name.as_str()).map(|cons| (name.clone(), cons)))
            .expect("every fusable producer is a stencil of the order");
        let prod = current.stencil(&producer).expect("ordered stencils exist");
        let node = fused_node(prod, cons)?;
        current.remove_stencil(&producer);
        fused.push((producer, node.name.clone()));
        current.insert_stencil(node);
    }
    if !fused.is_empty() {
        current.validate()?;
    }
    Ok(FusionOutcome {
        program: current,
        fused,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::TestRng;
    use stencilflow_expr::DataType;
    use stencilflow_program::{to_json, BoundaryCondition, StencilProgramBuilder};
    use stencilflow_reference::{generate_inputs, ReferenceExecutor};

    fn chainable() -> StencilProgram {
        StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("double", "a[i,j] * 2.0")
            .stencil("plus1", "double[i,j] + 1.0")
            .output("plus1")
            .build()
            .unwrap()
    }

    #[test]
    fn fuses_center_only_chains() {
        let program = chainable();
        let fused = try_fuse(&program, "double", "plus1").unwrap().unwrap();
        assert_eq!(fused.stencil_count(), 1);
        let node = fused.stencil("plus1").unwrap();
        assert!(node.reads("a"));
        assert!(!node.reads("double"));
        // Semantics preserved.
        let inputs = generate_inputs(&program, 4);
        let before = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let after = ReferenceExecutor::new().run(&fused, &inputs).unwrap();
        assert!(before
            .field("plus1")
            .unwrap()
            .approx_eq(after.field("plus1").unwrap(), 1e-6));
    }

    #[test]
    fn refuses_fusion_when_producer_has_multiple_consumers() {
        let program = StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("shared", "a[i,j] * 2.0")
            .stencil("c1", "shared[i,j] + 1.0")
            .stencil("c2", "shared[i,j] - 1.0")
            .stencil("out", "c1[i,j] + c2[i,j]")
            .output("out")
            .build()
            .unwrap();
        assert!(try_fuse(&program, "shared", "c1").unwrap().is_none());
    }

    #[test]
    fn refuses_fusion_across_offsets_or_outputs_or_boundaries() {
        // Offset access.
        let offset = StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j] * 2.0")
            .stencil("c", "b[i-1,j] + b[i+1,j]")
            .output("c")
            .build()
            .unwrap();
        assert!(try_fuse(&offset, "b", "c").unwrap().is_none());
        // Producer is a program output.
        let output = StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j] * 2.0")
            .stencil("c", "b[i,j] + 1.0")
            .output("b")
            .output("c")
            .build()
            .unwrap();
        assert!(try_fuse(&output, "b", "c").unwrap().is_none());
        // Mismatched boundary behaviour.
        let boundary = StencilProgramBuilder::new("p", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i-1,j] + a[i+1,j]")
            .boundary("b", "a", BoundaryCondition::Copy)
            .stencil("c", "b[i,j] + 1.0")
            .output("c")
            .build()
            .unwrap();
        assert!(try_fuse(&boundary, "b", "c").unwrap().is_none());
    }

    #[test]
    fn fuse_all_reports_pairs_and_reduces_latency_proxy() {
        let program = chainable();
        let outcome = fuse_all_with_report(&program).unwrap();
        assert_eq!(outcome.fused.len(), 1);
        assert_eq!(outcome.program.stencil_count(), 1);
    }

    /// The search `fuse_all_with_report` replaced, kept as its oracle: try
    /// every (producer, consumer) pair of the topological order through
    /// `try_fuse`, apply the first that fuses, start over.
    fn pair_scan_fuse_all(program: &StencilProgram) -> FusionOutcome {
        let mut current = program.clone();
        let mut fused = Vec::new();
        'rounds: loop {
            let order = current.topological_stencils().unwrap().to_vec();
            for producer in &order {
                for consumer in &order {
                    let reads = current.stencil(consumer).unwrap().reads(producer);
                    if producer == consumer || !reads {
                        continue;
                    }
                    if let Some(next) = try_fuse(&current, producer, consumer).unwrap() {
                        fused.push((producer.clone(), consumer.clone()));
                        current = next;
                        continue 'rounds;
                    }
                }
            }
            return FusionOutcome {
                program: current,
                fused,
            };
        }
    }

    /// Same pairs in the same order, and the same bytes out.
    fn assert_matches_pair_scan(program: &StencilProgram) -> usize {
        let expected = pair_scan_fuse_all(program);
        let outcome = fuse_all_with_report(program).unwrap();
        assert_eq!(outcome.fused, expected.fused, "{}", program.name());
        assert_eq!(
            to_json(&outcome.program),
            to_json(&expected.program),
            "{}",
            program.name()
        );
        outcome.fused.len()
    }

    #[test]
    fn matches_the_pair_scan_on_the_named_workloads() {
        use stencilflow_workloads as wl;
        let fused = |program: &StencilProgram| assert_matches_pair_scan(program);
        assert_eq!(fused(&chainable()), 1);
        assert_eq!(fused(&wl::listing1()), 2);
        assert_eq!(fused(&wl::diffusion2d(2, &[16, 16], 1)), 0);
        assert_eq!(fused(&wl::diffusion3d(2, &[8, 8, 8], 1)), 0);
        for spec in [
            wl::HorizontalDiffusionSpec::bench(),
            wl::HorizontalDiffusionSpec::production(1),
        ] {
            assert_eq!(fused(&wl::horizontal_diffusion(&spec)), 4);
        }
        for stages in [1, 2, 17, 64] {
            let spec = wl::ChainSpec::new(stages, 8).with_shape(&[16, 8, 8]);
            assert_eq!(fused(&wl::chain_program(&spec)), 0);
        }
    }

    /// Contracting (p, c) lets `c` overtake `u` in the next round's
    /// dependency order, so the sequence is (p, c), (c, out), (u, out) and
    /// not the (p, c), (u, out), (c, out) of one walk over the first order —
    /// and `out`'s statements come out in a different order.
    #[test]
    fn each_round_takes_the_dependency_order_afresh() {
        let program = StencilProgramBuilder::new("overtake", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("p", "a[i,j] * 2.0")
            .stencil("c", "p[i,j] + 1.0")
            .stencil("u", "a[i,j] - 3.0")
            .stencil("out", "c[i,j] * u[i,j]")
            .output("out")
            .build()
            .unwrap();
        assert_eq!(assert_matches_pair_scan(&program), 3);
        let pairs = fuse_all_with_report(&program).unwrap().fused;
        let names: Vec<&str> = pairs.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(names, ["p", "c", "u"]);
    }

    /// `shared` has two center-only readers, `mid` and `join`; fusing `mid`
    /// into `join` leaves it one, and only then may it fuse.
    #[test]
    fn a_fusion_can_make_a_shared_producer_fusable() {
        let program = StencilProgramBuilder::new("fan_in", &[8, 8])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("shared", "a[i-1,j] + a[i+1,j]")
            .stencil("mid", "t = shared[i,j] * 0.5; t + 1.0")
            .stencil("join", "mid[i,j] - shared[i,j]")
            .output("join")
            .build()
            .unwrap();
        assert!(try_fuse(&program, "shared", "join").unwrap().is_none());
        assert_eq!(assert_matches_pair_scan(&program), 2);
        let outcome = fuse_all_with_report(&program).unwrap();
        let expected = [("mid", "join"), ("shared", "join")].map(|(p, c)| (p.into(), c.into()));
        assert_eq!(outcome.fused, expected);
        let inputs = generate_inputs(&program, 7);
        let before = ReferenceExecutor::new().run(&program, &inputs).unwrap();
        let after = ReferenceExecutor::new()
            .run(&outcome.program, &inputs)
            .unwrap();
        assert!(before
            .field("join")
            .unwrap()
            .approx_eq(after.field("join").unwrap(), 1e-6));
    }

    /// A seeded random DAG: stencil names shuffled against dependency order,
    /// one to three reads each (center-only more often than not, so fusable
    /// chains and center-only fan-in both occur), a `copy` boundary on some
    /// reads of `a0`, multi-statement bodies, and extra outputs.
    fn random_dag(rng: &mut TestRng) -> StencilProgram {
        let stencils = 3 + rng.below(10) as usize;
        let mut names: Vec<String> = (0..stencils).map(|n| format!("s{n}")).collect();
        for last in (1..stencils).rev() {
            names.swap(last, rng.below(last as u64 + 1) as usize);
        }
        let mut fields = vec!["a0".to_string(), "a1".to_string()];
        let mut builder = StencilProgramBuilder::new("random", &[8, 8])
            .input("a0", DataType::Float32, &["i", "j"])
            .input("a1", DataType::Float32, &["i", "j"]);
        for (position, name) in names.iter().enumerate() {
            let mut reads: Vec<String> = Vec::new();
            for _ in 0..1 + rng.below(3) {
                // Lean towards the most recent fields, so chains form.
                let back = rng.below(fields.len().min(4) as u64) as usize;
                let field = fields[fields.len() - 1 - back].clone();
                if !reads.contains(&field) {
                    reads.push(field);
                }
            }
            let terms: Vec<String> = reads
                .iter()
                .map(|field| match rng.below(5) {
                    0 => format!("({field}[i-1,j] + {field}[i+1,j])"),
                    1 => format!("{field}[i,j+1]"),
                    _ => format!("{field}[i,j]"),
                })
                .collect();
            let sum = terms.join(" + ");
            let code = match rng.below(3) {
                0 => format!("t = {sum}; w = t * 0.5; w + t"),
                1 => format!("t = {sum}; t * 1.5"),
                _ => sum,
            };
            builder = builder.stencil(name, &code);
            if reads.iter().any(|f| f == "a0") && rng.below(3) == 0 {
                builder = builder.boundary(name, "a0", BoundaryCondition::Copy);
            }
            if position + 1 == stencils || rng.below(6) == 0 {
                builder = builder.output(name);
            }
            fields.push(name.clone());
        }
        builder.build().expect("generated programs are valid")
    }

    #[test]
    fn matches_the_pair_scan_on_random_dags() {
        let (mut fusions, mut multi_round) = (0, 0);
        for case in 0..300 {
            let mut rng = TestRng::for_case("fuse_all_matches_pair_scan", case);
            let fused = assert_matches_pair_scan(&random_dag(&mut rng));
            fusions += fused;
            multi_round += usize::from(fused >= 2);
        }
        // The generator must keep exercising the rewrite, not just the search.
        assert!(fusions > 200 && multi_round > 50, "{fusions} {multi_round}");
    }
}
