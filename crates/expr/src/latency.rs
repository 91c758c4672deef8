//! Per-operation latencies and critical-path analysis of stencil code.
//!
//! Paper §IV-B: "the AST formed by computation of a stencil operation forms
//! another DAG, whose critical path adds a delay between a sequence of inputs
//! entering and exiting the pipeline. Computing the critical path requires
//! latency information for each operation performed, which is both type and
//! architecture dependent. As a result, these latencies can be provided as
//! configuration to the framework, and default to conservative values."
//!
//! The default latencies below are conservative estimates for the hardened
//! floating-point DSP blocks of an Intel Stratix 10 at ~300 MHz, the platform
//! used in the paper's evaluation. They deliberately overestimate: the paper
//! notes such delays are "typically small (<100 cycles)" and negligible next
//! to internal-buffer initialization.

use crate::ast::{BinOp, Expr, MathFn, Program, UnOp};
use std::collections::BTreeMap;

/// Per-operation pipeline latencies, in cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyTable {
    /// Latency of a floating-point addition or subtraction.
    pub add: u64,
    /// Latency of a floating-point multiplication.
    pub mul: u64,
    /// Latency of a floating-point division.
    pub div: u64,
    /// Latency of a square root.
    pub sqrt: u64,
    /// Latency of exp/log/pow/trigonometric functions.
    pub transcendental: u64,
    /// Latency of min/max/abs/floor/ceil (comparison-style operations).
    pub select: u64,
    /// Latency of a comparison.
    pub compare: u64,
    /// Latency of a ternary multiplexer (data-dependent branch).
    pub mux: u64,
    /// Latency of logical and/or/not.
    pub logic: u64,
}

impl LatencyTable {
    /// Conservative defaults for the Stratix 10 HLS flow used in the paper.
    pub fn stratix10_defaults() -> Self {
        LatencyTable {
            add: 8,
            mul: 6,
            div: 28,
            sqrt: 28,
            transcendental: 40,
            select: 2,
            compare: 2,
            mux: 1,
            logic: 1,
        }
    }

    /// An aggressive single-cycle table, useful to isolate initialization
    /// latency from compute latency in tests and ablation studies.
    pub fn unit() -> Self {
        LatencyTable {
            add: 1,
            mul: 1,
            div: 1,
            sqrt: 1,
            transcendental: 1,
            select: 1,
            compare: 1,
            mux: 1,
            logic: 1,
        }
    }

    /// Latency of a binary operator.
    fn binop(&self, op: BinOp) -> u64 {
        match op {
            BinOp::Add | BinOp::Sub => self.add,
            BinOp::Mul => self.mul,
            BinOp::Div => self.div,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => self.compare,
            BinOp::And | BinOp::Or => self.logic,
        }
    }

    /// Latency of a unary operator.
    fn unop(&self, op: UnOp) -> u64 {
        match op {
            UnOp::Neg => self.select,
            UnOp::Not => self.logic,
        }
    }

    /// Latency of a math function.
    fn math_fn(&self, func: MathFn) -> u64 {
        match func {
            MathFn::Sqrt => self.sqrt,
            MathFn::Abs | MathFn::Min | MathFn::Max | MathFn::Floor | MathFn::Ceil => self.select,
            MathFn::Exp | MathFn::Log | MathFn::Pow | MathFn::Sin | MathFn::Cos | MathFn::Tan => {
                self.transcendental
            }
        }
    }
}

impl Default for LatencyTable {
    fn default() -> Self {
        LatencyTable::stratix10_defaults()
    }
}

/// Critical-path latency of an entire code segment.
///
/// Local variables introduce dependencies between statements: a statement's
/// critical path starts from the critical paths of the locals it reads. The
/// returned value is the latency of the final (output) statement, accounting
/// for chains through locals — i.e. the delay between a set of inputs
/// entering and the corresponding output exiting the stencil's compute
/// pipeline.
pub fn critical_path_latency(program: &Program, table: &LatencyTable) -> u64 {
    let mut local_latency: BTreeMap<&str, u64> = BTreeMap::new();
    let mut last = 0;
    for stmt in &program.statements {
        let latency = expr_latency_with_locals(&stmt.value, table, &local_latency);
        if let Some(name) = &stmt.name {
            local_latency.insert(name.as_str(), latency);
        }
        last = latency;
    }
    last
}

fn expr_latency_with_locals(
    expr: &Expr,
    table: &LatencyTable,
    locals: &BTreeMap<&str, u64>,
) -> u64 {
    match expr {
        Expr::Var(name) => locals.get(name.as_str()).copied().unwrap_or(0),
        Expr::IntLit(_) | Expr::FloatLit(_) | Expr::FieldAccess { .. } => 0,
        Expr::Unary { op, operand } => {
            table.unop(*op) + expr_latency_with_locals(operand, table, locals)
        }
        Expr::Binary { op, lhs, rhs } => {
            table.binop(*op)
                + expr_latency_with_locals(lhs, table, locals)
                    .max(expr_latency_with_locals(rhs, table, locals))
        }
        Expr::Ternary {
            cond,
            then,
            otherwise,
        } => {
            table.mux
                + expr_latency_with_locals(cond, table, locals)
                    .max(expr_latency_with_locals(then, table, locals))
                    .max(expr_latency_with_locals(otherwise, table, locals))
        }
        Expr::Call { func, args } => {
            table.math_fn(*func)
                + args
                    .iter()
                    .map(|a| expr_latency_with_locals(a, table, locals))
                    .max()
                    .unwrap_or(0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn leaf_latency_is_zero() {
        let t = LatencyTable::default();
        assert_eq!(
            critical_path_latency(&parse_program("a[i]").unwrap(), &t),
            0
        );
        assert_eq!(critical_path_latency(&parse_program("1.5").unwrap(), &t), 0);
    }

    #[test]
    fn chain_of_adds_accumulates() {
        let t = LatencyTable::unit();
        // ((a + b) + c) + d -> three dependent adds.
        let e = parse_program("a[i] + b[i] + c[i] + d[i]").unwrap();
        assert_eq!(critical_path_latency(&e, &t), 3);
    }

    #[test]
    fn balanced_tree_is_shorter_than_chain() {
        let t = LatencyTable::unit();
        let chain = parse_program("a[i] + b[i] + c[i] + d[i]").unwrap();
        let tree = parse_program("(a[i] + b[i]) + (c[i] + d[i])").unwrap();
        assert!(critical_path_latency(&tree, &t) < critical_path_latency(&chain, &t));
        assert_eq!(critical_path_latency(&tree, &t), 2);
    }

    #[test]
    fn default_table_values_are_conservative() {
        let t = LatencyTable::stratix10_defaults();
        assert!(t.div >= t.mul);
        assert!(t.sqrt >= t.mul);
        assert!(t.add > 0);
        // Paper: delays typically small, < 100 cycles for realistic stencils.
        let e = parse_program("0.5 * (a[i-1] + a[i+1]) - a[i] / 4.0").unwrap();
        assert!(critical_path_latency(&e, &t) < 100);
    }

    #[test]
    fn locals_chain_latency_across_statements() {
        let t = LatencyTable::unit();
        let prog = parse_program("x = a[i] + b[i]; y = x * c[i]; y + d[i]").unwrap();
        // add -> mul -> add chained through locals = 3.
        assert_eq!(critical_path_latency(&prog, &t), 3);
    }

    #[test]
    fn math_function_latencies() {
        let t = LatencyTable::stratix10_defaults();
        let e = parse_program("sqrt(a[i])").unwrap();
        assert_eq!(critical_path_latency(&e, &t), t.sqrt);
        let e = parse_program("min(a[i], b[i])").unwrap();
        assert_eq!(critical_path_latency(&e, &t), t.select);
    }

    #[test]
    fn kernel_critical_path_matches_select_semantics() {
        let t = LatencyTable::unit();
        // Compare (1) and arms (then: 1 add, else: 0) feed a mux (+1): the
        // ternary costs what the select it if-converts to costs.
        let program = parse_program("c[i] > 0.0 ? a[i] + b[i] : b[i]").unwrap();
        assert_eq!(critical_path_latency(&program, &t), 2);
    }

    #[test]
    fn ternary_uses_longest_branch() {
        let t = LatencyTable::unit();
        let e = parse_program("c[i] > 0.0 ? a[i] + b[i] + a[i] : b[i]").unwrap();
        // compare (1) vs then-branch (2 adds) vs else (0); mux adds 1.
        assert_eq!(critical_path_latency(&e, &t), 3);
    }
}
