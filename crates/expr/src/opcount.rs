//! Floating-point operation counting.
//!
//! The paper's §IX-A analysis of the horizontal diffusion program counts
//! "87 additions, 41 multiplications, and 2 square roots, in addition to 2
//! minimum and 2 maximum operations, and ternary operations resulting in 20
//! data-dependent branches". These counts feed the arithmetic-intensity and
//! roofline analysis (Eq. 2–4) and the Op/s throughput numbers of every
//! benchmark, so the whole evaluation depends on a consistent way of counting
//! operations. This module provides it.

use crate::ast::{BinOp, Expr, MathFn, Program, UnOp};
use std::iter::Sum;
use std::ops::{Add, AddAssign};

/// Operation counts for one stencil evaluation at a single point of the
/// iteration space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpCount {
    /// Additions and subtractions.
    pub additions: u64,
    /// Multiplications.
    pub multiplications: u64,
    /// Divisions.
    pub divisions: u64,
    /// Square roots.
    pub square_roots: u64,
    /// Minimum operations.
    pub minimums: u64,
    /// Maximum operations.
    pub maximums: u64,
    /// Other math functions (abs, exp, log, pow, trig, floor, ceil).
    pub other_math: u64,
    /// Comparisons.
    pub comparisons: u64,
    /// Ternary selections (data-dependent branches).
    pub branches: u64,
    /// Logical operations and negations.
    pub logical: u64,
}

impl OpCount {
    /// Total floating-point operations, using the paper's counting
    /// convention: additions + multiplications + divisions + square roots
    /// (each counted as one operation), as used for the "Op/s" throughput
    /// metric and the arithmetic-intensity analysis.
    pub fn flops(&self) -> u64 {
        self.additions + self.multiplications + self.divisions + self.square_roots
    }

    /// Total operations including selections, comparisons, and other math —
    /// a proxy for how much compute *logic* the stencil instantiates.
    pub fn total_logic_ops(&self) -> u64 {
        self.flops()
            + self.minimums
            + self.maximums
            + self.other_math
            + self.comparisons
            + self.branches
            + self.logical
    }
}

impl Add for OpCount {
    type Output = OpCount;

    fn add(self, rhs: OpCount) -> OpCount {
        OpCount {
            additions: self.additions + rhs.additions,
            multiplications: self.multiplications + rhs.multiplications,
            divisions: self.divisions + rhs.divisions,
            square_roots: self.square_roots + rhs.square_roots,
            minimums: self.minimums + rhs.minimums,
            maximums: self.maximums + rhs.maximums,
            other_math: self.other_math + rhs.other_math,
            comparisons: self.comparisons + rhs.comparisons,
            branches: self.branches + rhs.branches,
            logical: self.logical + rhs.logical,
        }
    }
}

impl AddAssign for OpCount {
    fn add_assign(&mut self, rhs: OpCount) {
        *self = *self + rhs;
    }
}

impl Sum for OpCount {
    fn sum<I: Iterator<Item = OpCount>>(iter: I) -> OpCount {
        iter.fold(OpCount::default(), |acc, x| acc + x)
    }
}

/// Count the operations performed by one evaluation of a code segment.
///
/// Both branches of a ternary are counted (the hardware instantiates both and
/// multiplexes the result), matching how HLS maps data-dependent branches to
/// logic and how the paper counts them.
///
/// # Example
///
/// ```
/// # use stencilflow_expr::{parse_program, count_ops};
/// let prog = parse_program("0.5 * (a[i-1] + a[i+1]) - a[i]").unwrap();
/// let ops = count_ops(&prog);
/// assert_eq!(ops.additions, 2); // one add, one subtract
/// assert_eq!(ops.multiplications, 1);
/// ```
pub fn count_ops(program: &Program) -> OpCount {
    let mut count = OpCount::default();
    for expr in program.exprs() {
        count += count_expr(expr);
    }
    count
}

/// Count the operations of a single expression.
fn count_expr(expr: &Expr) -> OpCount {
    let mut count = OpCount::default();
    expr.visit(&mut |node| match node {
        Expr::Binary { op, .. } => match op {
            BinOp::Add | BinOp::Sub => count.additions += 1,
            BinOp::Mul => count.multiplications += 1,
            BinOp::Div => count.divisions += 1,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne => {
                count.comparisons += 1
            }
            BinOp::And | BinOp::Or => count.logical += 1,
        },
        Expr::Unary { op, .. } => match op {
            // Negation is folded into the consuming operation by the FP units;
            // counted as logic rather than an addition.
            UnOp::Neg => count.logical += 1,
            UnOp::Not => count.logical += 1,
        },
        Expr::Ternary { .. } => count.branches += 1,
        Expr::Call { func, .. } => match func {
            MathFn::Sqrt => count.square_roots += 1,
            MathFn::Min => count.minimums += 1,
            MathFn::Max => count.maximums += 1,
            _ => count.other_math += 1,
        },
        _ => {}
    });
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn counts_basic_arithmetic() {
        let ops = count_ops(&parse_program("a[i]*b[i] + c[i]/d[i] - e[i]").unwrap());
        assert_eq!(ops.additions, 2);
        assert_eq!(ops.multiplications, 1);
        assert_eq!(ops.divisions, 1);
        assert_eq!(ops.flops(), 4);
    }

    #[test]
    fn counts_functions_and_branches() {
        let ops = count_ops(
            &parse_program("x = sqrt(a[i]); y = min(x, b[i]); y > 0.0 ? max(y, c[i]) : 0.0")
                .unwrap(),
        );
        assert_eq!(ops.square_roots, 1);
        assert_eq!(ops.minimums, 1);
        assert_eq!(ops.maximums, 1);
        assert_eq!(ops.branches, 1);
        assert_eq!(ops.comparisons, 1);
    }

    #[test]
    fn paper_counting_convention_for_flops() {
        // Square root counts as one operation (§IX-A).
        let ops = count_ops(&parse_program("sqrt(a[i]) + b[i]").unwrap());
        assert_eq!(ops.flops(), 2);
    }

    #[test]
    fn jacobi_3d_has_expected_op_count() {
        // 7-point Jacobi: 6 adds + 1 mul ~ 7-8 ops as used in Fig. 14
        // ("8 Op/Stencil" includes the scaling multiply and one extra add in
        // the paper's kernel; our canonical kernel counts 7).
        let code = "0.125 * (a[i,j,k] + a[i-1,j,k] + a[i+1,j,k] + a[i,j-1,k] + a[i,j+1,k] \
                    + a[i,j,k-1] + a[i,j,k+1])";
        let ops = count_ops(&parse_program(code).unwrap());
        assert_eq!(ops.additions, 6);
        assert_eq!(ops.multiplications, 1);
        assert_eq!(ops.flops(), 7);
    }

    #[test]
    fn opcount_addition_and_scaling() {
        let a = count_ops(&parse_program("a[i] + b[i]").unwrap());
        let b = count_ops(&parse_program("a[i] * b[i]").unwrap());
        let sum = a + b;
        assert_eq!(sum.additions, 1);
        assert_eq!(sum.multiplications, 1);
        assert_eq!(sum.flops(), 2);

        let total: OpCount = vec![a, b, a].into_iter().sum();
        assert_eq!(total.additions, 2);
    }
}
