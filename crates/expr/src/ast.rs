//! Abstract syntax tree of the stencil code-segment language.

use std::fmt;

/// A parsed code segment: a sequence of assignment statements where the last
/// statement defines the stencil output.
///
/// Single-expression programs (e.g. `"a[i,j,k] + b[i,j,k]"`, the common case
/// in the paper's Lst. 1) are represented as a program with one anonymous
/// output statement.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Statements in execution order. The final statement's expression is the
    /// output of the stencil.
    pub statements: Vec<Stmt>,
}

impl Program {
    /// Names of all local variables assigned before the output statement.
    pub fn local_names(&self) -> Vec<&str> {
        self.statements
            .iter()
            .filter_map(|s| s.name.as_deref())
            .collect()
    }

    /// Visit every expression (statement right-hand sides), in order.
    pub(crate) fn exprs(&self) -> impl Iterator<Item = &Expr> {
        self.statements.iter().map(|s| &s.value)
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (idx, stmt) in self.statements.iter().enumerate() {
            if idx > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{stmt}")?;
        }
        Ok(())
    }
}

/// A single statement: an optional local-variable binding and an expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// Name the value is bound to, or `None` for an anonymous (output)
    /// expression statement.
    pub name: Option<String>,
    /// Right-hand side.
    pub value: Expr,
}

impl fmt::Display for Stmt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(f, "{name} = {}", self.value),
            None => write!(f, "{}", self.value),
        }
    }
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&`
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// Whether the operator produces a boolean result.
    fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge | BinOp::Eq | BinOp::Ne
        )
    }

    /// Source-level symbol of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Lt => "<",
            BinOp::Gt => ">",
            BinOp::Le => "<=",
            BinOp::Ge => ">=",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation, `-x`.
    Neg,
    /// Logical negation, `!x`.
    Not,
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnOp::Neg => f.write_str("-"),
            UnOp::Not => f.write_str("!"),
        }
    }
}

/// Built-in math functions permitted by the restricted language (§II:
/// "standard math functions" are the only external functions allowed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MathFn {
    /// Square root.
    Sqrt,
    /// Absolute value.
    Abs,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
    /// Natural exponential.
    Exp,
    /// Natural logarithm.
    Log,
    /// Power, `pow(base, exponent)`.
    Pow,
    /// Sine.
    Sin,
    /// Cosine.
    Cos,
    /// Tangent.
    Tan,
    /// Round towards negative infinity.
    Floor,
    /// Round towards positive infinity.
    Ceil,
}

impl MathFn {
    /// Number of arguments the function takes.
    pub(crate) fn arity(self) -> usize {
        match self {
            MathFn::Min | MathFn::Max | MathFn::Pow => 2,
            _ => 1,
        }
    }

    /// Look up a function by its source-level name.
    pub(crate) fn from_name(name: &str) -> Option<MathFn> {
        Some(match name {
            "sqrt" | "sqrtf" => MathFn::Sqrt,
            "abs" | "fabs" | "fabsf" => MathFn::Abs,
            "min" | "fmin" | "fminf" => MathFn::Min,
            "max" | "fmax" | "fmaxf" => MathFn::Max,
            "exp" | "expf" => MathFn::Exp,
            "log" | "logf" => MathFn::Log,
            "pow" | "powf" => MathFn::Pow,
            "sin" | "sinf" => MathFn::Sin,
            "cos" | "cosf" => MathFn::Cos,
            "tan" | "tanf" => MathFn::Tan,
            "floor" | "floorf" => MathFn::Floor,
            "ceil" | "ceilf" => MathFn::Ceil,
            _ => return None,
        })
    }

    /// Canonical source-level name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            MathFn::Sqrt => "sqrt",
            MathFn::Abs => "abs",
            MathFn::Min => "min",
            MathFn::Max => "max",
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
}

impl fmt::Display for MathFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single index expression inside a field access: an iteration variable
/// plus a constant offset (e.g. `i-1` has variable `i` and offset `-1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Index {
    /// Iteration-space variable name (`i`, `j`, `k`, ...).
    pub var: String,
    /// Constant offset relative to the center.
    pub offset: i64,
}

impl fmt::Display for Index {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset.cmp(&0) {
            std::cmp::Ordering::Equal => write!(f, "{}", self.var),
            std::cmp::Ordering::Greater => write!(f, "{}+{}", self.var, self.offset),
            std::cmp::Ordering::Less => write!(f, "{}{}", self.var, self.offset),
        }
    }
}

/// Expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    IntLit(i64),
    /// Floating-point literal.
    FloatLit(f64),
    /// Reference to a local variable defined by an earlier statement, or a
    /// scalar ("0D") input field / named constant.
    Var(String),
    /// Access into an input field at constant offsets, e.g. `u[i-1, j, k]`.
    /// Lower-dimensional fields list only the iteration variables they use
    /// (e.g. `a2[i, k]` inside a 3D iteration space).
    FieldAccess {
        /// Field name.
        field: String,
        /// One index expression per field dimension.
        indices: Vec<Index>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        operand: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// Ternary conditional `cond ? then : otherwise` (data-dependent branches
    /// are explicitly allowed by the paper).
    Ternary {
        /// Condition.
        cond: Box<Expr>,
        /// Value if the condition is true.
        then: Box<Expr>,
        /// Value if the condition is false.
        otherwise: Box<Expr>,
    },
    /// Call to one of the built-in math functions.
    Call {
        /// The function being called.
        func: MathFn,
        /// Argument expressions.
        args: Vec<Expr>,
    },
}

impl Expr {
    /// Construct a binary expression.
    pub fn binary(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// Construct a unary expression.
    pub fn unary(op: UnOp, operand: Expr) -> Expr {
        Expr::Unary {
            op,
            operand: Box::new(operand),
        }
    }

    /// Construct a ternary conditional.
    pub fn ternary(cond: Expr, then: Expr, otherwise: Expr) -> Expr {
        Expr::Ternary {
            cond: Box::new(cond),
            then: Box::new(then),
            otherwise: Box::new(otherwise),
        }
    }

    /// Recursively visit this expression and all sub-expressions (pre-order).
    pub(crate) fn visit<'a>(&'a self, visitor: &mut impl FnMut(&'a Expr)) {
        visitor(self);
        match self {
            Expr::IntLit(_) | Expr::FloatLit(_) | Expr::Var(_) | Expr::FieldAccess { .. } => {}
            Expr::Unary { operand, .. } => operand.visit(visitor),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.visit(visitor);
                rhs.visit(visitor);
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                cond.visit(visitor);
                then.visit(visitor);
                otherwise.visit(visitor);
            }
            Expr::Call { args, .. } => {
                for a in args {
                    a.visit(visitor);
                }
            }
        }
    }

    fn precedence(&self) -> u8 {
        match self {
            Expr::Ternary { .. } => 1,
            Expr::Binary { op, .. } => match op {
                BinOp::Or => 2,
                BinOp::And => 3,
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Gt | BinOp::Le | BinOp::Ge => 4,
                BinOp::Add | BinOp::Sub => 5,
                BinOp::Mul | BinOp::Div => 6,
            },
            Expr::Unary { .. } => 7,
            _ => 8,
        }
    }

    fn fmt_with_parens(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        let prec = self.precedence();
        if prec < parent_prec {
            write!(f, "(")?;
            self.fmt_inner(f)?;
            write!(f, ")")
        } else {
            self.fmt_inner(f)
        }
    }

    fn fmt_inner(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::IntLit(v) => write!(f, "{v}"),
            Expr::FloatLit(v) => {
                if v.fract() == 0.0 && v.abs() < 1e16 {
                    write!(f, "{v:.1}")
                } else {
                    write!(f, "{v}")
                }
            }
            Expr::Var(name) => write!(f, "{name}"),
            Expr::FieldAccess { field, indices } => {
                write!(f, "{field}[")?;
                for (idx, index) in indices.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{index}")?;
                }
                write!(f, "]")
            }
            Expr::Unary { op, operand } => {
                write!(f, "{op}")?;
                operand.fmt_with_parens(f, self.precedence() + 1)
            }
            Expr::Binary { op, lhs, rhs } => {
                let prec = self.precedence();
                // Comparisons do not chain in the grammar (`a < b < c` is a
                // parse error), so a comparison on the left needs its
                // parentheses; the arithmetic and logic levels are
                // left-associative and do not.
                lhs.fmt_with_parens(f, prec + u8::from(op.is_comparison()))?;
                write!(f, " {op} ")?;
                // Right operand needs strictly higher precedence to avoid
                // reassociation of subtraction/division on re-parse.
                rhs.fmt_with_parens(f, prec + 1)
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                let prec = self.precedence();
                cond.fmt_with_parens(f, prec + 1)?;
                write!(f, " ? ")?;
                then.fmt_with_parens(f, prec + 1)?;
                write!(f, " : ")?;
                otherwise.fmt_with_parens(f, prec)
            }
            Expr::Call { func, args } => {
                write!(f, "{func}(")?;
                for (idx, arg) in args.iter().enumerate() {
                    if idx > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{arg}")?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_with_parens(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(field: &str, vars: &[(&str, i64)]) -> Expr {
        Expr::FieldAccess {
            field: field.into(),
            indices: vars
                .iter()
                .map(|(v, o)| Index {
                    var: (*v).into(),
                    offset: *o,
                })
                .collect(),
        }
    }

    #[test]
    fn display_field_access() {
        let e = access("u", &[("i", -1), ("j", 0), ("k", 2)]);
        assert_eq!(e.to_string(), "u[i-1, j, k+2]");
    }

    #[test]
    fn display_respects_precedence() {
        // (a + b) * c must keep its parentheses.
        let e = Expr::binary(
            BinOp::Mul,
            Expr::binary(BinOp::Add, Expr::Var("a".into()), Expr::Var("b".into())),
            Expr::Var("c".into()),
        );
        assert_eq!(e.to_string(), "(a + b) * c");

        // a + b * c must not add parentheses.
        let e = Expr::binary(
            BinOp::Add,
            Expr::Var("a".into()),
            Expr::binary(BinOp::Mul, Expr::Var("b".into()), Expr::Var("c".into())),
        );
        assert_eq!(e.to_string(), "a + b * c");
    }

    #[test]
    fn display_subtraction_is_not_reassociated() {
        // a - (b - c) needs parentheses to survive a round-trip.
        let e = Expr::binary(
            BinOp::Sub,
            Expr::Var("a".into()),
            Expr::binary(BinOp::Sub, Expr::Var("b".into()), Expr::Var("c".into())),
        );
        assert_eq!(e.to_string(), "a - (b - c)");
    }

    #[test]
    fn mathfn_lookup() {
        assert_eq!(MathFn::from_name("sqrt"), Some(MathFn::Sqrt));
        assert_eq!(MathFn::from_name("fmaxf"), Some(MathFn::Max));
        assert_eq!(MathFn::from_name("bogus"), None);
        assert_eq!(MathFn::Min.arity(), 2);
        assert_eq!(MathFn::Sqrt.arity(), 1);
    }

    #[test]
    fn program_output_expr_is_last() {
        let prog = Program {
            statements: vec![
                Stmt {
                    name: Some("t".into()),
                    value: Expr::IntLit(1),
                },
                Stmt {
                    name: None,
                    value: Expr::Var("t".into()),
                },
            ],
        };
        assert_eq!(prog.statements[1].value, Expr::Var("t".into()));
        assert_eq!(prog.local_names(), vec!["t"]);
    }
}
