//! A single stencil node of a stencil program.

use crate::boundary::BoundarySpec;
use crate::error::{ProgramError, Result};
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use stencilflow_expr::{
    count_ops, critical_path_latency, AccessExtractor, CompiledKernel, DataType, ExprError,
    FieldAccesses, LatencyTable, OpCount, Program,
};

/// One stencil operation in the program DAG.
///
/// A stencil node reads one or more input fields (each at one or more
/// constant offsets), evaluates its code segment at every point of the
/// iteration space, and produces exactly one output field named after the
/// node itself (§II).
#[derive(Debug, Clone, PartialEq)]
pub struct StencilNode {
    /// Name of the node; also the name of the field it produces.
    pub name: String,
    /// Original source text of the code segment.
    pub code: String,
    /// Parsed code segment, read-only, with the kernel compiled from it.
    pub program: ParsedCode,
    /// Access pattern extracted from the code segment.
    pub accesses: FieldAccesses,
    /// Boundary conditions for this node.
    pub boundary: BoundarySpec,
    /// Output element type.
    pub output_type: DataType,
}

/// A stencil's parsed code segment and, once [`StencilNode::kernel`] and
/// [`StencilNode::op_count`] asked for them, the kernel compiled from it
/// and its operation count.
///
/// The AST is read-only: this derefs to it, so `&node.program` still reads
/// as a `&Program`, and nothing hands out `&mut`. The kernel lives beside
/// it, so the kernel cannot go stale: replacing the code replaces its
/// kernel too. Equality and the `Debug` rendering are
/// the AST's alone, so the stored kernel moves no program fingerprint. A
/// clone shares the kernel.
#[derive(Clone)]
pub struct ParsedCode {
    ast: Program,
    kernel: OnceLock<std::result::Result<Arc<CompiledKernel>, ExprError>>,
    ops: OnceLock<OpCount>,
}

impl Deref for ParsedCode {
    type Target = Program;

    fn deref(&self) -> &Program {
        &self.ast
    }
}

impl PartialEq for ParsedCode {
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

impl fmt::Debug for ParsedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.ast, f)
    }
}

impl StencilNode {
    /// Parse a code segment and build a stencil node.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::Code`] if the code segment does not parse.
    pub fn parse(name: &str, code: &str) -> Result<Self> {
        Self::parse_owned(name.to_string(), code.to_string())
    }

    /// [`StencilNode::parse`], taking the name and code by value.
    pub(crate) fn parse_owned(name: String, code: String) -> Result<Self> {
        let program = match stencilflow_expr::parse_program(&code) {
            Ok(program) => program,
            Err(source) => {
                return Err(ProgramError::Code {
                    stencil: name,
                    source,
                })
            }
        };
        let accesses = AccessExtractor::extract(&program);
        Ok(StencilNode {
            name,
            code,
            program: ParsedCode {
                ast: program,
                kernel: OnceLock::new(),
                ops: OnceLock::new(),
            },
            accesses,
            boundary: BoundarySpec::default(),
            output_type: DataType::Float32,
        })
    }

    /// The code segment compiled to slot-resolved bytecode. It is compiled
    /// on the first call and kept, so later calls, and every program that
    /// shares this node, get the same kernel.
    ///
    /// # Errors
    ///
    /// Returns the compile error of a code segment that does not compile.
    pub fn kernel(&self) -> std::result::Result<&Arc<CompiledKernel>, ExprError> {
        let code = &self.program;
        let kernel = code
            .kernel
            .get_or_init(|| CompiledKernel::compile(&code.ast).map(Arc::new));
        kernel.as_ref().map_err(Clone::clone)
    }

    /// Names of the fields this stencil reads (inputs or other stencils).
    pub fn read_fields(&self) -> Vec<&str> {
        self.accesses.fields().collect()
    }

    /// Whether this stencil reads the given field.
    pub fn reads(&self, field: &str) -> bool {
        self.accesses.contains(field)
    }

    /// Operation counts for one evaluation of this stencil, counted on the
    /// first call and kept like the kernel.
    pub fn op_count(&self) -> OpCount {
        *self.program.ops.get_or_init(|| count_ops(&self.program))
    }

    /// Critical-path compute latency of this stencil in cycles.
    pub fn compute_latency(&self, table: &LatencyTable) -> u64 {
        critical_path_latency(&self.program, table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::boundary::BoundaryCondition;

    #[test]
    fn parse_extracts_accesses() {
        let node = StencilNode::parse("b3", "b1[i-1,j,k] + b1[i+1,j,k]").unwrap();
        assert_eq!(node.read_fields(), vec!["b1"]);
        assert!(node.reads("b1"));
        assert!(!node.reads("b2"));
        assert_eq!(node.op_count().additions, 1);
    }

    #[test]
    fn parse_error_carries_stencil_name() {
        let err = StencilNode::parse("broken", "a[i] +").unwrap_err();
        match err {
            ProgramError::Code { stencil, .. } => assert_eq!(stencil, "broken"),
            other => panic!("unexpected error: {other:?}"),
        }
    }

    #[test]
    fn boundary_defaults_and_assignment() {
        let mut node = StencilNode::parse("b0", "a0[i,j,k] + a1[i,j,k]").unwrap();
        assert_eq!(
            node.boundary.condition_for("a0"),
            BoundaryCondition::Constant(0.0)
        );
        node.boundary
            .per_field
            .insert("a0".to_string(), BoundaryCondition::Copy);
        assert_eq!(node.boundary.condition_for("a0"), BoundaryCondition::Copy);
    }

    #[test]
    fn compute_latency_is_positive_for_nontrivial_code() {
        let node = StencilNode::parse("s", "0.25 * (a[i-1] + a[i+1] + a[i] + b[i])").unwrap();
        assert!(node.compute_latency(&LatencyTable::stratix10_defaults()) > 0);
    }
}
