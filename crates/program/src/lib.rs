//! Stencil program description for StencilFlow.
//!
//! This crate implements §II of the paper ("Definition of a Stencil
//! Program"): a *stencil program* is a directed acyclic graph of stencil
//! operations on a structured grid, where each node is either a stencil
//! operation performed on the full output domain or a memory container, and
//! edges are dependencies between stencils and memories.
//!
//! A stencil node is defined by:
//!
//! * a definition of each logical input that is read ("fields"), with a
//!   corresponding data type and a sequence of offsets relative to the
//!   center ("field accesses");
//! * a code segment describing the computation at each point of the
//!   iteration space (see `stencilflow-expr`);
//! * a series of boundary conditions defining how out-of-bounds accesses are
//!   handled ([`BoundaryCondition`]: `constant`, `copy`, or `shrink`).
//!
//! Programs can have 1, 2 or 3 dimensions; all stencils iterate over the same
//! iteration space, and stencils may read lower-dimensional inputs (e.g. a 3D
//! stencil reading a 2D or scalar array using a subset of its indices).
//!
//! The crate provides:
//!
//! * [`StencilProgram`] — the in-memory program representation, built either
//!   programmatically through [`StencilProgramBuilder`] or parsed from the
//!   JSON-based input format of the paper's Lst. 1 ([`json`]).
//! * [`StencilDag`] — the dependency graph over input memories, stencil
//!   nodes, and output memories, with its [`NameTable`] and the
//!   topological orders the buffering and mapping analyses walk.
//! * [`IterationSpace`] — shapes, strides and memory-order linearization of
//!   offsets, the geometry underlying the buffer-size computations of §IV.
//!
//! # The name table
//!
//! A program names each DAG node once, in its [`NameTable`], built with the
//! DAG (by [`StencilProgram::validate`] at the latest) and kept with it. A
//! node's [`NodeId`] is its position there: first the fields — inputs and
//! stencils — in name order, then the output memories (`<stencil>__out`),
//! in name order. A field's id is the id of the node that produces it, so
//! per-field and per-node tables are `Vec`s indexed by [`NodeId::index`].
//! The analyses (`core`'s buffers, delays, mapping and partition,
//! `analysis`' liveness and edge checks, the access footprints, codegen)
//! run on ids; names are resolved only at the edges — JSON, diagnostics,
//! reports and emitted text.
//!
//! The order contract: every node's successor and predecessor lists follow
//! the order the edges were added in — the stencils in name order, each
//! stencil's reads in name order, then the outputs in declaration order —
//! and Kahn's algorithm starts from the sources in id order. Output
//! memories are never sources, so [`StencilProgram::topological_nodes`]
//! and [`StencilProgram::topological_stencils`] are exactly the orders
//! Kahn's algorithm gives over the nodes keyed by name
//! (`tests/order_equivalence.rs` keeps that algorithm and checks it).
//!
//! # Example
//!
//! ```
//! use stencilflow_program::{StencilProgramBuilder, BoundaryCondition};
//! use stencilflow_expr::DataType;
//!
//! let program = StencilProgramBuilder::new("example", &[32, 32, 32])
//!     .input("a", DataType::Float32, &["i", "j", "k"])
//!     .stencil("b", "a[i-1,j,k] + a[i+1,j,k]")
//!     .boundary("b", "a", BoundaryCondition::Constant(0.0))
//!     .output("b")
//!     .build()
//!     .unwrap();
//! assert_eq!(program.stencils().count(), 1);
//! let dag = program.dag();
//! assert_eq!(dag.successors(dag.id("a").unwrap()), [dag.id("b").unwrap()]);
//! assert_eq!(program.topological_nodes().unwrap().len(), 3); // a -> b -> b(out)
//! ```

#![forbid(unsafe_code)]

pub mod boundary;
pub mod error;
pub mod field;
mod fingerprint;
pub mod graph;
pub mod json;
pub mod program;
pub mod stencil;

pub use boundary::{BoundaryCondition, BoundarySpec};
pub use error::{ProgramError, Result};
pub use field::{FieldDecl, IterationSpace};
pub use graph::{AccessFootprints, DagNode, NameTable, NodeId, NodeKind, StencilDag};
pub use json::{from_json, to_json};
pub use program::{StencilProgram, StencilProgramBuilder};
pub use stencil::{ParsedCode, StencilNode};

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;

    /// Build the exact program of the paper's Lst. 1 / Fig. 2.
    pub(crate) fn listing1() -> StencilProgram {
        StencilProgramBuilder::new("listing1", &[32, 32, 32])
            .input("a0", DataType::Float32, &["i", "j", "k"])
            .input("a1", DataType::Float32, &["i", "j", "k"])
            .input("a2", DataType::Float32, &["i", "k"])
            .stencil("b0", "a0[i,j,k] + a1[i,j,k]")
            .boundary("b0", "a0", BoundaryCondition::Constant(1.0))
            .boundary("b0", "a1", BoundaryCondition::Copy)
            .stencil("b1", "0.5*(b0[i,j,k] + a2[i,k])")
            .shrink("b1")
            .stencil("b2", "0.5*(b0[i,j,k] - a2[i,k])")
            .shrink("b2")
            .stencil("b3", "b1[i-1,j,k] + b1[i+1,j,k]")
            .shrink("b3")
            .stencil("b4", "b2[i,j,k] + b3[i,j,k]")
            .shrink("b4")
            .output("b4")
            .build()
            .unwrap()
    }

    #[test]
    fn listing1_builds_and_validates() {
        let program = listing1();
        assert_eq!(program.stencils().count(), 5);
        assert_eq!(program.inputs().count(), 3);
        assert_eq!(program.outputs(), &["b4".to_string()]);
    }

    #[test]
    fn listing1_dag_matches_figure2() {
        use crate::graph::tests::has_edge;
        let program = listing1();
        let dag = program.dag();
        // a0,a1 -> b0; b0,a2 -> b1; b0,a2 -> b2; b1 -> b3; b2,b3 -> b4 -> out
        assert!(has_edge(dag, "a0", "b0"));
        assert!(has_edge(dag, "a1", "b0"));
        assert!(has_edge(dag, "b0", "b1"));
        assert!(has_edge(dag, "a2", "b1"));
        assert!(has_edge(dag, "b0", "b2"));
        assert!(has_edge(dag, "a2", "b2"));
        assert!(has_edge(dag, "b1", "b3"));
        assert!(has_edge(dag, "b2", "b4"));
        assert!(has_edge(dag, "b3", "b4"));
        assert!(!has_edge(dag, "b1", "b4"));
    }
}
