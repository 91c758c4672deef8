//! The program/DAG analyzer: structural and type checks over a
//! [`StencilProgram`] that predict runtime misbehavior before anything
//! executes.
//!
//! Checks and their codes:
//!
//! * **SF0201** (error) — the stencil graph is cyclic; the message names
//!   the cycle path.
//! * **SF0202** (warning) — a stencil computes values no output depends
//!   on (dead compute that still costs area/time in a mapped design).
//! * **SF0203** (warning) — a declared input no live stencil reads.
//! * **SF0204** (warning) — an edge silently narrows: a stencil's
//!   declared output type is narrower than the promoted type of the
//!   fields it reads, so every value crossing the edge is rounded.
//! * **SF0205** (error) — an access footprint reaches at least as far as
//!   the iteration-space extent in some dimension, so every cell of the
//!   sweep reads out of domain.
//! * **SF0206** (warning) — a runtime error (integer division by zero,
//!   the language's only one) is reachable in a stencil kernel, judged by
//!   the bytecode verifier with the stencil's real slot types.
//! * **SF0207** (error) — a stencil expression fails to compile to
//!   bytecode at all.
//! * **SF0101–SF0109** (error) — the compiled kernel fails bytecode
//!   verification; the code is the verifier's own.

use crate::diag::{AnalysisReport, Diagnostic, Severity};
use std::collections::BTreeMap;
use stencilflow_expr::{verify_kernel, DataType};
use stencilflow_program::{AccessFootprints, NodeId, NodeKind, StencilProgram};

/// Run every program-level check on `program`.
pub fn analyze_program(program: &StencilProgram) -> AnalysisReport {
    let mut report = AnalysisReport {
        program: program.name().to_string(),
        diagnostics: Vec::new(),
    };
    check_cycles(program, &mut report);
    check_liveness(program, &mut report);
    check_edge_types(program, &mut report);
    check_footprints(program, &mut report);
    check_kernels(program, &mut report);
    report
}

fn location(program: &StencilProgram, node: &str) -> String {
    format!("{}/{}", program.name(), node)
}

/// Stencil-to-stencil adjacency: `reads[s]` is every *stencil* field `s`
/// reads (inputs are excluded — they cannot take part in a cycle).
fn stencil_reads(program: &StencilProgram) -> BTreeMap<String, Vec<String>> {
    program
        .stencils()
        .map(|stencil| {
            let reads = stencil
                .read_fields()
                .into_iter()
                .filter(|f| program.is_stencil(f))
                .map(str::to_string)
                .collect();
            (stencil.name.clone(), reads)
        })
        .collect()
}

/// SF0201: cycle detection with a named path, by iterative DFS with an
/// explicit color map (white/gray/black). The DFS runs only when the
/// program's kept topological order reports a cycle. Only the first cycle
/// found is reported — one is enough to make every downstream analysis
/// undefined.
fn check_cycles(program: &StencilProgram, report: &mut AnalysisReport) {
    if program.topological_nodes().is_ok() {
        return;
    }
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let reads = stencil_reads(program);
    let mut color: BTreeMap<&str, Color> =
        reads.keys().map(|k| (k.as_str(), Color::White)).collect();

    for start in reads.keys() {
        if color[start.as_str()] != Color::White {
            continue;
        }
        // Stack of (node, next-neighbor-index); `path` mirrors the gray
        // chain so a back edge can name the whole cycle.
        let mut stack: Vec<(&str, usize)> = vec![(start.as_str(), 0)];
        color.insert(start.as_str(), Color::Gray);
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            let neighbors = &reads[node];
            if *next >= neighbors.len() {
                color.insert(node, Color::Black);
                stack.pop();
                continue;
            }
            let neighbor = neighbors[*next].as_str();
            *next += 1;
            match color[neighbor] {
                Color::White => {
                    color.insert(neighbor, Color::Gray);
                    stack.push((neighbor, 0));
                }
                Color::Gray => {
                    let from = stack.iter().position(|&(n, _)| n == neighbor).unwrap_or(0);
                    let mut path: Vec<&str> = stack[from..].iter().map(|&(n, _)| n).collect();
                    path.push(neighbor);
                    report.diagnostics.push(Diagnostic::new(
                        Severity::Error,
                        "SF0201",
                        location(program, neighbor),
                        format!("stencil graph is cyclic: {}", path.join(" -> ")),
                    ));
                    return;
                }
                Color::Black => {}
            }
        }
    }
}

/// SF0202 + SF0203: reverse reachability from the outputs over the
/// program's DAG, on node ids. A stencil no output depends on is dead; an
/// input no live stencil reads is unused.
fn check_liveness(program: &StencilProgram, report: &mut AnalysisReport) {
    let dag = program.dag();
    let mut live = vec![false; dag.node_count()];
    let mut read = vec![false; dag.node_count()];
    let mut stack: Vec<NodeId> = (program.outputs().iter())
        .filter_map(|output| dag.id(output))
        .filter(|&id| dag.kind(id) == NodeKind::Stencil)
        .collect();
    while let Some(node) = stack.pop() {
        if std::mem::replace(&mut live[node.index()], true) {
            continue;
        }
        for &upstream in dag.predecessors(node) {
            match dag.kind(upstream) {
                NodeKind::Input => read[upstream.index()] = true,
                NodeKind::Stencil if !live[upstream.index()] => stack.push(upstream),
                _ => {}
            }
        }
    }
    // Dead stencils, then unused inputs, each in name order (the order of
    // the fields' ids).
    for (kind, seen, code, message) in [
        (
            NodeKind::Stencil,
            &live,
            "SF0202",
            "dead stencil: no output depends on it",
        ),
        (
            NodeKind::Input,
            &read,
            "SF0203",
            "unused input: no live stencil reads it",
        ),
    ] {
        for node in dag
            .nodes()
            .filter(|n| n.kind == kind && !seen[n.id.index()])
        {
            report.diagnostics.push(Diagnostic::new(
                Severity::Warning,
                code,
                location(program, node.name),
                message.to_string(),
            ));
        }
    }
}

/// SF0204: an edge narrows when a stencil's declared output type cannot
/// represent the promoted type of what it reads — every value leaving the
/// stencil is rounded. The natural type is the promotion over the *field*
/// types read (never over literals, which are always parsed wide), each
/// field's type looked up once, by id.
fn check_edge_types(program: &StencilProgram, report: &mut AnalysisReport) {
    let dag = program.dag();
    let field_types: Vec<Option<DataType>> =
        (dag.nodes().take_while(|n| n.kind != NodeKind::Output))
            .map(|node| program.field_type(node.name))
            .collect();
    for node in dag.nodes().filter(|n| n.kind == NodeKind::Stencil) {
        let natural = (dag.predecessors(node.id).iter())
            .filter_map(|&field| field_types[field.index()])
            .reduce(DataType::promote);
        let Some(natural) = natural else { continue };
        let Some(declared) = field_types[node.id.index()] else {
            continue;
        };
        if natural.promote(declared) != declared {
            report.diagnostics.push(Diagnostic::new(
                Severity::Warning,
                "SF0204",
                location(program, node.name),
                format!(
                    "narrowing edge: reads promote to {natural:?} but the output is \
                     declared {declared:?}, so every value is rounded"
                ),
            ));
        }
    }
}

/// SF0205: a footprint that reaches at least the iteration-space extent
/// in some dimension makes *every* access in that dimension touch a
/// boundary cell — the stencil computes from boundary padding alone.
fn check_footprints(program: &StencilProgram, report: &mut AnalysisReport) {
    let footprints = AccessFootprints::of_program(program);
    let shape = &program.space().shape;
    for (consumer, field, extents) in footprints.edges() {
        for (dim, &(lo, hi)) in extents.iter().enumerate() {
            let reach = lo.unsigned_abs().max(hi.unsigned_abs()) as usize;
            if reach >= shape[dim] {
                report.diagnostics.push(Diagnostic::new(
                    Severity::Error,
                    "SF0205",
                    format!("{}/{} -> {}", program.name(), field, consumer),
                    format!(
                        "footprint [{lo}, {hi}] exceeds the extent {} of dimension \
                         {dim}: every access is out of domain",
                        shape[dim]
                    ),
                ));
            }
        }
    }
}

/// SF0206/SF0207 + SF01xx: compile every stencil kernel and run the
/// bytecode verifier over it with the stencil's real slot types — the
/// same judgment the runtime makes at bind time, but across the whole
/// program at once.
fn check_kernels(program: &StencilProgram, report: &mut AnalysisReport) {
    for stencil in program.stencils() {
        let kernel = match stencil.kernel() {
            Ok(kernel) => kernel,
            Err(e) => {
                report.diagnostics.push(Diagnostic::new(
                    Severity::Error,
                    "SF0207",
                    location(program, &stencil.name),
                    format!("stencil expression does not compile: {e}"),
                ));
                continue;
            }
        };
        // The slot types the program keeps; `None` when a slot reads a
        // field the program does not declare.
        let id = program
            .dag()
            .id(&stencil.name)
            .expect("stencils are DAG nodes");
        let slot_types = program.typed_kernel(id).map(|(types, _)| types);
        match verify_kernel(kernel, slot_types) {
            Err(e) => {
                report.diagnostics.push(Diagnostic::new(
                    Severity::Error,
                    e.code(),
                    location(program, &stencil.name),
                    format!("kernel fails bytecode verification: {e}"),
                ));
            }
            Ok(judgment) if !judgment.infallible => {
                report.diagnostics.push(Diagnostic::new(
                    Severity::Warning,
                    "SF0206",
                    location(program, &stencil.name),
                    "a runtime error is reachable: integer division whose divisor \
                     may be zero"
                        .to_string(),
                ));
            }
            Ok(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_program::StencilProgramBuilder;

    fn clean_program() -> StencilProgram {
        StencilProgramBuilder::new("clean", &[16, 16])
            .dims(&["i", "j"])
            .input("a", DataType::Float32, &["i", "j"])
            .stencil("b", "0.25 * (a[i-1,j] + a[i+1,j] + a[i,j-1] + a[i,j+1])")
            .output("b")
            .build()
            .unwrap()
    }

    #[test]
    fn clean_program_is_clean() {
        let report = analyze_program(&clean_program());
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
    }

    #[test]
    fn liveness_flags_dead_stencil_and_unused_input() {
        let program = StencilProgramBuilder::new("deadwood", &[16, 16])
            .dims(&["i", "j"])
            .input("a", DataType::Float32, &["i", "j"])
            .input("ghost", DataType::Float32, &["i", "j"])
            .stencil("b", "a[i,j] + 1.0")
            .stencil("c", "b[i,j] * 0.5")
            .stencil("orphan", "ghost[i,j] * 2.0")
            .output("c")
            .build()
            .unwrap();
        // `b` and `a` are live through `c`; only `orphan` reads `ghost`.
        let report = analyze_program(&program);
        assert_eq!(report.with_code("SF0202").len(), 1);
        assert_eq!(report.with_code("SF0202")[0].location, "deadwood/orphan");
        assert_eq!(report.with_code("SF0203").len(), 1);
        assert_eq!(report.with_code("SF0203")[0].location, "deadwood/ghost");
        assert!(report.is_clean(), "liveness findings are warnings");
    }

    #[test]
    fn narrowing_edge_is_flagged() {
        let program = StencilProgramBuilder::new("narrow", &[16, 16])
            .dims(&["i", "j"])
            .input("a", DataType::Float64, &["i", "j"])
            .stencil("b", "a[i,j] + 1.0") // defaults to Float32 output
            .output("b")
            .build()
            .unwrap();
        let report = analyze_program(&program);
        assert_eq!(report.with_code("SF0204").len(), 1);
    }

    #[test]
    fn integer_division_is_error_reachable() {
        let program = StencilProgramBuilder::new("intdiv", &[16, 16])
            .dims(&["i", "j"])
            .input("a", DataType::Int32, &["i", "j"])
            .input("b", DataType::Int32, &["i", "j"])
            .stencil("q", "a[i,j] / b[i,j]")
            .output_type("q", DataType::Int32)
            .output("q")
            .build()
            .unwrap();
        let report = analyze_program(&program);
        assert_eq!(report.with_code("SF0206").len(), 1);
    }
}
