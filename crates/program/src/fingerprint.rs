//! The program fingerprint: a structural hash of everything a program's
//! `Debug` rendering shows, walked field by field instead of rendered.
//!
//! The walk hashes the program's name, iteration space and inputs; per
//! stencil its name, code, AST, field accesses, boundary and output type;
//! then the outputs and the vectorization. Every variable-length sequence
//! is hashed with its length and every enum with its variant tag, so the
//! word sequence of one program is never a prefix of another's and no two
//! field sequences alias; floats are hashed by bit pattern (`0.0` and
//! `-0.0` differ).
//!
//! Words are mixed by `h = rotl((h ^ w) * K, 29)`, a bijection of `h` for
//! every word, so two word sequences of the same length that differ in one
//! word never collide; the result goes through the MurmurHash3 finalizer.

use crate::boundary::{BoundaryCondition, BoundarySpec};
use crate::program::StencilProgram;
use crate::stencil::StencilNode;
use stencilflow_expr::{DataType, Expr, FieldAccesses, Program};

/// The fingerprint of `program` (see the module docs).
pub(crate) fn program_fingerprint(program: &StencilProgram) -> u64 {
    let mut h = Hash(0x243f_6a88_85a3_08d3);
    h.str(program.name());
    let space = program.space();
    h.strs(&space.dims);
    h.len(space.shape.len());
    for &extent in &space.shape {
        h.len(extent);
    }
    h.len(program.inputs().count());
    for (name, decl) in program.inputs() {
        h.str(name);
        h.dtype(decl.data_type());
        h.strs(&decl.dims);
    }
    h.len(program.stencil_count());
    for stencil in program.stencils() {
        h.stencil(stencil);
    }
    h.strs(program.outputs());
    h.len(program.vectorization());
    h.finish()
}

/// The running state of one fingerprint.
struct Hash(u64);

impl Hash {
    fn word(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }

    fn len(&mut self, n: usize) {
        self.word(n as u64);
    }

    fn str(&mut self, s: &str) {
        self.len(s.len());
        let mut chunks = s.as_bytes().chunks_exact(8);
        for chunk in &mut chunks {
            self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(last));
        }
    }

    fn strs(&mut self, strings: &[String]) {
        self.len(strings.len());
        for s in strings {
            self.str(s);
        }
    }

    fn dtype(&mut self, dtype: DataType) {
        self.word(dtype as u64);
    }

    fn stencil(&mut self, stencil: &StencilNode) {
        self.str(&stencil.name);
        self.str(&stencil.code);
        self.ast(&stencil.program);
        self.accesses(&stencil.accesses);
        self.boundary(&stencil.boundary);
        self.dtype(stencil.output_type);
    }

    fn ast(&mut self, program: &Program) {
        self.len(program.statements.len());
        for stmt in &program.statements {
            match &stmt.name {
                Some(name) => {
                    self.word(1);
                    self.str(name);
                }
                None => self.word(0),
            }
            self.expr(&stmt.value);
        }
    }

    fn expr(&mut self, expr: &Expr) {
        match expr {
            Expr::IntLit(v) => {
                self.word(0);
                self.word(*v as u64);
            }
            Expr::FloatLit(v) => {
                self.word(1);
                self.word(v.to_bits());
            }
            Expr::Var(name) => {
                self.word(2);
                self.str(name);
            }
            Expr::FieldAccess { field, indices } => {
                self.word(3);
                self.str(field);
                self.len(indices.len());
                for index in indices {
                    self.str(&index.var);
                    self.word(index.offset as u64);
                }
            }
            Expr::Unary { op, operand } => {
                self.word(4);
                self.word(*op as u64);
                self.expr(operand);
            }
            Expr::Binary { op, lhs, rhs } => {
                self.word(5);
                self.word(*op as u64);
                self.expr(lhs);
                self.expr(rhs);
            }
            Expr::Ternary {
                cond,
                then,
                otherwise,
            } => {
                self.word(6);
                self.expr(cond);
                self.expr(then);
                self.expr(otherwise);
            }
            Expr::Call { func, args } => {
                self.word(7);
                self.word(*func as u64);
                self.len(args.len());
                for arg in args {
                    self.expr(arg);
                }
            }
        }
    }

    fn accesses(&mut self, accesses: &FieldAccesses) {
        self.len(accesses.iter().count());
        for (field, info) in accesses.iter() {
            self.str(field);
            self.strs(&info.index_vars);
            self.len(info.offsets.len());
            for offsets in &info.offsets {
                self.len(offsets.len());
                for &offset in offsets {
                    self.word(offset as u64);
                }
            }
        }
    }

    fn boundary(&mut self, boundary: &BoundarySpec) {
        self.len(boundary.per_field.len());
        for (field, condition) in &boundary.per_field {
            self.str(field);
            match condition {
                BoundaryCondition::Constant(value) => {
                    self.word(0);
                    self.word(value.to_bits());
                }
                BoundaryCondition::Copy => self.word(1),
            }
        }
        self.word(u64::from(boundary.shrink));
    }

    /// The MurmurHash3 64-bit finalizer, so every bit of the state moves
    /// every bit of the fingerprint.
    fn finish(self) -> u64 {
        let mut h = self.0;
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::Stmt;

    fn of(walk: impl FnOnce(&mut Hash)) -> u64 {
        let mut h = Hash(0);
        walk(&mut h);
        h.finish()
    }

    #[test]
    fn floats_hash_by_bit_pattern() {
        let literal = |v: f64| Program {
            statements: vec![Stmt {
                name: None,
                value: Expr::FloatLit(v),
            }],
        };
        assert_ne!(of(|h| h.ast(&literal(0.0))), of(|h| h.ast(&literal(-0.0))));
    }

    #[test]
    fn lengths_keep_sequences_apart() {
        let strs = |s: &[&str]| s.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_ne!(
            of(|h| h.strs(&strs(&["ab", "c"]))),
            of(|h| h.strs(&strs(&["a", "bc"])))
        );
        assert_ne!(of(|h| h.str("a")), of(|h| h.str("a\0")));
        assert_ne!(
            of(|h| h.strs(&strs(&["", ""]))),
            of(|h| h.strs(&strs(&[""])))
        );
    }
}
