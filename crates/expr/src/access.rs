//! Extraction of field-access patterns from stencil code segments.
//!
//! The internal-buffer and delay-buffer analyses (paper §IV) are driven
//! entirely by *which fields* a stencil reads and *at which constant
//! offsets*. This module walks a parsed [`Program`] and collects that
//! information, distinguishing:
//!
//! * bracketed accesses, e.g. `u[i-1, j, k]` — an access into an input field
//!   at constant offsets along the listed iteration variables;
//! * bare identifiers that are not locals, e.g. `dt` — scalar ("0D") inputs.

use crate::ast::{Expr, Index, Program};
use std::collections::{BTreeMap, BTreeSet};

/// All accesses a code segment performs on one field.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldAccessInfo {
    /// Iteration variables used to index this field, in the order they appear
    /// in the access (e.g. `["i", "k"]` for `a2[i, k]`). Empty for scalar
    /// (0D) inputs.
    pub index_vars: Vec<String>,
    /// The set of distinct constant offset vectors, each of the same length
    /// as `index_vars`.
    pub offsets: BTreeSet<Vec<i64>>,
}

impl FieldAccessInfo {
    /// Number of distinct accesses to this field.
    pub fn access_count(&self) -> usize {
        self.offsets.len()
    }

    /// Whether this field is accessed as a scalar (no indices).
    pub fn is_scalar(&self) -> bool {
        self.index_vars.is_empty()
    }

    /// Per-dimension minimum and maximum offsets (the stencil "radius" along
    /// each accessed dimension). Returns an empty vector for scalar accesses.
    pub fn extent(&self) -> Vec<(i64, i64)> {
        let dims = self.index_vars.len();
        let mut extent = vec![(i64::MAX, i64::MIN); dims];
        for offsets in &self.offsets {
            for (d, &off) in offsets.iter().enumerate() {
                extent[d].0 = extent[d].0.min(off);
                extent[d].1 = extent[d].1.max(off);
            }
        }
        if self.offsets.is_empty() {
            vec![(0, 0); dims]
        } else {
            extent
        }
    }
}

/// The complete access pattern of a code segment: one entry per field read.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FieldAccesses {
    accesses: BTreeMap<String, FieldAccessInfo>,
}

impl FieldAccesses {
    /// Create an empty access pattern.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Iterate over the names of all accessed fields (sorted).
    pub fn fields(&self) -> impl Iterator<Item = &str> {
        self.accesses.keys().map(String::as_str)
    }

    /// Access information for one field, if it is accessed at all.
    pub fn get(&self, field: &str) -> Option<&FieldAccessInfo> {
        self.accesses.get(field)
    }

    /// Whether the given field is accessed.
    pub fn contains(&self, field: &str) -> bool {
        self.accesses.contains_key(field)
    }

    /// Iterate over `(field, info)` pairs in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &FieldAccessInfo)> {
        self.accesses.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The entry of `field`, created empty on its first access; the name is
    /// copied only then.
    fn entry(&mut self, field: &str) -> &mut FieldAccessInfo {
        if !self.accesses.contains_key(field) {
            self.accesses
                .insert(field.to_string(), FieldAccessInfo::default());
        }
        self.accesses.get_mut(field).expect("inserted above")
    }

    /// Record an access at the given index expressions.
    fn record(&mut self, field: &str, indices: &[Index]) {
        let entry = self.entry(field);
        if entry.index_vars.is_empty() && !indices.is_empty() {
            entry.index_vars = indices.iter().map(|ix| ix.var.clone()).collect();
        }
        entry
            .offsets
            .insert(indices.iter().map(|ix| ix.offset).collect());
    }

    /// Record a scalar (0D) access.
    fn record_scalar(&mut self, field: &str) {
        self.entry(field).offsets.insert(Vec::new());
    }
}

/// Walks a [`Program`] and extracts its [`FieldAccesses`].
#[derive(Debug, Default)]
pub struct AccessExtractor;

impl AccessExtractor {
    /// Extract the access pattern of a code segment.
    ///
    /// Local variables defined by earlier statements are *not* reported as
    /// field accesses; every other bare identifier is reported as a scalar
    /// access (the program-level analysis later decides whether it is a 0D
    /// field or an iteration variable misuse).
    ///
    /// # Example
    ///
    /// ```
    /// # use stencilflow_expr::{parse_program, AccessExtractor};
    /// let prog = parse_program("b1[i-1, j, k] + b1[i+1, j, k]").unwrap();
    /// let acc = AccessExtractor::extract(&prog);
    /// assert_eq!(acc.get("b1").unwrap().access_count(), 2);
    /// ```
    pub fn extract(program: &Program) -> FieldAccesses {
        let locals: BTreeSet<&str> = program.local_names().into_iter().collect();
        let mut accesses = FieldAccesses::new();
        for expr in program.exprs() {
            Self::walk(expr, &locals, &mut accesses);
        }
        accesses
    }

    fn walk(expr: &Expr, locals: &BTreeSet<&str>, accesses: &mut FieldAccesses) {
        expr.visit(&mut |node| match node {
            Expr::FieldAccess { field, indices } => accesses.record(field, indices),
            Expr::Var(name) if !locals.contains(name.as_str()) => {
                accesses.record_scalar(name);
            }
            _ => {}
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    #[test]
    fn extracts_multiple_offsets() {
        let prog = parse_program("u[i-1,j,k] + u[i+1,j,k] + u[i,j,k]").unwrap();
        let acc = AccessExtractor::extract(&prog);
        let info = acc.get("u").unwrap();
        assert_eq!(info.access_count(), 3);
        assert_eq!(info.index_vars, vec!["i", "j", "k"]);
        assert_eq!(info.extent(), vec![(-1, 1), (0, 0), (0, 0)]);
    }

    #[test]
    fn duplicate_accesses_are_deduplicated() {
        let prog = parse_program("u[i,j,k] * u[i,j,k]").unwrap();
        let acc = AccessExtractor::extract(&prog);
        assert_eq!(acc.get("u").unwrap().access_count(), 1);
    }

    #[test]
    fn locals_are_not_fields() {
        let prog = parse_program("t = a[i] + b[i]; t * t").unwrap();
        let acc = AccessExtractor::extract(&prog);
        assert!(acc.contains("a"));
        assert!(acc.contains("b"));
        assert!(!acc.contains("t"));
    }

    #[test]
    fn scalars_are_recorded() {
        let prog = parse_program("a[i,j,k] * dt + eps").unwrap();
        let acc = AccessExtractor::extract(&prog);
        assert!(acc.get("dt").unwrap().is_scalar());
        assert!(acc.get("eps").unwrap().is_scalar());
        assert_eq!(acc.fields().count(), 3);
    }

    #[test]
    fn lower_dimensional_access_vars() {
        let prog = parse_program("b0[i,j,k] + a2[i,k]").unwrap();
        let acc = AccessExtractor::extract(&prog);
        assert_eq!(acc.get("a2").unwrap().index_vars, vec!["i", "k"]);
        assert_eq!(acc.get("b0").unwrap().index_vars, vec!["i", "j", "k"]);
    }

    #[test]
    fn total_accesses_counts_access_points() {
        let prog = parse_program("u[i-1,j,k] + u[i+1,j,k] + v[i,j,k] + dt").unwrap();
        let acc = AccessExtractor::extract(&prog);
        let points: usize = acc.iter().map(|(_, a)| a.access_count().max(1)).sum();
        assert_eq!(points, 4);
    }

    #[test]
    fn extent_of_scalar_is_empty() {
        let prog = parse_program("dt + 1.0").unwrap();
        let acc = AccessExtractor::extract(&prog);
        assert!(acc.get("dt").unwrap().extent().is_empty());
    }
}
