//! Internal buffers for intra-stencil reuse (§IV-A).
//!
//! A stencil that reads the same field at several offsets keeps the data
//! streamed in since the "lowest" offset in memory order, so every access is
//! served from on-chip memory and each input element is read from the
//! producer exactly once. The buffer is implemented as a shift register in
//! hardware; its size is:
//!
//! > "the largest distance between any two offsets in memory order, plus one
//! > (or plus the vector width, in the case of vectorized kernels) in the
//! > stencil iteration space"
//!
//! e.g. in a 3D iteration space of shape `{K, J, I}`, accesses `a[0,1,0]` and
//! `a[0,-1,0]` buffer two rows (`2I + W` elements) while `b[0,0,0]` and
//! `b[1,0,0]` buffer a 2D slice (`2IJ + W`), Fig. 7.
//!
//! Filling the buffers delays the first output of the stencil: the
//! *initialization phase* is `max{B_1, …, B_F}` elements, the quantity the
//! delay-buffer analysis (§IV-B) builds on. Buffers smaller than the largest
//! one only start filling after `B_max − B_i` elements, so that all fields
//! stay synchronized.

use crate::config::AnalysisConfig;
use crate::error::Result;
use std::sync::Arc;
use stencilflow_program::{NameTable, NodeId, NodeKind, StencilNode, StencilProgram};

/// Internal-buffer information for one field read by one stencil.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldBuffer {
    /// Field being buffered.
    pub field: NodeId,
    /// Number of distinct accesses (tap points) into the buffer.
    pub accesses: usize,
    /// Buffer size in elements (0 when only one access exists: the value is
    /// consumed directly from the channel).
    pub size_elements: u64,
    /// Largest *positive* memory-order offset accessed (elements). A stencil
    /// cannot emit cell `c` before the producer has emitted element
    /// `c + lookahead`, even when no buffer is required (single access at a
    /// positive offset), so this term participates in the per-edge delay.
    pub lookahead_elements: u64,
    /// Offset (in elements, relative to the stencil's first iteration) at
    /// which this buffer starts filling, so it stays synchronized with the
    /// largest buffer of the stencil: `B_max − B_i`.
    pub fill_start: u64,
    /// Flattened (memory-order) tap offsets relative to the oldest buffered
    /// element, one per access, in ascending order. Tap `size_elements - 1`
    /// (or 0 for unbuffered fields) is the newest element.
    pub tap_offsets: Vec<u64>,
}

impl FieldBuffer {
    /// The delay (in elements) this field imposes between the producer's
    /// stream and the consumer's first output: the buffer-fill distance, or
    /// the forward lookahead plus one vector word for fields read ahead of
    /// the center without a buffer.
    pub(crate) fn required_delay_elements(&self, vector_width: u64) -> u64 {
        let lookahead = if self.lookahead_elements > 0 {
            self.lookahead_elements + vector_width.max(1)
        } else {
            0
        };
        self.size_elements.max(lookahead)
    }

    /// [`FieldBuffer::required_delay_elements`] expressed in vector words
    /// (pipeline iterations).
    pub(crate) fn required_delay_words(&self, vector_width: u64) -> u64 {
        self.required_delay_elements(vector_width)
            .div_ceil(vector_width.max(1))
    }
}

/// Internal-buffer information for one stencil node.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StencilBuffers {
    /// Per-field buffers, in field id (name) order.
    fields: Vec<FieldBuffer>,
    /// Vectorization width the sizes were computed with.
    pub vector_width: u64,
}

impl StencilBuffers {
    /// Buffer info for one field.
    pub fn field(&self, field: NodeId) -> Option<&FieldBuffer> {
        let at = (self.fields)
            .binary_search_by_key(&field, |b| b.field)
            .ok()?;
        Some(&self.fields[at])
    }

    /// Largest buffer size of this stencil, in elements: the length of the
    /// initialization phase (§IV-A).
    pub(crate) fn max_buffer_size(&self) -> u64 {
        self.fields
            .iter()
            .map(|b| b.size_elements)
            .max()
            .unwrap_or(0)
    }

    /// Initialization phase in *iterations* (cycles at initiation interval
    /// 1): the largest per-field delay divided by the vectorization width.
    pub(crate) fn init_iterations(&self) -> u64 {
        self.fields
            .iter()
            .map(|b| b.required_delay_words(self.vector_width))
            .max()
            .unwrap_or(0)
    }

    /// Per-field delay contribution in vector words, used as the per-edge
    /// initialization term of the delay-buffer analysis (§IV-B).
    pub(crate) fn field_delay_words(&self, field: NodeId) -> u64 {
        self.field(field)
            .map(|b| b.required_delay_words(self.vector_width))
            .unwrap_or(0)
    }

    /// Total buffered elements across all fields of this stencil.
    pub(crate) fn total_elements(&self) -> u64 {
        self.fields.iter().map(|b| b.size_elements).sum()
    }
}

/// Internal-buffer analysis of a whole program: one entry per node id,
/// `None` for a memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InternalBufferAnalysis {
    names: Arc<NameTable>,
    stencils: Vec<Option<StencilBuffers>>,
}

impl InternalBufferAnalysis {
    /// Compute internal buffers for every stencil of `program`.
    ///
    /// # Errors
    ///
    /// Currently infallible for validated programs; the `Result` return type
    /// keeps the signature stable if richer diagnostics are added.
    pub(crate) fn compute(program: &StencilProgram, config: &AnalysisConfig) -> Result<Self> {
        let width = config.effective_vectorization(program.vectorization()) as u64;
        let dag = program.dag();
        let names = dag.names();
        let mut stencils = vec![None; dag.node_count()];
        // One buffer of memory-order offsets serves every field.
        let mut linearized = Vec::new();
        for node in dag.nodes().filter(|n| n.kind == NodeKind::Stencil) {
            let stencil = program
                .stencil_at(node.id)
                .expect("stencil nodes are stencils");
            stencils[node.id.index()] = Some(Self::compute_stencil(
                program,
                names,
                stencil,
                width,
                &mut linearized,
            ));
        }
        Ok(InternalBufferAnalysis {
            names: Arc::clone(names),
            stencils,
        })
    }

    fn compute_stencil(
        program: &StencilProgram,
        names: &NameTable,
        stencil: &StencilNode,
        width: u64,
        linearized: &mut Vec<i64>,
    ) -> StencilBuffers {
        let space = program.space();
        let mut fields = Vec::with_capacity(stencil.accesses.iter().count());
        // Reads iterate in name order, which is id order.
        for (field, info) in stencil.accesses.iter() {
            let Some(field) = names.id(field) else {
                continue;
            };
            // Embed each (possibly lower-dimensional) access offset into the
            // full iteration space: unnamed dimensions contribute offset 0.
            linearized.clear();
            linearized.extend(info.offsets.iter().map(|offsets| {
                let mut full = [0i64; 3];
                for (var, &off) in info.index_vars.iter().zip(offsets.iter()) {
                    if let Some(dim) = space.dim_index(var) {
                        full[dim] = off;
                    }
                }
                space.linearize_offset(&full[..space.rank()])
            }));
            linearized.sort_unstable();
            let accesses = linearized.len();
            let highest = linearized.last().copied().unwrap_or(0);
            let (size, taps): (u64, Vec<u64>) = if accesses >= 2 {
                let lowest = linearized[0];
                let size = (highest - lowest) as u64 + width;
                let taps = linearized.iter().map(|&l| (l - lowest) as u64).collect();
                (size, taps)
            } else {
                (0, vec![0])
            };
            fields.push(FieldBuffer {
                field,
                accesses,
                size_elements: size,
                lookahead_elements: highest.max(0) as u64,
                fill_start: 0, // fixed up below once B_max is known
                tap_offsets: taps,
            });
        }
        let mut buffers = StencilBuffers {
            fields,
            vector_width: width,
        };
        // Synchronize fill starts: the largest buffer starts filling
        // immediately; smaller buffers wait for B_max - B_i elements.
        let max = buffers.max_buffer_size();
        for buffer in &mut buffers.fields {
            buffer.fill_start = max - buffer.size_elements;
        }
        buffers
    }

    /// Buffer information of one stencil.
    pub fn stencil(&self, name: &str) -> Option<&StencilBuffers> {
        self.stencil_at(self.names.id(name)?)
    }

    /// Buffer information of the stencil with id `id`.
    pub(crate) fn stencil_at(&self, id: NodeId) -> Option<&StencilBuffers> {
        self.stencils.get(id.index())?.as_ref()
    }

    /// Total on-chip elements consumed by internal buffers across the whole
    /// program.
    pub(crate) fn total_elements(&self) -> u64 {
        self.stencils
            .iter()
            .flatten()
            .map(|b| b.total_elements())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencilflow_expr::DataType;
    use stencilflow_program::StencilProgramBuilder;

    /// The buffers of `program`'s stencil `stencil`, with a lookup of its
    /// fields by name.
    fn buffers_of<'a>(
        program: &'a StencilProgram,
        analysis: &'a InternalBufferAnalysis,
        stencil: &str,
    ) -> (&'a StencilBuffers, impl Fn(&str) -> &'a FieldBuffer) {
        let buffers = analysis.stencil(stencil).unwrap();
        let names = program.dag().names();
        (buffers, move |field: &str| {
            buffers.field(names.id(field).unwrap()).unwrap()
        })
    }

    fn analysis_for(code: &str, shape: &[usize], width: usize) -> Named {
        let program = StencilProgramBuilder::new("p", shape)
            .input("a", DataType::Float32, &["i", "j", "k"])
            .input("b", DataType::Float32, &["i", "j", "k"])
            .stencil("s", code)
            .output("s")
            .vectorization(width)
            .build()
            .unwrap();
        let analysis =
            InternalBufferAnalysis::compute(&program, &AnalysisConfig::default()).unwrap();
        let buffers = analysis.stencil("s").unwrap().clone();
        Named { program, buffers }
    }

    /// One stencil's buffers, with the program that names their fields.
    struct Named {
        program: StencilProgram,
        buffers: StencilBuffers,
    }

    impl std::ops::Deref for Named {
        type Target = StencilBuffers;

        fn deref(&self) -> &StencilBuffers {
            &self.buffers
        }
    }

    impl Named {
        fn field(&self, name: &str) -> Option<&FieldBuffer> {
            let id = self.program.dag().id(name)?;
            self.buffers.field(id)
        }
    }

    #[test]
    fn paper_row_buffer_example() {
        // §IV-A: accesses a[0,1,0] and a[0,-1,0] in a {K,J,I} space buffer
        // two rows: 2I + W elements. Our dims are (i,j,k) with k fastest, so
        // the analogous accesses are a[i, j-1, k] and a[i, j+1, k] buffering
        // 2*K + W.
        let shape = [32, 16, 8]; // i=32, j=16, k=8 (k fastest)
        let buffers = analysis_for("a[i,j-1,k] + a[i,j+1,k]", &shape, 1);
        assert_eq!(buffers.field("a").unwrap().size_elements, 2 * 8 + 1);
        assert_eq!(buffers.max_buffer_size(), 17);
        assert_eq!(buffers.init_iterations(), 17);
    }

    #[test]
    fn paper_slice_buffer_example() {
        // Accesses b[0,0,0] and b[1,0,0] buffer a 2D slice: 2*J*I + W in the
        // paper's naming; with k fastest that is 2*(16*8) + W here... the
        // offset is along the slowest dimension i, so the distance is
        // 1 * (16*8) elements -> size J*K + W.
        let shape = [32, 16, 8];
        let buffers = analysis_for("a[i,j,k] + a[i+1,j,k]", &shape, 1);
        assert_eq!(buffers.field("a").unwrap().size_elements, 16 * 8 + 1);
    }

    #[test]
    fn single_access_needs_no_buffer() {
        let buffers = analysis_for("a[i,j,k] * 2.0", &[8, 8, 8], 1);
        let field = buffers.field("a").unwrap();
        assert_eq!(field.size_elements, 0);
        assert_eq!(buffers.init_iterations(), 0);
    }

    #[test]
    fn intermediate_accesses_do_not_change_size() {
        // §IV-A: "Additional accesses in between the highest and lowest
        // offset in memory order do not affect the total buffer size."
        let two = analysis_for("a[i,j,k-1] + a[i,j,k+1]", &[8, 8, 8], 1);
        let three = analysis_for("a[i,j,k-1] + a[i,j,k] + a[i,j,k+1]", &[8, 8, 8], 1);
        assert_eq!(
            two.field("a").unwrap().size_elements,
            three.field("a").unwrap().size_elements
        );
        // But the tap count differs.
        assert_eq!(two.field("a").unwrap().accesses, 2);
        assert_eq!(three.field("a").unwrap().accesses, 3);
    }

    #[test]
    fn vector_width_adds_to_buffer_size() {
        let w1 = analysis_for("a[i,j,k-1] + a[i,j,k+1]", &[8, 8, 8], 1);
        let w4 = analysis_for("a[i,j,k-1] + a[i,j,k+1]", &[8, 8, 8], 4);
        assert_eq!(w1.field("a").unwrap().size_elements, 3);
        assert_eq!(w4.field("a").unwrap().size_elements, 6);
        // Init iterations are divided by the width.
        assert_eq!(w1.init_iterations(), 3);
        assert_eq!(w4.init_iterations(), 2); // ceil(6/4)
    }

    #[test]
    fn fill_start_synchronizes_multiple_fields() {
        // Field a needs a 2-row buffer, field b only a 3-element row buffer.
        let buffers = analysis_for(
            "a[i,j-1,k] + a[i,j+1,k] + b[i,j,k-1] + b[i,j,k+1]",
            &[8, 8, 8],
            1,
        );
        let a = buffers.field("a").unwrap();
        let b = buffers.field("b").unwrap();
        assert!(a.size_elements > b.size_elements);
        assert_eq!(a.fill_start, 0);
        assert_eq!(b.fill_start, a.size_elements - b.size_elements);
    }

    #[test]
    fn tap_offsets_are_relative_to_oldest() {
        let buffers = analysis_for("a[i,j,k-1] + a[i,j,k] + a[i,j,k+1]", &[8, 8, 8], 1);
        assert_eq!(buffers.field("a").unwrap().tap_offsets, vec![0, 1, 2]);
    }

    #[test]
    fn lower_dimensional_field_buffers_use_embedded_offsets() {
        let program = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .input("surf", DataType::Float32, &["i", "k"])
            .stencil("s", "a[i,j,k] + surf[i,k-1] + surf[i,k+1]")
            .output("s")
            .build()
            .unwrap();
        let analysis =
            InternalBufferAnalysis::compute(&program, &AnalysisConfig::default()).unwrap();
        let (_, field) = buffers_of(&program, &analysis, "s");
        assert_eq!(field("surf").size_elements, 3);
        assert_eq!(field("a").size_elements, 0);
    }

    #[test]
    fn program_totals_sum_over_stencils() {
        let program = StencilProgramBuilder::new("p", &[8, 8, 8])
            .input("a", DataType::Float32, &["i", "j", "k"])
            .stencil("s1", "a[i,j,k-1] + a[i,j,k+1]")
            .stencil("s2", "s1[i,j,k-1] + s1[i,j,k+1]")
            .output("s2")
            .build()
            .unwrap();
        let analysis =
            InternalBufferAnalysis::compute(&program, &AnalysisConfig::default()).unwrap();
        assert_eq!(analysis.total_elements(), 3 + 3);
        assert_eq!(analysis.stencil("s1").unwrap().init_iterations(), 3);
        assert!(analysis.stencil("nonexistent").is_none());
    }
}
