//! Field declarations and iteration-space geometry.

use crate::error::{ProgramError, Result};
use std::fmt;
use stencilflow_expr::DataType;

/// Declaration of one input field of a stencil program.
///
/// A field has a scalar data type and a list of the iteration-space
/// dimensions it spans (in memory order, slowest to fastest). Fields may be
/// lower-dimensional than the iteration space — e.g. a 2D field `["i", "k"]`
/// inside a 3D `["i", "j", "k"]` program — or even zero-dimensional
/// (scalars), in which case `dims` is empty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    /// Element data type.
    pub dtype: DataTypeRepr,
    /// The iteration-space dimensions this field spans (may be a subset).
    pub dims: Vec<String>,
}

/// Wrapper around [`DataType`] carrying the JSON wire names (`"float32"`,
/// `"float64"`, ...); conversion to and from JSON lives in [`crate::json`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataTypeRepr(pub DataType);

impl From<DataType> for DataTypeRepr {
    fn from(value: DataType) -> Self {
        DataTypeRepr(value)
    }
}

impl FieldDecl {
    /// Create a new field declaration.
    pub(crate) fn new(dtype: DataType, dims: &[&str]) -> Self {
        FieldDecl {
            dtype: DataTypeRepr(dtype),
            dims: dims.iter().map(|d| d.to_string()).collect(),
        }
    }

    /// The field's scalar data type.
    pub fn data_type(&self) -> DataType {
        self.dtype.0
    }

    /// Number of dimensions this field spans.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Whether the field is a scalar ("0D") input.
    pub fn is_scalar(&self) -> bool {
        self.dims.is_empty()
    }
}

/// The iteration space of a stencil program: named dimensions and their
/// extents.
///
/// Memory order is row-major over the declared dimension order: the *last*
/// dimension is contiguous ("fastest"). All buffer-size computations of §IV
/// flatten offsets with the strides defined here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IterationSpace {
    /// Dimension names in memory order (slowest first).
    pub dims: Vec<String>,
    /// Extent of each dimension.
    pub shape: Vec<usize>,
}

impl IterationSpace {
    /// Create an iteration space from dimension names and extents.
    ///
    /// # Errors
    ///
    /// Returns [`ProgramError::InvalidShape`] if the lists are empty, have
    /// mismatched lengths, exceed three dimensions, or contain a zero extent.
    pub fn new(dims: &[&str], shape: &[usize]) -> Result<Self> {
        if dims.is_empty() || shape.is_empty() {
            return Err(ProgramError::InvalidShape {
                message: "iteration space must have at least one dimension".into(),
            });
        }
        if dims.len() != shape.len() {
            return Err(ProgramError::InvalidShape {
                message: format!("{} dimension names but {} extents", dims.len(), shape.len()),
            });
        }
        if dims.len() > 3 {
            return Err(ProgramError::InvalidShape {
                message: "stencil programs support at most 3 dimensions".into(),
            });
        }
        if shape.contains(&0) {
            return Err(ProgramError::InvalidShape {
                message: "dimension extents must be non-zero".into(),
            });
        }
        // Reject shapes whose cell count (or byte size for the widest scalar
        // type) overflows usize: every downstream size computation —
        // `num_cells`, `strides`, `field_bytes` — multiplies these extents
        // and would otherwise overflow. All extents are non-zero here, so
        // guarding the full product also covers every stride suffix product.
        let cells = shape
            .iter()
            .try_fold(1usize, |acc, &extent| acc.checked_mul(extent))
            .and_then(|cells| cells.checked_mul(8).map(|_| cells));
        if cells.is_none() {
            return Err(ProgramError::InvalidShape {
                message: format!(
                    "iteration space shape {shape:?} overflows the addressable \
                     byte count on this platform; split the domain before \
                     building the program"
                ),
            });
        }
        Ok(IterationSpace {
            dims: dims.iter().map(|d| d.to_string()).collect(),
            shape: shape.to_vec(),
        })
    }

    /// Number of dimensions.
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Total number of cells (product of all extents).
    pub fn num_cells(&self) -> usize {
        self.shape.iter().product()
    }

    /// Extent of the innermost (fastest, contiguous) dimension.
    pub fn inner_extent(&self) -> usize {
        *self.shape.last().expect("iteration space is never empty")
    }

    /// Position of a named dimension, if it exists.
    pub fn dim_index(&self, name: &str) -> Option<usize> {
        self.dims.iter().position(|d| d == name)
    }

    /// Row-major strides (elements) of each dimension, fastest dimension
    /// having stride 1.
    pub(crate) fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.shape.len()];
        for d in (0..self.shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * self.shape[d + 1];
        }
        strides
    }

    /// Flatten a full-rank offset vector into a signed memory-order distance
    /// (elements), i.e. the distance between a cell and the cell at the given
    /// offsets in a row-major layout of the full iteration space.
    ///
    /// This is the quantity the internal-buffer analysis (§IV-A) is built on:
    /// the buffer for a field must span the distance between the lowest and
    /// highest flattened access offset.
    pub fn linearize_offset(&self, offsets: &[i64]) -> i64 {
        // The row-major strides, innermost first, without building them.
        let mut stride = 1i64;
        let mut distance = 0i64;
        for (d, &extent) in self.shape.iter().enumerate().rev() {
            if let Some(&off) = offsets.get(d) {
                distance += off * stride;
            }
            stride *= extent as i64;
        }
        distance
    }

    /// Convert a multi-dimensional index into a flat row-major index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds; callers
    /// (reference executor, simulator) always iterate within the shape.
    pub fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        let strides = self.strides();
        index
            .iter()
            .zip(strides.iter())
            .zip(self.shape.iter())
            .map(|((&ix, &stride), &extent)| {
                assert!(ix < extent, "index {ix} out of bounds for extent {extent}");
                ix * stride
            })
            .sum()
    }

    /// Iterate over all multi-dimensional indices of the space in row-major
    /// order.
    pub fn indices(&self) -> IndexIter {
        IndexIter {
            shape: self.shape.clone(),
            next: Some(vec![0; self.shape.len()]),
        }
    }

    /// Bytes occupied by one full-domain field of the given data type.
    pub(crate) fn field_bytes(&self, dtype: DataType) -> usize {
        self.num_cells() * dtype.size_bytes()
    }
}

impl fmt::Display for IterationSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .dims
            .iter()
            .zip(self.shape.iter())
            .map(|(d, s)| format!("{d}={s}"))
            .collect();
        write!(f, "[{}]", parts.join(", "))
    }
}

/// Row-major iterator over all indices of an [`IterationSpace`].
#[derive(Debug, Clone)]
pub struct IndexIter {
    shape: Vec<usize>,
    next: Option<Vec<usize>>,
}

impl Iterator for IndexIter {
    type Item = Vec<usize>;

    fn next(&mut self) -> Option<Vec<usize>> {
        let current = self.next.clone()?;
        // Advance (row-major: last dimension fastest).
        let mut next = current.clone();
        let mut dim = self.shape.len();
        loop {
            if dim == 0 {
                self.next = None;
                break;
            }
            dim -= 1;
            next[dim] += 1;
            if next[dim] < self.shape[dim] {
                self.next = Some(next);
                break;
            }
            next[dim] = 0;
        }
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_shapes() {
        assert!(IterationSpace::new(&[], &[]).is_err());
        assert!(IterationSpace::new(&["i"], &[1, 2]).is_err());
        assert!(IterationSpace::new(&["i", "j", "k", "l"], &[1, 1, 1, 1]).is_err());
        assert!(IterationSpace::new(&["i"], &[0]).is_err());
    }

    #[test]
    fn rejects_overflowing_cell_counts() {
        let huge = 1usize << 40;
        let err = IterationSpace::new(&["i", "j", "k"], &[huge, huge, huge]).unwrap_err();
        assert!(err.to_string().contains("overflows"));
        // The cell count fits but the byte size (×8) does not.
        assert!(IterationSpace::new(&["i", "j"], &[1 << 32, 1 << 31]).is_err());
        assert!(IterationSpace::new(&["i"], &[usize::MAX]).is_err());
    }

    #[test]
    fn strides_are_row_major() {
        let space = IterationSpace::new(&["k", "j", "i"], &[4, 8, 16]).unwrap();
        assert_eq!(space.strides(), vec![128, 16, 1]);
        assert_eq!(space.inner_extent(), 16);
        assert_eq!(space.num_cells(), 512);
    }

    #[test]
    fn linearize_matches_paper_examples() {
        // Paper §IV-A: in a 3D iteration space of shape {K, J, I}, accesses
        // a[0,1,0] and a[0,-1,0] are two rows apart (2I elements), while
        // b[0,0,0] and b[1,0,0] are two slices apart (2IJ elements).
        let (k, j, i) = (32, 16, 8);
        let space = IterationSpace::new(&["k", "j", "i"], &[k, j, i]).unwrap();
        let d_rows = space.linearize_offset(&[0, 1, 0]) - space.linearize_offset(&[0, -1, 0]);
        assert_eq!(d_rows, 2 * i as i64);
        let d_slices = space.linearize_offset(&[1, 0, 0]) - space.linearize_offset(&[0, 0, 0]);
        assert_eq!(d_slices, (i * j) as i64);
    }

    #[test]
    fn flat_index_round_trips_with_indices_iterator() {
        let space = IterationSpace::new(&["i", "j"], &[3, 4]).unwrap();
        let all: Vec<Vec<usize>> = space.indices().collect();
        assert_eq!(all.len(), 12);
        for (flat, index) in all.iter().enumerate() {
            assert_eq!(space.flat_index(index), flat);
        }
        assert_eq!(all[0], vec![0, 0]);
        assert_eq!(all[1], vec![0, 1]);
        assert_eq!(all[11], vec![2, 3]);
    }

    #[test]
    fn field_decl_basics() {
        let f = FieldDecl::new(DataType::Float32, &["i", "j", "k"]);
        assert_eq!(f.rank(), 3);
        assert!(!f.is_scalar());
        assert_eq!(f.data_type(), DataType::Float32);
        let s = FieldDecl::new(DataType::Float64, &[]);
        assert!(s.is_scalar());
    }

    #[test]
    fn field_bytes() {
        let space = IterationSpace::new(&["i", "j", "k"], &[128, 128, 80]).unwrap();
        assert_eq!(space.field_bytes(DataType::Float32), 128 * 128 * 80 * 4);
    }

    #[test]
    fn display_shows_dims() {
        let space = IterationSpace::new(&["i", "j", "k"], &[2, 3, 4]).unwrap();
        assert_eq!(space.to_string(), "[i=2, j=3, k=4]");
    }
}
