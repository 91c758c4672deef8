//! Dense grids over (subsets of) the iteration space.

use std::fmt;
use stencilflow_expr::{DataType, Value};

/// Why [`Grid::try_zeros`] cannot allocate a grid of the given shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GridShapeError {
    /// `dims` and `shape` have different lengths.
    RankMismatch {
        /// Number of dimension names.
        dims: usize,
        /// Rank of the shape.
        shape: usize,
    },
    /// The element count, its byte size or a stride overflows `usize`.
    Overflow {
        /// The shape asked for.
        shape: Vec<usize>,
    },
}

impl fmt::Display for GridShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GridShapeError::RankMismatch { dims, shape } => write!(
                f,
                "dims/shape rank mismatch: {dims} dimension names for shape of rank {shape}"
            ),
            GridShapeError::Overflow { shape } => write!(
                f,
                "grid shape {shape:?} overflows the addressable element count \
                 on this platform; reject or split the domain before allocating"
            ),
        }
    }
}

/// A dense row-major array spanning a subset of the iteration-space
/// dimensions.
///
/// Values are stored as `f64` and rounded through the grid's element type on
/// every store, so an `f32` grid holds exactly the values an `f32` hardware
/// pipeline would produce. Scalars are rank-0 grids with a single element.
#[derive(Debug, Clone, PartialEq)]
pub struct Grid {
    dims: Vec<String>,
    shape: Vec<usize>,
    strides: Vec<usize>,
    dtype: DataType,
    data: Vec<f64>,
}

impl Grid {
    /// Create a zero-initialized grid.
    ///
    /// # Panics
    ///
    /// Panics if `dims` and `shape` have different lengths, or if the
    /// dimension product overflows `usize` (see `Grid::try_zeros` for the
    /// non-panicking ingest-path variant).
    pub fn zeros(dims: &[&str], shape: &[usize], dtype: DataType) -> Self {
        match Grid::try_zeros(dims, shape, dtype) {
            Ok(grid) => grid,
            Err(error) => panic!("{error}"),
        }
    }

    /// Create a zero-initialized grid, reporting invalid shapes as an error
    /// instead of panicking.
    ///
    /// Untrusted program descriptions reach grid allocation before any
    /// workload runs, so a hostile or corrupt shape like
    /// `[2^40, 2^40, 2^40]` must surface as an actionable error here — not
    /// as a `usize` overflow panic (or an absurd allocation attempt) deep
    /// inside the executor.
    ///
    /// # Errors
    ///
    /// Returns [`GridShapeError::RankMismatch`] when `dims` and `shape`
    /// disagree in rank, and [`GridShapeError::Overflow`] when the element
    /// count (dimension product, including the byte size of the backing
    /// `f64` storage) overflows `usize`.
    pub(crate) fn try_zeros(
        dims: &[&str],
        shape: &[usize],
        dtype: DataType,
    ) -> Result<Self, GridShapeError> {
        if dims.len() != shape.len() {
            return Err(GridShapeError::RankMismatch {
                dims: dims.len(),
                shape: shape.len(),
            });
        }
        let overflow = || GridShapeError::Overflow {
            shape: shape.to_vec(),
        };
        let mut len: usize = 1;
        for &extent in shape {
            len = len.checked_mul(extent).ok_or_else(overflow)?;
        }
        // The backing store holds f64 words: the byte size must be
        // addressable too, or `vec!` aborts instead of erroring.
        len.checked_mul(std::mem::size_of::<f64>())
            .ok_or_else(overflow)?;
        let len = len.max(1);
        // Suffix products can overflow even when the full product does not
        // (a zero extent masks arbitrarily large trailing dimensions), so
        // the stride computation is checked as well.
        let mut strides = vec![1usize; shape.len()];
        for d in (0..shape.len().saturating_sub(1)).rev() {
            strides[d] = strides[d + 1]
                .checked_mul(shape[d + 1])
                .ok_or_else(overflow)?;
        }
        Ok(Grid {
            dims: dims.iter().map(|d| d.to_string()).collect(),
            shape: shape.to_vec(),
            strides,
            dtype,
            data: vec![0.0; len],
        })
    }

    /// Create a rank-0 (scalar) grid holding one value.
    pub fn scalar(value: f64, dtype: DataType) -> Self {
        let mut grid = Grid::zeros(&[], &[], dtype);
        grid.data[0] = Value::from_f64(value, dtype).as_f64();
        grid
    }

    /// Create a `float32` grid from explicit values (row-major; every value
    /// is rounded through `f32` on the way in). Use
    /// [`Grid::from_values_typed`] for any other element type.
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the shape.
    pub fn from_values(dims: &[&str], shape: &[usize], values: &[f64]) -> Self {
        Grid::from_values_typed(dims, shape, DataType::Float32, values)
    }

    /// Create a grid of the given element type from explicit values
    /// (row-major; every value is rounded through the element type).
    ///
    /// # Panics
    ///
    /// Panics if the number of values does not match the shape.
    pub fn from_values_typed(
        dims: &[&str],
        shape: &[usize],
        dtype: DataType,
        values: &[f64],
    ) -> Self {
        let mut grid = Grid::zeros(dims, shape, dtype);
        assert_eq!(
            values.len(),
            grid.data.len(),
            "value count does not match shape"
        );
        for (slot, &v) in grid.data.iter_mut().zip(values.iter()) {
            *slot = Value::from_f64(v, dtype).as_f64();
        }
        grid
    }

    /// Wrap an owned, already-populated cell buffer as a grid without
    /// copying (service-tier internal: the buffer typically comes from the
    /// executor's pool, and the values must already be rounded through
    /// `dtype`).
    ///
    /// # Panics
    ///
    /// Panics if `dims` and `shape` disagree in rank or the buffer length
    /// does not match the shape.
    pub(crate) fn from_data(
        dims: &[&str],
        shape: &[usize],
        dtype: DataType,
        data: Vec<f64>,
    ) -> Self {
        assert_eq!(dims.len(), shape.len(), "rank mismatch");
        // Matches `try_zeros`: rank-0 and zero-extent grids store one slot.
        let num_cells: usize = shape.iter().product::<usize>().max(1);
        assert_eq!(data.len(), num_cells, "buffer length does not match shape");
        let mut strides = vec![1usize; shape.len()];
        for ix in (0..shape.len().saturating_sub(1)).rev() {
            strides[ix] = strides[ix + 1] * shape[ix + 1];
        }
        Grid {
            dims: dims.iter().map(|d| d.to_string()).collect(),
            shape: shape.to_vec(),
            strides,
            dtype,
            data,
        }
    }

    /// Take the backing cell buffer out of the grid (service-tier
    /// internal: returns the buffer to the executor's pool).
    pub(crate) fn into_data(self) -> Vec<f64> {
        self.data
    }

    /// Create a grid by evaluating `f` at every index, rounding each value
    /// through the element type.
    ///
    /// `f` is called exactly once per cell, in row-major order (the last
    /// dimension fastest): once with the empty index for a rank-0 grid,
    /// never for a grid with a zero extent. That order is the contract a
    /// stateful `f` relies on — [`crate::generate_inputs`] draws one random
    /// number per call, so a seed reproduces its grids only as long as the
    /// order holds.
    pub fn from_fn(
        dims: &[&str],
        shape: &[usize],
        dtype: DataType,
        mut f: impl FnMut(&[usize]) -> f64,
    ) -> Self {
        let mut grid = Grid::zeros(dims, shape, dtype);
        let cells: usize = shape.iter().product();
        let mut index = vec![0usize; shape.len()];
        for slot in &mut grid.data[..cells] {
            *slot = Value::from_f64(f(&index), dtype).as_f64();
            // Step to the next row-major index, carrying outward.
            for (ix, &extent) in index.iter_mut().zip(shape).rev() {
                *ix += 1;
                if *ix < extent {
                    break;
                }
                *ix = 0;
            }
        }
        grid
    }

    /// Dimension names of the grid.
    pub fn dims(&self) -> &[String] {
        &self.dims
    }

    /// Shape of the grid.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Element data type.
    pub fn data_type(&self) -> DataType {
        self.dtype
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.dims.len()
    }

    /// Raw data slice (row-major).
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable raw data slice (row-major). Values written here bypass the
    /// element-type rounding of [`Grid::set`]; callers (the compiled
    /// execution plan) must round through [`Value::from_f64`] themselves.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Row-major strides (elements) of each dimension.
    pub fn strides(&self) -> &[usize] {
        &self.strides
    }

    /// Flat row-major index of a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics on rank mismatch or out-of-bounds indices.
    pub(crate) fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        index
            .iter()
            .zip(self.strides.iter())
            .zip(self.shape.iter())
            .map(|((&ix, &stride), &extent)| {
                assert!(ix < extent, "index {ix} out of bounds for extent {extent}");
                ix * stride
            })
            .sum()
    }

    /// Read the value at `index`.
    pub fn get(&self, index: &[usize]) -> f64 {
        self.data[self.flat_index(index)]
    }

    /// Read the value at `index` as a typed [`Value`].
    pub(crate) fn get_value(&self, index: &[usize]) -> Value {
        Value::from_f64(self.get(index), self.dtype)
    }

    /// Write the value at `index`, rounding through the element type.
    pub fn set(&mut self, index: &[usize], value: f64) {
        let flat = self.flat_index(index);
        self.data[flat] = Value::from_f64(value, self.dtype).as_f64();
    }

    /// Read at a signed index; returns `None` when any coordinate falls
    /// outside the grid (the caller applies the boundary condition).
    pub(crate) fn get_checked(&self, index: &[i64]) -> Option<f64> {
        if index.len() != self.rank() {
            return None;
        }
        let mut flat = 0usize;
        for ((&ix, &stride), &extent) in
            index.iter().zip(self.strides.iter()).zip(self.shape.iter())
        {
            if ix < 0 || ix as usize >= extent {
                return None;
            }
            flat += ix as usize * stride;
        }
        Some(self.data[flat])
    }

    /// Maximum absolute difference to another grid of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Grid) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch");
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether every element is within `tol` of the corresponding element of
    /// `other`, relative to the larger magnitude (and absolutely for small
    /// values).
    pub fn approx_eq(&self, other: &Grid, tol: f64) -> bool {
        if self.shape != other.shape {
            return false;
        }
        self.data.iter().zip(other.data.iter()).all(|(a, b)| {
            let scale = a.abs().max(b.abs()).max(1.0);
            (a - b).abs() <= tol * scale
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_set_get() {
        let mut g = Grid::zeros(&["i", "j"], &[2, 3], DataType::Float32);
        assert_eq!(g.as_slice().len(), 6);
        assert_eq!(g.rank(), 2);
        g.set(&[1, 2], 5.5);
        assert_eq!(g.get(&[1, 2]), 5.5);
        assert_eq!(g.get(&[0, 0]), 0.0);
    }

    #[test]
    fn f32_rounding_on_store() {
        let mut g = Grid::zeros(&["i"], &[1], DataType::Float32);
        g.set(&[0], 1.0 + 1e-12);
        assert_eq!(g.get(&[0]), 1.0);
        let mut g64 = Grid::zeros(&["i"], &[1], DataType::Float64);
        g64.set(&[0], 1.0 + 1e-12);
        assert!(g64.get(&[0]) > 1.0);
    }

    #[test]
    fn scalar_grid() {
        let g = Grid::scalar(3.25, DataType::Float32);
        assert_eq!(g.rank(), 0);
        assert_eq!(g.as_slice().len(), 1);
        assert_eq!(g.get(&[]), 3.25);
        let mut calls = Vec::new();
        Grid::from_fn(&[], &[], DataType::Float32, |ix| {
            calls.push(ix.to_vec());
            0.0
        });
        assert_eq!(calls, vec![Vec::<usize>::new()]);
    }

    #[test]
    fn from_values_typed_rounds_through_element_type() {
        let precise = 1.0 + 1e-12;
        let f32_grid = Grid::from_values(&["i"], &[1], &[precise]);
        assert_eq!(f32_grid.data_type(), DataType::Float32);
        assert_eq!(f32_grid.get(&[0]), 1.0);
        let f64_grid = Grid::from_values_typed(&["i"], &[1], DataType::Float64, &[precise]);
        assert_eq!(f64_grid.data_type(), DataType::Float64);
        assert_eq!(f64_grid.get(&[0]), precise);
        let int_grid = Grid::from_values_typed(&["i"], &[2], DataType::Int32, &[3.7, -1.2]);
        assert_eq!(int_grid.as_slice(), &[3.0, -1.0]);
    }

    #[test]
    fn checked_access_detects_out_of_bounds() {
        let g = Grid::from_values(&["i"], &[3], &[1.0, 2.0, 3.0]);
        assert_eq!(g.get_checked(&[0]), Some(1.0));
        assert_eq!(g.get_checked(&[2]), Some(3.0));
        assert_eq!(g.get_checked(&[-1]), None);
        assert_eq!(g.get_checked(&[3]), None);
    }

    #[test]
    fn indices_are_row_major() {
        // The indices `from_fn` hands its closure, one call per cell.
        let mut calls = Vec::new();
        let g = Grid::from_fn(&["i", "j", "k"], &[2, 3, 2], DataType::Float32, |ix| {
            calls.push(ix.to_vec());
            calls.len() as f64
        });
        assert_eq!(calls[..4], [[0, 0, 0], [0, 0, 1], [0, 1, 0], [0, 1, 1]]);
        assert_eq!(calls.len(), 12);
        for (flat, index) in calls.iter().enumerate() {
            assert_eq!(g.flat_index(index), flat);
            assert_eq!(g.as_slice()[flat], (flat + 1) as f64);
        }
        Grid::from_fn(&["i", "j"], &[3, 0], DataType::Float32, |_| unreachable!());
    }

    #[test]
    fn overflowing_shapes_are_rejected_with_an_actionable_error() {
        // The element-count product of these extents exceeds usize::MAX on
        // every supported platform.
        let huge = 1usize << 40;
        let err = Grid::try_zeros(&["i", "j", "k"], &[huge, huge, huge], DataType::Float32)
            .unwrap_err()
            .to_string();
        assert!(err.contains("overflows"), "unexpected message: {err}");
        assert!(
            err.contains("1099511627776"),
            "message names the shape: {err}"
        );
        // The byte size of the f64 backing store is guarded too: an element
        // count that fits usize but whose 8x byte size does not is rejected.
        let err = Grid::try_zeros(
            &["i", "j"],
            &[1usize << 32, 1usize << 31],
            DataType::Float64,
        )
        .unwrap_err();
        assert!(
            matches!(err, GridShapeError::Overflow { .. }),
            "unexpected error: {err}"
        );
        // A zero extent must not let arbitrarily large trailing dimensions
        // overflow the stride computation.
        assert!(Grid::try_zeros(&["i", "j", "k"], &[0, huge, huge], DataType::Float32).is_err());
        // Rank mismatches surface as errors on the fallible path.
        assert_eq!(
            Grid::try_zeros(&["i"], &[2, 2], DataType::Float32).unwrap_err(),
            GridShapeError::RankMismatch { dims: 1, shape: 2 }
        );
        // Ordinary shapes are unaffected.
        let grid = Grid::try_zeros(&["i", "j"], &[3, 4], DataType::Float32).unwrap();
        assert_eq!(grid.as_slice().len(), 12);
    }

    #[test]
    fn shape_errors_print_their_text() {
        assert_eq!(
            GridShapeError::RankMismatch { dims: 1, shape: 2 }.to_string(),
            "dims/shape rank mismatch: 1 dimension names for shape of rank 2"
        );
        assert_eq!(
            GridShapeError::Overflow {
                shape: vec![1 << 40, 3]
            }
            .to_string(),
            "grid shape [1099511627776, 3] overflows the addressable element count \
             on this platform; reject or split the domain before allocating"
        );
    }

    #[test]
    fn from_fn_and_comparisons() {
        let a = Grid::from_fn(&["i"], &[4], DataType::Float64, |ix| ix[0] as f64);
        let mut b = a.clone();
        assert_eq!(a.max_abs_diff(&b), 0.0);
        assert!(a.approx_eq(&b, 1e-12));
        b.set(&[2], 2.5);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert!(!a.approx_eq(&b, 1e-3));
    }
}
