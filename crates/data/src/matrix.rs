use crate::DataError;
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::OnceLock;

/// Dense row-major matrix of `f64` values.
///
/// [`Matrix`] is the feature container used throughout the workspace. Rows are
/// samples, columns are features. The type deliberately stays small: it offers
/// exactly the operations the hand-rolled learners need (row access, column
/// statistics, transposed products) instead of a full linear-algebra API.
///
/// # Example
///
/// ```
/// use hmd_data::Matrix;
///
/// # fn main() -> Result<(), hmd_data::DataError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.shape(), (2, 2));
/// assert_eq!(m[(1, 0)], 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
    /// Lazily built column-major copy of `data`, serving the fast-fit
    /// training engine. Derived state: built on first [`Matrix::columnar`]
    /// call, reset by clone and by mutable row access, never persisted and
    /// ignored by equality.
    columns: DerivedCache<Vec<f64>>,
    /// Lazily built per-column `total_cmp`-sorted row orders (see
    /// [`Matrix::presorted_rows`]). Same derived-state rules as `columns`.
    sort_orders: DerivedCache<Vec<u32>>,
}

/// Cache cell for state derived from a [`Matrix`]'s data.
///
/// Cloning yields a fresh empty cache (derived state is cheap to rebuild
/// relative to carrying extra full-size copies of the data around), and the
/// cell is ignored by `PartialEq` on [`Matrix`].
#[derive(Debug)]
struct DerivedCache<T>(OnceLock<T>);

impl<T> DerivedCache<T> {
    fn invalidate(&mut self) {
        self.0.take();
    }
}

impl<T> Default for DerivedCache<T> {
    fn default() -> DerivedCache<T> {
        DerivedCache(OnceLock::new())
    }
}

impl<T> Clone for DerivedCache<T> {
    fn clone(&self) -> DerivedCache<T> {
        DerivedCache::default()
    }
}

/// Borrowed column-major view of a [`Matrix`] (see [`Matrix::columnar`]).
///
/// Column `c` is a contiguous `&[f64]` of length [`Matrix::rows`], so sweeps
/// over one feature touch consecutive bytes instead of striding across rows.
#[derive(Debug, Clone, Copy)]
pub struct ColumnarView<'a> {
    data: &'a [f64],
    rows: usize,
}

impl<'a> ColumnarView<'a> {
    /// Column `c` as a contiguous slice, indexed by row.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[inline]
    pub fn col(&self, c: usize) -> &'a [f64] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }

    /// Number of rows in each column.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Borrowed per-column sorted row orders of a [`Matrix`] (see
/// [`Matrix::presorted_rows`]).
#[derive(Debug, Clone, Copy)]
pub struct PresortedView<'a> {
    data: &'a [u32],
    rows: usize,
}

impl<'a> PresortedView<'a> {
    /// Row indices of column `c`, ordered so the column's values ascend in
    /// `f64::total_cmp` order with ties broken by ascending row.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    #[inline]
    pub fn order(&self, c: usize) -> &'a [u32] {
        &self.data[c * self.rows..(c + 1) * self.rows]
    }
}

/// Maps an `f64` to a `u64` whose unsigned order equals `f64::total_cmp`
/// order (the standard sign-flip trick), so sort keys compare branchlessly.
#[inline]
fn total_cmp_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// A borrowed, stride-aware view of a contiguous range of matrix rows.
///
/// `RowsView` is the workspace's zero-copy batch currency: every batch-first
/// inference entry point — [`crate::scaler::StandardScaler::transform`], the
/// flat-engine kernels, `Detector::detect_rows` and the serving fleet — takes
/// a view, so callers can score a whole [`Matrix`], any row range of one
/// ([`Matrix::rows_view`]), or a single borrowed signature
/// ([`RowsView::single`]) without copying rows into a fresh matrix first.
///
/// Row `r` starts at `data[r * stride]` and spans `cols` values. Views built
/// from matrices are contiguous (`stride == cols`); the stride field keeps
/// the type open to padded layouts without changing any signature.
///
/// # Example
///
/// ```
/// use hmd_data::{Matrix, RowsView};
///
/// # fn main() -> Result<(), hmd_data::DataError> {
/// let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]])?;
/// let mid: RowsView<'_> = m.rows_view(1..3);
/// assert_eq!(mid.rows(), 2);
/// assert_eq!(mid.row(0), &[3.0, 4.0]);
/// let whole: RowsView<'_> = (&m).into();
/// assert_eq!(whole.rows(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    /// Distance (in elements) between consecutive row starts; equals `cols`
    /// for contiguous views.
    stride: usize,
}

impl<'a> RowsView<'a> {
    /// A view over one borrowed feature vector — the degenerate 1×d batch.
    /// Single-row scoring paths use this so no per-call matrix is built.
    #[inline]
    pub fn single(row: &'a [f64]) -> RowsView<'a> {
        RowsView {
            data: row,
            rows: 1,
            cols: row.len(),
            stride: row.len(),
        }
    }

    /// Number of rows (samples) in the view.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features) per row.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the view contains no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Borrows row `r` of the view as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &'a [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.stride..r * self.stride + self.cols]
    }

    /// Iterator over the view's rows as slices. Unlike a `chunks`-based walk,
    /// the iterator yields exactly [`RowsView::rows`] items even for
    /// zero-width rows, so batch kernels keep the row-count contract without
    /// resize fix-ups.
    #[inline]
    pub fn iter_rows(&self) -> impl ExactSizeIterator<Item = &'a [f64]> + '_ {
        let view = *self;
        (0..self.rows).map(move |r| view.row(r))
    }

    /// A sub-view over rows `start..end` of this view — still zero-copy.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    pub fn rows_view(&self, range: std::ops::Range<usize>) -> RowsView<'a> {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row range {}..{} out of bounds ({})",
            range.start,
            range.end,
            self.rows
        );
        let rows = range.end - range.start;
        let start = range.start * self.stride;
        let end = if rows == 0 {
            start
        } else {
            (range.end - 1) * self.stride + self.cols
        };
        RowsView {
            data: &self.data[start.min(self.data.len())..end.min(self.data.len()).max(start)],
            rows,
            cols: self.cols,
            stride: self.stride,
        }
    }

    /// The backing buffer as one row-major slice when rows are contiguous
    /// (`stride == cols`), which every view built from a [`Matrix`] is.
    #[inline]
    pub fn as_contiguous(&self) -> Option<&'a [f64]> {
        (self.stride == self.cols).then(|| &self.data[..self.rows * self.cols])
    }

    /// Copies the viewed rows into an owned [`Matrix`].
    pub fn to_matrix(&self) -> Matrix {
        if let Some(data) = self.as_contiguous() {
            return Matrix {
                rows: self.rows,
                cols: self.cols,
                data: data.to_vec(),
                columns: DerivedCache::default(),
                sort_orders: DerivedCache::default(),
            };
        }
        let mut data = Vec::with_capacity(self.rows * self.cols);
        for row in self.iter_rows() {
            data.extend_from_slice(row);
        }
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        }
    }
}

impl<'a> From<&'a Matrix> for RowsView<'a> {
    fn from(matrix: &'a Matrix) -> RowsView<'a> {
        matrix.view()
    }
}

impl<'a> From<&'a mut Matrix> for RowsView<'a> {
    fn from(matrix: &'a mut Matrix) -> RowsView<'a> {
        matrix.view()
    }
}

impl Matrix {
    /// Creates a matrix of zeros with the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        }
    }

    /// Creates a matrix filled with a constant value.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        }
    }

    /// Builds a matrix from a flat row-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when `data.len() != rows * cols`,
    /// and when `rows * cols` overflows (a shape read from a document can ask
    /// for any product).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Matrix, DataError> {
        let cells = rows.checked_mul(cols);
        if cells != Some(data.len()) {
            return Err(DataError::DimensionMismatch {
                context: "matrix buffer length",
                expected: cells.unwrap_or(usize::MAX),
                found: data.len(),
            });
        }
        Ok(Matrix {
            rows,
            cols,
            data,
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        })
    }

    /// Builds a matrix from a slice of equally sized rows.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::Empty`] when `rows` is empty and
    /// [`DataError::RaggedRows`] when rows have unequal lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Matrix, DataError> {
        if rows.is_empty() {
            return Err(DataError::Empty {
                context: "matrix rows",
            });
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            if row.len() != cols {
                return Err(DataError::RaggedRows {
                    expected: cols,
                    found: row.len(),
                    row: i,
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        })
    }

    /// Number of rows (samples).
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (features).
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix has no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        assert!(r < self.rows, "row index {r} out of bounds ({})", self.rows);
        self.columns.invalidate();
        self.sort_orders.invalidate();
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies column `c` into a new vector.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.cols()`.
    pub fn column(&self, c: usize) -> Vec<f64> {
        assert!(
            c < self.cols,
            "column index {c} out of bounds ({})",
            self.cols
        );
        (0..self.rows)
            .map(|r| self.data[r * self.cols + c])
            .collect()
    }

    /// Iterator over rows as slices.
    #[inline]
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Borrowed view of every row — the zero-copy currency of the batch
    /// inference entry points. Equivalent to `RowsView::from(self)`.
    #[inline]
    pub fn view(&self) -> RowsView<'_> {
        RowsView {
            data: &self.data,
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
        }
    }

    /// Borrowed view of rows `start..end`, so any row range of an existing
    /// matrix can be scored without copying it into a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if `start > end` or `end > self.rows()`.
    #[inline]
    pub fn rows_view(&self, range: std::ops::Range<usize>) -> RowsView<'_> {
        self.view().rows_view(range)
    }

    /// Column-major view of the matrix, built lazily on first use and cached.
    ///
    /// The cache is derived state — rebuilt on demand after cloning or
    /// mutation, never persisted — and is shared by every borrower of the
    /// matrix, which is what lets zero-copy bootstrap replicates of one
    /// training set reuse a single transposed copy. Building it costs one
    /// pass over the data; every later call is a pointer read.
    pub fn columnar(&self) -> ColumnarView<'_> {
        let data = self.columns.0.get_or_init(|| {
            let mut buf = vec![0.0; self.data.len()];
            for (r, row) in self.iter_rows().enumerate() {
                for (c, &v) in row.iter().enumerate() {
                    buf[c * self.rows + r] = v;
                }
            }
            buf
        });
        ColumnarView {
            data,
            rows: self.rows,
        }
    }

    /// Per-column row orders sorted by `f64::total_cmp` (ties broken by
    /// ascending row index), built lazily on first use and cached.
    ///
    /// This is the presort behind the fast-fit training engine: every tree
    /// grown on this matrix — including every zero-copy bootstrap replicate —
    /// derives its per-feature sorted index arrays from this one shared sort
    /// with a linear gather, so the `O(rows log rows)` sorting cost is paid
    /// once per column per matrix, not once per candidate feature per tree
    /// node. Derived state like [`Matrix::columnar`]: rebuilt on demand
    /// after cloning or mutation, never persisted, ignored by equality.
    ///
    /// # Panics
    ///
    /// Panics if the matrix has more than `u32::MAX` rows (the orders are
    /// stored as `u32` indices).
    pub fn presorted_rows(&self) -> PresortedView<'_> {
        let data = self.sort_orders.0.get_or_init(|| {
            assert!(
                u32::try_from(self.rows).is_ok(),
                "presorted row orders require at most u32::MAX rows"
            );
            let cols = self.columnar();
            let mut orders = Vec::with_capacity(self.data.len());
            // (total_cmp key, row) pairs sort with plain integer compares;
            // the row component makes the unstable sort deterministic and
            // reproduces stable-sort tie order.
            let mut keyed: Vec<(u64, u32)> = Vec::with_capacity(self.rows);
            for c in 0..self.cols {
                keyed.clear();
                keyed.extend(
                    cols.col(c)
                        .iter()
                        .enumerate()
                        .map(|(r, &v)| (total_cmp_key(v), r as u32)),
                );
                keyed.sort_unstable();
                orders.extend(keyed.iter().map(|&(_, r)| r));
            }
            orders
        });
        PresortedView {
            data,
            rows: self.rows,
        }
    }

    /// Flat row-major view of the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Consumes the matrix and returns the underlying row-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Builds a new matrix containing only the rows selected by `indices`
    /// (indices may repeat, which is exactly what bootstrap resampling needs).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        }
    }

    /// Builds a new matrix containing only the columns selected by `indices`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_columns(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.rows);
        for r in 0..self.rows {
            let row = self.row(r);
            for &c in indices {
                assert!(
                    c < self.cols,
                    "column index {c} out of bounds ({})",
                    self.cols
                );
                data.push(row[c]);
            }
        }
        Matrix {
            rows: self.rows,
            cols: indices.len(),
            data,
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        }
    }

    /// Per-column mean values.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        if self.rows == 0 {
            return means;
        }
        for row in self.iter_rows() {
            for (m, v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= self.rows as f64;
        }
        means
    }

    /// Per-column population standard deviations.
    pub fn column_stds(&self) -> Vec<f64> {
        let means = self.column_means();
        let mut vars = vec![0.0; self.cols];
        if self.rows == 0 {
            return vars;
        }
        for row in self.iter_rows() {
            for ((v, x), m) in vars.iter_mut().zip(row).zip(&means) {
                let d = x - m;
                *v += d * d;
            }
        }
        vars.iter().map(|v| (v / self.rows as f64).sqrt()).collect()
    }

    /// Per-column minimum values.
    pub fn column_mins(&self) -> Vec<f64> {
        let mut mins = vec![f64::INFINITY; self.cols];
        for row in self.iter_rows() {
            for (m, v) in mins.iter_mut().zip(row) {
                if *v < *m {
                    *m = *v;
                }
            }
        }
        mins
    }

    /// Per-column maximum values.
    pub fn column_maxs(&self) -> Vec<f64> {
        let mut maxs = vec![f64::NEG_INFINITY; self.cols];
        for row in self.iter_rows() {
            for (m, v) in maxs.iter_mut().zip(row) {
                if *v > *m {
                    *m = *v;
                }
            }
        }
        maxs
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out[(c, r)] = self[(r, c)];
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the inner dimensions do
    /// not agree.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix, DataError> {
        if self.cols != other.rows {
            return Err(DataError::DimensionMismatch {
                context: "matrix product inner dimension",
                expected: self.cols,
                found: other.rows,
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                for c in 0..other.cols {
                    out[(r, c)] += a * other[(k, c)];
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product `self * v`.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when `v.len() != self.cols()`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, DataError> {
        if v.len() != self.cols {
            return Err(DataError::DimensionMismatch {
                context: "matrix-vector product",
                expected: self.cols,
                found: v.len(),
            });
        }
        Ok(self
            .iter_rows()
            .map(|row| row.iter().zip(v).map(|(a, b)| a * b).sum())
            .collect())
    }

    /// Appends another matrix's rows below this one.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the column counts differ.
    pub fn vstack(&self, other: &Matrix) -> Result<Matrix, DataError> {
        if self.cols != other.cols {
            return Err(DataError::DimensionMismatch {
                context: "vertical stack column count",
                expected: self.cols,
                found: other.cols,
            });
        }
        let mut data = self.data.clone();
        data.extend_from_slice(&other.data);
        Ok(Matrix {
            rows: self.rows + other.rows,
            cols: self.cols,
            data,
            columns: DerivedCache::default(),
            sort_orders: DerivedCache::default(),
        })
    }
}

impl PartialEq for Matrix {
    /// Shape and element equality; the lazily built column cache is derived
    /// state and deliberately ignored.
    fn eq(&self, other: &Matrix) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

impl JsonCodec for Matrix {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("rows", self.rows.to_json()),
            ("cols", self.cols.to_json()),
            ("data", self.data.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<Matrix, CodecError> {
        let (mut rows, mut cols, mut data) = (None, None, None);
        parser.object(["rows", "cols", "data"], |parser, key| {
            match key {
                0 => rows = Some(parser.usize()?),
                1 => cols = Some(parser.usize()?),
                _ => data = Some(Vec::decode(parser)?),
            }
            Ok(())
        })?;
        let (rows, cols) = (required(rows, "rows")?, required(cols, "cols")?);
        Matrix::from_vec(rows, cols, required(data, "data")?)
            .map_err(|err| CodecError::new(format!("matrix: {err}")))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r}, {c}) out of bounds"
        );
        self.columns.invalidate();
        self.sort_orders.invalidate();
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{}", self.rows, self.cols)?;
        for row in self.iter_rows().take(8) {
            let cells: Vec<String> = row.iter().take(8).map(|v| format!("{v:9.4}")).collect();
            writeln!(f, "  [{}]", cells.join(", "))?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).expect("valid rows")
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).unwrap_err();
        assert!(matches!(err, DataError::RaggedRows { row: 1, .. }));
    }

    #[test]
    fn from_vec_checks_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0; 3]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
        // A shape whose product overflows is rejected, even when the product
        // wraps around to the buffer's length.
        assert!(Matrix::from_vec(3, usize::MAX / 2, vec![1.0; 6]).is_err());
        assert!(Matrix::from_vec(4, usize::MAX / 4 + 3, vec![1.0; 8]).is_err());
    }

    #[test]
    fn shape_and_indexing() {
        let m = sample();
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(0, 2)], 3.0);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column(1), vec![2.0, 5.0]);
    }

    #[test]
    fn column_statistics() {
        let m = sample();
        assert_eq!(m.column_means(), vec![2.5, 3.5, 4.5]);
        assert_eq!(m.column_mins(), vec![1.0, 2.0, 3.0]);
        assert_eq!(m.column_maxs(), vec![4.0, 5.0, 6.0]);
        let stds = m.column_stds();
        for s in stds {
            assert!((s - 1.5).abs() < 1e-12);
        }
    }

    #[test]
    fn select_rows_allows_repeats() {
        let m = sample();
        let picked = m.select_rows(&[1, 1, 0]);
        assert_eq!(picked.rows(), 3);
        assert_eq!(picked.row(0), &[4.0, 5.0, 6.0]);
        assert_eq!(picked.row(2), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn select_columns_projects() {
        let m = sample();
        let picked = m.select_columns(&[2, 0]);
        assert_eq!(picked.shape(), (2, 2));
        assert_eq!(picked.row(0), &[3.0, 1.0]);
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = a.transpose(); // 3x2
        let prod = a.matmul(&b).expect("conformant");
        assert_eq!(prod.shape(), (2, 2));
        assert_eq!(prod[(0, 0)], 14.0);
        assert_eq!(prod[(0, 1)], 32.0);
        assert_eq!(prod[(1, 1)], 77.0);
    }

    #[test]
    fn matmul_rejects_mismatched_shapes() {
        let a = sample();
        assert!(a.matmul(&sample()).is_err());
    }

    #[test]
    fn matvec_matches_hand_computation() {
        let m = sample();
        let v = m.matvec(&[1.0, 0.0, -1.0]).expect("conformant");
        assert_eq!(v, vec![-2.0, -2.0]);
    }

    #[test]
    fn vstack_concatenates_rows() {
        let m = sample();
        let stacked = m.vstack(&m).expect("same width");
        assert_eq!(stacked.shape(), (4, 3));
        assert_eq!(stacked.row(3), m.row(1));
    }

    #[test]
    fn display_is_not_empty() {
        let text = sample().to_string();
        assert!(text.contains("Matrix 2x3"));
    }

    #[test]
    fn columnar_view_matches_column_copies() {
        let m = sample();
        let view = m.columnar();
        assert_eq!(view.rows(), 2);
        for c in 0..m.cols() {
            assert_eq!(view.col(c), m.column(c).as_slice());
        }
        // A second call serves the cached buffer and agrees with the first.
        let again = m.columnar();
        assert_eq!(again.col(0), view.col(0));
    }

    #[test]
    fn columnar_cache_is_invalidated_by_mutation() {
        let mut m = sample();
        assert_eq!(m.columnar().col(0), &[1.0, 4.0]);
        m.row_mut(0)[0] = 9.0;
        assert_eq!(m.columnar().col(0), &[9.0, 4.0]);
        m[(1, 0)] = -3.0;
        assert_eq!(m.columnar().col(0), &[9.0, -3.0]);
    }

    #[test]
    fn columnar_cache_is_ignored_by_equality_and_reset_by_clone() {
        let a = sample();
        let b = sample();
        let _ = a.columnar();
        assert_eq!(a, b, "cache state must not affect equality");
        let c = a.clone();
        assert_eq!(c.columnar().col(2), &[3.0, 6.0]);
    }

    #[test]
    fn presorted_rows_sort_each_column_with_stable_ties() {
        let m = Matrix::from_rows(&[
            vec![3.0, 1.0],
            vec![1.0, 1.0],
            vec![2.0, 1.0],
            vec![1.0, 0.0],
        ])
        .unwrap();
        let view = m.presorted_rows();
        // Column 0: values [3,1,2,1] -> rows 1 and 3 tie at 1.0, ascending
        // row order breaks the tie.
        assert_eq!(view.order(0), &[1, 3, 2, 0]);
        // Column 1: three-way tie at 1.0 keeps ascending rows.
        assert_eq!(view.order(1), &[3, 0, 1, 2]);
    }

    #[test]
    fn presorted_rows_order_special_values_like_total_cmp() {
        let m = Matrix::from_rows(&[
            vec![0.0],
            vec![f64::NEG_INFINITY],
            vec![-0.0],
            vec![f64::INFINITY],
            vec![-1.5],
        ])
        .unwrap();
        // total_cmp: -inf < -1.5 < -0.0 < +0.0 < +inf.
        assert_eq!(m.presorted_rows().order(0), &[1, 4, 2, 0, 3]);
    }

    #[test]
    fn presorted_rows_cache_is_invalidated_by_mutation() {
        let mut m = Matrix::from_rows(&[vec![2.0], vec![1.0]]).unwrap();
        assert_eq!(m.presorted_rows().order(0), &[1, 0]);
        m.row_mut(1)[0] = 5.0;
        assert_eq!(m.presorted_rows().order(0), &[0, 1]);
    }

    #[test]
    fn rows_view_borrows_ranges_without_copying() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let whole = m.view();
        assert_eq!(whole.shape(), (3, 2));
        assert!(!whole.is_empty());
        assert_eq!(whole.row(2), &[5.0, 6.0]);
        assert_eq!(whole.as_contiguous(), Some(m.as_slice()));

        let mid = m.rows_view(1..3);
        assert_eq!(mid.rows(), 2);
        assert_eq!(mid.cols(), 2);
        assert_eq!(mid.row(0), m.row(1));
        let collected: Vec<&[f64]> = mid.iter_rows().collect();
        assert_eq!(collected, vec![m.row(1), m.row(2)]);

        // Sub-views of sub-views still index into the original buffer.
        let last = mid.rows_view(1..2);
        assert_eq!(last.row(0), m.row(2));
        assert_eq!(last.to_matrix().row(0), m.row(2));
    }

    #[test]
    fn rows_view_single_wraps_a_borrowed_signature() {
        let signature = [0.25, 0.5, 0.75];
        let view = RowsView::single(&signature);
        assert_eq!(view.shape(), (1, 3));
        assert_eq!(view.row(0), &signature);
        assert_eq!(view.iter_rows().len(), 1);
        assert_eq!(
            view.to_matrix(),
            Matrix::from_rows(&[signature.to_vec()]).unwrap()
        );
    }

    #[test]
    fn rows_view_handles_empty_ranges_and_zero_width_rows() {
        let m = sample();
        let none = m.rows_view(1..1);
        assert!(none.is_empty());
        assert_eq!(none.iter_rows().count(), 0);
        assert_eq!(none.to_matrix().shape(), (0, 3));

        let wide = Matrix::zeros(4, 0);
        let view = wide.view();
        assert_eq!(view.rows(), 4);
        assert_eq!(view.iter_rows().count(), 4, "zero-width rows still count");
        assert!(view.iter_rows().all(|row| row.is_empty()));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn rows_view_rejects_out_of_range() {
        let m = sample();
        let _ = m.rows_view(1..5);
    }

    #[test]
    fn columnar_view_handles_degenerate_shapes() {
        let empty = Matrix::zeros(0, 4);
        assert_eq!(empty.columnar().col(3), &[] as &[f64]);
        let single = Matrix::from_rows(&[vec![7.0]]).unwrap();
        assert_eq!(single.columnar().col(0), &[7.0]);
    }
}
