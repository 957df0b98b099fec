//! Feature scaling.
//!
//! Both HMD pipelines standardise features before dimensionality reduction and
//! classification (Fig. 1 of the paper). [`StandardScaler`] centres every
//! column to zero mean / unit variance, [`MinMaxScaler`] maps every column to
//! `[0, 1]`.

use crate::{DataError, Dataset, Matrix, RowsView};
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use serde::{Deserialize, Serialize};

/// Zero-mean / unit-variance standardisation fitted on a training matrix.
///
/// Columns with zero variance are left centred but unscaled so that constant
/// features do not produce NaNs.
///
/// # Example
///
/// ```
/// use hmd_data::{Matrix, scaler::StandardScaler};
///
/// # fn main() -> Result<(), hmd_data::DataError> {
/// let train = Matrix::from_rows(&[vec![0.0], vec![2.0]])?;
/// let scaler = StandardScaler::fit(&train);
/// let scaled = scaler.transform(&train)?;
/// assert!((scaled[(0, 0)] + 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl StandardScaler {
    /// Fits the scaler to the columns of `matrix`.
    pub fn fit(matrix: &Matrix) -> StandardScaler {
        let means = matrix.column_means();
        let stds = matrix
            .column_stds()
            .into_iter()
            .map(|s| if s > 1e-12 { s } else { 1.0 })
            .collect();
        StandardScaler { means, stds }
    }

    /// Fitted per-column means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Fitted per-column standard deviations (zero-variance columns report 1).
    pub fn stds(&self) -> &[f64] {
        &self.stds
    }

    /// Applies the fitted transform to a batch of rows — a whole matrix, a
    /// borrowed row range ([`Matrix::rows_view`]) or a single-signature view.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the column count differs
    /// from the fitted one.
    pub fn transform<'a>(&self, batch: impl Into<RowsView<'a>>) -> Result<Matrix, DataError> {
        let batch = batch.into();
        if batch.cols() != self.means.len() {
            return Err(DataError::DimensionMismatch {
                context: "scaler feature count",
                expected: self.means.len(),
                found: batch.cols(),
            });
        }
        // Single pass: read each source row once, write each scaled value
        // once (no clone-then-mutate double traversal on the batch path).
        let mut data = Vec::with_capacity(batch.rows() * batch.cols());
        for row in batch.iter_rows() {
            data.extend(
                row.iter()
                    .zip(self.means.iter().zip(&self.stds))
                    .map(|(v, (mean, std))| (v - mean) / std),
            );
        }
        Matrix::from_vec(batch.rows(), batch.cols(), data)
    }

    /// Applies the inverse of the fitted transform.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the column count differs
    /// from the fitted one.
    pub fn inverse_transform(&self, matrix: &Matrix) -> Result<Matrix, DataError> {
        if matrix.cols() != self.means.len() {
            return Err(DataError::DimensionMismatch {
                context: "scaler feature count",
                expected: self.means.len(),
                found: matrix.cols(),
            });
        }
        let mut data = Vec::with_capacity(matrix.rows() * matrix.cols());
        for row in matrix.iter_rows() {
            data.extend(
                row.iter()
                    .zip(self.means.iter().zip(&self.stds))
                    .map(|(v, (mean, std))| v * std + mean),
            );
        }
        Matrix::from_vec(matrix.rows(), matrix.cols(), data)
    }

    /// Transforms a single feature vector in place.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the length differs from
    /// the fitted column count.
    pub fn transform_row(&self, row: &mut [f64]) -> Result<(), DataError> {
        if row.len() != self.means.len() {
            return Err(DataError::DimensionMismatch {
                context: "scaler feature count",
                expected: self.means.len(),
                found: row.len(),
            });
        }
        for (v, (mean, std)) in row.iter_mut().zip(self.means.iter().zip(&self.stds)) {
            *v = (*v - mean) / std;
        }
        Ok(())
    }

    /// Convenience: fits on the dataset's features and returns the scaled
    /// dataset alongside the fitted scaler.
    ///
    /// # Errors
    ///
    /// Propagates dataset reconstruction errors (which cannot occur for a
    /// well-formed input).
    pub fn fit_dataset(dataset: &Dataset) -> Result<(StandardScaler, Dataset), DataError> {
        let scaler = StandardScaler::fit(dataset.features());
        let scaled = scaler.transform_dataset(dataset)?;
        Ok((scaler, scaled))
    }

    /// Applies the fitted transform to a dataset, preserving labels, names and
    /// metadata.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the feature count differs
    /// from the fitted one.
    pub fn transform_dataset(&self, dataset: &Dataset) -> Result<Dataset, DataError> {
        let features = self.transform(dataset.features())?;
        let mut ds = if dataset.meta().len() == dataset.len() {
            Dataset::with_meta(features, dataset.labels().to_vec(), dataset.meta().to_vec())?
        } else {
            Dataset::new(features, dataset.labels().to_vec())?
        };
        ds.set_feature_names(dataset.feature_names().iter().cloned())?;
        Ok(ds)
    }
}

impl JsonCodec for StandardScaler {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("means", self.means.to_json()),
            ("stds", self.stds.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<StandardScaler, CodecError> {
        let (mut means, mut stds) = (None, None);
        parser.object(["means", "stds"], |parser, key| {
            match key {
                0 => means = Some(Vec::decode(parser)?),
                _ => stds = Some(Vec::decode(parser)?),
            }
            Ok(())
        })?;
        let (means, stds): (Vec<f64>, Vec<f64>) =
            (required(means, "means")?, required(stds, "stds")?);
        if means.len() != stds.len() {
            return Err(CodecError::new(format!(
                "scaler: {} means but {} stds",
                means.len(),
                stds.len()
            )));
        }
        Ok(StandardScaler { means, stds })
    }
}

/// Min-max scaling to `[0, 1]` fitted on a training matrix.
///
/// Columns with zero range are mapped to `0`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxScaler {
    mins: Vec<f64>,
    ranges: Vec<f64>,
}

impl MinMaxScaler {
    /// Fits the scaler to the columns of `matrix`.
    pub fn fit(matrix: &Matrix) -> MinMaxScaler {
        let mins = matrix.column_mins();
        let maxs = matrix.column_maxs();
        let ranges = mins
            .iter()
            .zip(&maxs)
            .map(|(lo, hi)| {
                let r = hi - lo;
                if r > 1e-12 {
                    r
                } else {
                    1.0
                }
            })
            .collect();
        MinMaxScaler { mins, ranges }
    }

    /// Applies the fitted transform to a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::DimensionMismatch`] when the column count differs
    /// from the fitted one.
    pub fn transform(&self, matrix: &Matrix) -> Result<Matrix, DataError> {
        if matrix.cols() != self.mins.len() {
            return Err(DataError::DimensionMismatch {
                context: "scaler feature count",
                expected: self.mins.len(),
                found: matrix.cols(),
            });
        }
        let mut data = Vec::with_capacity(matrix.rows() * matrix.cols());
        for row in matrix.iter_rows() {
            data.extend(
                row.iter()
                    .zip(self.mins.iter().zip(&self.ranges))
                    .map(|(v, (min, range))| (v - min) / range),
            );
        }
        Matrix::from_vec(matrix.rows(), matrix.cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> Matrix {
        Matrix::from_rows(&[
            vec![1.0, 10.0, 5.0],
            vec![3.0, 20.0, 5.0],
            vec![5.0, 30.0, 5.0],
        ])
        .expect("valid rows")
    }

    #[test]
    fn standard_scaler_centres_and_scales() {
        let m = matrix();
        let scaler = StandardScaler::fit(&m);
        let out = scaler.transform(&m).unwrap();
        let means = out.column_means();
        let stds = out.column_stds();
        assert!(means.iter().take(2).all(|m| m.abs() < 1e-12));
        assert!(stds.iter().take(2).all(|s| (s - 1.0).abs() < 1e-12));
        // constant column stays finite
        assert!(out.column(2).iter().all(|v| v.is_finite()));
    }

    #[test]
    fn standard_scaler_round_trips() {
        let m = matrix();
        let scaler = StandardScaler::fit(&m);
        let back = scaler
            .inverse_transform(&scaler.transform(&m).unwrap())
            .unwrap();
        for (a, b) in back.as_slice().iter().zip(m.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn standard_scaler_rejects_wrong_width() {
        let scaler = StandardScaler::fit(&matrix());
        let narrow = Matrix::from_rows(&[vec![1.0]]).unwrap();
        assert!(scaler.transform(&narrow).is_err());
        assert!(scaler.inverse_transform(&narrow).is_err());
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let m = matrix();
        let scaler = MinMaxScaler::fit(&m);
        let out = scaler.transform(&m).unwrap();
        for v in out.as_slice() {
            assert!((-1e-12..=1.0 + 1e-12).contains(v));
        }
        assert_eq!(out[(0, 0)], 0.0);
        assert_eq!(out[(2, 0)], 1.0);
    }

    #[test]
    fn transform_row_matches_matrix_transform() {
        let m = matrix();
        let scaler = StandardScaler::fit(&m);
        let full = scaler.transform(&m).unwrap();
        let mut row = m.row(1).to_vec();
        scaler.transform_row(&mut row).unwrap();
        assert_eq!(row, full.row(1));
    }
}
