//! Principal component analysis.
//!
//! The HMD pipelines in Fig. 1 apply dimensionality reduction between feature
//! extraction and classification; [`Pca`] provides it via the covariance
//! matrix and the Jacobi eigensolver from [`crate::linalg`].

use crate::linalg::{covariance_matrix, jacobi_eigen};
use crate::MlError;
use hmd_codec::{required, CodecError, Json, JsonCodec, Parser};
use hmd_data::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted PCA projection.
///
/// # Example
///
/// ```
/// use hmd_data::Matrix;
/// use hmd_ml::pca::Pca;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let data = Matrix::from_rows(&[
///     vec![1.0, 1.1], vec![2.0, 1.9], vec![3.0, 3.2], vec![4.0, 3.9],
/// ])?;
/// let pca = Pca::fit(&data, 1)?;
/// let projected = pca.transform(&data)?;
/// assert_eq!(projected.shape(), (4, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pca {
    means: Vec<f64>,
    /// Projection matrix, one column per retained component.
    components: Matrix,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA with `num_components` components on the rows of `data`.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidHyperparameter`] when `num_components` is 0
    /// or exceeds the number of features, and propagates eigensolver failures.
    pub fn fit(data: &Matrix, num_components: usize) -> Result<Pca, MlError> {
        let d = data.cols();
        if num_components == 0 || num_components > d {
            return Err(MlError::InvalidHyperparameter {
                name: "num_components",
                message: format!("must lie in 1..={d}, got {num_components}"),
            });
        }
        let means = data.column_means();
        let cov = covariance_matrix(data);
        let eig = jacobi_eigen(&cov, 100)?;
        let columns: Vec<usize> = (0..num_components).collect();
        let components = eig.eigenvectors.select_columns(&columns);
        let explained_variance: Vec<f64> = eig.eigenvalues[..num_components]
            .iter()
            .map(|&v| v.max(0.0))
            .collect();
        let total_variance: f64 = eig.eigenvalues.iter().map(|&v| v.max(0.0)).sum();
        Ok(Pca {
            means,
            components,
            explained_variance,
            total_variance,
        })
    }

    /// Number of retained components.
    pub fn num_components(&self) -> usize {
        self.components.cols()
    }

    /// Variance captured by each retained component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of the total variance captured by the retained components.
    pub fn explained_variance_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 0.0;
        }
        self.explained_variance.iter().sum::<f64>() / self.total_variance
    }

    /// Projects data onto the retained components.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when the feature count differs from
    /// the fitted one.
    pub fn transform(&self, data: &Matrix) -> Result<Matrix, MlError> {
        if data.cols() != self.means.len() {
            return Err(MlError::Data(hmd_data::DataError::DimensionMismatch {
                context: "PCA feature count",
                expected: self.means.len(),
                found: data.cols(),
            }));
        }
        let mut centred = data.clone();
        for r in 0..centred.rows() {
            let row = centred.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v -= self.means[c];
            }
        }
        Ok(centred.matmul(&self.components)?)
    }

    /// Number of input features the projection was fitted on.
    pub fn input_width(&self) -> usize {
        self.means.len()
    }

    /// Projects a single feature vector.
    ///
    /// # Errors
    ///
    /// Returns a dimension-mismatch error when the vector length differs from
    /// the fitted feature count.
    pub fn transform_one(&self, features: &[f64]) -> Result<Vec<f64>, MlError> {
        if features.len() != self.means.len() {
            return Err(MlError::Data(hmd_data::DataError::DimensionMismatch {
                context: "PCA feature count",
                expected: self.means.len(),
                found: features.len(),
            }));
        }
        let centred: Vec<f64> = features
            .iter()
            .zip(&self.means)
            .map(|(x, m)| x - m)
            .collect();
        let mut out = vec![0.0; self.components.cols()];
        for (c, o) in out.iter_mut().enumerate() {
            *o = centred
                .iter()
                .enumerate()
                .map(|(r, v)| v * self.components[(r, c)])
                .sum();
        }
        Ok(out)
    }
}

impl JsonCodec for Pca {
    fn to_json(&self) -> Json {
        Json::object(vec![
            ("means", self.means.to_json()),
            ("components", self.components.to_json()),
            ("explained_variance", self.explained_variance.to_json()),
            ("total_variance", self.total_variance.to_json()),
        ])
    }

    fn decode(parser: &mut Parser<'_>) -> Result<Pca, CodecError> {
        let (mut means, mut components) = (None, None);
        let (mut explained_variance, mut total_variance) = (None, None);
        parser.object(
            [
                "means",
                "components",
                "explained_variance",
                "total_variance",
            ],
            |parser, key| {
                match key {
                    0 => means = Some(Vec::<f64>::decode(parser)?),
                    1 => components = Some(Matrix::decode(parser)?),
                    2 => explained_variance = Some(Vec::decode(parser)?),
                    _ => total_variance = Some(parser.f64()?),
                }
                Ok(())
            },
        )?;
        let means = required(means, "means")?;
        let components = required(components, "components")?;
        if components.rows() != means.len() {
            return Err(CodecError::new(format!(
                "pca: projection has {} rows but {} means",
                components.rows(),
                means.len()
            )));
        }
        Ok(Pca {
            means,
            components,
            explained_variance: required(explained_variance, "explained_variance")?,
            total_variance: required(total_variance, "total_variance")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn correlated_data(n: usize) -> Matrix {
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let t: f64 = rng.gen_range(-2.0..2.0);
                let noise: f64 = rng.gen_range(-0.05..0.05);
                vec![t, 2.0 * t + noise, -t + noise]
            })
            .collect();
        Matrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn first_component_captures_dominant_variance() {
        let data = correlated_data(200);
        let pca = Pca::fit(&data, 1).unwrap();
        assert!(pca.explained_variance_ratio() > 0.95);
    }

    #[test]
    fn transform_has_requested_width() {
        let data = correlated_data(50);
        let pca = Pca::fit(&data, 2).unwrap();
        let projected = pca.transform(&data).unwrap();
        assert_eq!(projected.shape(), (50, 2));
    }

    #[test]
    fn transform_one_matches_matrix_transform() {
        let data = correlated_data(30);
        let pca = Pca::fit(&data, 2).unwrap();
        let projected = pca.transform(&data).unwrap();
        let single = pca.transform_one(data.row(7)).unwrap();
        for (a, b) in single.iter().zip(projected.row(7)) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn invalid_component_counts_are_rejected() {
        let data = correlated_data(10);
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 4).is_err());
    }

    #[test]
    fn projected_components_are_decorrelated() {
        let data = correlated_data(300);
        let pca = Pca::fit(&data, 2).unwrap();
        let projected = pca.transform(&data).unwrap();
        let cov = covariance_matrix(&projected);
        assert!(cov[(0, 1)].abs() < 1e-6, "cross covariance {}", cov[(0, 1)]);
    }
}
