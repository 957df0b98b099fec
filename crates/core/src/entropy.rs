//! Entropy of ensemble vote distributions (Eq. 4 of the paper).

/// Shannon entropy (in bits) of a discrete probability distribution.
///
/// Zero-probability entries contribute nothing. Negative entries and
/// distributions that do not sum to one are the caller's responsibility; use
/// [`vote_entropy`] for raw vote counts.
///
/// # Example
///
/// ```
/// use hmd_core::entropy::shannon_entropy;
/// assert_eq!(shannon_entropy(&[1.0, 0.0]), 0.0);
/// assert!((shannon_entropy(&[0.5, 0.5]) - 1.0).abs() < 1e-12);
/// ```
pub fn shannon_entropy(probabilities: &[f64]) -> f64 {
    entropy_bits(probabilities.iter().copied())
}

/// Sums `-p * log2(p)` over the positive entries, starting from `+0.0`.
///
/// At `p = 1` the term is `-0.0`, and `Iterator::sum` starts from `-0.0`
/// too, so a certain distribution would report `-0.0`. From `+0.0` it
/// reports `+0.0`, and every other sum keeps its exact bits, as
/// `+0.0 + x == x`.
fn entropy_bits(probabilities: impl Iterator<Item = f64>) -> f64 {
    probabilities
        .filter(|&p| p > 0.0)
        .map(|p| -p * p.log2())
        .fold(0.0, |h, term| h + term)
}

/// Entropy (bits) of the frequency distribution of ensemble votes.
///
/// This is the paper's predictive-uncertainty estimate: `counts[c]` is the
/// number of base classifiers voting for class `c`. Returns 0 for an empty
/// ensemble.
///
/// # Example
///
/// ```
/// use hmd_core::entropy::vote_entropy;
/// // 25 base classifiers, unanimous vote: certain.
/// assert_eq!(vote_entropy(&[25, 0]), 0.0);
/// // evenly split vote: maximally uncertain (1 bit for 2 classes).
/// assert!((vote_entropy(&[13, 12]) - 1.0).abs() < 0.01);
/// ```
pub fn vote_entropy(counts: &[usize]) -> f64 {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    entropy_bits(counts.iter().map(|&c| c as f64 / total as f64))
}

/// Maximum achievable entropy (bits) for `num_classes` classes.
pub fn max_entropy(num_classes: usize) -> f64 {
    if num_classes == 0 {
        0.0
    } else {
        (num_classes as f64).log2()
    }
}

/// Entropy normalised to `[0, 1]` by the maximum entropy of the class count.
pub fn normalized_vote_entropy(counts: &[usize]) -> f64 {
    let h_max = max_entropy(counts.len());
    if h_max == 0.0 {
        0.0
    } else {
        vote_entropy(counts) / h_max
    }
}

/// Entropy (bits) of a Bernoulli distribution with success probability `p`
/// (the predictive-posterior entropy when the ensemble's malware probability
/// is `p`). Inputs are clamped to `[0, 1]`.
pub fn binary_entropy(p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    shannon_entropy(&[p, 1.0 - p])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entropy_of_degenerate_distributions_is_zero() {
        assert_eq!(shannon_entropy(&[]), 0.0);
        assert_eq!(shannon_entropy(&[1.0]), 0.0);
        assert_eq!(shannon_entropy(&[0.0, 1.0, 0.0]), 0.0);
        assert_eq!(vote_entropy(&[0, 0]), 0.0);
        assert_eq!(vote_entropy(&[10, 0]), 0.0);
    }

    #[test]
    fn uniform_distribution_achieves_maximum() {
        assert!((shannon_entropy(&[0.25; 4]) - 2.0).abs() < 1e-12);
        assert!((vote_entropy(&[5, 5]) - 1.0).abs() < 1e-12);
        assert_eq!(max_entropy(4), 2.0);
        assert_eq!(max_entropy(0), 0.0);
    }

    #[test]
    fn vote_entropy_is_symmetric_in_counts() {
        assert_eq!(vote_entropy(&[7, 3]), vote_entropy(&[3, 7]));
    }

    #[test]
    fn normalized_entropy_is_bounded() {
        for a in 0..=20usize {
            let h = normalized_vote_entropy(&[a, 20 - a]);
            assert!((0.0..=1.0 + 1e-12).contains(&h));
        }
    }

    #[test]
    fn binary_entropy_peaks_at_half() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
        assert!((binary_entropy(0.5) - 1.0).abs() < 1e-12);
        assert!(binary_entropy(0.3) < binary_entropy(0.5));
        assert_eq!(binary_entropy(-0.5), 0.0);
        assert_eq!(binary_entropy(1.5), 0.0);
    }

    /// The summed form: probabilities collected, then summed with
    /// `Iterator::sum` (which starts from `-0.0`).
    fn summed_vote_entropy(counts: &[usize]) -> f64 {
        let total: usize = counts.iter().sum();
        counts
            .iter()
            .map(|&c| c as f64 / total as f64)
            .filter(|&p| p > 0.0)
            .map(|p| -p * p.log2())
            .sum()
    }

    #[test]
    fn unanimous_votes_have_positive_zero_entropy() {
        for e in [1usize, 15, 25] {
            for counts in [[e, 0], [0, e]] {
                assert_eq!(
                    vote_entropy(&counts).to_bits(),
                    0.0f64.to_bits(),
                    "{counts:?}"
                );
            }
            // Every other split keeps the exact bits of the summed form.
            for a in 1..e {
                let counts = [a, e - a];
                assert_eq!(
                    vote_entropy(&counts).to_bits(),
                    summed_vote_entropy(&counts).to_bits(),
                    "{counts:?}"
                );
            }
        }
        assert_eq!(shannon_entropy(&[1.0, 0.0]).to_bits(), 0.0f64.to_bits());
        assert_eq!(binary_entropy(1.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn more_disagreement_means_more_entropy() {
        let mut previous = -1.0;
        for minority in 0..=10usize {
            let h = vote_entropy(&[20 - minority, minority]);
            assert!(h >= previous, "entropy should grow with disagreement");
            previous = h;
        }
    }
}
