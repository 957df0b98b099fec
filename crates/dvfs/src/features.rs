//! Feature extraction from DVFS traces.
//!
//! Mirrors the "Feature Extraction" stage of the HMD pipeline in Fig. 1: a
//! DVFS state trace becomes a fixed-length signature vector combining
//! state-occupancy, transition, statistical and spectral descriptors.

use crate::spectral::band_energies;
use crate::trace::DvfsTrace;
use serde::{Deserialize, Serialize};

/// Features every signature carries whatever the configuration: the four
/// level moments and the three transition statistics.
const SCALAR_FEATURES: usize = 7;

/// Configuration of the DVFS signature extractor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    /// Number of DFT bins evaluated for the spectral descriptors.
    pub spectral_bins: usize,
    /// Number of spectral energy bands included in the signature.
    pub spectral_bands: usize,
    /// Include the full transition-matrix diagonal (per-state dwell
    /// probabilities) in addition to aggregate transition statistics.
    pub include_dwell_profile: bool,
}

impl FeatureExtractor {
    /// Default extractor: 32 DFT bins aggregated into 4 bands, dwell profile
    /// included.
    pub fn new() -> FeatureExtractor {
        FeatureExtractor {
            spectral_bins: 32,
            spectral_bands: 4,
            include_dwell_profile: true,
        }
    }

    /// Human-readable names of the extracted features, in output order.
    pub fn feature_names(&self, num_states: usize) -> Vec<String> {
        let mut names: Vec<String> = (0..num_states).map(|s| format!("occupancy_s{s}")).collect();
        names.push("mean_level".into());
        names.push("level_std".into());
        names.push("level_skewness".into());
        names.push("level_kurtosis".into());
        names.push("switching_rate".into());
        names.push("transition_entropy".into());
        names.push("mean_dwell".into());
        if self.include_dwell_profile {
            names.extend((0..num_states).map(|s| format!("self_transition_s{s}")));
        }
        names.extend((0..self.spectral_bands).map(|b| format!("band_energy_{b}")));
        names
    }

    /// Number of features produced for a trace with `num_states` DVFS states:
    /// the length of [`FeatureExtractor::feature_names`], counted without
    /// formatting the names.
    pub fn num_features(&self, num_states: usize) -> usize {
        let dwell_profile = if self.include_dwell_profile {
            num_states
        } else {
            0
        };
        num_states + SCALAR_FEATURES + dwell_profile + self.spectral_bands
    }

    /// Extracts the signature vector of a trace.
    pub fn extract(&self, trace: &DvfsTrace) -> Vec<f64> {
        let num_states = trace.num_states();
        let mut features = Vec::with_capacity(self.num_features(num_states));

        // 1. state occupancy histogram
        features.extend(trace.occupancy());

        // 2. statistical moments of the (normalised) state level signal
        let signal = trace.as_signal();
        let (mean, std, skew, kurt) = moments(&signal);
        let scale = (num_states.saturating_sub(1)).max(1) as f64;
        features.push(mean / scale);
        features.push(std / scale);
        features.push(skew);
        features.push(kurt);

        // 3. transition statistics
        features.push(trace.switching_rate());
        let tm = trace.transition_matrix();
        features.push(transition_entropy(&tm, num_states));
        features.push(mean_dwell(trace));
        if self.include_dwell_profile {
            for s in 0..num_states {
                features.push(tm[s * num_states + s]);
            }
        }

        // 4. spectral band energies
        features.extend(band_energies(
            &signal,
            self.spectral_bins,
            self.spectral_bands,
        ));

        features
    }
}

impl Default for FeatureExtractor {
    fn default() -> Self {
        FeatureExtractor::new()
    }
}

/// Mean, standard deviation, skewness and excess kurtosis of a signal.
/// Degenerate signals (constant or too short) report zero higher moments.
fn moments(signal: &[f64]) -> (f64, f64, f64, f64) {
    let n = signal.len() as f64;
    if signal.is_empty() {
        return (0.0, 0.0, 0.0, 0.0);
    }
    let mean = signal.iter().sum::<f64>() / n;
    let var = signal.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    let std = var.sqrt();
    if std < 1e-12 {
        return (mean, 0.0, 0.0, 0.0);
    }
    let skew = signal
        .iter()
        .map(|x| ((x - mean) / std).powi(3))
        .sum::<f64>()
        / n;
    let kurt = signal
        .iter()
        .map(|x| ((x - mean) / std).powi(4))
        .sum::<f64>()
        / n
        - 3.0;
    (mean, std, skew, kurt)
}

/// Average Shannon entropy (bits) of the rows of the transition matrix,
/// weighted equally over rows that occur.
fn transition_entropy(transition_matrix: &[f64], num_states: usize) -> f64 {
    let mut total = 0.0;
    let mut active_rows = 0usize;
    for row in 0..num_states {
        let slice = &transition_matrix[row * num_states..(row + 1) * num_states];
        let row_sum: f64 = slice.iter().sum();
        if row_sum <= 0.0 {
            continue;
        }
        active_rows += 1;
        let mut h = 0.0;
        for &p in slice {
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
        total += h;
    }
    if active_rows == 0 {
        0.0
    } else {
        total / active_rows as f64
    }
}

/// Mean run length (consecutive samples in the same state), normalised by the
/// trace length.
fn mean_dwell(trace: &DvfsTrace) -> f64 {
    let states = trace.states();
    if states.is_empty() {
        return 0.0;
    }
    let mut runs = 1usize;
    for w in states.windows(2) {
        if w[0] != w[1] {
            runs += 1;
        }
    }
    (states.len() as f64 / runs as f64) / states.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::OndemandGovernor;
    use crate::soc::SocConfig;
    use crate::workload::{Phase, WorkloadModel};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace_for(mean_util: f64, seed: u64) -> DvfsTrace {
        let soc = SocConfig::snapdragon_like();
        let workload = WorkloadModel::new(vec![Phase::new(mean_util, 20.0)]);
        let mut governor = OndemandGovernor::new();
        let mut rng = StdRng::seed_from_u64(seed);
        DvfsTrace::simulate(&workload, &mut governor, &soc, 512, &mut rng)
    }

    #[test]
    fn feature_count_matches_names() {
        let extractor = FeatureExtractor::new();
        let trace = trace_for(0.5, 1);
        let features = extractor.extract(&trace);
        assert_eq!(features.len(), extractor.num_features(trace.num_states()));
        assert_eq!(
            extractor.feature_names(trace.num_states()).len(),
            features.len()
        );
    }

    #[test]
    fn features_are_finite() {
        let extractor = FeatureExtractor::new();
        for seed in 0..5 {
            let trace = trace_for(0.3 + 0.1 * seed as f64, seed);
            assert!(extractor.extract(&trace).iter().all(|f| f.is_finite()));
        }
    }

    #[test]
    fn high_and_low_load_produce_different_signatures() {
        let extractor = FeatureExtractor::new();
        let idle = extractor.extract(&trace_for(0.05, 2));
        let busy = extractor.extract(&trace_for(0.95, 3));
        let distance: f64 = idle
            .iter()
            .zip(&busy)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(distance > 0.5, "signatures too close: {distance}");
    }

    #[test]
    fn constant_trace_has_zero_switching_features() {
        let extractor = FeatureExtractor::new();
        let trace = DvfsTrace::new(vec![3; 100], 8);
        let features = extractor.extract(&trace);
        let names = extractor.feature_names(8);
        let idx = names.iter().position(|n| n == "switching_rate").unwrap();
        assert_eq!(features[idx], 0.0);
        let occ_idx = 3; // occupancy_s3
        assert_eq!(features[occ_idx], 1.0);
    }

    #[test]
    fn dwell_profile_toggle_changes_dimensionality() {
        let with = FeatureExtractor::new();
        let without = FeatureExtractor {
            include_dwell_profile: false,
            ..FeatureExtractor::new()
        };
        assert_eq!(
            with.num_features(8),
            without.num_features(8) + 8,
            "dwell profile adds one feature per state"
        );
        for extractor in [with, without] {
            for num_states in [1, 4, 8] {
                assert_eq!(
                    extractor.num_features(num_states),
                    extractor.feature_names(num_states).len(),
                    "{num_states} states, dwell profile {}",
                    extractor.include_dwell_profile
                );
            }
        }
    }

    #[test]
    fn moments_of_constant_signal_are_degenerate() {
        let (mean, std, skew, kurt) = moments(&[2.0; 50]);
        assert_eq!(mean, 2.0);
        assert_eq!(std, 0.0);
        assert_eq!(skew, 0.0);
        assert_eq!(kurt, 0.0);
    }
}
