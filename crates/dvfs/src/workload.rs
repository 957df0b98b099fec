//! Workload behaviour models: phase-structured CPU utilisation generators.
//!
//! An application is modelled as a cyclic sequence of [`Phase`]s (e.g. a video
//! player alternates decode bursts with idle waits; a crypto-miner holds the
//! CPU at full utilisation). Each phase produces noisy utilisation samples at
//! the governor's sampling period; the resulting trace drives the governor in
//! [`crate::trace`].

use rand::Rng;
use serde::{Deserialize, Serialize};

/// One behavioural phase of a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Mean CPU utilisation during the phase (`0.0..=1.0`).
    pub mean_utilization: f64,
    /// Standard deviation of the per-sample utilisation noise.
    pub noise: f64,
    /// Mean phase duration in governor sampling periods.
    pub mean_duration: f64,
    /// Probability per sample of a short spike to full utilisation
    /// (models interrupts, GC pauses, network bursts).
    pub spike_probability: f64,
}

impl Phase {
    /// Creates a phase with the given mean utilisation and duration and
    /// moderate noise.
    pub fn new(mean_utilization: f64, mean_duration: f64) -> Phase {
        Phase {
            mean_utilization,
            noise: 0.05,
            mean_duration,
            spike_probability: 0.0,
        }
    }

    /// Sets the per-sample noise level.
    pub fn with_noise(mut self, noise: f64) -> Phase {
        self.noise = noise;
        self
    }

    /// Sets the probability of a full-utilisation spike per sample.
    pub fn with_spikes(mut self, probability: f64) -> Phase {
        self.spike_probability = probability;
        self
    }
}

/// A phase-cycling workload model that produces CPU utilisation traces.
///
/// # Example
///
/// ```
/// use hmd_dvfs::workload::{Phase, WorkloadModel};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let model = WorkloadModel::new(vec![
///     Phase::new(0.9, 20.0),
///     Phase::new(0.1, 30.0),
/// ]);
/// let mut rng = StdRng::seed_from_u64(1);
/// let trace = model.utilization_trace(100, &mut rng);
/// assert_eq!(trace.len(), 100);
/// assert!(trace.iter().all(|u| (0.0..=1.0).contains(u)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadModel {
    phases: Vec<Phase>,
    /// Jitter applied to phase durations (fraction of the mean duration).
    pub duration_jitter: f64,
}

impl WorkloadModel {
    /// Creates a workload from its phases.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty.
    pub fn new(phases: Vec<Phase>) -> WorkloadModel {
        assert!(!phases.is_empty(), "a workload needs at least one phase");
        WorkloadModel {
            phases,
            duration_jitter: 0.2,
        }
    }

    /// The workload's phases.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Sets the relative jitter of phase durations.
    pub fn with_duration_jitter(mut self, jitter: f64) -> WorkloadModel {
        self.duration_jitter = jitter;
        self
    }

    /// Generates a CPU utilisation trace of `len` governor sampling periods.
    pub fn utilization_trace<R: Rng>(&self, len: usize, rng: &mut R) -> Vec<f64> {
        let mut trace = Vec::with_capacity(len);
        self.walk_draws(len, rng, |phase, draws| {
            let mut u = phase.mean_utilization + box_muller(draws.uniforms) * phase.noise;
            if draws.spiked {
                u = 1.0;
            }
            trace.push(u.clamp(0.0, 1.0));
        });
        trace
    }

    /// Advances `rng` past the draws of a `len`-sample trace, leaving it
    /// exactly where [`WorkloadModel::utilization_trace`] would, at a
    /// fraction of the cost: no sample is transformed.
    pub(crate) fn skip_trace<R: Rng>(&self, len: usize, rng: &mut R) {
        self.walk_draws(len, rng, |_, _| {});
    }

    /// Makes every generator call of a `len`-sample trace, in order: the
    /// starting phase, each phase's duration, then per sample its two
    /// noise uniforms and, in a spiky phase, its spike draw. `step` gets
    /// each sample's phase and draws. Generating and skipping a trace both
    /// run this one walk, so they cannot disagree on the draws.
    fn walk_draws<R: Rng>(
        &self,
        len: usize,
        rng: &mut R,
        mut step: impl FnMut(&Phase, SampleDraws),
    ) {
        let mut phase_index = rng.gen_range(0..self.phases.len());
        let mut remaining = self.sample_duration(phase_index, rng);
        for _ in 0..len {
            if remaining == 0 {
                phase_index = (phase_index + 1) % self.phases.len();
                remaining = self.sample_duration(phase_index, rng);
            }
            let phase = &self.phases[phase_index];
            let uniforms = gaussian_uniforms(rng);
            let spiked = phase.spike_probability > 0.0
                && rng.gen_bool(phase.spike_probability.clamp(0.0, 1.0));
            step(phase, SampleDraws { uniforms, spiked });
            remaining -= 1;
        }
    }

    fn sample_duration<R: Rng>(&self, phase_index: usize, rng: &mut R) -> usize {
        let mean = self.phases[phase_index].mean_duration.max(1.0);
        let jitter = 1.0 + self.duration_jitter * sample_gaussian(rng);
        (mean * jitter).round().max(1.0) as usize
    }
}

/// The generator draws of one utilisation sample.
struct SampleDraws {
    /// The two uniforms of the sample's Box–Muller noise.
    uniforms: [f64; 2],
    /// Whether the sample's phase spiked to full utilisation.
    spiked: bool,
}

/// Standard-normal sample via the Box–Muller transform.
pub fn sample_gaussian<R: Rng>(rng: &mut R) -> f64 {
    box_muller(gaussian_uniforms(rng))
}

/// The two uniforms one [`sample_gaussian`] draws, in its order.
fn gaussian_uniforms<R: Rng>(rng: &mut R) -> [f64; 2] {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    [u1, u2]
}

/// The Box–Muller transform of two uniforms.
fn box_muller([u1, u2]: [f64; 2]) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trace_length_and_bounds() {
        let model = WorkloadModel::new(vec![Phase::new(0.5, 10.0)]);
        let mut rng = StdRng::seed_from_u64(0);
        let trace = model.utilization_trace(500, &mut rng);
        assert_eq!(trace.len(), 500);
        assert!(trace.iter().all(|u| (0.0..=1.0).contains(u)));
    }

    #[test]
    fn mean_utilization_tracks_phase_means() {
        let model = WorkloadModel::new(vec![Phase::new(0.8, 1000.0).with_noise(0.02)]);
        let mut rng = StdRng::seed_from_u64(1);
        let trace = model.utilization_trace(2000, &mut rng);
        let mean = trace.iter().sum::<f64>() / trace.len() as f64;
        assert!((mean - 0.8).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn spiky_phase_produces_full_utilization_samples() {
        let model = WorkloadModel::new(vec![Phase::new(0.1, 50.0)
            .with_spikes(0.3)
            .with_noise(0.01)]);
        let mut rng = StdRng::seed_from_u64(2);
        let trace = model.utilization_trace(400, &mut rng);
        let spikes = trace.iter().filter(|&&u| u >= 0.999).count();
        assert!(spikes > 50, "expected many spikes, got {spikes}");
    }

    #[test]
    fn phases_alternate_over_time() {
        let model = WorkloadModel::new(vec![
            Phase::new(0.9, 5.0).with_noise(0.01),
            Phase::new(0.1, 5.0).with_noise(0.01),
        ]);
        let mut rng = StdRng::seed_from_u64(3);
        let trace = model.utilization_trace(200, &mut rng);
        let high = trace.iter().filter(|&&u| u > 0.5).count();
        let low = trace.len() - high;
        assert!(high > 40 && low > 40, "high {high}, low {low}");
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phase_list_panics() {
        let _ = WorkloadModel::new(vec![]);
    }

    #[test]
    fn gaussian_sampler_has_roughly_unit_variance() {
        let mut rng = StdRng::seed_from_u64(4);
        let samples: Vec<f64> = (0..5000).map(|_| sample_gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var =
            samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }
}
