//! Interval sampling of hardware counters, mimicking a perf-style monitoring
//! daemon that reads the counters every N retired instructions.

use crate::apps::ProgramProfile;
use crate::counters::CounterSet;
use crate::cpu::{Cpu, CpuConfig};
use crate::trace::IntervalTrace;
use crate::workload::{ProgramModel, ProgramState};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the counter sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Sampler {
    /// Instructions executed per sampling interval (one HPC vector each).
    pub interval_instructions: u64,
    /// Warm-up instructions executed before the first recorded interval
    /// (fills caches and trains the branch predictor).
    pub warmup_instructions: u64,
    /// Core configuration used for the simulation.
    pub cpu: CpuConfig,
}

impl Sampler {
    /// Default sampler: 4 000-instruction intervals after a 4 000-instruction
    /// warm-up on the mobile core.
    pub fn new() -> Sampler {
        Sampler {
            interval_instructions: 4000,
            warmup_instructions: 4000,
            cpu: CpuConfig::mobile_core(),
        }
    }

    /// Sets the interval length.
    pub fn with_interval(mut self, instructions: u64) -> Sampler {
        self.interval_instructions = instructions;
        self
    }

    /// Collects `num_samples` counter vectors for one program.
    ///
    /// Every sample is one sampling interval. Per-sample behaviour jitter
    /// (modelling input dependence, scheduling and co-running background
    /// work) is applied by perturbing the program model parameters, and a
    /// small multiplicative measurement noise is applied to the counters —
    /// real HPC readings are notoriously noisy.
    ///
    /// # Panics
    ///
    /// Panics if the program's model fails [`ProgramModel::validate`].
    pub fn sample_program<R: Rng>(
        &self,
        profile: &ProgramProfile,
        num_samples: usize,
        rng: &mut R,
    ) -> Vec<CounterSet> {
        profile.model.validate();
        let mut cpu = Cpu::new(self.cpu);
        let mut state = ProgramState::default();
        let mut trace = self.trace_buffer();
        // The warm-up runs the nominal model and keeps no counters.
        trace.draw(&profile.model, &mut state, self.warmup_instructions, rng);
        let _ = cpu.replay(&trace);
        (0..num_samples)
            .map(|_| {
                self.draw_sample(profile, &mut state, &mut trace, rng);
                cpu.replay(&trace)
            })
            .collect()
    }

    /// A trace buffer that holds this sampler's warm-up and its intervals.
    pub(crate) fn trace_buffer(&self) -> IntervalTrace {
        IntervalTrace::with_capacity(self.warmup_instructions.max(self.interval_instructions))
    }

    /// Trace stage of one sampled interval: the behaviour jitter, the
    /// instructions, then the measurement noise, in that draw order.
    pub(crate) fn draw_sample<R: Rng>(
        &self,
        profile: &ProgramProfile,
        state: &mut ProgramState,
        trace: &mut IntervalTrace,
        rng: &mut R,
    ) {
        let jittered = jitter_model(&profile.model, profile.behaviour_jitter, rng);
        trace.draw(&jittered, state, self.interval_instructions, rng);
        trace.set_noise(MeasurementNoise::draw(rng));
    }
}

impl Default for Sampler {
    fn default() -> Self {
        Sampler::new()
    }
}

/// Perturbs a program model's behavioural parameters by up to ±`jitter`
/// (relative), clamping every field to its valid range.
pub(crate) fn jitter_model<R: Rng>(model: &ProgramModel, jitter: f64, rng: &mut R) -> ProgramModel {
    let mut scale = |value: f64, lo: f64, hi: f64| -> f64 {
        let factor = 1.0 + rng.gen_range(-jitter..=jitter);
        (value * factor).clamp(lo, hi)
    };
    let load_fraction = scale(model.load_fraction, 0.01, 0.55);
    let store_fraction = scale(model.store_fraction, 0.01, 0.35);
    let branch_fraction = scale(model.branch_fraction, 0.01, 0.35);
    let working_set_bytes = scale(model.working_set_bytes as f64, 4096.0, 1e12) as u64;
    let random_access_fraction = scale(model.random_access_fraction, 0.0, 0.95);
    let branch_taken_bias = scale(model.branch_taken_bias, 0.5, 0.99);
    let branch_noise = scale(model.branch_noise, 0.0, 0.9);
    let mut jittered = ProgramModel {
        load_fraction,
        store_fraction,
        branch_fraction,
        working_set_bytes,
        random_access_fraction,
        random_region_bytes: model.random_region_bytes,
        branch_taken_bias,
        branch_sites: model.branch_sites,
        branch_noise,
    };
    // Keep the mix feasible: leave at least 20 % ALU instructions.
    let total = jittered.load_fraction + jittered.store_fraction + jittered.branch_fraction;
    if total > 0.8 {
        let shrink = 0.8 / total;
        jittered.load_fraction *= shrink;
        jittered.store_fraction *= shrink;
        jittered.branch_fraction *= shrink;
    }
    jittered
}

/// The ±3 % multiplicative noise factors of one sampled interval, one per
/// noisy counter, drawn in the order [`MeasurementNoise::apply`] uses them.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MeasurementNoise([f64; 9]);

impl MeasurementNoise {
    /// Draws the nine factors.
    pub(crate) fn draw<R: Rng>(rng: &mut R) -> MeasurementNoise {
        MeasurementNoise(std::array::from_fn(|_| 1.0 + rng.gen_range(-0.03..=0.03)))
    }

    /// Applies the factors to every counter except the instruction count
    /// (the sampling interval itself is exact), keeping each miss count at
    /// most its noisy access count.
    pub(crate) fn apply(&self, counters: &mut CounterSet) {
        let [cycles, branches, branch_misses, l1d_accesses, l1d_misses, llc_accesses, llc_misses, loads, stores] =
            self.0;
        let noisy = |value: u64, factor: f64| ((value as f64) * factor).max(0.0).round() as u64;
        counters.cycles = noisy(counters.cycles, cycles);
        counters.branches = noisy(counters.branches, branches);
        counters.branch_misses =
            noisy(counters.branch_misses, branch_misses).min(counters.branches);
        counters.l1d_accesses = noisy(counters.l1d_accesses, l1d_accesses);
        counters.l1d_misses = noisy(counters.l1d_misses, l1d_misses).min(counters.l1d_accesses);
        counters.llc_accesses = noisy(counters.llc_accesses, llc_accesses);
        counters.llc_misses = noisy(counters.llc_misses, llc_misses).min(counters.llc_accesses);
        counters.loads = noisy(counters.loads, loads);
        counters.stores = noisy(counters.stores, stores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ProgramCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampler_produces_requested_number_of_samples() {
        let catalog = ProgramCatalog::standard();
        let sampler = Sampler::new().with_interval(1000);
        let mut rng = StdRng::seed_from_u64(0);
        let samples = sampler.sample_program(&catalog.programs()[0], 5, &mut rng);
        assert_eq!(samples.len(), 5);
        for s in &samples {
            assert_eq!(s.instructions, 1000);
            assert!(s.cycles > 0);
        }
    }

    #[test]
    fn jitter_respects_mix_feasibility() {
        let mut rng = StdRng::seed_from_u64(1);
        let base = ProgramModel::memory_bound();
        for _ in 0..200 {
            let j = jitter_model(&base, 0.5, &mut rng);
            j.validate();
        }
    }

    #[test]
    fn measurement_noise_preserves_counter_invariants() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counters = CounterSet {
            instructions: 1000,
            cycles: 3000,
            branches: 150,
            branch_misses: 30,
            l1d_accesses: 400,
            l1d_misses: 80,
            llc_accesses: 80,
            llc_misses: 20,
            loads: 250,
            stores: 150,
        };
        for _ in 0..100 {
            MeasurementNoise::draw(&mut rng).apply(&mut counters);
            assert!(counters.branch_misses <= counters.branches);
            assert!(counters.l1d_misses <= counters.l1d_accesses);
            assert!(counters.llc_misses <= counters.llc_accesses);
        }
    }

    #[test]
    fn samples_vary_between_intervals() {
        let catalog = ProgramCatalog::standard();
        let sampler = Sampler::new().with_interval(2000);
        let mut rng = StdRng::seed_from_u64(3);
        let samples = sampler.sample_program(&catalog.programs()[3], 10, &mut rng);
        let first_cycles = samples[0].cycles;
        assert!(
            samples.iter().any(|s| s.cycles != first_cycles),
            "behaviour jitter should vary the cycle counts"
        );
    }
}
