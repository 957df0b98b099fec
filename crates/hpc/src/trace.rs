//! The trace stage of interval simulation.
//!
//! Which instruction a program issues next depends only on its model, its
//! stride cursor and the random stream, never on the caches or the branch
//! predictor. So an interval is simulated in two stages, the way
//! trace-driven memory simulation splits the work (Uhlig & Mudge,
//! "Trace-driven memory simulation: a survey", ACM Computing Surveys 1997):
//!
//! 1. [`IntervalTrace::draw`] owns the random stream. It makes the
//!    per-instruction generator's draws in the same order (the instruction
//!    type, then the address or the branch site and outcome) and records
//!    every load and store address, every branch and the instruction counts
//!    in a recycled buffer.
//! 2. [`Cpu::replay`](crate::cpu::Cpu::replay) owns the core. It runs the
//!    addresses through the caches and the branches through the predictor,
//!    and sums the cycles by formula.
//!
//! Each `gen::<f64>() < p` and `gen_bool(p)` of the generator becomes the
//! integer compare `next_u64() >> 11 < ⌈p·2⁵³⌉`. The `rand` shim's unit float
//! is `k·2⁻⁵³` for the 53-bit integer `k = next_u64() >> 11`, and
//! `k·2⁻⁵³ < p` holds exactly when `k < ⌈p·2⁵³⌉`, so every draw decides as
//! before, bit for bit.

use crate::sampler::MeasurementNoise;
use crate::workload::{ProgramModel, ProgramState};
use rand::Rng;

#[cfg(test)]
thread_local! {
    /// Trace buffers allocated on this thread; the tests pin it as a ceiling.
    static BUFFERS_ALLOCATED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Trace buffers allocated on this thread so far.
#[cfg(test)]
pub(crate) fn buffers_allocated() -> usize {
    BUFFERS_ALLOCATED.get()
}

/// One interval's instruction stream, drawn ahead of its simulation.
#[derive(Debug, Clone)]
pub(crate) struct IntervalTrace {
    /// Byte address of every load and store, in program order.
    addresses: Vec<u64>,
    /// Every branch in program order: its address, which is a multiple of
    /// 16, with bit 0 set when the branch is taken.
    branches: Vec<u64>,
    instructions: u64,
    loads: u64,
    /// The measurement noise of a sampled interval; none for a warm-up.
    noise: Option<MeasurementNoise>,
}

/// The threshold `t` with `k·2⁻⁵³ < p` exactly when `k < t`, for every
/// 53-bit `k`. NaN and `p ≤ 0` give 0; `p ≥ 1` gives at least `2⁵³`.
fn threshold(p: f64) -> u64 {
    // Scaling by a power of two is exact, and the cast saturates.
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// The threshold of `gen_bool(p)`, which, like the shim, rejects a `p`
/// outside `[0, 1]`.
fn bool_threshold(p: f64) -> u64 {
    assert!((0.0..=1.0).contains(&p), "gen_bool: p must lie in [0, 1]");
    threshold(p)
}

/// The 53-bit integer behind the shim's `gen::<f64>()`.
#[inline(always)]
fn unit<R: Rng>(rng: &mut R) -> u64 {
    rng.next_u64() >> 11
}

impl IntervalTrace {
    /// An empty buffer that holds intervals of up to `instructions`
    /// instructions without growing.
    pub(crate) fn with_capacity(instructions: u64) -> IntervalTrace {
        #[cfg(test)]
        BUFFERS_ALLOCATED.set(BUFFERS_ALLOCATED.get() + 1);
        let capacity = usize::try_from(instructions).unwrap_or(usize::MAX);
        IntervalTrace {
            addresses: Vec::with_capacity(capacity),
            branches: Vec::with_capacity(capacity),
            instructions: 0,
            loads: 0,
            noise: None,
        }
    }

    /// Draws the next `instructions` instructions of `model` into the
    /// buffer, replacing what it held, and advances `state` and `rng` as the
    /// per-instruction generator would. The noise is cleared.
    ///
    /// # Panics
    ///
    /// Panics if the buffer was made for shorter intervals, or if the
    /// random-access fraction, branch bias or branch noise is NaN.
    pub(crate) fn draw<R: Rng>(
        &mut self,
        model: &ProgramModel,
        state: &mut ProgramState,
        instructions: u64,
        rng: &mut R,
    ) {
        let fits = |buffer: &Vec<u64>| buffer.capacity() as u64 >= instructions;
        assert!(
            fits(&self.addresses) && fits(&self.branches),
            "trace buffer too small for a {instructions}-instruction interval"
        );
        let load = threshold(model.load_fraction);
        let store = threshold(model.load_fraction + model.store_fraction);
        let branch = threshold(model.load_fraction + model.store_fraction + model.branch_fraction);
        // `r < load || r < store`: a load, or else a store.
        let memory = load.max(store);
        let random_access = bool_threshold(model.random_access_fraction.clamp(0.0, 1.0));
        let noise = bool_threshold(model.branch_noise.clamp(0.0, 1.0));
        let bias = bool_threshold(model.branch_taken_bias.clamp(0.0, 1.0));
        let coin = bool_threshold(0.5);
        let region = model.random_region_bytes.max(64);
        let working_set = model.working_set_bytes.max(64);
        let sites = model.branch_sites.max(1);

        let addresses = &mut self.addresses;
        let branches = &mut self.branches;
        addresses.clear();
        branches.clear();
        let mut loads = 0;
        let mut cursor = state.stride_cursor;
        for _ in 0..instructions {
            // The generator's chain: a load below `load`, else a store
            // below `store`, else a branch below `branch`, else an ALU op.
            let r = unit(rng);
            if r < memory {
                loads += u64::from(r < load);
                let address = if unit(rng) < random_access {
                    0x1000_0000 + rng.gen_range(0..region)
                } else {
                    let next = cursor + 64;
                    cursor = if next < working_set {
                        next
                    } else {
                        next % working_set
                    };
                    0x2000_0000 + cursor
                };
                addresses.push(address);
            } else if r < branch {
                let site = rng.gen_range(0..sites);
                // A noisy branch flips a fair coin, any other follows the
                // bias: one draw either way.
                let outcome = if unit(rng) < noise { coin } else { bias };
                let taken = unit(rng) < outcome;
                branches.push((0x40_0000 + site * 16) | u64::from(taken));
            }
        }
        state.stride_cursor = cursor;
        self.instructions = instructions;
        self.loads = loads;
        self.noise = None;
    }

    /// Load and store addresses, in program order.
    pub(crate) fn addresses(&self) -> &[u64] {
        &self.addresses
    }

    /// Branch records, in program order: the address with bit 0 set when
    /// taken.
    pub(crate) fn branches(&self) -> &[u64] {
        &self.branches
    }

    /// Instructions in the interval.
    pub(crate) fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Loads among the addresses (the rest are stores).
    pub(crate) fn loads(&self) -> u64 {
        self.loads
    }

    /// The interval's measurement noise; none for a warm-up.
    pub(crate) fn noise(&self) -> Option<&MeasurementNoise> {
        self.noise.as_ref()
    }

    /// Sets the measurement noise the replay applies.
    pub(crate) fn set_noise(&mut self, noise: MeasurementNoise) {
        self.noise = Some(noise);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    /// A source that returns the same 64 bits on every call.
    struct Fixed(u64);

    impl RngCore for Fixed {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    #[test]
    fn thresholds_decide_like_the_float_compares_at_their_boundary() {
        let subnormal = f64::MIN_POSITIVE / 8.0;
        for p in [
            0.0,
            subnormal,
            1e-300,
            0.05,
            0.1,
            0.32,
            1.0 / 3.0,
            0.5,
            0.85,
            1.0 - f64::EPSILON,
            1.0,
        ] {
            let t = threshold(p);
            for k in [t.saturating_sub(2), t.saturating_sub(1), t, t + 1] {
                if k >= 1 << 53 {
                    continue;
                }
                let float: f64 = Fixed(k << 11).gen();
                assert_eq!(k < t, float < p, "p {p}, k {k}");
                assert_eq!(k < bool_threshold(p), Fixed(k << 11).gen_bool(p));
                assert_eq!(unit(&mut Fixed(k << 11)), k);
            }
        }
        assert_eq!(threshold(f64::NAN), 0, "no draw is below NaN");
        assert_eq!(threshold(-0.5), 0);
        assert!(threshold(2.0) >= 1 << 53, "every draw is below 2");
    }

    #[test]
    #[should_panic(expected = "p must lie in [0, 1]")]
    fn nan_probabilities_panic_like_gen_bool() {
        let _ = bool_threshold(f64::NAN);
    }
}
