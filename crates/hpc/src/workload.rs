//! Program behaviour models: parametric instruction-mix generators.
//!
//! A [`ProgramModel`] describes how a program exercises the micro-architecture
//! — its instruction mix, memory locality and branch behaviour. The CPU model
//! in [`crate::cpu`] simulates the abstract instruction stream the model
//! produces and accumulates hardware counters.

#[cfg(test)]
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One abstract instruction of the synthetic stream, as the per-instruction
/// reference generator issues it.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Instruction {
    /// Arithmetic/logic instruction (no memory or control-flow behaviour).
    Alu,
    /// Memory load from the given byte address.
    Load(u64),
    /// Memory store to the given byte address.
    Store(u64),
    /// Conditional branch at `address` with its resolved direction.
    Branch {
        /// Address of the branch instruction (indexes the predictor table).
        address: u64,
        /// Whether the branch is taken.
        taken: bool,
    },
}

/// Parametric description of a program's micro-architectural behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramModel {
    /// Fraction of instructions that are loads.
    pub load_fraction: f64,
    /// Fraction of instructions that are stores.
    pub store_fraction: f64,
    /// Fraction of instructions that are branches.
    pub branch_fraction: f64,
    /// Working-set size in bytes touched by sequential/strided accesses.
    pub working_set_bytes: u64,
    /// Probability that a memory access is a random (pointer-chasing style)
    /// access within a large region instead of a strided access within the
    /// working set.
    pub random_access_fraction: f64,
    /// Size of the region random accesses fall in (bytes).
    pub random_region_bytes: u64,
    /// Probability that a branch is taken.
    pub branch_taken_bias: f64,
    /// Number of distinct static branch sites the program cycles through.
    pub branch_sites: u64,
    /// Fraction of branches whose outcome is data-dependent (random) rather
    /// than following the bias.
    pub branch_noise: f64,
}

impl ProgramModel {
    /// A cache-friendly, well-predicted compute program (the default
    /// baseline).
    pub fn compute_bound() -> ProgramModel {
        ProgramModel {
            load_fraction: 0.22,
            store_fraction: 0.10,
            branch_fraction: 0.15,
            working_set_bytes: 16 * 1024,
            random_access_fraction: 0.05,
            random_region_bytes: 4 * 1024 * 1024,
            branch_taken_bias: 0.85,
            branch_sites: 64,
            branch_noise: 0.05,
        }
    }

    /// A memory-bound program with a large, poorly cached working set.
    pub fn memory_bound() -> ProgramModel {
        ProgramModel {
            load_fraction: 0.40,
            store_fraction: 0.15,
            branch_fraction: 0.10,
            working_set_bytes: 8 * 1024 * 1024,
            random_access_fraction: 0.60,
            random_region_bytes: 64 * 1024 * 1024,
            branch_taken_bias: 0.70,
            branch_sites: 256,
            branch_noise: 0.15,
        }
    }

    /// Checks that the instruction-mix fractions are sane and that the
    /// access and branch probabilities are numbers.
    ///
    /// # Errors
    ///
    /// Returns why the model is invalid: the load/store/branch fractions are
    /// negative or sum to 1.0 or more, or the random-access fraction, branch
    /// bias or branch noise is NaN.
    pub fn check(&self) -> Result<(), &'static str> {
        let mix = [
            self.load_fraction,
            self.store_fraction,
            self.branch_fraction,
        ];
        // `>=` is false for NaN, so a NaN fraction fails here too.
        if !mix.iter().all(|&fraction| fraction >= 0.0) {
            return Err("instruction-mix fractions must be non-negative");
        }
        if self.load_fraction + self.store_fraction + self.branch_fraction >= 1.0 {
            return Err("load+store+branch fractions must leave room for ALU instructions");
        }
        if self.random_access_fraction.is_nan()
            || self.branch_taken_bias.is_nan()
            || self.branch_noise.is_nan()
        {
            return Err("random-access fraction, branch bias and branch noise must not be NaN");
        }
        Ok(())
    }

    /// Validates the model as [`ProgramModel::check`] does.
    ///
    /// # Panics
    ///
    /// Panics with the reason when [`ProgramModel::check`] rejects the model.
    pub fn validate(&self) {
        let reason = self.check().err();
        assert!(reason.is_none(), "{}", reason.unwrap_or_default());
    }
}

/// The per-instruction generator: the reference the trace stage
/// ([`crate::trace`]) is tested against.
#[cfg(test)]
impl ProgramModel {
    /// Generates the next abstract instruction.
    pub(crate) fn next_instruction<R: Rng>(
        &self,
        state: &mut ProgramState,
        rng: &mut R,
    ) -> Instruction {
        let r: f64 = rng.gen();
        if r < self.load_fraction {
            Instruction::Load(self.next_address(state, rng))
        } else if r < self.load_fraction + self.store_fraction {
            Instruction::Store(self.next_address(state, rng))
        } else if r < self.load_fraction + self.store_fraction + self.branch_fraction {
            let site = rng.gen_range(0..self.branch_sites.max(1));
            let address = 0x40_0000 + site * 16;
            let taken = if rng.gen_bool(self.branch_noise.clamp(0.0, 1.0)) {
                rng.gen_bool(0.5)
            } else {
                rng.gen_bool(self.branch_taken_bias.clamp(0.0, 1.0))
            };
            Instruction::Branch { address, taken }
        } else {
            Instruction::Alu
        }
    }

    fn next_address<R: Rng>(&self, state: &mut ProgramState, rng: &mut R) -> u64 {
        if rng.gen_bool(self.random_access_fraction.clamp(0.0, 1.0)) {
            0x1000_0000 + rng.gen_range(0..self.random_region_bytes.max(64))
        } else {
            state.stride_cursor = (state.stride_cursor + 64) % self.working_set_bytes.max(64);
            0x2000_0000 + state.stride_cursor
        }
    }
}

/// Mutable per-execution state of a program (the strided-access cursor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProgramState {
    /// Current offset of the strided access pattern within the working set.
    pub stride_cursor: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn instruction_mix_matches_fractions() {
        let model = ProgramModel::compute_bound();
        model.validate();
        let mut state = ProgramState::default();
        let mut rng = StdRng::seed_from_u64(0);
        let mut loads = 0;
        let mut stores = 0;
        let mut branches = 0;
        let total = 20_000;
        for _ in 0..total {
            match model.next_instruction(&mut state, &mut rng) {
                Instruction::Load(_) => loads += 1,
                Instruction::Store(_) => stores += 1,
                Instruction::Branch { .. } => branches += 1,
                Instruction::Alu => {}
            }
        }
        let tol = 0.02;
        assert!((loads as f64 / total as f64 - model.load_fraction).abs() < tol);
        assert!((stores as f64 / total as f64 - model.store_fraction).abs() < tol);
        assert!((branches as f64 / total as f64 - model.branch_fraction).abs() < tol);
    }

    #[test]
    fn strided_addresses_stay_inside_working_set() {
        let model = ProgramModel {
            random_access_fraction: 0.0,
            ..ProgramModel::compute_bound()
        };
        let mut state = ProgramState::default();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..5000 {
            if let Instruction::Load(addr) | Instruction::Store(addr) =
                model.next_instruction(&mut state, &mut rng)
            {
                let offset = addr - 0x2000_0000;
                assert!(offset < model.working_set_bytes);
            }
        }
    }

    #[test]
    fn branch_bias_is_respected() {
        let model = ProgramModel {
            branch_fraction: 0.9,
            load_fraction: 0.0,
            store_fraction: 0.0,
            branch_noise: 0.0,
            branch_taken_bias: 0.9,
            ..ProgramModel::compute_bound()
        };
        let mut state = ProgramState::default();
        let mut rng = StdRng::seed_from_u64(2);
        let mut taken = 0;
        let mut total = 0;
        for _ in 0..10_000 {
            if let Instruction::Branch { taken: t, .. } =
                model.next_instruction(&mut state, &mut rng)
            {
                total += 1;
                if t {
                    taken += 1;
                }
            }
        }
        let rate = taken as f64 / total as f64;
        assert!((rate - 0.9).abs() < 0.03, "taken rate {rate}");
    }

    #[test]
    #[should_panic(expected = "leave room for ALU")]
    fn overfull_mix_panics_validation() {
        let model = ProgramModel {
            load_fraction: 0.5,
            store_fraction: 0.4,
            branch_fraction: 0.2,
            ..ProgramModel::compute_bound()
        };
        model.validate();
    }

    #[test]
    fn presets_are_valid() {
        ProgramModel::compute_bound().validate();
        ProgramModel::memory_bound().validate();
    }
}
