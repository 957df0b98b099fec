//! The simulated in-order core: replays drawn instruction traces through its
//! caches and branch predictor and counts hardware performance events.

use crate::branch::BranchPredictor;
use crate::cache::{Cache, CacheConfig};
use crate::counters::CounterSet;
use crate::trace::IntervalTrace;
#[cfg(test)]
use crate::workload::Instruction;
use crate::workload::{ProgramModel, ProgramState};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Latency and structure configuration of the simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Cycles per ALU instruction.
    pub alu_latency: u64,
    /// Cycles for an L1 hit.
    pub l1_hit_latency: u64,
    /// Additional cycles for an LLC hit (L1 miss).
    pub llc_hit_latency: u64,
    /// Additional cycles for a memory access (LLC miss).
    pub memory_latency: u64,
    /// Pipeline-flush penalty of a mispredicted branch, in cycles.
    pub branch_miss_penalty: u64,
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Last-level cache geometry.
    pub llc: CacheConfig,
    /// Branch-predictor table entries.
    pub branch_table: usize,
}

impl CpuConfig {
    /// A small mobile-class core configuration.
    pub fn mobile_core() -> CpuConfig {
        CpuConfig {
            alu_latency: 1,
            l1_hit_latency: 3,
            llc_hit_latency: 12,
            memory_latency: 90,
            branch_miss_penalty: 14,
            l1d: CacheConfig::l1d(),
            llc: CacheConfig::llc(),
            branch_table: 4096,
        }
    }
}

impl Default for CpuConfig {
    fn default() -> Self {
        CpuConfig::mobile_core()
    }
}

/// The simulated core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cpu {
    config: CpuConfig,
    l1d: Cache,
    llc: Cache,
    branch_predictor: BranchPredictor,
}

impl Cpu {
    /// Creates a core with cold caches and an untrained predictor.
    pub fn new(config: CpuConfig) -> Cpu {
        Cpu {
            l1d: Cache::new(config.l1d),
            llc: Cache::new(config.llc),
            branch_predictor: BranchPredictor::new(config.branch_table),
            config,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Runs `num_instructions` instructions of the given program model and
    /// returns the counters of that interval. Micro-architectural state
    /// (caches, predictor) carries over to the next interval, exactly like
    /// reading perf counters on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if the model's random-access fraction, branch bias or branch
    /// noise is NaN.
    pub fn run_interval<R: Rng>(
        &mut self,
        program: &ProgramModel,
        state: &mut ProgramState,
        num_instructions: u64,
        rng: &mut R,
    ) -> CounterSet {
        let mut trace = IntervalTrace::with_capacity(num_instructions);
        trace.draw(program, state, num_instructions, rng);
        self.replay(&trace)
    }

    /// The replay stage: runs a drawn interval's addresses through the L1
    /// and, on a miss, the LLC, and its branches through the predictor, then
    /// returns the interval's counters with the trace's measurement noise
    /// applied. Cycles follow from the counts: every ALU op and branch costs
    /// `alu_latency`, every access an L1 hit, every L1 miss an LLC hit,
    /// every LLC miss a memory access and every misprediction the flush
    /// penalty.
    pub(crate) fn replay(&mut self, trace: &IntervalTrace) -> CounterSet {
        let mut l1d_misses = 0;
        let mut llc_misses = 0;
        for &address in trace.addresses() {
            if !self.l1d.access(address) {
                l1d_misses += 1;
                llc_misses += u64::from(!self.llc.access(address));
            }
        }
        let mut branch_misses = 0;
        for &branch in trace.branches() {
            let correct = self
                .branch_predictor
                .predict_and_update(branch & !1, branch & 1 == 1);
            branch_misses += u64::from(!correct);
        }
        let accesses = trace.addresses().len() as u64;
        let branches = trace.branches().len() as u64;
        let config = &self.config;
        let mut counters = CounterSet {
            instructions: trace.instructions(),
            cycles: (trace.instructions() - accesses) * config.alu_latency
                + accesses * config.l1_hit_latency
                + l1d_misses * config.llc_hit_latency
                + llc_misses * config.memory_latency
                + branch_misses * config.branch_miss_penalty,
            branches,
            branch_misses,
            l1d_accesses: accesses,
            l1d_misses,
            llc_accesses: l1d_misses,
            llc_misses,
            loads: trace.loads(),
            stores: accesses - trace.loads(),
        };
        if let Some(noise) = trace.noise() {
            noise.apply(&mut counters);
        }
        counters
    }

    /// Executes a single abstract instruction: the per-instruction reference
    /// the trace and replay stages are tested against.
    #[cfg(test)]
    fn execute(&mut self, instruction: Instruction, counters: &mut CounterSet) {
        counters.instructions += 1;
        match instruction {
            Instruction::Alu => {
                counters.cycles += self.config.alu_latency;
            }
            Instruction::Load(address) | Instruction::Store(address) => {
                if matches!(instruction, Instruction::Load(_)) {
                    counters.loads += 1;
                } else {
                    counters.stores += 1;
                }
                counters.l1d_accesses += 1;
                let mut latency = self.config.l1_hit_latency;
                if !self.l1d.access(address) {
                    counters.l1d_misses += 1;
                    counters.llc_accesses += 1;
                    latency += self.config.llc_hit_latency;
                    if !self.llc.access(address) {
                        counters.llc_misses += 1;
                        latency += self.config.memory_latency;
                    }
                }
                counters.cycles += latency;
            }
            Instruction::Branch { address, taken } => {
                counters.branches += 1;
                counters.cycles += self.config.alu_latency;
                if !self.branch_predictor.predict_and_update(address, taken) {
                    counters.branch_misses += 1;
                    counters.cycles += self.config.branch_miss_penalty;
                }
            }
        }
    }
}

impl Default for Cpu {
    fn default() -> Self {
        Cpu::new(CpuConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::ProgramCatalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn intervals_match_the_per_instruction_reference() {
        let mut programs = ProgramCatalog::standard().programs().to_vec();
        // `run_interval` does not check its model: a negative fraction
        // must reorder the mix exactly as the reference's if-else chain.
        let mut unchecked = programs[0].clone();
        unchecked.name = "negative store fraction".to_string();
        unchecked.model.store_fraction = -0.1;
        programs.push(unchecked);
        for (seed, program) in programs.iter().enumerate() {
            let mut cpu = Cpu::default();
            let mut state = ProgramState::default();
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut reference = cpu.clone();
            let mut reference_state = state;
            let mut reference_rng = rng.clone();
            // Warm state carries across intervals of every length class:
            // single instructions, around a cache line's worth and a full
            // sampling interval.
            for length in [1, 2, 3, 5, 63, 64, 65, 4000] {
                let counters = cpu.run_interval(&program.model, &mut state, length, &mut rng);
                let mut expected = CounterSet::new();
                for _ in 0..length {
                    let instruction = program
                        .model
                        .next_instruction(&mut reference_state, &mut reference_rng);
                    reference.execute(instruction, &mut expected);
                }
                let at = format!("{} after a {length}-instruction interval", program.name);
                assert_eq!(counters, expected, "{at}: counters");
                assert_eq!(state, reference_state, "{at}: program state");
                assert_eq!(rng, reference_rng, "{at}: random stream");
                assert_eq!(cpu, reference, "{at}: caches and predictor");
            }
        }
    }

    #[test]
    fn counters_account_for_every_instruction() {
        let mut cpu = Cpu::default();
        let program = ProgramModel::compute_bound();
        let mut state = ProgramState::default();
        let mut rng = StdRng::seed_from_u64(0);
        let counters = cpu.run_interval(&program, &mut state, 10_000, &mut rng);
        assert_eq!(counters.instructions, 10_000);
        assert_eq!(
            counters.loads + counters.stores,
            counters.l1d_accesses,
            "every memory instruction accesses the L1"
        );
        assert!(counters.cycles >= counters.instructions);
        assert!(counters.branch_misses <= counters.branches);
        assert!(counters.l1d_misses <= counters.l1d_accesses);
        assert!(counters.llc_misses <= counters.llc_accesses);
        assert_eq!(counters.llc_accesses, counters.l1d_misses);
    }

    #[test]
    fn memory_bound_program_misses_more_than_compute_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut run = |model: &ProgramModel| {
            let mut cpu = Cpu::default();
            let mut state = ProgramState::default();
            // warm-up interval, then measure
            cpu.run_interval(model, &mut state, 20_000, &mut rng);
            cpu.run_interval(model, &mut state, 20_000, &mut rng)
        };
        let compute = run(&ProgramModel::compute_bound());
        let memory = run(&ProgramModel::memory_bound());
        assert!(
            memory.l1d_miss_rate() > compute.l1d_miss_rate(),
            "memory-bound L1 miss rate {} should exceed compute-bound {}",
            memory.l1d_miss_rate(),
            compute.l1d_miss_rate()
        );
        assert!(memory.ipc() < compute.ipc());
    }

    #[test]
    fn intervals_restart_counters_but_keep_microarch_state() {
        let mut cpu = Cpu::default();
        let program = ProgramModel::compute_bound();
        let mut state = ProgramState::default();
        let mut rng = StdRng::seed_from_u64(2);
        let first = cpu.run_interval(&program, &mut state, 5000, &mut rng);
        let second = cpu.run_interval(&program, &mut state, 5000, &mut rng);
        assert_eq!(first.instructions, second.instructions);
        // The second interval benefits from warm caches and a trained
        // predictor, so it should not be slower than the cold first interval.
        assert!(second.cycles <= first.cycles);
    }

    #[test]
    fn branch_heavy_noisy_program_accumulates_mispredictions() {
        let model = ProgramModel {
            branch_fraction: 0.4,
            branch_noise: 1.0,
            ..ProgramModel::compute_bound()
        };
        let mut cpu = Cpu::default();
        let mut state = ProgramState::default();
        let mut rng = StdRng::seed_from_u64(3);
        let counters = cpu.run_interval(&model, &mut state, 20_000, &mut rng);
        assert!(
            counters.branch_miss_rate() > 0.3,
            "rate {}",
            counters.branch_miss_rate()
        );
    }
}
