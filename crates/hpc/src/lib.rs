//! Hardware performance counter (HPC) simulator and signature dataset
//! generator.
//!
//! The paper's second HMD (Zhou et al., *Hardware Performance Counters Can
//! Detect Malware: Myth or Fact?*, ASIACCS 2018) samples per-interval HPC
//! readings (instructions, branches, branch misses, cache accesses/misses)
//! while benign programs and malware run on bare metal, and trains classifiers
//! on those vectors. The original corpus cannot be redistributed, so this
//! crate substitutes a small micro-architecture simulator:
//!
//! * [`cache::Cache`] — set-associative LRU caches (L1D and LLC),
//! * [`branch::BranchPredictor`] — a 2-bit saturating-counter predictor,
//! * [`cpu::Cpu`] — an in-order core that simulates synthetic instruction
//!   streams produced by [`workload::ProgramModel`]s and counts a
//!   [`counters::CounterSet`] per interval: a trace stage draws the
//!   interval's memory addresses and branches, then the core replays them,
//!   bit for bit the per-instruction simulation,
//! * [`sampler::Sampler`] — fixed-instruction sampling intervals, one HPC
//!   vector per interval, exactly like a perf-style sampling daemon,
//! * [`apps::ProgramCatalog`] — benign programs and malware families whose
//!   instruction mixes **overlap heavily**, reproducing Zhou et al.'s (and the
//!   paper's) central observation that benign and malware classes are not
//!   separable in HPC space.
//!
//! # Example
//!
//! ```
//! use hmd_hpc::dataset::HpcCorpusBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let split = HpcCorpusBuilder::new()
//!     .with_samples_per_app(6)
//!     .build_split(3)?;
//! assert!(split.train.len() > 0);
//! assert!(split.unknown.len() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod apps;
pub mod branch;
pub mod cache;
pub mod counters;
pub mod cpu;
pub mod dataset;
pub mod features;
pub mod sampler;
pub mod stream;
mod trace;
pub mod workload;

pub use apps::{ProgramCatalog, ProgramProfile};
pub use branch::BranchPredictor;
pub use cache::{Cache, CacheConfig};
pub use counters::CounterSet;
pub use cpu::{Cpu, CpuConfig};
pub use dataset::HpcCorpusBuilder;
pub use sampler::Sampler;
pub use stream::HpcCorpusStream;
pub use workload::ProgramModel;
