//! # nanobench-core — the nanoBench tool
//!
//! A reproduction of *nanoBench: A Low-Overhead Tool for Running
//! Microbenchmarks on x86 Systems* (Abel & Reineke, ISPASS 2020), running
//! against the simulated machine of `nanobench-machine`.
//!
//! The crate implements the paper's §III features: code generation per
//! Algorithm 1 ([`codegen`]), the measurement loop per Algorithm 2 with
//! min/median/trimmed-mean aggregates ([`runner`]), overhead removal by
//! running two unroll versions (§III-C), kernel- and user-space execution
//! (§III-D), dedicated register memory areas (§III-G), warm-up runs
//! (§III-H), the noMem register mode with pausable counters (§III-I),
//! counter multiplexing from configuration files (§III-J), and a
//! `nanoBench.sh`-style option interface ([`shell`]).
//!
//! Campaigns — many benchmarks against the same machine model — should use
//! the [`session`] module: a [`Session`] amortizes machine construction
//! across runs and a [`Campaign`] shards runs over worker threads with
//! bit-deterministic results ([`session`] has the seeding scheme).
//!
//! # Examples
//!
//! The paper's §III-A example — L1 data cache latency on Skylake:
//!
//! ```
//! use nanobench_core::NanoBench;
//! use nanobench_uarch::port::MicroArch;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nb = NanoBench::kernel(MicroArch::Skylake);
//! let result = nb
//!     .asm("mov R14, [R14]")?
//!     .asm_init("mov [R14], R14")?
//!     .config_str(nanobench_pmu::config::cfg_skylake())?
//!     .unroll_count(100)
//!     .warm_up_count(1)
//!     .run()?;
//! assert_eq!(result.get("Instructions retired"), Some(1.0));
//! assert_eq!(result.core_cycles(), Some(4.0));
//! assert_eq!(result.get("MEM_LOAD_RETIRED.L1_HIT"), Some(1.0));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod error;
pub mod nanobench;
pub mod result;
pub mod runner;
pub mod session;
pub mod shell;

pub use error::NbError;
pub use nanobench::NanoBench;
pub use result::BenchmarkResult;
pub use runner::Aggregate;
pub use session::{auto_workers, parallel_map, BenchSpec, Campaign, LintGate, Session, NB_SEED};
