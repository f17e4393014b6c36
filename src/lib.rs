//! # nanobench — a reproduction of nanoBench (ISPASS 2020) in Rust
//!
//! This façade crate re-exports the whole workspace: the nanoBench tool
//! itself ([`nanobench_core`]), the simulated x86 machine it runs on, and
//! the two case-study toolkits from the paper.
//!
//! See the repository `README.md` for a guided tour, and `DESIGN.md` for
//! the system inventory and experiment index.

#![warn(missing_docs)]

pub use nanobench_analysis as analysis;
pub use nanobench_cache as cache;
pub use nanobench_cache_tools as cache_tools;
pub use nanobench_core as nb;
pub use nanobench_inst_tools as inst_tools;
pub use nanobench_machine as machine;
pub use nanobench_pmu as pmu;
pub use nanobench_uarch as uarch;
pub use nanobench_x86 as x86;
