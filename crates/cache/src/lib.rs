//! Cache-hierarchy simulator for the nanoBench reproduction.
//!
//! Implements the memory-hierarchy substrate the paper's case study II
//! (§VI) experiments on: set-associative L1/L2 caches, a sliced L3 with
//! C-Box lookup counters and the undocumented slice-selection hash,
//! hardware prefetchers disableable via MSR 0x1A4, and — most importantly —
//! the full library of replacement policies from §VI-B: permutation
//! policies (LRU, FIFO, PLRU), MRU and its Sandy Bridge variant, the
//! parameterized QLRU family with the paper's naming scheme, and adaptive
//! replacement via set dueling.
//!
//! The ten CPU models of Table I are available as presets ([`presets`]);
//! their configured policies are the ground truth that the inference tools
//! in `nanobench-cache-tools` re-discover.
//!
//! # Examples
//!
//! ```
//! use nanobench_cache::policy::{simulate_sequence, PolicyKind};
//!
//! // Simulate <A B C A> on a 2-way LRU set: all four accesses miss.
//! let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 2, 0]);
//! assert!(hits.iter().all(|h| !h));
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod hierarchy;
pub mod policy;
pub mod prefetch;
pub mod presets;
pub mod slice;

pub use cache::{Cache, CacheConfig, CacheStats, LineState, PselCounter, SetRole, LINE_SIZE};
pub use hierarchy::{
    CacheHierarchy, CoherenceViolation, CoreOutOfRange, HierarchyConfig, HierarchyError, HitLevel,
    L3Config, L3PolicyConfig, Latencies, MemAccessResult, ProtocolMutation, SliceLeaders,
    SnoopResult,
};
pub use policy::{PolicyKind, QlruVariant, SetPolicy};
pub use prefetch::{Prefetchers, MSR_MISC_FEATURE_CONTROL};
pub use presets::{cpu_by_microarch, table1_cpus, CpuSpec};
pub use slice::{SliceHash, SliceHashError};
