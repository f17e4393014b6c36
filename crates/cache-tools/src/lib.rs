//! Case study II: cache-characterization tools (§VI of the paper).
//!
//! Built on nanoBench (`nanobench-core`), this crate provides:
//!
//! * [`cacheseq`] — the cacheSeq tool: measures the hits/misses of an
//!   access sequence against a specific cache set, with per-element
//!   measurement inclusion, automatic higher-level eviction accesses, and
//!   optional `WBINVD` (§VI-C);
//! * [`perm_infer`] — inference of permutation policies (the RTAS'13
//!   algorithm of ref \[15\], §VI-C1);
//! * [`policy_fit`] — policy identification by comparing random-sequence
//!   measurements against simulations of LRU/FIFO/PLRU/MRU and all
//!   meaningful QLRU variants (§VI-C1);
//! * [`age_graph`](mod@age_graph) — "age" graphs for analyzing non-deterministic policies
//!   (§VI-C2, Figure 1);
//! * [`dueling`] — detection of the dedicated leader sets of adaptive
//!   caches, including per-C-Box differences (§VI-C3);
//! * [`infer`] — self-contained policy-inference jobs for sweeps such as
//!   Table I, including each CPU's Table I row and its expected policies.

#![warn(missing_docs)]

pub mod addresses;
pub mod age_graph;
pub mod cacheseq;
pub mod dueling;
pub mod infer;
pub mod perm_infer;
pub mod policy_fit;

pub use addresses::{build_pool, AddrPool, Level};
pub use age_graph::{age_graph, AgeGraph};
pub use cacheseq::{AccessSeq, CacheSeq, SeqItem};
pub use dueling::{find_dedicated_sets, find_dedicated_sets_on, DuelingReport, SliceReport};
pub use infer::{run_infer, InferRequest};
pub use perm_infer::{infer_permutation_policy, PermInferResult};
pub use policy_fit::{candidate_library, equivalence_classes, fit_policy, FitResult};
