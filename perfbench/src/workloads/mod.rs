//! The four workloads. Each is a closed loop of ops from one client on
//! one host thread; an op is one nanoBench invocation as its user calls
//! it (see `WORKLOADS.md` beside `Cargo.toml`).

pub mod age_graph;
pub mod inst_table;
pub mod interference;
pub mod invocation;

use crate::layers::{Counters, Spans};
use nanobench_core::NbError;

/// Names accepted by `--workload`, in the order `all` runs them.
pub const NAMES: [&str; 4] = ["inst_table", "age_graph", "invocation", "interference"];

/// One workload: its set-up, its op, and the output check of its claim.
pub trait Workload: Sized {
    /// The simulated output of one op.
    type Out;

    /// Length of the deterministic op prefix that the output check replays
    /// on a fresh set-up and pins for known seeds.
    const REFERENCE_OPS: usize;

    /// Ops that are pure functions of an input cycling with this period:
    /// op `i` must reproduce op `i % period` bit-exactly.
    const PERIOD: Option<usize>;

    /// Whether the op resets its session, rewinding the machine's cycle
    /// counter and cache statistics midway.
    const RESETS_IN_OP: bool;

    /// Ops the traced run's exact-count window spans, from a fresh set-up.
    const COUNT_OPS: usize;

    /// Ops per timing window: a stretch of consecutive ops whose mix of
    /// inputs matches the whole run's (see `fast`).
    const WINDOW_OPS: usize;

    /// Pinned folds of the first [`Workload::REFERENCE_OPS`] digests, by
    /// seed: the default seed 1 and the held-out seed 7.
    const PINS: &'static [(u64, u64)];

    /// Builds the session or `CacheSeq`, chase chains and buffers from
    /// `seed` (passed on as the machine seed).
    fn setup(seed: u64, spans: &mut Spans) -> Result<Self, NbError>;

    /// Runs op `i`.
    fn op(&mut self, i: usize) -> Result<Self::Out, NbError>;

    /// Runs op `i` with a span around each public layer call it makes.
    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> Result<Self::Out, NbError>;

    /// Bit-exact digest of an op's output.
    fn digest(out: &Self::Out) -> u64;

    /// Checks op `i`'s output against the claim the workload reproduces,
    /// and records what the run-level check needs.
    fn check_op(&mut self, i: usize, out: &Self::Out) -> Result<(), String>;

    /// Checks the run-level claim over every op checked so far; returns
    /// what it found, in one line.
    fn check_run(&mut self, seed: u64) -> Result<String, String>;

    /// Snapshot of the work counters of the session the ops run on.
    fn counters(&mut self) -> Counters;
}
