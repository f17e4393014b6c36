//! Policy-inference jobs.
//!
//! A full [`fit_policy`] run measures dozens of random sequences through
//! cacheSeq on a freshly built machine. [`InferRequest`] packages one such
//! inference — CPU configuration, level, set, seeds and sequence budget —
//! as a self-contained job, so sweeps such as Table I fan out across
//! worker threads with `nanobench_core::parallel_map` and give the same
//! result for any worker count. [`InferRequest::table1_row`] is the §VI-C1
//! Table I row of one CPU: three requests, each paired with the policy it
//! must recover.

use crate::addresses::Level;
use crate::cacheseq::CacheSeq;
use crate::policy_fit::{fit_policy, FitResult};
use nanobench_cache::policy::PolicyKind;
use nanobench_cache::{CpuSpec, L3PolicyConfig};
use nanobench_core::NbError;

/// One policy-inference job: everything [`run_infer`] needs to build a
/// cacheSeq and fit a policy.
#[derive(Debug, Clone)]
pub struct InferRequest {
    /// The CPU model to infer against.
    pub cpu: CpuSpec,
    /// The cache level under test.
    pub level: Level,
    /// The cache set accessed.
    pub set: usize,
    /// The L3 slice (must be `Some` exactly for [`Level::L3`]).
    pub slice: Option<usize>,
    /// Number of same-set blocks the cacheSeq pool holds.
    pub n_blocks: usize,
    /// Associativity the candidates are simulated at.
    pub assoc: usize,
    /// Maximum number of random sequences measured on the machine.
    pub max_sequences: usize,
    /// Seed of the cacheSeq machine.
    pub seq_seed: u64,
    /// Seed of the random-sequence generator in [`fit_policy`].
    pub fit_seed: u64,
}

impl InferRequest {
    /// The standard Table I inference for `level` of `cpu`: the set,
    /// block-count and seed choices of the E6 experiment (`n_blocks =
    /// assoc + 4`, machine seed 7, fit seed 21, 80-sequence budget).
    pub fn table1(cpu: &CpuSpec, level: Level, set: usize, assoc: usize) -> InferRequest {
        InferRequest {
            cpu: cpu.clone(),
            level,
            set,
            slice: Some(0).filter(|_| level == Level::L3),
            n_blocks: assoc + 4,
            assoc,
            max_sequences: 80,
            seq_seed: 7,
            fit_seed: 21,
        }
    }

    /// The Table I row of `cpu`: its L1, L2 and L3 inferences, each with
    /// the ground-truth policy it must recover. L1 uses set 5 and L2 set
    /// 21. A uniform L3 uses set 100; an adaptive one (Ivy Bridge, Haswell,
    /// Broadwell) uses set 520 of slice 0, inside the deterministic leader
    /// range 512–575 of §VI-D, and must recover policy A.
    pub fn table1_row(cpu: &CpuSpec) -> [(InferRequest, PolicyKind); 3] {
        let (l3_set, l3_policy) = match &cpu.l3_policy {
            L3PolicyConfig::Uniform(kind) => (100, kind),
            L3PolicyConfig::Adaptive { policy_a, .. } => (520, policy_a),
        };
        [
            (
                InferRequest::table1(cpu, Level::L1, 5, cpu.l1_assoc),
                cpu.l1_policy.clone(),
            ),
            (
                InferRequest::table1(cpu, Level::L2, 21, cpu.l2_assoc),
                cpu.l2_policy.clone(),
            ),
            (
                InferRequest::table1(cpu, Level::L3, l3_set, cpu.l3_assoc),
                l3_policy.clone(),
            ),
        ]
    }
}

/// Runs the inference: builds the cacheSeq and fits the policy.
///
/// # Errors
///
/// Propagates cacheSeq construction and measurement errors.
pub fn run_infer(req: &InferRequest) -> Result<FitResult, NbError> {
    let mut cs = CacheSeq::new(
        &req.cpu,
        req.level,
        req.set,
        req.slice,
        req.n_blocks,
        req.seq_seed,
    )?;
    fit_policy(&mut cs, req.assoc, req.max_sequences, req.fit_seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_cache::presets::table1_cpus;
    use nanobench_core::parallel_map;

    #[test]
    fn table1_inference_recovers_every_policy() {
        // §VI-C1 / Table I: all ten CPUs × three levels, each inference
        // uniquely recovering the configured ground truth.
        let jobs: Vec<(InferRequest, PolicyKind)> = table1_cpus()
            .iter()
            .flat_map(InferRequest::table1_row)
            .collect();
        assert_eq!(jobs.len(), 30);
        let fits = parallel_map(0, &jobs, |(req, _), _| run_infer(req)).unwrap();
        let failures: Vec<String> = jobs
            .iter()
            .zip(&fits)
            .filter(|((_, expected), fit)| !(fit.is_unique() && fit.contains(expected)))
            .map(|((req, expected), fit)| {
                format!(
                    "{} {:?}: expected {expected}, got {}",
                    req.cpu.microarch,
                    req.level,
                    fit.summary()
                )
            })
            .collect();
        assert!(failures.is_empty(), "{failures:#?}");
    }
}
