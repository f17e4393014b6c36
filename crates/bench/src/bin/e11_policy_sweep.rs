//! E11 — policy sweep: Table I inference across every preset × L3 slice
//! count × policy family.
//!
//! The sweep runs the §VI-C1 policy-fitting tool over a configuration
//! space much larger than Table I itself: for every preset CPU, the L1
//! and L2 inferences of its Table I row (E6) plus an L3 inference for
//! each slice count in {1, 2, 4} × each uniform policy family in {LRU,
//! FIFO, PLRU, MRU, QLRU_H11_M1_R0_U0} (PLRU only at power-of-two
//! associativity). Every inference must uniquely recover the configured
//! ground truth. The job count, worker count and sweep wall time land in
//! `BENCH_e11_sweep.json`.

use nanobench_bench::write_metrics_json;
use nanobench_cache::hierarchy::L3PolicyConfig;
use nanobench_cache::policy::PolicyKind;
use nanobench_cache::presets::table1_cpus;
use nanobench_cache_tools::{run_infer, InferRequest, Level};
use nanobench_core::{auto_workers, parallel_map};
use std::time::Instant;

/// One sweep job: an inference request plus the ground-truth policy it
/// must uniquely recover.
struct SweepJob {
    label: String,
    request: InferRequest,
    expected: PolicyKind,
}

/// The sweep's policy families (§VI-B2 names). PLRU is only defined for
/// power-of-two associativity and is skipped otherwise.
fn families() -> Vec<PolicyKind> {
    vec![
        PolicyKind::Lru,
        PolicyKind::Fifo,
        PolicyKind::Plru,
        PolicyKind::Mru {
            fill_sets_all_ones: false,
        },
        PolicyKind::parse("QLRU_H11_M1_R0_U0").expect("QLRU name parses"),
    ]
}

fn build_jobs() -> Vec<SweepJob> {
    let mut jobs = Vec::new();
    for cpu in table1_cpus() {
        let [l1, l2, _] = InferRequest::table1_row(&cpu);
        for (name, (request, expected)) in [("L1", l1), ("L2", l2)] {
            jobs.push(SweepJob {
                label: format!("{} {name}", cpu.microarch),
                request,
                expected,
            });
        }
        for slices in [1usize, 2, 4] {
            for family in families() {
                if family == PolicyKind::Plru && !cpu.l3_assoc.is_power_of_two() {
                    continue;
                }
                let mut variant = cpu.clone();
                variant.l3_slices = slices;
                variant.l3_policy = L3PolicyConfig::Uniform(family.clone());
                jobs.push(SweepJob {
                    label: format!("{} L3 x{slices} {}", cpu.microarch, family.name()),
                    request: InferRequest::table1(&variant, Level::L3, 100, variant.l3_assoc),
                    expected: family,
                });
            }
        }
    }
    jobs
}

fn main() {
    println!("== E11: policy sweep ==");
    let jobs = build_jobs();
    let workers = auto_workers();
    println!("{} inference jobs ({workers} workers)", jobs.len());

    let start = Instant::now();
    let results = parallel_map(0, &jobs, |job, _| {
        let fit = run_infer(&job.request)?;
        let matched = fit.is_unique() && fit.contains(&job.expected);
        let display = if matched {
            job.expected.name()
        } else {
            fit.summary()
        };
        Ok((display, matched))
    })
    .expect("sweep runs");
    let sweep_ms = start.elapsed().as_secs_f64() * 1000.0;
    println!("sweep: {sweep_ms:.0} ms");

    let mismatches: Vec<&str> = jobs
        .iter()
        .zip(&results)
        .filter(|(_, (_, ok))| !ok)
        .map(|(job, _)| job.label.as_str())
        .collect();
    for (job, (display, ok)) in jobs.iter().zip(&results) {
        if !ok {
            println!("MISMATCH {}: {}", job.label, display);
        }
    }

    write_metrics_json(
        "BENCH_e11_sweep.json",
        "e11_policy_sweep",
        "ms",
        &[
            ("jobs", jobs.len() as f64),
            ("workers", workers as f64),
            ("sweep_wall_ms", sweep_ms),
        ],
    );
    assert!(
        mismatches.is_empty(),
        "every sweep inference must uniquely recover its policy; failed: {mismatches:?}"
    );
}
