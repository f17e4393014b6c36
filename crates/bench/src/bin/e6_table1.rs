//! E6 — Table I: replacement policies of the ten CPU models.
//!
//! For every Table I CPU, the policy-fitting tool (random sequences via
//! cacheSeq/nanoBench vs. candidate simulation, §VI-C1) re-infers the L1,
//! L2 and L3 policies blindly; the result is compared with the policies
//! the paper reports (which are the simulator's configured ground truth).
//! Adaptive L3s (Ivy Bridge / Haswell / Broadwell) are inferred on their
//! leader sets; the probabilistic leader ranges are detected as
//! non-deterministic, as in the paper (§VI-D).
//!
//! The 30 inferences (10 CPUs × 3 levels) are independent jobs with fixed
//! seeds, so the whole table is a campaign: they fan out across worker
//! threads via `nanobench_core::parallel_map` and the results are
//! identical for any worker count. Each row's requests and expected
//! policies come from `InferRequest::table1_row`, which tier-1 also runs.

use nanobench_bench::write_metrics_json;
use nanobench_cache::policy::PolicyKind;
use nanobench_cache::presets::table1_cpus;
use nanobench_cache_tools::{run_infer, InferRequest};
use nanobench_core::{auto_workers, parallel_map, NbError};
use std::time::Instant;

/// One inference job: re-infer the policy of a level and report it
/// relative to the expected Table I policy as `(display, matched?)`. The
/// exact-matching tool can only identify policies up to observational
/// equivalence, so a match means the expected policy is in the unique
/// surviving equivalence class.
fn infer((request, expected): &(InferRequest, PolicyKind)) -> Result<(String, bool), NbError> {
    let fit = run_infer(request)?;
    let matched = fit.is_unique() && fit.contains(expected);
    let display = if matched {
        let class_size = fit.matching[0].len();
        if class_size > 1 {
            format!("{} (class of {class_size})", expected.name())
        } else {
            expected.name()
        }
    } else {
        fit.summary()
    };
    Ok((display, matched))
}

fn main() {
    println!("== E6: Table I — inferred replacement policies ==");
    let cpus = table1_cpus();
    let jobs: Vec<(InferRequest, PolicyKind)> =
        cpus.iter().flat_map(InferRequest::table1_row).collect();

    let workers = auto_workers();
    let start = Instant::now();
    let results = parallel_map(0, &jobs, |job, _| infer(job)).expect("inference campaign runs");
    let campaign_ms = start.elapsed().as_secs_f64() * 1000.0;

    println!(
        "{:<18} {:<6} {:<22} {:<28} status",
        "CPU", "L1", "L2", "L3 (leader set / uniform)"
    );
    let mut all_ok = true;
    for (i, cpu) in cpus.iter().enumerate() {
        let (l1, ok1) = &results[3 * i];
        let (l2, ok2) = &results[3 * i + 1];
        let (l3, ok3) = &results[3 * i + 2];
        let ok = *ok1 && *ok2 && *ok3;
        all_ok &= ok;
        println!(
            "{:<18} {:<6} {:<22} {:<28} {}",
            cpu.microarch,
            l1,
            truncate(l2, 22),
            truncate(l3, 28),
            if ok { "MATCH" } else { "MISMATCH" }
        );
    }
    println!();
    println!("(L3 of Ivy Bridge/Haswell/Broadwell shown for leader sets 512-575;");
    println!(" the 768-831 ranges are non-deterministic — see E7/E8.)");
    println!(
        "{} inferences in {campaign_ms:.0} ms ({workers} workers)",
        jobs.len()
    );
    write_metrics_json(
        "BENCH_table1.json",
        "e6_table1_campaign",
        "ms",
        &[
            ("inference_wall_ms", campaign_ms),
            ("inferences", jobs.len() as f64),
            ("workers", workers as f64),
        ],
    );
    assert!(all_ok, "every inferred policy must match Table I");
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        format!("{}..", &s[..n - 2])
    }
}
