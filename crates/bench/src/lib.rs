//! Experiment harness for the nanoBench reproduction; see the `bin`
//! targets: the eleven experiments e1..e11 and the `nblint` and
//! `nbverify` checkers. The repository's benchmark is the separate
//! `perfbench` package.
//!
//! Timing-shaped experiments (e2, e5, e6, e9, e10, e11) emit their
//! measurements as `BENCH_*.json` artifacts in a shared format via
//! [`write_metrics_json`], so CI can collect a perf trajectory across
//! commits instead of the numbers dying in the job log.

use serde::{Serialize, Value};

/// Schema identifier stamped into every `BENCH_*.json` artifact, bumped
/// when the artifact shape changes so cross-commit diffs can tell formats
/// apart.
pub const METRICS_SCHEMA: &str = "nanobench-metrics/v2";

/// Env var the harness sets to the git commit short-hash the artifact was
/// produced from. Read at serialization time — nothing in-process shells
/// out to git or reads a clock.
pub const ENV_GIT_COMMIT: &str = "NANOBENCH_GIT_COMMIT";

/// Env var the harness sets to the `rustc --version` string.
pub const ENV_RUSTC_VERSION: &str = "NANOBENCH_RUSTC_VERSION";

/// Provenance pairs from the harness environment: whichever of
/// [`ENV_GIT_COMMIT`] / [`ENV_RUSTC_VERSION`] are set. Empty when run
/// outside the harness (a local `cargo run`), so artifacts stay
/// reproducible byte-for-byte without CI context.
pub fn provenance_from_env() -> Vec<(String, String)> {
    [(ENV_GIT_COMMIT, "git_commit"), (ENV_RUSTC_VERSION, "rustc")]
        .iter()
        .filter_map(|&(var, key)| std::env::var(var).ok().map(|v| (key.to_string(), v)))
        .collect()
}

/// A named set of scalar measurements from one experiment run.
///
/// Serializes as `{"experiment": ..., "unit": ..., "schema": ...,
/// "provenance": {...}, "metrics": {...}}` — the schema every
/// `BENCH_*.json` artifact shares.
#[derive(Debug, Clone)]
pub struct BenchMetrics {
    /// Experiment identifier, e.g. `"e2_exec_time"`.
    pub experiment: String,
    /// Unit of the metric values, e.g. `"ms"`.
    pub unit: String,
    /// `(name, value)` pairs in output order.
    pub metrics: Vec<(String, f64)>,
    /// `(key, value)` provenance pairs (git commit short-hash, rustc
    /// version), passed in from the harness via env vars.
    pub provenance: Vec<(String, String)>,
}

impl BenchMetrics {
    /// Builds a metrics set from `(name, value)` pairs, with provenance
    /// from the harness environment ([`provenance_from_env`]).
    pub fn new(experiment: &str, unit: &str, metrics: &[(&str, f64)]) -> BenchMetrics {
        BenchMetrics {
            experiment: experiment.to_string(),
            unit: unit.to_string(),
            metrics: metrics
                .iter()
                .map(|(n, v)| ((*n).to_string(), *v))
                .collect(),
            provenance: provenance_from_env(),
        }
    }
}

impl Serialize for BenchMetrics {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("experiment".to_owned(), self.experiment.to_value()),
            ("unit".to_owned(), self.unit.to_value()),
            ("schema".to_owned(), METRICS_SCHEMA.to_value()),
            (
                "provenance".to_owned(),
                Value::Object(
                    self.provenance
                        .iter()
                        .map(|(k, v)| (k.clone(), v.to_value()))
                        .collect(),
                ),
            ),
            (
                "metrics".to_owned(),
                Value::Object(
                    self.metrics
                        .iter()
                        .map(|(n, v)| (n.clone(), v.to_value()))
                        .collect(),
                ),
            ),
        ])
    }
}

/// Writes one experiment's measurements to `path` as pretty JSON.
///
/// # Panics
///
/// Panics if the file cannot be written (the experiment binaries treat
/// their artifact like their stdout: failing to produce it is a failure).
pub fn write_metrics_json(path: &str, experiment: &str, unit: &str, metrics: &[(&str, f64)]) {
    let doc = BenchMetrics::new(experiment, unit, metrics);
    let json = serde_json::to_string_pretty(&doc).expect("metrics serialize");
    std::fs::write(path, json + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("timing artifact written to {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_serialize_in_order() {
        // Pin provenance explicitly rather than via set_var: env mutation
        // races parallel test threads.
        let doc = BenchMetrics {
            provenance: vec![("git_commit".to_owned(), "abc1234".to_owned())],
            ..BenchMetrics::new("e2_exec_time", "ms", &[("kernel", 1.5), ("user", 4.25)])
        };
        let json = serde_json::to_string(&doc).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"experiment":"e2_exec_time","unit":"ms","schema":"nanobench-metrics/v2","#,
                r#""provenance":{"git_commit":"abc1234"},"metrics":{"kernel":1.5,"user":4.25}}"#
            )
        );
    }
}
