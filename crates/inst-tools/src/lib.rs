//! Case study I: instruction latencies, throughputs and port usages (§V).
//!
//! "We developed an approach to automatically generate assembler code for
//! microbenchmarks that measure the latencies, throughputs, and port usages
//! of x86 instructions" — this crate generates those microbenchmarks
//! (dependency chains for latency, independent unrolled copies for
//! throughput, direct port-pressure counters for port usage), evaluates
//! them with nanoBench, and emits a uops.info-style table in both
//! human-readable and machine-readable (JSON) form.

#![warn(missing_docs)]

pub mod measure;
pub mod table;

pub use measure::{
    measure_instruction, measure_instruction_on, measure_instruction_via_bytes_on, InstMeasurement,
    InstSpec,
};
pub use table::{benchmark_suite, render_table, run_suite, run_suite_with, to_json, TableRow};
