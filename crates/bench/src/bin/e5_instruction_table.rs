//! E5 — §V case study I: the uops.info-style instruction table.
//!
//! Runs the full latency/throughput/port-usage suite on Skylake (and the
//! FMA-latency comparison against Haswell), printing the table and JSON.
//! Four latencies are checked against documented Skylake values (ADD 1,
//! IMUL 3, MOV load 4, MULPS 4), every vector variant is checked to
//! measure identically through the §III-E code-bytes path, and the FMA
//! latency pair is checked against Haswell (5) and Skylake (4).

use nanobench_bench::write_metrics_json;
use nanobench_core::Campaign;
use nanobench_inst_tools::{
    benchmark_suite, measure_instruction, measure_instruction_on, measure_instruction_via_bytes_on,
    render_table, run_suite_with, to_json, InstSpec,
};
use nanobench_uarch::port::MicroArch;
use std::time::Instant;

fn main() {
    println!("== E5: §V instruction latency/throughput/port usage ==");
    let campaign = Campaign::kernel(MicroArch::Skylake);
    let n_variants = benchmark_suite().len();
    let workers = campaign.effective_workers(n_variants);
    let start = Instant::now();
    let rows = run_suite_with(&campaign).expect("suite runs");
    let campaign_ms = start.elapsed().as_secs_f64() * 1000.0;
    println!("{}", render_table(MicroArch::Skylake, &rows));
    println!(
        "{} variants measured in {campaign_ms:.0} ms across {workers} campaign workers",
        rows.len()
    );

    // Spot checks against documented Skylake values.
    let get = |name: &str| rows.iter().find(|r| r.name == name).expect(name);
    assert_eq!(get("ADD (r64, r64)").latency, Some(1.0));
    assert_eq!(get("IMUL (r64, r64)").latency, Some(3.0));
    assert_eq!(get("MOV load (r64, m64)").latency, Some(4.0));
    assert_eq!(get("MULPS (xmm, xmm)").latency, Some(4.0));

    // §III-E path equivalence: every vector variant of the suite measures
    // identically when its code goes through the binary code-input path
    // (assemble → encode to bytes → decode) instead of the asm path.
    let vector_specs: Vec<InstSpec> = benchmark_suite()
        .into_iter()
        .filter(|s| s.throughput_asm.contains("xmm") || s.throughput_asm.contains("ymm"))
        .collect();
    assert!(vector_specs.len() >= 20, "the suite has vector variants");
    let pairs = campaign
        .run_map(&vector_specs, |session, spec, _| {
            let via_asm = measure_instruction_on(session, spec)?;
            let via_bytes = measure_instruction_via_bytes_on(session, spec)?;
            Ok((via_asm, via_bytes))
        })
        .expect("byte-path sweep runs");
    for (spec, (via_asm, via_bytes)) in vector_specs.iter().zip(&pairs) {
        assert_eq!(
            via_asm, via_bytes,
            "{}: byte path must match asm path",
            spec.name
        );
    }
    println!(
        "byte-path equivalence: {} vector variants bit-identical via §III-E code bytes",
        pairs.len()
    );

    // Microarchitecture comparison: FMA latency Haswell (5) vs Skylake (4).
    let fma = InstSpec::new(
        "VFMADD231PS (ymm)",
        Some("vfmadd231ps ymm0, ymm0, ymm1"),
        "vfmadd231ps ymm0, ymm1, ymm2; vfmadd231ps ymm3, ymm4, ymm5; vfmadd231ps ymm6, ymm7, ymm8; vfmadd231ps ymm9, ymm10, ymm11",
        4,
    );
    let skl = measure_instruction(MicroArch::Skylake, &fma).unwrap();
    let hsw = measure_instruction(MicroArch::Haswell, &fma).unwrap();
    println!(
        "VFMADD231PS latency: Skylake {:?} vs Haswell {:?} (documented: 4 vs 5)",
        skl.latency, hsw.latency
    );
    assert_eq!(skl.latency, Some(4.0));
    assert_eq!(hsw.latency, Some(5.0));

    // Machine-readable output (§V publishes XML; we emit JSON).
    let json = to_json(&rows);
    std::fs::write("instruction_table.json", &json).expect("writing instruction_table.json");
    println!(
        "JSON written to instruction_table.json ({} bytes)",
        json.len()
    );

    // Campaign-throughput artifact for the perf trajectory (CI uploads it).
    write_metrics_json(
        "BENCH_campaign.json",
        "e5_instruction_table_campaign",
        "ms",
        &[
            ("suite_wall_ms", campaign_ms),
            ("variants", rows.len() as f64),
            ("workers", workers as f64),
            ("ms_per_variant", campaign_ms / rows.len() as f64),
        ],
    );
}
