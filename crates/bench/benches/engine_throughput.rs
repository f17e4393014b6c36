//! Engine throughput: instructions/second of the cached-plan interpreter
//! on a fixed ALU+memory body, looped and unrolled.
//!
//! Emits `BENCH_engine.json` with both rates so CI tracks the
//! interpreter's perf trajectory alongside the e5/e6 campaign wall times
//! from the same job.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nanobench_bench::write_metrics_json;
use nanobench_machine::{Machine, Mode};
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::inst::Instruction;
use nanobench_x86::reg::Gpr;
use std::time::Instant;

/// The 8-instruction ALU+load/store body (dependency chains, an RMW): the
/// shape of a generated microbenchmark's measured region.
const BODY: &str = "add rax, 1; \
                    mov [r14], rax; \
                    mov rbx, [r14]; \
                    imul rbx, rbx; \
                    add [r14+64], rbx; \
                    xor rcx, rbx; \
                    lea rdx, [rcx+rbx]; \
                    sub r9, rdx";

/// Looped workload: 200 iterations around the body plus a conditional
/// branch — high dynamic/static instruction ratio, measuring raw
/// interpreter speed.
fn looped_workload() -> Vec<Instruction> {
    parse_asm(&format!("mov r15, 200; l: {BODY}; dec r15; jnz l")).expect("workload parses")
}

/// Unrolled workload: 100 straight-line copies of the body with no loop —
/// the §III-F "unroll only" shape, with no loop-close branch to fuse.
fn unrolled_workload() -> Vec<Instruction> {
    let line = format!("{BODY}; ").repeat(100);
    parse_asm(&line).expect("workload parses")
}

fn machine() -> Machine {
    let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
    let base = m.alloc_region(1 << 20);
    m.state_mut().set_gpr(Gpr::R14, base);
    m
}

/// Measures sustained instructions/second: `reps` full workload runs per
/// timing window, median over `WINDOWS` windows (one scheduler hiccup
/// inside a single window would otherwise skew the artifact the CI perf
/// guard compares against).
const WINDOWS: usize = 5;

fn rate(m: &mut Machine, program: &[Instruction], reps: usize) -> f64 {
    let plan = m.decode(program);
    let mut rates = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let mut instructions = 0u64;
        let start = Instant::now();
        for _ in 0..reps {
            instructions += m.run_plan(&plan).expect("runs").instructions;
        }
        rates.push(instructions as f64 / start.elapsed().as_secs_f64());
    }
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[WINDOWS / 2]
}

fn bench_engine(c: &mut Criterion) {
    let looped = looped_workload();
    let unrolled = unrolled_workload();
    let mut group = c.benchmark_group("engine_throughput");
    group.sample_size(10);

    let mut m = machine();
    let plan = m.decode(&looped);
    group.bench_function("looped/cached_plan", |b| {
        b.iter(|| black_box(m.run_plan(&plan).expect("runs")))
    });

    let mut m = machine();
    let plan = m.decode(&unrolled);
    group.bench_function("unrolled/cached_plan", |b| {
        b.iter(|| black_box(m.run_plan(&plan).expect("runs")))
    });
    group.finish();

    // Artifact: sustained instructions/sec per workload. Benches run with
    // the package directory as CWD, so anchor the artifact at the
    // workspace root where CI collects BENCH_*.json.
    let looped_plan = rate(&mut machine(), &looped, 200);
    let unrolled_plan = rate(&mut machine(), &unrolled, 400);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_engine.json");
    write_metrics_json(
        path,
        "engine_throughput",
        "instructions/s",
        &[
            ("looped_cached_plan_ips", looped_plan),
            ("unrolled_cached_plan_ips", unrolled_plan),
        ],
    );
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
