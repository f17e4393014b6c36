//! Quick interpreter-throughput probe: the `engine_throughput` looped
//! workload without the criterion harness, for profiling and the CI perf
//! guard.
//!
//! Prints sustained instructions/second for the cached-plan path on the
//! looped workload, and exits non-zero if `--min-ips N` is given and the
//! rate falls below it.

use nanobench_machine::{Machine, Mode};
use nanobench_uarch::port::MicroArch;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::inst::Instruction;
use nanobench_x86::reg::Gpr;
use std::time::Instant;

const BODY: &str = "add rax, 1; \
                    mov [r14], rax; \
                    mov rbx, [r14]; \
                    imul rbx, rbx; \
                    add [r14+64], rbx; \
                    xor rcx, rbx; \
                    lea rdx, [rcx+rbx]; \
                    sub r9, rdx";

fn machine() -> Machine {
    let mut m = Machine::new(MicroArch::Skylake, Mode::Kernel, 7);
    let base = m.alloc_region(1 << 20);
    m.state_mut().set_gpr(Gpr::R14, base);
    m
}

/// Median over several timing windows: a single scheduler hiccup must not
/// fail the CI guard or inflate the recorded baseline.
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

fn main() {
    let min_ips: Option<f64> = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .position(|a| a == "--min-ips")
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
    };
    let looped = parse_asm(&format!("mov r15, 200; l: {BODY}; dec r15; jnz l")).expect("parses");
    // Warm up, then measure.
    rate(&mut machine(), &looped, 50);
    let plan_ips = rate(&mut machine(), &looped, 400);
    println!("looped_cached_plan_ips   {plan_ips:.0}");
    if let Some(min) = min_ips {
        if plan_ips < min {
            eprintln!("FAIL: cached-plan rate {plan_ips:.0} below required {min:.0}");
            std::process::exit(1);
        }
    }
}
