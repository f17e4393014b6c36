//! E10 — multi-core interference on the shared L3 and the coherence bus.
//!
//! The paper's measurements all run on multi-core parts whose last-level
//! cache is shared (§II-B, §VI): co-running programs contend for L3
//! capacity, and writes to shared lines travel the coherence protocol.
//! This experiment pins both effects on the simulated machine:
//!
//! 1. **L3 occupancy:** a pointer chase over a 512 KB working set (fits
//!    the 4 MB Skylake L3, exceeds the 256 KB L2) is measured on core 0
//!    while 0–3 co-runner cores loop a throttled streaming kernel over
//!    private 16 MB buffers (the stride-4 walk touches 4 MB of lines in
//!    each). Every streamed fill can evict a chase line —
//!    and, the L3 being inclusive, back-invalidate core 0's private
//!    copies — so the measured cycles-per-load must *grow with the
//!    co-runner count*.
//! 2. **False sharing:** core 0 chases a self-looping pointer in one line
//!    while a co-runner stores to a *different* word of the same line.
//!    Each store invalidates core 0's copy; each reload snoop-hits the
//!    co-runner's modified copy (`XSNP_HITM`) and pays the cross-core
//!    forward latency — an order of magnitude over the L1 hit it would
//!    otherwise be.
//!
//! Emits `BENCH_e10_interference.json`.

use nanobench_bench::write_metrics_json;
use nanobench_cache::LINE_SIZE;
use nanobench_core::{Aggregate, BenchSpec, Session, NB_SEED};
use nanobench_machine::Mode;
use nanobench_uarch::port::MicroArch;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Gpr, Width};

/// Size of the measured pointer-chase chain (the full R14 arena).
const CHASE_SIZE: u64 = 1 << 20;
/// Chain stride in bytes: 65 lines, coprime with the 16384-line arena, so
/// the chain visits every line before repeating.
const CHASE_STEP: u64 = 65 * LINE_SIZE;
/// Chase loads per measured run (walks the first 512 KB of the chain).
const CHASE_UNROLL: usize = 64;
/// Loop count of the measured spec.
const CHASE_LOOP: u64 = 256;
/// Address span of each co-runner's streaming walk. The walk uses a
/// 4-line stride, so this covers two L3s' worth of lines in one quarter
/// of the L3 sets.
const STREAM_SPAN: u64 = 16 << 20;
/// Stride of the streaming walk, in lines. Line-index bits 0–1 are set
/// index bits in every L3 slice, so a stride-4 walk at phase `p` only
/// fills sets whose index is ≡ p (mod 4): each streamer pressures its
/// own quarter of the L3 sets. Interference therefore *accumulates*
/// across streamers instead of the first one already evicting every set
/// (the adaptive-QLRU L3 is scan-resistant, so a single full-width
/// stream either bounces off or — once the chase slows — collapses it
/// entirely; partitioned pressure gives the graded, monotone response
/// real parts show on average).
const STREAM_STRIDE_LINES: u64 = 4;
/// Dependent ALU ops between a streamer's loads, throttling its fill
/// rate to the same order as the chase's load rate.
const STREAM_THROTTLE: usize = 8;

/// A self-contained streaming kernel: loops over the `STREAM_SPAN` bytes
/// at `buf`, loading one line every `STREAM_STRIDE_LINES` and burning
/// `STREAM_THROTTLE` dependent multiplies per iteration. `phase` selects
/// which quarter of the L3 sets the walk fills. Restarts from the top
/// when the machine's co-runner scheduler wraps it.
fn streamer(buf: u64, phase: u64) -> Vec<Instruction> {
    let start = buf + phase * LINE_SIZE;
    let stride = STREAM_STRIDE_LINES * LINE_SIZE;
    let mut program = vec![
        Instruction::binary(
            Mnemonic::Mov,
            Operand::gpr(Gpr::Rbx),
            Operand::imm(start as i64),
        ),
        Instruction::binary(
            Mnemonic::Mov,
            Operand::gpr(Gpr::Rcx),
            Operand::imm((STREAM_SPAN / stride) as i64),
        ),
    ];
    let loop_head = program.len();
    program.push(Instruction::binary(
        Mnemonic::Mov,
        Operand::gpr(Gpr::Rax),
        Operand::mem(Gpr::Rbx),
    ));
    program.push(Instruction::binary(
        Mnemonic::Add,
        Operand::gpr(Gpr::Rbx),
        Operand::imm(stride as i64),
    ));
    for _ in 0..STREAM_THROTTLE {
        program.push(Instruction::binary(
            Mnemonic::Imul,
            Operand::gpr(Gpr::Rdx),
            Operand::gpr(Gpr::Rdx),
        ));
    }
    program.push(Instruction::unary(Mnemonic::Dec, Operand::gpr(Gpr::Rcx)));
    program.push(Instruction::unary(Mnemonic::Jnz, Operand::Label(loop_head)));
    program
}

/// Builds a kernel session with `n_cores` cores, a pointer-chase chain in
/// the R14 arena, per-co-runner streaming buffers, and all hardware
/// prefetchers disabled (§IV-A2). Returns the session, the chase entry
/// point, and the streaming programs.
fn build_session(n_cores: usize) -> (Session, u64, Vec<Vec<Instruction>>) {
    let mut session = Session::with_seed_cores(MicroArch::Skylake, Mode::Kernel, NB_SEED, n_cores);
    let mut streams = Vec::new();
    for core in 1..n_cores {
        let buf = session
            .machine_mut()
            .alloc_region(STREAM_SPAN + LINE_SIZE * 4);
        streams.push(streamer(buf, core as u64 - 1));
    }

    // The chase chain: generated code points R14 at the arena's base, so
    // the chain starts there and steps through every line of the arena.
    let base = session.arena_base(Gpr::R14).expect("R14 is an arena reg");
    let start = base;
    let machine = session.machine_mut();
    let mut addr = start;
    loop {
        let next = base + ((addr - base) + CHASE_STEP) % CHASE_SIZE;
        machine.write_mem(addr, 8, next).expect("arena is mapped");
        if next == start {
            break;
        }
        addr = next;
    }
    for core in 0..n_cores {
        machine
            .hierarchy_mut()
            .prefetchers_of_mut(core)
            .disable_all();
    }
    (session, start, streams)
}

/// A basic-mode measured spec (empty baseline, so the reported value is
/// cycles per chase load, not an overhead-removed difference of two
/// differently-warm footprints).
fn chase_spec() -> BenchSpec {
    let mut spec = BenchSpec::new();
    spec.asm("mov r14, [r14]")
        .expect("chase asm")
        .unroll_count(CHASE_UNROLL)
        .loop_count(CHASE_LOOP)
        .basic_mode(true)
        .warm_up_count(1)
        .n_measurements(2)
        .aggregate(Aggregate::Median);
    spec
}

/// Measured cycles per chase load with `corunners` streaming cores.
fn chase_cycles(corunners: usize) -> f64 {
    let (mut session, _, streams) = build_session(1 + corunners);
    let mut spec = chase_spec();
    for program in streams {
        spec.corunner(program);
    }
    let result = session.run(&spec).expect("chase runs");
    result.core_cycles().expect("core cycles measured")
}

/// Measured cycles per load of a self-looping pointer in a line that a
/// co-runner core is (or is not) storing to — the false-sharing probe.
fn false_sharing_cycles(contended: bool) -> f64 {
    let (mut session, line, _) = build_session(2);
    // Turn the chain head into a self-loop: every chase load hits the
    // same line, so the probe isolates pure coherence cost.
    session
        .machine_mut()
        .write_mem(line, 8, line)
        .expect("arena is mapped");
    let mut spec = chase_spec();
    if contended {
        // Stores to another word of the same line: pure invalidation
        // traffic, no interaction with the chased pointer itself.
        let store = Instruction::binary(
            Mnemonic::Mov,
            Operand::Mem(MemRef::absolute(line + 8, Width::Q)),
            Operand::gpr(Gpr::Rbx),
        );
        spec.corunner(vec![store; 8]);
    }
    let result = session.run(&spec).expect("false-sharing probe runs");
    result.core_cycles().expect("core cycles measured")
}

fn main() {
    println!("== E10: multi-core interference (shared L3 + coherence) ==");

    println!("\nL3 occupancy: 512 KB pointer chase vs streaming co-runners");
    let chase: Vec<f64> = (0..=3).map(chase_cycles).collect();
    for (k, cycles) in chase.iter().enumerate() {
        println!("  {k} co-runner(s): {cycles:7.2} cycles/load");
    }
    assert!(
        chase[0] < 60.0,
        "uncontended chase must be served by L2/L3 (got {:.2})",
        chase[0]
    );
    for k in 1..chase.len() {
        assert!(
            chase[k] > chase[k - 1],
            "slowdown must grow with the co-runner count: \
             {} co-runner(s) {:.2} !> {} co-runner(s) {:.2}",
            k,
            chase[k],
            k - 1,
            chase[k - 1]
        );
    }
    assert!(
        chase[3] > 1.5 * chase[0],
        "three streamers must substantially slow the chase"
    );

    println!("\nfalse sharing: same-line chase vs remote same-line stores");
    let fs_solo = false_sharing_cycles(false);
    let fs_contended = false_sharing_cycles(true);
    println!("  uncontended: {fs_solo:7.2} cycles/load");
    println!("  contended:   {fs_contended:7.2} cycles/load");
    assert!(
        fs_contended > 5.0 * fs_solo,
        "false sharing must cost cross-core snoop latency \
         ({fs_contended:.2} vs {fs_solo:.2})"
    );

    println!("\nmeasured-core slowdown grows with co-runner count, as on real parts");
    write_metrics_json(
        "BENCH_e10_interference.json",
        "e10_interference",
        "cycles_per_load",
        &[
            ("chase_0_corunners", chase[0]),
            ("chase_1_corunner", chase[1]),
            ("chase_2_corunners", chase[2]),
            ("chase_3_corunners", chase[3]),
            ("false_sharing_uncontended", fs_solo),
            ("false_sharing_contended", fs_contended),
        ],
    );
}
