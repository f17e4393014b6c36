//! Exact timing pins, one row per step handler.
//!
//! Each row runs a short program on a fresh kernel-mode [`TestBus`] engine
//! and pins what the timing model produced: `RunStats::{instructions,
//! cycles}`, `UOPS_ISSUED.ANY`, the eight `UOPS_DISPATCHED_PORT.*` counts,
//! the load hit levels (L1, L2, L3, memory) and the retired and
//! mispredicted branches. Every dispatch-table slot (`plan::handler`) runs
//! in a row of its own (CLI and STI share one, as do the two counting
//! markers), and so does every superblock entry kind (ALU, `LoadQ`,
//! `LoadAlu`, a non-fast load, `StoreQ`, a non-fast store, RMW and the
//! loop-close branch) and every `push`/`pop` operand form. The rows
//! exercise every per-µop timing rule — readiness, compute, load, store,
//! branch and serialization — so an engine refactor that claims bit
//! identity must leave every value here untouched.
//!
//! Each row runs twice (two counter passes of at most eight programmable
//! counters); the engine is deterministic, so both passes see the same
//! run. The first pass counts `UOPS_ISSUED.ANY` and ports 0–6, the second
//! port 7, the four load hit levels and the branch counts.

use nanobench_pmu::event::{events, EventCode};
use nanobench_pmu::Pmu;
use nanobench_uarch::bus::{Bus, TestBus};
use nanobench_uarch::engine::{Engine, RunStats};
use nanobench_uarch::port::MicroArch;
use nanobench_uarch::state::CpuState;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::reg::Gpr;

/// Base of the data region every memory operand addresses.
const BASE: u64 = 0x10_0000;
/// Initial stack pointer for the push/pop rows.
const STACK: u64 = 0x20_0000;

const PASS_A: [EventCode; 8] = [
    events::UOPS_ISSUED_ANY,
    events::uops_dispatched_port(0),
    events::uops_dispatched_port(1),
    events::uops_dispatched_port(2),
    events::uops_dispatched_port(3),
    events::uops_dispatched_port(4),
    events::uops_dispatched_port(5),
    events::uops_dispatched_port(6),
];

const PASS_B: [EventCode; 7] = [
    events::uops_dispatched_port(7),
    events::MEM_LOAD_L1_HIT,
    events::MEM_LOAD_L2_HIT,
    events::MEM_LOAD_L3_HIT,
    events::MEM_LOAD_L3_MISS,
    events::BR_INST_RETIRED,
    events::BR_MISP_RETIRED,
];

/// Runs `asm` once on a fresh engine, bus and state with `counters`
/// programmed, and returns the run's stats and the counter readings.
fn run_pass(asm: &str, counters: &[EventCode]) -> (RunStats, Vec<u64>) {
    let program = parse_asm(asm).unwrap_or_else(|e| panic!("{asm}: {e}"));
    let mut bus = TestBus::new(true);
    let mut pmu = Pmu::new(8, bus.slice_count());
    for (i, code) in counters.iter().enumerate() {
        pmu.configure(i, Some(*code));
    }
    let mut state = CpuState::new();
    state.set_gpr(Gpr::R14, BASE);
    state.set_gpr(Gpr::Rsp, STACK);
    state.set_gpr(Gpr::Rbx, 3);
    state.set_gpr(Gpr::Rcx, 5);
    // A self-pointer for the dependent-load chains.
    bus.write(BASE, 8, BASE).unwrap();
    let mut engine = Engine::new(MicroArch::Skylake, 3);
    let plan = engine.decode(&program);
    let stats = engine
        .run_plan(&plan, &mut state, &mut pmu, &mut bus, 0)
        .unwrap_or_else(|f| panic!("{asm}: {f}"));
    let readings = (0..counters.len())
        .map(|i| pmu.rdpmc(i as u32).unwrap())
        .collect();
    (stats, readings)
}

/// One row's pinned values, formatted on one line.
fn reading(asm: &str) -> String {
    let (stats, a) = run_pass(asm, &PASS_A);
    let (again, b) = run_pass(asm, &PASS_B);
    assert_eq!(
        stats, again,
        "{asm}: the two counter passes must see one run"
    );
    format!(
        "inst {} cyc {} uops {} ports {:?} l1 {} l2 {} l3 {} mem {} br {} misp {}",
        stats.instructions,
        stats.cycles,
        a[0],
        [a[1], a[2], a[3], a[4], a[5], a[6], a[7], b[0]],
        b[1],
        b[2],
        b[3],
        b[4],
        b[5],
        b[6],
    )
}

/// Loads that hit every level of the test hierarchy (4 KiB 8-way L1,
/// 32 KiB 8-way L2) and memory: nine lines 4 KiB apart share one L1 set
/// and one L2 set, so re-reading the first one misses both and hits the
/// L3; nine more lines 512 B apart share only the L1 set.
fn hierarchy_walk(load: &str) -> String {
    let mut asm = String::new();
    for i in 0..9 {
        asm += &format!("{load} [r14+{:#x}]; ", i * 4096);
    }
    asm += &format!("{load} [r14]; ");
    for i in 0..9 {
        asm += &format!("{load} [r14+{:#x}]; ", 0x40000 + i * 512);
    }
    asm += &format!("{load} [r14+0x40000]; ");
    asm
}

fn rows() -> Vec<(&'static str, String, &'static str)> {
    vec![
        // ---- superblock entry kinds (handler slots 1-4 and the fused
        // loop-close branch) ----
        (
            "alu",
            "add rax, rbx; imul rax, rcx; add rdx, 1; xor rsi, rsi; \
             lea rdi, [rax+rdx]; shl r8, 1; adc r9, r10; "
                .repeat(4),
            "inst 28 cyc 17 uops 28 ports [10, 6, 0, 0, 0, 6, 6, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "load_q",
            hierarchy_walk("mov rax,") + &"mov r14, [r14]; ".repeat(8),
            "inst 28 cyc 209 uops 28 ports [0, 0, 14, 14, 0, 0, 0, 0] l1 7 l2 7 l3 1 mem 13 br 0 misp 0",
        ),
        (
            "load_alu",
            hierarchy_walk("add rax,") + &"sub rax, [r14+8]; xor rbx, [r14+rcx*8]; ".repeat(4),
            "inst 28 cyc 224 uops 56 ports [4, 14, 14, 14, 0, 0, 10, 0] l1 7 l2 7 l3 1 mem 13 br 0 misp 0",
        ),
        (
            "load_generic",
            hierarchy_walk("movzx rax, byte ptr")
                + &"mov eax, dword ptr [r14+8]; imul rdx, [r14+16]; movsx rsi, word ptr [r14+rcx*2]; "
                .repeat(4),
            "inst 32 cyc 209 uops 36 ports [0, 4, 16, 16, 0, 0, 0, 0] l1 11 l2 7 l3 1 mem 13 br 0 misp 0",
        ),
        (
            "store_q",
            "mov [r14+8], rax; mov [r14+0x1000], 7; add rax, 1; ".repeat(8)
                + &"mov [r14+0x40], rbx; ".repeat(8),
            "inst 32 cyc 13 uops 56 ports [2, 2, 8, 9, 24, 2, 2, 7] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "store_generic",
            "mov dword ptr [r14+8], eax; mov byte ptr [r14+0x1003], 1; \
             mov word ptr [r14+0x2000], cx; add rax, 1; "
                .repeat(6),
            "inst 24 cyc 11 uops 42 ports [1, 2, 7, 5, 18, 2, 1, 6] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "rmw",
            "add [r14+8], rax; sub qword ptr [r14+0x1000], 1; \
             add dword ptr [r14+0x2000], eax; inc qword ptr [r14+8]; "
                .repeat(4),
            "inst 16 cyc 203 uops 64 ports [0, 3, 16, 10, 16, 13, 0, 6] l1 13 l2 0 l3 0 mem 3 br 0 misp 0",
        ),
        (
            "loop_close",
            "mov r15, 12; l: add rax, 1; mov [r14+8], rax; mov rbx, [r14+8]; \
             add [r14+16], rbx; dec r15; jnz l"
                .to_string(),
            "inst 73 cyc 66 uops 133 ports [18, 12, 18, 20, 24, 16, 15, 10] l1 24 l2 0 l3 0 mem 0 br 12 misp 2",
        ),
        // ---- handler 0: the generic path ----
        (
            "generic",
            "vaddps ymm0, ymm1, ymm2; vmulps ymm3, ymm0, ymm0; addps xmm4, [r14+64]; \
             movaps [r14+128], xmm4; movq rax, xmm3; vaddps ymm5, ymm3, ymm0; \
             call f; nop; f: add rax, [r14+8]; push 12; ret; nop; mulps xmm4, xmm4"
                .to_string(),
            "inst 11 cyc 208 uops 18 ports [4, 3, 2, 2, 2, 3, 2, 0] l1 0 l2 1 l3 0 mem 1 br 2 misp 0",
        ),
        // ---- register-only branches ----
        (
            "cond_branch",
            "mov r15, 9; l: dec r15; nop; jnz l; cmp rbx, rcx; nop; jc m; add rax, 1; \
             m: nop; jnc e; add rax, 2; e: nop".to_string(),
            "inst 35 cyc 60 uops 46 ports [12, 7, 0, 0, 0, 5, 10, 0] l1 0 l2 0 l3 0 mem 0 br 11 misp 3",
        ),
        (
            "jump",
            "jmp a; b: add rax, 1; jmp c; a: imul rax, rax; jmp b; c: nop".to_string(),
            "inst 6 cyc 4 uops 9 ports [2, 2, 0, 0, 0, 2, 2, 0] l1 0 l2 0 l3 0 mem 0 br 3 misp 0",
        ),
        // ---- special-mnemonic handlers ----
        ("nop", "nop; add rax, 1; ".repeat(6), "inst 12 cyc 6 uops 12 ports [2, 2, 0, 0, 0, 1, 1, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0"),
        (
            "lfence",
            "imul rax, rax; imul rax, rax; lfence; add rbx, 1; lfence; mov rcx, [r14]".to_string(),
            "inst 6 cyc 207 uops 6 ports [0, 2, 0, 1, 0, 1, 0, 0] l1 0 l2 0 l3 0 mem 1 br 0 misp 0",
        ),
        (
            "fence",
            "mov [r14], rax; mfence; add rax, 1; mov [r14+8], rax; sfence; add rbx, 1"
                .to_string(),
            "inst 6 cyc 37 uops 8 ports [0, 1, 2, 0, 2, 1, 0, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "cpuid",
            "mov eax, 1; cpuid; add rbx, rax; xor eax, eax; cpuid".to_string(),
            "inst 5 cyc 260 uops 53 ports [14, 13, 0, 0, 0, 13, 13, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "rdtsc",
            "imul rax, rax; rdtsc; rdtscp; sub rax, rdx; add rcx, rax".to_string(),
            "inst 5 cyc 53 uops 5 ports [1, 3, 0, 0, 0, 0, 1, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "rdpmc",
            "imul rcx, rcx; xor ecx, ecx; rdpmc; add rax, 1; rdpmc".to_string(),
            "inst 5 cyc 51 uops 23 ports [3, 6, 0, 0, 0, 7, 7, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "rdmsr",
            "mov ecx, 0xC1; rdmsr; add rax, 1; mov ecx, 0x706; rdmsr".to_string(),
            "inst 5 cyc 201 uops 5 ports [1, 2, 0, 0, 0, 1, 1, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "wrmsr",
            "imul rax, rax; mov ecx, 0x706; xor eax, eax; xor edx, edx; wrmsr; add rbx, 1"
                .to_string(),
            "inst 6 cyc 155 uops 6 ports [1, 1, 0, 0, 0, 2, 1, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "wbinvd",
            "mov rax, [r14]; wbinvd; mov rbx, [r14]; add rbx, 1".to_string(),
            "inst 4 cyc 5401 uops 4 ports [0, 0, 1, 1, 0, 1, 0, 0] l1 0 l2 0 l3 0 mem 2 br 0 misp 0",
        ),
        (
            "clflush",
            "mov rax, [r14+8]; clflush [r14]; mov rbx, [r14+8]; clflushopt [r14+64]; \
             mov rdx, [r14+64]"
                .to_string(),
            "inst 5 cyc 202 uops 7 ports [0, 0, 3, 1, 2, 0, 0, 1] l1 0 l2 0 l3 0 mem 3 br 0 misp 0",
        ),
        (
            "prefetch",
            "prefetcht0 [r14+128]; mov rax, [r14+128]; prefetchnta [r14+0x3000]; \
             prefetcht1 [r14+rbx*8]; mov rdx, [r14+0x3000]"
                .to_string(),
            "inst 5 cyc 6 uops 5 ports [0, 0, 3, 2, 0, 0, 0, 0] l1 2 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        ("cli_sti", "cli; add rax, 1; sti; cli; sti".to_string(), "inst 5 cyc 1 uops 5 ports [2, 1, 0, 0, 0, 1, 1, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0"),
        (
            "serialize",
            "imul rax, rax; swapgs; invlpg [r14]; add rbx, 1; mov cr3, rax; hlt".to_string(),
            "inst 6 cyc 404 uops 6 ports [0, 2, 0, 0, 0, 0, 0, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "rdrand",
            "rdrand rax; rdseed rbx; add rax, rbx; rdrand ecx".to_string(),
            "inst 4 cyc 900 uops 4 ports [0, 3, 0, 0, 0, 1, 0, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "nb_pause_resume",
            "add rax, 1; nb_pause; imul rax, rax; mov rbx, [r14]; nb_resume; add rax, 1; \
             nb_pause; nb_resume"
                .to_string(),
            "inst 8 cyc 200 uops 2 ports [1, 0, 0, 0, 0, 0, 1, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        // ---- push and pop, every operand form ----
        (
            "push_reg",
            "imul rax, rax; push rax; push rbx; ".repeat(4),
            "inst 12 cyc 12 uops 28 ports [2, 4, 2, 2, 8, 4, 2, 4] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        ("push_imm", "push 7; push -1; ".repeat(4), "inst 8 cyc 8 uops 24 ports [2, 2, 0, 8, 8, 2, 2, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0"),
        (
            "push_mem",
            "push qword ptr [r14+8]; push qword ptr [r14+0x5000]; ".repeat(3),
            "inst 6 cyc 6 uops 18 ports [2, 1, 0, 6, 6, 1, 2, 0] l1 0 l2 0 l3 0 mem 0 br 0 misp 0",
        ),
        (
            "pop_reg",
            "push rax; pop rbx; imul rbx, rbx; pop rcx; ".repeat(3),
            "inst 12 cyc 202 uops 24 ports [6, 3, 5, 3, 3, 0, 3, 1] l1 5 l2 0 l3 0 mem 1 br 0 misp 0",
        ),
        (
            "pop_mem",
            "push rax; pop qword ptr [r14+8]; pop qword ptr [r14+0x5000]; ".repeat(3),
            "inst 9 cyc 202 uops 21 ports [3, 1, 4, 4, 3, 3, 2, 1] l1 5 l2 0 l3 0 mem 1 br 0 misp 0",
        ),
    ]
}

#[test]
fn every_handler_keeps_its_pinned_timing() {
    let mut mismatches = Vec::new();
    for (name, asm, expected) in rows() {
        let got = reading(&asm);
        if got != expected {
            mismatches.push(format!("{name}:\n  expected {expected}\n  got      {got}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} row(s) moved:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// `call` pushes the index of the instruction after it, so `ret` returns
/// there: six vector instructions, `call`, `add`, `ret`, `jmp` and
/// `mulps` retire, eleven in all.
#[test]
fn call_returns_to_the_instruction_after_it() {
    let asm = "vaddps ymm0, ymm1, ymm2; vmulps ymm3, ymm0, ymm0; addps xmm4, [r14+64]; \
               movaps [r14+128], xmm4; movq rax, xmm3; vaddps ymm5, ymm3, ymm0; \
               call f; jmp e; f: add rax, [r14+8]; ret; e: mulps xmm4, xmm4";
    let (stats, _) = run_pass(asm, &[]);
    assert_eq!(stats.instructions, 11);
}

/// Every store drains the C-Box lookups its access caused right after the
/// access, so a later write to the uncore counters starts them from a
/// clean slate. Zeroing both slices' counters after a store to a cold line
/// (which reaches the L3) must therefore read back 0, for `push` as for
/// `mov`.
#[test]
fn push_drains_uncore_lookups_like_mov() {
    let zero_then_read = "mov ecx, 0x706; xor eax, eax; xor edx, edx; wrmsr; \
                          mov ecx, 0x707; wrmsr; \
                          mov ecx, 0x706; rdmsr; mov rbx, rax; \
                          mov ecx, 0x707; rdmsr; add rax, rbx";
    for store in ["mov [rsp-8], rax", "push rax"] {
        let program = parse_asm(&format!("{store}; {zero_then_read}")).unwrap();
        let mut bus = TestBus::new(true);
        let mut pmu = Pmu::new(4, bus.slice_count());
        let mut state = CpuState::new();
        state.set_gpr(Gpr::Rsp, STACK);
        let mut engine = Engine::new(MicroArch::Skylake, 3);
        let plan = engine.decode(&program);
        engine
            .run_plan(&plan, &mut state, &mut pmu, &mut bus, 0)
            .unwrap();
        assert_eq!(
            state.gpr(Gpr::Rax),
            0,
            "`{store}`: C-Box lookups reached the counters after they were zeroed"
        );
    }
}
