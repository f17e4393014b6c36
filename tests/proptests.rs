//! Property-based tests on core invariants, spanning crates.

use nanobench::cache::policy::{simulate_sequence, PolicyKind, SetSim};
use nanobench::pmu::event::events;
use nanobench::pmu::Pmu;
use nanobench::uarch::bus::{Bus, TestBus};
use nanobench::uarch::engine::Engine;
use nanobench::uarch::exec::{self, Next};
use nanobench::uarch::port::MicroArch;
use nanobench::uarch::state::CpuState;
use nanobench::x86::asm::{format_program, parse_asm};
use nanobench::x86::corpus::LOOP_BODY_POOL;
use nanobench::x86::encode::{decode_program, encode_program};
use nanobench::x86::inst::{Instruction, Mnemonic};
use nanobench::x86::operand::{MemRef, Operand};
use nanobench::x86::reg::{Flag, Gpr, VecReg, Width};
use proptest::prelude::*;

fn arbitrary_policy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Lru),
        Just(PolicyKind::Fifo),
        Just(PolicyKind::Plru),
        Just(PolicyKind::Mru {
            fill_sets_all_ones: false
        }),
        Just(PolicyKind::Mru {
            fill_sets_all_ones: true
        }),
        Just(PolicyKind::Qlru(
            nanobench::cache::QlruVariant::parse("QLRU_H11_M1_R0_U0").unwrap()
        )),
        Just(PolicyKind::Qlru(
            nanobench::cache::QlruVariant::parse("QLRU_H00_M1_R2_U1").unwrap()
        )),
    ]
}

proptest! {
    /// Any access sequence against any policy: an access to a block that
    /// is in the set hits; hits never change the set's contents; the
    /// number of distinct cached blocks never exceeds the associativity.
    #[test]
    fn cache_set_invariants(
        policy in arbitrary_policy(),
        seq in proptest::collection::vec(0u64..12, 1..120),
    ) {
        let assoc = 8;
        let mut sim = SetSim::new(&policy, assoc, 7);
        for &b in &seq {
            let before = sim.contains(b);
            let contents_before: Vec<_> = sim.contents().to_vec();
            let hit = sim.access(b);
            prop_assert_eq!(hit, before, "hit iff present");
            if hit {
                prop_assert_eq!(sim.contents().to_vec(), contents_before,
                    "hits must not change contents");
            }
            prop_assert!(sim.contains(b), "accessed block must be cached");
            let distinct = sim.contents().iter().filter(|t| t.is_some()).count();
            prop_assert!(distinct <= assoc);
        }
    }

    /// Deterministic policies are reproducible: same sequence, same hits.
    #[test]
    fn deterministic_policies_are_reproducible(
        policy in arbitrary_policy(),
        seq in proptest::collection::vec(0u64..10, 1..80),
    ) {
        let a = simulate_sequence(&policy, 8, 1, &seq);
        let b = simulate_sequence(&policy, 8, 2, &seq); // different seed
        prop_assert_eq!(a, b, "deterministic policies ignore the seed");
    }

    /// Assembler text formatting round-trips.
    #[test]
    fn asm_format_round_trips(
        ops in proptest::collection::vec(0usize..6, 1..20),
    ) {
        let text: String = ops.iter().map(|o| match o {
            0 => "add rax, rbx\n",
            1 => "mov rcx, qword ptr [r14+0x40]\n",
            2 => "nop\n",
            3 => "lfence\n",
            4 => "xor r8d, r9d\n",
            _ => "shl rdx, 5\n",
        }).collect();
        let insts = parse_asm(&text).unwrap();
        let reparsed = parse_asm(&format_program(&insts)).unwrap();
        prop_assert_eq!(insts, reparsed);
    }

    /// Machine-code encoding round-trips through the decoder, vector
    /// instructions included.
    #[test]
    fn encode_decode_round_trips(
        ops in proptest::collection::vec(0usize..14, 1..30),
    ) {
        let text: String = ops.iter().map(|o| match o {
            0 => "add rax, rbx\n",
            1 => "mov rcx, [r14+64]\n",
            2 => "nop\n",
            3 => "lfence\n",
            4 => "sub r8, 7\n",
            5 => "imul rsi, rdi\n",
            6 => "mov [rbp-8], rdx\n",
            7 => "popcnt rbx, rcx\n",
            8 => "addps xmm0, xmm1\n",
            9 => "movaps xmm2, [r14+16]\n",
            10 => "vfmadd231ps ymm0, ymm1, ymm2\n",
            11 => "pxor xmm10, xmm11\n",
            12 => "vaddps ymm3, ymm4, [r14]\n",
            _ => "movq xmm5, rax\n",
        }).collect();
        let insts = parse_asm(&text).unwrap();
        let (bytes, _) = encode_program(&insts).unwrap();
        prop_assert_eq!(decode_program(&bytes).unwrap(), insts);
    }

    /// The ModRM/SIB emitter round-trips over randomly generated memory
    /// operands: every base (including the RSP/RBP/R12/R13 special cases
    /// and no base at all), every scale, and displacements straddling the
    /// disp8/disp32 boundaries — edge cases the fixed corpus cannot reach.
    #[test]
    fn modrm_sib_round_trips_over_random_memory_operands(
        base_sel in 0usize..17,
        index_sel in 0usize..16,
        scale_sel in 0usize..4,
        disp_sel in 0usize..18,
        rand_disp in (i32::MIN as i64)..=(i32::MAX as i64),
        shape in 0usize..5,
    ) {
        // Boundary displacements around the disp8 (±0x7F) and disp32 edges,
        // plus the random draw as the final selector.
        const DISPS: [i64; 17] = [
            0, 1, -1, 8, 64, 127, 128, -127, -128, -129, 255, -256, 4096,
            -4096, i32::MAX as i64, i32::MIN as i64, 0x0012_3456,
        ];
        // All 16 GPRs can be bases; RSP cannot be an index.
        let base = (base_sel < 16).then(|| Gpr::ALL[base_sel]);
        let index_regs: Vec<Gpr> = Gpr::ALL.iter().copied().filter(|g| *g != Gpr::Rsp).collect();
        let scale = [1u8, 2, 4, 8][scale_sel];
        let index = (index_sel < index_regs.len()).then(|| (index_regs[index_sel], scale));
        let disp = if disp_sel < DISPS.len() { DISPS[disp_sel] } else { rand_disp };
        let mem = MemRef { base, index, disp, width: Width::Q };

        // Exercise the emitter from GPR, SSE and VEX instructions: the
        // same ModRM/SIB machinery runs under REX and VEX prefixes.
        let inst = match shape {
            0 => Instruction::binary(Mnemonic::Mov, Operand::gpr(Gpr::Rax), Operand::Mem(mem)),
            1 => Instruction::binary(Mnemonic::Mov, Operand::Mem(mem), Operand::gpr(Gpr::R9)),
            2 => Instruction::binary(Mnemonic::Movaps, Operand::Vec(VecReg::xmm(9)), Operand::Mem(mem)),
            3 => Instruction::with_operands(
                Mnemonic::Vaddps,
                &[
                    Operand::Vec(VecReg::ymm(1)),
                    Operand::Vec(VecReg::ymm(12)),
                    Operand::Mem(mem),
                ],
            ),
            _ => Instruction::unary(Mnemonic::Clflush, Operand::Mem(mem)),
        };
        let (bytes, _) = encode_program(std::slice::from_ref(&inst)).unwrap();
        let decoded = decode_program(&bytes).unwrap();
        prop_assert_eq!(decoded, vec![inst]);
    }
}

// ---------------------------------------------------------------------------
// Differential engine properties over random looped programs: the engine
// (`decode` + `run_plan`) matches a plain `exec::execute` stepping loop from
// random register, flag and vector states, and the co-runner stepping shape
// (`ctx.restart()` looping) does not depend on superblock fusion.
// ---------------------------------------------------------------------------

struct EngSide {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    bus: TestBus,
}

impl EngSide {
    fn new(kernel: bool, interrupts: bool) -> EngSide {
        let mut bus = TestBus::new(kernel);
        bus.set_interrupt_flag(!kernel && interrupts);
        let mut pmu = Pmu::new(4, bus.slice_count());
        for (i, code) in [
            events::UOPS_ISSUED_ANY,
            events::MEM_LOAD_L1_HIT,
            events::BR_INST_RETIRED,
            events::BR_MISP_RETIRED,
        ]
        .into_iter()
        .enumerate()
        {
            pmu.configure(i, Some(code));
        }
        let mut state = CpuState::new();
        state.set_gpr(Gpr::R14, 0x5000);
        state.set_gpr(Gpr::Rbp, 0x6000);
        EngSide {
            engine: Engine::new(MicroArch::Skylake, 9),
            state,
            pmu,
            bus,
        }
    }

    fn pmu_readings(&self) -> Vec<Option<u64>> {
        let fixed = (0..3u32).map(|i| self.pmu.rdpmc((1 << 30) | i));
        fixed.chain((0..4u32).map(|i| self.pmu.rdpmc(i))).collect()
    }
}

fn build_program(ops: &[usize], iters: u64) -> Vec<Instruction> {
    let body: String = ops
        .iter()
        .map(|&o| format!("{}; ", LOOP_BODY_POOL[o]))
        .collect();
    parse_asm(&format!("mov r15, {iters}; l: {body}dec r15; jnz l")).unwrap()
}

proptest! {
    /// The engine — its pre-decoded fast semantics, fused memory
    /// completions and loop-close branch included — leaves the same fault,
    /// `CpuState` (vector lanes included) and written memory as stepping
    /// the program through `exec::execute`, from random register, flag and
    /// vector states, in kernel mode and in user mode with interrupts.
    #[test]
    fn engine_matches_exec_oracle_on_random_programs(
        ops in proptest::collection::vec(0usize..LOOP_BODY_POOL.len(), 1..10),
        iters in 1u64..30,
        kernel_sel in 0usize..2,
        gprs in proptest::collection::vec(0u64..u64::MAX, 16..17),
        flags in 0u8..64,
        lanes in proptest::collection::vec(0u64..u64::MAX, 256..257),
    ) {
        let kernel = kernel_sel == 0;
        let program = build_program(&ops, iters);
        let mut start = CpuState::new();
        for (g, v) in Gpr::ALL.iter().zip(&gprs) {
            start.set_gpr(*g, *v);
        }
        for (i, f) in Flag::ALL.iter().enumerate() {
            start.set_flag(*f, flags & (1 << i) != 0);
        }
        for (i, v) in lanes.iter().enumerate() {
            start.set_vreg_lane((i / 8) as u8, i % 8, *v);
        }

        let mut engine = EngSide::new(kernel, true);
        engine.state = start.clone();
        let plan = engine.engine.decode(&program);
        let got = engine
            .engine
            .run_plan(&plan, &mut engine.state, &mut engine.pmu, &mut engine.bus, 0)
            .map(|_| ());

        let mut expected = start;
        let mut reference = TestBus::new(kernel);
        let mut pc = 0;
        let want = loop {
            let Some(inst) = program.get(pc) else { break Ok(()) };
            match exec::execute(inst, pc, &mut expected, &mut reference) {
                Ok(Next::Seq) => pc += 1,
                Ok(Next::Jump(target)) => pc = target,
                Err(fault) => break Err(fault),
            }
        };
        prop_assert_eq!(got, want, "fault diverged");
        prop_assert_eq!(&engine.state, &expected, "CpuState diverged");
        prop_assert_eq!(&engine.bus.mem, &reference.mem, "memory diverged");
    }

    /// The co-runner stepping shape — `step_plan` until the plan
    /// completes, then `ctx.restart()`, for several passes — retires the
    /// same instructions, cycles, PMU counts, and architectural state
    /// whether superblock fusion is on (default, as co-runner cores run)
    /// or off (as the multi-core scheduler runs core 0).
    #[test]
    fn corunner_restart_looping_is_fusion_invariant(
        ops in proptest::collection::vec(0usize..LOOP_BODY_POOL.len(), 1..8),
        iters in 1u64..12,
        passes in 1usize..4,
        kernel_sel in 0usize..2,
    ) {
        let kernel = kernel_sel == 0;
        let program = build_program(&ops, iters);
        // Interrupt polling happens once per dispatched step, so its
        // granularity legitimately differs with fusion; the multi-core
        // scheduler owns that by keeping core 0, the only core that takes
        // interrupts, unfused. Compare interrupt-free.
        let mut fused = EngSide::new(kernel, false);
        let mut single = EngSide::new(kernel, false);
        let plan = fused.engine.decode(&program);

        let mut ctx_a = fused.engine.begin_plan(0);
        let mut ctx_b = single.engine.begin_plan(0);
        ctx_b.disable_fusion();

        for ctx_pass in 0..passes {
            while fused.engine.step_plan(
                &mut ctx_a, &plan, &mut fused.state, &mut fused.pmu, &mut fused.bus,
            ).unwrap() {}
            while single.engine.step_plan(
                &mut ctx_b, &plan, &mut single.state, &mut single.pmu, &mut single.bus,
            ).unwrap() {}
            if ctx_pass + 1 < passes {
                ctx_a.restart();
                ctx_b.restart();
            }
        }
        let a = fused.engine.finish_plan(&mut ctx_a, &mut fused.pmu);
        let b = single.engine.finish_plan(&mut ctx_b, &mut single.pmu);
        prop_assert_eq!(a, b, "RunStats diverged between fused and unfused stepping");
        prop_assert_eq!(fused.pmu_readings(), single.pmu_readings());
        prop_assert_eq!(&fused.state, &single.state);
    }
}

// ---------------------------------------------------------------------------
// Analyzer differential: what the static analyzer accepts must complete,
// what it rejects must fail *structurally*. A spec the analyzer passes with
// zero errors runs to completion through the full Algorithm-1 pipeline in
// the analyzed mode, and so does its raw instruction sequence on a bare
// machine; a spec the analyzer rejects turns into `NbError::Lint` through
// the Deny gate — a structured error, never a fault escaping as a panic.
// ---------------------------------------------------------------------------

use nanobench::analysis::has_errors;
use nanobench::machine::{Machine, Mode};
use nanobench::nb::codegen::{ARENA_REGS, ARENA_SIZE};
use nanobench::nb::{BenchSpec, LintGate, NbError, Session};

/// Spec lines the analyzer differential draws from: a mix of clean lines,
/// warning-only lines (uninitialized data reads), and lines the analyzer
/// rejects in one or both modes (uninitialized address base, privileged,
/// provably unmapped absolute operand).
fn lint_line(op: usize) -> &'static str {
    match op {
        0 => "add rax, 1",
        1 => "mov [r14+8], rax",
        2 => "mov rbx, [r14+8]",
        3 => "imul rbx, rax",
        4 => "lea rdx, [rcx+rbx]",
        5 => "mov [rsi+32], rdx",
        6 => "addps xmm0, xmm1",
        7 => "shl rdx, 3",
        8 => "nop",
        9 => "mov r10, [rdi+128]",
        10 => "mov rax, [r11]",  // uninit address: rejected everywhere
        11 => "wbinvd",          // privileged: rejected in user mode
        _ => "mov rax, [0x100]", // unmapped absolute: rejected in user mode
    }
}

fn lint_spec(ops: &[usize]) -> BenchSpec {
    let body: String = ops.iter().map(|&o| format!("{}; ", lint_line(o))).collect();
    let mut spec = BenchSpec::new();
    spec.asm(body.trim_end_matches("; ")).expect("pool parses");
    spec.n_measurements(2);
    spec
}

/// A raw machine set up the way the generated code's prologue leaves the
/// registers: every dedicated arena register points at its own mapped 1MB
/// region (RSP biased to the middle, §III-G), and RAX/RCX/RDX hold the
/// defined values the counter reads leave behind.
fn machine_with_arenas(mode: Mode) -> Machine {
    let mut m = Machine::new(MicroArch::Skylake, mode, 7);
    for reg in ARENA_REGS {
        let base = m.alloc_region(ARENA_SIZE);
        let v = if reg == Gpr::Rsp {
            base + ARENA_SIZE / 2
        } else {
            base
        };
        m.state_mut().set_gpr(reg, v);
    }
    for reg in [Gpr::Rax, Gpr::Rcx, Gpr::Rdx] {
        m.state_mut().set_gpr(reg, 2);
    }
    m
}

proptest! {
    /// Accepted ⇒ completes; rejected ⇒ structured `NbError::Lint`.
    #[test]
    fn analyzer_verdicts_are_sound(
        ops in proptest::collection::vec(0usize..13, 1..8),
        kernel_sel in 0usize..2,
    ) {
        let spec = lint_spec(&ops);
        let mut session = if kernel_sel == 0 {
            Session::kernel(MicroArch::Skylake)
        } else {
            Session::user(MicroArch::Skylake)
        };
        session.lint(LintGate::Deny);
        let diags = session.analyze(&spec);
        let outcome = session.run(&spec);
        if has_errors(&diags) {
            match outcome {
                Err(NbError::Lint(errors)) => {
                    prop_assert!(!errors.is_empty());
                }
                Err(other) => prop_assert!(
                    false, "rejected spec must surface NbError::Lint, got {}", other
                ),
                Ok(_) => prop_assert!(
                    false, "the Deny gate must refuse a spec with lint errors"
                ),
            }
        } else {
            prop_assert!(
                outcome.is_ok(),
                "analyzer-accepted spec must complete: {:?}", outcome.err().map(|e| e.to_string())
            );
        }
    }

    /// Analyzer-accepted instruction sequences complete on a bare machine
    /// whose registers are set up the way the generated prologue leaves
    /// them, in kernel and in user mode.
    #[test]
    fn accepted_programs_complete_in_both_interpreters(
        ops in proptest::collection::vec(0usize..13, 1..8),
        kernel_sel in 0usize..2,
    ) {
        let mode = if kernel_sel == 0 { Mode::Kernel } else { Mode::User };
        let spec = lint_spec(&ops);
        let session = if mode == Mode::Kernel {
            Session::kernel(MicroArch::Skylake)
        } else {
            Session::user(MicroArch::Skylake)
        };
        if has_errors(&session.analyze(&spec)) {
            return; // only accepted specs carry the completion guarantee
        }

        let mut machine = machine_with_arenas(mode);
        let plan = machine.decode(&spec.code);
        let outcome = machine.run_plan(&plan);
        prop_assert!(outcome.is_ok(), "accepted program faulted: {:?}", outcome);
    }
}
