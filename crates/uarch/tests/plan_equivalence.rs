//! The two independent pairs that pin the plan interpreter.
//!
//! * **Fusion pair.** `run_plan` fuses straight-line entries into
//!   superblocks and closes loops in the same dispatch; stepping the same
//!   plan through `step_plan` with `RunContext::disable_fusion` executes one
//!   instruction per step. A third side steps fused under a turn limit
//!   that moves forward 0–8 cycles per turn, the way the multi-core
//!   scheduler drives co-runners, so superblocks are cut mid-block. Over
//!   corpus chunks of 4, 8 and 16 consecutive lines, a looped body with
//!   RMW and push/pop, and a loop closed by each other fused condition
//!   (`jnc`, `jc`, `jz`), all three agree bit for bit — `RunStats` or
//!   fault, PMU readings, `CpuState` and memory — in kernel mode and in
//!   user mode with interrupts masked. With interrupts on, fused runs poll
//!   once per dispatch, so interrupts land at other points and timing
//!   legitimately differs; architectural state and retired instructions
//!   still agree.
//! * **Oracle pair.** The engine's pre-decoded semantics (`execute_fast`,
//!   the fused load/store/RMW completions, fused push/pop and the
//!   loop-close branch) against a plain `exec::execute` stepping loop,
//!   both started from random register, flag and vector states: same
//!   fault, same `CpuState` and the same written memory, over every corpus
//!   line `exec::execute` implements and random looped programs closed by
//!   each fused condition.

use nanobench_pmu::event::events;
use nanobench_pmu::Pmu;
use nanobench_uarch::bus::{Bus, CpuFault, TestBus};
use nanobench_uarch::engine::{Engine, EngineConfig, RunStats};
use nanobench_uarch::exec::{self, Next};
use nanobench_uarch::plan::DecodedProgram;
use nanobench_uarch::port::MicroArch;
use nanobench_uarch::state::CpuState;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::corpus::{LOOP_BODY_POOL, ROUNDTRIP_CORPUS};
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::reg::{Flag, Gpr};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How a side executes a plan.
#[derive(Debug, Clone, Copy)]
enum Stepping {
    /// `run_plan`: fused superblocks and loop closes, no turn limit.
    Fused,
    /// `step_plan` with fusion off: one instruction per step.
    Single,
    /// `step_plan` with fusion on, in turns whose limit moves forward a
    /// pseudo-random 0–8 cycles each turn.
    Bounded,
}

/// One side of a pair: engine + state + PMU + bus + cycle cursor, and the
/// stream that draws bounded turns.
struct Side {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    bus: TestBus,
    cycle: u64,
    turns: SmallRng,
}

impl Side {
    fn new(kernel: bool) -> Side {
        let bus = TestBus::new(kernel);
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
        // Point the address-forming registers somewhere harmless so the
        // corpus's memory operands land in a small, cacheable region.
        state.set_gpr(Gpr::R14, 0x5000);
        state.set_gpr(Gpr::Rbp, 0x6000);
        state.set_gpr(Gpr::Rsp, 0x7000);
        Side {
            engine: Engine::new(MicroArch::Skylake, 0x517A),
            state,
            pmu,
            bus,
            cycle: 0,
            turns: SmallRng::seed_from_u64(0x7E2),
        }
    }

    fn run(&mut self, plan: &DecodedProgram, how: Stepping) -> Result<RunStats, CpuFault> {
        let result = match how {
            Stepping::Fused => {
                let (state, pmu, bus) = (&mut self.state, &mut self.pmu, &mut self.bus);
                self.engine.run_plan(plan, state, pmu, bus, self.cycle)
            }
            Stepping::Single => self.run_stepped(plan),
            Stepping::Bounded => self.run_bounded(plan),
        };
        if let Ok(stats) = &result {
            self.cycle = stats.end_cycle;
        }
        result
    }

    /// The public stepping API with fusion off, as the multi-core
    /// scheduler drives it.
    fn run_stepped(&mut self, plan: &DecodedProgram) -> Result<RunStats, CpuFault> {
        let mut ctx = self.engine.begin_plan(self.cycle);
        ctx.disable_fusion();
        let mut steps = 0;
        while self.engine.step_plan(
            &mut ctx,
            plan,
            &mut self.state,
            &mut self.pmu,
            &mut self.bus,
        )? {
            steps += 1;
        }
        assert_eq!(
            steps,
            ctx.instructions(),
            "an unfused step is one instruction"
        );
        let stats = self.engine.finish_plan(&mut ctx, &mut self.pmu);
        assert_eq!(ctx.now(), stats.end_cycle);
        Ok(stats)
    }

    /// The co-runner scheduler's shape: fused `step_plan` in turns. A turn
    /// takes at least one step and ends once the clock reaches its limit.
    fn run_bounded(&mut self, plan: &DecodedProgram) -> Result<RunStats, CpuFault> {
        let mut ctx = self.engine.begin_plan(self.cycle);
        loop {
            let limit = ctx.now() + self.turns.gen_range(0..=8);
            ctx.set_turn_limit(limit);
            loop {
                let (state, pmu, bus) = (&mut self.state, &mut self.pmu, &mut self.bus);
                if !self.engine.step_plan(&mut ctx, plan, state, pmu, bus)? {
                    return Ok(self.engine.finish_plan(&mut ctx, &mut self.pmu));
                }
                if ctx.now() >= limit {
                    break;
                }
            }
        }
    }

    fn pmu_readings(&self) -> Vec<Option<u64>> {
        let fixed = (0..3u32).map(|i| self.pmu.rdpmc((1 << 30) | i));
        fixed.chain((0..4u32).map(|i| self.pmu.rdpmc(i))).collect()
    }
}

fn program(asm: &str) -> (String, Vec<Instruction>) {
    (asm.to_string(), parse_asm(asm).unwrap())
}

/// The corpus cut into consecutive chunks of 4, 8 and 16 lines, so runs of
/// fusable lines form superblocks.
fn corpus_chunks() -> Vec<(String, Vec<Instruction>)> {
    [4, 8, 16]
        .into_iter()
        .flat_map(|k| ROUNDTRIP_CORPUS.chunks(k))
        .map(|chunk| program(&chunk.join("; ")))
        .collect()
}

/// A looped, memory-touching body: long enough for user-mode interrupts
/// to fire mid-run, with an RMW and a push/pop pair in the loop.
const LOOPED: &str = "mov r15, 200; mov rax, 0; l: add rax, 1; mov [r14+8], rax; \
                      mov rbx, [r14+8]; imul rbx, rbx; add [r14+64], rbx; push rax; \
                      push 7; pop rcx; pop rdx; dec r15; jnz l";

/// `body` looped `n` times under loop-close shape `close`: `dec r15; jnz`,
/// `sub r15, 1; jnc`, `add r15, 1; cmp r15, n; jc`, or a `dec r15; jz`
/// exit over a `jmp` back, so every fused loop-close condition is taken
/// and falls through.
fn looped(body: &str, n: u32, close: usize) -> String {
    match close % 4 {
        0 => format!("mov r15, {n}; l: {body}; dec r15; jnz l"),
        1 => format!("mov r15, {}; l: {body}; sub r15, 1; jnc l", n - 1),
        2 => format!("mov r15, 0; l: {body}; add r15, 1; cmp r15, {n}; jc l"),
        _ => format!("mov r15, {n}; l: {body}; dec r15; jz e; jmp l; e: nop"),
    }
}

/// Whether a program's results depend on timing or counter values, which
/// interrupts legitimately change.
fn reads_time_or_counters(program: &[Instruction]) -> bool {
    program
        .iter()
        .any(|i| matches!(i.mnemonic, Mnemonic::Rdtsc | Mnemonic::Rdpmc))
}

/// Runs every program three times (one plan replayed, the warm-up and
/// counter-half shape) fused on one side, and stepped and bounded on two
/// others, asserting after every run that each agrees with the fused side.
/// Returns the number of interrupts the fused side took.
fn fusion_pair(programs: &[(String, Vec<Instruction>)], kernel: bool, interrupts: bool) -> u64 {
    let mut fused = Side::new(kernel);
    let mut others = [
        (Stepping::Single, Side::new(kernel)),
        (Stepping::Bounded, Side::new(kernel)),
    ];
    fused.bus.set_interrupt_flag(interrupts);
    for (_, side) in &mut others {
        side.bus.set_interrupt_flag(interrupts);
    }
    for (name, program) in programs {
        let plan = fused.engine.decode(program);
        for round in 0..3 {
            let a = fused.run(&plan, Stepping::Fused);
            for (how, side) in &mut others {
                let b = side.run(&plan, *how);
                let at = format!("{name} ({how:?}, round {round})");
                if interrupts {
                    assert_eq!(
                        a.as_ref().map(|s| s.instructions),
                        b.as_ref().map(|s| s.instructions),
                        "{at}: retired instructions or fault diverged"
                    );
                } else {
                    assert_eq!(a, b, "{at}: RunStats/fault diverged");
                    assert_eq!(
                        fused.pmu_readings(),
                        side.pmu_readings(),
                        "{at}: PMU diverged"
                    );
                }
                assert_eq!(fused.state, side.state, "{at}: CpuState");
                assert_eq!(fused.bus.mem, side.bus.mem, "{at}: memory");
            }
        }
    }
    fused.bus.interrupts_taken
}

#[test]
fn corpus_kernel_mode() {
    fusion_pair(&corpus_chunks(), true, false);
}

#[test]
fn corpus_user_mode_with_interrupts() {
    let chunks = corpus_chunks();
    assert_eq!(fusion_pair(&chunks, false, false), 0);
    let untimed: Vec<_> = chunks
        .into_iter()
        .filter(|(_, p)| !reads_time_or_counters(p))
        .collect();
    assert!(
        fusion_pair(&untimed, false, true) > 0,
        "the user-mode sweep must take interrupts"
    );
}

/// The looped body — with magic pause/resume markers (§III-I) around the
/// loop and a divide error in the middle of a superblock — and a loop
/// under each other loop-close shape, stepped one instruction at a time
/// through the public API, equal the fused monolithic run, in kernel mode
/// and in user mode with interrupts masked and on.
#[test]
fn stepped_execution_equals_monolithic_run() {
    let (name, mut marked) = program(LOOPED);
    marked.insert(2, Instruction::new(Mnemonic::NbResume));
    marked.push(Instruction::new(Mnemonic::NbPause));
    let mut programs = vec![
        (name, marked),
        program("mov rax, 5; xor rbx, rbx; add rcx, rax; div rbx; add rax, 2"),
    ];
    programs
        .extend((1..4).map(|close| program(&looped("add rax, r15; mov [r14+8], rax", 50, close))));
    fusion_pair(&programs, true, false);
    fusion_pair(&programs, false, false);
    assert!(fusion_pair(&programs, false, true) > 0);
}

/// Bounded stepping never retires past the engine's instruction limit: a
/// fused block is cut at the remaining budget, so `RunawayExecution` fires
/// at the same instruction, with the same counts, as one-instruction
/// stepping — for every limit across a looped body's superblocks.
#[test]
fn bounded_stepping_stops_at_the_instruction_limit() {
    let (_, program) = program(&looped(
        "add rax, r15; mov [r14+8], rax; imul rbx, rbx",
        40,
        0,
    ));
    for max_instructions in 1..40 {
        let config = EngineConfig {
            max_instructions,
            ..EngineConfig::default()
        };
        let mut sides = [Stepping::Single, Stepping::Bounded].map(|how| {
            let mut side = Side::new(true);
            side.engine = Engine::with_config(MicroArch::Skylake, 0x517A, config);
            (how, side)
        });
        let plan = sides[0].1.engine.decode(&program);
        let [a, b] = sides.each_mut().map(|(how, side)| side.run(&plan, *how));
        assert_eq!(
            a,
            Err(CpuFault::RunawayExecution),
            "limit {max_instructions}"
        );
        assert_eq!(
            b,
            Err(CpuFault::RunawayExecution),
            "limit {max_instructions}"
        );
        let [(_, single), (_, bounded)] = &sides;
        assert_eq!(
            single.pmu_readings(),
            bounded.pmu_readings(),
            "limit {max_instructions}"
        );
        assert_eq!(single.state, bounded.state, "limit {max_instructions}");
    }
}

/// A single decoded plan replayed across engine resets stays valid: plans
/// are pure static decode and hold no machine state.
#[test]
fn plan_survives_engine_reset() {
    let program = parse_asm("add rax, rax; mulps xmm0, xmm1; mov rbx, [r14]").unwrap();
    let mut side = Side::new(true);
    let plan = side.engine.decode(&program);
    let first = side.run(&plan, Stepping::Fused).unwrap();

    // Fresh everything except the plan object.
    let mut fresh = Side::new(true);
    assert_eq!(fresh.run(&plan, Stepping::Fused).unwrap(), first);
    assert_eq!(fresh.state, side.state);
}

/// Random initial states per mode for the oracle pair.
const ORACLE_STATES: usize = 20;

/// The reference semantics: `exec::execute` one instruction at a time,
/// plus the privilege rule the engine applies before executing.
fn execute_loop(
    program: &[Instruction],
    state: &mut CpuState,
    bus: &mut TestBus,
) -> Result<(), CpuFault> {
    let mut pc = 0;
    for _ in 0..100_000 {
        let Some(inst) = program.get(pc) else {
            return Ok(());
        };
        if inst.mnemonic.is_privileged() && !bus.is_kernel() {
            return Err(CpuFault::PrivilegedInstruction(inst.mnemonic));
        }
        pc = match exec::execute(inst, pc, state, bus)? {
            Next::Seq => pc + 1,
            Next::Jump(target) => target,
        };
    }
    panic!("runaway reference program");
}

fn random_state(rng: &mut SmallRng) -> CpuState {
    let mut state = CpuState::new();
    for g in Gpr::ALL {
        state.set_gpr(g, rng.gen());
    }
    for f in Flag::ALL {
        state.set_flag(f, rng.gen());
    }
    for v in 0..32 {
        for lane in 0..8 {
            state.set_vreg_lane(v, lane, rng.gen());
        }
    }
    state
}

/// Every corpus line `exec::execute` implements (fences, CPUID, RDTSC,
/// RDPMC, RDMSR, WRMSR and WBINVD exist only in the engine), the looped
/// body, and random looped programs over [`LOOP_BODY_POOL`] under every
/// loop-close shape.
fn oracle_programs(rng: &mut SmallRng) -> Vec<(String, Vec<Instruction>)> {
    use Mnemonic::*;
    let mut programs: Vec<_> = ROUNDTRIP_CORPUS
        .iter()
        .map(|line| program(line))
        .filter(|(_, p)| {
            !matches!(
                p[0].mnemonic,
                Lfence | Mfence | Sfence | Cpuid | Rdtsc | Rdpmc | Rdmsr | Wrmsr | Wbinvd
            )
        })
        .collect();
    programs.push(program(LOOPED));
    for close in 0..40 {
        let body: Vec<&str> = (0..rng.gen_range(1..10))
            .map(|_| LOOP_BODY_POOL[rng.gen_range(0..LOOP_BODY_POOL.len())])
            .collect();
        let iters = rng.gen_range(1..30);
        programs.push(program(&looped(&body.join("; "), iters, close)));
    }
    programs
}

/// Runs every oracle program from each random state on the engine and on
/// the `exec::execute` loop, and fails with the count of runs that
/// diverged in fault, `CpuState` (vector lanes included) or written memory.
fn oracle_pair(kernel: bool, seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let programs = oracle_programs(&mut rng);
    let mut engine = Side::new(kernel);
    let mut reference = TestBus::new(kernel);
    let plans: Vec<_> = programs
        .iter()
        .map(|(_, p)| engine.engine.decode(p))
        .collect();
    let mut diverged = Vec::new();
    for _ in 0..ORACLE_STATES {
        let start = random_state(&mut rng);
        for ((name, program), plan) in programs.iter().zip(&plans) {
            engine.state = start.clone();
            engine.bus.mem.clear();
            reference.mem.clear();
            let mut expected = start.clone();
            let got = engine.run(plan, Stepping::Fused).map(|_| ());
            let want = execute_loop(program, &mut expected, &mut reference);
            if got != want || engine.state != expected || engine.bus.mem != reference.mem {
                diverged.push(name.as_str());
            }
        }
    }
    assert!(
        diverged.is_empty(),
        "{} of {} runs diverged from exec::execute (kernel={kernel}), first: {}",
        diverged.len(),
        ORACLE_STATES * programs.len(),
        diverged[0]
    );
}

#[test]
fn engine_matches_exec_oracle_kernel_mode() {
    oracle_pair(true, 1);
}

#[test]
fn engine_matches_exec_oracle_user_mode() {
    oracle_pair(false, 2);
}
