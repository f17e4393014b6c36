//! Batched PMU delivery must preserve 48-bit wraparound (regression).
//!
//! The plan interpreter accumulates event counts in a per-run batch and
//! delivers them to the [`Pmu`] in bulk. The PMU masks to the 48-bit
//! counter width only at architectural reads and writes, so batched
//! addition commutes with per-µop addition — including when a counter
//! crosses 2^48 *inside* one batch. These tests park counters just below
//! the boundary, run a looped program whose single batch carries them
//! past it, and check that every counter reads exactly (park + count) mod
//! 2^48, in kernel mode and in user mode with interrupts.

use nanobench_pmu::event::events;
use nanobench_pmu::{msr, Pmu, COUNTER_WIDTH};
use nanobench_uarch::bus::TestBus;
use nanobench_uarch::engine::{Engine, RunStats};
use nanobench_uarch::plan::DecodedProgram;
use nanobench_uarch::port::MicroArch;
use nanobench_uarch::state::CpuState;
use nanobench_x86::asm::parse_asm;
use nanobench_x86::reg::Gpr;

const CTR_MASK: u64 = (1 << COUNTER_WIDTH) - 1;

struct Side {
    engine: Engine,
    state: CpuState,
    pmu: Pmu,
    bus: TestBus,
}

impl Side {
    fn new(kernel: bool) -> Side {
        let bus = TestBus::new(kernel);
        let mut pmu = Pmu::new(4, bus.slice_count());
        pmu.configure(0, Some(events::UOPS_ISSUED_ANY));
        pmu.configure(1, Some(events::MEM_LOAD_L1_HIT));
        let mut state = CpuState::new();
        state.set_gpr(Gpr::R14, 0x5000);
        Side {
            engine: Engine::new(MicroArch::Skylake, 3),
            state,
            pmu,
            bus,
        }
    }

    fn run(&mut self, plan: &DecodedProgram) -> RunStats {
        self.engine
            .run_plan(plan, &mut self.state, &mut self.pmu, &mut self.bus, 0)
            .unwrap()
    }

    /// Parks the instruction, µop, and L1-hit counters `headroom` short of
    /// the 2^48 boundary, as nanoBench's WRMSR preloading would. The
    /// L1-hit counter sees only ~200 increments per run, so its headroom
    /// is capped to keep the crossing guaranteed.
    fn park_counters(&mut self, headroom: u64) -> [u64; 3] {
        let parks = [
            (1u64 << COUNTER_WIDTH) - headroom,
            (1u64 << COUNTER_WIDTH) - headroom,
            (1u64 << COUNTER_WIDTH) - headroom.min(100),
        ];
        assert!(self.pmu.wrmsr(msr::IA32_FIXED_CTR0, parks[0]));
        assert!(self.pmu.wrmsr(msr::IA32_PMC0, parks[1]));
        assert!(self.pmu.wrmsr(msr::IA32_PMC0 + 1, parks[2]));
        parks
    }

    fn readings(&self) -> [u64; 3] {
        [
            self.pmu.rdpmc(1 << 30).unwrap(),
            self.pmu.rdpmc(0).unwrap(),
            self.pmu.rdpmc(1).unwrap(),
        ]
    }

    /// Instructions retired by the interrupt handlers the bus delivered.
    fn handler_instructions(&self) -> u64 {
        self.bus.interrupts_taken * TestBus::INTERRUPT.instructions
    }
}

/// ~1000 retired instructions and ~200 L1 hits per run: far more than the
/// preload headroom, so the boundary crossing happens inside one batch.
const LOOPED: &str = "mov r15, 200; l: add rax, 1; mov [r14+8], rax; \
                      mov rbx, [r14+8]; sub r9, rbx; dec r15; jnz l";

fn wrap_mid_batch(kernel: bool) {
    let program = parse_asm(LOOPED).unwrap();
    // Headroom 1: the very first increment of the batch crosses.
    // Headroom 500: the crossing lands mid-batch.
    for headroom in [1u64, 500] {
        // The unparked run counts each event from zero, with no wrap.
        let mut counted = Side::new(kernel);
        let mut parked = Side::new(kernel);
        let plan = parked.engine.decode(&program);
        let parks = parked.park_counters(headroom);
        counted.run(&plan);
        let stats = parked.run(&plan);

        let counts = counted.readings();
        let wrapped = parked.readings();
        for i in 0..3 {
            assert!(
                parks[i] + counts[i] > CTR_MASK,
                "kernel={kernel} headroom={headroom}: counter {i} must cross 2^48"
            );
            assert_eq!(
                wrapped[i],
                (parks[i] + counts[i]) & CTR_MASK,
                "kernel={kernel} headroom={headroom}: counter {i} must wrap modulo 2^48"
            );
        }
        // The instruction count is known exactly: the program's own plus
        // those of every interrupt handler (user mode only).
        let expected_inst =
            (parks[0] + stats.instructions + parked.handler_instructions()) & CTR_MASK;
        assert_eq!(
            wrapped[0], expected_inst,
            "kernel={kernel} headroom={headroom}"
        );
        assert_eq!(
            parked.bus.interrupts_taken > 0,
            !kernel,
            "interrupts arrive in user mode only"
        );
        // RDMSR sees the same wrapped value as RDPMC.
        assert_eq!(parked.pmu.rdmsr(msr::IA32_FIXED_CTR0), Some(expected_inst));
    }
}

#[test]
fn counters_wrap_mid_batch_kernel_mode() {
    wrap_mid_batch(true);
}

#[test]
fn counters_wrap_mid_batch_user_mode_with_interrupts() {
    wrap_mid_batch(false);
}

/// A mid-run RDPMC forces a batch flush at the observation point; the
/// value read into RAX must be the wrapped one even though the batch that
/// delivered it crossed 2^48.
#[test]
fn mid_run_rdpmc_observes_wrapped_value() {
    for kernel in [true, false] {
        let mut side = Side::new(kernel);
        // 2^30 selects fixed counter 0 (instructions retired).
        let program = parse_asm(&format!(
            "mov r15, 100; l: add rax, 1; dec r15; jnz l; \
             mov rcx, {}; rdpmc",
            1u64 << 30
        ))
        .unwrap();
        let plan = side.engine.decode(&program);
        side.park_counters(10);
        let park = (1u64 << COUNTER_WIDTH) - 10;

        let stats = side.run(&plan);
        // RDPMC returns EDX:EAX; the instructions retired *before* the
        // rdpmc itself are the loop's 302 plus the mov rcx, and every
        // interrupt lands before the rdpmc reads.
        let retired_before_rdpmc = stats.instructions - 1 + side.handler_instructions();
        let expected = (park + retired_before_rdpmc) & CTR_MASK;
        let read = (side.state.gpr(Gpr::Rdx) << 32) | (side.state.gpr(Gpr::Rax) & 0xFFFF_FFFF);
        assert_eq!(read, expected, "kernel={kernel}");
        assert!(park + retired_before_rdpmc > CTR_MASK, "must cross 2^48");
    }
}
