//! `interference`: shaped like e10, on a 4-core Skylake kernel session.
//! Core 0 chases pointers through e10's 1 MB chain (each run of the spec
//! walks its first `CHASE_UNROLL * CHASE_LOOP` lines); cores 1 and 2 run
//! e10's throttled streamers; core 3 stores to another word of one chain
//! line per loop iteration, so core 0's loads of those lines snoop a
//! modified remote copy (`XSNP_HITM`).

use super::Workload;
use crate::check::Digest;
use crate::layers::{Counters, Spans};
use nanobench_cache::LINE_SIZE;
use nanobench_core::{Aggregate, BenchSpec, BenchmarkResult, NbError, Session};
use nanobench_machine::{Machine, Mode};
use nanobench_uarch::port::MicroArch;
use nanobench_x86::{Gpr, Instruction, MemRef, Mnemonic, Operand, Width};

const CORES: usize = 4;
/// e10's chain: every line of the 1 MB R14 arena, 65 lines apart.
const CHASE_SIZE: u64 = 1 << 20;
const CHASE_STEP: u64 = 65 * LINE_SIZE;
const CHASE_UNROLL: usize = 64;
/// Cut from e10's 256 so one op takes a few milliseconds: each run of the
/// spec walks 512 lines, 32 KB, the size of the L1.
const CHASE_LOOP: u64 = 8;
/// e10's streamers: a 16 MB walk, one line in four, eight dependent
/// multiplies per load.
const STREAM_SPAN: u64 = 16 << 20;
const STREAM_STRIDE_LINES: u64 = 4;
const STREAM_THROTTLE: usize = 8;
const STREAMERS: u64 = 2;

const HITM: &str = "MEM_LOAD_L3_HIT_RETIRED.XSNP_HITM";

fn streamer(buf: u64, phase: u64) -> Vec<Instruction> {
    let stride = STREAM_STRIDE_LINES * LINE_SIZE;
    let mut program = vec![
        Instruction::binary(
            Mnemonic::Mov,
            Operand::gpr(Gpr::Rbx),
            Operand::imm((buf + phase * LINE_SIZE) as i64),
        ),
        Instruction::binary(
            Mnemonic::Mov,
            Operand::gpr(Gpr::Rcx),
            Operand::imm((STREAM_SPAN / stride) as i64),
        ),
    ];
    let head = program.len();
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
    program.push(Instruction::unary(Mnemonic::Jnz, Operand::Label(head)));
    program
}

/// A session with the chase chain written into the R14 arena and every
/// prefetcher off; returns it with the chain's head (the arena base).
fn chase_session(seed: u64, cores: usize, spans: &mut Spans) -> Result<(Session, u64), NbError> {
    let machine = spans.time("machine.new_ms", || {
        Machine::with_cores(MicroArch::Skylake, Mode::Kernel, seed, cores)
    });
    let mut session = Session::with_machine(machine);
    let base = session
        .arena_base(Gpr::R14)
        .ok_or_else(|| NbError::InvalidOption("R14 is not an arena register".into()))?;
    let machine = session.machine_mut();
    let mut addr = base;
    loop {
        let next = base + (addr - base + CHASE_STEP) % CHASE_SIZE;
        machine
            .write_mem(addr, 8, next)
            .ok_or_else(|| NbError::InvalidOption(format!("{addr:#x} is unmapped")))?;
        if next == base {
            break;
        }
        addr = next;
    }
    for core in 0..cores {
        machine
            .hierarchy_mut()
            .prefetchers_of_mut(core)
            .disable_all();
    }
    Ok((session, base))
}

/// e10's measured spec, basic mode, reporting cycles per chase load.
fn chase_spec() -> Result<BenchSpec, NbError> {
    let mut spec = BenchSpec::new();
    spec.asm("mov r14, [r14]")?
        .config_str(&format!("D2.04 {HITM}"))?
        .unroll_count(CHASE_UNROLL)
        .loop_count(CHASE_LOOP)
        .basic_mode(true)
        .warm_up_count(1)
        .n_measurements(2)
        .aggregate(Aggregate::Median);
    Ok(spec)
}

pub struct Interference {
    session: Session,
    spec: BenchSpec,
    cycles_per_load: Vec<f64>,
}

impl Workload for Interference {
    type Out = BenchmarkResult;
    const REFERENCE_OPS: usize = 20;
    const PERIOD: Option<usize> = None;
    const RESETS_IN_OP: bool = false;
    const COUNT_OPS: usize = 20;
    const WINDOW_OPS: usize = 20;
    const PINS: &'static [(u64, u64)] = &[(1, 0xc5e5_58aa_9843_4b73), (7, 0xc5e5_58aa_9843_4b73)];

    fn setup(seed: u64, spans: &mut Spans) -> Result<Interference, NbError> {
        let (mut session, base) = chase_session(seed, CORES, spans)?;
        let mut spec = chase_spec()?;
        for phase in 0..STREAMERS {
            let buf = session
                .machine_mut()
                .alloc_region(STREAM_SPAN + LINE_SIZE * 4);
            spec.corunner(streamer(buf, phase));
        }
        // The first line each loop iteration of the chase loads.
        let shared = (0..CHASE_LOOP).map(|j| {
            let line = base + (j * CHASE_UNROLL as u64 * CHASE_STEP) % CHASE_SIZE;
            Instruction::binary(
                Mnemonic::Mov,
                Operand::Mem(MemRef::absolute(line + 8, Width::Q)),
                Operand::gpr(Gpr::Rbx),
            )
        });
        spec.corunner(shared.collect());
        Ok(Interference {
            session,
            spec,
            cycles_per_load: Vec::new(),
        })
    }

    fn op(&mut self, _i: usize) -> Result<BenchmarkResult, NbError> {
        self.session.run(&self.spec)
    }

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> Result<BenchmarkResult, NbError> {
        spans.time("core.session_run_ms", || self.op(i))
    }

    fn digest(result: &BenchmarkResult) -> u64 {
        let mut d = Digest::default();
        for (name, value) in result.iter() {
            d.str(name).f64(value);
        }
        d.finish()
    }

    fn check_op(&mut self, _i: usize, result: &BenchmarkResult) -> Result<(), String> {
        let cycles = result.core_cycles().filter(|c| c.is_finite() && *c > 0.0);
        let hitm = result.get(HITM).unwrap_or(0.0);
        match cycles {
            None => Err(format!("no cycles per load in {result:?}")),
            Some(_) if hitm <= 0.0 => Err("no HITM snoop on the falsely shared lines".into()),
            Some(c) => {
                self.cycles_per_load.push(c);
                Ok(())
            }
        }
    }

    /// Cycles per load under interference must exceed the same chase run
    /// alone on a one-core machine.
    fn check_run(&mut self, seed: u64) -> Result<String, String> {
        if self.cycles_per_load.is_empty() {
            return Err("no op passed its check".into());
        }
        let (mut solo, _) =
            chase_session(seed, 1, &mut Spans::default()).map_err(|e| e.to_string())?;
        let spec = chase_spec().map_err(|e| e.to_string())?;
        let solo = solo
            .run(&spec)
            .map_err(|e| e.to_string())?
            .core_cycles()
            .ok_or("solo chase reports no cycles")?;
        let contended = crate::stats::median(&self.cycles_per_load);
        if contended <= solo {
            return Err(format!(
                "contended chase {contended:.2} cycles/load is not above solo {solo:.2}"
            ));
        }
        Ok(format!(
            "median {contended:.2} cycles/load with co-runners vs {solo:.2} solo; HITM snoops in every op"
        ))
    }

    fn counters(&mut self) -> Counters {
        Counters::read(&self.session)
    }
}
