//! Code generation for microbenchmarks — Algorithm 1 of the paper.
//!
//! The generated function:
//!
//! ```text
//! 1  saveRegs
//! 2  codeInit
//! 3  m1 <- readPerfCtrs      (does not clobber benchmark registers)
//! 4  for j <- 0 to loopCount (omitted if loopCount = 0; counter in R15)
//! 5..9  code x localUnrollCount
//! 10 m2 <- readPerfCtrs
//! 11 restoreRegs
//! ```
//!
//! Registers RSP, RBP, RDI, RSI and R14 are initialized to point into
//! dedicated memory areas of 1 MB each that the microbenchmark may freely
//! modify (§III-G). In `noMem` mode (§III-I) the counter values are
//! accumulated in registers R8–R13 instead of being written to memory.

use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Gpr, Width};

/// Size of each dedicated memory area (§III-G: "1 MB each").
pub const ARENA_SIZE: u64 = 1 << 20;

/// The registers nanoBench points into dedicated memory areas.
pub const ARENA_REGS: [Gpr; 5] = [Gpr::Rsp, Gpr::Rbp, Gpr::Rdi, Gpr::Rsi, Gpr::R14];

/// Registers that accumulate counter values in `noMem` mode; the
/// microbenchmark must not modify them (§III-I).
pub const NO_MEM_ACC_REGS: [Gpr; 6] = [Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11, Gpr::R12, Gpr::R13];

/// Memory layout used by the generated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Arenas {
    /// Register save area (16 qwords).
    pub save_area: u64,
    /// Scratch for RAX/RCX/RDX around counter reads (3 qwords).
    pub scratch: u64,
    /// First counter-read results (one qword per counter).
    pub m1: u64,
    /// Second counter-read results.
    pub m2: u64,
    /// Base of each dedicated register arena, in [`ARENA_REGS`] order.
    pub arena_bases: [u64; 5],
}

/// Configuration for one code generation (one `localUnrollCount` version).
#[derive(Debug, Clone)]
pub struct CodegenRequest<'a> {
    /// Initialization part of the microbenchmark (not measured).
    pub init: &'a [Instruction],
    /// The main part of the microbenchmark.
    pub code: &'a [Instruction],
    /// `localUnrollCount` — number of copies of `code`.
    pub local_unroll: usize,
    /// `loopCount` — 0 omits the loop entirely.
    pub loop_count: u64,
    /// RDPMC selectors to read (fixed counters use bit 30).
    pub selectors: &'a [u32],
    /// Store results in registers instead of memory (§III-I).
    pub no_mem: bool,
    /// Memory layout.
    pub arenas: Arenas,
}

/// Where [`emit`] sends the benchmark function: a `Vec` that builds it
/// ([`generate`]) or a [`Matcher`] that checks an existing program
/// against it ([`generates`]).
trait Sink {
    /// Index of the next emitted instruction (the loop branch's target).
    fn pos(&self) -> usize;
    /// Emits one instruction.
    fn inst(&mut self, mnemonic: Mnemonic, operands: &[Operand]);
    /// Emits a run of instructions taken from the request: the init part
    /// or one copy of the code, with its labels moved to where it lands.
    fn slice(&mut self, insts: &[Instruction]);
}

/// `inst` as emitted at `base`: the request numbers its labels from its
/// own first instruction, so every label target moves by `base`.
fn relocated(inst: &Instruction, base: usize) -> Instruction {
    let mut out = *inst;
    for op in out.operands.iter_mut() {
        if let Operand::Label(target) = op {
            *target += base;
        }
    }
    out
}

/// Whether `got` is `inst` as emitted at `base` ([`relocated`]), decided
/// without copying `inst`.
fn is_relocated(got: &Instruction, inst: &Instruction, base: usize) -> bool {
    got.mnemonic == inst.mnemonic
        && got.operands.len() == inst.operands.len()
        && got
            .operands
            .iter()
            .zip(inst.operands.iter())
            .all(|pair| match pair {
                (Operand::Label(g), Operand::Label(t)) => *g == t + base,
                (g, op) => g == op,
            })
}

impl Sink for Vec<Instruction> {
    fn pos(&self) -> usize {
        self.len()
    }

    fn inst(&mut self, mnemonic: Mnemonic, operands: &[Operand]) {
        self.push(Instruction::with_operands(mnemonic, operands));
    }

    fn slice(&mut self, insts: &[Instruction]) {
        let base = self.len();
        self.extend(insts.iter().map(|inst| relocated(inst, base)));
    }
}

/// Compares each emitted piece with the program at the same position,
/// without building anything; `ok` stays true while every piece matched.
struct Matcher<'a> {
    program: &'a [Instruction],
    pos: usize,
    ok: bool,
}

impl Sink for Matcher<'_> {
    fn pos(&self) -> usize {
        self.pos
    }

    fn inst(&mut self, mnemonic: Mnemonic, operands: &[Operand]) {
        self.ok = self.ok
            && self
                .program
                .get(self.pos)
                .is_some_and(|i| i.mnemonic == mnemonic && *i.operands == *operands);
        self.pos += 1;
    }

    fn slice(&mut self, insts: &[Instruction]) {
        let base = self.pos;
        let end = base + insts.len();
        self.ok = self.ok
            && self.program.get(base..end).is_some_and(|got| {
                got.iter()
                    .zip(insts)
                    .all(|(g, inst)| is_relocated(g, inst, base))
            });
        self.pos = end;
    }
}

fn abs_mem(addr: u64) -> Operand {
    Operand::Mem(MemRef::absolute(addr, Width::Q))
}

fn mov_to_mem(out: &mut impl Sink, addr: u64, reg: Gpr) {
    out.inst(Mnemonic::Mov, &[abs_mem(addr), Operand::gpr(reg)]);
}

fn mov_from_mem(out: &mut impl Sink, reg: Gpr, addr: u64) {
    out.inst(Mnemonic::Mov, &[Operand::gpr(reg), abs_mem(addr)]);
}

fn mov_imm(out: &mut impl Sink, reg: Gpr, value: u64) {
    out.inst(
        Mnemonic::Mov,
        &[Operand::gpr(reg), Operand::imm(value as i64)],
    );
}

/// Emits the counter-read sequence (line 4 / line 10 of Algorithm 1).
///
/// Memory mode: saves RAX/RCX/RDX to scratch, reads each counter behind
/// LFENCE pairs, stores the 64-bit values to `results`, restores the
/// clobbered registers — so benchmark register state is preserved (§III-B).
///
/// noMem mode: subtracts (for m1) or adds (for m2) each counter value
/// into R8+slot, clobbering only RAX/RCX/RDX which the benchmark must not
/// rely on in this mode.
fn emit_read_counters(out: &mut impl Sink, req: &CodegenRequest, first: bool) {
    let results = if first { req.arenas.m1 } else { req.arenas.m2 };
    let scratch = req.arenas.scratch;
    if !req.no_mem {
        mov_to_mem(out, scratch, Gpr::Rax);
        mov_to_mem(out, scratch + 8, Gpr::Rcx);
        mov_to_mem(out, scratch + 16, Gpr::Rdx);
    }
    for (slot, sel) in req.selectors.iter().enumerate() {
        out.inst(Mnemonic::Lfence, &[]);
        mov_imm(out, Gpr::Rcx, *sel as u64);
        out.inst(Mnemonic::Rdpmc, &[]);
        out.inst(Mnemonic::Shl, &[Operand::gpr(Gpr::Rdx), Operand::imm(32)]);
        out.inst(
            Mnemonic::Or,
            &[Operand::gpr(Gpr::Rax), Operand::gpr(Gpr::Rdx)],
        );
        if req.no_mem {
            let acc = NO_MEM_ACC_REGS[slot];
            let op = if first { Mnemonic::Sub } else { Mnemonic::Add };
            out.inst(op, &[Operand::gpr(acc), Operand::gpr(Gpr::Rax)]);
        } else {
            mov_to_mem(out, results + 8 * slot as u64, Gpr::Rax);
        }
    }
    out.inst(Mnemonic::Lfence, &[]);
    if !req.no_mem {
        mov_from_mem(out, Gpr::Rax, scratch);
        mov_from_mem(out, Gpr::Rcx, scratch + 8);
        mov_from_mem(out, Gpr::Rdx, scratch + 16);
    }
}

/// Emits the benchmark function per Algorithm 1 into `out`.
fn emit(req: &CodegenRequest, out: &mut impl Sink) {
    assert!(
        !req.no_mem || req.selectors.len() <= NO_MEM_ACC_REGS.len(),
        "noMem mode supports at most {} counters per run",
        NO_MEM_ACC_REGS.len()
    );

    // Line 2: saveRegs — all 16 GPRs to the save area.
    for reg in Gpr::ALL {
        mov_to_mem(out, req.arenas.save_area + 8 * reg.number() as u64, reg);
    }
    // §III-G: point RSP/RBP/RDI/RSI/R14 into their dedicated areas. RSP
    // points into the middle of its area so both pushes and positive
    // offsets stay inside.
    for (i, reg) in ARENA_REGS.iter().enumerate() {
        let base = req.arenas.arena_bases[i];
        let target = if *reg == Gpr::Rsp {
            base + ARENA_SIZE / 2
        } else {
            base
        };
        mov_imm(out, *reg, target);
    }
    if req.no_mem {
        for acc in NO_MEM_ACC_REGS.iter().take(req.selectors.len()) {
            out.inst(Mnemonic::Xor, &[Operand::gpr(*acc), Operand::gpr(*acc)]);
        }
    }

    // Line 3: codeInit.
    out.slice(req.init);

    // Line 4: m1 <- readPerfCtrs.
    emit_read_counters(out, req, true);

    // Lines 5–9: optional loop around the unrolled body. The loop counter
    // lives in R15, which the benchmark must not modify when looping
    // (§III-B).
    if req.loop_count > 0 {
        mov_imm(out, Gpr::R15, req.loop_count);
        let loop_top = out.pos();
        for _ in 0..req.local_unroll {
            out.slice(req.code);
        }
        out.inst(Mnemonic::Dec, &[Operand::gpr(Gpr::R15)]);
        out.inst(Mnemonic::Jnz, &[Operand::Label(loop_top)]);
    } else {
        for _ in 0..req.local_unroll {
            out.slice(req.code);
        }
    }

    // Line 10: m2 <- readPerfCtrs.
    emit_read_counters(out, req, false);

    // In noMem mode the deltas live in R8..; spill them to the m2 area
    // before the registers are restored (measurement is already complete
    // here, so these stores cannot perturb the counters).
    if req.no_mem {
        for (slot, acc) in NO_MEM_ACC_REGS.iter().take(req.selectors.len()).enumerate() {
            mov_to_mem(out, req.arenas.m2 + 8 * slot as u64, *acc);
        }
    }

    // Line 11: restoreRegs.
    for reg in Gpr::ALL {
        mov_from_mem(out, reg, req.arenas.save_area + 8 * reg.number() as u64);
    }
}

/// Generates the benchmark function per Algorithm 1.
///
/// # Panics
///
/// Panics if `selectors` exceeds the noMem accumulator registers in noMem
/// mode (callers multiplex counters across runs instead, §III-J).
pub fn generate(req: &CodegenRequest) -> Vec<Instruction> {
    let mut out = Vec::new();
    emit(req, &mut out);
    out
}

/// Whether `program` is exactly what [`generate`] returns for `req`,
/// decided without building it: the emitter runs once more and compares
/// each piece in place, the init part and every body copy with their
/// labels moved as [`generate`] moves them.
///
/// # Panics
///
/// Panics where [`generate`] does.
pub fn generates(req: &CodegenRequest, program: &[Instruction]) -> bool {
    let mut matcher = Matcher {
        program,
        pos: 0,
        ok: true,
    };
    emit(req, &mut matcher);
    matcher.ok && matcher.pos == program.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_x86::asm::parse_asm;
    use nanobench_x86::corpus::LOOP_BODY_POOL;
    use proptest::prelude::*;

    fn arenas() -> Arenas {
        Arenas {
            save_area: 0x1000,
            scratch: 0x1100,
            m1: 0x1200,
            m2: 0x1300,
            arena_bases: [0x10_0000, 0x20_0000, 0x30_0000, 0x40_0000, 0x50_0000],
        }
    }

    #[test]
    fn structure_matches_algorithm1() {
        let code = parse_asm("mov R14, [R14]").unwrap();
        let init = parse_asm("mov [R14], R14").unwrap();
        let req = CodegenRequest {
            init: &init,
            code: &code,
            local_unroll: 3,
            loop_count: 0,
            selectors: &[1 << 30],
            no_mem: false,
            arenas: arenas(),
        };
        let g = generate(&req);
        // 16 saves + 5 arena inits + 1 init + 2 counter reads + 3 copies
        // + 16 restores; counter reads bracket the body.
        let body_count = g.iter().filter(|i| **i == code[0]).count();
        assert_eq!(body_count, 3);
        let rdpmc_count = g.iter().filter(|i| i.mnemonic == Mnemonic::Rdpmc).count();
        assert_eq!(rdpmc_count, 2);
        // First instruction saves RAX; last restores R15.
        assert_eq!(
            g[0],
            Instruction::binary(Mnemonic::Mov, abs_mem(0x1000), Operand::gpr(Gpr::Rax))
        );
        assert_eq!(
            *g.last().unwrap(),
            Instruction::binary(
                Mnemonic::Mov,
                Operand::gpr(Gpr::R15),
                abs_mem(0x1000 + 8 * 15)
            )
        );
    }

    #[test]
    fn loop_uses_r15() {
        let code = parse_asm("nop").unwrap();
        let req = CodegenRequest {
            init: &[],
            code: &code,
            local_unroll: 2,
            loop_count: 10,
            selectors: &[1 << 30],
            no_mem: false,
            arenas: arenas(),
        };
        let g = generate(&req);
        let has_dec_r15 = g
            .iter()
            .any(|i| i.mnemonic == Mnemonic::Dec && i.dst() == Some(&Operand::gpr(Gpr::R15)));
        assert!(has_dec_r15);
        let jnz = g
            .iter()
            .find(|i| i.mnemonic == Mnemonic::Jnz)
            .expect("loop branch");
        let target = match jnz.dst() {
            Some(Operand::Label(t)) => *t,
            other => panic!("expected label, got {other:?}"),
        };
        // The branch targets the first body instruction.
        assert_eq!(g[target].mnemonic, Mnemonic::Nop);
    }

    #[test]
    fn labels_point_into_their_own_copy() {
        let init = parse_asm("jmp i; nop; i: nop").unwrap();
        let code = parse_asm("call f; jmp e; f: ret; e: nop").unwrap();
        let req = CodegenRequest {
            init: &init,
            code: &code,
            local_unroll: 3,
            loop_count: 0,
            selectors: &[1 << 30],
            no_mem: false,
            arenas: arenas(),
        };
        let g = generate(&req);
        let target = |i: usize| match g[i].dst() {
            Some(Operand::Label(t)) => *t,
            other => panic!("expected a label at {i}, got {other:?}"),
        };
        let init_at = g.iter().position(|i| i.mnemonic == Mnemonic::Jmp).unwrap();
        assert_eq!(target(init_at), init_at + 2);
        let calls: Vec<usize> = (0..g.len())
            .filter(|&i| g[i].mnemonic == Mnemonic::Call)
            .collect();
        assert_eq!(calls.len(), 3);
        for &at in &calls {
            assert_eq!(
                (target(at), target(at + 1)),
                (at + 2, at + 3),
                "copy at {at}"
            );
        }
        assert!(generates(&req, &g));
        // The request's own numbering, unmoved, is a different program.
        let mut unmoved = g.clone();
        unmoved[calls[1]] = code[0];
        assert!(!generates(&req, &unmoved));
    }

    #[test]
    fn no_mem_uses_accumulators_and_no_result_stores() {
        let code = parse_asm("nop").unwrap();
        let req = CodegenRequest {
            init: &[],
            code: &code,
            local_unroll: 1,
            loop_count: 0,
            selectors: &[1 << 30, (1 << 30) | 1],
            no_mem: true,
            arenas: arenas(),
        };
        let g = generate(&req);
        let subs = g.iter().filter(|i| i.mnemonic == Mnemonic::Sub).count();
        let adds = g.iter().filter(|i| i.mnemonic == Mnemonic::Add).count();
        assert_eq!(subs, 2);
        assert_eq!(adds, 2);
        // The only stores to the result areas are the two post-measurement
        // accumulator spills.
        let result_stores = g
            .iter()
            .filter(
                |i| matches!(i.dst(), Some(Operand::Mem(m)) if (0x1200..0x1400).contains(&m.disp)),
            )
            .count();
        assert_eq!(result_stores, 2);
    }

    #[test]
    #[should_panic(expected = "noMem mode supports")]
    fn no_mem_counter_limit() {
        let req = CodegenRequest {
            init: &[],
            code: &[],
            local_unroll: 0,
            loop_count: 0,
            selectors: &[0, 1, 2, 3, 4, 5, 6],
            no_mem: true,
            arenas: arenas(),
        };
        let _ = generate(&req);
    }

    fn pool_program(picks: &[usize]) -> Vec<Instruction> {
        picks
            .iter()
            .flat_map(|&i| parse_asm(LOOP_BODY_POOL[i]).unwrap())
            .collect()
    }

    /// `inst` with one field changed.
    fn neighbour(inst: &Instruction) -> Instruction {
        let mut out = *inst;
        match out.operands.last_mut() {
            Some(Operand::Imm(v)) => *v += 1,
            Some(Operand::Mem(m)) => m.disp += 8,
            Some(Operand::Label(t)) => *t += 1,
            _ => out.operands.push(Operand::imm(1)),
        }
        out
    }

    proptest! {
        /// `generates` accepts `generate`'s output and rejects every
        /// program one instruction away from it.
        #[test]
        fn generates_accepts_exactly_the_generated_program(
            init in collection::vec(0..LOOP_BODY_POOL.len(), 0..4),
            code in collection::vec(0..LOOP_BODY_POOL.len(), 0..5),
            local_unroll in 0usize..4,
            loop_count in prop_oneof![Just(0u64), 1u64..5],
            selectors in collection::vec(0u32..8, 0..7),
            no_mem in prop_oneof![Just(false), Just(true)],
        ) {
            let (init, code) = (pool_program(&init), pool_program(&code));
            let req = CodegenRequest {
                init: &init,
                code: &code,
                local_unroll,
                loop_count,
                selectors: &selectors,
                no_mem,
                arenas: arenas(),
            };
            let program = generate(&req);
            prop_assert!(generates(&req, &program));
            for i in 0..program.len() {
                let mut replaced = program.clone();
                replaced[i] = neighbour(&program[i]);
                prop_assert!(!generates(&req, &replaced), "replaced {i}");
                let mut dropped = program.clone();
                dropped.remove(i);
                prop_assert!(!generates(&req, &dropped), "dropped {i}");
            }
            let mut appended = program.clone();
            appended.push(program[0]);
            prop_assert!(!generates(&req, &appended));
        }
    }
}
