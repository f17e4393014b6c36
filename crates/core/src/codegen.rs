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
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

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

/// The plan-cache key hasher: the multiply-rotate step of FxHash, one
/// multiply per word. Keys are verified on every hit, so they need speed
/// rather than resistance to crafted collisions.
#[derive(Default)]
pub(crate) struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// [`KeyHasher`] digest of `value`.
pub(crate) fn hash_key(value: &(impl Hash + ?Sized)) -> u64 {
    let mut h = KeyHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// An immutable instruction list shared by reference counting: a spec's
/// init part, its main part or one co-runner. Cloning it copies a pointer,
/// so specs, the requests built from them and the plan cache's copies of
/// those requests all hold one list.
///
/// Its plan-cache hash is computed once, when the list is made, so
/// hashing it again costs one word. Equality looks at the pointer first and
/// compares content only when the pointers differ and the digests agree.
#[derive(Clone)]
pub struct SharedCode {
    insts: Arc<[Instruction]>,
    hash: u64,
}

impl SharedCode {
    /// Whether `a` and `b` are one list, which makes them equal without
    /// comparing their instructions.
    pub(crate) fn ptr_eq(a: &SharedCode, b: &SharedCode) -> bool {
        Arc::ptr_eq(&a.insts, &b.insts)
    }
}

impl From<Vec<Instruction>> for SharedCode {
    fn from(insts: Vec<Instruction>) -> SharedCode {
        let hash = hash_key(insts.as_slice());
        SharedCode {
            insts: insts.into(),
            hash,
        }
    }
}

impl Default for SharedCode {
    fn default() -> SharedCode {
        SharedCode::from(Vec::new())
    }
}

impl Deref for SharedCode {
    type Target = [Instruction];

    fn deref(&self) -> &[Instruction] {
        &self.insts
    }
}

impl PartialEq for SharedCode {
    fn eq(&self, other: &SharedCode) -> bool {
        SharedCode::ptr_eq(self, other) || (self.hash == other.hash && *self.insts == *other.insts)
    }
}

impl Eq for SharedCode {}

impl Hash for SharedCode {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl fmt::Debug for SharedCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.insts.fmt(f)
    }
}

/// Configuration for one code generation (one `localUnrollCount` version).
///
/// [`generate`] is a pure function of the request, so two equal requests
/// generate the same program; the session's plan cache keeps the request
/// of each program it holds and checks hits with this derived equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CodegenRequest {
    /// Initialization part of the microbenchmark (not measured).
    pub init: SharedCode,
    /// The main part of the microbenchmark. [`generate`] does not read it
    /// at a `local_unroll` of 0, where the session leaves it empty.
    pub code: SharedCode,
    /// `localUnrollCount` — number of copies of `code`.
    pub local_unroll: usize,
    /// `loopCount` — 0 omits the loop entirely.
    pub loop_count: u64,
    /// RDPMC selectors to read (fixed counters use bit 30).
    pub selectors: Vec<u32>,
    /// Store results in registers instead of memory (§III-I).
    pub no_mem: bool,
    /// Memory layout.
    pub arenas: Arenas,
}

/// Appends `insts` — the init part or one copy of the code — to `out`,
/// moving its labels to where it lands: the request numbers them from its
/// own first instruction.
fn emit_slice(out: &mut Vec<Instruction>, insts: &[Instruction]) {
    let base = out.len();
    out.extend(insts.iter().map(|inst| {
        let mut moved = *inst;
        for op in moved.operands.iter_mut() {
            if let Operand::Label(target) = op {
                *target += base;
            }
        }
        moved
    }));
}

fn abs_mem(addr: u64) -> Operand {
    Operand::Mem(MemRef::absolute(addr, Width::Q))
}

fn mov_to_mem(out: &mut Vec<Instruction>, addr: u64, reg: Gpr) {
    out.push(Instruction::binary(Mnemonic::Mov, abs_mem(addr), reg));
}

fn mov_from_mem(out: &mut Vec<Instruction>, reg: Gpr, addr: u64) {
    out.push(Instruction::binary(Mnemonic::Mov, reg, abs_mem(addr)));
}

fn mov_imm(out: &mut Vec<Instruction>, reg: Gpr, value: u64) {
    out.push(Instruction::binary(
        Mnemonic::Mov,
        reg,
        Operand::imm(value as i64),
    ));
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
fn emit_read_counters(out: &mut Vec<Instruction>, req: &CodegenRequest, first: bool) {
    let results = if first { req.arenas.m1 } else { req.arenas.m2 };
    let scratch = req.arenas.scratch;
    if !req.no_mem {
        mov_to_mem(out, scratch, Gpr::Rax);
        mov_to_mem(out, scratch + 8, Gpr::Rcx);
        mov_to_mem(out, scratch + 16, Gpr::Rdx);
    }
    for (slot, sel) in req.selectors.iter().enumerate() {
        out.push(Instruction::new(Mnemonic::Lfence));
        mov_imm(out, Gpr::Rcx, *sel as u64);
        out.push(Instruction::new(Mnemonic::Rdpmc));
        out.push(Instruction::binary(
            Mnemonic::Shl,
            Gpr::Rdx,
            Operand::imm(32),
        ));
        out.push(Instruction::binary(Mnemonic::Or, Gpr::Rax, Gpr::Rdx));
        if req.no_mem {
            let acc = NO_MEM_ACC_REGS[slot];
            let op = if first { Mnemonic::Sub } else { Mnemonic::Add };
            out.push(Instruction::binary(op, acc, Gpr::Rax));
        } else {
            mov_to_mem(out, results + 8 * slot as u64, Gpr::Rax);
        }
    }
    out.push(Instruction::new(Mnemonic::Lfence));
    if !req.no_mem {
        mov_from_mem(out, Gpr::Rax, scratch);
        mov_from_mem(out, Gpr::Rcx, scratch + 8);
        mov_from_mem(out, Gpr::Rdx, scratch + 16);
    }
}

/// Emits the benchmark function per Algorithm 1 into `out`.
fn emit(req: &CodegenRequest, out: &mut Vec<Instruction>) {
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
            out.push(Instruction::binary(Mnemonic::Xor, *acc, *acc));
        }
    }

    // Line 3: codeInit.
    emit_slice(out, &req.init);

    // Line 4: m1 <- readPerfCtrs.
    emit_read_counters(out, req, true);

    // Lines 5–9: optional loop around the unrolled body. The loop counter
    // lives in R15, which the benchmark must not modify when looping
    // (§III-B).
    if req.loop_count > 0 {
        mov_imm(out, Gpr::R15, req.loop_count);
        let loop_top = out.len();
        for _ in 0..req.local_unroll {
            emit_slice(out, &req.code);
        }
        out.push(Instruction::unary(Mnemonic::Dec, Gpr::R15));
        out.push(Instruction::unary(Mnemonic::Jnz, Operand::Label(loop_top)));
    } else {
        for _ in 0..req.local_unroll {
            emit_slice(out, &req.code);
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

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_x86::asm::parse_asm;

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
        let req = CodegenRequest {
            init: parse_asm("mov [R14], R14").unwrap().into(),
            code: code.clone().into(),
            local_unroll: 3,
            loop_count: 0,
            selectors: vec![1 << 30],
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
        let req = CodegenRequest {
            init: SharedCode::default(),
            code: parse_asm("nop").unwrap().into(),
            local_unroll: 2,
            loop_count: 10,
            selectors: vec![1 << 30],
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
        let req = CodegenRequest {
            init: parse_asm("jmp i; nop; i: nop").unwrap().into(),
            code: parse_asm("call f; jmp e; f: ret; e: nop").unwrap().into(),
            local_unroll: 3,
            loop_count: 0,
            selectors: vec![1 << 30],
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
    }

    #[test]
    fn no_mem_uses_accumulators_and_no_result_stores() {
        let req = CodegenRequest {
            init: SharedCode::default(),
            code: parse_asm("nop").unwrap().into(),
            local_unroll: 1,
            loop_count: 0,
            selectors: vec![1 << 30, (1 << 30) | 1],
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
            init: SharedCode::default(),
            code: SharedCode::default(),
            local_unroll: 0,
            loop_count: 0,
            selectors: vec![0, 1, 2, 3, 4, 5, 6],
            no_mem: true,
            arenas: arenas(),
        };
        let _ = generate(&req);
    }
}
