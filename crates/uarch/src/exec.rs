//! Functional (semantic) execution of instructions.
//!
//! The engine is *functional-first, timing-directed*: every instruction is
//! executed architecturally in program order here, while `engine` computes
//! cycle timing separately. Microbenchmarks really compute — pointer
//! chasing (`mov R14,[R14]`, §III-A), loop counters in R15 (§III-B), and
//! the counter arithmetic of the generated measurement code all depend on
//! real values.

use crate::bus::{Bus, CpuFault};
use crate::plan::{FastAlu, FastOp, FastSrc};
use crate::state::CpuState;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Flag, Gpr, Width};

/// Control-flow outcome of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// Fall through to the next instruction.
    Seq,
    /// Jump to an instruction index.
    Jump(usize),
}

/// Computes the virtual address of a memory operand.
pub fn mem_vaddr(state: &CpuState, m: &MemRef) -> u64 {
    let mut addr = m.disp as u64;
    if let Some(base) = m.base {
        addr = addr.wrapping_add(state.gpr(base));
    }
    if let Some((index, scale)) = m.index {
        addr = addr.wrapping_add(state.gpr(index).wrapping_mul(scale as u64));
    }
    addr
}

fn read_operand<B: Bus + ?Sized>(
    state: &mut CpuState,
    bus: &mut B,
    op: &Operand,
) -> Result<u64, CpuFault> {
    match op {
        Operand::Gpr(g) => Ok(state.gpr_part(*g)),
        Operand::Imm(v) => Ok(*v as u64),
        Operand::Mem(m) => bus.read(mem_vaddr(state, m), m.width.bytes()),
        Operand::Vec(v) => Ok(state.vreg_digest(v.index)),
        Operand::Label(i) => Ok(*i as u64),
    }
}

fn write_operand<B: Bus + ?Sized>(
    state: &mut CpuState,
    bus: &mut B,
    op: &Operand,
    value: u64,
) -> Result<(), CpuFault> {
    match op {
        Operand::Gpr(g) => {
            state.set_gpr_part(*g, value);
            Ok(())
        }
        Operand::Mem(m) => bus.write(mem_vaddr(state, m), m.width.bytes(), value),
        Operand::Vec(v) => {
            state.set_vreg_digest(v.index, value);
            Ok(())
        }
        _ => Ok(()), // immediates/labels are never written
    }
}

fn op_width(inst: &Instruction) -> Width {
    inst.operands
        .iter()
        .find_map(|o| o.width())
        .unwrap_or(Width::Q)
}

fn sign_bit(value: u64, w: Width) -> bool {
    value & (1 << (w.bits() - 1)) != 0
}

fn parity_even(value: u64) -> bool {
    (value as u8).count_ones().is_multiple_of(2)
}

fn set_logic_flags(state: &mut CpuState, result: u64, w: Width) {
    let r = result & w.mask();
    state.set_flag(Flag::Cf, false);
    state.set_flag(Flag::Of, false);
    state.set_flag(Flag::Zf, r == 0);
    state.set_flag(Flag::Sf, sign_bit(r, w));
    state.set_flag(Flag::Pf, parity_even(r));
    state.set_flag(Flag::Af, false);
}

fn set_add_flags(state: &mut CpuState, a: u64, b: u64, carry_in: u64, w: Width) -> u64 {
    let mask = w.mask();
    let (a, b) = (a & mask, b & mask);
    let full = (a as u128) + (b as u128) + (carry_in as u128);
    let result = (full as u64) & mask;
    state.set_flag(Flag::Cf, full > mask as u128);
    let sa = sign_bit(a, w);
    let sb = sign_bit(b, w);
    let sr = sign_bit(result, w);
    state.set_flag(Flag::Of, sa == sb && sr != sa);
    state.set_flag(Flag::Zf, result == 0);
    state.set_flag(Flag::Sf, sr);
    state.set_flag(Flag::Pf, parity_even(result));
    state.set_flag(Flag::Af, ((a ^ b ^ result) & 0x10) != 0);
    result
}

fn set_sub_flags(state: &mut CpuState, a: u64, b: u64, borrow_in: u64, w: Width) -> u64 {
    let mask = w.mask();
    let (a, b) = (a & mask, b & mask);
    let result = a.wrapping_sub(b).wrapping_sub(borrow_in) & mask;
    state.set_flag(Flag::Cf, (b as u128 + borrow_in as u128) > a as u128);
    let sa = sign_bit(a, w);
    let sb = sign_bit(b, w);
    let sr = sign_bit(result, w);
    state.set_flag(Flag::Of, sa != sb && sr != sa);
    state.set_flag(Flag::Zf, result == 0);
    state.set_flag(Flag::Sf, sr);
    state.set_flag(Flag::Pf, parity_even(result));
    state.set_flag(Flag::Af, ((a ^ b ^ result) & 0x10) != 0);
    result
}

/// Executes a pre-decoded [`FastOp`] semantically. Must be bit-identical
/// to running the corresponding instruction through [`execute`]: same
/// result value and the exact same flag updates (pinned by the oracle
/// tests, which compare the engine with an [`execute`] stepping loop from
/// random register and flag states). Fast ops never touch the bus, so
/// they cannot fault and always fall through sequentially.
///
/// Always inlined: its one call site, in the superblock's ALU entry, is
/// compiled into both forms of the superblock handler, and the ALU hot
/// path must not pay a call per instruction in either.
#[inline(always)]
pub(crate) fn execute_fast(op: &FastOp, state: &mut CpuState) {
    let src_val = |state: &CpuState, src: FastSrc| match src {
        FastSrc::Reg(r) => state.gpr(r),
        FastSrc::Imm(v) => v,
    };
    match *op {
        FastOp::Mov { dst, src } => {
            let v = src_val(state, src);
            state.set_gpr(dst, v);
        }
        FastOp::Add { dst, src } => {
            let a = state.gpr(dst);
            let b = src_val(state, src);
            let r = set_add_flags(state, a, b, 0, Width::Q);
            state.set_gpr(dst, r);
        }
        FastOp::Sub { dst, src } => {
            let a = state.gpr(dst);
            let b = src_val(state, src);
            let r = set_sub_flags(state, a, b, 0, Width::Q);
            state.set_gpr(dst, r);
        }
        FastOp::And { dst, src } | FastOp::Or { dst, src } | FastOp::Xor { dst, src } => {
            let a = state.gpr(dst);
            let b = src_val(state, src);
            let r = match op {
                FastOp::And { .. } => a & b,
                FastOp::Or { .. } => a | b,
                _ => a ^ b,
            };
            set_logic_flags(state, r, Width::Q);
            state.set_gpr(dst, r);
        }
        FastOp::Imul { dst, src } => {
            let a = state.gpr(dst) as i64;
            let b = src_val(state, src) as i64;
            let r = a.wrapping_mul(b) as u64;
            let overflow = a.checked_mul(b).is_none();
            state.set_flag(Flag::Cf, overflow);
            state.set_flag(Flag::Of, overflow);
            state.set_gpr(dst, r);
        }
        FastOp::Inc { dst } | FastOp::Dec { dst } => {
            let a = state.gpr(dst);
            let cf = state.flag(Flag::Cf); // INC/DEC preserve CF
            let r = match op {
                FastOp::Inc { .. } => set_add_flags(state, a, 1, 0, Width::Q),
                _ => set_sub_flags(state, a, 1, 0, Width::Q),
            };
            state.set_flag(Flag::Cf, cf);
            state.set_gpr(dst, r);
        }
        FastOp::Lea { dst, mem } => {
            let addr = mem_vaddr(state, &mem);
            state.set_gpr(dst, addr);
        }
        _ => unreachable!("register-only fast ops only (the engine fuses memory shapes)"),
    }
}

/// Resolves a [`FastSrc`] operand against register state.
pub(crate) fn fast_src_val(state: &CpuState, src: FastSrc) -> u64 {
    match src {
        FastSrc::Reg(r) => state.gpr(r),
        FastSrc::Imm(v) => v,
    }
}

/// Applies a 64-bit [`FastAlu`] operation with the exact flag updates of
/// the corresponding instruction through [`execute`] (pinned by the same
/// oracle tests as [`execute_fast`]). Used by the engine to complete
/// memory-shape fast ops whose data access already went through the fused
/// bus path.
pub(crate) fn fast_mem_alu(state: &mut CpuState, op: FastAlu, a: u64, b: u64) -> u64 {
    match op {
        FastAlu::Add => set_add_flags(state, a, b, 0, Width::Q),
        FastAlu::Sub => set_sub_flags(state, a, b, 0, Width::Q),
        FastAlu::And | FastAlu::Or | FastAlu::Xor => {
            let r = match op {
                FastAlu::And => a & b,
                FastAlu::Or => a | b,
                _ => a ^ b,
            };
            set_logic_flags(state, r, Width::Q);
            r
        }
    }
}

/// Executes one "ordinary" instruction semantically (the engine handles
/// fences, counter reads, privileged and cache-control instructions before
/// calling this). `pc` is the instruction's index in its program: `call`
/// pushes `pc + 1` as its return address, the index its `ret` jumps to.
///
/// # Errors
///
/// Propagates memory faults and raises [`CpuFault::DivideError`].
pub fn execute<B: Bus + ?Sized>(
    inst: &Instruction,
    pc: usize,
    state: &mut CpuState,
    bus: &mut B,
) -> Result<Next, CpuFault> {
    use Mnemonic::*;
    let w = op_width(inst);
    let m = inst.mnemonic;
    match m {
        Nop | Pause => {}
        Mov | Movaps | Movups | Movapd | Movdqa | Movdqu | Movd | Movq => {
            let v = read_operand(state, bus, inst.src().expect("mov has 2 operands"))?;
            write_operand(state, bus, inst.dst().expect("mov has 2 operands"), v)?;
        }
        Movzx => {
            let v = read_operand(state, bus, inst.src().expect("movzx src"))?;
            write_operand(state, bus, inst.dst().expect("movzx dst"), v)?;
        }
        Movsx => {
            let src = inst.src().expect("movsx src");
            let sw = src.width().unwrap_or(Width::B);
            let v = read_operand(state, bus, src)?;
            let sign_extended = if sign_bit(v, sw) { v | !sw.mask() } else { v };
            write_operand(state, bus, inst.dst().expect("movsx dst"), sign_extended)?;
        }
        Lea => {
            let mem = inst
                .src()
                .and_then(|o| o.as_mem())
                .expect("lea src is memory");
            let addr = mem_vaddr(state, &mem);
            write_operand(state, bus, inst.dst().expect("lea dst"), addr)?;
        }
        Add | Adc => {
            let dst = *inst.dst().expect("alu dst");
            let a = read_operand(state, bus, &dst)?;
            let b = read_operand(state, bus, inst.src().expect("alu src"))?;
            let carry = if m == Adc && state.flag(Flag::Cf) {
                1
            } else {
                0
            };
            let r = set_add_flags(state, a, b, carry, w);
            write_operand(state, bus, &dst, r)?;
        }
        Sub | Sbb => {
            let dst = *inst.dst().expect("alu dst");
            let a = read_operand(state, bus, &dst)?;
            let b = read_operand(state, bus, inst.src().expect("alu src"))?;
            let borrow = if m == Sbb && state.flag(Flag::Cf) {
                1
            } else {
                0
            };
            let r = set_sub_flags(state, a, b, borrow, w);
            write_operand(state, bus, &dst, r)?;
        }
        Cmp => {
            let a = read_operand(state, bus, inst.dst().expect("cmp dst"))?;
            let b = read_operand(state, bus, inst.src().expect("cmp src"))?;
            set_sub_flags(state, a, b, 0, w);
        }
        And | Or | Xor => {
            let dst = *inst.dst().expect("alu dst");
            let a = read_operand(state, bus, &dst)?;
            let b = read_operand(state, bus, inst.src().expect("alu src"))?;
            let r = match m {
                And => a & b,
                Or => a | b,
                _ => a ^ b,
            } & w.mask();
            set_logic_flags(state, r, w);
            write_operand(state, bus, &dst, r)?;
        }
        Test => {
            let a = read_operand(state, bus, inst.dst().expect("test dst"))?;
            let b = read_operand(state, bus, inst.src().expect("test src"))?;
            set_logic_flags(state, a & b, w);
        }
        Inc | Dec => {
            let dst = *inst.dst().expect("inc dst");
            let a = read_operand(state, bus, &dst)?;
            // INC/DEC preserve CF.
            let cf = state.flag(Flag::Cf);
            let r = if m == Inc {
                set_add_flags(state, a, 1, 0, w)
            } else {
                set_sub_flags(state, a, 1, 0, w)
            };
            state.set_flag(Flag::Cf, cf);
            write_operand(state, bus, &dst, r)?;
        }
        Neg => {
            let dst = *inst.dst().expect("neg dst");
            let a = read_operand(state, bus, &dst)?;
            let r = set_sub_flags(state, 0, a, 0, w);
            write_operand(state, bus, &dst, r)?;
        }
        Not => {
            let dst = *inst.dst().expect("not dst");
            let a = read_operand(state, bus, &dst)?;
            write_operand(state, bus, &dst, !a & w.mask())?;
        }
        Imul => {
            if inst.operands.len() >= 2 {
                // `imul r, r/m` multiplies the destination by the source;
                // `imul r, r/m, imm` writes the source times the immediate.
                let dst = *inst.dst().expect("imul dst");
                let src = inst.src().expect("imul src");
                let (a, b) = match inst.operands.get(2) {
                    Some(imm) => (src, imm),
                    None => (&dst, src),
                };
                let a = read_operand(state, bus, a)? as i64;
                let b = read_operand(state, bus, b)? as i64;
                let r = a.wrapping_mul(b) as u64 & w.mask();
                let overflow = a.checked_mul(b).is_none();
                state.set_flag(Flag::Cf, overflow);
                state.set_flag(Flag::Of, overflow);
                write_operand(state, bus, &dst, r)?;
            } else {
                let src = read_operand(state, bus, inst.dst().expect("imul src"))? as i64;
                let a = state.gpr(Gpr::Rax) as i64;
                let full = (a as i128).wrapping_mul(src as i128);
                state.set_gpr(Gpr::Rax, full as u64);
                state.set_gpr(Gpr::Rdx, (full >> 64) as u64);
            }
        }
        Mul => {
            let src = read_operand(state, bus, inst.dst().expect("mul src"))?;
            let a = state.gpr(Gpr::Rax);
            let full = (a as u128).wrapping_mul(src as u128);
            state.set_gpr(Gpr::Rax, full as u64);
            state.set_gpr(Gpr::Rdx, (full >> 64) as u64);
            state.set_flag(Flag::Cf, (full >> 64) != 0);
            state.set_flag(Flag::Of, (full >> 64) != 0);
        }
        Div | Idiv => {
            let divisor = read_operand(state, bus, inst.dst().expect("div src"))?;
            if divisor == 0 {
                return Err(CpuFault::DivideError);
            }
            let lo = state.gpr(Gpr::Rax);
            let hi = state.gpr(Gpr::Rdx);
            if m == Div {
                let dividend = ((hi as u128) << 64) | lo as u128;
                let q = dividend / divisor as u128;
                state.set_gpr(Gpr::Rax, q as u64);
                state.set_gpr(Gpr::Rdx, (dividend % divisor as u128) as u64);
            } else {
                let dividend = (((hi as u128) << 64) | lo as u128) as i128;
                let q = dividend.wrapping_div(divisor as i64 as i128);
                state.set_gpr(Gpr::Rax, q as u64);
                state.set_gpr(
                    Gpr::Rdx,
                    dividend.wrapping_rem(divisor as i64 as i128) as u64,
                );
            }
        }
        Shl | Shr | Sar | Rol | Ror => {
            let dst = *inst.dst().expect("shift dst");
            let a = read_operand(state, bus, &dst)? & w.mask();
            let amount_op = inst.src().expect("shift amount");
            let amount = (read_operand(state, bus, amount_op)? & 0x3F) as u32 % w.bits() as u32;
            let bits = w.bits() as u32;
            let r = match m {
                Shl => a.wrapping_shl(amount),
                Shr => a.wrapping_shr(amount),
                Sar => {
                    let signed = if sign_bit(a, w) { a | !w.mask() } else { a };
                    ((signed as i64) >> amount) as u64
                }
                Rol => a.wrapping_shl(amount) | a.wrapping_shr(bits - amount.max(1)),
                _ => a.wrapping_shr(amount) | a.wrapping_shl(bits - amount.max(1)),
            } & w.mask();
            if amount != 0 && matches!(m, Shl | Shr | Sar) {
                set_logic_flags(state, r, w);
            }
            write_operand(state, bus, &dst, r)?;
        }
        Popcnt => {
            let v = read_operand(state, bus, inst.src().expect("popcnt src"))? & w.mask();
            write_operand(
                state,
                bus,
                inst.dst().expect("popcnt dst"),
                v.count_ones() as u64,
            )?;
            state.set_flag(Flag::Zf, v == 0);
        }
        Lzcnt => {
            let v = read_operand(state, bus, inst.src().expect("lzcnt src"))? & w.mask();
            let r = v.leading_zeros().saturating_sub(64 - w.bits() as u32) as u64;
            write_operand(state, bus, inst.dst().expect("lzcnt dst"), r)?;
        }
        Tzcnt => {
            let v = read_operand(state, bus, inst.src().expect("tzcnt src"))? & w.mask();
            let r = (v.trailing_zeros() as u64).min(w.bits() as u64);
            write_operand(state, bus, inst.dst().expect("tzcnt dst"), r)?;
        }
        Bsf | Bsr => {
            let v = read_operand(state, bus, inst.src().expect("bsf src"))? & w.mask();
            state.set_flag(Flag::Zf, v == 0);
            if v != 0 {
                let r = if m == Bsf {
                    v.trailing_zeros() as u64
                } else {
                    63 - v.leading_zeros() as u64
                };
                write_operand(state, bus, inst.dst().expect("bsf dst"), r)?;
            }
        }
        Crc32 => {
            let a = read_operand(state, bus, inst.dst().expect("crc dst"))?;
            let b = read_operand(state, bus, inst.src().expect("crc src"))?;
            let mut crc = a as u32;
            for byte in b.to_le_bytes() {
                crc ^= byte as u32;
                for _ in 0..8 {
                    crc = (crc >> 1) ^ (0x82F6_3B78 & (0u32.wrapping_sub(crc & 1)));
                }
            }
            write_operand(state, bus, inst.dst().expect("crc dst"), crc as u64)?;
        }
        Bswap => {
            let dst = *inst.dst().expect("bswap dst");
            let a = read_operand(state, bus, &dst)?;
            let r = match w {
                Width::Q => a.swap_bytes(),
                Width::D => (a as u32).swap_bytes() as u64,
                _ => a,
            };
            write_operand(state, bus, &dst, r)?;
        }
        Cmovz | Cmovnz => {
            let take = state.flag(Flag::Zf) == (m == Cmovz);
            if take {
                let v = read_operand(state, bus, inst.src().expect("cmov src"))?;
                write_operand(state, bus, inst.dst().expect("cmov dst"), v)?;
            }
        }
        Setz | Setnz => {
            let v = (state.flag(Flag::Zf) == (m == Setz)) as u64;
            write_operand(state, bus, inst.dst().expect("set dst"), v)?;
        }
        Xchg => {
            let a_op = *inst.dst().expect("xchg dst");
            let b_op = *inst.src().expect("xchg src");
            let a = read_operand(state, bus, &a_op)?;
            let b = read_operand(state, bus, &b_op)?;
            write_operand(state, bus, &a_op, b)?;
            write_operand(state, bus, &b_op, a)?;
        }
        Xadd => {
            let a_op = *inst.dst().expect("xadd dst");
            let b_op = *inst.src().expect("xadd src");
            let a = read_operand(state, bus, &a_op)?;
            let b = read_operand(state, bus, &b_op)?;
            let sum = set_add_flags(state, a, b, 0, w);
            write_operand(state, bus, &b_op, a)?;
            write_operand(state, bus, &a_op, sum)?;
        }
        Push => {
            let v = read_operand(state, bus, inst.dst().expect("push src"))?;
            let rsp = state.gpr(Gpr::Rsp).wrapping_sub(8);
            state.set_gpr(Gpr::Rsp, rsp);
            bus.write(rsp, 8, v)?;
        }
        Pop => {
            let rsp = state.gpr(Gpr::Rsp);
            let v = bus.read(rsp, 8)?;
            state.set_gpr(Gpr::Rsp, rsp.wrapping_add(8));
            write_operand(state, bus, inst.dst().expect("pop dst"), v)?;
        }
        Jmp => {
            if let Some(Operand::Label(t)) = inst.dst() {
                return Ok(Next::Jump(*t));
            }
        }
        Jz | Jnz | Jc | Jnc => {
            let taken = match m {
                Jz => state.flag(Flag::Zf),
                Jnz => !state.flag(Flag::Zf),
                Jc => state.flag(Flag::Cf),
                _ => !state.flag(Flag::Cf),
            };
            if taken {
                if let Some(Operand::Label(t)) = inst.dst() {
                    return Ok(Next::Jump(*t));
                }
            }
        }
        Call => {
            if let Some(Operand::Label(t)) = inst.dst() {
                let rsp = state.gpr(Gpr::Rsp).wrapping_sub(8);
                state.set_gpr(Gpr::Rsp, rsp);
                // The return "address" is the next instruction's index.
                bus.write(rsp, 8, pc as u64 + 1)?;
                return Ok(Next::Jump(*t));
            }
        }
        Ret => {
            let rsp = state.gpr(Gpr::Rsp);
            let target = bus.read(rsp, 8)?;
            state.set_gpr(Gpr::Rsp, rsp.wrapping_add(8));
            return Ok(Next::Jump(target as usize));
        }
        // Compare instructions write flags only; compare the digests so a
        // following branch sees deterministic flag state.
        Comiss | Comisd => {
            let a = read_operand(state, bus, inst.dst().expect("comis dst"))?;
            let b = read_operand(state, bus, inst.src().expect("comis src"))?;
            state.set_flag(Flag::Cf, a < b);
            state.set_flag(Flag::Zf, a == b);
            state.set_flag(Flag::Pf, false);
            state.set_flag(Flag::Sf, false);
            state.set_flag(Flag::Of, false);
            state.set_flag(Flag::Af, false);
        }
        // Upper-half zeroing is invisible to the digest model.
        Vzeroupper | Vzeroall => {}
        // Vector arithmetic: opaque dependency-preserving semantics. The
        // destination digest mixes all source digests with a per-mnemonic
        // constant, so chains propagate and distinct ops differ.
        _ if m.is_vector() => {
            let tag = m as u64;
            let mut digest = 0xA076_1D64_78BD_642Fu64 ^ tag.wrapping_mul(0x1000_0000_01B3);
            for op in inst.operands.iter().skip(1) {
                digest = digest
                    .rotate_left(13)
                    .wrapping_add(read_operand(state, bus, op)?);
            }
            // Read-modify: include the old destination for 2-operand SSE.
            if let Some(dst) = inst.dst() {
                if inst.operands.len() == 2 && !matches!(dst, Operand::Mem(_)) {
                    digest = digest
                        .rotate_left(7)
                        .wrapping_add(read_operand(state, bus, dst)?);
                }
                write_operand(state, bus, dst, digest)?;
            }
        }
        Prefetcht0 | Prefetcht1 | Prefetcht2 | Prefetchnta | Clflush | Clflushopt | Invlpg => {
            // Cache-control semantics are applied by the engine.
        }
        other => {
            debug_assert!(
                false,
                "mnemonic {other} must be handled by the engine specials"
            );
        }
    }
    Ok(Next::Seq)
}

/// Evaluates a conditional branch's direction without executing it (used
/// by the engine for prediction bookkeeping).
pub fn branch_taken(inst: &Instruction, state: &CpuState) -> bool {
    match inst.mnemonic {
        Mnemonic::Jmp | Mnemonic::Call | Mnemonic::Ret => true,
        Mnemonic::Jz => state.flag(Flag::Zf),
        Mnemonic::Jnz => !state.flag(Flag::Zf),
        Mnemonic::Jc => state.flag(Flag::Cf),
        Mnemonic::Jnc => !state.flag(Flag::Cf),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::TestBus;
    use nanobench_x86::asm::parse_asm;
    use nanobench_x86::defuse;

    fn run_seq(text: &str, state: &mut CpuState) {
        let bus = &mut TestBus::new(true);
        let insts = parse_asm(text).unwrap();
        let mut pc = 0usize;
        let mut steps = 0;
        while pc < insts.len() {
            steps += 1;
            assert!(steps < 10_000, "runaway test loop");
            match execute(&insts[pc], pc, state, bus).unwrap() {
                Next::Seq => pc += 1,
                Next::Jump(t) => pc = t,
            }
        }
    }

    #[test]
    fn arithmetic_and_flags() {
        let mut s = CpuState::new();
        run_seq("mov rax, 5; add rax, 7; sub rax, 2", &mut s);
        assert_eq!(s.gpr(Gpr::Rax), 10);
        run_seq("mov rbx, 1; sub rbx, 1", &mut s);
        assert!(s.flag(Flag::Zf));
        run_seq("mov rcx, 0; dec rcx", &mut s);
        assert_eq!(s.gpr(Gpr::Rcx), u64::MAX);
        assert!(s.flag(Flag::Sf));
    }

    #[test]
    fn pointer_chase_example() {
        // The §III-A microbenchmark: init writes R14's value to [R14];
        // the main part loads it back — R14 is unchanged.
        let mut s = CpuState::new();
        s.set_gpr(Gpr::R14, 0x5000);
        run_seq("mov [R14], R14; mov R14, [R14]", &mut s);
        assert_eq!(s.gpr(Gpr::R14), 0x5000);
    }

    #[test]
    fn loops_terminate_with_counter() {
        let mut s = CpuState::new();
        run_seq(
            "mov r15, 10; mov rax, 0; l: add rax, 2; dec r15; jnz l",
            &mut s,
        );
        assert_eq!(s.gpr(Gpr::Rax), 20);
        assert_eq!(s.gpr(Gpr::R15), 0);
    }

    #[test]
    fn three_operand_imul_multiplies_source_by_immediate() {
        let mut s = CpuState::new();
        run_seq("mov rax, 5; mov rsi, 7; imul rax, rsi, 3", &mut s);
        assert_eq!(s.gpr(Gpr::Rax), 21);
        assert!(!s.flag(Flag::Cf) && !s.flag(Flag::Of));
        run_seq("mov rsi, 0x4000000000000000; imul rax, rsi, 2", &mut s);
        assert_eq!(s.gpr(Gpr::Rax), 1 << 63);
        assert!(s.flag(Flag::Cf) && s.flag(Flag::Of));
    }

    #[test]
    fn adc_carry_chain() {
        let mut s = CpuState::new();
        run_seq("mov rax, -1; mov rbx, 0; add rax, 1; adc rbx, 0", &mut s);
        assert_eq!(s.gpr(Gpr::Rax), 0);
        assert_eq!(s.gpr(Gpr::Rbx), 1);
    }

    #[test]
    fn shifts_and_or_build_rdpmc_value() {
        // The exact pattern nanoBench's generated code uses to combine
        // EDX:EAX into a 64-bit counter value.
        let mut s = CpuState::new();
        run_seq(
            "mov rax, 0x12345678; mov rdx, 0xABCD; shl rdx, 32; or rax, rdx",
            &mut s,
        );
        assert_eq!(s.gpr(Gpr::Rax), 0xABCD_1234_5678);
    }

    #[test]
    fn push_pop_stack() {
        let mut s = CpuState::new();
        s.set_gpr(Gpr::Rsp, 0x8000);
        run_seq("mov rax, 42; push rax; mov rax, 0; pop rbx", &mut s);
        assert_eq!(s.gpr(Gpr::Rbx), 42);
        assert_eq!(s.gpr(Gpr::Rsp), 0x8000);
    }

    #[test]
    fn bit_instructions() {
        let mut s = CpuState::new();
        run_seq(
            "mov rax, 0xF0; popcnt rbx, rax; tzcnt rcx, rax; bsr rdx, rax",
            &mut s,
        );
        assert_eq!(s.gpr(Gpr::Rbx), 4);
        assert_eq!(s.gpr(Gpr::Rcx), 4);
        assert_eq!(s.gpr(Gpr::Rdx), 7);
    }

    #[test]
    fn cmov_and_setcc() {
        let mut s = CpuState::new();
        run_seq(
            "mov rax, 1; mov rbx, 9; cmp rax, 1; cmovz rcx, rbx; setz dl",
            &mut s,
        );
        assert_eq!(s.gpr(Gpr::Rcx), 9);
        assert_eq!(s.gpr(Gpr::Rdx) & 0xFF, 1);
    }

    #[test]
    fn vector_dependency_digest() {
        let mut s = CpuState::new();
        let bus = &mut TestBus::new(true);
        let insts = parse_asm("pxor xmm0, xmm0; paddd xmm1, xmm0; paddd xmm2, xmm0").unwrap();
        for (pc, inst) in insts.iter().enumerate() {
            execute(inst, pc, &mut s, bus).unwrap();
        }
        // Same inputs but different destinations started differently.
        assert_ne!(s.vreg_digest(0), 0);
    }

    #[test]
    fn divide_by_zero_faults() {
        let mut s = CpuState::new();
        let bus = &mut TestBus::new(true);
        let insts = parse_asm("mov rbx, 0; div rbx").unwrap();
        execute(&insts[0], 0, &mut s, bus).unwrap();
        assert_eq!(
            execute(&insts[1], 1, &mut s, bus),
            Err(CpuFault::DivideError)
        );
    }

    #[test]
    fn io_dependency_metadata() {
        let insts = parse_asm("add rax, [r14+rcx*8]").unwrap();
        let mut ins = Vec::new();
        defuse::input_gprs(&insts[0], &mut ins);
        let regs: Vec<Gpr> = ins.iter().map(|g| g.reg).collect();
        assert!(regs.contains(&Gpr::Rax)); // RMW reads dst
        assert!(regs.contains(&Gpr::R14));
        assert!(regs.contains(&Gpr::Rcx));
        let mut outs = Vec::new();
        defuse::output_gprs(&insts[0], &mut outs);
        assert_eq!(outs.len(), 1);
        assert_eq!(outs[0].reg, Gpr::Rax);

        let mov = parse_asm("mov rax, rbx").unwrap();
        defuse::input_gprs(&mov[0], &mut ins);
        assert!(!ins.iter().any(|g| g.reg == Gpr::Rax));
    }
}
