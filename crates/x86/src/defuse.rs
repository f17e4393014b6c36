//! Per-instruction def/use metadata: the read and write sets of every
//! supported instruction.
//!
//! This module is the single source of truth for which registers, flags,
//! vector registers, and memory operands an [`Instruction`] reads and
//! writes. The execution layers (`nanobench-uarch`'s semantic interpreter
//! and its decode-once plan builder) and the static analyzer
//! (`nanobench-analysis`) all consume these sets, so an instruction added
//! to the encode table gets dependency tracking and lint coverage from one
//! place.
//!
//! Granularity: GPR reads/writes are [`GprPart`]s (register + access
//! width, so sub-register aliasing is representable), flags are per-flag
//! slices (e.g. `INC` writes every arithmetic flag except `CF`), vector
//! accesses are whole registers, and memory operands are [`MemRef`]s
//! classified into read and write sets.

use crate::inst::{Instruction, Mnemonic};
use crate::operand::{MemRef, Operand};
use crate::reg::{Flag, Gpr, GprPart, VecReg};

/// Whether the first (destination) operand is also an input. The
/// three-operand `imul r, r/m, imm` writes its destination from the source
/// and the immediate alone.
pub fn reads_dst(inst: &Instruction) -> bool {
    use Mnemonic::*;
    if inst.mnemonic == Imul && inst.operands.len() == 3 {
        return false;
    }
    !matches!(
        inst.mnemonic,
        Mov | Movzx
            | Movsx
            | Lea
            | Movaps
            | Movups
            | Movapd
            | Movdqa
            | Movdqu
            | Movd
            | Movq
            | Setz
            | Setnz
            | Pop
            | Lzcnt
            | Tzcnt
            | Popcnt
            | Bsf
            | Bsr
            | Rdrand
            | Rdseed
    )
}

/// Whether the first (destination) operand is written.
pub fn writes_dst(m: Mnemonic) -> bool {
    use Mnemonic::*;
    !matches!(
        m,
        Cmp | Test
            | Jmp
            | Jz
            | Jnz
            | Jc
            | Jnc
            | Call
            | Ret
            | Push
            | Clflush
            | Clflushopt
            | Prefetcht0
            | Prefetcht1
            | Prefetcht2
            | Prefetchnta
            | Invlpg
            | Nop
            | Pause
    )
}

/// Whether the mnemonic is a pure data move: the destination is
/// write-only, and with a memory operand the load/store µop is the whole
/// instruction.
pub fn is_move(m: Mnemonic) -> bool {
    use Mnemonic::*;
    matches!(
        m,
        Mov | Movzx | Movsx | Movaps | Movups | Movapd | Movdqa | Movdqu | Movd | Movq
    )
}

/// The GPRs an instruction reads (for dependency tracking), including
/// address registers of memory operands, appended to `out` (which is
/// cleared first).
pub fn input_gprs(inst: &Instruction, out: &mut Vec<GprPart>) {
    out.clear();
    for (i, op) in inst.operands.iter().enumerate() {
        match op {
            Operand::Gpr(g)
                // The first operand is written; whether it is also read
                // depends on the instruction.
                if (i > 0 || reads_dst(inst)) => {
                    out.push(*g);
                }
            Operand::Mem(mem) => {
                if let Some(b) = mem.base {
                    out.push(GprPart::full(b));
                }
                if let Some((idx, _)) = mem.index {
                    out.push(GprPart::full(idx));
                }
            }
            _ => {}
        }
    }
    push_implicit_gpr_reads(inst, out);
}

/// Appends the implicit (non-operand) GPR reads of an instruction to `out`.
fn push_implicit_gpr_reads(inst: &Instruction, out: &mut Vec<GprPart>) {
    let m = inst.mnemonic;
    let regs: &[Gpr] = match m {
        Mnemonic::Mul | Mnemonic::Imul if inst.operands.len() == 1 => &[Gpr::Rax],
        Mnemonic::Div | Mnemonic::Idiv => &[Gpr::Rax, Gpr::Rdx],
        Mnemonic::Push | Mnemonic::Pop | Mnemonic::Call | Mnemonic::Ret => &[Gpr::Rsp],
        Mnemonic::Rdpmc | Mnemonic::Rdmsr => &[Gpr::Rcx],
        Mnemonic::Wrmsr => &[Gpr::Rcx, Gpr::Rax, Gpr::Rdx],
        _ => &[],
    };
    out.extend(regs.iter().map(|&r| GprPart::full(r)));
}

/// The GPRs an instruction writes, appended to `out` (which is cleared
/// first).
pub fn output_gprs(inst: &Instruction, out: &mut Vec<GprPart>) {
    out.clear();
    let m = inst.mnemonic;
    if writes_dst(m) {
        if let Some(Operand::Gpr(g)) = inst.dst() {
            out.push(*g);
        }
    }
    if m == Mnemonic::Xchg || m == Mnemonic::Xadd {
        if let Some(Operand::Gpr(g)) = inst.src() {
            out.push(*g);
        }
    }
    let implicit: &[Gpr] = match m {
        Mnemonic::Mul | Mnemonic::Imul if inst.operands.len() == 1 => &[Gpr::Rax, Gpr::Rdx],
        Mnemonic::Div | Mnemonic::Idiv => &[Gpr::Rax, Gpr::Rdx],
        Mnemonic::Push | Mnemonic::Pop | Mnemonic::Call | Mnemonic::Ret => &[Gpr::Rsp],
        Mnemonic::Rdtsc | Mnemonic::Rdtscp | Mnemonic::Rdpmc | Mnemonic::Rdmsr => {
            &[Gpr::Rax, Gpr::Rdx]
        }
        Mnemonic::Cpuid => &[Gpr::Rax, Gpr::Rbx, Gpr::Rcx, Gpr::Rdx],
        _ => &[],
    };
    out.extend(implicit.iter().map(|&r| GprPart::full(r)));
}

/// The GPRs an instruction reads as *data* (explicit operands plus
/// implicit reads), excluding memory-address registers — those are
/// [`addr_gprs`].
pub fn data_gpr_reads(inst: &Instruction) -> Vec<GprPart> {
    let mut regs = Vec::new();
    for (i, op) in inst.operands.iter().enumerate() {
        if let Operand::Gpr(g) = op {
            if i > 0 || reads_dst(inst) {
                regs.push(*g);
            }
        }
    }
    push_implicit_gpr_reads(inst, &mut regs);
    regs
}

/// The GPRs used to form memory-operand addresses (base and index).
pub fn addr_gprs(inst: &Instruction) -> Vec<Gpr> {
    let mut regs = Vec::new();
    for op in &inst.operands {
        if let Operand::Mem(mem) = op {
            if let Some(b) = mem.base {
                regs.push(b);
            }
            if let Some((idx, _)) = mem.index {
                regs.push(idx);
            }
        }
    }
    regs
}

const FLAGS_NONE: &[Flag] = &[];
const FLAGS_CF: &[Flag] = &[Flag::Cf];
const FLAGS_ZF: &[Flag] = &[Flag::Zf];
const FLAGS_ALL: &[Flag] = &Flag::ALL;
/// `INC`/`DEC` leave `CF` untouched.
const FLAGS_NOT_CF: &[Flag] = &[Flag::Pf, Flag::Af, Flag::Zf, Flag::Sf, Flag::Of];

/// The flags an instruction reads.
pub fn flags_read(m: Mnemonic) -> &'static [Flag] {
    use Mnemonic::*;
    match m {
        Adc | Sbb | Jc | Jnc => FLAGS_CF,
        Cmovz | Cmovnz | Setz | Setnz | Jz | Jnz => FLAGS_ZF,
        _ => FLAGS_NONE,
    }
}

/// The flags an instruction writes.
pub fn flags_written(m: Mnemonic) -> &'static [Flag] {
    use Mnemonic::*;
    match m {
        Inc | Dec => FLAGS_NOT_CF,
        Add | Adc | Sub | Sbb | And | Or | Xor | Cmp | Test | Neg | Imul | Mul | Shl | Shr
        | Sar | Rol | Ror | Popcnt | Lzcnt | Tzcnt | Bsf | Bsr | Xadd | Comiss | Comisd | Ptest => {
            FLAGS_ALL
        }
        _ => FLAGS_NONE,
    }
}

/// The vector registers an instruction reads, appended to `out` (which is
/// cleared first). The first operand of a two-operand pure move is
/// write-only; everything else reads its vector operands (three-operand
/// AVX forms read the destination slot too).
pub fn vec_reads(inst: &Instruction, out: &mut Vec<VecReg>) {
    out.clear();
    let m = inst.mnemonic;
    for (i, op) in inst.operands.iter().enumerate() {
        if let Operand::Vec(v) = op {
            if i > 0 || !is_move(m) || inst.operands.len() > 2 {
                out.push(*v);
            }
        }
    }
}

/// The vector register an instruction writes (destination operand).
pub fn vec_write(inst: &Instruction) -> Option<VecReg> {
    if !writes_dst(inst.mnemonic) {
        return None;
    }
    match inst.dst() {
        Some(Operand::Vec(v)) => Some(*v),
        _ => None,
    }
}

/// Memory operands an instruction reads, appended to `out` (which is
/// cleared first).
pub fn mem_reads(inst: &Instruction, out: &mut Vec<MemRef>) {
    use Mnemonic::*;
    let m = inst.mnemonic;
    out.clear();
    if matches!(
        m,
        Lea | Clflush | Clflushopt | Prefetcht0 | Prefetcht1 | Prefetcht2 | Prefetchnta | Invlpg
    ) {
        return;
    }
    for (i, op) in inst.operands.iter().enumerate() {
        if let Operand::Mem(mem) = op {
            let is_dst = i == 0;
            let reads = if is_dst { dst_mem_is_read(m) } else { true };
            if reads {
                out.push(*mem);
            }
        }
    }
}

/// The memory operand an instruction writes, if any.
pub fn mem_writes(inst: &Instruction) -> Option<MemRef> {
    if let Some(Operand::Mem(mem)) = inst.dst() {
        if dst_mem_is_written(inst.mnemonic) {
            return Some(*mem);
        }
    }
    None
}

/// Whether a destination memory operand is read.
pub fn dst_mem_is_read(m: Mnemonic) -> bool {
    use Mnemonic::*;
    // Pure stores and SETcc only write; CMP/TEST only read; RMW both.
    !matches!(
        m,
        Mov | Movaps | Movups | Movapd | Movdqa | Movdqu | Movd | Movq | Setz | Setnz
    )
}

/// Whether a destination memory operand is written.
pub fn dst_mem_is_written(m: Mnemonic) -> bool {
    use Mnemonic::*;
    !matches!(m, Cmp | Test | Ptest | Comiss | Comisd | Push)
}

/// Whether the instruction is a zero idiom (`XOR r, r` / `SUB r, r` /
/// `PXOR x, x` / `XORPS x, x` with identical operands): the result is
/// zero regardless of the prior register value, so the "read" carries no
/// dependency on the old contents.
pub fn is_zero_idiom(inst: &Instruction) -> bool {
    use Mnemonic::*;
    if inst.operands.len() != 2 || inst.operands[0] != inst.operands[1] {
        return false;
    }
    matches!(inst.mnemonic, Xor | Sub | Pxor | Xorps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_asm;

    fn one(text: &str) -> Instruction {
        parse_asm(text).unwrap().remove(0)
    }

    #[test]
    fn data_and_address_reads_are_disjoint_and_cover_input_gprs() {
        for text in [
            "add rax, rbx",
            "mov rax, [rbx + 8*rcx + 16]",
            "mov [r14], rdi",
            "xadd [rbp], rdx",
            "push rsi",
            "imul rcx",
        ] {
            let inst = one(text);
            let mut all: Vec<Gpr> = data_gpr_reads(&inst).iter().map(|g| g.reg).collect();
            all.extend(addr_gprs(&inst));
            let mut inputs = Vec::new();
            input_gprs(&inst, &mut inputs);
            let mut from_input: Vec<Gpr> = inputs.iter().map(|g| g.reg).collect();
            all.sort_by_key(|g| g.number());
            from_input.sort_by_key(|g| g.number());
            assert_eq!(all, from_input, "{text}");
        }
    }

    #[test]
    fn flag_sets_match_the_boolean_classification() {
        assert_eq!(flags_read(Mnemonic::Adc), &[Flag::Cf]);
        assert_eq!(flags_read(Mnemonic::Cmovz), &[Flag::Zf]);
        assert!(flags_read(Mnemonic::Add).is_empty());
        assert_eq!(flags_written(Mnemonic::Inc).len(), 5);
        assert!(!flags_written(Mnemonic::Inc).contains(&Flag::Cf));
        assert_eq!(flags_written(Mnemonic::Cmp).len(), 6);
        assert!(flags_written(Mnemonic::Mov).is_empty());
    }

    #[test]
    fn zero_idioms_are_recognized() {
        assert!(is_zero_idiom(&one("xor rax, rax")));
        assert!(is_zero_idiom(&one("pxor xmm3, xmm3")));
        assert!(!is_zero_idiom(&one("xor rax, rbx")));
        assert!(!is_zero_idiom(&one("add rax, rax")));
    }

    #[test]
    fn moves_do_not_read_their_destination() {
        let mv = one("mov rax, [r14]");
        assert!(data_gpr_reads(&mv).is_empty());
        assert_eq!(addr_gprs(&mv), vec![Gpr::R14]);
        let st = one("mov [r14], rax");
        assert_eq!(data_gpr_reads(&st).len(), 1);
        assert!(mem_writes(&st).is_some());
        let mut buf = Vec::new();
        mem_reads(&st, &mut buf);
        assert!(buf.is_empty());
    }
}
