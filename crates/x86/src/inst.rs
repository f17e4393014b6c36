//! Instructions: mnemonics plus operands.
//!
//! The mnemonic set covers everything nanoBench's own generated code uses
//! (moves, ALU, fences, counter reads, loop control), the privileged
//! instructions that motivate the kernel-space version (§III-D), and a broad
//! arithmetic/SSE/AVX tail for case study I (§V). Operand *forms* of a
//! mnemonic are distinguished by the operands themselves; the
//! microarchitectural descriptor tables in `nanobench-uarch` key on
//! mnemonic + form.

use crate::operand::Operand;
use std::fmt;

/// An instruction mnemonic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // the variants are x86 mnemonics; rustdoc text would be noise
pub enum Mnemonic {
    // -- data movement ----------------------------------------------------
    Mov,
    Movzx,
    Movsx,
    Lea,
    Xchg,
    Push,
    Pop,
    Bswap,
    Cmovz,
    Cmovnz,
    Setz,
    Setnz,
    // -- integer ALU -------------------------------------------------------
    Add,
    Adc,
    Sub,
    Sbb,
    And,
    Or,
    Xor,
    Cmp,
    Test,
    Inc,
    Dec,
    Neg,
    Not,
    Imul,
    Mul,
    Idiv,
    Div,
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
    Popcnt,
    Lzcnt,
    Tzcnt,
    Bsf,
    Bsr,
    Crc32,
    Xadd,
    // -- control flow -------------------------------------------------------
    Jmp,
    Jz,
    Jnz,
    Jc,
    Jnc,
    Call,
    Ret,
    Nop,
    Pause,
    // -- fences / serialization ---------------------------------------------
    Lfence,
    Mfence,
    Sfence,
    Cpuid,
    // -- counters / timing ---------------------------------------------------
    Rdtsc,
    Rdtscp,
    Rdpmc,
    // -- privileged (kernel-space only, §III-D) -------------------------------
    Rdmsr,
    Wrmsr,
    Wbinvd,
    Invd,
    Invlpg,
    Cli,
    Sti,
    Hlt,
    Swapgs,
    MovCr3,
    // -- cache control (unprivileged) -----------------------------------------
    Clflush,
    Clflushopt,
    Prefetcht0,
    Prefetcht1,
    Prefetcht2,
    Prefetchnta,
    // -- x87 / scalar float (SSE scalar) --------------------------------------
    Addss,
    Addsd,
    Subss,
    Subsd,
    Mulss,
    Mulsd,
    Divss,
    Divsd,
    Sqrtss,
    Sqrtsd,
    Comiss,
    Comisd,
    Cvtsi2sd,
    Cvtsd2si,
    Cvtss2sd,
    Cvtsd2ss,
    // -- SSE/AVX packed float ---------------------------------------------------
    Movaps,
    Movups,
    Movapd,
    Movdqa,
    Movdqu,
    Movd,
    Movq,
    Addps,
    Addpd,
    Subps,
    Subpd,
    Mulps,
    Mulpd,
    Divps,
    Divpd,
    Sqrtps,
    Sqrtpd,
    Maxps,
    Minps,
    Andps,
    Orps,
    Xorps,
    Shufps,
    Blendps,
    Dpps,
    Haddps,
    Roundps,
    // -- SSE/AVX packed integer ---------------------------------------------------
    Paddb,
    Paddw,
    Paddd,
    Paddq,
    Psubb,
    Psubd,
    Psubq,
    Pmulld,
    Pmullw,
    Pmuludq,
    Pmaddwd,
    Pand,
    Por,
    Pxor,
    Pcmpeqb,
    Pcmpeqd,
    Pcmpgtd,
    Pshufb,
    Pshufd,
    Psllw,
    Pslld,
    Psllq,
    Punpcklbw,
    Punpckldq,
    Packsswb,
    Pmovmskb,
    Ptest,
    Pabsd,
    Pminsd,
    Pmaxsd,
    Phaddd,
    Psadbw,
    // -- AVX(2)/FMA/AVX-512 (VEX/EVEX-coded; modeled as distinct mnemonics) ----
    Vaddps,
    Vaddpd,
    Vmulps,
    Vmulpd,
    Vdivps,
    Vdivpd,
    Vsqrtps,
    Vfmadd132ps,
    Vfmadd213ps,
    Vfmadd231ps,
    Vfmadd231pd,
    Vpaddd,
    Vpaddq,
    Vpmulld,
    Vpand,
    Vpor,
    Vpxor,
    Vpermilps,
    Vperm2f128,
    Vbroadcastss,
    Vextractf128,
    Vinsertf128,
    Vzeroupper,
    Vzeroall,
    Vgatherdps,
    // -- crypto / misc ----------------------------------------------------------
    Aesenc,
    Aesenclast,
    Aesdec,
    Pclmulqdq,
    Sha256rnds2,
    Rdrand,
    Rdseed,
    // -- nanoBench pseudo-instructions (magic byte markers, §III-I) -------------
    /// Marker that pauses performance counting (replaced by counter-read code).
    NbPause,
    /// Marker that resumes performance counting.
    NbResume,
}

impl Mnemonic {
    /// Whether the instruction can only execute in kernel mode (CPL 0).
    ///
    /// Benchmarking such instructions is the headline capability of
    /// nanoBench's kernel-space version (§III-D of the paper).
    pub fn is_privileged(self) -> bool {
        matches!(
            self,
            Mnemonic::Rdmsr
                | Mnemonic::Wrmsr
                | Mnemonic::Wbinvd
                | Mnemonic::Invd
                | Mnemonic::Invlpg
                | Mnemonic::Cli
                | Mnemonic::Sti
                | Mnemonic::Hlt
                | Mnemonic::Swapgs
                | Mnemonic::MovCr3
        )
    }

    /// Whether this instruction serializes the instruction stream.
    ///
    /// `CPUID` is fully serializing; `LFENCE` has the weaker (but for
    /// measurement purposes stronger-ended, §IV-A1) dispatch-serializing
    /// property that is handled separately by the timing engine.
    pub fn is_serializing(self) -> bool {
        matches!(self, Mnemonic::Cpuid | Mnemonic::Wbinvd | Mnemonic::Invd)
    }

    /// Whether this is one of the SSE/AVX vector mnemonics — including the
    /// scalar-SSE tail, which also lives in the xmm register file (used for
    /// the AVX warm-up model, §III-H, and the opaque vector execution
    /// semantics).
    pub fn is_vector(self) -> bool {
        use Mnemonic::*;
        matches!(
            self,
            Addss
                | Addsd
                | Subss
                | Subsd
                | Mulss
                | Mulsd
                | Divss
                | Divsd
                | Sqrtss
                | Sqrtsd
                | Comiss
                | Comisd
                | Cvtsi2sd
                | Cvtsd2si
                | Cvtss2sd
                | Cvtsd2ss
                | Movaps
                | Movups
                | Movapd
                | Movdqa
                | Movdqu
                | Movd
                | Movq
                | Addps
                | Addpd
                | Subps
                | Subpd
                | Mulps
                | Mulpd
                | Divps
                | Divpd
                | Sqrtps
                | Sqrtpd
                | Maxps
                | Minps
                | Andps
                | Orps
                | Xorps
                | Shufps
                | Blendps
                | Dpps
                | Haddps
                | Roundps
                | Paddb
                | Paddw
                | Paddd
                | Paddq
                | Psubb
                | Psubd
                | Psubq
                | Pmulld
                | Pmullw
                | Pmuludq
                | Pmaddwd
                | Pand
                | Por
                | Pxor
                | Pcmpeqb
                | Pcmpeqd
                | Pcmpgtd
                | Pshufb
                | Pshufd
                | Psllw
                | Pslld
                | Psllq
                | Punpcklbw
                | Punpckldq
                | Packsswb
                | Pmovmskb
                | Ptest
                | Pabsd
                | Pminsd
                | Pmaxsd
                | Phaddd
                | Psadbw
                | Vaddps
                | Vaddpd
                | Vmulps
                | Vmulpd
                | Vdivps
                | Vdivpd
                | Vsqrtps
                | Vfmadd132ps
                | Vfmadd213ps
                | Vfmadd231ps
                | Vfmadd231pd
                | Vpaddd
                | Vpaddq
                | Vpmulld
                | Vpand
                | Vpor
                | Vpxor
                | Vpermilps
                | Vperm2f128
                | Vbroadcastss
                | Vextractf128
                | Vinsertf128
                | Vgatherdps
                | Aesenc
                | Aesenclast
                | Aesdec
                | Pclmulqdq
                | Sha256rnds2
        )
    }

    /// Whether this is an AVX (256-bit capable, VEX-coded) mnemonic, which
    /// is subject to vector-unit warm-up on some microarchitectures.
    pub fn is_avx(self) -> bool {
        use Mnemonic::*;
        matches!(
            self,
            Vaddps
                | Vaddpd
                | Vmulps
                | Vmulpd
                | Vdivps
                | Vdivpd
                | Vsqrtps
                | Vfmadd132ps
                | Vfmadd213ps
                | Vfmadd231ps
                | Vfmadd231pd
                | Vpaddd
                | Vpaddq
                | Vpmulld
                | Vpand
                | Vpor
                | Vpxor
                | Vpermilps
                | Vperm2f128
                | Vbroadcastss
                | Vextractf128
                | Vinsertf128
                | Vgatherdps
        )
    }

    /// Whether this is a conditional or unconditional branch.
    pub fn is_branch(self) -> bool {
        matches!(
            self,
            Mnemonic::Jmp
                | Mnemonic::Jz
                | Mnemonic::Jnz
                | Mnemonic::Jc
                | Mnemonic::Jnc
                | Mnemonic::Call
                | Mnemonic::Ret
        )
    }

    /// The canonical lower-case name used by the assembler.
    pub fn name(self) -> &'static str {
        // Kept in sync with `crate::asm::mnemonic_table` via the
        // `asm::tests::names_round_trip` test.
        crate::asm::mnemonic_name(self)
    }
}

impl fmt::Display for Mnemonic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The most operands an instruction has: three-operand AVX forms take an
/// immediate as a fourth.
pub const MAX_OPERANDS: usize = 4;

/// An instruction's operands, held inline: at most [`MAX_OPERANDS`], in
/// Intel order (destination first).
///
/// Derefs to the live operands. The unused slots take no part in equality
/// or hashing, so two instructions are equal exactly when their mnemonics
/// and operand slices are.
#[derive(Clone, Copy)]
pub struct Operands {
    len: u8,
    slots: [Operand; MAX_OPERANDS],
}

impl Operands {
    /// No operands.
    pub const fn new() -> Operands {
        Operands {
            len: 0,
            slots: [Operand::Imm(0); MAX_OPERANDS],
        }
    }

    /// Appends an operand.
    ///
    /// # Panics
    ///
    /// If the list already holds [`MAX_OPERANDS`] operands.
    pub fn push(&mut self, op: Operand) {
        assert!(
            (self.len as usize) < MAX_OPERANDS,
            "an instruction has at most {MAX_OPERANDS} operands"
        );
        self.slots[self.len as usize] = op;
        self.len += 1;
    }

    /// The live operands.
    pub fn as_slice(&self) -> &[Operand] {
        &self.slots[..self.len as usize]
    }
}

impl Default for Operands {
    fn default() -> Operands {
        Operands::new()
    }
}

impl std::ops::Deref for Operands {
    type Target = [Operand];

    fn deref(&self) -> &[Operand] {
        self.as_slice()
    }
}

impl std::ops::DerefMut for Operands {
    fn deref_mut(&mut self) -> &mut [Operand] {
        &mut self.slots[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a Operands {
    type Item = &'a Operand;
    type IntoIter = std::slice::Iter<'a, Operand>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Operands {
    fn eq(&self, other: &Operands) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Operands {}

impl std::hash::Hash for Operands {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Operands {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

/// A decoded instruction: a mnemonic plus up to four operands, held
/// inline, so an instruction is a plain `Copy` value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// The operation.
    pub mnemonic: Mnemonic,
    /// The operands, in Intel order (destination first).
    pub operands: Operands,
}

impl Instruction {
    /// Creates an instruction with no operands.
    pub const fn new(mnemonic: Mnemonic) -> Instruction {
        Instruction {
            mnemonic,
            operands: Operands::new(),
        }
    }

    /// Creates an instruction with the given operands.
    ///
    /// # Panics
    ///
    /// If `operands` holds more than [`MAX_OPERANDS`] operands.
    pub fn with_operands(mnemonic: Mnemonic, operands: &[Operand]) -> Instruction {
        let mut inst = Instruction::new(mnemonic);
        for &op in operands {
            inst.operands.push(op);
        }
        inst
    }

    /// Creates a one-operand instruction.
    pub fn unary(mnemonic: Mnemonic, op: impl Into<Operand>) -> Instruction {
        Instruction::with_operands(mnemonic, &[op.into()])
    }

    /// Creates a two-operand instruction.
    pub fn binary(
        mnemonic: Mnemonic,
        dst: impl Into<Operand>,
        src: impl Into<Operand>,
    ) -> Instruction {
        Instruction::with_operands(mnemonic, &[dst.into(), src.into()])
    }

    /// First operand (destination in Intel syntax), if present.
    pub fn dst(&self) -> Option<&Operand> {
        self.operands.first()
    }

    /// Second operand (source), if present.
    pub fn src(&self) -> Option<&Operand> {
        self.operands.get(1)
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic)?;
        for (i, op) in self.operands.iter().enumerate() {
            if i == 0 {
                write!(f, " {op}")?;
            } else {
                write!(f, ", {op}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Gpr;

    #[test]
    fn privileged_set_matches_paper() {
        // §III-D: the kernel-space version exists to benchmark privileged
        // instructions; WBINVD in particular is used by cacheSeq (§VI-C).
        assert!(Mnemonic::Wbinvd.is_privileged());
        assert!(Mnemonic::Rdmsr.is_privileged());
        assert!(Mnemonic::Wrmsr.is_privileged());
        assert!(!Mnemonic::Rdpmc.is_privileged()); // readable in user space with CR4.PCE
        assert!(!Mnemonic::Rdtsc.is_privileged());
        assert!(!Mnemonic::Clflush.is_privileged());
    }

    #[test]
    fn display_forms() {
        let inst = Instruction::binary(Mnemonic::Mov, Gpr::R14, Operand::mem(Gpr::R14));
        assert_eq!(inst.to_string(), "mov r14, qword ptr [r14]");
        assert_eq!(Instruction::new(Mnemonic::Lfence).to_string(), "lfence");
    }

    #[test]
    fn branch_classification() {
        assert!(Mnemonic::Jnz.is_branch());
        assert!(Mnemonic::Ret.is_branch());
        assert!(!Mnemonic::Add.is_branch());
    }

    #[test]
    fn unused_operand_slots_are_invisible_to_eq_and_hash() {
        use std::hash::{BuildHasher, RandomState};
        let live = [Operand::gpr(Gpr::Rax), Operand::mem(Gpr::R14)];
        // Same live operands, different leftovers in the unused slots.
        let a = Operands {
            len: 2,
            slots: [live[0], live[1], Operand::Imm(0), Operand::Imm(0)],
        };
        let b = Operands {
            len: 2,
            slots: [live[0], live[1], Operand::Label(7), Operand::gpr(Gpr::R15)],
        };
        let state = RandomState::new();
        assert_eq!(a, b);
        assert_eq!(state.hash_one(a), state.hash_one(b));
        assert_eq!(state.hash_one(a), state.hash_one(&live[..]));
        let (x, y) = (
            Instruction {
                mnemonic: Mnemonic::Mov,
                operands: a,
            },
            Instruction {
                mnemonic: Mnemonic::Mov,
                operands: b,
            },
        );
        assert_eq!(x, y);
        assert_eq!(state.hash_one(x), state.hash_one(y));
        assert_eq!(x, Instruction::with_operands(Mnemonic::Mov, &live));
        // A different live prefix still differs.
        let c = Operands {
            len: 1,
            slots: b.slots,
        };
        assert_ne!(a, c);
        assert_ne!(state.hash_one(a), state.hash_one(c));
    }

    #[test]
    fn instruction_is_a_small_copy_value() {
        // Four 16-byte operands, their count and the mnemonic.
        assert_eq!(std::mem::size_of::<Operand>(), 16);
        assert_eq!(std::mem::size_of::<Instruction>(), 80);
        let inst = Instruction::binary(Mnemonic::Add, Gpr::Rax, Operand::imm(1));
        let copy = inst;
        assert_eq!(copy, inst);
        assert_eq!(inst.operands.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at most 4 operands")]
    fn a_fifth_operand_panics() {
        Instruction::with_operands(Mnemonic::Add, &[Operand::imm(0); 5]);
    }

    #[test]
    fn avx_is_vector() {
        assert!(Mnemonic::Vfmadd231ps.is_avx());
        assert!(Mnemonic::Vfmadd231ps.is_vector());
        assert!(Mnemonic::Addps.is_vector());
        assert!(!Mnemonic::Addps.is_avx());
    }
}
