//! Decode-once execution plans.
//!
//! nanoBench's methodology runs the *same* static program tens of
//! thousands of dynamic times (`loop_count` × `unroll_count`, warm-up
//! runs, both unroll versions of §III-C). A [`DecodedProgram`] hoists
//! everything the engine needs to know about an instruction — descriptor
//! lookups, memory-operand classification, port-class resolution — into a
//! one-shot analysis pass: each static instruction maps to a flat
//! [`HotEntry`] whose variable-length data (resolved µops, register
//! dependencies, memory operands) lives in contiguous arenas addressed by
//! spans — so the engine's steady-state loop performs no heap allocation
//! and no hashing.
//!
//! On top of the arena layout, decode resolves *how* each instruction is
//! stepped:
//!
//! * Every entry carries a [`handler`] index into the engine's static
//!   dispatch table, so the steady-state loop is an indirect call with no
//!   branching on step kind — specials get one handler per mnemonic
//!   family, and the dominant ALU / load / store / read-modify-write
//!   shapes get specialized fast handlers.
//! * Entries are split struct-of-arrays: the hot loop touches only
//!   [`HotEntry`] (handler index, µop/register/memory spans, packed meta
//!   bits); rarely-needed metadata (vector-register dependencies) lives in
//!   a parallel [`ColdEntry`] arena only the generic handler reads.
//! * Adjacent straight-line entries — register-only ALU, load, store and
//!   read-modify-write shapes, mixed freely — are fused into superblock
//!   steps: `fuse_len` is the (capped) run length of consecutive fusable
//!   entries starting at each position (a suffix computation, so branches
//!   into the middle of a block land on a correct shorter block), and the
//!   superblock handler steps the whole run, plus a certified loop-close
//!   branch behind it, in one dispatch.
//!
//! Invariants:
//!
//! * A plan is **pure static decode**: it holds no machine state, so one
//!   plan can be replayed any number of times (warm-up runs, both counter
//!   halves, campaign re-runs) and shared across resets of the session
//!   that decoded it.
//! * A plan is specific to a [`MicroArch`]: port classes are resolved to
//!   concrete [`PortSet`]s at decode time. [`crate::engine::Engine::run_plan`]
//!   asserts the match.
//! * Fusion is a pure performance change: a fused run is bit-identical to
//!   stepping the same plan one instruction at a time
//!   ([`crate::engine::RunContext::disable_fusion`]) or in turns that cut
//!   superblocks mid-block ([`crate::engine::RunContext::set_turn_limit`])
//!   — same PMU counts, cycles, and architectural state — and the
//!   pre-decoded fast semantics match [`crate::exec::execute`]. The
//!   `plan_equivalence` suite pins both pairs over the full corpus.

use crate::descriptor::{DescriptorTable, PortClass, UopSpec};
use crate::port::{MicroArch, PortSet};
use nanobench_x86::defuse;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Gpr, GprPart, VecReg, Width};

/// A µop with its port class resolved to the concrete ports of the
/// microarchitecture the plan was decoded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedUop {
    /// Ports the µop may dispatch to.
    pub ports: PortSet,
    /// Latency in cycles.
    pub latency: u64,
    /// Reciprocal throughput on its port.
    pub recip: u64,
}

/// Indices into the engine's step-handler dispatch table. Resolved once at
/// plan-build time; the interpreter's steady state is
/// `TABLE[entry.handler](engine, ...)` with no per-step branching on kind.
pub(crate) mod handler {
    /// Full dataflow path: AVX, vector registers, privilege, any operand
    /// shape. Correct for every non-special instruction.
    pub const GENERIC: u8 = 0;
    /// Register-only ALU entry. Like LOAD, STORE and RMW it dispatches to
    /// the superblock handler, which steps the `fuse_len` ≥ 1 fusable
    /// entries starting here, whatever mix of the four shapes they are.
    pub const ALU_BLOCK: u8 = 1;
    /// Memory reads, no writes, GPR outputs only.
    pub const LOAD: u8 = 2;
    /// Memory write, no reads (pure store).
    pub const STORE: u8 = 3;
    /// Read-modify-write: a load that covers the store's line.
    pub const RMW: u8 = 4;
    /// Conditional branch (feeds the predictor).
    pub const COND_BRANCH: u8 = 5;
    /// Unconditional branch.
    pub const JUMP: u8 = 6;
    // One handler per special-cased mnemonic family (the former
    // `step_special` match arms).
    pub const NOP: u8 = 7;
    pub const LFENCE: u8 = 8;
    /// MFENCE / SFENCE.
    pub const FENCE: u8 = 9;
    pub const CPUID: u8 = 10;
    /// RDTSC / RDTSCP.
    pub const RDTSC: u8 = 11;
    pub const RDPMC: u8 = 12;
    pub const RDMSR: u8 = 13;
    pub const WRMSR: u8 = 14;
    /// WBINVD / INVD.
    pub const WBINVD: u8 = 15;
    /// CLFLUSH / CLFLUSHOPT.
    pub const CLFLUSH: u8 = 16;
    /// The PREFETCHhx family.
    pub const PREFETCH: u8 = 17;
    pub const CLI: u8 = 18;
    pub const STI: u8 = 19;
    /// HLT / SWAPGS / MOV CR3 / INVLPG: serializing fixed-cost kernel ops.
    pub const SERIALIZE: u8 = 20;
    /// RDRAND / RDSEED.
    pub const RDRAND: u8 = 21;
    pub const NB_PAUSE: u8 = 22;
    pub const NB_RESUME: u8 = 23;
    pub const PUSH: u8 = 24;
    pub const POP: u8 = 25;
    /// Number of handlers (dispatch-table length).
    pub const COUNT: usize = 26;

    /// Whether the index is one of the special-mnemonic handlers.
    #[cfg(test)]
    pub(crate) fn is_special(h: u8) -> bool {
        h >= NOP
    }

    /// Whether entries with this handler can be fused into a superblock:
    /// the straight-line ALU / load / store / RMW shapes, whose control
    /// flow is always sequential and whose in-block stepping the block
    /// handler implements inline.
    pub(crate) fn is_fusable(h: u8) -> bool {
        matches!(h, ALU_BLOCK | LOAD | STORE | RMW)
    }
}

/// Packed per-entry boolean metadata ([`HotEntry::meta`]).
pub(crate) mod meta {
    pub const FLAGS_READ: u8 = 1 << 0;
    pub const FLAGS_WRITTEN: u8 = 1 << 1;
    /// Conditional branches feed the predictor; unconditional ones only
    /// count as retired branches.
    pub const CONDITIONAL: u8 = 1 << 2;
    /// Magic pause/resume markers do not retire (§III-I).
    pub const RETIRES: u8 = 1 << 3;
    pub const IS_BRANCH: u8 = 1 << 4;
    /// Drives the AVX warm-up bookkeeping (§III-H).
    pub const IS_AVX: u8 = 1 << 5;
    /// `check_kernel` outcome precomputed (the bus side stays dynamic).
    pub const PRIVILEGED: u8 = 1 << 6;
}

/// Maximum number of entries (ALU, load, store and RMW, mixed) fused into
/// one superblock. Bounds how far a fused step can run ahead of interrupt
/// polling and the instruction limit check (both happen once per
/// dispatched block).
pub(crate) const FUSE_CAP: u8 = 16;

/// A store operand plus whether this instruction's load µop already
/// touched the line (RMW forms skip the second cache access).
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlannedStore {
    pub mem: MemRef,
    pub covered_by_read: bool,
}

/// A `[start, start+len)` range into one of the plan arenas.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn push<T>(arena: &mut Vec<T>, items: impl IntoIterator<Item = T>) -> Span {
        let start = arena.len() as u32;
        arena.extend(items);
        Span {
            start,
            len: arena.len() as u32 - start,
        }
    }

    #[inline(always)]
    pub(crate) fn slice<T>(self, arena: &[T]) -> &[T] {
        &arena[self.start as usize..(self.start + self.len) as usize]
    }

    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// The hot half of one static instruction's decode: everything the
/// steady-state interpreter loop touches, and nothing it does not.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HotEntry {
    /// Index into the engine's dispatch table ([`handler`]).
    pub handler: u8,
    /// Number of consecutive entries (≥ 1) this dispatch consumes; > 1 only
    /// for superblocks, which start at a fusable entry
    /// ([`handler::is_fusable`]: ALU, load, store or RMW) and mix all four.
    pub fuse_len: u8,
    /// Packed [`meta`] bits.
    pub meta: u8,
    /// Resolved compute µops (also carries the RDRAND/RDSEED descriptor
    /// for that special, so its handler needs no table lookup either).
    pub uops: Span,
    /// Input GPR numbers (operand and implicit, address registers
    /// included).
    pub in_regs: Span,
    /// Output GPR numbers.
    pub out_regs: Span,
    /// Memory operands read.
    pub reads: Span,
    /// Memory operands written.
    pub writes: Span,
}

impl HotEntry {
    pub(crate) fn has(&self, bit: u8) -> bool {
        self.meta & bit != 0
    }
}

/// The cold half: metadata only the generic handler consults (vector
/// dependencies). Lives in a side arena so the fast handlers' cache
/// footprint stays minimal.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColdEntry {
    /// Input vector-register indices.
    pub in_vregs: Span,
    /// Output vector register, if any.
    pub out_vreg: Option<u8>,
}

/// A pre-resolved ALU source operand.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastSrc {
    /// A full-width GPR.
    Reg(Gpr),
    /// An immediate, already sign-extended to 64 bits.
    Imm(u64),
}

/// The ALU operation of a pre-decoded memory-operand instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastAlu {
    Add,
    Sub,
    And,
    Or,
    Xor,
}

/// The condition of a pre-decoded conditional branch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastCc {
    Z,
    Nz,
    C,
    Nc,
}

/// Pre-decoded semantics for the dominant 64-bit ALU and memory shapes.
/// Decode resolves the operand pattern once so the fused block handler
/// executes these without re-matching mnemonic and operands on
/// every dynamic instruction ([`crate::exec::execute_fast`] for
/// register-only ops; the memory shapes run through the engine's fused
/// bus path); anything not covered falls back to the generic interpreter
/// via [`FastOp::None`].
/// Register-only fast ops never touch the bus, so they cannot fault; the
/// memory shapes fault exactly where [`crate::exec::execute`] would (the
/// data access).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FastOp {
    /// Not pre-decoded: execute through [`crate::exec::execute`].
    None,
    /// `mov r64, r64/imm` (no flags).
    Mov { dst: Gpr, src: FastSrc },
    /// `add r64, r64/imm`.
    Add { dst: Gpr, src: FastSrc },
    /// `sub r64, r64/imm`.
    Sub { dst: Gpr, src: FastSrc },
    /// `and r64, r64/imm`.
    And { dst: Gpr, src: FastSrc },
    /// `or r64, r64/imm`.
    Or { dst: Gpr, src: FastSrc },
    /// `xor r64, r64/imm`.
    Xor { dst: Gpr, src: FastSrc },
    /// Two-operand `imul r64, r64/imm`.
    Imul { dst: Gpr, src: FastSrc },
    /// `inc r64` (preserves CF).
    Inc { dst: Gpr },
    /// `dec r64` (preserves CF).
    Dec { dst: Gpr },
    /// `lea r64, [mem]` (address computation, no flags).
    Lea { dst: Gpr, mem: MemRef },
    /// `mov r64, [mem64]` (no flags). The address comes from the entry's
    /// read slice, which the engine's fused load path walks.
    LoadQ { dst: Gpr },
    /// `op r64, [mem64]` — ALU with a memory source.
    LoadAlu { op: FastAlu, dst: Gpr },
    /// `mov [mem64], r64/imm` (no flags). The address comes from the
    /// entry's write slice.
    StoreQ { src: FastSrc },
    /// `op [mem64], r64/imm` — read-modify-write ALU. Keeps its own
    /// [`MemRef`] for the write-back after the fused covering load.
    RmwAlu {
        op: FastAlu,
        mem: MemRef,
        src: FastSrc,
    },
    /// `jcc label` with a resolved instruction-index target — the
    /// loop-close shape. The block handler fuses this behind a trailing
    /// superblock so a benchmark loop iteration costs a single dispatch.
    CondJump { target: u32, cc: FastCc },
}

/// Pre-decodes `inst` into a [`FastOp`] if its shape is covered. Only
/// meaningful for entries classified [`handler::ALU_BLOCK`] (register-only,
/// non-vector, unprivileged); the width gate keeps partial-register merge
/// semantics on the generic path.
fn fast_op(inst: &Instruction) -> FastOp {
    use Mnemonic::*;
    let dst = match inst.dst() {
        Some(Operand::Gpr(g)) if g.width == Width::Q => g.reg,
        _ => return FastOp::None,
    };
    if matches!(inst.mnemonic, Inc | Dec) && inst.operands.len() == 1 {
        return match inst.mnemonic {
            Inc => FastOp::Inc { dst },
            _ => FastOp::Dec { dst },
        };
    }
    if inst.operands.len() != 2 {
        return FastOp::None;
    }
    if inst.mnemonic == Lea {
        return match inst.src() {
            Some(Operand::Mem(m)) => FastOp::Lea { dst, mem: *m },
            _ => FastOp::None,
        };
    }
    let src = match inst.src() {
        Some(Operand::Gpr(g)) if g.width == Width::Q => FastSrc::Reg(g.reg),
        Some(Operand::Imm(v)) => FastSrc::Imm(*v as u64),
        _ => return FastOp::None,
    };
    match inst.mnemonic {
        Mov => FastOp::Mov { dst, src },
        Add => FastOp::Add { dst, src },
        Sub => FastOp::Sub { dst, src },
        And => FastOp::And { dst, src },
        Or => FastOp::Or { dst, src },
        Xor => FastOp::Xor { dst, src },
        Imul => FastOp::Imul { dst, src },
        _ => FastOp::None,
    }
}

/// Pre-decodes the dominant 64-bit memory shapes (`mov`/ALU with one
/// qword memory operand) for entries classified LOAD / STORE / RMW. The
/// width gates keep partial-width loads, stores, and merges on the
/// generic path.
fn fast_mem_op(inst: &Instruction) -> FastOp {
    use Mnemonic::*;
    if inst.operands.len() != 2 {
        return FastOp::None;
    }
    let alu = |m: Mnemonic| match m {
        Add => Some(FastAlu::Add),
        Sub => Some(FastAlu::Sub),
        And => Some(FastAlu::And),
        Or => Some(FastAlu::Or),
        Xor => Some(FastAlu::Xor),
        _ => None,
    };
    match (inst.dst(), inst.src()) {
        // Loads: r64 <- [mem64].
        (Some(Operand::Gpr(g)), Some(Operand::Mem(m)))
            if g.width == Width::Q && m.width == Width::Q =>
        {
            let dst = g.reg;
            if inst.mnemonic == Mov {
                FastOp::LoadQ { dst }
            } else if let Some(op) = alu(inst.mnemonic) {
                FastOp::LoadAlu { op, dst }
            } else {
                FastOp::None
            }
        }
        // Stores and RMW: [mem64] <- r64/imm.
        (Some(Operand::Mem(m)), Some(src_op)) if m.width == Width::Q => {
            let src = match src_op {
                Operand::Gpr(g) if g.width == Width::Q => FastSrc::Reg(g.reg),
                Operand::Imm(v) => FastSrc::Imm(*v as u64),
                _ => return FastOp::None,
            };
            if inst.mnemonic == Mov {
                FastOp::StoreQ { src }
            } else if let Some(op) = alu(inst.mnemonic) {
                FastOp::RmwAlu { op, mem: *m, src }
            } else {
                FastOp::None
            }
        }
        _ => FastOp::None,
    }
}

/// Pre-decodes a conditional branch whose target is a resolved label and
/// whose decoded entry writes nothing (no GPR outputs, no flags) — the
/// statics the engine's fused loop-close path assumes. Anything else
/// stays on the generic `step_branch` path.
fn fast_branch_op(inst: &Instruction, hot: &HotEntry, body: &PlanBody) -> FastOp {
    use Mnemonic::*;
    let cc = match inst.mnemonic {
        Jz => FastCc::Z,
        Jnz => FastCc::Nz,
        Jc => FastCc::C,
        Jnc => FastCc::Nc,
        _ => return FastOp::None,
    };
    match inst.dst() {
        Some(Operand::Label(t))
            if u32::try_from(*t).is_ok()
                && hot.out_regs.slice(&body.regs).is_empty()
                && !hot.has(meta::FLAGS_WRITTEN)
                && hot.has(meta::RETIRES) =>
        {
            FastOp::CondJump {
                target: *t as u32,
                cc,
            }
        }
        _ => FastOp::None,
    }
}

/// Demotes a pre-decoded quadword load/store shape back to the generic
/// path unless the decoded entry matches the statics the engine's
/// specialized entries assume: no compute µops, exactly one memory
/// operand, and exactly the register/flag outputs the shape implies. No
/// shipping descriptor table violates these for `mov`, but a custom table
/// may — the demotion keeps the specialized entries trivially correct.
fn certify_fast_mem(fast: FastOp, hot: &HotEntry, body: &PlanBody) -> FastOp {
    let ok = match fast {
        FastOp::LoadQ { dst } => {
            hot.uops.is_empty()
                && hot.reads.slice(&body.reads).len() == 1
                && hot.out_regs.slice(&body.regs) == [dst.number()]
                && !hot.has(meta::FLAGS_WRITTEN)
        }
        FastOp::StoreQ { .. } => {
            let writes = hot.writes.slice(&body.writes);
            hot.uops.is_empty()
                && writes.len() == 1
                && !writes[0].covered_by_read
                && hot.out_regs.is_empty()
                && !hot.has(meta::FLAGS_WRITTEN)
        }
        _ => return fast,
    };
    if ok {
        fast
    } else {
        FastOp::None
    }
}

/// The flat, index-addressed decode of a program: parallel hot/cold entry
/// arrays plus the shared arenas their spans point into.
#[derive(Debug, Clone)]
pub(crate) struct PlanBody {
    pub hot: Vec<HotEntry>,
    pub cold: Vec<ColdEntry>,
    /// Pre-decoded semantics, parallel to `hot`; consulted by the fused
    /// block handler (ALU, load, store, RMW entries) only.
    pub fast: Vec<FastOp>,
    pub uops: Vec<ResolvedUop>,
    /// Shared arena for `in_regs` / `in_vregs` / `out_regs`.
    pub regs: Vec<u8>,
    pub reads: Vec<MemRef>,
    pub writes: Vec<PlannedStore>,
}

/// Whether the engine handles the mnemonic in a special-cased handler
/// rather than the generic dataflow path.
fn is_special(m: Mnemonic) -> bool {
    use Mnemonic::*;
    matches!(
        m,
        Nop | Lfence
            | Mfence
            | Sfence
            | Cpuid
            | Rdtsc
            | Rdtscp
            | Rdpmc
            | Rdmsr
            | Wrmsr
            | Wbinvd
            | Invd
            | Clflush
            | Clflushopt
            | Prefetcht0
            | Prefetcht1
            | Prefetcht2
            | Prefetchnta
            | Cli
            | Sti
            | Hlt
            | Swapgs
            | MovCr3
            | Invlpg
            | Rdrand
            | Rdseed
            | NbPause
            | NbResume
            | Push
            | Pop
    )
}

/// Dispatch-table index for a special mnemonic. Must cover exactly the
/// mnemonics [`is_special`] accepts.
fn special_handler(m: Mnemonic) -> u8 {
    use Mnemonic::*;
    match m {
        Nop => handler::NOP,
        Lfence => handler::LFENCE,
        Mfence | Sfence => handler::FENCE,
        Cpuid => handler::CPUID,
        Rdtsc | Rdtscp => handler::RDTSC,
        Rdpmc => handler::RDPMC,
        Rdmsr => handler::RDMSR,
        Wrmsr => handler::WRMSR,
        Wbinvd | Invd => handler::WBINVD,
        Clflush | Clflushopt => handler::CLFLUSH,
        Prefetcht0 | Prefetcht1 | Prefetcht2 | Prefetchnta => handler::PREFETCH,
        Cli => handler::CLI,
        Sti => handler::STI,
        Hlt | Swapgs | MovCr3 | Invlpg => handler::SERIALIZE,
        Rdrand | Rdseed => handler::RDRAND,
        NbPause => handler::NB_PAUSE,
        NbResume => handler::NB_RESUME,
        Push => handler::PUSH,
        Pop => handler::POP,
        other => unreachable!("mnemonic {other} is not an engine special"),
    }
}

// Flag and memory read/write classification lives in
// [`nanobench_x86::defuse`] (shared with the semantic interpreter and the
// static analyzer); the plan only needs the boolean projections.

fn flags_read(m: Mnemonic) -> bool {
    !defuse::flags_read(m).is_empty()
}

fn flags_written(m: Mnemonic) -> bool {
    !defuse::flags_written(m).is_empty()
}

/// The compute µops of a form the descriptor table does not describe: one
/// ALU µop.
const ALU_DEFAULT: &[UopSpec] = &[UopSpec {
    class: PortClass::Alu,
    latency: 1,
    recip: 1,
}];

impl PlanBody {
    /// Analyzes every instruction of `program` against the descriptor
    /// table (whose [`crate::port::PortConfig`] resolves port classes).
    pub(crate) fn build(program: &[Instruction], table: &DescriptorTable) -> PlanBody {
        let ports = table.ports();
        let mut body = PlanBody {
            hot: Vec::with_capacity(program.len()),
            cold: Vec::with_capacity(program.len()),
            fast: Vec::with_capacity(program.len()),
            uops: Vec::new(),
            regs: Vec::new(),
            reads: Vec::new(),
            writes: Vec::new(),
        };
        // Def/use scratch, reused across instructions.
        let mut gprs_buf: Vec<GprPart> = Vec::new();
        let mut vregs_buf: Vec<VecReg> = Vec::new();
        let mut reads_buf: Vec<MemRef> = Vec::new();
        for inst in program {
            let m = inst.mnemonic;
            let special = is_special(m);
            let mut mbits = 0u8;
            if flags_read(m) {
                mbits |= meta::FLAGS_READ;
            }
            if flags_written(m) {
                mbits |= meta::FLAGS_WRITTEN;
            }
            if matches!(
                m,
                Mnemonic::Jz | Mnemonic::Jnz | Mnemonic::Jc | Mnemonic::Jnc
            ) {
                mbits |= meta::CONDITIONAL;
            }
            if !matches!(m, Mnemonic::NbPause | Mnemonic::NbResume) {
                mbits |= meta::RETIRES;
            }
            if m.is_branch() {
                mbits |= meta::IS_BRANCH;
            }
            if m.is_avx() {
                mbits |= meta::IS_AVX;
            }
            if m.is_privileged() {
                mbits |= meta::PRIVILEGED;
            }

            let mut hot = HotEntry {
                handler: handler::GENERIC,
                fuse_len: 1,
                meta: mbits,
                uops: Span::default(),
                in_regs: Span::default(),
                out_regs: Span::default(),
                reads: Span::default(),
                writes: Span::default(),
            };
            let mut cold = ColdEntry {
                in_vregs: Span::default(),
                out_vreg: None,
            };

            if special {
                hot.handler = special_handler(m);
                // RDRAND/RDSEED are the only specials whose handler
                // consults the descriptor table; resolve theirs here too.
                if matches!(m, Mnemonic::Rdrand | Mnemonic::Rdseed) {
                    let desc = table.lookup(inst).expect("rdrand has a descriptor");
                    hot.uops = Span::push(
                        &mut body.uops,
                        desc.uops.iter().map(|u| ResolvedUop {
                            ports: u.class.resolve(ports),
                            latency: u.latency,
                            recip: u.recip,
                        }),
                    );
                }
                body.hot.push(hot);
                body.cold.push(cold);
                body.fast.push(FastOp::None);
                continue;
            }

            // Compute µops: table entry, or a single-ALU-µop default for
            // mnemonics the table does not describe.
            let uops = table.lookup(inst).map_or(ALU_DEFAULT, |d| &d.uops);
            hot.uops = Span::push(
                &mut body.uops,
                uops.iter().map(|u| ResolvedUop {
                    ports: u.class.resolve(ports),
                    latency: u.latency,
                    recip: u.recip,
                }),
            );

            // Register dependencies (input order is irrelevant: readiness
            // is a max over the set).
            defuse::input_gprs(inst, &mut gprs_buf);
            hot.in_regs = Span::push(&mut body.regs, gprs_buf.iter().map(|g| g.reg.number()));
            defuse::vec_reads(inst, &mut vregs_buf);
            cold.in_vregs = Span::push(&mut body.regs, vregs_buf.iter().map(|v| v.index));
            defuse::output_gprs(inst, &mut gprs_buf);
            hot.out_regs = Span::push(&mut body.regs, gprs_buf.iter().map(|g| g.reg.number()));
            if let Some(Operand::Vec(v)) = inst.dst() {
                cold.out_vreg = Some(v.index);
            }

            // Memory operands.
            defuse::mem_reads(inst, &mut reads_buf);
            hot.reads = Span::push(&mut body.reads, reads_buf.iter().copied());
            let mut covered = false;
            if let Some(mem) = defuse::mem_writes(inst) {
                covered = reads_buf.contains(&mem);
                hot.writes = Span::push(
                    &mut body.writes,
                    std::iter::once(PlannedStore {
                        mem,
                        covered_by_read: covered,
                    }),
                );
            }

            // Fast-handler selection. Anything touching vector registers,
            // AVX warm-up, or privilege stays on the generic path, as does
            // any operand shape the fast handlers do not model.
            let needs_generic = mbits & (meta::IS_AVX | meta::PRIVILEGED) != 0
                || !cold.in_vregs.is_empty()
                || cold.out_vreg.is_some();
            hot.handler = if needs_generic {
                handler::GENERIC
            } else if mbits & meta::IS_BRANCH != 0 {
                if hot.reads.is_empty() && hot.writes.is_empty() {
                    if mbits & meta::CONDITIONAL != 0 {
                        handler::COND_BRANCH
                    } else {
                        handler::JUMP
                    }
                } else {
                    handler::GENERIC
                }
            } else if !hot.writes.is_empty() {
                if covered {
                    handler::RMW
                } else if hot.reads.is_empty() {
                    handler::STORE
                } else {
                    handler::GENERIC
                }
            } else if !hot.reads.is_empty() {
                handler::LOAD
            } else {
                handler::ALU_BLOCK
            };

            let fast = match hot.handler {
                handler::ALU_BLOCK => fast_op(inst),
                handler::LOAD | handler::STORE | handler::RMW => {
                    certify_fast_mem(fast_mem_op(inst), &hot, &body)
                }
                handler::COND_BRANCH => fast_branch_op(inst, &hot, &body),
                _ => FastOp::None,
            };
            body.hot.push(hot);
            body.cold.push(cold);
            body.fast.push(fast);
        }

        // Superblock fusion: fuse_len[i] is the (capped) length of the run
        // of consecutive fusable entries (ALU, load, store, RMW — the
        // straight-line shapes whose control flow is always sequential)
        // starting at i. Computed as a suffix pass so a branch into the
        // middle of a block lands on a correct, shorter block.
        for i in (0..body.hot.len()).rev() {
            if !handler::is_fusable(body.hot[i].handler) {
                continue;
            }
            let next = body
                .hot
                .get(i + 1)
                .filter(|n| handler::is_fusable(n.handler))
                .map_or(0, |n| n.fuse_len);
            body.hot[i].fuse_len = next.saturating_add(1).min(FUSE_CAP);
        }

        // Debug builds certify every invariant the interpreter assumes
        // right where the plan is born; release builds stay lean (the
        // checked-interpreter debug asserts re-check the per-step facts).
        #[cfg(debug_assertions)]
        {
            let violations = verify_body(&body, program);
            debug_assert!(
                violations.is_empty(),
                "plan verifier found violations: {violations:?}"
            );
        }

        body
    }
}

/// A program decoded once into an execution plan, ready to be replayed by
/// [`crate::engine::Engine::run_plan`] any number of times.
///
/// Owns a copy of the instruction sequence (semantic execution still
/// interprets operands) next to the flat timing metadata. Decode via
/// [`crate::engine::Engine::decode`].
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    insts: Vec<Instruction>,
    body: PlanBody,
    uarch: MicroArch,
}

impl DecodedProgram {
    pub(crate) fn new(program: &[Instruction], table: &DescriptorTable) -> DecodedProgram {
        DecodedProgram {
            insts: program.to_vec(),
            body: PlanBody::build(program, table),
            uarch: table.uarch(),
        }
    }

    /// The instruction sequence the plan was decoded from (cache layers
    /// use this to verify key collisions).
    pub fn instructions(&self) -> &[Instruction] {
        &self.insts
    }

    /// The microarchitecture the plan's port sets were resolved for.
    pub fn uarch(&self) -> MicroArch {
        self.uarch
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.insts.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty()
    }

    pub(crate) fn body(&self) -> &PlanBody {
        &self.body
    }
}

/// The invariant class a [`PlanViolation`] reports against. One variant
/// per assumption the dispatch-table interpreter makes about a decoded
/// plan (DESIGN.md §3g lists them with the rationale).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlanRule {
    /// Every entry's handler index addresses the dispatch table
    /// (`handler < COUNT` for any `Bus` instantiation).
    HandlerRange,
    /// Every span lies within its arena (`start + len <= arena.len()`).
    SpanBounds,
    /// Spans into one arena never overlap: each entry owns its slice.
    SpanOverlap,
    /// Every resolved µop has at least one dispatch port.
    EmptyPortSet,
    /// Superblock fusion legality: blocks only cover consecutive fusable
    /// entries (ALU/load/store/RMW), never a branch, fault source,
    /// privileged, or vector entry mid-block, and never exceed the cap.
    FusionLegality,
    /// PMU-batch flush coverage: every counter observation site (RDPMC,
    /// RDMSR, WRMSR, pause/resume markers) is its own dispatch boundary,
    /// where the interpreter flushes the deferred batch.
    FlushPoint,
    /// Plan metadata agrees with the instruction it was decoded from
    /// (e.g. the precomputed privilege bit).
    MetaConsistency,
}

impl std::fmt::Display for PlanRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PlanRule::HandlerRange => "handler-range",
            PlanRule::SpanBounds => "span-bounds",
            PlanRule::SpanOverlap => "span-overlap",
            PlanRule::EmptyPortSet => "empty-port-set",
            PlanRule::FusionLegality => "fusion-legality",
            PlanRule::FlushPoint => "flush-point",
            PlanRule::MetaConsistency => "meta-consistency",
        };
        f.write_str(s)
    }
}

/// One violated invariant of a decoded execution plan, anchored to the
/// static instruction index it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanViolation {
    /// Static instruction index the violation anchors to.
    pub index: usize,
    /// The invariant class.
    pub rule: PlanRule,
    /// Human-readable detail.
    pub detail: String,
}

impl std::fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] at {}: {}", self.rule, self.index, self.detail)
    }
}

/// Statically checks every invariant the dispatch-table interpreter
/// assumes about a decoded plan. Returns the full violation list (empty
/// for every plan `PlanBody::build` produces — the build hooks this under
/// `debug_assertions`, and the checked interpreter re-asserts the per-step
/// facts it relies on).
pub fn verify_plan(program: &DecodedProgram) -> Vec<PlanViolation> {
    verify_body(program.body(), program.instructions())
}

pub(crate) fn verify_body(body: &PlanBody, insts: &[Instruction]) -> Vec<PlanViolation> {
    let mut out = Vec::new();
    let n = insts.len();
    let mut push = |index: usize, rule: PlanRule, detail: String| {
        out.push(PlanViolation {
            index,
            rule,
            detail,
        });
    };
    if body.hot.len() != n || body.cold.len() != n || body.fast.len() != n {
        push(
            0,
            PlanRule::SpanBounds,
            format!(
                "entry arenas have {}/{}/{} entries for {n} instructions",
                body.hot.len(),
                body.cold.len(),
                body.fast.len()
            ),
        );
        return out;
    }

    let span_ok = |s: Span, arena_len: usize| (s.start as usize + s.len as usize) <= arena_len;
    // (arena id, start, len, entry index) for the overlap check.
    let mut spans: Vec<(u8, u32, u32, usize)> = Vec::new();

    for (i, (hot, cold)) in body.hot.iter().zip(&body.cold).enumerate() {
        if (hot.handler as usize) >= handler::COUNT {
            push(
                i,
                PlanRule::HandlerRange,
                format!(
                    "handler index {} out of range (table has {} entries)",
                    hot.handler,
                    handler::COUNT
                ),
            );
        }
        for (name, span, arena_len, arena_id) in [
            ("uops", hot.uops, body.uops.len(), 0u8),
            ("in_regs", hot.in_regs, body.regs.len(), 1),
            ("out_regs", hot.out_regs, body.regs.len(), 1),
            ("in_vregs", cold.in_vregs, body.regs.len(), 1),
            ("reads", hot.reads, body.reads.len(), 2),
            ("writes", hot.writes, body.writes.len(), 3),
        ] {
            if !span_ok(span, arena_len) {
                push(
                    i,
                    PlanRule::SpanBounds,
                    format!(
                        "{name} span [{}, {}) exceeds arena of {arena_len}",
                        span.start,
                        span.start + span.len
                    ),
                );
            } else if span.len > 0 {
                spans.push((arena_id, span.start, span.len, i));
            }
        }
        if span_ok(hot.uops, body.uops.len()) {
            for (k, uop) in hot.uops.slice(&body.uops).iter().enumerate() {
                // Zero-port µops are legal only when declared free: the
                // interpreter completes them at their ready cycle without
                // dispatching (vzeroupper, pause padding). A µop with
                // latency or a reciprocal-throughput cost but nowhere to
                // execute is a descriptor-resolution bug.
                if uop.ports.is_empty() && (uop.latency > 0 || uop.recip > 1) {
                    push(
                        i,
                        PlanRule::EmptyPortSet,
                        format!(
                            "resolved µop {k} has latency {} / recip {} but an empty port set",
                            uop.latency, uop.recip
                        ),
                    );
                }
            }
        }
        if hot.has(meta::PRIVILEGED) != insts[i].mnemonic.is_privileged() {
            push(
                i,
                PlanRule::MetaConsistency,
                format!(
                    "privilege bit {} disagrees with mnemonic {}",
                    hot.has(meta::PRIVILEGED),
                    insts[i].mnemonic.name()
                ),
            );
        }

        // Fusion legality.
        if hot.fuse_len == 0 {
            push(i, PlanRule::FusionLegality, "fuse_len of 0".to_string());
        }
        if !handler::is_fusable(hot.handler) {
            if hot.fuse_len > 1 {
                push(
                    i,
                    PlanRule::FusionLegality,
                    format!(
                        "non-fusable handler {} carries fuse_len {}",
                        hot.handler, hot.fuse_len
                    ),
                );
            }
        } else {
            if hot.fuse_len > FUSE_CAP {
                push(
                    i,
                    PlanRule::FusionLegality,
                    format!("fuse_len {} exceeds cap {FUSE_CAP}", hot.fuse_len),
                );
            }
            let end = i + hot.fuse_len as usize;
            if end > n {
                push(
                    i,
                    PlanRule::FusionLegality,
                    format!("superblock [{i}, {end}) runs past the program end {n}"),
                );
            } else {
                for j in i..end {
                    let member = &body.hot[j];
                    if !handler::is_fusable(member.handler) {
                        push(
                            i,
                            PlanRule::FusionLegality,
                            format!(
                                "non-fusable handler {} fused at offset {}",
                                member.handler,
                                j - i
                            ),
                        );
                    }
                    if member.has(meta::IS_BRANCH)
                        || member.has(meta::PRIVILEGED)
                        || member.has(meta::IS_AVX)
                    {
                        push(
                            i,
                            PlanRule::FusionLegality,
                            format!(
                                "branch/privileged/AVX entry {} inside superblock [{i}, {end})",
                                j
                            ),
                        );
                    }
                    if !body.cold[j].in_vregs.is_empty() || body.cold[j].out_vreg.is_some() {
                        push(
                            i,
                            PlanRule::FusionLegality,
                            format!("vector-dependent entry {j} inside superblock [{i}, {end})"),
                        );
                    }
                }
            }
        }

        // Flush-point coverage: batch observation sites are their own
        // dispatch boundaries.
        let observes_counters = matches!(
            hot.handler,
            handler::RDPMC
                | handler::RDMSR
                | handler::WRMSR
                | handler::NB_PAUSE
                | handler::NB_RESUME
        );
        if observes_counters {
            if handler::is_fusable(hot.handler) || hot.fuse_len != 1 {
                push(
                    i,
                    PlanRule::FlushPoint,
                    "counter observation site is not a lone dispatch".to_string(),
                );
            }
            for j in 0..i {
                let prior = &body.hot[j];
                if handler::is_fusable(prior.handler) && j + prior.fuse_len as usize > i {
                    push(
                        i,
                        PlanRule::FlushPoint,
                        format!(
                            "superblock at {j} (len {}) spans the observation site",
                            prior.fuse_len
                        ),
                    );
                }
            }
        }
    }

    // Overlap: within one arena, every nonempty span owns its slice.
    spans.sort_unstable();
    for w in spans.windows(2) {
        let (a_arena, a_start, a_len, a_idx) = w[0];
        let (b_arena, b_start, _, b_idx) = w[1];
        if a_arena == b_arena && a_start + a_len > b_start {
            push(
                b_idx.max(a_idx),
                PlanRule::SpanOverlap,
                format!(
                    "spans [{a_start}, {}) (entry {a_idx}) and starting {b_start} (entry {b_idx}) overlap",
                    a_start + a_len
                ),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_x86::asm::parse_asm;

    fn plan(text: &str) -> DecodedProgram {
        let table = DescriptorTable::for_uarch(MicroArch::Skylake);
        DecodedProgram::new(&parse_asm(text).unwrap(), &table)
    }

    #[test]
    fn generic_entry_precomputes_everything() {
        let p = plan("add [r14+8], rax");
        let e = &p.body().hot[0];
        assert_eq!(e.handler, handler::RMW);
        assert!(e.has(meta::FLAGS_WRITTEN) && !e.has(meta::FLAGS_READ));
        // RMW: one read, one write covered by the read.
        assert_eq!(e.reads.slice(&p.body().reads).len(), 1);
        let stores = e.writes.slice(&p.body().writes);
        assert_eq!(stores.len(), 1);
        assert!(stores[0].covered_by_read);
        // One ALU µop resolved to Skylake's four ALU ports.
        let uops = e.uops.slice(&p.body().uops);
        assert_eq!(uops.len(), 1);
        assert_eq!(uops[0].ports.len(), 4);
        // Inputs: rax and the address register r14.
        let ins = e.in_regs.slice(&p.body().regs);
        assert_eq!(ins.len(), 2);
    }

    #[test]
    fn pure_store_is_not_covered_by_read() {
        let p = plan("mov [r14], rax");
        let e = &p.body().hot[0];
        assert_eq!(e.handler, handler::STORE);
        assert_eq!(e.reads.slice(&p.body().reads).len(), 0);
        let stores = e.writes.slice(&p.body().writes);
        assert_eq!(stores.len(), 1);
        assert!(!stores[0].covered_by_read);
        // Pure move with memory operand: no compute µops.
        assert_eq!(e.uops.slice(&p.body().uops).len(), 0);
    }

    #[test]
    fn specials_are_classified_and_rdrand_resolved() {
        let p = plan("lfence; rdpmc; push rax; rdrand rbx");
        let body = p.body();
        for e in &body.hot {
            assert!(handler::is_special(e.handler), "handler {}", e.handler);
        }
        assert_eq!(body.hot[0].handler, handler::LFENCE);
        assert_eq!(body.hot[1].handler, handler::RDPMC);
        assert_eq!(body.hot[2].handler, handler::PUSH);
        // RDRAND carries its resolved descriptor µop.
        let rdrand = &body.hot[3];
        assert_eq!(rdrand.handler, handler::RDRAND);
        let uops = rdrand.uops.slice(&body.uops);
        assert_eq!(uops.len(), 1);
        assert_eq!(uops[0].recip, 300);
    }

    #[test]
    fn branch_entries_distinguish_conditional() {
        let p = plan("jmp 0; jnz 0");
        let body = p.body();
        assert_eq!(body.hot[0].handler, handler::JUMP);
        assert!(body.hot[0].has(meta::IS_BRANCH) && !body.hot[0].has(meta::CONDITIONAL));
        assert_eq!(body.hot[1].handler, handler::COND_BRANCH);
        assert!(body.hot[1].has(meta::IS_BRANCH) && body.hot[1].has(meta::CONDITIONAL));
    }

    #[test]
    fn fast_handlers_cover_the_dominant_shapes() {
        let p = plan("add rax, 1; mov [r14], rax; mov rbx, [r14]; add [r14+64], rbx");
        let h: Vec<u8> = p.body().hot.iter().map(|e| e.handler).collect();
        assert_eq!(
            h,
            vec![
                handler::ALU_BLOCK,
                handler::STORE,
                handler::LOAD,
                handler::RMW
            ]
        );
    }

    #[test]
    fn avx_and_vector_shapes_stay_generic() {
        let p = plan("addps xmm0, xmm1; vaddps ymm0, ymm1, ymm2");
        for e in &p.body().hot {
            assert_eq!(e.handler, handler::GENERIC);
        }
    }

    #[test]
    fn alu_runs_fuse_with_suffix_lengths() {
        // Memory shapes fuse too: four ALU entries then a store form one
        // straight-line run, so the suffix lengths count all five. The
        // trailing branch stays unfused and breaks the run.
        let p = plan(
            "add rax, 1; xor rcx, rcx; lea rdx, [rcx+rax]; sub r9, rdx; mov [r14], rax; jnz l; l:",
        );
        let lens: Vec<u8> = p.body().hot.iter().map(|e| e.fuse_len).collect();
        assert_eq!(lens[..5], [5, 4, 3, 2, 1]);
        assert_eq!(p.body().hot[5].fuse_len, 1, "branches never fuse");
    }

    #[test]
    fn fusion_respects_the_cap() {
        let long = "add rax, 1; ".repeat(40);
        let p = plan(&long);
        assert_eq!(p.body().hot[0].fuse_len, FUSE_CAP);
        assert_eq!(p.body().hot[39].fuse_len, 1);
        // Every suffix length is consistent: len[i] <= len[i+1] + 1.
        for i in 0..39 {
            assert!(p.body().hot[i].fuse_len <= p.body().hot[i + 1].fuse_len + 1);
        }
    }

    #[test]
    fn verifier_accepts_representative_programs() {
        for src in [
            "add rax, 1; mov [r14], rax; mov rbx, [r14]; add [r14+64], rbx",
            "lfence; rdpmc; push rax; rdrand rbx; pop rax",
            "addps xmm0, xmm1; vaddps ymm0, ymm1, ymm2; vzeroupper",
            "cmp rax, rbx; jnz l; cpuid; l: wbinvd; pause",
            "nop; rdtsc; rdmsr; wrmsr; clflush [r14]",
        ] {
            let v = verify_plan(&plan(src));
            assert!(v.is_empty(), "{src}: {v:?}");
        }
    }

    #[test]
    fn verifier_rejects_mid_block_branch_fusion() {
        // Corrupt a built plan so a superblock spans the branch: both the
        // non-fusable handler and the IS_BRANCH bit must be caught.
        let mut p = plan("add rax, 1; add rbx, 1; jnz l; l: nop");
        assert_eq!(p.body.hot[0].fuse_len, 2);
        p.body.hot[0].fuse_len = 3;
        let v = verify_plan(&p);
        assert!(
            v.iter()
                .any(|v| v.rule == PlanRule::FusionLegality && v.index == 0),
            "{v:?}"
        );
    }

    #[test]
    fn verifier_rejects_handler_out_of_range() {
        let mut p = plan("nop");
        p.body.hot[0].handler = handler::COUNT as u8;
        let v = verify_plan(&p);
        assert!(
            v.iter()
                .any(|v| v.rule == PlanRule::HandlerRange && v.index == 0),
            "{v:?}"
        );
    }

    #[test]
    fn verifier_rejects_out_of_bounds_span() {
        let mut p = plan("add rax, rbx");
        p.body.hot[0].in_regs = Span {
            start: 1000,
            len: 4,
        };
        let v = verify_plan(&p);
        assert!(v.iter().any(|v| v.rule == PlanRule::SpanBounds), "{v:?}");
    }

    #[test]
    fn verifier_rejects_overlapping_spans() {
        // Two entries claiming the same regs-arena slice: the plan writer
        // must give every nonempty span its own storage.
        let mut p = plan("add rax, rbx; add rcx, rdx");
        p.body.hot[1].in_regs = p.body.hot[0].in_regs;
        let v = verify_plan(&p);
        assert!(v.iter().any(|v| v.rule == PlanRule::SpanOverlap), "{v:?}");
    }

    #[test]
    fn verifier_rejects_corrupted_privilege_bit() {
        let mut p = plan("wbinvd");
        p.body.hot[0].meta &= !meta::PRIVILEGED;
        let v = verify_plan(&p);
        assert!(
            v.iter().any(|v| v.rule == PlanRule::MetaConsistency),
            "{v:?}"
        );
    }

    #[test]
    fn verifier_rejects_superblock_spanning_a_flush_point() {
        // A fused block running over an RDPMC would observe counters with
        // an unflushed PMU batch.
        let mut p = plan("add rax, 1; rdpmc");
        p.body.hot[0].fuse_len = 2;
        let v = verify_plan(&p);
        assert!(
            v.iter()
                .any(|v| v.rule == PlanRule::FlushPoint && v.index == 1),
            "{v:?}"
        );
    }

    #[test]
    fn verifier_rejects_costly_uop_with_no_ports() {
        let mut p = plan("add rax, rbx");
        let span = p.body.hot[0].uops;
        p.body.uops[span.start as usize].ports = PortSet::NONE;
        let v = verify_plan(&p);
        assert!(v.iter().any(|v| v.rule == PlanRule::EmptyPortSet), "{v:?}");
    }

    #[test]
    fn plans_are_uarch_specific() {
        let skl = plan("addps xmm0, xmm1");
        let table = DescriptorTable::for_uarch(MicroArch::Nehalem);
        let nhm = DecodedProgram::new(&parse_asm("addps xmm0, xmm1").unwrap(), &table);
        let u_skl = skl.body().hot[0].uops.slice(&skl.body().uops)[0];
        let u_nhm = nhm.body().hot[0].uops.slice(&nhm.body().uops)[0];
        assert_eq!(u_skl.latency, 4);
        assert_eq!(u_nhm.latency, 3);
        assert_eq!(skl.uarch(), MicroArch::Skylake);
    }
}
