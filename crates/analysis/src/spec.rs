//! Layer 1: the def-use dataflow pass over a benchmark spec's decoded
//! instruction sequences.
//!
//! The lattice tracks, per program point: a defined-bytes mask for each of
//! the 16 GPRs (so sub-register aliasing is byte-exact — a `D`-width write
//! zero-extends and defines all eight bytes, a `W`/`B` write defines only
//! its low bytes), a defined bit per arithmetic flag, a defined bit per
//! vector register, and which registers still provably hold their dedicated
//! arena base (§III-G). The walk is straight-line per part (init, then
//! body): definitions merge along fall-through only, which over-approximates
//! definedness across skipped forward branches — fine for a linter whose
//! errors must be *provable*.
//!
//! The entry environment mirrors what the §III Algorithm-1 code generator
//! guarantees before user code runs: the arena registers point at their
//! 1 MB areas, `R8`–`R13` are zeroed in noMem mode, `R15` holds the loop
//! counter in looped mode, and `RAX`/`RCX`/`RDX` are always written by the
//! counter-read sequence before the measured body. Everything else holds
//! unspecified caller state on real hardware — reading it is what the
//! uninit lints flag.

use crate::diag::{Code, Diagnostic, Severity, Span};
use nanobench_x86::defuse;
use nanobench_x86::encode::encode_program;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Flag, Gpr, GprPart, VecReg, Width};
use std::collections::{HashMap, HashSet};

/// The environment a spec is analyzed against: execution mode, codegen
/// guarantees, and the mapped memory regions of the session (the paper's
/// §III-D/G/I knobs that change what is well-formed).
#[derive(Debug, Clone)]
pub struct AnalysisEnv {
    /// User-mode session: privileged instructions fault (§III-D) and
    /// unmapped accesses page-fault.
    pub user_mode: bool,
    /// noMem mode (§III-I): `R8`–`R13` are zeroed accumulators.
    pub no_mem: bool,
    /// Looped mode (§III-F): `R15` holds the loop counter during the body.
    pub looped: bool,
    /// Size of each dedicated register memory area (§III-G).
    pub arena_size: u64,
    /// Registers initialized to point at their dedicated areas. `RSP`
    /// points at the middle of its area; the others at the base.
    pub arena_regs: Vec<Gpr>,
    /// Mapped `[start, end)` virtual-address ranges for absolute-operand
    /// checks. Empty disables the absolute-address lint.
    pub regions: Vec<(u64, u64)>,
    /// Absolute base addresses of the arena registers' areas, parallel to
    /// [`AnalysisEnv::arena_regs`]. Used by the co-runner false-sharing
    /// lint to resolve the measured kernel's arena-relative operands to
    /// concrete cache lines; empty leaves them unresolved (only absolute
    /// operands are then comparable).
    pub arena_bases: Vec<u64>,
}

impl Default for AnalysisEnv {
    fn default() -> AnalysisEnv {
        AnalysisEnv {
            user_mode: false,
            no_mem: false,
            looped: true,
            arena_size: 1 << 20,
            arena_regs: vec![Gpr::Rsp, Gpr::Rbp, Gpr::Rdi, Gpr::Rsi, Gpr::R14],
            regions: Vec::new(),
            arena_bases: Vec::new(),
        }
    }
}

/// Which instruction sequence of the spec a diagnostic's span indexes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Init,
    Body,
}

impl Part {
    fn name(self) -> &'static str {
        match self {
            Part::Init => "init",
            Part::Body => "body",
        }
    }
}

/// A memory location the dead-store tracker can name precisely: an
/// absolute address, or a displacement off a register that still provably
/// holds its arena base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LocKey {
    Abs(u64),
    Arena(Gpr, i64),
}

/// Defined-bytes mask a read of `width` requires.
fn read_mask(width: Width) -> u8 {
    match width {
        Width::B => 0x01,
        Width::W => 0x03,
        Width::D => 0x0F,
        Width::Q => 0xFF,
    }
}

/// Defined-bytes mask a write of `width` produces: 32-bit writes
/// zero-extend and define the full register.
fn write_mask(width: Width) -> u8 {
    match width {
        Width::B => 0x01,
        Width::W => 0x03,
        Width::D | Width::Q => 0xFF,
    }
}

fn flag_bit(f: Flag) -> u8 {
    1 << Flag::ALL.iter().position(|&x| x == f).unwrap()
}

/// The dataflow lattice state at one program point.
#[derive(Debug, Clone)]
struct Flow {
    /// Defined-bytes mask per GPR (index = `Gpr::number()`).
    gpr: [u8; 16],
    /// Defined bit per flag (bit i = `Flag::ALL[i]`).
    flags: u8,
    /// Defined bit per vector register index.
    vec: u32,
    /// Whether the register still provably holds its arena base.
    arena: [bool; 16],
}

struct Analyzer<'a> {
    env: &'a AnalysisEnv,
    flow: Flow,
    diags: Vec<Diagnostic>,
    /// Live init stores: location -> (init index, instruction text).
    init_stores: HashMap<LocKey, (u32, String)>,
    /// Whether the store map is still trustworthy (cleared by branches and
    /// accesses through unknown addresses).
    stores_valid: bool,
    /// Dedup keys so each (code, subject) pair reports once per run.
    seen: HashSet<(Code, u64)>,
}

impl<'a> Analyzer<'a> {
    fn new(env: &'a AnalysisEnv) -> Analyzer<'a> {
        let mut flow = Flow {
            gpr: [0; 16],
            flags: 0,
            vec: 0,
            arena: [false; 16],
        };
        for &r in &env.arena_regs {
            flow.gpr[r.number() as usize] = 0xFF;
            flow.arena[r.number() as usize] = true;
        }
        // The generated prologue's counter-read sequence always writes
        // RAX/RCX/RDX (and restores them around the body in memory mode),
        // so the harness never hands the benchmark caller garbage there.
        for r in [Gpr::Rax, Gpr::Rcx, Gpr::Rdx] {
            flow.gpr[r.number() as usize] = 0xFF;
        }
        if env.no_mem {
            for r in [Gpr::R8, Gpr::R9, Gpr::R10, Gpr::R11, Gpr::R12, Gpr::R13] {
                flow.gpr[r.number() as usize] = 0xFF;
            }
        }
        Analyzer {
            env,
            flow,
            diags: Vec::new(),
            init_stores: HashMap::new(),
            stores_valid: true,
            seen: HashSet::new(),
        }
    }

    fn report(&mut self, sev: Severity, code: Code, span: Span, dedup: u64, message: String) {
        if self.seen.insert((code, dedup)) {
            self.diags.push(Diagnostic {
                severity: sev,
                code,
                span,
                message,
            });
        }
    }

    /// The location key of a memory operand, if it can be named precisely.
    fn loc_key(&self, mem: &MemRef) -> Option<LocKey> {
        if mem.index.is_some() {
            return None;
        }
        match mem.base {
            None => Some(LocKey::Abs(mem.disp as u64)),
            Some(b) if self.flow.arena[b.number() as usize] => Some(LocKey::Arena(b, mem.disp)),
            Some(_) => None,
        }
    }

    /// Range-checks one memory operand: absolute addresses against the
    /// mapped regions, arena-relative displacements against the 1 MB area.
    fn check_mem_range(&mut self, part: Part, i: u32, inst: &Instruction, mem: &MemRef) {
        let width = mem.width.bytes() as u64;
        if mem.base.is_none() && mem.index.is_none() {
            if self.env.regions.is_empty() {
                return;
            }
            let addr = mem.disp as u64;
            let mapped = self
                .env
                .regions
                .iter()
                .any(|&(lo, hi)| addr >= lo && addr.saturating_add(width) <= hi);
            if !mapped {
                let (sev, why) = if self.env.user_mode {
                    (Severity::Error, "page-faults in user mode")
                } else {
                    (
                        Severity::Warning,
                        "outside every dedicated region (the kernel identity map cannot fault, \
                         but the access leaves the benchmark's memory areas)",
                    )
                };
                self.report(
                    sev,
                    Code::MemRange,
                    Span::at(i),
                    addr,
                    format!(
                        "{}[{i}] `{inst}`: absolute address {addr:#x} is unmapped — {why}",
                        part.name()
                    ),
                );
            }
            return;
        }
        if let (Some(b), None) = (mem.base, mem.index) {
            if self.flow.arena[b.number() as usize] {
                // RSP points at the middle of its area (§III-G), the other
                // arena registers at the base.
                let bias = if b == Gpr::Rsp {
                    (self.env.arena_size / 2) as i64
                } else {
                    0
                };
                let off = mem.disp + bias;
                if off < 0 || (off as u64).saturating_add(width) > self.env.arena_size {
                    // Outside the dedicated area: in user mode the pages
                    // next to an arena are unmapped guard space, so the
                    // access provably faults; the kernel identity map
                    // cannot fault, but the benchmark is touching memory
                    // it does not own.
                    let (sev, why) = if self.env.user_mode {
                        (Severity::Error, "page-faults in user mode")
                    } else {
                        (Severity::Warning, "leaves the benchmark's memory areas")
                    };
                    self.report(
                        sev,
                        Code::MemRange,
                        Span::at(i),
                        mem.disp as u64 ^ ((b.number() as u64) << 56),
                        format!(
                            "{}[{i}] `{inst}`: displacement {} off {} lands outside the register's \
                             {} byte dedicated area — {why}",
                            part.name(),
                            mem.disp,
                            b.name(),
                            self.env.arena_size
                        ),
                    );
                }
            }
        }
    }

    /// Flags a memory operand whose address is provably known (absolute,
    /// or a displacement off a register still holding its line-aligned
    /// arena base) and provably straddles a 64-byte cache-line boundary.
    /// Split-line accesses cost extra cycles on every CPU in Table I, so a
    /// kernel that means to measure an aligned load/store latency would
    /// silently measure something else.
    fn check_line_straddle(&mut self, part: Part, i: u32, inst: &Instruction, mem: &MemRef) {
        let width = mem.width.bytes() as u64;
        if width <= 1 {
            return;
        }
        let (line_off, dedup) = if mem.base.is_none() && mem.index.is_none() {
            (mem.disp.rem_euclid(64) as u64, mem.disp as u64)
        } else if let (Some(b), None) = (mem.base, mem.index) {
            if !self.flow.arena[b.number() as usize] {
                return;
            }
            // Arena bases are line-aligned; RSP's mid-area bias keeps the
            // alignment because the area size is a multiple of 128.
            let bias = if b == Gpr::Rsp {
                (self.env.arena_size / 2) as i64
            } else {
                0
            };
            (
                (mem.disp + bias).rem_euclid(64) as u64,
                mem.disp as u64 ^ ((b.number() as u64) << 56),
            )
        } else {
            return;
        };
        if line_off + width > 64 {
            self.report(
                Severity::Warning,
                Code::LineStraddle,
                Span::at(i),
                dedup,
                format!(
                    "{}[{i}] `{inst}`: {width}-byte access at line offset {line_off} straddles \
                     a 64-byte cache-line boundary — split-line accesses take extra cycles and \
                     skew the measured latency/throughput",
                    part.name()
                ),
            );
        }
    }

    fn scan(&mut self, part: Part, insts: &[Instruction]) {
        let mut reads_buf: Vec<MemRef> = Vec::new();
        let mut gprs_buf: Vec<GprPart> = Vec::new();
        let mut vregs_buf: Vec<VecReg> = Vec::new();
        for (idx, inst) in insts.iter().enumerate() {
            let i = idx as u32;
            let m = inst.mnemonic;
            let span = Span::at(i);

            // Unsupported encoding: the asm path runs it, the §III-E byte
            // path cannot carry it. Branches are excluded (their labels
            // only encode in whole-program context).
            if !m.is_branch() && encode_program(std::slice::from_ref(inst)).is_err() {
                self.report(
                    Severity::Warning,
                    Code::Unencodable,
                    span,
                    m as u64,
                    format!(
                        "{}[{i}] `{inst}`: no machine-code encoding — the spec cannot round-trip \
                         through the binary code-input path (§III-E)",
                        part.name()
                    ),
                );
            }

            // Branch targets must stay inside the sequence (`len` itself
            // is fall-through past the end, which ends the program).
            for op in &inst.operands {
                if let Operand::Label(t) = op {
                    if *t > insts.len() {
                        self.report(
                            Severity::Error,
                            Code::BranchRange,
                            span,
                            *t as u64,
                            format!(
                                "{}[{i}] `{inst}`: branch target {t} is outside the \
                                 {}-instruction sequence",
                                part.name(),
                                insts.len()
                            ),
                        );
                    }
                }
            }

            // Privileged instructions fault outside ring 0 (§III-D).
            if self.env.user_mode && m.is_privileged() {
                self.report(
                    Severity::Error,
                    Code::Privileged,
                    span,
                    m as u64,
                    format!(
                        "{}[{i}] `{inst}`: privileged instruction faults in a user-mode session \
                         (kernel-nanoBench only, §III-D)",
                        part.name()
                    ),
                );
            }

            let zero_idiom = defuse::is_zero_idiom(inst);

            // -- reads ----------------------------------------------------
            // LEA and the prefetch family form an address without touching
            // memory (prefetches squash faults), so an undefined base cannot
            // fault — it is a data-flow warning, not an error.
            let dereferences = !matches!(
                m,
                Mnemonic::Lea
                    | Mnemonic::Prefetcht0
                    | Mnemonic::Prefetcht1
                    | Mnemonic::Prefetcht2
                    | Mnemonic::Prefetchnta
            );
            for r in defuse::addr_gprs(inst) {
                if self.flow.gpr[r.number() as usize] == 0 {
                    if dereferences {
                        self.report(
                            Severity::Error,
                            Code::UninitAddress,
                            span,
                            r.number() as u64,
                            format!(
                                "{}[{i}] `{inst}`: address register {} is used before anything \
                                 defines it",
                                part.name(),
                                r.name()
                            ),
                        );
                    } else {
                        self.report(
                            Severity::Warning,
                            Code::UninitRead,
                            span,
                            r.number() as u64,
                            format!(
                                "{}[{i}] `{inst}`: {} feeds an address computation before \
                                 anything defines it — the result is unspecified on real \
                                 hardware",
                                part.name(),
                                r.name()
                            ),
                        );
                    }
                }
            }
            if !zero_idiom {
                for g in defuse::data_gpr_reads(inst) {
                    let have = self.flow.gpr[g.reg.number() as usize];
                    let need = read_mask(g.width);
                    if have & need != need {
                        self.report(
                            Severity::Warning,
                            Code::UninitRead,
                            span,
                            g.reg.number() as u64,
                            format!(
                                "{}[{i}] `{inst}`: {} is read before anything defines it — the \
                                 measured value is unspecified on real hardware",
                                part.name(),
                                g.reg.name_at(g.width)
                            ),
                        );
                    }
                }
                defuse::vec_reads(inst, &mut vregs_buf);
                for v in &vregs_buf {
                    if self.flow.vec & (1 << u32::from(v.index)) == 0 {
                        self.report(
                            Severity::Warning,
                            Code::UninitVec,
                            span,
                            u64::from(v.index),
                            format!(
                                "{}[{i}] `{inst}`: vector register {v} is read before anything \
                                 defines it",
                                part.name()
                            ),
                        );
                    }
                }
            }
            for &f in defuse::flags_read(m) {
                if self.flow.flags & flag_bit(f) == 0 {
                    self.report(
                        Severity::Warning,
                        Code::UninitFlags,
                        span,
                        flag_bit(f) as u64,
                        format!(
                            "{}[{i}] `{inst}`: consumes {f:?} before any instruction writes it",
                            part.name()
                        ),
                    );
                }
            }

            // -- memory operands -----------------------------------------
            defuse::mem_reads(inst, &mut reads_buf);
            let write = defuse::mem_writes(inst);
            for mem in reads_buf.iter().chain(write.iter()) {
                self.check_mem_range(part, i, inst, mem);
                self.check_line_straddle(part, i, inst, mem);
            }
            // Dead-store bookkeeping (straight-line only: branches and
            // unknown-address accesses invalidate the tracked set).
            if m.is_branch() {
                self.init_stores.clear();
                self.stores_valid = false;
            } else if self.stores_valid {
                for mem in &reads_buf {
                    match self.loc_key(mem) {
                        Some(key) => {
                            self.init_stores.remove(&key);
                        }
                        None => self.init_stores.clear(),
                    }
                }
                if let Some(mem) = write {
                    match self.loc_key(&mem) {
                        Some(key) => {
                            if let Some((dead_i, dead_inst)) =
                                self.init_stores.insert(key, (i, inst.to_string()))
                            {
                                // Only warm-up (init) stores are reported:
                                // the measured body repeats, so its own
                                // final stores are not provably dead.
                                self.diags.push(Diagnostic::warning(
                                    Code::DeadStore,
                                    Span::at(dead_i),
                                    format!(
                                        "init[{dead_i}] `{dead_inst}`: store is overwritten by \
                                         {}[{i}] `{inst}` before any read sees it",
                                        part.name()
                                    ),
                                ));
                            }
                            if part == Part::Body {
                                // Body stores are overwriters only, never
                                // dead-store candidates themselves.
                                self.init_stores.remove(&key);
                            }
                        }
                        None => self.init_stores.clear(),
                    }
                }
            }

            // -- writes ---------------------------------------------------
            defuse::output_gprs(inst, &mut gprs_buf);
            for g in &gprs_buf {
                let n = g.reg.number() as usize;
                self.flow.gpr[n] |= write_mask(g.width);
                self.flow.arena[n] = false;
            }
            if zero_idiom {
                if let Some(Operand::Gpr(g)) = inst.dst() {
                    self.flow.gpr[g.reg.number() as usize] |= write_mask(g.width);
                }
            }
            for &f in defuse::flags_written(m) {
                self.flow.flags |= flag_bit(f);
            }
            if let Some(v) = defuse::vec_write(inst) {
                self.flow.vec |= 1 << u32::from(v.index);
            }
            if zero_idiom {
                if let Some(Operand::Vec(v)) = inst.dst() {
                    self.flow.vec |= 1 << u32::from(v.index);
                }
            }
        }
    }
}

/// Runs the Layer-1 def-use dataflow lints over a spec's init and body
/// sequences under the given environment. Returned spans index
/// instructions within the part each message names (`init[...]` /
/// `body[...]`).
pub fn analyze_spec(
    init: &[Instruction],
    code: &[Instruction],
    env: &AnalysisEnv,
) -> Vec<Diagnostic> {
    let mut a = Analyzer::new(env);
    a.scan(Part::Init, init);
    // Between init and body the generated code reads the counters (always
    // defining RAX/RCX/RDX) and, in looped mode, loads the loop counter
    // into R15 (§III-F).
    for r in [Gpr::Rax, Gpr::Rcx, Gpr::Rdx] {
        a.flow.gpr[r.number() as usize] = 0xFF;
        a.flow.arena[r.number() as usize] = false;
    }
    if env.looped {
        a.flow.gpr[Gpr::R15.number() as usize] = 0xFF;
    }
    a.scan(Part::Body, code);
    let mut diags = a.diags;
    diags.sort_by_key(|d| std::cmp::Reverse(d.severity));
    diags
}

/// The cache lines the measured kernel (init + body) provably touches:
/// absolute memory operands, plus displacements off registers that still
/// provably hold their arena base, resolved through
/// [`AnalysisEnv::arena_bases`]. Registers lose their base on any write,
/// exactly as the dataflow pass tracks them.
fn kernel_lines(init: &[Instruction], code: &[Instruction], env: &AnalysisEnv) -> HashSet<u64> {
    let mut base_of = [None::<u64>; 16];
    for (i, &r) in env.arena_regs.iter().enumerate() {
        if let Some(&base) = env.arena_bases.get(i) {
            // RSP points at the middle of its area (§III-G).
            let bias = if r == Gpr::Rsp { env.arena_size / 2 } else { 0 };
            base_of[r.number() as usize] = Some(base + bias);
        }
    }
    let mut lines = HashSet::new();
    let mut reads = Vec::new();
    let mut outs = Vec::new();
    for inst in init.iter().chain(code.iter()) {
        defuse::mem_reads(inst, &mut reads);
        let write = defuse::mem_writes(inst);
        for mem in reads.iter().chain(write.iter()) {
            let addr = match (mem.base, mem.index) {
                (None, None) => Some(mem.disp as u64),
                (Some(b), None) => {
                    base_of[b.number() as usize].map(|base| base.wrapping_add(mem.disp as u64))
                }
                _ => None,
            };
            if let Some(addr) = addr {
                lines.insert(addr / 64);
                lines.insert(addr.wrapping_add(mem.width.bytes() as u64 - 1) / 64);
            }
        }
        defuse::output_gprs(inst, &mut outs);
        for g in &outs {
            base_of[g.reg.number() as usize] = None;
        }
    }
    lines
}

/// One constant-propagation step over a co-runner instruction: `mov
/// r64/r32, imm` defines a register, `add`/`sub r64, imm` adjusts a known
/// one, zero idioms define zero, and every other write kills the value.
/// `outs` is scratch for the instruction's GPR writes.
fn const_step(vals: &mut [Option<u64>; 16], inst: &Instruction, outs: &mut Vec<GprPart>) {
    let mut update = None;
    if defuse::is_zero_idiom(inst) {
        if let Some(Operand::Gpr(g)) = inst.dst() {
            if matches!(g.width, Width::D | Width::Q) {
                update = Some((g.reg.number() as usize, Some(0)));
            }
        }
    } else if let (Some(&Operand::Gpr(g)), Some(&Operand::Imm(v))) = (inst.dst(), inst.src()) {
        let n = g.reg.number() as usize;
        match (inst.mnemonic, g.width) {
            (Mnemonic::Mov, Width::Q) => update = Some((n, Some(v as u64))),
            (Mnemonic::Mov, Width::D) => update = Some((n, Some(v as u32 as u64))),
            (Mnemonic::Add, Width::Q) => {
                update = Some((n, vals[n].map(|x| x.wrapping_add(v as u64))));
            }
            (Mnemonic::Sub, Width::Q) => {
                update = Some((n, vals[n].map(|x| x.wrapping_sub(v as u64))));
            }
            _ => {}
        }
    }
    defuse::output_gprs(inst, outs);
    for g in outs.iter() {
        vals[g.reg.number() as usize] = None;
    }
    if let Some((n, v)) = update {
        vals[n] = v;
    }
}

/// The address a co-runner memory operand provably computes, given the
/// constant-propagated register values.
fn const_addr(vals: &[Option<u64>; 16], mem: &MemRef) -> Option<u64> {
    let base = match mem.base {
        None => 0,
        Some(b) => vals[b.number() as usize]?,
    };
    let index = match mem.index {
        None => 0,
        Some((r, scale)) => vals[r.number() as usize]?.wrapping_mul(u64::from(scale)),
    };
    Some(base.wrapping_add(index).wrapping_add(mem.disp as u64))
}

/// Lints one co-runner instruction sequence against the measured kernel:
/// warns ([`Code::CorunnerFalseShare`]) for every co-runner memory
/// operand whose address is provable and lands on a cache line the
/// kernel's init or body provably touches. Cross-core stores to a
/// measured line invalidate the kernel's copy on every iteration —
/// false sharing that turns an interference spec into a coherence probe,
/// which is rarely what a co-runner streaming its own working set means
/// to do.
///
/// Co-runner cores start from a zeroed register state (§VI-C), so
/// provable co-runner addresses come from constant propagation: `mov
/// reg, imm` defines, `add`/`sub reg, imm` adjusts, zero idioms define
/// zero, any other write kills. Spans index instructions within the
/// co-runner sequence.
pub fn analyze_corunner(
    corunner_index: usize,
    corunner: &[Instruction],
    init: &[Instruction],
    code: &[Instruction],
    env: &AnalysisEnv,
) -> Vec<Diagnostic> {
    let kernel = kernel_lines(init, code, env);
    if kernel.is_empty() {
        return Vec::new();
    }
    // Co-runner cores boot from a zeroed CpuState.
    let mut vals = [Some(0u64); 16];
    let mut diags = Vec::new();
    let mut seen = HashSet::new();
    let mut reads = Vec::new();
    let mut outs = Vec::new();
    for (idx, inst) in corunner.iter().enumerate() {
        let i = idx as u32;
        defuse::mem_reads(inst, &mut reads);
        let write = defuse::mem_writes(inst);
        for mem in reads.iter().chain(write.iter()) {
            let Some(addr) = const_addr(&vals, mem) else {
                continue;
            };
            let first = addr / 64;
            let last = addr.wrapping_add(mem.width.bytes() as u64 - 1) / 64;
            for line in [first, last] {
                if kernel.contains(&line) && seen.insert((i, line)) {
                    diags.push(Diagnostic::warning(
                        Code::CorunnerFalseShare,
                        Span::at(i),
                        format!(
                            "corunner{corunner_index}[{i}] `{inst}`: access at {addr:#x} lands \
                             on cache line {:#x}, which the measured kernel also touches — \
                             cross-core traffic on a measured line adds coherence misses the \
                             interference spec does not mean to measure",
                            line * 64
                        ),
                    ));
                }
            }
        }
        const_step(&mut vals, inst, &mut outs);
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_x86::asm::parse_asm;

    fn lint(body: &str) -> Vec<Diagnostic> {
        analyze_spec(&[], &parse_asm(body).unwrap(), &AnalysisEnv::default())
    }

    fn lint_with(init: &str, body: &str, env: &AnalysisEnv) -> Vec<Diagnostic> {
        analyze_spec(&parse_asm(init).unwrap(), &parse_asm(body).unwrap(), env)
    }

    #[test]
    fn arena_loads_are_clean() {
        assert!(lint("mov r14, [r14]").is_empty());
        assert!(lint("mov rax, [rbp + 64]").is_empty());
    }

    #[test]
    fn uninit_address_base_is_an_error_with_span() {
        let d = lint("nop; mov rax, [rbx]");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UninitAddress);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].span, Span::at(1));
    }

    #[test]
    fn uninit_data_read_is_a_warning() {
        let d = lint("add rax, rbx");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UninitRead);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn init_defines_flow_into_the_body() {
        let env = AnalysisEnv::default();
        assert!(lint_with("mov rbx, 7", "add rax, rbx", &env).is_empty());
    }

    #[test]
    fn sub_register_aliasing_is_byte_exact() {
        // A 32-bit write zero-extends: the full register is defined.
        assert!(lint("mov ebx, 5; add rax, rbx").is_empty());
        // A 16-bit write defines only the low two bytes.
        let d = lint("mov bx, 5; add rax, rbx");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UninitRead);
        // ...but covers a same-width read.
        assert!(lint("mov bx, 5; add ax, bx").is_empty());
    }

    #[test]
    fn zero_idiom_defines_without_reading() {
        assert!(lint("xor rbx, rbx; add rax, rbx").is_empty());
        assert!(lint("pxor xmm1, xmm1; addps xmm1, xmm1").is_empty());
    }

    #[test]
    fn uninit_flags_and_vectors_warn() {
        let d = lint("cmovz rax, rbx");
        assert!(d.iter().any(|d| d.code == Code::UninitFlags));
        let d = lint("addps xmm0, xmm1");
        assert!(d.iter().all(|d| d.code == Code::UninitVec));
        assert!(lint("cmp rax, rdx; cmovz rax, rdx").is_empty());
    }

    #[test]
    fn privileged_user_mode_is_an_error() {
        let env = AnalysisEnv {
            user_mode: true,
            ..AnalysisEnv::default()
        };
        let d = lint_with("", "wbinvd", &env);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::Privileged);
        assert_eq!(d[0].severity, Severity::Error);
        assert_eq!(d[0].span, Span::at(0));
        // Kernel mode: clean.
        assert!(lint("wbinvd").is_empty());
    }

    #[test]
    fn arena_displacement_bounds_are_checked() {
        assert!(lint("mov rax, [r14 + 1048568]").is_empty());
        // Kernel mode (the default env): the identity map cannot fault, so
        // leaving the dedicated area is a warning.
        let d = lint("mov rax, [r14 + 1048577]");
        assert_eq!(d[0].code, Code::MemRange);
        assert_eq!(d[0].severity, Severity::Warning);
        let d = lint("mov rax, [r14 - 8]");
        assert_eq!(d[0].code, Code::MemRange);
        // User mode: the pages next to an arena are unmapped guard space,
        // so the same access provably faults.
        let uenv = AnalysisEnv {
            user_mode: true,
            ..AnalysisEnv::default()
        };
        let d = lint_with("", "mov rax, [r14 - 8]", &uenv);
        assert_eq!(d[0].code, Code::MemRange);
        assert_eq!(d[0].severity, Severity::Error);
        // RSP sits mid-area: negative displacements are fine.
        assert!(lint("mov rax, [rsp - 1024]").is_empty());
        // A register that no longer holds its base is not range-checked.
        assert!(lint("add r14, 64; mov rax, [r14 + 1048577]").is_empty());
    }

    #[test]
    fn line_straddling_operands_warn() {
        // An 8-byte load at line offset 60 provably crosses into the next
        // 64-byte line.
        let d = lint("mov rax, [r14 + 60]");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::LineStraddle);
        assert_eq!(d[0].severity, Severity::Warning);
        // Same boundary for a store.
        let d = lint("mov [r14 + 60], rax");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::LineStraddle);
        // Aligned and line-interior accesses are clean.
        assert!(lint("mov rax, [r14 + 56]").is_empty());
        assert!(lint("mov rax, [r14 + 64]").is_empty());
        // RSP's mid-area bias keeps line alignment, so [rsp - 4] sits at
        // line offset 60 and an 8-byte load there straddles.
        let d = lint("mov rax, [rsp - 4]");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::LineStraddle);
        // Absolute operands are checked too (no regions needed).
        let d = lint("mov rax, [0x13c]");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::LineStraddle);
        // A base that no longer provably holds its arena base is unknown —
        // nothing is provable, so nothing is reported.
        assert!(lint("add r14, 1; mov rax, [r14 + 60]").is_empty());
    }

    #[test]
    fn absolute_operands_check_the_mapped_regions() {
        let env = AnalysisEnv {
            user_mode: true,
            regions: vec![(0x7000_0000, 0x7010_0000)],
            ..AnalysisEnv::default()
        };
        assert!(lint_with("", "mov rax, [0x70000040]", &env).is_empty());
        let d = lint_with("", "mov rax, [0x100]", &env);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::MemRange);
        assert_eq!(d[0].severity, Severity::Error);
        // Kernel identity map: same operand is only a warning.
        let kenv = AnalysisEnv {
            user_mode: false,
            regions: vec![(0x4000_0000, 0x4010_0000)],
            ..AnalysisEnv::default()
        };
        let d = lint_with("", "mov rax, [0x100]", &kenv);
        assert_eq!(d[0].severity, Severity::Warning);
    }

    #[test]
    fn dead_init_store_is_flagged_at_the_store() {
        let d = lint_with(
            "mov [r14], r14; mov [r14], rsi",
            "mov r14, [r14]",
            &AnalysisEnv::default(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::DeadStore);
        assert_eq!(d[0].span, Span::at(0));
        // A read in between keeps the first store alive.
        let d = lint_with(
            "mov [r14], r14; mov rax, [r14]; mov [r14], rsi",
            "mov r14, [r14]",
            &AnalysisEnv::default(),
        );
        assert!(d.is_empty());
        // The body overwriting an unread init store also kills it.
        let d = lint_with(
            "mov [r14 + 8], rsi",
            "mov [r14 + 8], r14",
            &AnalysisEnv::default(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::DeadStore);
    }

    #[test]
    fn branch_targets_must_be_in_range() {
        // `jnz l; l:` at the end is fall-through and fine.
        assert!(lint("add rax, 1; jnz l; l:").is_empty());
    }

    #[test]
    fn nomem_accumulators_are_defined() {
        let env = AnalysisEnv {
            no_mem: true,
            ..AnalysisEnv::default()
        };
        assert!(lint_with("", "add rax, r8", &env).is_empty());
        let d = lint("add rax, r8");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::UninitRead);
    }

    /// An env with known arena bases, as a session would build it.
    fn corunner_env() -> AnalysisEnv {
        AnalysisEnv {
            arena_bases: vec![0x10_0000, 0x20_0000, 0x30_0000, 0x40_0000, 0x50_0000],
            ..AnalysisEnv::default()
        }
    }

    fn lint_corunner(corunner: &str, body: &str, env: &AnalysisEnv) -> Vec<Diagnostic> {
        analyze_corunner(
            0,
            &parse_asm(corunner).unwrap(),
            &[],
            &parse_asm(body).unwrap(),
            env,
        )
    }

    #[test]
    fn corunner_store_on_a_kernel_line_warns() {
        // Kernel reads [r14] = its arena base (0x50_0000); the co-runner
        // builds the same absolute address by constant propagation.
        let d = lint_corunner(
            "mov rax, 0x500000; mov qword [rax], 1",
            "mov rbx, [r14]",
            &corunner_env(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::CorunnerFalseShare);
        assert_eq!(d[0].severity, Severity::Warning);
        assert_eq!(d[0].span, Span::at(1));
    }

    #[test]
    fn corunner_on_its_own_lines_is_clean() {
        // Same shape, different line: one line (64 bytes) past the one the
        // kernel touches.
        let d = lint_corunner(
            "mov rax, 0x500040; mov qword [rax], 1",
            "mov rbx, [r14]",
            &corunner_env(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn corunner_add_adjusted_address_is_tracked() {
        // rax starts zeroed on a co-runner core; add/sub chains stay provable.
        let d = lint_corunner(
            "add rax, 0x300040; sub rax, 0x40; mov rbx, [rax]",
            "mov rcx, [rdi + 8]",
            &corunner_env(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::CorunnerFalseShare);
        assert_eq!(d[0].span, Span::at(2));
    }

    #[test]
    fn unprovable_corunner_address_does_not_warn() {
        // A load kills rax's constant; the later access is no longer
        // provable, so the lint must stay quiet.
        let d = lint_corunner(
            "mov rax, 0x500000; mov rax, [rax]; mov rbx, [rax]",
            "mov rbx, [r14]",
            &corunner_env(),
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].span, Span::at(1));
    }

    #[test]
    fn kernel_line_resolution_stops_at_clobbered_arena_regs() {
        // The kernel overwrites rdi before using it; [rdi] is no longer a
        // provable arena line, so a co-runner hit there cannot be proven.
        let d = lint_corunner(
            "mov rax, 0x400000; mov qword [rax], 1",
            "mov rdi, [r14]; mov rcx, [rdi]",
            &corunner_env(),
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn straddling_corunner_access_warns_on_the_tail_line() {
        // The co-runner's 8-byte store starts on the line before the
        // kernel's but straddles into it.
        let d = lint_corunner(
            "mov rax, 0x4FFFFC; mov qword [rax], 1",
            "mov rbx, [r14]",
            &corunner_env(),
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, Code::CorunnerFalseShare);
    }

    #[test]
    fn no_arena_bases_disables_the_corunner_lint() {
        let d = lint_corunner(
            "mov rax, 0x500000; mov qword [rax], 1",
            "mov rbx, [r14]",
            &AnalysisEnv::default(),
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
