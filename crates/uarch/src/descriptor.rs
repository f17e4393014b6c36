//! Per-microarchitecture instruction descriptors: µop decomposition,
//! latencies and port classes.
//!
//! This table is the simulated ground truth that case study I (§V) measures
//! back out through nanoBench: an instruction variant's *latency* is the
//! dependency-carrying µop's latency (plus memory latency for memory
//! forms), its *throughput* emerges from port contention and the issue
//! width, and its *port usage* from the port classes resolved through
//! [`PortConfig`](crate::port::PortConfig).

use crate::port::{MicroArch, PortConfig, PortSet};
use nanobench_x86::defuse;
use nanobench_x86::inst::{Instruction, Mnemonic, MAX_OPERANDS};
use nanobench_x86::operand::Operand;
use std::collections::HashMap;

/// Port class of a µop; resolved to a [`PortSet`] per microarchitecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // names mirror PortConfig fields
pub enum PortClass {
    Alu,
    IntMul,
    Div,
    Shift,
    Branch,
    VecAdd,
    VecMul,
    VecLogic,
    Shuffle,
    Load,
    StoreAddr,
    StoreData,
    Lea,
    /// Issued but never dispatched to a port (NOP and friends).
    None,
}

impl PortClass {
    /// Resolves the class to concrete ports.
    pub fn resolve(self, cfg: &PortConfig) -> PortSet {
        match self {
            PortClass::Alu => cfg.alu,
            PortClass::IntMul => cfg.int_mul,
            PortClass::Div => cfg.div,
            PortClass::Shift => cfg.shift,
            PortClass::Branch => cfg.branch,
            PortClass::VecAdd => cfg.vec_add,
            PortClass::VecMul => cfg.vec_mul,
            PortClass::VecLogic => cfg.vec_logic,
            PortClass::Shuffle => cfg.shuffle,
            PortClass::Load => cfg.load,
            PortClass::StoreAddr => cfg.store_addr,
            PortClass::StoreData => cfg.store_data,
            PortClass::Lea => cfg.lea,
            PortClass::None => PortSet::NONE,
        }
    }
}

/// One µop of an instruction's decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopSpec {
    /// Port class.
    pub class: PortClass,
    /// Latency in cycles (dependency-carrying µops only; auxiliary µops
    /// use latency for port occupancy bookkeeping).
    pub latency: u64,
    /// Reciprocal throughput of the µop on its port (1 = fully pipelined;
    /// >1 for the divider and other unpipelined units).
    pub recip: u64,
}

impl UopSpec {
    const fn new(class: PortClass, latency: u64) -> UopSpec {
        UopSpec {
            class,
            latency,
            recip: 1,
        }
    }

    const fn unpipelined(class: PortClass, latency: u64, recip: u64) -> UopSpec {
        UopSpec {
            class,
            latency,
            recip,
        }
    }
}

/// An instruction descriptor: the *compute* µops (the engine adds load and
/// store µops for memory operands automatically).
///
/// The first µop carries the register-to-register dependency latency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstrDesc {
    /// Compute µops.
    pub uops: Vec<UopSpec>,
}

impl InstrDesc {
    /// The dependency-carrying latency (0 for pure moves/loads).
    pub fn latency(&self) -> u64 {
        self.uops.first().map_or(0, |u| u.latency)
    }
}

/// The kind of one operand in a descriptor form. Memory operands are
/// normalized to registers for the compute-µop lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum OpKind {
    R,
    I,
    V,
}

/// Operand-kind signature used to key descriptor forms: one kind per
/// operand, then `None` in the unused slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Form([Option<OpKind>; MAX_OPERANDS]);

impl Form {
    fn new(kinds: impl IntoIterator<Item = OpKind>) -> Form {
        let mut form = [None; MAX_OPERANDS];
        for (slot, kind) in form.iter_mut().zip(kinds) {
            *slot = Some(kind);
        }
        Form(form)
    }

    fn of(inst: &Instruction) -> Form {
        Form::new(inst.operands.iter().map(|op| match op {
            Operand::Gpr(_) | Operand::Mem(_) | Operand::Label(_) => OpKind::R,
            Operand::Imm(_) => OpKind::I,
            Operand::Vec(_) => OpKind::V,
        }))
    }
}

/// The descriptor of a pure move with a memory operand: no compute µop
/// (the load/store µop is everything).
static NO_COMPUTE: InstrDesc = InstrDesc { uops: Vec::new() };

/// Per-microarchitecture descriptor table.
#[derive(Debug, Clone)]
pub struct DescriptorTable {
    uarch: MicroArch,
    ports: PortConfig,
    exact: HashMap<(Mnemonic, Form), InstrDesc>,
    default: HashMap<Mnemonic, InstrDesc>,
}

impl DescriptorTable {
    /// Builds the table for a microarchitecture.
    pub fn for_uarch(uarch: MicroArch) -> DescriptorTable {
        let mut t = DescriptorTable {
            uarch,
            ports: PortConfig::for_uarch(uarch),
            exact: HashMap::new(),
            default: HashMap::new(),
        };
        t.populate();
        t
    }

    /// The microarchitecture this table describes.
    pub fn uarch(&self) -> MicroArch {
        self.uarch
    }

    /// The port configuration.
    pub fn ports(&self) -> &PortConfig {
        &self.ports
    }

    /// Looks up the descriptor for an instruction (compute µops only).
    ///
    /// Pure moves with memory operands yield an empty descriptor. Returns
    /// `None` for instructions the engine handles specially (fences,
    /// counter reads, privileged instructions).
    pub fn lookup(&self, inst: &Instruction) -> Option<&InstrDesc> {
        let m = inst.mnemonic;
        if defuse::is_move(m) && inst.operands.iter().any(|o| matches!(o, Operand::Mem(_))) {
            return Some(&NO_COMPUTE);
        }
        self.exact
            .get(&(m, Form::of(inst)))
            .or_else(|| self.default.get(&m))
    }

    fn def(&mut self, m: Mnemonic, uops: Vec<UopSpec>) {
        self.default.insert(m, InstrDesc { uops });
    }

    fn form(&mut self, m: Mnemonic, form: &[OpKind], uops: Vec<UopSpec>) {
        self.exact
            .insert((m, Form::new(form.iter().copied())), InstrDesc { uops });
    }

    /// Latency tweaks for older parts, applied to vector arithmetic.
    fn vec_lat(&self, skylake_lat: u64, kind: PortClass) -> u64 {
        use MicroArch::*;
        match (self.uarch, kind) {
            // FP add was 3 cycles before Skylake moved it to the FMA units.
            (
                Nehalem | Westmere | SandyBridge | IvyBridge | Haswell | Broadwell,
                PortClass::VecAdd,
            ) if skylake_lat == 4 => 3,
            // FMA/multiply was 5 cycles on Haswell/Broadwell.
            (Haswell | Broadwell, PortClass::VecMul) if skylake_lat == 4 => 5,
            (Nehalem | Westmere | SandyBridge | IvyBridge, PortClass::VecMul)
                if skylake_lat == 4 =>
            {
                5
            }
            _ => skylake_lat,
        }
    }

    fn populate(&mut self) {
        use Mnemonic::*;
        use OpKind::*;
        let alu1 = vec![UopSpec::new(PortClass::Alu, 1)];

        // -- moves ---------------------------------------------------------
        self.form(Mov, &[R, R], alu1.clone());
        self.form(Mov, &[R, I], alu1.clone());
        self.form(Movzx, &[R, R], alu1.clone());
        self.form(Movsx, &[R, R], alu1.clone());
        self.def(Lea, vec![UopSpec::new(PortClass::Lea, 1)]);
        self.form(
            Xchg,
            &[R, R],
            vec![
                UopSpec::new(PortClass::Alu, 2),
                UopSpec::new(PortClass::Alu, 1),
                UopSpec::new(PortClass::Alu, 1),
            ],
        );
        self.def(
            Xadd,
            vec![
                UopSpec::new(PortClass::Alu, 2),
                UopSpec::new(PortClass::Alu, 1),
                UopSpec::new(PortClass::Alu, 1),
            ],
        );
        self.def(Bswap, vec![UopSpec::new(PortClass::Shift, 1)]);
        self.def(Cmovz, vec![UopSpec::new(PortClass::Shift, 1)]);
        self.def(Cmovnz, vec![UopSpec::new(PortClass::Shift, 1)]);
        self.def(Setz, vec![UopSpec::new(PortClass::Shift, 1)]);
        self.def(Setnz, vec![UopSpec::new(PortClass::Shift, 1)]);

        // -- integer ALU -----------------------------------------------------
        for m in [
            Add, Adc, Sub, Sbb, And, Or, Xor, Cmp, Test, Inc, Dec, Neg, Not,
        ] {
            self.def(m, alu1.clone());
        }
        self.form(Imul, &[R, R], vec![UopSpec::new(PortClass::IntMul, 3)]);
        self.form(
            Imul,
            &[R],
            vec![
                UopSpec::new(PortClass::IntMul, 3),
                UopSpec::new(PortClass::Alu, 1),
            ],
        );
        self.form(
            Mul,
            &[R],
            vec![
                UopSpec::new(PortClass::IntMul, 3),
                UopSpec::new(PortClass::Alu, 1),
            ],
        );
        for m in [Div, Idiv] {
            self.form(m, &[R], vec![UopSpec::unpipelined(PortClass::Div, 36, 21)]);
        }
        for m in [Shl, Shr, Sar, Rol, Ror] {
            self.def(m, vec![UopSpec::new(PortClass::Shift, 1)]);
        }
        for m in [Popcnt, Lzcnt, Tzcnt, Bsf, Bsr, Crc32] {
            self.def(m, vec![UopSpec::new(PortClass::IntMul, 3)]);
        }

        // -- SSE scalar float -------------------------------------------------
        for m in [Addss, Addsd, Subss, Subsd] {
            let lat = self.vec_lat(4, PortClass::VecAdd);
            self.def(m, vec![UopSpec::new(PortClass::VecAdd, lat)]);
        }
        for m in [Mulss, Mulsd] {
            let lat = self.vec_lat(4, PortClass::VecMul);
            self.def(m, vec![UopSpec::new(PortClass::VecMul, lat)]);
        }
        self.def(Divss, vec![UopSpec::unpipelined(PortClass::Div, 11, 3)]);
        self.def(Divsd, vec![UopSpec::unpipelined(PortClass::Div, 14, 4)]);
        self.def(Sqrtss, vec![UopSpec::unpipelined(PortClass::Div, 12, 3)]);
        self.def(Sqrtsd, vec![UopSpec::unpipelined(PortClass::Div, 18, 6)]);
        for m in [Comiss, Comisd] {
            self.def(
                m,
                vec![
                    UopSpec::new(PortClass::VecAdd, 2),
                    UopSpec::new(PortClass::Shuffle, 1),
                ],
            );
        }
        for m in [Cvtsi2sd, Cvtsd2si, Cvtss2sd, Cvtsd2ss] {
            self.def(
                m,
                vec![
                    UopSpec::new(PortClass::VecAdd, 6),
                    UopSpec::new(PortClass::Shuffle, 1),
                ],
            );
        }

        // -- SSE/AVX register-to-register moves --------------------------------
        for m in [Movaps, Movups, Movapd, Movdqa, Movdqu] {
            self.form(m, &[V, V], vec![UopSpec::new(PortClass::VecLogic, 1)]);
        }
        self.form(Movd, &[R, V], vec![UopSpec::new(PortClass::VecAdd, 2)]);
        self.form(Movd, &[V, R], vec![UopSpec::new(PortClass::VecAdd, 2)]);
        self.form(Movq, &[R, V], vec![UopSpec::new(PortClass::VecAdd, 2)]);
        self.form(Movq, &[V, R], vec![UopSpec::new(PortClass::VecAdd, 2)]);
        self.form(Movq, &[V, V], vec![UopSpec::new(PortClass::VecLogic, 1)]);

        // -- packed float -------------------------------------------------------
        for m in [Addps, Addpd, Subps, Subpd, Maxps, Minps] {
            let lat = self.vec_lat(4, PortClass::VecAdd);
            self.def(m, vec![UopSpec::new(PortClass::VecAdd, lat)]);
        }
        for m in [Mulps, Mulpd] {
            let lat = self.vec_lat(4, PortClass::VecMul);
            self.def(m, vec![UopSpec::new(PortClass::VecMul, lat)]);
        }
        self.def(Divps, vec![UopSpec::unpipelined(PortClass::Div, 11, 3)]);
        self.def(Divpd, vec![UopSpec::unpipelined(PortClass::Div, 14, 8)]);
        self.def(Sqrtps, vec![UopSpec::unpipelined(PortClass::Div, 12, 3)]);
        self.def(Sqrtpd, vec![UopSpec::unpipelined(PortClass::Div, 18, 9)]);
        for m in [Andps, Orps, Xorps] {
            self.def(m, vec![UopSpec::new(PortClass::VecLogic, 1)]);
        }
        self.def(Shufps, vec![UopSpec::new(PortClass::Shuffle, 1)]);
        self.def(Blendps, vec![UopSpec::new(PortClass::VecLogic, 1)]);
        self.def(
            Dpps,
            vec![
                UopSpec::new(PortClass::VecMul, 13),
                UopSpec::new(PortClass::VecAdd, 1),
                UopSpec::new(PortClass::Shuffle, 1),
                UopSpec::new(PortClass::VecAdd, 1),
            ],
        );
        self.def(
            Haddps,
            vec![
                UopSpec::new(PortClass::VecAdd, 6),
                UopSpec::new(PortClass::Shuffle, 1),
                UopSpec::new(PortClass::Shuffle, 1),
            ],
        );
        self.def(
            Roundps,
            vec![
                UopSpec::new(PortClass::VecAdd, 8),
                UopSpec::new(PortClass::VecAdd, 1),
            ],
        );

        // -- packed integer --------------------------------------------------------
        for m in [
            Paddb, Paddw, Paddd, Paddq, Psubb, Psubd, Psubq, Pabsd, Pminsd, Pmaxsd,
        ] {
            self.def(m, vec![UopSpec::new(PortClass::VecLogic, 1)]);
        }
        self.def(
            Pmulld,
            vec![
                UopSpec::new(PortClass::VecMul, 10),
                UopSpec::new(PortClass::VecMul, 1),
            ],
        );
        for m in [Pmullw, Pmuludq, Pmaddwd] {
            let lat = self.vec_lat(4, PortClass::VecMul) + 1;
            self.def(m, vec![UopSpec::new(PortClass::VecMul, lat)]);
        }
        for m in [Pand, Por, Pxor, Pcmpeqb, Pcmpeqd, Pcmpgtd] {
            self.def(m, vec![UopSpec::new(PortClass::VecLogic, 1)]);
        }
        for m in [Pshufb, Pshufd, Punpcklbw, Punpckldq, Packsswb] {
            self.def(m, vec![UopSpec::new(PortClass::Shuffle, 1)]);
        }
        for m in [Psllw, Pslld, Psllq] {
            self.def(m, vec![UopSpec::new(PortClass::VecAdd, 1)]);
        }
        self.def(Pmovmskb, vec![UopSpec::new(PortClass::VecMul, 3)]);
        self.def(
            Ptest,
            vec![
                UopSpec::new(PortClass::VecAdd, 3),
                UopSpec::new(PortClass::Shuffle, 1),
            ],
        );
        self.def(
            Phaddd,
            vec![
                UopSpec::new(PortClass::VecLogic, 3),
                UopSpec::new(PortClass::Shuffle, 1),
                UopSpec::new(PortClass::Shuffle, 1),
            ],
        );
        self.def(Psadbw, vec![UopSpec::new(PortClass::Shuffle, 3)]);

        // -- AVX / FMA ----------------------------------------------------------------
        for m in [Vaddps, Vaddpd] {
            let lat = self.vec_lat(4, PortClass::VecAdd);
            self.def(m, vec![UopSpec::new(PortClass::VecAdd, lat)]);
        }
        for m in [Vmulps, Vmulpd] {
            let lat = self.vec_lat(4, PortClass::VecMul);
            self.def(m, vec![UopSpec::new(PortClass::VecMul, lat)]);
        }
        self.def(Vdivps, vec![UopSpec::unpipelined(PortClass::Div, 11, 5)]);
        self.def(Vdivpd, vec![UopSpec::unpipelined(PortClass::Div, 14, 8)]);
        self.def(Vsqrtps, vec![UopSpec::unpipelined(PortClass::Div, 12, 6)]);
        for m in [Vfmadd132ps, Vfmadd213ps, Vfmadd231ps, Vfmadd231pd] {
            let lat = self.vec_lat(4, PortClass::VecMul);
            self.def(m, vec![UopSpec::new(PortClass::VecMul, lat)]);
        }
        for m in [Vpaddd, Vpaddq, Vpand, Vpor, Vpxor] {
            self.def(m, vec![UopSpec::new(PortClass::VecLogic, 1)]);
        }
        self.def(
            Vpmulld,
            vec![
                UopSpec::new(PortClass::VecMul, 10),
                UopSpec::new(PortClass::VecMul, 1),
            ],
        );
        self.def(Vpermilps, vec![UopSpec::new(PortClass::Shuffle, 1)]);
        self.def(Vperm2f128, vec![UopSpec::new(PortClass::Shuffle, 3)]);
        self.def(Vbroadcastss, vec![UopSpec::new(PortClass::Shuffle, 1)]);
        self.def(Vextractf128, vec![UopSpec::new(PortClass::Shuffle, 3)]);
        self.def(Vinsertf128, vec![UopSpec::new(PortClass::Shuffle, 3)]);
        self.def(
            Vzeroupper,
            vec![
                UopSpec::new(PortClass::None, 0),
                UopSpec::new(PortClass::None, 0),
                UopSpec::new(PortClass::None, 0),
                UopSpec::new(PortClass::None, 0),
            ],
        );
        self.def(Vzeroall, vec![UopSpec::new(PortClass::None, 0); 12]);
        self.def(
            Vgatherdps,
            vec![
                UopSpec::new(PortClass::VecAdd, 20),
                UopSpec::new(PortClass::Load, 1),
                UopSpec::new(PortClass::Load, 1),
                UopSpec::new(PortClass::VecAdd, 1),
            ],
        );

        // -- crypto ------------------------------------------------------------------------
        for m in [Aesenc, Aesenclast, Aesdec] {
            self.def(m, vec![UopSpec::new(PortClass::VecMul, 4)]);
        }
        self.def(Pclmulqdq, vec![UopSpec::new(PortClass::Shuffle, 6)]);
        self.def(
            Sha256rnds2,
            vec![UopSpec::unpipelined(PortClass::VecMul, 6, 3)],
        );
        for m in [Rdrand, Rdseed] {
            self.def(m, vec![UopSpec::unpipelined(PortClass::IntMul, 300, 300)]);
        }

        // -- misc --------------------------------------------------------------------------
        self.def(
            Pause,
            vec![
                UopSpec::unpipelined(PortClass::None, 0, 1),
                UopSpec::new(PortClass::None, 0),
                UopSpec::new(PortClass::None, 0),
                UopSpec::new(PortClass::None, 0),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_x86::asm::parse_asm;

    fn desc(table: &DescriptorTable, text: &str) -> InstrDesc {
        let insts = parse_asm(text).unwrap();
        table.lookup(&insts[0]).expect("descriptor exists").clone()
    }

    #[test]
    fn known_skylake_latencies() {
        let t = DescriptorTable::for_uarch(MicroArch::Skylake);
        assert_eq!(desc(&t, "add rax, rbx").latency(), 1);
        assert_eq!(desc(&t, "imul rax, rbx").latency(), 3);
        assert_eq!(desc(&t, "popcnt rax, rbx").latency(), 3);
        assert_eq!(desc(&t, "mulps xmm0, xmm1").latency(), 4);
        assert_eq!(desc(&t, "vfmadd231ps ymm0, ymm1, ymm2").latency(), 4);
        // A pure load has no compute µops: the load µop carries everything.
        assert!(desc(&t, "mov rax, [r14]").uops.is_empty());
        assert!(desc(&t, "mov [r14], rax").uops.is_empty());
        // But a reg-reg move does.
        assert_eq!(desc(&t, "mov rax, rbx").uops.len(), 1);
    }

    #[test]
    fn haswell_fma_latency_differs() {
        let hsw = DescriptorTable::for_uarch(MicroArch::Haswell);
        let skl = DescriptorTable::for_uarch(MicroArch::Skylake);
        assert_eq!(desc(&hsw, "vfmadd231ps ymm0, ymm1, ymm2").latency(), 5);
        assert_eq!(desc(&skl, "vfmadd231ps ymm0, ymm1, ymm2").latency(), 4);
        assert_eq!(desc(&hsw, "addps xmm0, xmm1").latency(), 3);
        assert_eq!(desc(&skl, "addps xmm0, xmm1").latency(), 4);
    }

    #[test]
    fn divider_is_unpipelined() {
        let t = DescriptorTable::for_uarch(MicroArch::Skylake);
        let d = desc(&t, "div rbx");
        assert!(d.uops[0].recip > 1);
        assert_eq!(d.uops[0].class, PortClass::Div);
    }

    #[test]
    fn rmw_alu_form_shares_compute_entry() {
        let t = DescriptorTable::for_uarch(MicroArch::Skylake);
        // `add [r14], rax` normalizes to (Add, [R, R]).
        assert_eq!(desc(&t, "add [r14], rax").latency(), 1);
        assert_eq!(desc(&t, "add rax, [r14]").latency(), 1);
    }

    #[test]
    fn unsupported_mnemonics_yield_none() {
        let t = DescriptorTable::for_uarch(MicroArch::Skylake);
        // CPUID and fences are engine specials, not table entries.
        let insts = parse_asm("cpuid; lfence; rdpmc").unwrap();
        for inst in &insts {
            assert!(t.lookup(inst).is_none(), "{inst}");
        }
    }

    #[test]
    fn variant_count_is_substantial() {
        // Case study I sweeps the explicit variants plus per-mnemonic
        // defaults across operand forms; the explicit table alone should
        // cover a meaningful set.
        let t = DescriptorTable::for_uarch(MicroArch::Skylake);
        assert!(t.exact.len() >= 15, "got {}", t.exact.len());
        assert!(t.default.len() >= 100, "got {}", t.default.len());
    }
}
