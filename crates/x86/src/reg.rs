//! Register model for the x86-64 subset used by nanoBench microbenchmarks.
//!
//! nanoBench lets microbenchmarks use and modify any general-purpose and
//! vector register, including the stack pointer (§III of the paper), so the
//! model covers all 16 GPRs (in all four access widths), the vector
//! registers, and the status flags that instructions may implicitly read or
//! write (latency measurements must track flag dependencies, §V).

use std::fmt;

/// A 64-bit general-purpose register (full-width name).
///
/// Sub-width accesses (e.g. `EAX`, `AX`, `AL`) are represented as a
/// [`Gpr`] plus a [`Width`]; see [`GprPart`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
#[allow(missing_docs)] // the variants are the architectural register names
pub enum Gpr {
    Rax = 0,
    Rcx = 1,
    Rdx = 2,
    Rbx = 3,
    Rsp = 4,
    Rbp = 5,
    Rsi = 6,
    Rdi = 7,
    R8 = 8,
    R9 = 9,
    R10 = 10,
    R11 = 11,
    R12 = 12,
    R13 = 13,
    R14 = 14,
    R15 = 15,
}

impl Gpr {
    /// All sixteen general-purpose registers, in encoding order.
    pub const ALL: [Gpr; 16] = [
        Gpr::Rax,
        Gpr::Rcx,
        Gpr::Rdx,
        Gpr::Rbx,
        Gpr::Rsp,
        Gpr::Rbp,
        Gpr::Rsi,
        Gpr::Rdi,
        Gpr::R8,
        Gpr::R9,
        Gpr::R10,
        Gpr::R11,
        Gpr::R12,
        Gpr::R13,
        Gpr::R14,
        Gpr::R15,
    ];

    /// The register's hardware encoding number (0–15), as used in
    /// ModRM/SIB/REX fields.
    pub fn number(self) -> u8 {
        self as u8
    }

    /// Constructs a register from its hardware encoding number.
    ///
    /// Returns `None` if `n > 15`.
    pub fn from_number(n: u8) -> Option<Gpr> {
        Gpr::ALL.get(n as usize).copied()
    }

    /// The canonical lower-case 64-bit name (`"rax"`, `"r14"`, ...).
    pub fn name(self) -> &'static str {
        self.name_at(Width::Q)
    }

    /// The name of this register at a given access width (`eax`, `ax`, ...).
    pub fn name_at(self, width: Width) -> &'static str {
        GPR_NAMES[self as usize][width as usize]
    }
}

/// Every GPR name, indexed by register number, then by [`Width`] in
/// declaration order (byte, word, dword, qword).
const GPR_NAMES: [[&str; 4]; 16] = [
    ["al", "ax", "eax", "rax"],
    ["cl", "cx", "ecx", "rcx"],
    ["dl", "dx", "edx", "rdx"],
    ["bl", "bx", "ebx", "rbx"],
    ["spl", "sp", "esp", "rsp"],
    ["bpl", "bp", "ebp", "rbp"],
    ["sil", "si", "esi", "rsi"],
    ["dil", "di", "edi", "rdi"],
    ["r8b", "r8w", "r8d", "r8"],
    ["r9b", "r9w", "r9d", "r9"],
    ["r10b", "r10w", "r10d", "r10"],
    ["r11b", "r11w", "r11d", "r11"],
    ["r12b", "r12w", "r12d", "r12"],
    ["r13b", "r13w", "r13d", "r13"],
    ["r14b", "r14w", "r14d", "r14"],
    ["r15b", "r15w", "r15d", "r15"],
];

impl fmt::Display for Gpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Operand access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Width {
    /// 8-bit (`al`, `r14b`)
    B,
    /// 16-bit (`ax`, `r14w`)
    W,
    /// 32-bit (`eax`, `r14d`)
    D,
    /// 64-bit (`rax`, `r14`)
    Q,
}

impl Width {
    /// Width in bytes (1, 2, 4 or 8).
    pub fn bytes(self) -> u8 {
        match self {
            Width::B => 1,
            Width::W => 2,
            Width::D => 4,
            Width::Q => 8,
        }
    }

    /// Width in bits.
    pub fn bits(self) -> u8 {
        self.bytes() * 8
    }

    /// Mask covering the low `bits()` bits of a 64-bit value.
    pub fn mask(self) -> u64 {
        match self {
            Width::Q => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// Constructs a width from a byte count.
    pub fn from_bytes(bytes: u8) -> Option<Width> {
        match bytes {
            1 => Some(Width::B),
            2 => Some(Width::W),
            4 => Some(Width::D),
            8 => Some(Width::Q),
            _ => None,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Width::B => "byte",
            Width::W => "word",
            Width::D => "dword",
            Width::Q => "qword",
        };
        f.write_str(s)
    }
}

/// A general-purpose register accessed at a specific width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GprPart {
    /// The underlying 64-bit register.
    pub reg: Gpr,
    /// The access width.
    pub width: Width,
}

impl GprPart {
    /// Full 64-bit access to `reg`.
    pub fn full(reg: Gpr) -> GprPart {
        GprPart {
            reg,
            width: Width::Q,
        }
    }
}

impl fmt::Display for GprPart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.reg.name_at(self.width))
    }
}

/// A SIMD vector register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VecReg {
    /// Register index 0–31.
    pub index: u8,
    /// Register class (XMM = 128-bit, YMM = 256-bit, ZMM = 512-bit).
    pub class: VecClass,
}

impl VecReg {
    /// The 128-bit register `xmm<index>`.
    pub fn xmm(index: u8) -> VecReg {
        VecReg {
            index,
            class: VecClass::Xmm,
        }
    }

    /// The 256-bit register `ymm<index>`.
    pub fn ymm(index: u8) -> VecReg {
        VecReg {
            index,
            class: VecClass::Ymm,
        }
    }

    /// Whether the register is encodable without EVEX (index 0–15, not zmm).
    pub fn is_vex_encodable(self) -> bool {
        self.index < 16 && self.class != VecClass::Zmm
    }
}

/// Vector register class / width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VecClass {
    /// 128-bit `xmmN`
    Xmm,
    /// 256-bit `ymmN`
    Ymm,
    /// 512-bit `zmmN`
    Zmm,
}

impl VecClass {
    /// Register width in bytes.
    pub fn bytes(self) -> u16 {
        match self {
            VecClass::Xmm => 16,
            VecClass::Ymm => 32,
            VecClass::Zmm => 64,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            VecClass::Xmm => "xmm",
            VecClass::Ymm => "ymm",
            VecClass::Zmm => "zmm",
        }
    }
}

impl fmt::Display for VecReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

/// An x86 status flag (subset of RFLAGS relevant to dependency tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Flag {
    /// Carry flag.
    Cf,
    /// Parity flag.
    Pf,
    /// Adjust flag.
    Af,
    /// Zero flag.
    Zf,
    /// Sign flag.
    Sf,
    /// Overflow flag.
    Of,
}

impl Flag {
    /// All modeled status flags.
    pub const ALL: [Flag; 6] = [Flag::Cf, Flag::Pf, Flag::Af, Flag::Zf, Flag::Sf, Flag::Of];

    /// Bit position of the flag in RFLAGS.
    pub fn rflags_bit(self) -> u8 {
        match self {
            Flag::Cf => 0,
            Flag::Pf => 2,
            Flag::Af => 4,
            Flag::Zf => 6,
            Flag::Sf => 7,
            Flag::Of => 11,
        }
    }
}

impl fmt::Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Flag::Cf => "CF",
            Flag::Pf => "PF",
            Flag::Af => "AF",
            Flag::Zf => "ZF",
            Flag::Sf => "SF",
            Flag::Of => "OF",
        };
        f.write_str(s)
    }
}

/// Parses a register name (any width, any case) into a [`GprPart`].
///
/// Returns `None` for names that are not general-purpose registers.
pub fn parse_gpr(name: &str) -> Option<GprPart> {
    for reg in Gpr::ALL {
        for width in [Width::Q, Width::D, Width::W, Width::B] {
            if reg.name_at(width).eq_ignore_ascii_case(name) {
                return Some(GprPart { reg, width });
            }
        }
    }
    // Legacy high-byte registers map onto their parents; we model them as the
    // low byte since nanoBench microbenchmarks in the paper never use AH..BH.
    [
        ("ah", Gpr::Rax),
        ("ch", Gpr::Rcx),
        ("dh", Gpr::Rdx),
        ("bh", Gpr::Rbx),
    ]
    .into_iter()
    .find(|(high, _)| high.eq_ignore_ascii_case(name))
    .map(|(_, reg)| GprPart {
        reg,
        width: Width::B,
    })
}

/// Parses a vector register name (`xmm0`..`zmm31`).
pub fn parse_vec_reg(name: &str) -> Option<VecReg> {
    let prefix = name.get(..3)?;
    let class = [VecClass::Xmm, VecClass::Ymm, VecClass::Zmm]
        .into_iter()
        .find(|c| c.prefix().eq_ignore_ascii_case(prefix))?;
    let index: u8 = name[3..].parse().ok()?;
    if index < 32 {
        Some(VecReg { index, class })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpr_numbers_round_trip() {
        for reg in Gpr::ALL {
            assert_eq!(Gpr::from_number(reg.number()), Some(reg));
        }
        assert_eq!(Gpr::from_number(16), None);
    }

    #[test]
    fn width_names() {
        assert_eq!(Gpr::Rax.name_at(Width::Q), "rax");
        assert_eq!(Gpr::Rax.name_at(Width::D), "eax");
        assert_eq!(Gpr::Rax.name_at(Width::W), "ax");
        assert_eq!(Gpr::Rax.name_at(Width::B), "al");
        assert_eq!(Gpr::Rsp.name_at(Width::B), "spl");
        assert_eq!(Gpr::R14.name_at(Width::Q), "r14");
        assert_eq!(Gpr::R14.name_at(Width::D), "r14d");
        assert_eq!(Gpr::R14.name_at(Width::W), "r14w");
        assert_eq!(Gpr::R14.name_at(Width::B), "r14b");
    }

    #[test]
    fn parse_gpr_all_widths() {
        assert_eq!(
            parse_gpr("R14"),
            Some(GprPart {
                reg: Gpr::R14,
                width: Width::Q
            })
        );
        assert_eq!(
            parse_gpr("eax"),
            Some(GprPart {
                reg: Gpr::Rax,
                width: Width::D
            })
        );
        assert_eq!(
            parse_gpr("DIL"),
            Some(GprPart {
                reg: Gpr::Rdi,
                width: Width::B
            })
        );
        assert_eq!(parse_gpr("xyz"), None);
    }

    #[test]
    fn parse_vec_regs() {
        assert_eq!(
            parse_vec_reg("xmm0"),
            Some(VecReg {
                index: 0,
                class: VecClass::Xmm
            })
        );
        assert_eq!(
            parse_vec_reg("ZMM31"),
            Some(VecReg {
                index: 31,
                class: VecClass::Zmm
            })
        );
        assert_eq!(parse_vec_reg("zmm32"), None);
        assert_eq!(parse_vec_reg("mm0"), None);
    }

    #[test]
    fn width_masks() {
        assert_eq!(Width::B.mask(), 0xFF);
        assert_eq!(Width::W.mask(), 0xFFFF);
        assert_eq!(Width::D.mask(), 0xFFFF_FFFF);
        assert_eq!(Width::Q.mask(), u64::MAX);
    }
}
