//! x86-64 machine-code encoder and decoder for the instruction subset that
//! nanoBench's generated code and the paper's microbenchmarks use.
//!
//! nanoBench accepts microbenchmarks "by the name of a binary file containing
//! x86 machine code" (§III-E) and implements the pause/resume-counting
//! feature by scanning the code for *magic byte sequences* and replacing them
//! with counter-read code (§III-I, §IV-B). Both require real byte-level
//! encoding, which this module provides (REX/ModRM/SIB, the common ALU and
//! move forms, fences, counter reads, the privileged instructions, and the
//! SSE/AVX subset the simulator models).
//!
//! Two tables drive both directions: `GPR_OPS` for the general-purpose and
//! system subset, `VEC_OPS` for SSE/AVX. The encoder takes the first
//! row whose operand form, widths and immediate fit; the decoder looks rows
//! up by prefix, opcode map, opcode, ModRM extension and ModRM mode. No
//! other code maps a mnemonic to an opcode or back, so `decode(encode(i))
//! == i`, and every decoded instruction re-encodes to itself.
//!
//! # GPR/system encoding support matrix
//!
//! | Form | Encoding | Status |
//! |---|---|---|
//! | ALU `add`...`cmp`, `mov`, `test`, `xchg`, `xadd` | `r/m ← reg` / `reg ← r/m`, byte twin opcode, `66`/REX.W sizes | encode + decode |
//! | ALU, `mov`, `test` with an immediate | `83 /n ib` first, then `81`/`80`, `C7`/`C6`, `F7`/`F6` with imm8/16/32 by width; `B8+r` imm64 | encode + decode |
//! | `imul r, r/m` and `imul r, r/m, imm` | `0F AF`, then `6B ib`, `69 iw/id` | encode + decode |
//! | one-operand `inc`...`idiv`, shifts by 1 or an imm8 count | `FE`/`FF`, `F6`/`F7`, `D0`/`D1`, `C0`/`C1` with `/ext` | encode + decode |
//! | `lea`, `movzx`/`movsx`, CMOVcc, SETcc, bit counting, `bswap`, `push`/`pop` | `8D` (memory only), `0F B6`...`0F BF`, `0F 44`/`45`, `0F 94`/`95`, `F3 0F B8`/`BC`/`BD`, `0F C8+r`, `50+r`/`58+r` | encode + decode |
//! | branches | rel32 (`E8`, `E9`, `0F 8x`); rel8 (`EB`, `7x`) decodes only | encode + decode |
//! | fences, counters, privileged, cache control | `0F AE /5`..`/7`, `0F 01 F8`/`F9`, `0F 01 /7`, `0F 22 /3`, `0F 18 /0`..`/3`, `0F C7 /6`/`/7`, ... | encode + decode |
//!
//! An immediate must come back as written: ib, iw and id are read back
//! sign-extended, a shift count unsigned, so `add al, 0x8000`, `mov al, 128`
//! and `shl rax, 256` are [`EncodeError::OutOfRange`]. Forms x86 lacks
//! (`imul al, cl`, `setz ax`, `bswap al`, `mov_cr3 eax`, a memory width that
//! differs from the register's, the two-operand `imul r, imm`) are
//! [`EncodeError::InvalidOperands`]. Byte registers `spl`, `bpl`, `sil` and
//! `dil` always take a REX prefix. The decoder refuses what x86 reads as an
//! instruction the model lacks: a byte register numbered 4–7 without REX
//! (`ah`...`bh`), `66` without REX.W before `push`/`pop` (their 16-bit
//! forms), and `90` with REX.B (`xchg` with `r8`, which decodes only as
//! `87 /r`). `C6`/`C7` decode as `mov` only with ModRM extension 0, a REX
//! prefix before VEX (even `40`) is refused, and a REX prefix that another
//! prefix follows counts for nothing, as on x86.
//!
//! # Vector encoding support matrix
//!
//! | Form | Encoding | Status |
//! |---|---|---|
//! | legacy SSE packed/scalar (`addps`, `mulsd`, `pxor`, ...) | `66`/`F2`/`F3` + `0F`/`0F 38`/`0F 3A` maps | encode + decode |
//! | SSE moves (`movaps`, `movdqu`, `movd`/`movq`, ...) | load and store opcodes, REX.W for `movq r64` | encode + decode |
//! | AVX 2/3-operand (`vaddps`, `vfmadd231ps`, ...) | 2- and 3-byte VEX (`vvvv`, `L`, `pp`, `mmmmm`, `W`) | encode + decode |
//! | `vperm2f128`/`vinsertf128`/`vextractf128` | VEX.L1 + imm8 | encode + decode |
//! | `vzeroupper`/`vzeroall` | VEX.L0/L1 `0F 77` | encode + decode |
//! | `xmm16`–`xmm31`, `zmm` registers | EVEX | asm/simulator only — [`EncodeError::Unsupported`] |
//! | `vgatherdps` | VSIB memory operand | asm/simulator only — [`EncodeError::Unsupported`] |
//!
//! Unsupported forms are never silently mis-encoded; they yield
//! [`EncodeError::Unsupported`] (or [`EncodeError::InvalidOperands`] for
//! architecturally impossible operand mixes such as legacy SSE on `ymm`).

use crate::inst::{Instruction, Mnemonic};
use crate::operand::{MemRef, Operand};
use crate::reg::{Gpr, GprPart, VecClass, VecReg, Width, HIGH_BYTE_NAMES};
use std::error::Error;
use std::fmt;

/// Magic byte sequence that pauses performance counting (§III-I).
///
/// Chosen to be a valid long-NOP whose displacement spells `NBP\0`, so a
/// program containing it remains executable even if not post-processed.
pub const MAGIC_PAUSE: [u8; 8] = [0x0F, 0x1F, 0x84, 0x00, 0x4E, 0x42, 0x50, 0x00];

/// Magic byte sequence that resumes performance counting (§III-I).
pub const MAGIC_RESUME: [u8; 8] = [0x0F, 0x1F, 0x84, 0x00, 0x4E, 0x42, 0x52, 0x00];

/// An error produced while encoding instructions to machine code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// The mnemonic has no encoding row (never silently mis-encoded; see
    /// the module docs).
    Unsupported(String),
    /// No encoding row takes the operand kinds or widths.
    InvalidOperands(String),
    /// A displacement or immediate does not fit its encoding field as the
    /// decoder reads it back.
    OutOfRange(String),
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::Unsupported(s) => write!(f, "unsupported encoding for `{s}`"),
            EncodeError::InvalidOperands(s) => write!(f, "invalid operands for `{s}`"),
            EncodeError::OutOfRange(s) => write!(f, "value out of range in `{s}`"),
        }
    }
}

impl Error for EncodeError {}

/// An error produced while decoding machine code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decode error at offset {:#x}: {}",
            self.offset, self.message
        )
    }
}

impl Error for DecodeError {}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    prefix66: bool,
    prefix_f2: bool,
    prefix_f3: bool,
    rex_w: bool,
    rex_r: bool,
    rex_x: bool,
    rex_b: bool,
    force_rex: bool,
    opcode: Vec<u8>,
    modrm: Option<u8>,
    sib: Option<u8>,
    disp: Vec<u8>,
    imm: Vec<u8>,
}

impl Enc {
    fn emit(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        if self.prefix_f3 {
            out.push(0xF3);
        }
        if self.prefix_f2 {
            out.push(0xF2);
        }
        if self.prefix66 {
            out.push(0x66);
        }
        let rex = 0x40
            | ((self.rex_w as u8) << 3)
            | ((self.rex_r as u8) << 2)
            | ((self.rex_x as u8) << 1)
            | (self.rex_b as u8);
        if rex != 0x40 || self.force_rex {
            out.push(rex);
        }
        out.extend_from_slice(&self.opcode);
        if let Some(m) = self.modrm {
            out.push(m);
        }
        if let Some(s) = self.sib {
            out.push(s);
        }
        out.extend_from_slice(&self.disp);
        out.extend_from_slice(&self.imm);
        out
    }

    fn set_width(&mut self, width: Width) {
        match width {
            Width::W => self.prefix66 = true,
            Width::Q => self.rex_w = true,
            _ => {}
        }
    }

    /// Sets the mandatory prefix (VEX `pp` numbering).
    fn set_pp(&mut self, pp: u8) {
        match pp {
            PP_66 => self.prefix66 = true,
            PP_F3 => self.prefix_f3 = true,
            PP_F2 => self.prefix_f2 = true,
            _ => {}
        }
    }

    /// Sets the ModRM `reg` field (or opcode extension) and the r/m side.
    fn set_modrm(&mut self, reg_field: u8, rm: &Rm) -> Result<(), EncodeError> {
        self.rex_r = reg_field > 7;
        let reg_bits = reg_field & 7;
        match rm {
            Rm::Reg(r) => {
                self.rex_b = *r > 7;
                self.modrm = Some(0xC0 | (reg_bits << 3) | (r & 7));
            }
            Rm::Mem(m) => {
                self.encode_mem(reg_bits, m)?;
            }
        }
        Ok(())
    }

    fn encode_mem(&mut self, reg_bits: u8, m: &MemRef) -> Result<(), EncodeError> {
        let disp = m.disp;
        match (m.base, m.index) {
            (None, None) => {
                // Absolute [disp32] via SIB with no base/index.
                let d32 =
                    i32::try_from(disp).map_err(|_| EncodeError::OutOfRange(format!("{m}")))?;
                self.modrm = Some((reg_bits << 3) | 0x04);
                self.sib = Some(0x25);
                self.disp.extend_from_slice(&d32.to_le_bytes());
            }
            (Some(base), None) => {
                let bn = base.number();
                self.rex_b = bn > 7;
                let needs_sib = (bn & 7) == 4; // RSP/R12
                let (mode, disp_bytes) = disp_mode(disp, (bn & 7) == 5)?;
                if needs_sib {
                    self.modrm = Some((mode << 6) | (reg_bits << 3) | 0x04);
                    self.sib = Some(0x20 | (bn & 7)); // index = none (100)
                } else {
                    self.modrm = Some((mode << 6) | (reg_bits << 3) | (bn & 7));
                }
                self.disp.extend_from_slice(&disp_bytes);
            }
            (base, Some((index, scale))) => {
                if index == Gpr::Rsp {
                    return Err(EncodeError::InvalidOperands(
                        "rsp cannot be an index register".to_string(),
                    ));
                }
                let scale_bits = match scale {
                    1 => 0u8,
                    2 => 1,
                    4 => 2,
                    8 => 3,
                    _ => {
                        return Err(EncodeError::InvalidOperands(format!(
                            "scale {scale} is not 1/2/4/8"
                        )))
                    }
                };
                let xn = index.number();
                self.rex_x = xn > 7;
                match base {
                    None => {
                        let d32 = i32::try_from(disp)
                            .map_err(|_| EncodeError::OutOfRange(format!("{m}")))?;
                        self.modrm = Some((reg_bits << 3) | 0x04);
                        self.sib = Some((scale_bits << 6) | ((xn & 7) << 3) | 0x05);
                        self.disp.extend_from_slice(&d32.to_le_bytes());
                    }
                    Some(b) => {
                        let bn = b.number();
                        self.rex_b = bn > 7;
                        let (mode, disp_bytes) = disp_mode(disp, (bn & 7) == 5)?;
                        self.modrm = Some((mode << 6) | (reg_bits << 3) | 0x04);
                        self.sib = Some((scale_bits << 6) | ((xn & 7) << 3) | (bn & 7));
                        self.disp.extend_from_slice(&disp_bytes);
                    }
                }
            }
        }
        Ok(())
    }
}

fn disp_mode(disp: i64, base_is_bp: bool) -> Result<(u8, Vec<u8>), EncodeError> {
    if disp == 0 && !base_is_bp {
        Ok((0, Vec::new()))
    } else if let Ok(d8) = i8::try_from(disp) {
        Ok((1, vec![d8 as u8]))
    } else if let Ok(d32) = i32::try_from(disp) {
        Ok((2, d32.to_le_bytes().to_vec()))
    } else {
        Err(EncodeError::OutOfRange(format!("displacement {disp:#x}")))
    }
}

enum Rm {
    Reg(u8),
    Mem(MemRef),
}

/// Byte registers 4–7 (`spl`, `bpl`, `sil`, `dil`) exist only under REX.
fn needs_rex_for_byte(g: &GprPart) -> bool {
    g.width == Width::B && (4..8).contains(&g.reg.number())
}

/// Escape-map numbers, identical to the VEX `mmmmm` field values; the
/// one-byte map (no escape) is 0.
const MAP_1B: u8 = 0;
const MAP_0F: u8 = 1;
const MAP_0F38: u8 = 2;
const MAP_0F3A: u8 = 3;

/// Mandatory-prefix numbers, identical to the VEX `pp` field values.
const PP_NONE: u8 = 0;
const PP_66: u8 = 1;
const PP_F3: u8 = 2;
const PP_F2: u8 = 3;

// ---------------------------------------------------------------------------
// GPR/system: one table drives both the encoder and the decoder (§III-E)
// ---------------------------------------------------------------------------

/// Operand form of a [`GprOp`] row, in Intel order. A row with an
/// immediate field takes the immediate as one more, last, operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// No operands.
    Bare,
    /// `reg ← r/m`: the ModRM `reg` field is the first operand.
    RegRm,
    /// `r/m ← reg`: the ModRM `reg` field is the second operand.
    RmReg,
    /// One r/m operand; the ModRM `reg` field holds the extension.
    Rm,
    /// One register in the opcode's low three bits (`push`, `B8+r`).
    OpReg,
    /// A branch target as a rel32 displacement.
    Rel32,
    /// A branch target as a rel8 displacement (decoded, never encoded).
    Rel8,
}

/// Immediate field of a [`GprOp`] row. Every immediate but a shift count
/// is read back sign-extended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Imm {
    /// imm8.
    Ib,
    /// imm8 at byte width (the byte twin), imm16 at word width, imm32
    /// otherwise.
    Iz,
    /// The full operand width: imm16, imm32 or imm64 (`B8+r`).
    Iv,
    /// An unsigned imm8 shift count.
    Count,
    /// A count of 1 with no immediate bytes (`D0`/`D1`).
    One,
}

impl Imm {
    /// The field's length in bytes at operand width `w`.
    fn len(self, w: Width) -> usize {
        match (self, w) {
            (Imm::One, _) => 0,
            (Imm::Ib | Imm::Count, _) | (_, Width::B) => 1,
            (_, Width::W) => 2,
            (Imm::Iv, Width::Q) => 8,
            _ => 4,
        }
    }

    /// Whether `v` comes back unchanged from a field of `len` bytes.
    fn fits(self, v: i64, len: usize) -> bool {
        match self {
            Imm::One => v == 1,
            Imm::Count => u8::try_from(v).is_ok(),
            _ => len == 8 || v == sign_extend(v, len),
        }
    }
}

/// The low `len` bytes of `v`, sign-extended (`len` is 1–8).
fn sign_extend(v: i64, len: usize) -> i64 {
    let shift = 64 - 8 * len as u32;
    (v << shift) >> shift
}

/// How a [`GprOp`] row sizes its operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Size {
    /// The operand size: 16, 32 or 64 bits by `66`/REX.W, and 8 bits
    /// through the byte twin opcode where the row has one. Register and
    /// r/m operands share it.
    Op,
    /// Always this width; no `66`/REX.W is emitted and the decoder
    /// ignores them.
    Fixed(Width),
    /// The register takes the operand size, the r/m operand is this width
    /// (`movzx`/`movsx`).
    Extend(Width),
}

/// Which ModRM bytes a [`GprOp`] row takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModRm {
    /// The row has no ModRM byte.
    Absent,
    /// A register or memory r/m operand.
    Any,
    /// Memory only: with mod=11 the opcode is #UD or another instruction.
    Mem,
    /// Register only (mod=11). A row without an r/m operand ignores the
    /// r/m bits and encodes them as 0 (the group-15 fences).
    Reg,
    /// Exactly this byte (`swapgs` is `0F 01 F8`).
    Byte(u8),
}

/// One encodable GPR/system instruction form.
struct GprOp {
    m: Mnemonic,
    /// Mandatory prefix (VEX `pp` numbering). The decoder requires it
    /// present; a row without one ignores `66`/`F2`/`F3` as prefixes
    /// (beyond `66` sizing the operands), so a prefixed row comes first.
    pp: u8,
    map: u8,
    op: u8,
    /// The opcode of the byte-width twin (`88` for `89`).
    op8: Option<u8>,
    /// The ModRM `reg` field of a row whose `reg` field is no operand;
    /// `None` encodes 0 and decodes any value (`C7`, SETcc).
    ext: Option<u8>,
    size: Size,
    imm: Option<Imm>,
    form: Form,
    modrm: ModRm,
}

const fn gpr(m: Mnemonic, map: u8, op: u8, form: Form) -> GprOp {
    GprOp {
        m,
        pp: PP_NONE,
        map,
        op,
        op8: None,
        ext: None,
        size: Size::Op,
        imm: None,
        form,
        modrm: match form {
            Form::RegRm | Form::RmReg | Form::Rm => ModRm::Any,
            _ => ModRm::Absent,
        },
    }
}

impl GprOp {
    const fn byte(self, op8: u8) -> GprOp {
        GprOp {
            op8: Some(op8),
            ..self
        }
    }

    const fn ext(self, ext: u8) -> GprOp {
        GprOp {
            ext: Some(ext),
            ..self
        }
    }

    const fn imm(self, imm: Imm) -> GprOp {
        GprOp {
            imm: Some(imm),
            ..self
        }
    }

    const fn pp(self, pp: u8) -> GprOp {
        GprOp { pp, ..self }
    }

    const fn size(self, size: Size) -> GprOp {
        GprOp { size, ..self }
    }

    const fn modrm(self, modrm: ModRm) -> GprOp {
        GprOp { modrm, ..self }
    }
}

/// The GPR/system encoding table. Entry order matters: the encoder takes
/// the first row of a mnemonic that fits (`83 ib` before `81`, `C7` before
/// `B8+r`, rel32 before rel8), and the decoder the first row that matches
/// (`F3 90` is `pause` before `90` is `nop`).
#[rustfmt::skip]
const GPR_OPS: &[GprOp] = &[
    // -- moves ---------------------------------------------------------------
    gpr(Mnemonic::Mov, MAP_1B, 0x8B, Form::RegRm).byte(0x8A),
    gpr(Mnemonic::Mov, MAP_1B, 0x89, Form::RmReg).byte(0x88),
    gpr(Mnemonic::Mov, MAP_1B, 0xC7, Form::Rm).byte(0xC6).ext(0).imm(Imm::Iz),
    gpr(Mnemonic::Mov, MAP_1B, 0xB8, Form::OpReg).imm(Imm::Iv),
    gpr(Mnemonic::Lea, MAP_1B, 0x8D, Form::RegRm).modrm(ModRm::Mem),
    gpr(Mnemonic::Movzx, MAP_0F, 0xB6, Form::RegRm).size(Size::Extend(Width::B)),
    gpr(Mnemonic::Movzx, MAP_0F, 0xB7, Form::RegRm).size(Size::Extend(Width::W)),
    gpr(Mnemonic::Movsx, MAP_0F, 0xBE, Form::RegRm).size(Size::Extend(Width::B)),
    gpr(Mnemonic::Movsx, MAP_0F, 0xBF, Form::RegRm).size(Size::Extend(Width::W)),
    gpr(Mnemonic::Xchg, MAP_1B, 0x87, Form::RmReg).byte(0x86),
    gpr(Mnemonic::Xadd, MAP_0F, 0xC1, Form::RmReg).byte(0xC0),
    gpr(Mnemonic::Push, MAP_1B, 0x50, Form::OpReg).size(Size::Fixed(Width::Q)),
    gpr(Mnemonic::Pop, MAP_1B, 0x58, Form::OpReg).size(Size::Fixed(Width::Q)),
    gpr(Mnemonic::Bswap, MAP_0F, 0xC8, Form::OpReg),
    gpr(Mnemonic::Cmovz, MAP_0F, 0x44, Form::RegRm),
    gpr(Mnemonic::Cmovnz, MAP_0F, 0x45, Form::RegRm),
    gpr(Mnemonic::Setz, MAP_0F, 0x94, Form::Rm).size(Size::Fixed(Width::B)),
    gpr(Mnemonic::Setnz, MAP_0F, 0x95, Form::Rm).size(Size::Fixed(Width::B)),
    // -- ALU: reg <- r/m, r/m <- reg, r/m with imm8, r/m with imm -------------
    gpr(Mnemonic::Add, MAP_1B, 0x03, Form::RegRm).byte(0x02),
    gpr(Mnemonic::Add, MAP_1B, 0x01, Form::RmReg).byte(0x00),
    gpr(Mnemonic::Add, MAP_1B, 0x83, Form::Rm).ext(0).imm(Imm::Ib),
    gpr(Mnemonic::Add, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(0).imm(Imm::Iz),
    gpr(Mnemonic::Or, MAP_1B, 0x0B, Form::RegRm).byte(0x0A),
    gpr(Mnemonic::Or, MAP_1B, 0x09, Form::RmReg).byte(0x08),
    gpr(Mnemonic::Or, MAP_1B, 0x83, Form::Rm).ext(1).imm(Imm::Ib),
    gpr(Mnemonic::Or, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(1).imm(Imm::Iz),
    gpr(Mnemonic::Adc, MAP_1B, 0x13, Form::RegRm).byte(0x12),
    gpr(Mnemonic::Adc, MAP_1B, 0x11, Form::RmReg).byte(0x10),
    gpr(Mnemonic::Adc, MAP_1B, 0x83, Form::Rm).ext(2).imm(Imm::Ib),
    gpr(Mnemonic::Adc, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(2).imm(Imm::Iz),
    gpr(Mnemonic::Sbb, MAP_1B, 0x1B, Form::RegRm).byte(0x1A),
    gpr(Mnemonic::Sbb, MAP_1B, 0x19, Form::RmReg).byte(0x18),
    gpr(Mnemonic::Sbb, MAP_1B, 0x83, Form::Rm).ext(3).imm(Imm::Ib),
    gpr(Mnemonic::Sbb, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(3).imm(Imm::Iz),
    gpr(Mnemonic::And, MAP_1B, 0x23, Form::RegRm).byte(0x22),
    gpr(Mnemonic::And, MAP_1B, 0x21, Form::RmReg).byte(0x20),
    gpr(Mnemonic::And, MAP_1B, 0x83, Form::Rm).ext(4).imm(Imm::Ib),
    gpr(Mnemonic::And, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(4).imm(Imm::Iz),
    gpr(Mnemonic::Sub, MAP_1B, 0x2B, Form::RegRm).byte(0x2A),
    gpr(Mnemonic::Sub, MAP_1B, 0x29, Form::RmReg).byte(0x28),
    gpr(Mnemonic::Sub, MAP_1B, 0x83, Form::Rm).ext(5).imm(Imm::Ib),
    gpr(Mnemonic::Sub, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(5).imm(Imm::Iz),
    gpr(Mnemonic::Xor, MAP_1B, 0x33, Form::RegRm).byte(0x32),
    gpr(Mnemonic::Xor, MAP_1B, 0x31, Form::RmReg).byte(0x30),
    gpr(Mnemonic::Xor, MAP_1B, 0x83, Form::Rm).ext(6).imm(Imm::Ib),
    gpr(Mnemonic::Xor, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(6).imm(Imm::Iz),
    gpr(Mnemonic::Cmp, MAP_1B, 0x3B, Form::RegRm).byte(0x3A),
    gpr(Mnemonic::Cmp, MAP_1B, 0x39, Form::RmReg).byte(0x38),
    gpr(Mnemonic::Cmp, MAP_1B, 0x83, Form::Rm).ext(7).imm(Imm::Ib),
    gpr(Mnemonic::Cmp, MAP_1B, 0x81, Form::Rm).byte(0x80).ext(7).imm(Imm::Iz),
    gpr(Mnemonic::Test, MAP_1B, 0x85, Form::RmReg).byte(0x84),
    gpr(Mnemonic::Test, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(0).imm(Imm::Iz),
    // -- one-operand ALU, multiply and divide --------------------------------
    gpr(Mnemonic::Inc, MAP_1B, 0xFF, Form::Rm).byte(0xFE).ext(0),
    gpr(Mnemonic::Dec, MAP_1B, 0xFF, Form::Rm).byte(0xFE).ext(1),
    gpr(Mnemonic::Not, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(2),
    gpr(Mnemonic::Neg, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(3),
    gpr(Mnemonic::Mul, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(4),
    gpr(Mnemonic::Imul, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(5),
    gpr(Mnemonic::Div, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(6),
    gpr(Mnemonic::Idiv, MAP_1B, 0xF7, Form::Rm).byte(0xF6).ext(7),
    gpr(Mnemonic::Imul, MAP_0F, 0xAF, Form::RegRm),
    gpr(Mnemonic::Imul, MAP_1B, 0x6B, Form::RegRm).imm(Imm::Ib),
    gpr(Mnemonic::Imul, MAP_1B, 0x69, Form::RegRm).imm(Imm::Iz),
    // -- shifts and rotates: by 1, then by an imm8 count ---------------------
    gpr(Mnemonic::Rol, MAP_1B, 0xD1, Form::Rm).byte(0xD0).ext(0).imm(Imm::One),
    gpr(Mnemonic::Rol, MAP_1B, 0xC1, Form::Rm).byte(0xC0).ext(0).imm(Imm::Count),
    gpr(Mnemonic::Ror, MAP_1B, 0xD1, Form::Rm).byte(0xD0).ext(1).imm(Imm::One),
    gpr(Mnemonic::Ror, MAP_1B, 0xC1, Form::Rm).byte(0xC0).ext(1).imm(Imm::Count),
    gpr(Mnemonic::Shl, MAP_1B, 0xD1, Form::Rm).byte(0xD0).ext(4).imm(Imm::One),
    gpr(Mnemonic::Shl, MAP_1B, 0xC1, Form::Rm).byte(0xC0).ext(4).imm(Imm::Count),
    gpr(Mnemonic::Shr, MAP_1B, 0xD1, Form::Rm).byte(0xD0).ext(5).imm(Imm::One),
    gpr(Mnemonic::Shr, MAP_1B, 0xC1, Form::Rm).byte(0xC0).ext(5).imm(Imm::Count),
    gpr(Mnemonic::Sar, MAP_1B, 0xD1, Form::Rm).byte(0xD0).ext(7).imm(Imm::One),
    gpr(Mnemonic::Sar, MAP_1B, 0xC1, Form::Rm).byte(0xC0).ext(7).imm(Imm::Count),
    // -- bit counting: the F3 forms before BSF/BSR ---------------------------
    gpr(Mnemonic::Popcnt, MAP_0F, 0xB8, Form::RegRm).pp(PP_F3),
    gpr(Mnemonic::Tzcnt, MAP_0F, 0xBC, Form::RegRm).pp(PP_F3),
    gpr(Mnemonic::Lzcnt, MAP_0F, 0xBD, Form::RegRm).pp(PP_F3),
    gpr(Mnemonic::Bsf, MAP_0F, 0xBC, Form::RegRm),
    gpr(Mnemonic::Bsr, MAP_0F, 0xBD, Form::RegRm),
    // -- control flow --------------------------------------------------------
    gpr(Mnemonic::Jmp, MAP_1B, 0xE9, Form::Rel32),
    gpr(Mnemonic::Jmp, MAP_1B, 0xEB, Form::Rel8),
    gpr(Mnemonic::Call, MAP_1B, 0xE8, Form::Rel32),
    gpr(Mnemonic::Jz, MAP_0F, 0x84, Form::Rel32),
    gpr(Mnemonic::Jz, MAP_1B, 0x74, Form::Rel8),
    gpr(Mnemonic::Jnz, MAP_0F, 0x85, Form::Rel32),
    gpr(Mnemonic::Jnz, MAP_1B, 0x75, Form::Rel8),
    gpr(Mnemonic::Jc, MAP_0F, 0x82, Form::Rel32),
    gpr(Mnemonic::Jc, MAP_1B, 0x72, Form::Rel8),
    gpr(Mnemonic::Jnc, MAP_0F, 0x83, Form::Rel32),
    gpr(Mnemonic::Jnc, MAP_1B, 0x73, Form::Rel8),
    gpr(Mnemonic::Ret, MAP_1B, 0xC3, Form::Bare),
    // -- no operands ---------------------------------------------------------
    gpr(Mnemonic::Pause, MAP_1B, 0x90, Form::Bare).pp(PP_F3),
    gpr(Mnemonic::Nop, MAP_1B, 0x90, Form::Bare),
    gpr(Mnemonic::Hlt, MAP_1B, 0xF4, Form::Bare),
    gpr(Mnemonic::Cli, MAP_1B, 0xFA, Form::Bare),
    gpr(Mnemonic::Sti, MAP_1B, 0xFB, Form::Bare),
    gpr(Mnemonic::Cpuid, MAP_0F, 0xA2, Form::Bare),
    gpr(Mnemonic::Rdtsc, MAP_0F, 0x31, Form::Bare),
    gpr(Mnemonic::Rdpmc, MAP_0F, 0x33, Form::Bare),
    gpr(Mnemonic::Rdmsr, MAP_0F, 0x32, Form::Bare),
    gpr(Mnemonic::Wrmsr, MAP_0F, 0x30, Form::Bare),
    gpr(Mnemonic::Wbinvd, MAP_0F, 0x09, Form::Bare),
    gpr(Mnemonic::Invd, MAP_0F, 0x08, Form::Bare),
    gpr(Mnemonic::Swapgs, MAP_0F, 0x01, Form::Bare).modrm(ModRm::Byte(0xF8)),
    gpr(Mnemonic::Rdtscp, MAP_0F, 0x01, Form::Bare).modrm(ModRm::Byte(0xF9)),
    gpr(Mnemonic::Lfence, MAP_0F, 0xAE, Form::Bare).ext(5).modrm(ModRm::Reg),
    gpr(Mnemonic::Mfence, MAP_0F, 0xAE, Form::Bare).ext(6).modrm(ModRm::Reg),
    gpr(Mnemonic::Sfence, MAP_0F, 0xAE, Form::Bare).ext(7).modrm(ModRm::Reg),
    // A prefetch with a register operand is a hint NOP, whatever the hint.
    gpr(Mnemonic::Nop, MAP_0F, 0x18, Form::Bare).modrm(ModRm::Reg),
    // -- privileged and cache control ----------------------------------------
    gpr(Mnemonic::Invlpg, MAP_0F, 0x01, Form::Rm).ext(7).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::MovCr3, MAP_0F, 0x22, Form::Rm).ext(3).size(Size::Fixed(Width::Q)).modrm(ModRm::Reg),
    gpr(Mnemonic::Clflushopt, MAP_0F, 0xAE, Form::Rm).pp(PP_66).ext(7).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::Clflush, MAP_0F, 0xAE, Form::Rm).ext(7).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::Prefetchnta, MAP_0F, 0x18, Form::Rm).ext(0).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::Prefetcht0, MAP_0F, 0x18, Form::Rm).ext(1).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::Prefetcht1, MAP_0F, 0x18, Form::Rm).ext(2).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::Prefetcht2, MAP_0F, 0x18, Form::Rm).ext(3).size(Size::Fixed(Width::Q)).modrm(ModRm::Mem),
    gpr(Mnemonic::Rdrand, MAP_0F, 0xC7, Form::Rm).ext(6).modrm(ModRm::Reg),
    gpr(Mnemonic::Rdseed, MAP_0F, 0xC7, Form::Rm).ext(7).modrm(ModRm::Reg),
];

/// For each opcode of the one-byte and `0F` maps, the index of its first
/// [`GPR_OPS`] row, or `u8::MAX` for none: the decoder's lookup starts
/// there.
const GPR_FIRST: [[u8; 256]; 2] = {
    assert!(GPR_OPS.len() < u8::MAX as usize);
    let mut first = [[u8::MAX; 256]; 2];
    let mut i = GPR_OPS.len();
    while i > 0 {
        i -= 1;
        let mut op = 0;
        while op < 256 {
            if GPR_OPS[i].has_opcode(op as u8) {
                first[GPR_OPS[i].map as usize][op] = i as u8;
            }
            op += 1;
        }
    }
    first
};

/// How a row fits an instruction's operands.
enum Fit {
    /// The operand kinds or widths do not fit the row.
    No,
    /// Everything fits but the immediate.
    OutOfRange,
    /// The row's encoding.
    Bytes(Vec<u8>),
}

impl GprOp {
    /// Encodes `inst` with this row. Errors are framing errors (a
    /// displacement out of range, `rsp` as an index); a row that does not
    /// fit is [`Fit::No`] or [`Fit::OutOfRange`].
    fn encode(&self, inst: &Instruction) -> Result<Fit, EncodeError> {
        let ops = inst.operands.as_slice();
        let (ops, imm) = match (self.imm, ops.split_last()) {
            (Some(_), Some((Operand::Imm(v), rest))) => (rest, Some(*v)),
            (Some(_), _) => return Ok(Fit::No),
            (None, _) => (ops, None),
        };
        let (reg, rm) = match (self.form, ops) {
            (Form::Bare, []) => (None, None),
            (Form::RegRm, [Operand::Gpr(r), rm]) | (Form::RmReg, [rm, Operand::Gpr(r)]) => {
                (Some(*r), Some(rm))
            }
            (Form::Rm, [rm]) => (None, Some(rm)),
            (Form::OpReg, [Operand::Gpr(r)]) => (Some(*r), None),
            (Form::Rel32 | Form::Rel8, [Operand::Label(_)]) => (None, None),
            _ => return Ok(Fit::No),
        };
        // The r/m side, its width, and whether it is a byte register that
        // needs REX.
        let rm = match rm {
            None => None,
            Some(Operand::Gpr(g)) if self.modrm != ModRm::Mem => {
                Some((Rm::Reg(g.reg.number()), g.width, needs_rex_for_byte(g)))
            }
            Some(Operand::Mem(m)) if self.modrm != ModRm::Reg => {
                Some((Rm::Mem(*m), m.width, false))
            }
            _ => return Ok(Fit::No),
        };
        let (wr, wm) = (reg.map(|g| g.width), rm.as_ref().map(|r| r.1));
        // `osize` is the operand size that `66`, REX.W or the byte twin
        // carries; fixed-width rows carry none.
        let osize = match self.size {
            Size::Fixed(w) if wr.is_none_or(|x| x == w) && wm.is_none_or(|x| x == w) => None,
            Size::Extend(w) if wm == Some(w) => wr,
            Size::Op if wr.is_none() || wm.is_none() || wr == wm => wr.or(wm),
            _ => return Ok(Fit::No),
        };
        let op = match (osize, self.op8) {
            (Some(Width::B), Some(op8)) => op8,
            (Some(Width::B), None) => return Ok(Fit::No),
            _ => self.op,
        };
        let mut e = Enc::default();
        if let (Some(kind), Some(v)) = (self.imm, imm) {
            let len = kind.len(osize.unwrap_or(Width::Q));
            if !kind.fits(v, len) {
                return Ok(Fit::OutOfRange);
            }
            e.imm.extend_from_slice(&v.to_le_bytes()[..len]);
        }
        e.set_pp(self.pp);
        if let Some(w) = osize {
            e.set_width(w);
        }
        e.force_rex =
            reg.as_ref().is_some_and(needs_rex_for_byte) || rm.as_ref().is_some_and(|r| r.2);
        if self.map == MAP_0F {
            e.opcode.push(0x0F);
        }
        match (self.form, reg, &rm) {
            (Form::OpReg, Some(r), _) => {
                e.rex_b = r.reg.number() > 7;
                e.opcode.push(op | (r.reg.number() & 7));
            }
            (_, reg, Some((rm, _, _))) => {
                e.opcode.push(op);
                let field = reg.map_or(self.ext.unwrap_or(0), |r| r.reg.number());
                e.set_modrm(field, rm)?;
            }
            _ => {
                e.opcode.push(op);
                e.modrm = match self.modrm {
                    ModRm::Reg => Some(0xC0 | (self.ext.unwrap_or(0) << 3)),
                    ModRm::Byte(b) => Some(b),
                    _ => None,
                };
                // A branch's displacement is patched by `encode_program`.
                match self.form {
                    Form::Rel32 => e.imm.extend_from_slice(&[0; 4]),
                    Form::Rel8 => e.imm.push(0),
                    _ => {}
                }
            }
        }
        Ok(Fit::Bytes(e.emit()))
    }

    /// Whether the row's opcode is `op` in its map: the opcode itself, its
    /// byte twin, or for [`Form::OpReg`] any of its eight register slots.
    const fn has_opcode(&self, op: u8) -> bool {
        op == self.op
            || matches!(self.op8, Some(op8) if op8 == op)
            || (matches!(self.form, Form::OpReg) && op & !7 == self.op)
    }

    /// Whether the row's mandatory prefix is present.
    fn takes_prefixes(&self, p: &Prefixes) -> bool {
        match self.pp {
            PP_66 => p.p66,
            PP_F3 => p.f3,
            _ => true,
        }
    }

    /// Whether the row takes the ModRM byte: extension and mode.
    fn takes_modrm(&self, modrm: u8) -> bool {
        let is_reg = modrm >> 6 == 3;
        self.ext.is_none_or(|ext| ext == (modrm >> 3) & 7)
            && match self.modrm {
                ModRm::Mem => !is_reg,
                ModRm::Reg => is_reg,
                ModRm::Byte(b) => b == modrm,
                ModRm::Any | ModRm::Absent => true,
            }
    }
}

// ---------------------------------------------------------------------------
// SSE/AVX: one table drives both the encoder and the decoder (§III-E)
// ---------------------------------------------------------------------------

/// Operand pattern of a vector-op table entry; [`VForm::layout`] says
/// where each operand sits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VForm {
    /// `dst(vec) <- r/m(vec|mem)`; VEX.L from the destination class.
    Rm,
    /// [`VForm::Rm`] plus a trailing imm8.
    RmImm,
    /// Store direction: `r/m(vec|mem) <- reg(vec)`.
    Mr,
    /// VEX three-operand: `dst(reg) <- src1(vvvv), src2(r/m)`.
    Rvm,
    /// [`VForm::Rvm`] plus a trailing imm8 (`vperm2f128`, L1 only).
    RvmImm,
    /// `dst(vec, reg field) <- r/m(gpr|mem)`; REX/VEX.W per GPR width.
    VecRm,
    /// `r/m(gpr|mem) <- src(vec, reg field)`.
    RmVec,
    /// `dst(gpr, reg field) <- r/m(vec|mem)` (`pmovmskb`, `cvtsd2si`).
    GprVec,
    /// `dst(gpr, reg field) <- r/m(gpr|mem)` (`crc32`).
    GprRm,
    /// Shift-by-immediate group: vec in r/m (register only), opcode
    /// extension in the reg field.
    ShiftImm(u8),
    /// `vbroadcastss`: destination class from L, source is xmm or memory.
    BcastRm,
    /// `vinsertf128 ymm, ymm, xmm/m128, imm8` (L1 only).
    InsertImm,
    /// `vextractf128 xmm/m128, ymm, imm8` (L1 only).
    ExtractImm,
    /// No operands; the bool is the required VEX.L (`vzeroupper`/`vzeroall`).
    Bare(bool),
}

/// The register kind of a vector-op operand. In the r/m slot, memory is
/// the alternative: qword-wide, or the GPR width where every operand is a
/// GPR (`crc32`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// The entry's class: xmm for legacy SSE, xmm or ymm by VEX.L.
    V,
    /// Always xmm.
    X,
    /// Always ymm: the entry needs VEX.L = 1.
    Y,
    /// A 32- or 64-bit GPR, by REX/VEX.W.
    G,
}

/// Where a vector-op operand sits in the encoding.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Reg(Kind),
    Rm(Kind),
    Vvvv(Kind),
}

impl VForm {
    /// The operands in Intel order, and whether an unsigned imm8 follows.
    fn layout(self) -> (&'static [Slot], bool) {
        use Kind::{G, V, X, Y};
        use Slot::{Reg, Rm, Vvvv};
        match self {
            VForm::Rm => (&[Reg(V), Rm(V)], false),
            VForm::RmImm => (&[Reg(V), Rm(V)], true),
            VForm::Mr => (&[Rm(V), Reg(V)], false),
            VForm::Rvm => (&[Reg(V), Vvvv(V), Rm(V)], false),
            VForm::RvmImm => (&[Reg(Y), Vvvv(Y), Rm(Y)], true),
            VForm::VecRm => (&[Reg(X), Rm(G)], false),
            VForm::RmVec => (&[Rm(G), Reg(X)], false),
            VForm::GprVec => (&[Reg(G), Rm(X)], false),
            VForm::GprRm => (&[Reg(G), Rm(G)], false),
            VForm::ShiftImm(_) => (&[Rm(X)], true),
            VForm::BcastRm => (&[Reg(V), Rm(X)], false),
            VForm::InsertImm => (&[Reg(Y), Vvvv(Y), Rm(X)], true),
            VForm::ExtractImm => (&[Rm(X), Reg(Y)], true),
            VForm::Bare(_) => (&[], false),
        }
    }
}

/// One encodable vector-instruction form. `w: Some(_)` pins REX/VEX.W (it
/// disambiguates `movd`/`movq` and the FMA ps/pd pairs); `None` derives W
/// from the GPR operand where one exists and encodes W0 otherwise.
struct VecOp {
    m: Mnemonic,
    vex: bool,
    map: u8,
    pp: u8,
    op: u8,
    w: Option<bool>,
    form: VForm,
}

const fn sse(m: Mnemonic, map: u8, pp: u8, op: u8, form: VForm) -> VecOp {
    VecOp {
        m,
        vex: false,
        map,
        pp,
        op,
        w: None,
        form,
    }
}

const fn vex(m: Mnemonic, map: u8, pp: u8, op: u8, form: VForm) -> VecOp {
    VecOp {
        vex: true,
        ..sse(m, map, pp, op, form)
    }
}

impl VecOp {
    /// Pins REX/VEX.W.
    const fn w(self, w: bool) -> VecOp {
        VecOp { w: Some(w), ..self }
    }
}

/// The vector-instruction encoding table. Entry order matters for the
/// *encoder* only: the first entry whose form matches the operand shapes is
/// the canonical encoding (e.g. `movq xmm, m64` prefers `F3 0F 7E`). For the
/// decoder the key `(vex, map, pp, opcode, W, L)` is unique.
#[rustfmt::skip]
const VEC_OPS: &[VecOp] = &[
    // -- SSE moves (load and store opcodes) --------------------------------
    sse(Mnemonic::Movaps, MAP_0F, PP_NONE, 0x28, VForm::Rm),
    sse(Mnemonic::Movaps, MAP_0F, PP_NONE, 0x29, VForm::Mr),
    sse(Mnemonic::Movups, MAP_0F, PP_NONE, 0x10, VForm::Rm),
    sse(Mnemonic::Movups, MAP_0F, PP_NONE, 0x11, VForm::Mr),
    sse(Mnemonic::Movapd, MAP_0F, PP_66, 0x28, VForm::Rm),
    sse(Mnemonic::Movapd, MAP_0F, PP_66, 0x29, VForm::Mr),
    sse(Mnemonic::Movdqa, MAP_0F, PP_66, 0x6F, VForm::Rm),
    sse(Mnemonic::Movdqa, MAP_0F, PP_66, 0x7F, VForm::Mr),
    sse(Mnemonic::Movdqu, MAP_0F, PP_F3, 0x6F, VForm::Rm),
    sse(Mnemonic::Movdqu, MAP_0F, PP_F3, 0x7F, VForm::Mr),
    sse(Mnemonic::Movq, MAP_0F, PP_F3, 0x7E, VForm::Rm), // xmm <- xmm/m64
    sse(Mnemonic::Movd, MAP_0F, PP_66, 0x6E, VForm::VecRm).w(false),
    sse(Mnemonic::Movd, MAP_0F, PP_66, 0x7E, VForm::RmVec).w(false),
    sse(Mnemonic::Movq, MAP_0F, PP_66, 0x6E, VForm::VecRm).w(true),
    sse(Mnemonic::Movq, MAP_0F, PP_66, 0x7E, VForm::RmVec).w(true),
    // -- SSE packed/scalar float -------------------------------------------
    sse(Mnemonic::Addps, MAP_0F, PP_NONE, 0x58, VForm::Rm),
    sse(Mnemonic::Addpd, MAP_0F, PP_66, 0x58, VForm::Rm),
    sse(Mnemonic::Addss, MAP_0F, PP_F3, 0x58, VForm::Rm),
    sse(Mnemonic::Addsd, MAP_0F, PP_F2, 0x58, VForm::Rm),
    sse(Mnemonic::Subps, MAP_0F, PP_NONE, 0x5C, VForm::Rm),
    sse(Mnemonic::Subpd, MAP_0F, PP_66, 0x5C, VForm::Rm),
    sse(Mnemonic::Subss, MAP_0F, PP_F3, 0x5C, VForm::Rm),
    sse(Mnemonic::Subsd, MAP_0F, PP_F2, 0x5C, VForm::Rm),
    sse(Mnemonic::Mulps, MAP_0F, PP_NONE, 0x59, VForm::Rm),
    sse(Mnemonic::Mulpd, MAP_0F, PP_66, 0x59, VForm::Rm),
    sse(Mnemonic::Mulss, MAP_0F, PP_F3, 0x59, VForm::Rm),
    sse(Mnemonic::Mulsd, MAP_0F, PP_F2, 0x59, VForm::Rm),
    sse(Mnemonic::Divps, MAP_0F, PP_NONE, 0x5E, VForm::Rm),
    sse(Mnemonic::Divpd, MAP_0F, PP_66, 0x5E, VForm::Rm),
    sse(Mnemonic::Divss, MAP_0F, PP_F3, 0x5E, VForm::Rm),
    sse(Mnemonic::Divsd, MAP_0F, PP_F2, 0x5E, VForm::Rm),
    sse(Mnemonic::Sqrtps, MAP_0F, PP_NONE, 0x51, VForm::Rm),
    sse(Mnemonic::Sqrtpd, MAP_0F, PP_66, 0x51, VForm::Rm),
    sse(Mnemonic::Sqrtss, MAP_0F, PP_F3, 0x51, VForm::Rm),
    sse(Mnemonic::Sqrtsd, MAP_0F, PP_F2, 0x51, VForm::Rm),
    sse(Mnemonic::Maxps, MAP_0F, PP_NONE, 0x5F, VForm::Rm),
    sse(Mnemonic::Minps, MAP_0F, PP_NONE, 0x5D, VForm::Rm),
    sse(Mnemonic::Andps, MAP_0F, PP_NONE, 0x54, VForm::Rm),
    sse(Mnemonic::Orps, MAP_0F, PP_NONE, 0x56, VForm::Rm),
    sse(Mnemonic::Xorps, MAP_0F, PP_NONE, 0x57, VForm::Rm),
    sse(Mnemonic::Comiss, MAP_0F, PP_NONE, 0x2F, VForm::Rm),
    sse(Mnemonic::Comisd, MAP_0F, PP_66, 0x2F, VForm::Rm),
    sse(Mnemonic::Cvtss2sd, MAP_0F, PP_F3, 0x5A, VForm::Rm),
    sse(Mnemonic::Cvtsd2ss, MAP_0F, PP_F2, 0x5A, VForm::Rm),
    sse(Mnemonic::Cvtsi2sd, MAP_0F, PP_F2, 0x2A, VForm::VecRm),
    sse(Mnemonic::Cvtsd2si, MAP_0F, PP_F2, 0x2D, VForm::GprVec),
    sse(Mnemonic::Haddps, MAP_0F, PP_F2, 0x7C, VForm::Rm),
    sse(Mnemonic::Shufps, MAP_0F, PP_NONE, 0xC6, VForm::RmImm),
    sse(Mnemonic::Pshufd, MAP_0F, PP_66, 0x70, VForm::RmImm),
    sse(Mnemonic::Roundps, MAP_0F3A, PP_66, 0x08, VForm::RmImm),
    sse(Mnemonic::Blendps, MAP_0F3A, PP_66, 0x0C, VForm::RmImm),
    sse(Mnemonic::Dpps, MAP_0F3A, PP_66, 0x40, VForm::RmImm),
    sse(Mnemonic::Pclmulqdq, MAP_0F3A, PP_66, 0x44, VForm::RmImm),
    // -- SSE packed integer ------------------------------------------------
    sse(Mnemonic::Paddb, MAP_0F, PP_66, 0xFC, VForm::Rm),
    sse(Mnemonic::Paddw, MAP_0F, PP_66, 0xFD, VForm::Rm),
    sse(Mnemonic::Paddd, MAP_0F, PP_66, 0xFE, VForm::Rm),
    sse(Mnemonic::Paddq, MAP_0F, PP_66, 0xD4, VForm::Rm),
    sse(Mnemonic::Psubb, MAP_0F, PP_66, 0xF8, VForm::Rm),
    sse(Mnemonic::Psubd, MAP_0F, PP_66, 0xFA, VForm::Rm),
    sse(Mnemonic::Psubq, MAP_0F, PP_66, 0xFB, VForm::Rm),
    sse(Mnemonic::Pmullw, MAP_0F, PP_66, 0xD5, VForm::Rm),
    sse(Mnemonic::Pmuludq, MAP_0F, PP_66, 0xF4, VForm::Rm),
    sse(Mnemonic::Pmaddwd, MAP_0F, PP_66, 0xF5, VForm::Rm),
    sse(Mnemonic::Pand, MAP_0F, PP_66, 0xDB, VForm::Rm),
    sse(Mnemonic::Por, MAP_0F, PP_66, 0xEB, VForm::Rm),
    sse(Mnemonic::Pxor, MAP_0F, PP_66, 0xEF, VForm::Rm),
    sse(Mnemonic::Pcmpeqb, MAP_0F, PP_66, 0x74, VForm::Rm),
    sse(Mnemonic::Pcmpeqd, MAP_0F, PP_66, 0x76, VForm::Rm),
    sse(Mnemonic::Pcmpgtd, MAP_0F, PP_66, 0x66, VForm::Rm),
    sse(Mnemonic::Psllw, MAP_0F, PP_66, 0xF1, VForm::Rm),
    sse(Mnemonic::Pslld, MAP_0F, PP_66, 0xF2, VForm::Rm),
    sse(Mnemonic::Psllq, MAP_0F, PP_66, 0xF3, VForm::Rm),
    sse(Mnemonic::Psllw, MAP_0F, PP_66, 0x71, VForm::ShiftImm(6)),
    sse(Mnemonic::Pslld, MAP_0F, PP_66, 0x72, VForm::ShiftImm(6)),
    sse(Mnemonic::Psllq, MAP_0F, PP_66, 0x73, VForm::ShiftImm(6)),
    sse(Mnemonic::Punpcklbw, MAP_0F, PP_66, 0x60, VForm::Rm),
    sse(Mnemonic::Punpckldq, MAP_0F, PP_66, 0x62, VForm::Rm),
    sse(Mnemonic::Packsswb, MAP_0F, PP_66, 0x63, VForm::Rm),
    sse(Mnemonic::Pmovmskb, MAP_0F, PP_66, 0xD7, VForm::GprVec),
    sse(Mnemonic::Psadbw, MAP_0F, PP_66, 0xF6, VForm::Rm),
    sse(Mnemonic::Pshufb, MAP_0F38, PP_66, 0x00, VForm::Rm),
    sse(Mnemonic::Phaddd, MAP_0F38, PP_66, 0x02, VForm::Rm),
    sse(Mnemonic::Ptest, MAP_0F38, PP_66, 0x17, VForm::Rm),
    sse(Mnemonic::Pabsd, MAP_0F38, PP_66, 0x1E, VForm::Rm),
    sse(Mnemonic::Pminsd, MAP_0F38, PP_66, 0x39, VForm::Rm),
    sse(Mnemonic::Pmaxsd, MAP_0F38, PP_66, 0x3D, VForm::Rm),
    sse(Mnemonic::Pmulld, MAP_0F38, PP_66, 0x40, VForm::Rm),
    // -- crypto / misc -----------------------------------------------------
    sse(Mnemonic::Aesenc, MAP_0F38, PP_66, 0xDC, VForm::Rm),
    sse(Mnemonic::Aesenclast, MAP_0F38, PP_66, 0xDD, VForm::Rm),
    sse(Mnemonic::Aesdec, MAP_0F38, PP_66, 0xDE, VForm::Rm),
    sse(Mnemonic::Sha256rnds2, MAP_0F38, PP_NONE, 0xCB, VForm::Rm),
    sse(Mnemonic::Crc32, MAP_0F38, PP_F2, 0xF1, VForm::GprRm),
    // -- AVX (VEX-coded) ---------------------------------------------------
    vex(Mnemonic::Vaddps, MAP_0F, PP_NONE, 0x58, VForm::Rvm),
    vex(Mnemonic::Vaddpd, MAP_0F, PP_66, 0x58, VForm::Rvm),
    vex(Mnemonic::Vmulps, MAP_0F, PP_NONE, 0x59, VForm::Rvm),
    vex(Mnemonic::Vmulpd, MAP_0F, PP_66, 0x59, VForm::Rvm),
    vex(Mnemonic::Vdivps, MAP_0F, PP_NONE, 0x5E, VForm::Rvm),
    vex(Mnemonic::Vdivpd, MAP_0F, PP_66, 0x5E, VForm::Rvm),
    vex(Mnemonic::Vsqrtps, MAP_0F, PP_NONE, 0x51, VForm::Rm),
    vex(Mnemonic::Vfmadd132ps, MAP_0F38, PP_66, 0x98, VForm::Rvm).w(false),
    vex(Mnemonic::Vfmadd213ps, MAP_0F38, PP_66, 0xA8, VForm::Rvm).w(false),
    vex(Mnemonic::Vfmadd231ps, MAP_0F38, PP_66, 0xB8, VForm::Rvm).w(false),
    vex(Mnemonic::Vfmadd231pd, MAP_0F38, PP_66, 0xB8, VForm::Rvm).w(true),
    vex(Mnemonic::Vpaddd, MAP_0F, PP_66, 0xFE, VForm::Rvm),
    vex(Mnemonic::Vpaddq, MAP_0F, PP_66, 0xD4, VForm::Rvm),
    vex(Mnemonic::Vpmulld, MAP_0F38, PP_66, 0x40, VForm::Rvm),
    vex(Mnemonic::Vpand, MAP_0F, PP_66, 0xDB, VForm::Rvm),
    vex(Mnemonic::Vpor, MAP_0F, PP_66, 0xEB, VForm::Rvm),
    vex(Mnemonic::Vpxor, MAP_0F, PP_66, 0xEF, VForm::Rvm),
    vex(Mnemonic::Vpermilps, MAP_0F38, PP_66, 0x0C, VForm::Rvm),
    vex(Mnemonic::Vpermilps, MAP_0F3A, PP_66, 0x04, VForm::RmImm),
    vex(Mnemonic::Vperm2f128, MAP_0F3A, PP_66, 0x06, VForm::RvmImm),
    vex(Mnemonic::Vbroadcastss, MAP_0F38, PP_66, 0x18, VForm::BcastRm),
    vex(Mnemonic::Vinsertf128, MAP_0F3A, PP_66, 0x18, VForm::InsertImm),
    vex(Mnemonic::Vextractf128, MAP_0F3A, PP_66, 0x19, VForm::ExtractImm),
    vex(Mnemonic::Vzeroupper, MAP_0F, PP_NONE, 0x77, VForm::Bare(false)),
    vex(Mnemonic::Vzeroall, MAP_0F, PP_NONE, 0x77, VForm::Bare(true)),
];

/// Assembles a VEX-prefixed instruction from a filled [`Enc`] (modrm, sib,
/// disp, imm and the R/X/B extension flags) plus the VEX fields. Uses the
/// 2-byte `C5` form whenever it can represent the instruction.
fn emit_vex(e: &Enc, entry: &VecOp, w: bool, l: bool, vvvv: u8) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    let vbar = (!vvvv) & 0x0F;
    let r = !e.rex_r as u8;
    if entry.map == MAP_0F && !w && !e.rex_x && !e.rex_b {
        out.push(0xC5);
        out.push((r << 7) | (vbar << 3) | ((l as u8) << 2) | entry.pp);
    } else {
        out.push(0xC4);
        out.push((r << 7) | ((!e.rex_x as u8) << 6) | ((!e.rex_b as u8) << 5) | entry.map);
        out.push(((w as u8) << 7) | (vbar << 3) | ((l as u8) << 2) | entry.pp);
    }
    out.push(entry.op);
    if let Some(m) = e.modrm {
        out.push(m);
    }
    if let Some(s) = e.sib {
        out.push(s);
    }
    out.extend_from_slice(&e.disp);
    out.extend_from_slice(&e.imm);
    out
}

/// Finishes a legacy-SSE encoding: mandatory prefix, escape map, REX.
fn emit_sse(mut e: Enc, entry: &VecOp, w: bool) -> Vec<u8> {
    e.set_pp(entry.pp);
    e.rex_w = w;
    e.opcode = match entry.map {
        MAP_0F38 => vec![0x0F, 0x38, entry.op],
        MAP_0F3A => vec![0x0F, 0x3A, entry.op],
        _ => vec![0x0F, entry.op],
    };
    e.emit()
}

/// Finishes an entry once the ModRM side is set: legacy or VEX emission.
fn emit_entry(e: Enc, entry: &VecOp, w: bool, l: bool, vvvv: u8) -> Vec<u8> {
    if entry.vex {
        emit_vex(&e, entry, w, l, vvvv)
    } else {
        emit_sse(e, entry, w)
    }
}

/// Encodes `inst` with one vector-op entry: its operand kinds, classes and
/// widths must fit the entry's layout.
fn try_encode_vec(entry: &VecOp, inst: &Instruction) -> Result<Fit, EncodeError> {
    let (slots, has_imm) = entry.form.layout();
    let ops = inst.operands.as_slice();
    if ops.len() != slots.len() + usize::from(has_imm) {
        return Ok(Fit::No);
    }
    // Legacy SSE is xmm only; VEX takes its class from the first operand.
    let class = match (entry.vex, ops.first()) {
        (true, Some(Operand::Vec(v))) => v.class,
        _ => VecClass::Xmm,
    };
    let only_gprs = slots
        .iter()
        .all(|s| matches!(s, Slot::Reg(Kind::G) | Slot::Rm(Kind::G)));
    let (mut reg, mut rm, mut vvvv) = (0, None, 0);
    let (mut w, mut gpr_width, mut l) = (entry.w.unwrap_or(false), None, class == VecClass::Ymm);
    for (slot, op) in slots.iter().zip(ops) {
        let (Slot::Reg(kind) | Slot::Rm(kind) | Slot::Vvvv(kind)) = *slot;
        let index = match (kind, op) {
            (Kind::V, Operand::Vec(v)) if v.class == class => v.index,
            (Kind::X, Operand::Vec(v)) if v.class == VecClass::Xmm => v.index,
            (Kind::Y, Operand::Vec(v)) if v.class == VecClass::Ymm => {
                l = true;
                v.index
            }
            (Kind::G, Operand::Gpr(g)) if matches!(g.width, Width::D | Width::Q) => {
                if gpr_width.is_some_and(|gw| gw != g.width) {
                    return Ok(Fit::No);
                }
                gpr_width = Some(g.width);
                w = g.width == Width::Q;
                g.reg.number()
            }
            (_, Operand::Mem(m)) if matches!(slot, Slot::Rm(_)) => {
                let width = if only_gprs { gpr_width } else { Some(Width::Q) };
                if width != Some(m.width) || matches!(entry.form, VForm::ShiftImm(_)) {
                    return Ok(Fit::No);
                }
                rm = Some(Rm::Mem(*m));
                continue;
            }
            _ => return Ok(Fit::No),
        };
        match slot {
            Slot::Reg(_) => reg = index,
            Slot::Rm(_) => rm = Some(Rm::Reg(index)),
            Slot::Vvvv(_) => vvvv = index,
        }
    }
    if entry.w.is_some_and(|pin| pin != w) {
        return Ok(Fit::No);
    }
    let mut e = Enc::default();
    if has_imm {
        match ops.last().and_then(Operand::as_imm).map(u8::try_from) {
            Some(Ok(imm)) => e.imm.push(imm),
            Some(Err(_)) => return Ok(Fit::OutOfRange),
            None => return Ok(Fit::No),
        }
    }
    if let VForm::ShiftImm(ext) = entry.form {
        reg = ext;
    }
    if let Some(rm) = rm {
        e.set_modrm(reg, &rm)?;
    }
    if let VForm::Bare(bare_l) = entry.form {
        l = bare_l;
    }
    Ok(Fit::Bytes(emit_entry(e, entry, w, l, vvvv)))
}

/// Encodes an instruction through the vector-op table.
fn encode_vector(inst: &Instruction) -> Result<Vec<u8>, EncodeError> {
    for op in &inst.operands {
        if let Operand::Vec(v) = op {
            if !v.is_vex_encodable() {
                return Err(EncodeError::Unsupported(format!(
                    "{inst} (register {v} needs EVEX; AVX-512 is asm-only)"
                )));
            }
        }
    }
    first_fit(
        inst,
        VEC_OPS
            .iter()
            .filter(|e| e.m == inst.mnemonic)
            .map(|e| try_encode_vec(e, inst)),
    )
}

/// The bytes of the first row that fits `inst`, or the error for an
/// instruction no row takes: `Unsupported` without rows, `OutOfRange` when
/// only an immediate did not fit, `InvalidOperands` otherwise.
fn first_fit(
    inst: &Instruction,
    fits: impl Iterator<Item = Result<Fit, EncodeError>>,
) -> Result<Vec<u8>, EncodeError> {
    let (mut found, mut out_of_range) = (false, false);
    for fit in fits {
        found = true;
        match fit? {
            Fit::Bytes(bytes) => return Ok(bytes),
            Fit::OutOfRange => out_of_range = true,
            Fit::No => {}
        }
    }
    Err(if !found {
        EncodeError::Unsupported(inst.to_string())
    } else if out_of_range {
        EncodeError::OutOfRange(inst.to_string())
    } else {
        EncodeError::InvalidOperands(inst.to_string())
    })
}

/// Encodes one instruction through the table rows of its mnemonic; the
/// magic markers are their own byte sequences.
fn encode_one(inst: &Instruction) -> Result<Vec<u8>, EncodeError> {
    match inst.mnemonic {
        Mnemonic::NbPause => return Ok(MAGIC_PAUSE.to_vec()),
        Mnemonic::NbResume => return Ok(MAGIC_RESUME.to_vec()),
        _ => {}
    }
    let mut rows = GPR_OPS
        .iter()
        .filter(|row| row.m == inst.mnemonic)
        .peekable();
    if rows.peek().is_none() {
        return encode_vector(inst);
    }
    first_fit(inst, rows.map(|row| row.encode(inst)))
}

/// Encodes a whole program, resolving [`Operand::Label`] branch targets to
/// rel32 displacements.
///
/// Returns the code bytes and the byte offset of each instruction.
///
/// # Errors
///
/// Returns [`EncodeError`] if any instruction is outside the supported
/// encoding subset (see the module docs' support matrices) or a label
/// index is out of range.
pub fn encode_program(insts: &[Instruction]) -> Result<(Vec<u8>, Vec<usize>), EncodeError> {
    let mut out = Vec::new();
    let mut offsets = Vec::with_capacity(insts.len());
    // (instruction, end of its rel32 field, target instruction)
    let mut fixups = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        offsets.push(out.len());
        out.extend_from_slice(&encode_one(inst)?);
        // Only the rel32 rows take a label: the field ends the encoding.
        if let Some(Operand::Label(target)) = inst.dst() {
            fixups.push((i, out.len(), *target));
        }
    }
    for (i, end, target) in fixups {
        let target_off = if target == insts.len() {
            out.len()
        } else {
            *offsets.get(target).ok_or_else(|| {
                EncodeError::InvalidOperands(format!("label @{target} out of range"))
            })?
        };
        let rel = i32::try_from(target_off as i64 - end as i64)
            .map_err(|_| EncodeError::OutOfRange(insts[i].to_string()))?;
        out[end - 4..end].copy_from_slice(&rel.to_le_bytes());
    }
    Ok((out, offsets))
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

struct Decoder<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    fn err<T>(&self, message: impl Into<String>) -> Result<T, DecodeError> {
        Err(DecodeError {
            offset: self.pos,
            message: message.into(),
        })
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        match self.bytes.get(self.pos) {
            Some(b) => {
                self.pos += 1;
                Ok(*b)
            }
            None => self.err("unexpected end of code"),
        }
    }

    /// Reads a little-endian `len`-byte (1–8) value, sign-extended.
    fn int(&mut self, len: usize) -> Result<i64, DecodeError> {
        let mut b = [0u8; 8];
        for x in &mut b[..len] {
            *x = self.u8()?;
        }
        Ok(sign_extend(i64::from_le_bytes(b), len))
    }
}

struct Prefixes {
    p66: bool,
    f3: bool,
    f2: bool,
    /// The REX prefix, if any: `40` is a REX prefix with no bits set.
    rex: Option<u8>,
}

impl Prefixes {
    /// The REX prefix's low four bits (`WRXB`), 0 without one.
    fn rex_bits(&self) -> u8 {
        self.rex.map_or(0, |rex| rex & 0x0F)
    }
    fn w(&self) -> bool {
        self.rex_bits() & 8 != 0
    }
    fn bits(&self) -> RexBits {
        let rex = self.rex_bits();
        RexBits {
            r: (rex >> 2) & 1,
            x: (rex >> 1) & 1,
            b: rex & 1,
        }
    }
    /// The SSE mandatory-prefix value (VEX `pp` numbering). As on real
    /// hardware, `F2`/`F3` take precedence over `66` when several prefixes
    /// are present (a stray `66` before `F3 0F 6F` still selects `movdqu`).
    fn pp(&self) -> u8 {
        if self.f3 {
            PP_F3
        } else if self.f2 {
            PP_F2
        } else if self.p66 {
            PP_66
        } else {
            PP_NONE
        }
    }
    fn op_width(&self) -> Width {
        if self.w() {
            Width::Q
        } else if self.p66 {
            Width::W
        } else {
            Width::D
        }
    }
}

/// The register-extension bits, from either a REX prefix or a VEX prefix
/// (where they are stored inverted; [`RexBits`] holds the logical values).
#[derive(Debug, Clone, Copy)]
struct RexBits {
    r: u8,
    x: u8,
    b: u8,
}

/// What the mode-3 (register) r/m side denotes.
#[derive(Debug, Clone, Copy)]
enum RmClass {
    Gpr(Width),
    Vec(VecClass),
}

/// Decodes ModRM (+SIB/disp) returning (reg field, r/m operand). `mem_width`
/// is the access width recorded for a memory operand — the operand width for
/// GPR forms, qword for vector forms (matching the assembler's default).
fn decode_modrm_bits(
    d: &mut Decoder,
    bits: RexBits,
    cls: RmClass,
    mem_width: Width,
) -> Result<(u8, Operand), DecodeError> {
    let modrm = d.u8()?;
    let mode = modrm >> 6;
    let reg = ((modrm >> 3) & 7) | (bits.r << 3);
    let rm_bits = modrm & 7;
    if mode == 3 {
        let reg_num = rm_bits | (bits.b << 3);
        let op = match cls {
            RmClass::Gpr(width) => Operand::Gpr(GprPart {
                reg: Gpr::from_number(reg_num).expect("4-bit register number"),
                width,
            }),
            RmClass::Vec(class) => Operand::Vec(VecReg {
                index: reg_num,
                class,
            }),
        };
        return Ok((reg, op));
    }
    let mut base = None;
    let mut index = None;
    let mut disp: i64 = 0;
    if rm_bits == 4 {
        let sib = d.u8()?;
        let scale = 1u8 << (sib >> 6);
        let idx_num = ((sib >> 3) & 7) | (bits.x << 3);
        let base_bits = sib & 7;
        if idx_num != 4 {
            index = Some((Gpr::from_number(idx_num).unwrap(), scale));
        }
        if base_bits == 5 && mode == 0 {
            disp = d.int(4)?;
        } else {
            base = Some(Gpr::from_number(base_bits | (bits.b << 3)).unwrap());
        }
    } else if rm_bits == 5 && mode == 0 {
        return Err(DecodeError {
            offset: d.pos,
            message: "RIP-relative addressing is not supported".to_string(),
        });
    } else {
        base = Some(Gpr::from_number(rm_bits | (bits.b << 3)).unwrap());
    }
    match mode {
        1 => disp += d.int(1)?,
        2 => disp += d.int(4)?,
        _ => {}
    }
    Ok((
        reg,
        Operand::Mem(MemRef {
            base,
            index,
            disp,
            width: mem_width,
        }),
    ))
}

fn gpr_op(num: u8, width: Width) -> Operand {
    Operand::Gpr(GprPart {
        reg: Gpr::from_number(num).expect("4-bit register number"),
        width,
    })
}

/// Decodes a machine-code buffer into instructions.
///
/// Branch displacements are resolved back to instruction indices
/// ([`Operand::Label`]); a branch to the end of the buffer becomes a label
/// equal to the instruction count. The magic pause/resume sequences decode
/// to [`Mnemonic::NbPause`] / [`Mnemonic::NbResume`].
///
/// # Errors
///
/// Returns [`DecodeError`] on unknown opcodes, truncated instructions, or
/// branches into the middle of an instruction.
pub fn decode_program(bytes: &[u8]) -> Result<Vec<Instruction>, DecodeError> {
    let mut d = Decoder { bytes, pos: 0 };
    let mut insts = Vec::new();
    let mut inst_offsets = Vec::new();
    // (instruction index, absolute target byte offset)
    let mut branch_targets: Vec<(usize, usize)> = Vec::new();

    while d.pos < bytes.len() {
        inst_offsets.push(d.pos);
        if bytes[d.pos..].starts_with(&MAGIC_PAUSE) {
            d.pos += MAGIC_PAUSE.len();
            insts.push(Instruction::new(Mnemonic::NbPause));
            continue;
        }
        if bytes[d.pos..].starts_with(&MAGIC_RESUME) {
            d.pos += MAGIC_RESUME.len();
            insts.push(Instruction::new(Mnemonic::NbResume));
            continue;
        }
        let inst = decode_one(&mut d, &mut |target| {
            branch_targets.push((insts.len(), target));
        })?;
        insts.push(inst);
    }

    for (inst_idx, target) in branch_targets {
        let label = if target == bytes.len() {
            insts.len()
        } else {
            match inst_offsets.binary_search(&target) {
                Ok(i) => i,
                Err(_) => {
                    return Err(DecodeError {
                        offset: target,
                        message: "branch into the middle of an instruction".to_string(),
                    })
                }
            }
        };
        for op in insts[inst_idx].operands.iter_mut() {
            if matches!(op, Operand::Label(_)) {
                *op = Operand::Label(label);
            }
        }
    }
    Ok(insts)
}

fn decode_one(
    d: &mut Decoder,
    on_branch: &mut dyn FnMut(usize),
) -> Result<Instruction, DecodeError> {
    let start = d.pos;
    let mut p = Prefixes {
        p66: false,
        f3: false,
        f2: false,
        rex: None,
    };
    // A REX prefix counts only right before the opcode: x86 ignores one
    // that another prefix follows.
    loop {
        match d.peek() {
            Some(b @ (0x66 | 0xF3 | 0xF2)) => {
                match b {
                    0x66 => p.p66 = true,
                    0xF3 => p.f3 = true,
                    _ => p.f2 = true,
                }
                p.rex = None;
                d.pos += 1;
            }
            Some(b) if (0x40..0x50).contains(&b) => {
                p.rex = Some(b);
                d.pos += 1;
            }
            _ => break,
        }
    }
    let op = d.u8()?;
    let (map, op) = match op {
        0xC4 | 0xC5 => return decode_vex(d, op, &p),
        0x0F => {
            // The 0F 38 / 0F 3A escape maps and the prefix-selected SSE
            // opcodes in the 0F map live in the vector-op table, the rest
            // of the 0F map in the GPR/system table.
            let op = d.u8()?;
            if op == 0x38 || op == 0x3A {
                let map = if op == 0x38 { MAP_0F38 } else { MAP_0F3A };
                let op2 = d.u8()?;
                return match decode_vec_entry(d, false, map, p.pp(), op2, p.w(), false, 0, p.bits())
                {
                    Some(res) => res,
                    None => d.err(format!("unknown opcode 0f {op:02x} {op2:#04x}")),
                };
            }
            if let Some(res) =
                decode_vec_entry(d, false, MAP_0F, p.pp(), op, p.w(), false, 0, p.bits())
            {
                return res;
            }
            (MAP_0F, op)
        }
        _ => (MAP_1B, op),
    };
    // `90` is `xchg eAX, r` with REX.B naming r: `nop` (and `F3 90`
    // `pause`) only while r is eAX. The table has no `90+r` exchange.
    if (map, op, p.bits().b) == (MAP_1B, 0x90, 1) {
        d.pos -= 1;
        return d.err("90 with REX.B is xchg with r8, which decodes only as 87 /r");
    }
    let first = GPR_FIRST[map as usize][op as usize] as usize;
    let mut rows = GPR_OPS
        .get(first..)
        .unwrap_or_default()
        .iter()
        .filter(|row| row.map == map && row.has_opcode(op) && row.takes_prefixes(&p))
        .peekable();
    if rows.peek().is_none() {
        if map == MAP_0F {
            return d.err(format!("unknown opcode 0f {op:#04x}"));
        }
        d.pos = start;
        return d.err(format!("unknown opcode {op:#04x}"));
    }
    decode_gpr(d, &p, rows, op, on_branch)
}

/// Decodes a GPR/system instruction through the first of its opcode's
/// table `rows` whose ModRM extension and mode match.
fn decode_gpr<'a>(
    d: &mut Decoder,
    p: &Prefixes,
    rows: impl Iterator<Item = &'a GprOp> + Clone,
    op: u8,
    on_branch: &mut dyn FnMut(usize),
) -> Result<Instruction, DecodeError> {
    let first = rows.clone().next().expect("the caller checked for a row");
    let row = if first.modrm == ModRm::Absent {
        first
    } else {
        let Some(modrm) = d.peek() else {
            return d.err("unexpected end of code");
        };
        match rows.clone().find(|row| row.takes_modrm(modrm)) {
            Some(row) => row,
            None => {
                let forms: Vec<&str> = rows.map(|row| row.m.name()).collect();
                return d.err(format!(
                    "ModRM {modrm:#04x} is no form of {}",
                    forms.join("/")
                ));
            }
        }
    };
    let w = match row.size {
        // `66 50+r` and `66 58+r` push and pop 16 bits (REX.W overrides
        // the `66`).
        Size::Fixed(_) if row.form == Form::OpReg && p.op_width() == Width::W => {
            d.pos -= 1;
            return d.err(format!(
                "66 makes {} 16-bit, which is not modeled",
                row.m.name()
            ));
        }
        Size::Fixed(w) => w,
        _ if row.op8 == Some(op) => Width::B,
        _ => p.op_width(),
    };
    let rm_w = match row.size {
        Size::Extend(w) => w,
        _ => w,
    };
    let mut inst = Instruction::new(row.m);
    match row.form {
        Form::Bare => {
            if row.modrm != ModRm::Absent {
                d.u8()?;
            }
        }
        Form::RegRm | Form::RmReg | Form::Rm => {
            let modrm_at = d.pos;
            let (reg, rm) = decode_modrm_bits(d, p.bits(), RmClass::Gpr(rm_w), rm_w)?;
            let reg = gpr_op(reg, w);
            let ops: &[Operand] = match row.form {
                Form::RegRm => &[reg, rm],
                Form::RmReg => &[rm, reg],
                _ => &[rm],
            };
            for &op in ops {
                // Without REX, byte registers 4–7 are AH..BH, not SPL..DIL.
                if let (None, Operand::Gpr(g)) = (p.rex, op) {
                    if needs_rex_for_byte(&g) {
                        return Err(DecodeError {
                            offset: modrm_at,
                            message: format!(
                                "without REX, byte register {} is {}, which is not modeled",
                                g.reg.number(),
                                HIGH_BYTE_NAMES[usize::from(g.reg.number()) - 4]
                            ),
                        });
                    }
                }
                inst.operands.push(op);
            }
        }
        Form::OpReg => inst.operands.push(gpr_op((op & 7) | (p.bits().b << 3), w)),
        Form::Rel32 | Form::Rel8 => {
            let rel = d.int(if row.form == Form::Rel32 { 4 } else { 1 })?;
            on_branch((d.pos as i64 + rel) as usize);
            inst.operands.push(Operand::Label(usize::MAX));
        }
    }
    if let Some(kind) = row.imm {
        let v = match kind {
            Imm::One => 1,
            Imm::Count => d.u8()? as i64,
            _ => d.int(kind.len(w))?,
        };
        inst.operands.push(Operand::Imm(v));
    }
    Ok(inst)
}

/// Decodes a VEX-prefixed instruction (`C4` three-byte / `C5` two-byte).
fn decode_vex(d: &mut Decoder, first: u8, p: &Prefixes) -> Result<Instruction, DecodeError> {
    if p.rex.is_some() || p.p66 || p.f3 || p.f2 {
        return d.err("legacy prefixes are not allowed before a VEX prefix");
    }
    let (bits, map, w, vvvv, l, pp);
    if first == 0xC5 {
        let b = d.u8()?;
        bits = RexBits {
            r: (!b >> 7) & 1,
            x: 0,
            b: 0,
        };
        map = MAP_0F;
        w = false;
        vvvv = (!b >> 3) & 0x0F;
        l = b & 4 != 0;
        pp = b & 3;
    } else {
        let b1 = d.u8()?;
        let b2 = d.u8()?;
        bits = RexBits {
            r: (!b1 >> 7) & 1,
            x: (!b1 >> 6) & 1,
            b: (!b1 >> 5) & 1,
        };
        map = b1 & 0x1F;
        w = b2 & 0x80 != 0;
        vvvv = (!b2 >> 3) & 0x0F;
        l = b2 & 4 != 0;
        pp = b2 & 3;
    }
    let op = d.u8()?;
    match decode_vec_entry(d, true, map, pp, op, w, l, vvvv, bits) {
        Some(res) => res,
        None => d.err(format!("unknown VEX opcode map {map} pp {pp} {op:#04x}")),
    }
}

/// Decodes the operands of a table entry. Returns `None` when no entry
/// matches the `(vex, map, pp, opcode, W, L)` key.
#[allow(clippy::too_many_arguments)] // the VEX field set is what it is
fn decode_vec_entry(
    d: &mut Decoder,
    is_vex: bool,
    map: u8,
    pp: u8,
    op: u8,
    w: bool,
    l: bool,
    vvvv: u8,
    bits: RexBits,
) -> Option<Result<Instruction, DecodeError>> {
    let entry = VEC_OPS.iter().find(|e| {
        e.vex == is_vex
            && e.map == map
            && e.pp == pp
            && e.op == op
            && e.w.is_none_or(|req| req == w)
            && match e.form {
                VForm::Bare(req_l) => req_l == l,
                _ => true,
            }
    })?;
    Some(decode_vec_operands(d, entry, w, l, vvvv, bits))
}

/// Decodes the operands of a vector-op entry by its layout.
fn decode_vec_operands(
    d: &mut Decoder,
    entry: &VecOp,
    w: bool,
    l: bool,
    vvvv: u8,
    bits: RexBits,
) -> Result<Instruction, DecodeError> {
    let (slots, has_imm) = entry.form.layout();
    let kinds = slots
        .iter()
        .map(|(Slot::Reg(k) | Slot::Rm(k) | Slot::Vvvv(k))| *k);
    if !l && kinds.clone().any(|k| k == Kind::Y) {
        return d.err(format!("{} requires VEX.L = 1", entry.m));
    }
    let gw = if w { Width::Q } else { Width::D };
    let class = |kind| match kind {
        Kind::V if l => RmClass::Vec(VecClass::Ymm),
        Kind::V | Kind::X => RmClass::Vec(VecClass::Xmm),
        Kind::Y => RmClass::Vec(VecClass::Ymm),
        Kind::G => RmClass::Gpr(gw),
    };
    let operand = |kind, index| match class(kind) {
        RmClass::Vec(class) => Operand::Vec(VecReg { index, class }),
        RmClass::Gpr(width) => gpr_op(index, width),
    };
    let mut inst = Instruction::new(entry.m);
    let rm_kind = slots.iter().find_map(|s| match s {
        Slot::Rm(k) => Some(*k),
        _ => None,
    });
    let (reg, rm) = match rm_kind {
        Some(kind) => {
            let mem_width = if kinds.clone().all(|k| k == Kind::G) {
                gw
            } else {
                Width::Q
            };
            let (reg, rm) = decode_modrm_bits(d, bits, class(kind), mem_width)?;
            (reg, Some(rm))
        }
        None => (0, None),
    };
    if let VForm::ShiftImm(ext) = entry.form {
        if reg & 7 != ext || !matches!(rm, Some(Operand::Vec(_))) {
            return d.err(format!(
                "unsupported {:#04x} group form /{}",
                entry.op,
                reg & 7
            ));
        }
    }
    for slot in slots {
        inst.operands.push(match *slot {
            Slot::Reg(kind) => operand(kind, reg),
            Slot::Rm(_) => rm.expect("the layout has an r/m slot"),
            Slot::Vvvv(kind) => operand(kind, vvvv),
        });
    }
    if has_imm {
        inst.operands.push(Operand::Imm(d.u8()?.into()));
    }
    Ok(inst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::parse_asm;

    fn enc(text: &str) -> Vec<u8> {
        let insts = parse_asm(text).unwrap();
        encode_program(&insts).unwrap().0
    }

    #[test]
    fn golden_bytes() {
        // Cross-checked against an external assembler.
        assert_eq!(enc("nop"), vec![0x90]);
        assert_eq!(enc("mov rax, rbx"), vec![0x48, 0x8B, 0xC3]);
        assert_eq!(enc("mov r14, [r14]"), vec![0x4D, 0x8B, 0x36]);
        assert_eq!(enc("mov [r14], r14"), vec![0x4D, 0x89, 0x36]);
        assert_eq!(enc("add rax, 1"), vec![0x48, 0x83, 0xC0, 0x01]);
        assert_eq!(enc("lfence"), vec![0x0F, 0xAE, 0xE8]);
        assert_eq!(enc("rdpmc"), vec![0x0F, 0x33]);
        assert_eq!(enc("wbinvd"), vec![0x0F, 0x09]);
        assert_eq!(enc("cpuid"), vec![0x0F, 0xA2]);
        assert_eq!(enc("push r15"), vec![0x41, 0x57]);
        assert_eq!(enc("dec r15"), vec![0x49, 0xFF, 0xCF]);
        assert_eq!(
            enc("mov rcx, 0x123456789"),
            vec![0x48, 0xB9, 0x89, 0x67, 0x45, 0x23, 0x01, 0x00, 0x00, 0x00]
        );
        assert_eq!(enc("imul rax, rbx"), vec![0x48, 0x0F, 0xAF, 0xC3]);
        assert_eq!(enc("shl rax, 32"), vec![0x48, 0xC1, 0xE0, 0x20]);
        assert_eq!(enc("clflush [rax]"), vec![0x0F, 0xAE, 0x38]);
    }

    #[test]
    fn rsp_rbp_addressing_quirks() {
        // RSP base needs a SIB byte; RBP base needs a disp8 even when 0.
        assert_eq!(enc("mov rax, [rsp]"), vec![0x48, 0x8B, 0x04, 0x24]);
        assert_eq!(enc("mov rax, [rbp]"), vec![0x48, 0x8B, 0x45, 0x00]);
        assert_eq!(enc("mov rax, [r12]"), vec![0x49, 0x8B, 0x04, 0x24]);
        assert_eq!(enc("mov rax, [r13]"), vec![0x49, 0x8B, 0x45, 0x00]);
    }

    #[test]
    fn loop_encoding_and_rel32() {
        let (bytes, offsets) = encode_program(&parse_asm("l: dec r15; jnz l").unwrap()).unwrap();
        assert_eq!(offsets, vec![0, 3]);
        // jnz rel32 = 0F 85, displacement = 0 - 9 = -9.
        assert_eq!(&bytes[3..5], &[0x0F, 0x85]);
        assert_eq!(i32::from_le_bytes(bytes[5..9].try_into().unwrap()), -9);
    }

    #[test]
    fn decode_round_trip() {
        let programs = [
            "mov r14, [r14]",
            "mov [r14], r14",
            "add rax, 1; sub rbx, rax; xor rcx, rcx",
            "l: dec r15; jnz l; nop",
            "mov rax, [rsp+8]; mov [rbp-16], rbx",
            "lfence; rdpmc; shl rdx, 32; or rax, rdx; lfence",
            "cpuid; wbinvd; rdmsr; wrmsr",
            "movzx rax, bl; movsx rbx, ax",
            "popcnt rax, rbx; lzcnt rcx, rdx; tzcnt rsi, rdi; bsf r8, r9; bsr r10, r11",
            "clflush [r14]; prefetcht0 [r14+64]",
            "mov rax, qword ptr [r14+rcx*8+0x40]",
            "push rbp; pop rbp; xchg rax, rbx",
            "inc byte ptr [rax]; dec qword ptr [rbx+8]",
            "test rax, rax; cmovz rcx, rdx; setnz al",
            "mov eax, 5; add ebx, 0x1000; mov word ptr [rax], 3",
            "bswap r12; xadd rax, rbx",
            "jmp end; add rax, 1; end: nop",
            "rdrand rax; rdseed rbx",
            "mov rax, [0x1000]",
        ];
        for text in programs {
            let insts = parse_asm(text).unwrap();
            let (bytes, _) = encode_program(&insts).unwrap();
            let decoded = decode_program(&bytes).unwrap();
            assert_eq!(insts, decoded, "round trip failed for `{text}`");
        }
    }

    #[test]
    fn magic_markers_encode_and_scan() {
        let insts = parse_asm("nop; nb_pause; mov rax, [r14]; nb_resume; nop").unwrap();
        let (bytes, offsets) = encode_program(&insts).unwrap();
        assert_eq!(&bytes[offsets[1]..offsets[2]], MAGIC_PAUSE);
        assert_eq!(&bytes[offsets[3]..offsets[4]], MAGIC_RESUME);
        let decoded = decode_program(&bytes).unwrap();
        assert_eq!(decoded, insts);
    }

    #[test]
    fn golden_vector_bytes() {
        // Cross-checked against an external assembler.
        assert_eq!(enc("addps xmm0, xmm1"), vec![0x0F, 0x58, 0xC1]);
        assert_eq!(enc("addpd xmm2, xmm3"), vec![0x66, 0x0F, 0x58, 0xD3]);
        assert_eq!(enc("addsd xmm0, xmm1"), vec![0xF2, 0x0F, 0x58, 0xC1]);
        assert_eq!(enc("pxor xmm10, xmm11"), vec![0x66, 0x45, 0x0F, 0xEF, 0xD3]);
        assert_eq!(enc("movaps xmm0, [r14]"), vec![0x41, 0x0F, 0x28, 0x06]);
        assert_eq!(enc("movaps [r14], xmm0"), vec![0x41, 0x0F, 0x29, 0x06]);
        assert_eq!(enc("movq xmm1, rax"), vec![0x66, 0x48, 0x0F, 0x6E, 0xC8]);
        assert_eq!(enc("movd eax, xmm2"), vec![0x66, 0x0F, 0x7E, 0xD0]);
        assert_eq!(enc("movq xmm4, xmm5"), vec![0xF3, 0x0F, 0x7E, 0xE5]);
        assert_eq!(
            enc("pshufd xmm0, xmm1, 0"),
            vec![0x66, 0x0F, 0x70, 0xC1, 0x00]
        );
        assert_eq!(enc("psllq xmm3, 63"), vec![0x66, 0x0F, 0x73, 0xF3, 0x3F]);
        assert_eq!(
            enc("cvtsi2sd xmm0, rax"),
            vec![0xF2, 0x48, 0x0F, 0x2A, 0xC0]
        );
        assert_eq!(enc("pmovmskb eax, xmm3"), vec![0x66, 0x0F, 0xD7, 0xC3]);
        assert_eq!(enc("pshufb xmm0, xmm1"), vec![0x66, 0x0F, 0x38, 0x00, 0xC1]);
        assert_eq!(
            enc("crc32 rax, rbx"),
            vec![0xF2, 0x48, 0x0F, 0x38, 0xF1, 0xC3]
        );
        // VEX: two-byte form when possible, three-byte otherwise.
        assert_eq!(enc("vaddps ymm0, ymm1, ymm2"), vec![0xC5, 0xF4, 0x58, 0xC2]);
        assert_eq!(enc("vaddps xmm0, xmm1, xmm2"), vec![0xC5, 0xF0, 0x58, 0xC2]);
        assert_eq!(
            enc("vfmadd231ps ymm0, ymm1, ymm2"),
            vec![0xC4, 0xE2, 0x75, 0xB8, 0xC2]
        );
        assert_eq!(enc("vzeroupper"), vec![0xC5, 0xF8, 0x77]);
        assert_eq!(enc("vzeroall"), vec![0xC5, 0xFC, 0x77]);
        assert_eq!(
            enc("vextractf128 xmm2, ymm3, 1"),
            vec![0xC4, 0xE3, 0x7D, 0x19, 0xDA, 0x01]
        );
        assert_eq!(
            enc("vinsertf128 ymm4, ymm5, xmm6, 1"),
            vec![0xC4, 0xE3, 0x55, 0x18, 0xE6, 0x01]
        );
    }

    #[test]
    fn vector_round_trips_with_high_registers_and_memory() {
        for text in [
            "vaddps ymm8, ymm9, ymm10",
            "vpxor xmm13, xmm14, xmm15",
            "vfmadd231ps ymm1, ymm2, [r14+64]",
            "vfmadd231pd ymm3, ymm4, ymm5",
            "movdqu xmm9, [r13+r12*4-0x20]",
            "vbroadcastss ymm15, xmm0",
            "vbroadcastss xmm1, [r14]",
            "vpermilps ymm7, ymm8, ymm9",
            "vpermilps ymm10, ymm11, 0x1b",
            "vperm2f128 ymm12, ymm13, ymm14, 0x21",
        ] {
            let insts = parse_asm(text).unwrap();
            let (bytes, _) = encode_program(&insts).unwrap();
            assert_eq!(
                decode_program(&bytes).unwrap(),
                insts,
                "round trip failed for `{text}`"
            );
        }
    }

    #[test]
    fn evex_only_and_vsib_forms_are_rejected_not_wrong() {
        // AVX-512 registers need EVEX; gathers need VSIB — both stay
        // asm/simulator-only and must be rejected, never mis-encoded.
        for text in [
            "vaddps zmm0, zmm1, zmm2",
            "addps xmm16, xmm17",
            "vgatherdps xmm0, [r14], xmm2",
        ] {
            let insts = parse_asm(text).unwrap();
            assert!(
                matches!(encode_program(&insts), Err(EncodeError::Unsupported(_))),
                "`{text}` must be Unsupported"
            );
        }
        // Legacy SSE on ymm is architecturally impossible, not unsupported.
        let insts = parse_asm("addps ymm0, ymm1").unwrap();
        assert!(matches!(
            encode_program(&insts),
            Err(EncodeError::InvalidOperands(_))
        ));
    }

    #[test]
    fn explicit_size_prefixes_on_vector_memory_operands_round_trip() {
        // Vector memory accesses are modeled at qword granularity; an
        // explicit `dword ptr` is normalized by the assembler, so the asm
        // path and the (width-less) byte path agree.
        for text in [
            "addps xmm0, dword ptr [r14]",
            "movd xmm0, dword ptr [r14]",
            "movq [r14+8], xmm7",
            "vaddps ymm0, ymm1, ymmword ptr [r14]",
        ] {
            let insts = parse_asm(text).unwrap();
            let (bytes, _) = encode_program(&insts).unwrap();
            assert_eq!(
                decode_program(&bytes).unwrap(),
                insts,
                "round trip failed for `{text}`"
            );
        }
    }

    #[test]
    fn f2_f3_mandatory_prefixes_beat_a_stray_66() {
        // 66 F3 0F 6F /r is movdqu on real hardware (F2/F3 win over 66);
        // external code bytes may legally carry such redundant prefixes.
        let decoded = decode_program(&[0x66, 0xF3, 0x0F, 0x6F, 0xC1]).unwrap();
        assert_eq!(decoded, parse_asm("movdqu xmm0, xmm1").unwrap());
        // 66 F2 0F 58 /r is addsd, not addpd.
        let decoded = decode_program(&[0x66, 0xF2, 0x0F, 0x58, 0xC1]).unwrap();
        assert_eq!(decoded, parse_asm("addsd xmm0, xmm1").unwrap());
    }

    #[test]
    fn stray_vex_bytes_are_decode_errors() {
        // A VEX prefix after a legacy prefix is invalid.
        assert!(decode_program(&[0x66, 0xC5, 0xF8, 0x77]).is_err());
        // Unknown VEX opcode.
        assert!(decode_program(&[0xC5, 0xF8, 0x99]).is_err());
        // Truncated VEX prefix.
        assert!(decode_program(&[0xC4, 0xE2]).is_err());
    }

    #[test]
    fn truncated_code_is_error() {
        let err = decode_program(&[0x48, 0x8B]).unwrap_err();
        assert!(err.message.contains("end of code"));
    }

    #[test]
    fn unknown_opcode_is_error() {
        assert!(decode_program(&[0x0F, 0xFF]).is_err());
    }

    #[test]
    fn register_forms_decode_as_x86_does() {
        // LEA with mod=11 is #UD.
        let err = decode_program(&[0x8D, 0xE8]).unwrap_err();
        assert!(err.message.contains("lea"), "{err}");
        // Group 15 fences ignore the r/m field.
        for (byte, fence) in [(0xE8, "lfence"), (0xEF, "lfence"), (0xF3, "mfence")]
            .into_iter()
            .chain((0xF8..=0xFF).map(|b| (b, "sfence")))
        {
            let decoded = decode_program(&[0x0F, 0xAE, byte]).unwrap();
            assert_eq!(decoded, parse_asm(fence).unwrap(), "0f ae {byte:02x}");
        }
        // Other group-15 register forms stay unsupported.
        assert!(decode_program(&[0x0F, 0xAE, 0xC0]).is_err());
        // A prefetch with a register operand is a hint NOP.
        for byte in [0xC1, 0xC8, 0xD7, 0xDF] {
            let decoded = decode_program(&[0x0F, 0x18, byte]).unwrap();
            assert_eq!(decoded, parse_asm("nop").unwrap(), "0f 18 {byte:02x}");
        }
        // The memory forms are unchanged.
        assert_eq!(
            decode_program(&[0x0F, 0xAE, 0x38, 0x0F, 0x18, 0x01]).unwrap(),
            parse_asm("clflush [rax]; prefetchnta [rcx]").unwrap()
        );
    }

    #[test]
    fn byte_width_imul_round_trips() {
        // F6 /5 is `imul r/m8`; it must not re-encode as F7 /5.
        let decoded = decode_program(&[0xF6, 0xE9]).unwrap();
        assert_eq!(decoded, parse_asm("imul cl").unwrap());
        let (encoded, _) = encode_program(&decoded).unwrap();
        assert_eq!(encoded, [0xF6, 0xE9]);
        assert_eq!(decode_program(&encoded).unwrap(), decoded);
    }

    #[test]
    fn three_operand_imul_round_trips() {
        // `6B /r ib` when the immediate fits a sign-extended byte, else
        // `69 /r` with an immediate of the operand size.
        for (text, bytes) in [
            ("imul rax, rsi, 3", &[0x48, 0x6B, 0xC6, 0x03][..]),
            (
                "imul r9d, [r14+8], 0x1000",
                &[0x45, 0x69, 0x4E, 0x08, 0, 0x10, 0, 0],
            ),
            ("imul ax, bx, -300", &[0x66, 0x69, 0xC3, 0xD4, 0xFE]),
        ] {
            assert_eq!(enc(text), bytes, "{text}");
            assert_eq!(decode_program(bytes).unwrap(), parse_asm(text).unwrap());
        }
        // The two-operand shorthand would come back with three operands,
        // and an immediate wider than its field would come back truncated.
        for (text, refused) in [
            ("imul rax, 3", "InvalidOperands"),
            ("imul rax, rsi, 0x123456789", "OutOfRange"),
            ("imul ax, bx, 0x8000", "OutOfRange"),
        ] {
            let err = encode_program(&parse_asm(text).unwrap()).unwrap_err();
            assert!(format!("{err:?}").starts_with(refused), "{text}: {err:?}");
        }
    }
}
