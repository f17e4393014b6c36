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
use crate::reg::{Gpr, GprPart, VecClass, VecReg, Width};
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
    /// The instruction form has no encoder support (never silently
    /// mis-encoded; see the module docs).
    Unsupported(String),
    /// The operand combination is architecturally invalid.
    InvalidOperands(String),
    /// A displacement or immediate does not fit its encoding field.
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

fn rm_of(op: &Operand) -> Option<(Rm, Width)> {
    match op {
        Operand::Gpr(g) => Some((Rm::Reg(g.reg.number()), g.width)),
        Operand::Mem(m) => Some((Rm::Mem(*m), m.width)),
        _ => None,
    }
}

fn needs_rex_for_byte(g: &GprPart) -> bool {
    g.width == Width::B && (4..8).contains(&g.reg.number())
}

/// ALU group index for the 0x80-family opcodes.
fn alu_index(m: Mnemonic) -> Option<u8> {
    Some(match m {
        Mnemonic::Add => 0,
        Mnemonic::Or => 1,
        Mnemonic::Adc => 2,
        Mnemonic::Sbb => 3,
        Mnemonic::And => 4,
        Mnemonic::Sub => 5,
        Mnemonic::Xor => 6,
        Mnemonic::Cmp => 7,
        _ => return None,
    })
}

fn shift_ext(m: Mnemonic) -> Option<u8> {
    Some(match m {
        Mnemonic::Rol => 0,
        Mnemonic::Ror => 1,
        Mnemonic::Shl => 4,
        Mnemonic::Shr => 5,
        Mnemonic::Sar => 7,
        _ => return None,
    })
}

// ---------------------------------------------------------------------------
// SSE/AVX: one table drives both the encoder and the decoder (§III-E)
// ---------------------------------------------------------------------------

/// Escape-map numbers, identical to the VEX `mmmmm` field values.
const MAP_0F: u8 = 1;
const MAP_0F38: u8 = 2;
const MAP_0F3A: u8 = 3;

/// Mandatory-prefix numbers, identical to the VEX `pp` field values.
const PP_NONE: u8 = 0;
const PP_66: u8 = 1;
const PP_F3: u8 = 2;
const PP_F2: u8 = 3;

/// Operand pattern of a vector-op table entry.
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
    /// Shift-by-immediate group: vec in r/m, opcode extension in reg field.
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

const fn ssew(m: Mnemonic, map: u8, pp: u8, op: u8, w: bool, form: VForm) -> VecOp {
    VecOp {
        w: Some(w),
        ..sse(m, map, pp, op, form)
    }
}

const fn vex(m: Mnemonic, map: u8, pp: u8, op: u8, form: VForm) -> VecOp {
    VecOp {
        vex: true,
        ..sse(m, map, pp, op, form)
    }
}

const fn vexw(m: Mnemonic, map: u8, pp: u8, op: u8, w: bool, form: VForm) -> VecOp {
    VecOp {
        w: Some(w),
        ..vex(m, map, pp, op, form)
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
    ssew(Mnemonic::Movd, MAP_0F, PP_66, 0x6E, false, VForm::VecRm),
    ssew(Mnemonic::Movd, MAP_0F, PP_66, 0x7E, false, VForm::RmVec),
    ssew(Mnemonic::Movq, MAP_0F, PP_66, 0x6E, true, VForm::VecRm),
    ssew(Mnemonic::Movq, MAP_0F, PP_66, 0x7E, true, VForm::RmVec),
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
    vexw(Mnemonic::Vfmadd132ps, MAP_0F38, PP_66, 0x98, false, VForm::Rvm),
    vexw(Mnemonic::Vfmadd213ps, MAP_0F38, PP_66, 0xA8, false, VForm::Rvm),
    vexw(Mnemonic::Vfmadd231ps, MAP_0F38, PP_66, 0xB8, false, VForm::Rvm),
    vexw(Mnemonic::Vfmadd231pd, MAP_0F38, PP_66, 0xB8, true, VForm::Rvm),
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

/// Extracts a vector register of the given class.
fn vec_of(op: &Operand, class: VecClass) -> Option<VecReg> {
    match op {
        Operand::Vec(v) if v.class == class => Some(*v),
        _ => None,
    }
}

/// Extracts a vector register (class-checked) or memory r/m side.
fn rm_vec_or_mem(op: &Operand, class: VecClass) -> Option<Rm> {
    match op {
        Operand::Vec(v) if v.class == class => Some(Rm::Reg(v.index)),
        Operand::Mem(m) => Some(Rm::Mem(*m)),
        _ => None,
    }
}

/// Extracts a GPR of width D or Q (returning the W bit) or memory r/m side.
/// For memory operands the width falls back to `mem_w`.
fn rm_gpr_or_mem(op: &Operand, mem_w: bool) -> Option<(Rm, bool)> {
    match op {
        Operand::Gpr(g) if g.width == Width::Q => Some((Rm::Reg(g.reg.number()), true)),
        Operand::Gpr(g) if g.width == Width::D => Some((Rm::Reg(g.reg.number()), false)),
        Operand::Mem(m) => Some((Rm::Mem(*m), mem_w)),
        _ => None,
    }
}

fn imm8_of(op: &Operand, inst: &Instruction) -> Result<u8, EncodeError> {
    let v = op
        .as_imm()
        .ok_or_else(|| EncodeError::InvalidOperands(inst.to_string()))?;
    u8::try_from(v).map_err(|_| EncodeError::OutOfRange(inst.to_string()))
}

/// The VEX.L bit for an operand set: 1 iff the governing register is ymm.
fn l_bit(class: VecClass) -> bool {
    class == VecClass::Ymm
}

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
    match entry.pp {
        PP_66 => e.prefix66 = true,
        PP_F3 => e.prefix_f3 = true,
        PP_F2 => e.prefix_f2 = true,
        _ => {}
    }
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

/// Tries to encode `inst` against one table entry. `Ok(None)` means the
/// entry's operand pattern does not match (the caller tries the next entry);
/// errors are raised only for patterns that matched structurally.
fn try_encode_vec(entry: &VecOp, inst: &Instruction) -> Result<Option<Vec<u8>>, EncodeError> {
    // Legacy SSE operates on xmm only; VEX forms derive L from the class.
    let sse_class = VecClass::Xmm;
    let ops = inst.operands.as_slice();
    let w_default = entry.w.unwrap_or(false);
    let mut e = Enc::default();
    let bytes = match entry.form {
        VForm::Rm | VForm::RmImm => {
            let n = if entry.form == VForm::Rm { 2 } else { 3 };
            if ops.len() != n {
                return Ok(None);
            }
            let class = match (entry.vex, ops[0]) {
                (false, _) => sse_class,
                (true, Operand::Vec(v)) => v.class,
                _ => return Ok(None),
            };
            let (Some(d), Some(rm)) = (vec_of(&ops[0], class), rm_vec_or_mem(&ops[1], class))
            else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            if entry.form == VForm::RmImm {
                e.imm.push(imm8_of(&ops[2], inst)?);
            }
            emit_entry(e, entry, w_default, l_bit(class), 0)
        }
        VForm::Mr => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some(rm), Some(s)) = (rm_vec_or_mem(dst, sse_class), vec_of(src, sse_class))
            else {
                return Ok(None);
            };
            e.set_modrm(s.index, &rm)?;
            emit_entry(e, entry, w_default, false, 0)
        }
        VForm::Rvm | VForm::RvmImm => {
            let n = if entry.form == VForm::Rvm { 3 } else { 4 };
            if ops.len() != n {
                return Ok(None);
            }
            let Operand::Vec(d) = ops[0] else {
                return Ok(None);
            };
            let class = d.class;
            if entry.form == VForm::RvmImm && class != VecClass::Ymm {
                // vperm2f128 is defined for ymm only (VEX.L must be 1).
                return Err(EncodeError::InvalidOperands(inst.to_string()));
            }
            let (Some(v), Some(rm)) = (vec_of(&ops[1], class), rm_vec_or_mem(&ops[2], class))
            else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            if entry.form == VForm::RvmImm {
                e.imm.push(imm8_of(&ops[3], inst)?);
            }
            emit_entry(e, entry, w_default, l_bit(class), v.index)
        }
        VForm::VecRm => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some(d), Some((rm, w))) = (vec_of(dst, sse_class), rm_gpr_or_mem(src, w_default))
            else {
                return Ok(None);
            };
            if entry.w.is_some_and(|req| req != w) {
                // `movd` takes a 32-bit GPR, `movq` a 64-bit one.
                return Err(EncodeError::InvalidOperands(inst.to_string()));
            }
            e.set_modrm(d.index, &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        VForm::RmVec => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some((rm, w)), Some(s)) = (rm_gpr_or_mem(dst, w_default), vec_of(src, sse_class))
            else {
                return Ok(None);
            };
            if entry.w.is_some_and(|req| req != w) {
                return Err(EncodeError::InvalidOperands(inst.to_string()));
            }
            e.set_modrm(s.index, &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        VForm::GprVec => {
            let [dst, src] = ops else { return Ok(None) };
            let (Some(d), Some(rm)) = (dst.as_gpr(), rm_vec_or_mem(src, sse_class)) else {
                return Ok(None);
            };
            let w = match d.width {
                Width::Q => true,
                Width::D => false,
                _ => return Err(EncodeError::InvalidOperands(inst.to_string())),
            };
            e.set_modrm(d.reg.number(), &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        VForm::GprRm => {
            let [dst, src] = ops else { return Ok(None) };
            let Some(d) = dst.as_gpr() else {
                return Ok(None);
            };
            let w = match d.width {
                Width::Q => true,
                Width::D => false,
                _ => return Err(EncodeError::InvalidOperands(inst.to_string())),
            };
            let Some((rm, _)) = rm_gpr_or_mem(src, w) else {
                return Ok(None);
            };
            e.set_modrm(d.reg.number(), &rm)?;
            emit_entry(e, entry, w, false, 0)
        }
        VForm::ShiftImm(ext) => {
            let [dst, Operand::Imm(_)] = ops else {
                return Ok(None);
            };
            let Some(d) = vec_of(dst, sse_class) else {
                return Ok(None);
            };
            e.set_modrm(ext, &Rm::Reg(d.index))?;
            e.imm.push(imm8_of(&ops[1], inst)?);
            emit_entry(e, entry, w_default, false, 0)
        }
        VForm::BcastRm => {
            let [dst, src] = ops else { return Ok(None) };
            let (Operand::Vec(d), Some(rm)) = (dst, rm_vec_or_mem(src, VecClass::Xmm)) else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            emit_entry(e, entry, w_default, l_bit(d.class), 0)
        }
        VForm::InsertImm => {
            let [dst, src1, src2, imm] = ops else {
                return Ok(None);
            };
            let (Some(d), Some(v), Some(rm)) = (
                vec_of(dst, VecClass::Ymm),
                vec_of(src1, VecClass::Ymm),
                rm_vec_or_mem(src2, VecClass::Xmm),
            ) else {
                return Ok(None);
            };
            e.set_modrm(d.index, &rm)?;
            e.imm.push(imm8_of(imm, inst)?);
            emit_entry(e, entry, w_default, true, v.index)
        }
        VForm::ExtractImm => {
            let [dst, src, imm] = ops else {
                return Ok(None);
            };
            let (Some(rm), Some(s)) = (
                rm_vec_or_mem(dst, VecClass::Xmm),
                vec_of(src, VecClass::Ymm),
            ) else {
                return Ok(None);
            };
            e.set_modrm(s.index, &rm)?;
            e.imm.push(imm8_of(imm, inst)?);
            emit_entry(e, entry, w_default, true, 0)
        }
        VForm::Bare(l) => {
            if !ops.is_empty() {
                return Ok(None);
            }
            emit_entry(e, entry, w_default, l, 0)
        }
    };
    Ok(Some(bytes))
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
    let mut found = false;
    for entry in VEC_OPS.iter().filter(|e| e.m == inst.mnemonic) {
        found = true;
        if let Some(bytes) = try_encode_vec(entry, inst)? {
            return Ok(bytes);
        }
    }
    Err(if found {
        EncodeError::InvalidOperands(inst.to_string())
    } else {
        EncodeError::Unsupported(inst.to_string())
    })
}

/// Encodes a single non-branch instruction to machine code.
///
/// # Errors
///
/// Returns [`EncodeError`] for instruction forms outside the supported
/// subset (see the module docs' support matrix) and for invalid operand
/// combinations. Branches must be encoded through [`encode_program`], which
/// resolves label targets; a lone branch here is an error.
pub fn encode_instruction(inst: &Instruction) -> Result<Vec<u8>, EncodeError> {
    if inst.mnemonic.is_branch() && inst.mnemonic != Mnemonic::Ret {
        return Err(EncodeError::InvalidOperands(format!(
            "branch `{inst}` must be encoded via encode_program"
        )));
    }
    encode_nonbranch(inst)
}

fn simple_bytes(m: Mnemonic) -> Option<&'static [u8]> {
    Some(match m {
        Mnemonic::Nop => &[0x90],
        Mnemonic::Pause => &[0xF3, 0x90],
        Mnemonic::Ret => &[0xC3],
        Mnemonic::Lfence => &[0x0F, 0xAE, 0xE8],
        Mnemonic::Mfence => &[0x0F, 0xAE, 0xF0],
        Mnemonic::Sfence => &[0x0F, 0xAE, 0xF8],
        Mnemonic::Cpuid => &[0x0F, 0xA2],
        Mnemonic::Rdtsc => &[0x0F, 0x31],
        Mnemonic::Rdtscp => &[0x0F, 0x01, 0xF9],
        Mnemonic::Rdpmc => &[0x0F, 0x33],
        Mnemonic::Rdmsr => &[0x0F, 0x32],
        Mnemonic::Wrmsr => &[0x0F, 0x30],
        Mnemonic::Wbinvd => &[0x0F, 0x09],
        Mnemonic::Invd => &[0x0F, 0x08],
        Mnemonic::Hlt => &[0xF4],
        Mnemonic::Cli => &[0xFA],
        Mnemonic::Sti => &[0xFB],
        Mnemonic::Swapgs => &[0x0F, 0x01, 0xF8],
        Mnemonic::NbPause => &MAGIC_PAUSE,
        Mnemonic::NbResume => &MAGIC_RESUME,
        _ => return None,
    })
}

fn encode_nonbranch(inst: &Instruction) -> Result<Vec<u8>, EncodeError> {
    let m = inst.mnemonic;
    if let Some(bytes) = simple_bytes(m) {
        return Ok(bytes.to_vec());
    }
    let mut e = Enc::default();
    let unsupported = || EncodeError::Unsupported(inst.to_string());
    let invalid = || EncodeError::InvalidOperands(inst.to_string());

    match m {
        Mnemonic::Mov => {
            let dst = inst.dst().ok_or_else(invalid)?;
            let src = inst.src().ok_or_else(invalid)?;
            match (dst, src) {
                (Operand::Gpr(d), Operand::Imm(v)) => {
                    e.force_rex = needs_rex_for_byte(d);
                    if d.width == Width::Q && i32::try_from(*v).is_err() {
                        // movabs
                        e.rex_w = true;
                        e.rex_b = d.reg.number() > 7;
                        e.opcode = vec![0xB8 + (d.reg.number() & 7)];
                        e.imm.extend_from_slice(&v.to_le_bytes());
                    } else {
                        e.set_width(d.width);
                        match d.width {
                            Width::B => {
                                e.opcode = vec![0xC6];
                                e.imm.push(*v as u8);
                            }
                            Width::W => {
                                e.opcode = vec![0xC7];
                                e.imm.extend_from_slice(&(*v as i16).to_le_bytes());
                            }
                            _ => {
                                e.opcode = vec![0xC7];
                                let v32 = i32::try_from(*v)
                                    .map_err(|_| EncodeError::OutOfRange(inst.to_string()))?;
                                e.imm.extend_from_slice(&v32.to_le_bytes());
                            }
                        }
                        e.set_modrm(0, &Rm::Reg(d.reg.number()))?;
                    }
                }
                (Operand::Mem(mem), Operand::Imm(v)) => {
                    e.set_width(mem.width);
                    match mem.width {
                        Width::B => {
                            e.opcode = vec![0xC6];
                            e.set_modrm(0, &Rm::Mem(*mem))?;
                            e.imm.push(*v as u8);
                        }
                        Width::W => {
                            e.opcode = vec![0xC7];
                            e.set_modrm(0, &Rm::Mem(*mem))?;
                            e.imm.extend_from_slice(&(*v as i16).to_le_bytes());
                        }
                        _ => {
                            e.opcode = vec![0xC7];
                            e.set_modrm(0, &Rm::Mem(*mem))?;
                            let v32 = i32::try_from(*v)
                                .map_err(|_| EncodeError::OutOfRange(inst.to_string()))?;
                            e.imm.extend_from_slice(&v32.to_le_bytes());
                        }
                    }
                }
                (Operand::Gpr(d), _) => {
                    let (rm, _) = rm_of(src).ok_or_else(invalid)?;
                    e.force_rex = needs_rex_for_byte(d);
                    e.set_width(d.width);
                    e.opcode = vec![if d.width == Width::B { 0x8A } else { 0x8B }];
                    e.set_modrm(d.reg.number(), &rm)?;
                }
                (Operand::Mem(mem), Operand::Gpr(s)) => {
                    e.force_rex = needs_rex_for_byte(s);
                    e.set_width(s.width);
                    e.opcode = vec![if s.width == Width::B { 0x88 } else { 0x89 }];
                    e.set_modrm(s.reg.number(), &Rm::Mem(*mem))?;
                }
                _ => return Err(unsupported()),
            }
        }
        _ if alu_index(m).is_some() => {
            let idx = alu_index(m).unwrap();
            let dst = inst.dst().ok_or_else(invalid)?;
            let src = inst.src().ok_or_else(invalid)?;
            match (dst, src) {
                (_, Operand::Imm(v)) => {
                    let (rm, w) = rm_of(dst).ok_or_else(invalid)?;
                    if let Operand::Gpr(g) = dst {
                        e.force_rex = needs_rex_for_byte(g);
                    }
                    e.set_width(w);
                    if w == Width::B {
                        e.opcode = vec![0x80];
                        e.set_modrm(idx, &rm)?;
                        e.imm.push(*v as u8);
                    } else if let Ok(v8) = i8::try_from(*v) {
                        e.opcode = vec![0x83];
                        e.set_modrm(idx, &rm)?;
                        e.imm.push(v8 as u8);
                    } else {
                        e.opcode = vec![0x81];
                        e.set_modrm(idx, &rm)?;
                        let v32 = i32::try_from(*v)
                            .map_err(|_| EncodeError::OutOfRange(inst.to_string()))?;
                        if w == Width::W {
                            e.imm.extend_from_slice(&(v32 as i16).to_le_bytes());
                        } else {
                            e.imm.extend_from_slice(&v32.to_le_bytes());
                        }
                    }
                }
                (Operand::Gpr(d), _) => {
                    let (rm, _) = rm_of(src).ok_or_else(invalid)?;
                    e.force_rex = needs_rex_for_byte(d);
                    e.set_width(d.width);
                    e.opcode = vec![if d.width == Width::B {
                        idx * 8 + 2
                    } else {
                        idx * 8 + 3
                    }];
                    e.set_modrm(d.reg.number(), &rm)?;
                }
                (Operand::Mem(mem), Operand::Gpr(s)) => {
                    e.force_rex = needs_rex_for_byte(s);
                    e.set_width(s.width);
                    e.opcode = vec![if s.width == Width::B {
                        idx * 8
                    } else {
                        idx * 8 + 1
                    }];
                    e.set_modrm(s.reg.number(), &Rm::Mem(*mem))?;
                }
                _ => return Err(unsupported()),
            }
        }
        Mnemonic::Test => {
            let dst = inst.dst().ok_or_else(invalid)?;
            let src = inst.src().ok_or_else(invalid)?;
            match src {
                Operand::Gpr(s) => {
                    let (rm, w) = rm_of(dst).ok_or_else(invalid)?;
                    e.force_rex = needs_rex_for_byte(s);
                    e.set_width(w);
                    e.opcode = vec![if w == Width::B { 0x84 } else { 0x85 }];
                    e.set_modrm(s.reg.number(), &rm)?;
                }
                Operand::Imm(v) => {
                    let (rm, w) = rm_of(dst).ok_or_else(invalid)?;
                    e.set_width(w);
                    e.opcode = vec![if w == Width::B { 0xF6 } else { 0xF7 }];
                    e.set_modrm(0, &rm)?;
                    if w == Width::B {
                        e.imm.push(*v as u8);
                    } else {
                        let v32 = i32::try_from(*v)
                            .map_err(|_| EncodeError::OutOfRange(inst.to_string()))?;
                        e.imm.extend_from_slice(&v32.to_le_bytes());
                    }
                }
                _ => return Err(unsupported()),
            }
        }
        Mnemonic::Inc | Mnemonic::Dec => {
            let (rm, w) = rm_of(inst.dst().ok_or_else(invalid)?).ok_or_else(invalid)?;
            e.set_width(w);
            e.opcode = vec![if w == Width::B { 0xFE } else { 0xFF }];
            e.set_modrm(if m == Mnemonic::Inc { 0 } else { 1 }, &rm)?;
        }
        Mnemonic::Neg | Mnemonic::Not | Mnemonic::Mul | Mnemonic::Div | Mnemonic::Idiv => {
            let (rm, w) = rm_of(inst.dst().ok_or_else(invalid)?).ok_or_else(invalid)?;
            e.set_width(w);
            e.opcode = vec![if w == Width::B { 0xF6 } else { 0xF7 }];
            let ext = match m {
                Mnemonic::Not => 2,
                Mnemonic::Neg => 3,
                Mnemonic::Mul => 4,
                Mnemonic::Div => 6,
                Mnemonic::Idiv => 7,
                _ => unreachable!(),
            };
            e.set_modrm(ext, &rm)?;
        }
        Mnemonic::Imul => {
            // Only the two-operand form `imul r, r/m` is encoded; the
            // one-operand form uses F7 /5.
            match (inst.dst(), inst.src()) {
                (Some(Operand::Gpr(d)), Some(src)) => {
                    let (rm, _) = rm_of(src).ok_or_else(invalid)?;
                    e.set_width(d.width);
                    e.opcode = vec![0x0F, 0xAF];
                    e.set_modrm(d.reg.number(), &rm)?;
                }
                (Some(one), None) => {
                    let (rm, w) = rm_of(one).ok_or_else(invalid)?;
                    e.set_width(w);
                    e.opcode = vec![0xF7];
                    e.set_modrm(5, &rm)?;
                }
                _ => return Err(invalid()),
            }
        }
        _ if shift_ext(m).is_some() => {
            let ext = shift_ext(m).unwrap();
            let (rm, w) = rm_of(inst.dst().ok_or_else(invalid)?).ok_or_else(invalid)?;
            let amount = inst.src().and_then(|s| s.as_imm()).ok_or_else(invalid)?;
            e.set_width(w);
            if amount == 1 {
                e.opcode = vec![if w == Width::B { 0xD0 } else { 0xD1 }];
                e.set_modrm(ext, &rm)?;
            } else {
                e.opcode = vec![if w == Width::B { 0xC0 } else { 0xC1 }];
                e.set_modrm(ext, &rm)?;
                e.imm.push(amount as u8);
            }
        }
        Mnemonic::Lea => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            let mem = inst.src().and_then(|o| o.as_mem()).ok_or_else(invalid)?;
            e.set_width(d.width);
            e.opcode = vec![0x8D];
            e.set_modrm(d.reg.number(), &Rm::Mem(mem))?;
        }
        Mnemonic::Movzx | Mnemonic::Movsx => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            let (rm, sw) = rm_of(inst.src().ok_or_else(invalid)?).ok_or_else(invalid)?;
            e.set_width(d.width);
            let base = if m == Mnemonic::Movzx { 0xB6 } else { 0xBE };
            let op = match sw {
                Width::B => base,
                Width::W => base + 1,
                _ => return Err(unsupported()),
            };
            e.opcode = vec![0x0F, op];
            e.set_modrm(d.reg.number(), &rm)?;
        }
        Mnemonic::Push | Mnemonic::Pop => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            if d.width != Width::Q {
                return Err(unsupported());
            }
            e.rex_b = d.reg.number() > 7;
            let base = if m == Mnemonic::Push { 0x50 } else { 0x58 };
            e.opcode = vec![base + (d.reg.number() & 7)];
        }
        Mnemonic::Xchg | Mnemonic::Xadd => {
            let dst = inst.dst().ok_or_else(invalid)?;
            let s = inst.src().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            let (rm, _) = rm_of(dst).ok_or_else(invalid)?;
            e.set_width(s.width);
            e.opcode = if m == Mnemonic::Xchg {
                vec![if s.width == Width::B { 0x86 } else { 0x87 }]
            } else {
                vec![0x0F, if s.width == Width::B { 0xC0 } else { 0xC1 }]
            };
            e.set_modrm(s.reg.number(), &rm)?;
        }
        Mnemonic::Bswap => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            e.set_width(d.width);
            e.rex_b = d.reg.number() > 7;
            e.opcode = vec![0x0F, 0xC8 + (d.reg.number() & 7)];
        }
        Mnemonic::Cmovz | Mnemonic::Cmovnz => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            let (rm, _) = rm_of(inst.src().ok_or_else(invalid)?).ok_or_else(invalid)?;
            e.set_width(d.width);
            e.opcode = vec![0x0F, if m == Mnemonic::Cmovz { 0x44 } else { 0x45 }];
            e.set_modrm(d.reg.number(), &rm)?;
        }
        Mnemonic::Setz | Mnemonic::Setnz => {
            let (rm, _) = rm_of(inst.dst().ok_or_else(invalid)?).ok_or_else(invalid)?;
            if let Some(Operand::Gpr(g)) = inst.dst() {
                e.force_rex = needs_rex_for_byte(g);
            }
            e.opcode = vec![0x0F, if m == Mnemonic::Setz { 0x94 } else { 0x95 }];
            e.set_modrm(0, &rm)?;
        }
        Mnemonic::Popcnt | Mnemonic::Lzcnt | Mnemonic::Tzcnt => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            let (rm, _) = rm_of(inst.src().ok_or_else(invalid)?).ok_or_else(invalid)?;
            e.prefix_f3 = true;
            e.set_width(d.width);
            let op = match m {
                Mnemonic::Popcnt => 0xB8,
                Mnemonic::Tzcnt => 0xBC,
                Mnemonic::Lzcnt => 0xBD,
                _ => unreachable!(),
            };
            e.opcode = vec![0x0F, op];
            e.set_modrm(d.reg.number(), &rm)?;
        }
        Mnemonic::Bsf | Mnemonic::Bsr => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            let (rm, _) = rm_of(inst.src().ok_or_else(invalid)?).ok_or_else(invalid)?;
            e.set_width(d.width);
            e.opcode = vec![0x0F, if m == Mnemonic::Bsf { 0xBC } else { 0xBD }];
            e.set_modrm(d.reg.number(), &rm)?;
        }
        Mnemonic::Clflush | Mnemonic::Clflushopt => {
            let mem = inst.dst().and_then(|o| o.as_mem()).ok_or_else(invalid)?;
            e.prefix66 = m == Mnemonic::Clflushopt;
            e.opcode = vec![0x0F, 0xAE];
            e.set_modrm(7, &Rm::Mem(mem))?;
        }
        Mnemonic::Prefetcht0
        | Mnemonic::Prefetcht1
        | Mnemonic::Prefetcht2
        | Mnemonic::Prefetchnta => {
            let mem = inst.dst().and_then(|o| o.as_mem()).ok_or_else(invalid)?;
            let ext = match m {
                Mnemonic::Prefetchnta => 0,
                Mnemonic::Prefetcht0 => 1,
                Mnemonic::Prefetcht1 => 2,
                Mnemonic::Prefetcht2 => 3,
                _ => unreachable!(),
            };
            e.opcode = vec![0x0F, 0x18];
            e.set_modrm(ext, &Rm::Mem(mem))?;
        }
        Mnemonic::Invlpg => {
            let mem = inst.dst().and_then(|o| o.as_mem()).ok_or_else(invalid)?;
            e.opcode = vec![0x0F, 0x01];
            e.set_modrm(7, &Rm::Mem(mem))?;
        }
        Mnemonic::MovCr3 => {
            let s = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            e.opcode = vec![0x0F, 0x22];
            e.set_modrm(3, &Rm::Reg(s.reg.number()))?;
        }
        Mnemonic::Rdrand | Mnemonic::Rdseed => {
            let d = inst.dst().and_then(|o| o.as_gpr()).ok_or_else(invalid)?;
            e.set_width(d.width);
            e.opcode = vec![0x0F, 0xC7];
            e.set_modrm(
                if m == Mnemonic::Rdrand { 6 } else { 7 },
                &Rm::Reg(d.reg.number()),
            )?;
        }
        // Everything else — the SSE/AVX subset plus CRC32 — goes through
        // the vector-op table; unknown mnemonics fail there.
        _ => return encode_vector(inst),
    }
    Ok(e.emit())
}

/// Encodes a whole program, resolving [`Operand::Label`] branch targets to
/// relative displacements (rel32 for branches, rel8 never emitted).
///
/// Returns the code bytes and the byte offset of each instruction.
///
/// # Errors
///
/// Returns [`EncodeError`] if any instruction is outside the supported
/// encoding subset or a label index is out of range.
pub fn encode_program(insts: &[Instruction]) -> Result<(Vec<u8>, Vec<usize>), EncodeError> {
    // First pass: lengths (branches have fixed length: opcode + rel32).
    let mut lengths = Vec::with_capacity(insts.len());
    for inst in insts {
        let len = match inst.mnemonic {
            Mnemonic::Jmp | Mnemonic::Call => 5,
            Mnemonic::Jz | Mnemonic::Jnz | Mnemonic::Jc | Mnemonic::Jnc => 6,
            _ => encode_nonbranch(inst)?.len(),
        };
        lengths.push(len);
    }
    let mut offsets = Vec::with_capacity(insts.len() + 1);
    let mut off = 0usize;
    for len in &lengths {
        offsets.push(off);
        off += len;
    }
    let total = off;

    let mut out = Vec::with_capacity(total);
    for (i, inst) in insts.iter().enumerate() {
        match inst.mnemonic {
            Mnemonic::Jmp
            | Mnemonic::Call
            | Mnemonic::Jz
            | Mnemonic::Jnz
            | Mnemonic::Jc
            | Mnemonic::Jnc => {
                let target = match inst.dst() {
                    Some(Operand::Label(t)) => *t,
                    _ => {
                        return Err(EncodeError::InvalidOperands(format!(
                            "branch `{inst}` needs a label operand"
                        )))
                    }
                };
                let target_off = if target == insts.len() {
                    total
                } else {
                    *offsets.get(target).ok_or_else(|| {
                        EncodeError::InvalidOperands(format!("label @{target} out of range"))
                    })?
                };
                let next = offsets[i] + lengths[i];
                let rel = target_off as i64 - next as i64;
                let rel32 =
                    i32::try_from(rel).map_err(|_| EncodeError::OutOfRange(inst.to_string()))?;
                match inst.mnemonic {
                    Mnemonic::Jmp => out.push(0xE9),
                    Mnemonic::Call => out.push(0xE8),
                    Mnemonic::Jz => out.extend_from_slice(&[0x0F, 0x84]),
                    Mnemonic::Jnz => out.extend_from_slice(&[0x0F, 0x85]),
                    Mnemonic::Jc => out.extend_from_slice(&[0x0F, 0x82]),
                    Mnemonic::Jnc => out.extend_from_slice(&[0x0F, 0x83]),
                    _ => unreachable!(),
                }
                out.extend_from_slice(&rel32.to_le_bytes());
            }
            _ => out.extend_from_slice(&encode_nonbranch(inst)?),
        }
    }
    debug_assert_eq!(out.len(), total);
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

    fn i8(&mut self) -> Result<i8, DecodeError> {
        Ok(self.u8()? as i8)
    }

    fn i16(&mut self) -> Result<i16, DecodeError> {
        let lo = self.u8()?;
        let hi = self.u8()?;
        Ok(i16::from_le_bytes([lo, hi]))
    }

    fn i32(&mut self) -> Result<i32, DecodeError> {
        let mut b = [0u8; 4];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i32::from_le_bytes(b))
    }

    fn i64(&mut self) -> Result<i64, DecodeError> {
        let mut b = [0u8; 8];
        for x in &mut b {
            *x = self.u8()?;
        }
        Ok(i64::from_le_bytes(b))
    }
}

struct Prefixes {
    p66: bool,
    f3: bool,
    f2: bool,
    rex: u8,
}

impl Prefixes {
    fn w(&self) -> bool {
        self.rex & 8 != 0
    }
    fn r(&self) -> u8 {
        (self.rex >> 2) & 1
    }
    fn x(&self) -> u8 {
        (self.rex >> 1) & 1
    }
    fn b(&self) -> u8 {
        self.rex & 1
    }
    fn bits(&self) -> RexBits {
        RexBits {
            r: self.r(),
            x: self.x(),
            b: self.b(),
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
            disp = d.i32()? as i64;
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
        1 => disp += d.i8()? as i64,
        2 => disp += d.i32()? as i64,
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

/// Decodes ModRM for a GPR-form instruction (reg field, r/m operand).
fn decode_modrm(d: &mut Decoder, p: &Prefixes, width: Width) -> Result<(u8, Operand), DecodeError> {
    decode_modrm_bits(d, p.bits(), RmClass::Gpr(width), width)
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
        rex: 0,
    };
    loop {
        match d.peek() {
            Some(0x66) => {
                p.p66 = true;
                d.pos += 1;
            }
            Some(0xF3) => {
                p.f3 = true;
                d.pos += 1;
            }
            Some(0xF2) => {
                p.f2 = true;
                d.pos += 1;
            }
            Some(b) if (0x40..0x50).contains(&b) => {
                p.rex = b & 0x0F;
                d.pos += 1;
            }
            _ => break,
        }
    }
    let w = p.op_width();
    let op = d.u8()?;
    let inst = match op {
        0x90 => {
            if p.f3 {
                Instruction::new(Mnemonic::Pause)
            } else {
                Instruction::new(Mnemonic::Nop)
            }
        }
        0xC3 => Instruction::new(Mnemonic::Ret),
        0xF4 => Instruction::new(Mnemonic::Hlt),
        0xFA => Instruction::new(Mnemonic::Cli),
        0xFB => Instruction::new(Mnemonic::Sti),
        0x50..=0x57 => {
            Instruction::unary(Mnemonic::Push, gpr_op((op - 0x50) | (p.b() << 3), Width::Q))
        }
        0x58..=0x5F => {
            Instruction::unary(Mnemonic::Pop, gpr_op((op - 0x58) | (p.b() << 3), Width::Q))
        }
        0xB8..=0xBF => {
            let reg = gpr_op((op - 0xB8) | (p.b() << 3), w);
            let imm = if p.w() {
                d.i64()?
            } else if p.p66 {
                d.i16()? as i64
            } else {
                d.i32()? as i64
            };
            Instruction::binary(Mnemonic::Mov, reg, Operand::Imm(imm))
        }
        0xC6 | 0xC7 => {
            let width = if op == 0xC6 { Width::B } else { w };
            let (_, rm) = decode_modrm(d, &p, width)?;
            let imm = match width {
                Width::B => d.i8()? as i64,
                Width::W => d.i16()? as i64,
                _ => d.i32()? as i64,
            };
            Instruction::binary(Mnemonic::Mov, rm, Operand::Imm(imm))
        }
        0x88..=0x8B => {
            let width = if op & 1 == 0 { Width::B } else { w };
            let (reg, rm) = decode_modrm(d, &p, width)?;
            let reg = gpr_op(reg, width);
            if op < 0x8A {
                Instruction::binary(Mnemonic::Mov, rm, reg)
            } else {
                Instruction::binary(Mnemonic::Mov, reg, rm)
            }
        }
        0x8D => {
            let (reg, rm) = decode_modrm(d, &p, w)?;
            if !matches!(rm, Operand::Mem(_)) {
                return d.err("lea with a register source (mod=11) is #UD");
            }
            Instruction::binary(Mnemonic::Lea, gpr_op(reg, w), rm)
        }
        0x00..=0x3B if op & 7 <= 3 => {
            let idx = op >> 3;
            let mnem = [
                Mnemonic::Add,
                Mnemonic::Or,
                Mnemonic::Adc,
                Mnemonic::Sbb,
                Mnemonic::And,
                Mnemonic::Sub,
                Mnemonic::Xor,
                Mnemonic::Cmp,
            ][idx as usize];
            let width = if op & 1 == 0 { Width::B } else { w };
            let (reg, rm) = decode_modrm(d, &p, width)?;
            let reg = gpr_op(reg, width);
            if op & 2 == 0 {
                Instruction::binary(mnem, rm, reg)
            } else {
                Instruction::binary(mnem, reg, rm)
            }
        }
        0x80 | 0x81 | 0x83 => {
            let width = if op == 0x80 { Width::B } else { w };
            let (ext, rm) = decode_modrm(d, &p, width)?;
            let mnem = [
                Mnemonic::Add,
                Mnemonic::Or,
                Mnemonic::Adc,
                Mnemonic::Sbb,
                Mnemonic::And,
                Mnemonic::Sub,
                Mnemonic::Xor,
                Mnemonic::Cmp,
            ][(ext & 7) as usize];
            let imm = match op {
                0x80 => d.i8()? as i64,
                0x83 => d.i8()? as i64,
                _ if width == Width::W => d.i16()? as i64,
                _ => d.i32()? as i64,
            };
            Instruction::binary(mnem, rm, Operand::Imm(imm))
        }
        0x84 | 0x85 => {
            let width = if op == 0x84 { Width::B } else { w };
            let (reg, rm) = decode_modrm(d, &p, width)?;
            Instruction::binary(Mnemonic::Test, rm, gpr_op(reg, width))
        }
        0x86 | 0x87 => {
            let width = if op == 0x86 { Width::B } else { w };
            let (reg, rm) = decode_modrm(d, &p, width)?;
            Instruction::binary(Mnemonic::Xchg, rm, gpr_op(reg, width))
        }
        0xF6 | 0xF7 => {
            let width = if op == 0xF6 { Width::B } else { w };
            let (ext, rm) = decode_modrm(d, &p, width)?;
            match ext & 7 {
                0 => {
                    let imm = if width == Width::B {
                        d.i8()? as i64
                    } else if width == Width::W {
                        d.i16()? as i64
                    } else {
                        d.i32()? as i64
                    };
                    Instruction::binary(Mnemonic::Test, rm, Operand::Imm(imm))
                }
                2 => Instruction::unary(Mnemonic::Not, rm),
                3 => Instruction::unary(Mnemonic::Neg, rm),
                4 => Instruction::unary(Mnemonic::Mul, rm),
                5 => Instruction::unary(Mnemonic::Imul, rm),
                6 => Instruction::unary(Mnemonic::Div, rm),
                7 => Instruction::unary(Mnemonic::Idiv, rm),
                _ => return d.err("bad F7 extension"),
            }
        }
        0xFE | 0xFF => {
            let width = if op == 0xFE { Width::B } else { w };
            let (ext, rm) = decode_modrm(d, &p, width)?;
            match ext & 7 {
                0 => Instruction::unary(Mnemonic::Inc, rm),
                1 => Instruction::unary(Mnemonic::Dec, rm),
                _ => return d.err("unsupported FF extension"),
            }
        }
        0xC0 | 0xC1 | 0xD0 | 0xD1 => {
            let width = if op & 1 == 0 { Width::B } else { w };
            let (ext, rm) = decode_modrm(d, &p, width)?;
            let mnem = match ext & 7 {
                0 => Mnemonic::Rol,
                1 => Mnemonic::Ror,
                4 => Mnemonic::Shl,
                5 => Mnemonic::Shr,
                7 => Mnemonic::Sar,
                _ => return d.err("unsupported shift extension"),
            };
            let amount = if op >= 0xD0 { 1 } else { d.u8()? as i64 };
            Instruction::binary(mnem, rm, Operand::Imm(amount))
        }
        0xE8 | 0xE9 => {
            let rel = d.i32()? as i64;
            let target = (d.pos as i64 + rel) as usize;
            on_branch(target);
            Instruction::unary(
                if op == 0xE8 {
                    Mnemonic::Call
                } else {
                    Mnemonic::Jmp
                },
                Operand::Label(usize::MAX),
            )
        }
        0xEB | 0x72 | 0x73 | 0x74 | 0x75 => {
            let rel = d.i8()? as i64;
            let target = (d.pos as i64 + rel) as usize;
            on_branch(target);
            let mnem = match op {
                0xEB => Mnemonic::Jmp,
                0x72 => Mnemonic::Jc,
                0x73 => Mnemonic::Jnc,
                0x74 => Mnemonic::Jz,
                _ => Mnemonic::Jnz,
            };
            Instruction::unary(mnem, Operand::Label(usize::MAX))
        }
        0x0F => decode_0f(d, &p, w, on_branch)?,
        0xC4 | 0xC5 => decode_vex(d, op, &p)?,
        _ => {
            d.pos = start;
            return d.err(format!("unknown opcode {op:#04x}"));
        }
    };
    Ok(inst)
}

/// Decodes a VEX-prefixed instruction (`C4` three-byte / `C5` two-byte).
fn decode_vex(d: &mut Decoder, first: u8, p: &Prefixes) -> Result<Instruction, DecodeError> {
    if p.rex != 0 || p.p66 || p.f3 || p.f2 {
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
    let cl = if l { VecClass::Ymm } else { VecClass::Xmm };
    let vreg = |index: u8, class: VecClass| Operand::Vec(VecReg { index, class });
    let gw = if w { Width::Q } else { Width::D };
    let m = entry.m;
    let res = (|| {
        Ok(match entry.form {
            VForm::Rm => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
                Instruction::binary(m, vreg(reg, cl), rm)
            }
            VForm::RmImm => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
                let imm = d.u8()? as i64;
                Instruction::with_operands(m, &[vreg(reg, cl), rm, Operand::Imm(imm)])
            }
            VForm::Mr => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
                Instruction::binary(m, rm, vreg(reg, cl))
            }
            VForm::Rvm => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
                Instruction::with_operands(m, &[vreg(reg, cl), vreg(vvvv, cl), rm])
            }
            VForm::RvmImm => {
                if !l {
                    return d.err(format!("{m} requires VEX.L = 1"));
                }
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(cl), Width::Q)?;
                let imm = d.u8()? as i64;
                Instruction::with_operands(
                    m,
                    &[vreg(reg, cl), vreg(vvvv, cl), rm, Operand::Imm(imm)],
                )
            }
            VForm::VecRm => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(gw), Width::Q)?;
                Instruction::binary(m, vreg(reg, VecClass::Xmm), rm)
            }
            VForm::RmVec => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(gw), Width::Q)?;
                Instruction::binary(m, rm, vreg(reg, VecClass::Xmm))
            }
            VForm::GprVec => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
                Instruction::binary(m, gpr_op(reg, gw), rm)
            }
            VForm::GprRm => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Gpr(gw), gw)?;
                Instruction::binary(m, gpr_op(reg, gw), rm)
            }
            VForm::ShiftImm(ext) => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
                if reg & 7 != ext {
                    return d.err(format!(
                        "unsupported {op:#04x} group extension /{}",
                        reg & 7
                    ));
                }
                if !matches!(rm, Operand::Vec(_)) {
                    return d.err("vector shift-by-immediate needs a register operand");
                }
                let imm = d.u8()? as i64;
                Instruction::binary(m, rm, Operand::Imm(imm))
            }
            VForm::BcastRm => {
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
                Instruction::binary(m, vreg(reg, cl), rm)
            }
            VForm::InsertImm => {
                if !l {
                    return d.err(format!("{m} requires VEX.L = 1"));
                }
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
                let imm = d.u8()? as i64;
                Instruction::with_operands(
                    m,
                    &[
                        vreg(reg, VecClass::Ymm),
                        vreg(vvvv, VecClass::Ymm),
                        rm,
                        Operand::Imm(imm),
                    ],
                )
            }
            VForm::ExtractImm => {
                if !l {
                    return d.err(format!("{m} requires VEX.L = 1"));
                }
                let (reg, rm) = decode_modrm_bits(d, bits, RmClass::Vec(VecClass::Xmm), Width::Q)?;
                let imm = d.u8()? as i64;
                Instruction::with_operands(m, &[rm, vreg(reg, VecClass::Ymm), Operand::Imm(imm)])
            }
            VForm::Bare(_) => Instruction::new(m),
        })
    })();
    Some(res)
}

fn decode_0f(
    d: &mut Decoder,
    p: &Prefixes,
    w: Width,
    on_branch: &mut dyn FnMut(usize),
) -> Result<Instruction, DecodeError> {
    let op = d.u8()?;
    // The 0F 38 / 0F 3A escape maps and the prefix-selected SSE opcodes in
    // the 0F map live in the vector-op table; everything the table does not
    // know falls through to the GPR/system decoding below.
    if op == 0x38 || op == 0x3A {
        let map = if op == 0x38 { MAP_0F38 } else { MAP_0F3A };
        let op2 = d.u8()?;
        return match decode_vec_entry(d, false, map, p.pp(), op2, p.w(), false, 0, p.bits()) {
            Some(res) => res,
            None => d.err(format!("unknown opcode 0f {op:02x} {op2:#04x}")),
        };
    }
    if let Some(res) = decode_vec_entry(d, false, MAP_0F, p.pp(), op, p.w(), false, 0, p.bits()) {
        return res;
    }
    let inst = match op {
        0xA2 => Instruction::new(Mnemonic::Cpuid),
        0x31 => Instruction::new(Mnemonic::Rdtsc),
        0x33 => Instruction::new(Mnemonic::Rdpmc),
        0x32 => Instruction::new(Mnemonic::Rdmsr),
        0x30 => Instruction::new(Mnemonic::Wrmsr),
        0x09 => Instruction::new(Mnemonic::Wbinvd),
        0x08 => Instruction::new(Mnemonic::Invd),
        0x01 => {
            let next = d.u8()?;
            match next {
                0xF8 => Instruction::new(Mnemonic::Swapgs),
                0xF9 => Instruction::new(Mnemonic::Rdtscp),
                _ => {
                    // INVLPG has a memory ModRM with extension 7; rewind one
                    // byte and decode it properly.
                    d.pos -= 1;
                    let (ext, rm) = decode_modrm(d, p, Width::Q)?;
                    if ext & 7 == 7 {
                        Instruction::unary(Mnemonic::Invlpg, rm)
                    } else {
                        return d.err("unsupported 0F 01 form");
                    }
                }
            }
        }
        0x22 => {
            let (ext, rm) = decode_modrm(d, p, Width::Q)?;
            if ext & 7 == 3 {
                Instruction::unary(Mnemonic::MovCr3, rm)
            } else {
                return d.err("only CR3 moves are supported");
            }
        }
        0xAE => {
            // Group 15: with mod=11 the fences ignore the r/m field, so
            // `0f ae e8`-`ef` is LFENCE, `f0`-`f7` MFENCE and `f8`-`ff`
            // SFENCE; with a memory operand, /7 is CLFLUSH(OPT).
            let (ext, rm) = decode_modrm(d, p, Width::Q)?;
            match (ext & 7, matches!(rm, Operand::Mem(_))) {
                (5, false) => Instruction::new(Mnemonic::Lfence),
                (6, false) => Instruction::new(Mnemonic::Mfence),
                (7, false) => Instruction::new(Mnemonic::Sfence),
                (7, true) if p.p66 => Instruction::unary(Mnemonic::Clflushopt, rm),
                (7, true) => Instruction::unary(Mnemonic::Clflush, rm),
                _ => return d.err("unsupported 0F AE form"),
            }
        }
        0x18 => {
            let (ext, rm) = decode_modrm(d, p, Width::Q)?;
            if !matches!(rm, Operand::Mem(_)) {
                // A register operand makes the prefetch a hint NOP.
                return Ok(Instruction::new(Mnemonic::Nop));
            }
            let mnem = match ext & 7 {
                0 => Mnemonic::Prefetchnta,
                1 => Mnemonic::Prefetcht0,
                2 => Mnemonic::Prefetcht1,
                3 => Mnemonic::Prefetcht2,
                _ => return d.err("unsupported prefetch hint"),
            };
            Instruction::unary(mnem, rm)
        }
        0xAF => {
            let (reg, rm) = decode_modrm(d, p, w)?;
            Instruction::binary(Mnemonic::Imul, gpr_op(reg, w), rm)
        }
        0xB6 | 0xB7 => {
            let sw = if op == 0xB6 { Width::B } else { Width::W };
            let (reg, rm) = decode_modrm(d, p, sw)?;
            Instruction::binary(Mnemonic::Movzx, gpr_op(reg, w), rm)
        }
        0xBE | 0xBF => {
            let sw = if op == 0xBE { Width::B } else { Width::W };
            let (reg, rm) = decode_modrm(d, p, sw)?;
            Instruction::binary(Mnemonic::Movsx, gpr_op(reg, w), rm)
        }
        0xB8 if p.f3 => {
            let (reg, rm) = decode_modrm(d, p, w)?;
            Instruction::binary(Mnemonic::Popcnt, gpr_op(reg, w), rm)
        }
        0xBC => {
            let (reg, rm) = decode_modrm(d, p, w)?;
            let mnem = if p.f3 { Mnemonic::Tzcnt } else { Mnemonic::Bsf };
            Instruction::binary(mnem, gpr_op(reg, w), rm)
        }
        0xBD => {
            let (reg, rm) = decode_modrm(d, p, w)?;
            let mnem = if p.f3 { Mnemonic::Lzcnt } else { Mnemonic::Bsr };
            Instruction::binary(mnem, gpr_op(reg, w), rm)
        }
        0xC0 | 0xC1 => {
            let width = if op == 0xC0 { Width::B } else { w };
            let (reg, rm) = decode_modrm(d, p, width)?;
            Instruction::binary(Mnemonic::Xadd, rm, gpr_op(reg, width))
        }
        0xC8..=0xCF => Instruction::unary(Mnemonic::Bswap, gpr_op((op - 0xC8) | (p.b() << 3), w)),
        0x44 | 0x45 => {
            let (reg, rm) = decode_modrm(d, p, w)?;
            let mnem = if op == 0x44 {
                Mnemonic::Cmovz
            } else {
                Mnemonic::Cmovnz
            };
            Instruction::binary(mnem, gpr_op(reg, w), rm)
        }
        0x94 | 0x95 => {
            let (_, rm) = decode_modrm(d, p, Width::B)?;
            let mnem = if op == 0x94 {
                Mnemonic::Setz
            } else {
                Mnemonic::Setnz
            };
            Instruction::unary(mnem, rm)
        }
        0xC7 => {
            let (ext, rm) = decode_modrm(d, p, w)?;
            match ext & 7 {
                6 => Instruction::unary(Mnemonic::Rdrand, rm),
                7 => Instruction::unary(Mnemonic::Rdseed, rm),
                _ => return d.err("unsupported 0F C7 form"),
            }
        }
        0x82..=0x85 => {
            let rel = d.i32()? as i64;
            let target = (d.pos as i64 + rel) as usize;
            on_branch(target);
            let mnem = match op {
                0x82 => Mnemonic::Jc,
                0x83 => Mnemonic::Jnc,
                0x84 => Mnemonic::Jz,
                _ => Mnemonic::Jnz,
            };
            Instruction::unary(mnem, Operand::Label(usize::MAX))
        }
        _ => return d.err(format!("unknown opcode 0f {op:#04x}")),
    };
    Ok(inst)
}

/// Scans code bytes for the magic pause/resume markers (§III-I).
///
/// Returns `(byte offset, is_pause)` pairs in ascending offset order.
pub fn find_magic_markers(bytes: &[u8]) -> Vec<(usize, bool)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + MAGIC_PAUSE.len() <= bytes.len() {
        if bytes[i..].starts_with(&MAGIC_PAUSE) {
            out.push((i, true));
            i += MAGIC_PAUSE.len();
        } else if bytes[i..].starts_with(&MAGIC_RESUME) {
            out.push((i, false));
            i += MAGIC_RESUME.len();
        } else {
            i += 1;
        }
    }
    out
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
        let (bytes, _) = encode_program(&insts).unwrap();
        let markers = find_magic_markers(&bytes);
        assert_eq!(markers.len(), 2);
        assert!(markers[0].1);
        assert!(!markers[1].1);
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
}
