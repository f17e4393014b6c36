//! Round-trip tests over the fixed instruction corpus: assembler text →
//! instructions → formatted text → instructions, and instructions →
//! machine code → decoded instructions. Complements the workspace-level
//! proptests with a deterministic, reviewable corpus.
//!
//! Every corpus line — including the whole SSE/AVX subset — must encode to
//! bytes and decode back identically (§III-E); the former `encodable()`
//! xmm filter is gone. Both directions of the byte path are also swept
//! exhaustively: every GPR/system statement over edge registers, memory
//! shapes and immediates is refused or comes back as written, and every
//! opcode × ModRM byte that decodes re-encodes to the same instruction.

use nanobench_x86::asm::{format_program, parse_asm};
use nanobench_x86::corpus::ROUNDTRIP_CORPUS;
use nanobench_x86::encode::{
    decode_program, encode_program, EncodeError, MAGIC_PAUSE, MAGIC_RESUME,
};
use std::fmt::Write as _;

#[test]
fn corpus_parses() {
    for text in ROUNDTRIP_CORPUS {
        let insts = parse_asm(text).unwrap_or_else(|e| panic!("`{text}` must parse: {e}"));
        assert_eq!(insts.len(), 1, "`{text}` is a single instruction");
    }
}

#[test]
fn corpus_text_round_trips_through_formatter() {
    for text in ROUNDTRIP_CORPUS {
        let insts = parse_asm(text).unwrap();
        let formatted = format_program(&insts);
        let reparsed = parse_asm(&formatted)
            .unwrap_or_else(|e| panic!("formatted `{formatted}` (from `{text}`) must parse: {e}"));
        assert_eq!(reparsed, insts, "`{text}` vs formatted `{formatted}`");
    }
}

#[test]
fn corpus_encodes_and_decodes_back() {
    for text in ROUNDTRIP_CORPUS {
        let insts = parse_asm(text).unwrap();
        let (bytes, offsets) =
            encode_program(&insts).unwrap_or_else(|e| panic!("`{text}` must encode: {e:?}"));
        assert!(!bytes.is_empty(), "`{text}` must produce code bytes");
        assert_eq!(offsets.len(), insts.len());
        let decoded =
            decode_program(&bytes).unwrap_or_else(|e| panic!("`{text}` must decode back: {e:?}"));
        assert_eq!(decoded, insts, "`{text}`: encode/decode must round-trip");
    }
}

#[test]
fn whole_corpus_round_trips_as_one_program() {
    // The corpus concatenated into one program exercises offset bookkeeping
    // and instruction boundaries in a way single-instruction tests cannot.
    let text = ROUNDTRIP_CORPUS.join("\n");
    let insts = parse_asm(&text).unwrap();
    assert_eq!(insts.len(), ROUNDTRIP_CORPUS.len());
    let reparsed = parse_asm(&format_program(&insts)).unwrap();
    assert_eq!(reparsed, insts);
    let (bytes, offsets) = encode_program(&insts).unwrap();
    assert_eq!(decode_program(&bytes).unwrap(), insts);
    assert!(
        offsets.windows(2).all(|w| w[0] < w[1]),
        "instruction offsets must be strictly increasing"
    );
}

/// The whole corpus as one program (671 bytes for 156 lines): a table edit
/// that moves any corpus byte shows here.
const CORPUS_HEX: &str = concat!(
    "4803c34883c0014983e8074813ca481bf74d23ca4d0bdc4533c1483bc34885c0",
    "48ffc348ffc948f7da48f7d648c1e20548d1e848c1fb0348c1c10248c1ca07f3",
    "480fb8d9f3480fbdc3f3480fbcca4d0fbcc14d0fbdd3480fc8f2480f38f1c348",
    "0faff748c7c006000000488bcb4d8b36498b4e40498b4e40488955f84d893648",
    "8d041b480fb6c3480f44c34887d8900faee80faef00faef80fa20f310f28c141",
    "0f2816410f295e10410f106601660f28ee66410f6f7e20f3450f7f4630660f6e",
    "c0660f7eca66480f6ed066480f7edbf30f7ee5f3410f7e760866490f7e7e080f",
    "58c1410f5816660f59d3410f59c9660f5cd30f5ee5660f51f7450f5f2e450f5d",
    "dc450f54f7410f56c00f57caf20f7cf70fc6d300660f3a0cc103660f3a40d3ff",
    "66450f3a08c101f30f58f7f20f58c1f2450f594640f20f5ee5f3450f51ca660f",
    "2fdcf2480f2ac0f2480f2dc9f30f5ad3f20f5ae5660ffcc1660ffdd366410ffe",
    "2666450fd4e5660ff8ee66410ffaf866450ffbca66450f3840dc660fd5e5660f",
    "f4f766450ff5c166450fdbc1660febd366450fefd366450f74d3660f76c16645",
    "0f66e566450f3800f7660f70c100660ff1c1660f72f204660f73f33f660f60e5",
    "660f62f766450f63c1660fd7c3660f3817e5660f381ef766450f3839c166450f",
    "383dd366450f3802e566450ff6f7c5f458c2c5d858ddc4c1445836c4413558c2",
    "c4411c59ddc50159f0c5ec5ecbc4c1555e6620c5fc51f7c4423598c2c44219a8",
    "ddc46205b8f0c4c26db84e40c4e2ddb8ddc4c145fef0c44129d4cbc4421540e6",
    "c57ddbf9c5e5ebd4c4c149ef2ec4c23d0cf9c4437d04d31bc4431506e621c462",
    "7d18f8c4c279180ec4e37d19da01c4e35518e601c5f877c5fc77660f38dce566",
    "0f38ddc1660f38ded3660f3a44f7000f38cbe50f09410fae3e0f320f300f33",
);

#[test]
fn whole_corpus_encodes_to_pinned_bytes() {
    let insts = parse_asm(&ROUNDTRIP_CORPUS.join("\n")).unwrap();
    let (bytes, _) = encode_program(&insts).unwrap();
    let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!((ROUNDTRIP_CORPUS.len(), bytes.len()), (156, 671));
    assert_eq!(hex, CORPUS_HEX);
}

#[test]
fn paper_example_encodes_to_known_bytes() {
    // §III-A: `mov R14, [R14]` is the paper's running example; its encoding
    // is pinned (REX.WRB + 8B /r with a SIB-free indirect operand).
    let insts = parse_asm("mov R14, [R14]").unwrap();
    let (bytes, _) = encode_program(&insts).unwrap();
    assert_eq!(bytes, [0x4D, 0x8B, 0x36]);
}

#[test]
fn magic_byte_sequences_do_not_collide_with_corpus_encodings() {
    // The §III-I pause/resume markers must never appear inside the encoding
    // of ordinary instructions, or pausing would trigger spuriously.
    let insts = parse_asm(&ROUNDTRIP_CORPUS.join("\n")).unwrap();
    let (bytes, _) = encode_program(&insts).unwrap();
    for marker in [MAGIC_PAUSE, MAGIC_RESUME] {
        assert!(
            !bytes.windows(marker.len()).any(|w| w == marker),
            "magic marker must not occur in ordinary code"
        );
    }
}

#[test]
fn vector_code_bytes_interleave_with_magic_markers() {
    // §III-E + §III-I together: a byte-level benchmark may interleave
    // vector instructions with the pause/resume markers; decoding must keep
    // the markers intact and in place.
    let text = "vaddps ymm0, ymm1, ymm2\nnb_pause\nmulps xmm0, xmm1\nnb_resume\nvzeroupper";
    let insts = parse_asm(text).unwrap();
    let (bytes, _) = encode_program(&insts).unwrap();
    assert!(bytes.windows(MAGIC_PAUSE.len()).any(|w| w == MAGIC_PAUSE));
    assert!(bytes.windows(MAGIC_RESUME.len()).any(|w| w == MAGIC_RESUME));
    assert_eq!(decode_program(&bytes).unwrap(), insts);
}

/// Every GPR/system mnemonic with an encoding row.
const GPR_MNEMONICS: &str = "mov movzx movsx lea xchg xadd push pop bswap cmovz cmovnz setz setnz \
    add or adc sbb and sub xor cmp test inc dec not neg mul imul div idiv rol ror shl shr sar \
    popcnt tzcnt lzcnt bsf bsr crc32 jmp call jz jnz jc jnc ret pause nop hlt cli sti cpuid rdtsc \
    rdpmc rdmsr wrmsr wbinvd invd swapgs rdtscp lfence mfence sfence invlpg mov_cr3 clflushopt \
    clflush prefetchnta prefetcht0 prefetcht1 prefetcht2 rdrand rdseed";

/// Byte registers that need REX and ones that do not, and every width.
const REGS: &str = "al cl sil dil r9b r15b ax si r9w eax esi r9d rax rsi rsp rbp r9 r12 r13";

/// Base-only (with the R12/R13 SIB and disp8 quirks), disp8, disp32 and
/// scaled-index shapes, each bare and with every size.
const MEMS: &str = "[r14] [rbp-8] [r12+0x100] [rax+rbx*4+8]";

/// The edges of imm8, imm16 and imm32, read back sign-extended.
const IMMS: &str = "0 1 -1 5 127 128 -128 -129 0x7fff 0x8000 0x7fffffff -0x80000000 \
    0x80000000 0x123456789";

/// Every mnemonic with no operand, a label, each one-operand shape, each
/// two-operand shape but memory-to-memory, and (where the assembler takes
/// three operands) register, register or memory, immediate.
fn gpr_statements() -> Vec<String> {
    let mems = MEMS.split_whitespace().flat_map(|m| {
        let sized = ["byte", "word", "dword", "qword"].map(|s| format!("{s} ptr {m}"));
        std::iter::once(m.to_string()).chain(sized)
    });
    let rm: Vec<String> = REGS
        .split_whitespace()
        .map(String::from)
        .chain(mems)
        .collect();
    let any: Vec<&str> = rm
        .iter()
        .map(String::as_str)
        .chain(IMMS.split_whitespace())
        .collect();
    let mut out = Vec::new();
    for m in GPR_MNEMONICS.split_whitespace() {
        out.push(m.to_string());
        out.push(format!("l: {m} l"));
        out.extend(any.iter().map(|a| format!("{m} {a}")));
        for a in &rm {
            for b in &any {
                if !(a.contains('[') && b.contains('[')) {
                    out.push(format!("{m} {a}, {b}"));
                }
            }
        }
        if parse_asm(&format!("{m} rax, rsi, 1")).is_ok() {
            for a in REGS.split_whitespace() {
                for b in &rm {
                    out.extend(
                        IMMS.split_whitespace()
                            .map(|c| format!("{m} {a}, {b}, {c}")),
                    );
                }
            }
        }
    }
    out
}

#[test]
fn every_gpr_statement_is_refused_or_comes_back_as_written() {
    let mut parse_errors = 0;
    // Unsupported, InvalidOperands, OutOfRange.
    let mut refused = [0; 3];
    let mut round_trips = 0;
    let mut failures = Vec::new();
    for text in gpr_statements() {
        let Ok(insts) = parse_asm(&text) else {
            parse_errors += 1;
            continue;
        };
        match encode_program(&insts) {
            Err(EncodeError::Unsupported(_)) => refused[0] += 1,
            Err(EncodeError::InvalidOperands(_)) => refused[1] += 1,
            Err(EncodeError::OutOfRange(_)) => refused[2] += 1,
            Ok((bytes, _)) => match decode_program(&bytes) {
                Ok(back) if back == insts => round_trips += 1,
                back => failures.push(format!("`{text}` -> {bytes:02x?} -> {back:?}")),
            },
        }
    }
    assert!(
        failures.is_empty(),
        "{} statements come back changed, e.g.\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
    // Pinned so that refusing more (or parsing less) shows up here.
    assert_eq!(
        (parse_errors, refused, round_trips),
        (93_572, [0, 28_344, 3_772], 13_836)
    );
}

/// 64-bit FNV-1a, folded over `bytes`.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn every_decoded_opcode_and_modrm_re_encodes_to_itself() {
    const PREFIXES: [&[u8]; 8] = [
        &[],
        &[0x66],
        &[0xF3],
        &[0xF2],
        &[0x48],
        &[0x41],
        &[0x66, 0x48],
        &[0x44],
    ];
    let mut decoded = 0;
    let mut digest = 0xcbf2_9ce4_8422_2325;
    let mut failures = Vec::new();
    let mut bytes = Vec::with_capacity(16);
    let mut text = String::new();
    for prefix in PREFIXES {
        for escape in [&[][..], &[0x0F]] {
            for op in 0..=255u8 {
                for modrm in 0..=255u8 {
                    // The filler completes any SIB, displacement and
                    // immediate; what is left of it decodes as one NOP.
                    bytes.clear();
                    bytes.extend_from_slice(prefix);
                    bytes.extend_from_slice(escape);
                    bytes.extend_from_slice(&[op, modrm, 0x66, 0x66, 0x66, 0x66]);
                    bytes.extend_from_slice(&[0x66, 0x66, 0x66, 0x66, 0x90]);
                    let Ok(insts) = decode_program(&bytes) else {
                        continue;
                    };
                    decoded += 1;
                    text.clear();
                    for inst in &insts {
                        writeln!(text, "{inst}").unwrap();
                    }
                    digest = fnv1a(digest, text.as_bytes());
                    let back = encode_program(&insts).map(|(b, _)| decode_program(&b));
                    if !matches!(&back, Ok(Ok(again)) if *again == insts) {
                        failures.push(format!("{bytes:02x?}: {insts:?} -> {back:?}"));
                    }
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} decoded inputs do not come back, e.g.\n{}",
        failures.len(),
        failures[..failures.len().min(20)].join("\n")
    );
    // Pinned so that a change to what decodes shows up here.
    assert_eq!((decoded, digest), (207_584, 0xe8a3_a395_26d5_5370));
}
