//! Intel-syntax assembler for nanoBench microbenchmarks.
//!
//! nanoBench accepts microbenchmark code "as an assembler code sequence in
//! Intel syntax" (§III-E), e.g. `"mov R14, [R14]"`. This module parses such
//! sequences into [`Instruction`]s. Multiple instructions are separated by
//! `;` or newlines; labels (`name:`) and label references in branches are
//! supported and resolved to instruction indices.

use crate::inst::{Instruction, Mnemonic, Operands, MAX_OPERANDS};
use crate::operand::{MemRef, Operand};
use crate::reg::{parse_gpr, parse_vec_reg, Gpr, Width};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An error produced while parsing assembler text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseAsmError {
    /// 1-based index of the offending statement.
    pub statement: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid assembly at statement {}: {}",
            self.statement, self.message
        )
    }
}

impl Error for ParseAsmError {}

/// The name table mapping mnemonics to their assembler spelling.
///
/// Kept as a single source of truth used by both the parser and
/// [`Mnemonic::name`].
const MNEMONIC_TABLE: &[(&str, Mnemonic)] = &[
    ("mov", Mnemonic::Mov),
    ("movzx", Mnemonic::Movzx),
    ("movsx", Mnemonic::Movsx),
    ("lea", Mnemonic::Lea),
    ("xchg", Mnemonic::Xchg),
    ("push", Mnemonic::Push),
    ("pop", Mnemonic::Pop),
    ("bswap", Mnemonic::Bswap),
    ("cmovz", Mnemonic::Cmovz),
    ("cmove", Mnemonic::Cmovz),
    ("cmovnz", Mnemonic::Cmovnz),
    ("cmovne", Mnemonic::Cmovnz),
    ("setz", Mnemonic::Setz),
    ("sete", Mnemonic::Setz),
    ("setnz", Mnemonic::Setnz),
    ("setne", Mnemonic::Setnz),
    ("add", Mnemonic::Add),
    ("adc", Mnemonic::Adc),
    ("sub", Mnemonic::Sub),
    ("sbb", Mnemonic::Sbb),
    ("and", Mnemonic::And),
    ("or", Mnemonic::Or),
    ("xor", Mnemonic::Xor),
    ("cmp", Mnemonic::Cmp),
    ("test", Mnemonic::Test),
    ("inc", Mnemonic::Inc),
    ("dec", Mnemonic::Dec),
    ("neg", Mnemonic::Neg),
    ("not", Mnemonic::Not),
    ("imul", Mnemonic::Imul),
    ("mul", Mnemonic::Mul),
    ("idiv", Mnemonic::Idiv),
    ("div", Mnemonic::Div),
    ("shl", Mnemonic::Shl),
    ("shr", Mnemonic::Shr),
    ("sar", Mnemonic::Sar),
    ("rol", Mnemonic::Rol),
    ("ror", Mnemonic::Ror),
    ("popcnt", Mnemonic::Popcnt),
    ("lzcnt", Mnemonic::Lzcnt),
    ("tzcnt", Mnemonic::Tzcnt),
    ("bsf", Mnemonic::Bsf),
    ("bsr", Mnemonic::Bsr),
    ("crc32", Mnemonic::Crc32),
    ("xadd", Mnemonic::Xadd),
    ("jmp", Mnemonic::Jmp),
    ("jz", Mnemonic::Jz),
    ("je", Mnemonic::Jz),
    ("jnz", Mnemonic::Jnz),
    ("jne", Mnemonic::Jnz),
    ("jc", Mnemonic::Jc),
    ("jnc", Mnemonic::Jnc),
    ("call", Mnemonic::Call),
    ("ret", Mnemonic::Ret),
    ("nop", Mnemonic::Nop),
    ("pause", Mnemonic::Pause),
    ("lfence", Mnemonic::Lfence),
    ("mfence", Mnemonic::Mfence),
    ("sfence", Mnemonic::Sfence),
    ("cpuid", Mnemonic::Cpuid),
    ("rdtsc", Mnemonic::Rdtsc),
    ("rdtscp", Mnemonic::Rdtscp),
    ("rdpmc", Mnemonic::Rdpmc),
    ("rdmsr", Mnemonic::Rdmsr),
    ("wrmsr", Mnemonic::Wrmsr),
    ("wbinvd", Mnemonic::Wbinvd),
    ("invd", Mnemonic::Invd),
    ("invlpg", Mnemonic::Invlpg),
    ("cli", Mnemonic::Cli),
    ("sti", Mnemonic::Sti),
    ("hlt", Mnemonic::Hlt),
    ("swapgs", Mnemonic::Swapgs),
    ("mov_cr3", Mnemonic::MovCr3),
    ("clflush", Mnemonic::Clflush),
    ("clflushopt", Mnemonic::Clflushopt),
    ("prefetcht0", Mnemonic::Prefetcht0),
    ("prefetcht1", Mnemonic::Prefetcht1),
    ("prefetcht2", Mnemonic::Prefetcht2),
    ("prefetchnta", Mnemonic::Prefetchnta),
    ("addss", Mnemonic::Addss),
    ("addsd", Mnemonic::Addsd),
    ("subss", Mnemonic::Subss),
    ("subsd", Mnemonic::Subsd),
    ("mulss", Mnemonic::Mulss),
    ("mulsd", Mnemonic::Mulsd),
    ("divss", Mnemonic::Divss),
    ("divsd", Mnemonic::Divsd),
    ("sqrtss", Mnemonic::Sqrtss),
    ("sqrtsd", Mnemonic::Sqrtsd),
    ("comiss", Mnemonic::Comiss),
    ("comisd", Mnemonic::Comisd),
    ("cvtsi2sd", Mnemonic::Cvtsi2sd),
    ("cvtsd2si", Mnemonic::Cvtsd2si),
    ("cvtss2sd", Mnemonic::Cvtss2sd),
    ("cvtsd2ss", Mnemonic::Cvtsd2ss),
    ("movaps", Mnemonic::Movaps),
    ("movups", Mnemonic::Movups),
    ("movapd", Mnemonic::Movapd),
    ("movdqa", Mnemonic::Movdqa),
    ("movdqu", Mnemonic::Movdqu),
    ("movd", Mnemonic::Movd),
    ("movq", Mnemonic::Movq),
    ("addps", Mnemonic::Addps),
    ("addpd", Mnemonic::Addpd),
    ("subps", Mnemonic::Subps),
    ("subpd", Mnemonic::Subpd),
    ("mulps", Mnemonic::Mulps),
    ("mulpd", Mnemonic::Mulpd),
    ("divps", Mnemonic::Divps),
    ("divpd", Mnemonic::Divpd),
    ("sqrtps", Mnemonic::Sqrtps),
    ("sqrtpd", Mnemonic::Sqrtpd),
    ("maxps", Mnemonic::Maxps),
    ("minps", Mnemonic::Minps),
    ("andps", Mnemonic::Andps),
    ("orps", Mnemonic::Orps),
    ("xorps", Mnemonic::Xorps),
    ("shufps", Mnemonic::Shufps),
    ("blendps", Mnemonic::Blendps),
    ("dpps", Mnemonic::Dpps),
    ("haddps", Mnemonic::Haddps),
    ("roundps", Mnemonic::Roundps),
    ("paddb", Mnemonic::Paddb),
    ("paddw", Mnemonic::Paddw),
    ("paddd", Mnemonic::Paddd),
    ("paddq", Mnemonic::Paddq),
    ("psubb", Mnemonic::Psubb),
    ("psubd", Mnemonic::Psubd),
    ("psubq", Mnemonic::Psubq),
    ("pmulld", Mnemonic::Pmulld),
    ("pmullw", Mnemonic::Pmullw),
    ("pmuludq", Mnemonic::Pmuludq),
    ("pmaddwd", Mnemonic::Pmaddwd),
    ("pand", Mnemonic::Pand),
    ("por", Mnemonic::Por),
    ("pxor", Mnemonic::Pxor),
    ("pcmpeqb", Mnemonic::Pcmpeqb),
    ("pcmpeqd", Mnemonic::Pcmpeqd),
    ("pcmpgtd", Mnemonic::Pcmpgtd),
    ("pshufb", Mnemonic::Pshufb),
    ("pshufd", Mnemonic::Pshufd),
    ("psllw", Mnemonic::Psllw),
    ("pslld", Mnemonic::Pslld),
    ("psllq", Mnemonic::Psllq),
    ("punpcklbw", Mnemonic::Punpcklbw),
    ("punpckldq", Mnemonic::Punpckldq),
    ("packsswb", Mnemonic::Packsswb),
    ("pmovmskb", Mnemonic::Pmovmskb),
    ("ptest", Mnemonic::Ptest),
    ("pabsd", Mnemonic::Pabsd),
    ("pminsd", Mnemonic::Pminsd),
    ("pmaxsd", Mnemonic::Pmaxsd),
    ("phaddd", Mnemonic::Phaddd),
    ("psadbw", Mnemonic::Psadbw),
    ("vaddps", Mnemonic::Vaddps),
    ("vaddpd", Mnemonic::Vaddpd),
    ("vmulps", Mnemonic::Vmulps),
    ("vmulpd", Mnemonic::Vmulpd),
    ("vdivps", Mnemonic::Vdivps),
    ("vdivpd", Mnemonic::Vdivpd),
    ("vsqrtps", Mnemonic::Vsqrtps),
    ("vfmadd132ps", Mnemonic::Vfmadd132ps),
    ("vfmadd213ps", Mnemonic::Vfmadd213ps),
    ("vfmadd231ps", Mnemonic::Vfmadd231ps),
    ("vfmadd231pd", Mnemonic::Vfmadd231pd),
    ("vpaddd", Mnemonic::Vpaddd),
    ("vpaddq", Mnemonic::Vpaddq),
    ("vpmulld", Mnemonic::Vpmulld),
    ("vpand", Mnemonic::Vpand),
    ("vpor", Mnemonic::Vpor),
    ("vpxor", Mnemonic::Vpxor),
    ("vpermilps", Mnemonic::Vpermilps),
    ("vperm2f128", Mnemonic::Vperm2f128),
    ("vbroadcastss", Mnemonic::Vbroadcastss),
    ("vextractf128", Mnemonic::Vextractf128),
    ("vinsertf128", Mnemonic::Vinsertf128),
    ("vzeroupper", Mnemonic::Vzeroupper),
    ("vzeroall", Mnemonic::Vzeroall),
    ("vgatherdps", Mnemonic::Vgatherdps),
    ("aesenc", Mnemonic::Aesenc),
    ("aesenclast", Mnemonic::Aesenclast),
    ("aesdec", Mnemonic::Aesdec),
    ("pclmulqdq", Mnemonic::Pclmulqdq),
    ("sha256rnds2", Mnemonic::Sha256rnds2),
    ("rdrand", Mnemonic::Rdrand),
    ("rdseed", Mnemonic::Rdseed),
    ("nb_pause", Mnemonic::NbPause),
    ("nb_resume", Mnemonic::NbResume),
];

/// Returns the canonical assembler spelling of a mnemonic.
pub(crate) fn mnemonic_name(m: Mnemonic) -> &'static str {
    // The first entry for a mnemonic is its canonical name (aliases like
    // `cmove` come after `cmovz`).
    MNEMONIC_TABLE
        .iter()
        .find(|(_, mn)| *mn == m)
        .map(|(name, _)| *name)
        .expect("every mnemonic has a table entry")
}

/// Parses a mnemonic name (case-insensitive).
pub fn parse_mnemonic(name: &str) -> Option<Mnemonic> {
    MNEMONIC_TABLE
        .iter()
        .find(|(n, _)| n.eq_ignore_ascii_case(name))
        .map(|(_, m)| *m)
}

/// Parses an Intel-syntax assembler sequence into instructions.
///
/// Statements are separated by `;` or newlines. Comments start with `#` and
/// run to end of line. Labels are declared as `name:` and may be referenced
/// by branch instructions; references are resolved to instruction indices
/// ([`Operand::Label`]).
///
/// # Errors
///
/// Returns [`ParseAsmError`] on unknown mnemonics or registers, malformed
/// memory operands, displacements outside the 64-bit range, more than
/// [`MAX_OPERANDS`] operands, an operand count or kind the mnemonic does
/// not take, or unresolved label references.
///
/// # Examples
///
/// ```
/// use nanobench_x86::asm::parse_asm;
/// let insts = parse_asm("mov R14, [R14]").unwrap();
/// assert_eq!(insts.len(), 1);
/// assert_eq!(insts[0].to_string(), "mov r14, qword ptr [r14]");
/// ```
pub fn parse_asm(text: &str) -> Result<Vec<Instruction>, ParseAsmError> {
    let mut instructions = Vec::new();
    let mut labels: HashMap<String, usize> = HashMap::new();
    // (instruction index, operand index, label name, statement number)
    let mut fixups: Vec<(usize, usize, String, usize)> = Vec::new();

    let mut statement_no = 0usize;
    for raw in text.split([';', '\n']) {
        let mut stmt = raw;
        if let Some(hash) = stmt.find('#') {
            stmt = &stmt[..hash];
        }
        let mut stmt = stmt.trim();
        if stmt.is_empty() {
            continue;
        }
        statement_no += 1;

        // Leading label declaration(s).
        while let Some(colon) = stmt.find(':') {
            let (head, rest) = stmt.split_at(colon);
            let head = head.trim();
            if head.is_empty() || !is_ident(head) || head.contains(char::is_whitespace) {
                break;
            }
            labels.insert(head.to_ascii_lowercase(), instructions.len());
            stmt = rest[1..].trim();
        }
        if stmt.is_empty() {
            continue;
        }

        let (mnem_tok, rest) = match stmt.find(char::is_whitespace) {
            Some(pos) => (&stmt[..pos], stmt[pos..].trim()),
            None => (stmt, ""),
        };
        let mut mnemonic = parse_mnemonic(mnem_tok).ok_or_else(|| ParseAsmError {
            statement: statement_no,
            message: format!("unknown mnemonic `{mnem_tok}`"),
        })?;

        let mut operands = Operands::new();
        if !rest.is_empty() {
            for op_text in split_operands(rest) {
                let op_text = op_text.trim();
                if op_text.is_empty() {
                    return Err(ParseAsmError {
                        statement: statement_no,
                        message: "empty operand".to_string(),
                    });
                }
                // `mov cr3, rax` / `mov rax, cr3` selects the MovCr3 form.
                if mnemonic == Mnemonic::Mov && op_text.eq_ignore_ascii_case("cr3") {
                    mnemonic = Mnemonic::MovCr3;
                    continue;
                }
                if operands.len() == MAX_OPERANDS {
                    return Err(ParseAsmError {
                        statement: statement_no,
                        message: format!("more than {MAX_OPERANDS} operands"),
                    });
                }
                match parse_operand(op_text, statement_no)? {
                    ParsedOperand::Operand(op) => operands.push(op),
                    ParsedOperand::LabelRef(name) => {
                        fixups.push((instructions.len(), operands.len(), name, statement_no));
                        operands.push(Operand::Label(usize::MAX));
                    }
                }
            }
        }
        if let Some(message) = malformed_operands(mnemonic, &operands) {
            return Err(ParseAsmError {
                statement: statement_no,
                message,
            });
        }
        // Vector memory accesses are modeled at qword granularity (see
        // `strip_size_prefix`): normalize explicit size prefixes so the asm
        // path and the §III-E byte path (whose encodings carry no memory
        // width) see identical instructions.
        if mnemonic.is_vector() {
            for op in operands.iter_mut() {
                if let Operand::Mem(m) = op {
                    m.width = Width::Q;
                }
            }
        }
        instructions.push(Instruction { mnemonic, operands });
    }

    for (inst_idx, op_idx, name, stmt) in fixups {
        let target = labels
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| ParseAsmError {
                statement: stmt,
                message: format!("undefined label `{name}`"),
            })?;
        instructions[inst_idx].operands[op_idx] = Operand::Label(target);
    }

    Ok(instructions)
}

/// The operand rules a statement must keep before it can run: the
/// mnemonic's register-free forms ([`missing_memory_operand`]), its
/// operand count ([`operand_count`]), a label as a branch's target and at
/// most one memory operand. Returns the error message for a statement
/// that breaks one.
fn malformed_operands(m: Mnemonic, operands: &[Operand]) -> Option<String> {
    if let Some(message) = missing_memory_operand(m, operands) {
        return Some(message);
    }
    let name = mnemonic_name(m);
    let (min, max) = operand_count(m);
    let n = operands.len();
    if n < min || n > max {
        let takes = match (min, max) {
            (1, 1) => "1 operand".to_string(),
            (min, max) if min == max => format!("{min} operands"),
            (min, max) => format!("{min} to {max} operands"),
        };
        return Some(format!("`{name}` takes {takes}, got {n}"));
    }
    // `ret` has no operand (counted above): this checks jump and `call`
    // targets.
    if m.is_branch() && !operands.iter().all(|o| matches!(o, Operand::Label(_))) {
        return Some(format!("`{name}` takes a label operand"));
    }
    if operands
        .iter()
        .filter(|o| matches!(o, Operand::Mem(_)))
        .count()
        > 1
    {
        return Some(format!("`{name}` takes at most one memory operand"));
    }
    None
}

/// The operand counts a mnemonic takes, `(min, max)`: the forms the
/// encoder and `exec` model, counted in Intel syntax (`mov cr3, rax` is
/// `mov_cr3 rax`; `sha256rnds2` leaves its `xmm0` implicit).
fn operand_count(m: Mnemonic) -> (usize, usize) {
    use Mnemonic::*;
    match m {
        Nop | Pause | Ret | Lfence | Mfence | Sfence | Cpuid | Rdtsc | Rdtscp | Rdpmc | Rdmsr
        | Wrmsr | Wbinvd | Invd | Cli | Sti | Hlt | Swapgs | Vzeroupper | Vzeroall | NbPause
        | NbResume => (0, 0),
        Push | Pop | Bswap | Setz | Setnz | Inc | Dec | Neg | Not | Mul | Div | Idiv | Jmp | Jz
        | Jnz | Jc | Jnc | Call | Invlpg | MovCr3 | Clflush | Clflushopt | Prefetcht0
        | Prefetcht1 | Prefetcht2 | Prefetchnta | Rdrand | Rdseed => (1, 1),
        Imul => (1, 3),
        Shufps | Pshufd | Roundps | Blendps | Dpps | Pclmulqdq | Vaddps | Vaddpd | Vmulps
        | Vmulpd | Vdivps | Vdivpd | Vfmadd132ps | Vfmadd213ps | Vfmadd231ps | Vfmadd231pd
        | Vpaddd | Vpaddq | Vpmulld | Vpand | Vpor | Vpxor | Vpermilps | Vextractf128
        | Vgatherdps => (3, 3),
        Vperm2f128 | Vinsertf128 => (4, 4),
        _ => (2, 2),
    }
}

/// The forms whose operand must be memory, where x86 has no register form
/// (its encoding, mod=11, is #UD or a hint NOP): LEA's source and the
/// operand of CLFLUSH/CLFLUSHOPT and PREFETCHh. Returns the error message
/// for a statement that breaks the rule.
fn missing_memory_operand(m: Mnemonic, operands: &[Operand]) -> Option<String> {
    use Mnemonic::*;
    let (index, role) = match m {
        Lea => (1, "source"),
        Clflush | Clflushopt | Prefetcht0 | Prefetcht1 | Prefetcht2 | Prefetchnta => (0, "operand"),
        _ => return None,
    };
    match operands.get(index) {
        Some(Operand::Mem(_)) => None,
        _ => Some(format!("`{}` takes a memory {role}", mnemonic_name(m))),
    }
}

/// Formats a program back to parseable assembler text (one statement per
/// line, labels emitted as `l<N>:` where referenced).
pub fn format_program(insts: &[Instruction]) -> String {
    use std::collections::HashSet;
    let mut targets = HashSet::new();
    for inst in insts {
        for op in &inst.operands {
            if let Operand::Label(t) = op {
                targets.insert(*t);
            }
        }
    }
    let mut out = String::new();
    for (i, inst) in insts.iter().enumerate() {
        if targets.contains(&i) {
            out.push_str(&format!("l{i}: "));
        }
        let mut line = format!("{}", inst.mnemonic);
        for (j, op) in inst.operands.iter().enumerate() {
            let sep = if j == 0 { " " } else { ", " };
            match op {
                Operand::Label(t) => line.push_str(&format!("{sep}l{t}")),
                other => line.push_str(&format!("{sep}{other}")),
            }
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

enum ParsedOperand {
    Operand(Operand),
    LabelRef(String),
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
        && !s.chars().next().unwrap().is_ascii_digit()
}

/// Splits an operand list on commas that are not inside brackets.
fn split_operands(s: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

fn parse_number(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest.trim()),
        None => (false, s),
    };
    let value = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok().or_else(|| {
            // Allow full-range 64-bit hex immediates.
            u64::from_str_radix(hex, 16).ok().map(|v| v as i64)
        })?
    } else if let Some(hex) = body.strip_suffix('h').or_else(|| body.strip_suffix('H')) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    // Wrapping: `-0x8000000000000000` is `i64::MIN`, whose magnitude has
    // no `i64`.
    Some(if neg { value.wrapping_neg() } else { value })
}

fn parse_operand(text: &str, stmt: usize) -> Result<ParsedOperand, ParseAsmError> {
    let lower = text.to_ascii_lowercase();

    // Optional size prefix before a memory operand.
    let (explicit_width, rest) = strip_size_prefix(&lower);
    let rest = rest.trim();

    if rest.starts_with('[') {
        if !rest.ends_with(']') {
            return Err(ParseAsmError {
                statement: stmt,
                message: format!("unterminated memory operand `{text}`"),
            });
        }
        let inner = &rest[1..rest.len() - 1];
        let mem = parse_mem_expr(inner, explicit_width.unwrap_or(Width::Q), stmt)?;
        return Ok(ParsedOperand::Operand(Operand::Mem(mem)));
    }
    if explicit_width.is_some() {
        return Err(ParseAsmError {
            statement: stmt,
            message: format!("size prefix without memory operand in `{text}`"),
        });
    }
    if let Some(gpr) = parse_gpr(rest) {
        return Ok(ParsedOperand::Operand(Operand::Gpr(gpr)));
    }
    if let Some(v) = parse_vec_reg(rest) {
        return Ok(ParsedOperand::Operand(Operand::Vec(v)));
    }
    if let Some(n) = parse_number(rest) {
        return Ok(ParsedOperand::Operand(Operand::Imm(n)));
    }
    if is_ident(rest) {
        return Ok(ParsedOperand::LabelRef(rest.to_string()));
    }
    Err(ParseAsmError {
        statement: stmt,
        message: format!("cannot parse operand `{text}`"),
    })
}

fn strip_size_prefix(lower: &str) -> (Option<Width>, &str) {
    for (prefix, width) in [
        ("byte", Width::B),
        ("word", Width::W),
        ("dword", Width::D),
        ("qword", Width::Q),
        ("xmmword", Width::Q), // vector memory accesses are modeled at qword granularity
        ("ymmword", Width::Q),
    ] {
        if let Some(rest) = lower.strip_prefix(prefix) {
            let rest = rest.trim_start();
            let rest = rest.strip_prefix("ptr").unwrap_or(rest);
            return (Some(width), rest);
        }
    }
    (None, lower)
}

fn parse_mem_expr(inner: &str, width: Width, stmt: usize) -> Result<MemRef, ParseAsmError> {
    let mut base: Option<Gpr> = None;
    let mut index: Option<(Gpr, u8)> = None;
    let mut disp: i64 = 0;

    // Tokenize into signed terms.
    let mut terms: Vec<(bool, &str)> = Vec::new();
    let mut start = 0usize;
    let mut sign = false; // negative?
    let bytes = inner.as_bytes();
    for i in 0..=inner.len() {
        if i == inner.len() || bytes[i] == b'+' || bytes[i] == b'-' {
            let term = inner[start..i].trim();
            if !term.is_empty() {
                terms.push((sign, term));
            }
            if i < inner.len() {
                sign = bytes[i] == b'-';
                start = i + 1;
            }
        }
    }

    for (neg, term) in terms {
        if let Some(star) = term.find('*') {
            let (a, b) = term.split_at(star);
            let b = &b[1..];
            let (reg_txt, scale_txt) = if parse_gpr(a.trim()).is_some() {
                (a.trim(), b.trim())
            } else {
                (b.trim(), a.trim())
            };
            let reg = parse_gpr(reg_txt).ok_or_else(|| ParseAsmError {
                statement: stmt,
                message: format!("bad index register `{reg_txt}`"),
            })?;
            let scale: u8 = scale_txt.parse().map_err(|_| ParseAsmError {
                statement: stmt,
                message: format!("bad scale `{scale_txt}`"),
            })?;
            if ![1, 2, 4, 8].contains(&scale) || neg || index.is_some() {
                return Err(ParseAsmError {
                    statement: stmt,
                    message: format!("invalid scaled-index term `{term}`"),
                });
            }
            index = Some((reg.reg, scale));
        } else if let Some(gpr) = parse_gpr(term) {
            if neg {
                return Err(ParseAsmError {
                    statement: stmt,
                    message: "register terms cannot be negative".to_string(),
                });
            }
            if base.is_none() {
                base = Some(gpr.reg);
            } else if index.is_none() {
                index = Some((gpr.reg, 1));
            } else {
                return Err(ParseAsmError {
                    statement: stmt,
                    message: "too many registers in memory operand".to_string(),
                });
            }
        } else if let Some(n) = parse_number(term) {
            disp = if neg {
                disp.checked_sub(n)
            } else {
                disp.checked_add(n)
            }
            .ok_or_else(|| ParseAsmError {
                statement: stmt,
                message: format!("displacement out of range in `[{inner}]`"),
            })?;
        } else {
            return Err(ParseAsmError {
                statement: stmt,
                message: format!("cannot parse memory term `{term}`"),
            });
        }
    }

    if base.is_none() && index.is_none() && disp == 0 {
        return Err(ParseAsmError {
            statement: stmt,
            message: "empty memory operand".to_string(),
        });
    }
    Ok(MemRef {
        base,
        index,
        disp,
        width,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::GprPart;

    #[test]
    fn names_round_trip() {
        // Every mnemonic's canonical name parses back to itself.
        let mut seen = std::collections::HashSet::new();
        for (name, m) in MNEMONIC_TABLE {
            if seen.insert(*m) {
                assert_eq!(mnemonic_name(*m), *name, "canonical name mismatch");
            }
            assert_eq!(parse_mnemonic(name), Some(*m));
        }
    }

    #[test]
    fn paper_example_parses() {
        // The exact microbenchmark from §III-A.
        let main = parse_asm("mov R14, [R14]").unwrap();
        let init = parse_asm("mov [R14], R14").unwrap();
        assert_eq!(
            main[0],
            Instruction::binary(Mnemonic::Mov, Gpr::R14, Operand::mem(Gpr::R14))
        );
        assert_eq!(
            init[0],
            Instruction::binary(Mnemonic::Mov, Operand::mem(Gpr::R14), Gpr::R14)
        );
    }

    #[test]
    fn multi_statement_with_comments() {
        let insts = parse_asm("add rax, 1; add rbx, rax # comment\nnop").unwrap();
        assert_eq!(insts.len(), 3);
        assert_eq!(insts[2].mnemonic, Mnemonic::Nop);
    }

    #[test]
    fn labels_and_branches() {
        let insts = parse_asm("loop: dec r15; jnz loop; nop").unwrap();
        assert_eq!(insts[1].operands[0], Operand::Label(0));
    }

    #[test]
    fn forward_label() {
        let insts = parse_asm("jmp end; nop; end: nop").unwrap();
        assert_eq!(insts[0].operands[0], Operand::Label(2));
    }

    #[test]
    fn undefined_label_is_error() {
        let err = parse_asm("jnz nowhere").unwrap_err();
        assert!(err.message.contains("undefined label"));
    }

    #[test]
    fn complex_memory_operand() {
        let insts = parse_asm("mov rax, qword ptr [r14 + rcx*8 - 0x10]").unwrap();
        let mem = insts[0].operands[1].as_mem().unwrap();
        assert_eq!(mem.base, Some(Gpr::R14));
        assert_eq!(mem.index, Some((Gpr::Rcx, 8)));
        assert_eq!(mem.disp, -16);
    }

    #[test]
    fn width_prefixes() {
        let insts = parse_asm("mov byte ptr [rax], 1; mov dword ptr [rbx+4], 2").unwrap();
        assert_eq!(insts[0].operands[0].width(), Some(Width::B));
        assert_eq!(insts[1].operands[0].width(), Some(Width::D));
    }

    #[test]
    fn hex_suffix_and_negative() {
        let insts = parse_asm("add rax, 10h; add rbx, -5; add rcx, 0xFF").unwrap();
        assert_eq!(insts[0].operands[1].as_imm(), Some(16));
        assert_eq!(insts[1].operands[1].as_imm(), Some(-5));
        assert_eq!(insts[2].operands[1].as_imm(), Some(255));
    }

    #[test]
    fn sub_register_widths() {
        let insts = parse_asm("mov eax, ebx; add r14d, 1").unwrap();
        assert_eq!(
            insts[0].operands[0],
            Operand::Gpr(GprPart {
                reg: Gpr::Rax,
                width: Width::D
            })
        );
    }

    #[test]
    fn vector_ops() {
        let insts = parse_asm("vfmadd231ps ymm0, ymm1, ymm2").unwrap();
        assert_eq!(insts[0].operands.len(), 3);
        assert!(insts[0].mnemonic.is_avx());
    }

    #[test]
    fn mov_cr3_form() {
        let insts = parse_asm("mov cr3, rax").unwrap();
        assert_eq!(insts[0].mnemonic, Mnemonic::MovCr3);
        assert!(insts[0].mnemonic.is_privileged());
    }

    #[test]
    fn unknown_mnemonic_is_error() {
        assert!(parse_asm("frobnicate rax").is_err());
    }

    #[test]
    fn out_of_range_displacements_are_errors() {
        for text in [
            "nop; mov rax, [0x7fffffffffffffff + 1]",
            "nop; mov rax, [rbx - 0x8000000000000000]",
        ] {
            let err = parse_asm(text).unwrap_err();
            assert_eq!(err.statement, 2, "{text}");
            assert!(err.message.contains("displacement out of range"), "{err}");
        }
    }

    #[test]
    fn most_negative_immediate_parses() {
        let insts = parse_asm("mov rax, -0x8000000000000000").unwrap();
        assert_eq!(insts[0].operands[1].as_imm(), Some(i64::MIN));
    }

    #[test]
    fn a_fifth_operand_is_an_error() {
        let err = parse_asm("nop\nadd rax, rbx, rcx, rdx, rsi").unwrap_err();
        assert_eq!(err.statement, 2);
        assert!(err.message.contains("more than 4 operands"), "{err}");
        // Four still fit.
        assert_eq!(
            parse_asm("vperm2f128 ymm0, ymm1, ymm2, 1").unwrap()[0]
                .operands
                .len(),
            4
        );
    }

    #[test]
    fn register_forms_without_an_encoding_are_errors() {
        for (text, message) in [
            ("nop; lea rax, rbx", "`lea` takes a memory source"),
            ("nop; lea rax", "`lea` takes a memory source"),
            ("nop; clflush rax", "`clflush` takes a memory operand"),
            ("nop; clflushopt rax", "`clflushopt` takes a memory operand"),
            (
                "nop; prefetchnta rcx",
                "`prefetchnta` takes a memory operand",
            ),
            ("nop; prefetcht0", "`prefetcht0` takes a memory operand"),
        ] {
            let err = parse_asm(text).unwrap_err();
            assert_eq!(err.statement, 2, "{text}");
            assert_eq!(err.message, message, "{text}");
        }
        assert!(parse_asm("lea rax, [rbx+8]; clflush [rax]; prefetcht2 [rcx]").is_ok());
    }

    #[test]
    fn operand_counts_and_kinds_are_checked() {
        for (text, message) in [
            ("nop; add rax", "`add` takes 2 operands, got 1"),
            ("nop; add rax, rbx, rcx", "`add` takes 2 operands, got 3"),
            ("nop; nop rax", "`nop` takes 0 operands, got 1"),
            ("nop; push", "`push` takes 1 operand, got 0"),
            ("nop; imul", "`imul` takes 1 to 3 operands, got 0"),
            ("nop; movaps xmm0", "`movaps` takes 2 operands, got 1"),
            ("nop; vaddps ymm0, ymm1", "`vaddps` takes 3 operands, got 2"),
            ("nop; call", "`call` takes 1 operand, got 0"),
            ("nop; jnz", "`jnz` takes 1 operand, got 0"),
            (
                "nop; mov [r14], [r15]",
                "`mov` takes at most one memory operand",
            ),
        ] {
            let err = parse_asm(text).unwrap_err();
            assert_eq!(err.statement, 2, "{text}");
            assert_eq!(err.message, message, "{text}");
        }
        assert!(parse_asm(
            "imul rax; imul rax, rbx; imul rax, rbx, 3; ret; mov cr3, rax; \
             vinsertf128 ymm0, ymm1, xmm2, 1; l: jnz l; sha256rnds2 xmm1, xmm2"
        )
        .is_ok());
    }

    #[test]
    fn format_round_trip() {
        let src = "l0: dec r15\njnz l0\nmov rax, qword ptr [r14+0x8]\n";
        let insts = parse_asm(src).unwrap();
        let formatted = format_program(&insts);
        let reparsed = parse_asm(&formatted).unwrap();
        assert_eq!(insts, reparsed);
    }
}
