//! Malformed statements through the shell, and `call`'s return address.
//!
//! LEA's source and the operand of CLFLUSH and PREFETCHh have no register
//! form on x86. Given as asm text, each is a typed parse error naming the
//! statement. Given as raw bytes (mod=11), LEA is a decode error (#UD),
//! `0f ae f9` is SFENCE and `0f 18 c1` a hint NOP, as on hardware: both
//! run cleanly. So is every statement with an operand count its mnemonic
//! does not take (a branch without a target among them), every branch
//! whose target is not a label, every statement with two memory operands,
//! and every memory size that contradicts its register; `mov [r14], eax`
//! runs as a dword store both ways. Code bytes that x86 reads as an
//! instruction the model lacks are decode errors: `41 90` and `49 90`
//! (`xchg` with `r8`), `66 50` and `66 58` (16-bit `push` and `pop`),
//! `c7 c8` and `c6 c8` (#UD), `88 e0` and `88 c4` (`mov al, ah`, `mov ah,
//! al`), and `40 c5 f8 77` (REX before VEX, #UD); as asm text, a high-byte
//! register is a parse error. No input may panic the tool in either
//! version.

use nanobench::nb::shell::{kernel_nanobench, user_nanobench};
use nanobench::nb::{BenchmarkResult, NbError};
use nanobench::uarch::port::MicroArch;
use nanobench::x86::encode::{decode_program, encode_program};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// (shell options, whether the run succeeds)
const INPUTS: [(&str, bool); 17] = [
    (r#"-asm "lea rax, rbx""#, false),
    ("-code 8de8", false),
    (r#"-asm "clflush rax""#, false),
    ("-code 0faef9", true),
    (r#"-asm "prefetchnta rcx""#, false),
    ("-code 0f18c1", true),
    // A bare memory operand takes the register's width: a dword store.
    (r#"-asm "mov [r14], eax""#, true),
    ("-code 418906", true),
    // x86 reads these as instructions the model lacks, or as #UD.
    ("-code 4190", false),
    ("-code 4990", false),
    ("-code 6650", false),
    ("-code 6658", false),
    ("-code c7c801000000", false),
    ("-code c6c801", false),
    ("-code 88e0", false),
    ("-code 88c4", false),
    // A REX prefix before VEX is #UD, even `40`.
    ("-code 40c5f877", false),
];

/// One-statement programs with operands no x86 form takes: too few (these
/// panicked the tool when `exec::execute` met them), too many, a branch
/// without a target or with a number for one (which fell through without
/// jumping), a memory-to-memory move (which ran in kernel mode and
/// page-faulted at 0x0 in user mode), a memory size that contradicts the
/// register (which loaded 4 bytes as asm and 8 as code bytes), and a
/// high-byte register (which ran as the low byte).
const MALFORMED: [&str; 25] = [
    "add rax",
    "mov rax",
    "push",
    "pop",
    "inc",
    "shl rax",
    "test rax",
    "div",
    "movzx rax",
    "movaps xmm0",
    "imul",
    "xor rax",
    "cmp rax",
    "add rax, rbx, rcx",
    "nop rax",
    "call",
    "jmp",
    "jnz",
    "jmp 0",
    "jnz 0x10",
    "call 5",
    "mov [r14], [r15]",
    "mov rcx, dword ptr [r14]",
    "mov ah, 5",
    "add bh, 1",
];

/// Runs `options` through both versions of the tool, catching panics.
fn run_both(
    options: &str,
) -> Vec<(
    &'static str,
    std::thread::Result<Result<BenchmarkResult, NbError>>,
)> {
    [
        ("kernel", kernel_nanobench as fn(_, &str) -> _),
        ("user", user_nanobench),
    ]
    .into_iter()
    .map(|(version, run)| {
        let outcome = catch_unwind(AssertUnwindSafe(|| run(MicroArch::Skylake, options)));
        (version, outcome)
    })
    .collect()
}

#[test]
fn register_forms_never_panic_the_tool() {
    let mut failures = Vec::new();
    for (options, runs) in INPUTS {
        let options = format!("{options} -n_measurements 2 -unroll_count 4");
        for (version, outcome) in run_both(&options) {
            match outcome {
                Err(_) => failures.push(format!("{version} `{options}`: panicked")),
                Ok(Ok(_)) if !runs => {
                    failures.push(format!("{version} `{options}`: ran, expected an error"))
                }
                Ok(Err(e)) if runs => failures.push(format!("{version} `{options}`: {e}")),
                Ok(Err(e))
                    if options.starts_with("-asm") && !e.to_string().contains("statement 1") =>
                {
                    failures.push(format!(
                        "{version} `{options}`: error names no statement: {e}"
                    ))
                }
                Ok(_) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn malformed_statements_are_errors_naming_statement_1() {
    let mut failures = Vec::new();
    for statement in MALFORMED {
        let options = format!(r#"-asm "{statement}" -n_measurements 2 -unroll_count 4"#);
        for (version, outcome) in run_both(&options) {
            match outcome {
                Err(_) => failures.push(format!("{version} `{statement}`: panicked")),
                Ok(Ok(_)) => failures.push(format!("{version} `{statement}`: ran")),
                Ok(Err(e)) if !e.to_string().contains("statement 1") => {
                    failures.push(format!("{version} `{statement}`: {e}"))
                }
                Ok(Err(_)) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// `call` pushes the index of the instruction after it, so the matching
/// `ret` comes back there: each copy runs `call`, `add`, `ret`, `jmp` and
/// `nop`.
#[test]
fn call_returns_to_the_instruction_after_it() {
    let options =
        r#"-asm "call f; jmp e; f: add rax, 1; ret; e: nop" -n_measurements 2 -unroll_count 4"#;
    for (version, outcome) in run_both(options) {
        let out = outcome
            .unwrap_or_else(|_| panic!("{version}: panicked"))
            .unwrap_or_else(|e| panic!("{version}: {e}"));
        assert_eq!(out.get("Instructions retired"), Some(5.0), "{version}");
    }
}

#[test]
fn decodable_register_forms_round_trip() {
    for hex in ["8de8", "0faef9", "0f18c1"] {
        let bytes: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let Ok(decoded) = decode_program(&bytes) else {
            continue;
        };
        let (encoded, _) = encode_program(&decoded).unwrap();
        assert_eq!(decode_program(&encoded).unwrap(), decoded, "{hex}");
    }
}
