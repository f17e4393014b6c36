//! Malformed statements through the shell, and `call`'s return address.
//!
//! LEA's source and the operand of CLFLUSH and PREFETCHh have no register
//! form on x86. Given as asm text, each is a typed parse error naming the
//! statement. Given as raw bytes (mod=11), LEA is a decode error (#UD),
//! `0f ae f9` is SFENCE and `0f 18 c1` a hint NOP, as on hardware: both
//! run cleanly. So is every statement with an operand count its mnemonic
//! does not take (a branch without a target among them) or with two
//! memory operands. No input may panic the tool in either version.

use nanobench::nb::shell::{kernel_nanobench, user_nanobench};
use nanobench::nb::{BenchmarkResult, NbError};
use nanobench::uarch::port::MicroArch;
use nanobench::x86::encode::{decode_program, encode_program};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// (shell options, whether the run succeeds)
const INPUTS: [(&str, bool); 6] = [
    (r#"-asm "lea rax, rbx""#, false),
    ("-code 8de8", false),
    (r#"-asm "clflush rax""#, false),
    ("-code 0faef9", true),
    (r#"-asm "prefetchnta rcx""#, false),
    ("-code 0f18c1", true),
];

/// One-statement programs with operands no x86 form takes: too few (these
/// panicked the tool when `exec::execute` met them), too many, a branch
/// without a target, and a memory-to-memory move (which ran in kernel
/// mode and page-faulted at 0x0 in user mode).
const MALFORMED: [&str; 19] = [
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
    "mov [r14], [r15]",
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
