//! Register operands where x86 allows only memory, through the shell.
//!
//! LEA's source and the operand of CLFLUSH and PREFETCHh have no register
//! form on x86. Given as asm text, each is a typed parse error naming the
//! statement. Given as raw bytes (mod=11), LEA is a decode error (#UD),
//! `0f ae f9` is SFENCE and `0f 18 c1` a hint NOP, as on hardware: both
//! run cleanly. No input may panic the tool in either version.

use nanobench::nb::shell::{kernel_nanobench, user_nanobench};
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

#[test]
fn register_forms_never_panic_the_tool() {
    let mut failures = Vec::new();
    for (options, runs) in INPUTS {
        for (version, run) in [
            ("kernel", kernel_nanobench as fn(_, &str) -> _),
            ("user", user_nanobench),
        ] {
            let options = format!("{options} -n_measurements 2 -unroll_count 4");
            match catch_unwind(AssertUnwindSafe(|| run(MicroArch::Skylake, &options))) {
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
