//! Shell-style interface mirroring `nanoBench.sh` / `kernel-nanoBench.sh`
//! (§III-E: "a unified interface to the user-space and the kernel-space
//! version in the form of two shell scripts ... that have mostly the same
//! command-line options").

use crate::error::NbError;
use crate::nanobench::NanoBench;
use crate::result::BenchmarkResult;
use crate::runner::Aggregate;
use crate::session::LintGate;
use nanobench_analysis::Span;
use nanobench_uarch::port::MicroArch;

/// Splits a command line into tokens, honouring double and single quotes,
/// and reports each token's byte range in the original line (quotes
/// included) so option errors can point at their source.
///
/// # Errors
///
/// Returns [`NbError::OptionAt`] spanning from the opening quote to the
/// end of the line if a quote is left unterminated — a silently swallowed
/// quote would make the rest of the command line disappear into one token.
pub fn tokenize_spanned(line: &str) -> Result<Vec<(String, Span)>, NbError> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    let mut tok_start = 0u32;
    let mut in_token = false;
    let mut quote: Option<(char, u32)> = None;
    for (pos, c) in line.char_indices() {
        let pos = pos as u32;
        match (c, quote) {
            (q, Some((open, _))) if q == open => quote = None,
            ('"', None) | ('\'', None) => {
                if !in_token {
                    tok_start = pos;
                    in_token = true;
                }
                quote = Some((c, pos));
            }
            (c, None) if c.is_whitespace() => {
                if !current.is_empty() {
                    let span = Span::new(tok_start, pos - tok_start);
                    tokens.push((std::mem::take(&mut current), span));
                }
                in_token = false;
            }
            (c, _) => {
                if !in_token {
                    tok_start = pos;
                    in_token = true;
                }
                current.push(c);
            }
        }
    }
    if let Some((open, pos)) = quote {
        return Err(NbError::OptionAt {
            message: format!("unterminated {open} quote"),
            span: Span::new(pos, line.len() as u32 - pos),
        });
    }
    if !current.is_empty() {
        tokens.push((current, Span::new(tok_start, line.len() as u32 - tok_start)));
    }
    Ok(tokens)
}

/// Renders a caret line pointing at `span` within `line`, for printing
/// under the offending option line:
///
/// ```text
/// -asm "add rax, rbx" -unroll_cnt 100
///                     ^^^^^^^^^^^
/// ```
///
/// The span is in bytes ([`NbError::OptionAt`] carries one); the carets
/// are placed by character so multi-byte text stays aligned.
pub fn caret_line(line: &str, span: Span) -> String {
    let start = (span.start as usize).min(line.len());
    let end = (span.end() as usize).min(line.len());
    let col = line.get(..start).map_or(start, |s| s.chars().count());
    let width = line.get(start..end).map_or(1, |s| s.chars().count().max(1));
    format!("{}{}", " ".repeat(col), "^".repeat(width))
}

/// Re-targets a value-parse error (`InvalidOption`) at the token it came
/// from; errors that already know their place pass through.
fn at(span: Span) -> impl Fn(NbError) -> NbError {
    move |e| match e {
        NbError::InvalidOption(message) => NbError::OptionAt { message, span },
        other => other,
    }
}

/// Parses a `-code`-style hex byte string (`"4D8B36"`, whitespace allowed
/// between bytes) into machine-code bytes.
fn parse_hex_bytes(v: &str) -> Result<Vec<u8>, NbError> {
    let digits: Vec<char> = v.chars().filter(|c| !c.is_whitespace()).collect();
    if digits.is_empty() || !digits.len().is_multiple_of(2) {
        return Err(NbError::InvalidOption(format!(
            "`{v}` is not an even-length hex byte string"
        )));
    }
    digits
        .chunks(2)
        .map(|pair| {
            let s: String = pair.iter().collect();
            u8::from_str_radix(&s, 16)
                .map_err(|_| NbError::InvalidOption(format!("`{s}` is not a hex byte in `{v}`")))
        })
        .collect()
}

/// Resolves a `-config` value: the name of a built-in configuration file
/// or inline configuration text.
fn resolve_config(value: &str) -> &str {
    match value.trim_end_matches(".txt") {
        "cfg_Skylake" | "configs/cfg_Skylake" => nanobench_pmu::config::cfg_skylake(),
        "cfg_example" => nanobench_pmu::config::cfg_example(),
        _ => value,
    }
}

/// Applies `nanoBench.sh`-style options to a runner.
///
/// Supported options (subset of the real tool's, §III-E):
/// `-asm`, `-asm_init`, `-code` (machine-code bytes as a hex string — the
/// binary-input path, SSE/AVX included), `-config`, `-unroll_count`,
/// `-loop_count`, `-n_measurements`, `-warm_up_count`, `-min`, `-median`,
/// `-avg`, `-basic_mode`, `-no_mem`, `-lint` (deny-gate the benchmark on
/// the static analyzer's errors). Numeric values accept decimal and
/// `0x`-prefixed hex, like the real tool's.
///
/// # Errors
///
/// Returns [`NbError::OptionAt`] — carrying the byte range of the
/// offending token, renderable with [`caret_line`] — for unknown options
/// and malformed or missing values, and parse errors for
/// `-asm`/`-code`/`-config` payloads.
pub fn apply_options(nb: &mut NanoBench, line: &str) -> Result<(), NbError> {
    let tokens = tokenize_spanned(line)?;
    let mut i = 0usize;
    let value = |i: &mut usize, name: &str, span: Span| -> Result<(String, Span), NbError> {
        *i += 1;
        tokens.get(*i).cloned().ok_or_else(|| NbError::OptionAt {
            message: format!("{name} needs a value"),
            span,
        })
    };
    while i < tokens.len() {
        let (token, span) = &tokens[i];
        match token.as_str() {
            "-asm" => {
                let (v, _) = value(&mut i, "-asm", *span)?;
                nb.asm(&v)?;
            }
            "-asm_init" => {
                let (v, _) = value(&mut i, "-asm_init", *span)?;
                nb.asm_init(&v)?;
            }
            "-code" => {
                let (v, vspan) = value(&mut i, "-code", *span)?;
                nb.code_bytes(&parse_hex_bytes(&v).map_err(at(vspan))?)?;
            }
            "-config" => {
                let (v, _) = value(&mut i, "-config", *span)?;
                nb.config_str(resolve_config(&v))?;
            }
            "-unroll_count" => {
                let (v, vspan) = value(&mut i, "-unroll_count", *span)?;
                nb.unroll_count(parse_num(&v).map_err(at(vspan))?);
            }
            "-loop_count" => {
                let (v, vspan) = value(&mut i, "-loop_count", *span)?;
                nb.loop_count(parse_num(&v).map_err(at(vspan))? as u64);
            }
            "-n_measurements" => {
                let (v, vspan) = value(&mut i, "-n_measurements", *span)?;
                nb.n_measurements(parse_num(&v).map_err(at(vspan))?);
            }
            "-warm_up_count" => {
                let (v, vspan) = value(&mut i, "-warm_up_count", *span)?;
                nb.warm_up_count(parse_num(&v).map_err(at(vspan))?);
            }
            "-min" => {
                nb.aggregate(Aggregate::Min);
            }
            "-median" => {
                nb.aggregate(Aggregate::Median);
            }
            "-avg" => {
                nb.aggregate(Aggregate::TrimmedMean);
            }
            "-basic_mode" => {
                nb.basic_mode(true);
            }
            "-no_mem" => {
                nb.no_mem(true);
            }
            "-lint" => {
                nb.lint(LintGate::Deny);
            }
            other => {
                return Err(NbError::OptionAt {
                    message: format!("unknown option `{other}`"),
                    span: *span,
                });
            }
        }
        i += 1;
    }
    Ok(())
}

/// Parses a numeric option value; `nanoBench.sh` accepts both decimal and
/// `0x`-prefixed hex for its numeric options.
fn parse_num(v: &str) -> Result<usize, NbError> {
    let parsed = match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => usize::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    };
    parsed.ok_or_else(|| NbError::InvalidOption(format!("`{v}` is not a number")))
}

/// Runs `./kernel-nanoBench.sh <options>` on a fresh machine.
///
/// # Errors
///
/// Propagates option and benchmark errors.
///
/// # Examples
///
/// ```
/// use nanobench_core::shell::kernel_nanobench;
/// use nanobench_uarch::port::MicroArch;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let out = kernel_nanobench(
///     MicroArch::Skylake,
///     r#"-asm "mov R14, [R14]" -asm_init "mov [R14], R14" -config cfg_example -unroll_count 100 -warm_up_count 1"#,
/// )?;
/// assert!(out.to_string().contains("Core cycles: 4.00"));
/// # Ok(())
/// # }
/// ```
pub fn kernel_nanobench(uarch: MicroArch, options: &str) -> Result<BenchmarkResult, NbError> {
    let mut nb = NanoBench::kernel(uarch);
    apply_options(&mut nb, options)?;
    nb.run()
}

/// Runs `./nanoBench.sh <options>` (user-space version) on a fresh machine.
///
/// # Errors
///
/// Propagates option and benchmark errors. Benchmarks containing
/// privileged instructions fail with a CPU fault here — use
/// [`kernel_nanobench`] for those (§III-D).
pub fn user_nanobench(uarch: MicroArch, options: &str) -> Result<BenchmarkResult, NbError> {
    let mut nb = NanoBench::user(uarch);
    apply_options(&mut nb, options)?;
    nb.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_handles_quotes() {
        let texts = |line| -> Vec<String> {
            let tokens = tokenize_spanned(line).unwrap();
            tokens.into_iter().map(|(t, _)| t).collect()
        };
        let t = texts(r#"-asm "mov R14, [R14]" -unroll_count 10"#);
        assert_eq!(t, ["-asm", "mov R14, [R14]", "-unroll_count", "10"]);
        assert_eq!(texts("-asm 'add rax, 1; nop'"), ["-asm", "add rax, 1; nop"]);
    }

    #[test]
    fn unterminated_quotes_are_errors_for_both_styles() {
        for line in [r#"-asm "mov rax, rbx"#, "-asm 'mov rax, rbx"] {
            let err = tokenize_spanned(line).unwrap_err();
            assert!(err.to_string().contains("unterminated"), "`{line}`: {err}");
            // And the error propagates out of the option parser.
            let mut nb = NanoBench::kernel(MicroArch::Skylake);
            assert!(apply_options(&mut nb, line).is_err());
        }
    }

    #[test]
    fn numeric_options_accept_decimal_and_hex() {
        assert_eq!(parse_num("100").unwrap(), 100);
        assert_eq!(parse_num("0x40").unwrap(), 64);
        assert_eq!(parse_num("0X10").unwrap(), 16);
        assert!(parse_num("abc").is_err());
        assert!(parse_num("0xZZ").is_err());
        assert!(parse_num("").is_err());
        // End to end: a hex unroll count behaves like its decimal twin.
        let opts = |n: &str| {
            format!(r#"-asm "add rax, rax" -unroll_count {n} -warm_up_count 1 -n_measurements 3"#)
        };
        let hex = kernel_nanobench(MicroArch::Skylake, &opts("0x64")).unwrap();
        let dec = kernel_nanobench(MicroArch::Skylake, &opts("100")).unwrap();
        assert_eq!(hex, dec);
    }

    #[test]
    fn code_option_takes_hex_machine_code() {
        // `mov R14, [R14]` (§III-A) as raw bytes through the shell's
        // binary-input path (§III-E).
        let out = kernel_nanobench(
            MicroArch::Skylake,
            r#"-code "4D 8B 36" -asm_init "mov [R14], R14" -config cfg_example -unroll_count 100 -warm_up_count 1"#,
        )
        .unwrap();
        assert_eq!(out.core_cycles(), Some(4.0));
        // An SSE benchmark as code bytes: addps xmm0, xmm1 = 0F 58 C1.
        let sse = kernel_nanobench(
            MicroArch::Skylake,
            r#"-code 0F58C1 -unroll_count 50 -warm_up_count 1"#,
        )
        .unwrap();
        assert!(sse.core_cycles().unwrap() > 0.0);
        // Malformed hex is an option error, not a silent no-op.
        let mut nb = NanoBench::kernel(MicroArch::Skylake);
        assert!(apply_options(&mut nb, "-code 4D8").is_err());
        assert!(apply_options(&mut nb, "-code XY").is_err());
    }

    #[test]
    fn option_errors_carry_spans() {
        let mut nb = NanoBench::kernel(MicroArch::Skylake);
        // Unknown option: the span covers exactly the offending token.
        let line = r#"-asm "add rax, rax" -frobnicate 3"#;
        let err = apply_options(&mut nb, line).unwrap_err();
        let NbError::OptionAt { span, .. } = err else {
            panic!("expected OptionAt, got {err}");
        };
        assert_eq!(
            &line[span.start as usize..span.end() as usize],
            "-frobnicate"
        );
        assert_eq!(
            caret_line(line, span),
            format!("{}{}", " ".repeat(20), "^".repeat(11))
        );
        // A malformed value points at the value, not the option name.
        let line = "-code 4D8";
        let err = apply_options(&mut nb, line).unwrap_err();
        let NbError::OptionAt { span, .. } = err else {
            panic!("expected OptionAt, got {err}");
        };
        assert_eq!(&line[span.start as usize..span.end() as usize], "4D8");
        // A missing value points back at the option that wanted one.
        let line = "-unroll_count";
        let err = apply_options(&mut nb, line).unwrap_err();
        let NbError::OptionAt { span, .. } = err else {
            panic!("expected OptionAt, got {err}");
        };
        assert_eq!(
            &line[span.start as usize..span.end() as usize],
            "-unroll_count"
        );
        // An unterminated quote spans from the quote to the end of line.
        let line = r#"-asm "mov rax, rbx"#;
        let err = tokenize_spanned(line).unwrap_err();
        let NbError::OptionAt { span, .. } = err else {
            panic!("expected OptionAt, got {err}");
        };
        assert_eq!(span.start, 5);
        assert_eq!(span.end() as usize, line.len());
    }

    #[test]
    fn lint_option_gates_the_run() {
        // An uninitialized address register: denied before simulating.
        let err =
            kernel_nanobench(MicroArch::Skylake, r#"-lint -asm "mov rax, [rbx]""#).unwrap_err();
        assert!(matches!(err, NbError::Lint(_)), "{err}");
        // The §III-A example lints clean and still runs.
        let out = kernel_nanobench(
            MicroArch::Skylake,
            r#"-lint -asm "mov R14, [R14]" -asm_init "mov [R14], R14" -unroll_count 100 -warm_up_count 1"#,
        )
        .unwrap();
        assert_eq!(out.core_cycles(), Some(4.0));
    }

    #[test]
    fn runaway_invocations_are_refused_before_they_allocate() {
        // Unbounded, the first line asked codegen for a 5 GB program and
        // the other two ran without end.
        let lines = [
            (
                "-asm nop -unroll_count 100000000",
                "-unroll_count",
                200_000_000,
            ),
            (
                "-asm nop -n_measurements 100000000",
                "-n_measurements",
                100_000_000,
            ),
            (
                "-asm nop -warm_up_count 100000000",
                "-warm_up_count",
                100_000_000,
            ),
        ];
        for (line, option, requested) in lines {
            for run in [kernel_nanobench, user_nanobench] {
                let started = std::time::Instant::now();
                let err = run(MicroArch::Skylake, line).unwrap_err();
                let NbError::Limit {
                    option: named,
                    requested: asked,
                    ..
                } = err
                else {
                    panic!("`{line}`: expected a limit error, got {err}");
                };
                assert_eq!((named, asked), (option, requested), "`{line}`");
                assert!(err.to_string().starts_with(option), "{err}");
                let elapsed = started.elapsed();
                assert!(elapsed.as_secs_f64() < 1.0, "`{line}` took {elapsed:?}");
            }
        }
    }

    #[test]
    fn unknown_option_is_error() {
        let mut nb = NanoBench::kernel(MicroArch::Skylake);
        let err = apply_options(&mut nb, "-frobnicate 3").unwrap_err();
        assert!(err.to_string().contains("unknown option"));
    }

    #[test]
    fn missing_value_is_error() {
        let mut nb = NanoBench::kernel(MicroArch::Skylake);
        assert!(apply_options(&mut nb, "-unroll_count").is_err());
        assert!(apply_options(&mut nb, "-loop_count abc").is_err());
    }
}
