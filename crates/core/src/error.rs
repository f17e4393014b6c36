//! Error type of the nanoBench library.

use nanobench_analysis::{Diagnostic, Span};
use nanobench_pmu::ParseConfigError;
use nanobench_uarch::bus::CpuFault;
use nanobench_x86::asm::ParseAsmError;
use nanobench_x86::encode::{DecodeError, EncodeError};
use std::error::Error;
use std::fmt;

/// Errors produced while configuring or running a benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NbError {
    /// The simulated CPU faulted (privilege violation, page fault, ...).
    Fault(CpuFault),
    /// The `-asm`/`-asm_init` text did not parse.
    Asm(ParseAsmError),
    /// The performance-counter configuration did not parse.
    Config(ParseConfigError),
    /// Binary microbenchmark code did not decode.
    Decode(DecodeError),
    /// A benchmark could not be encoded to machine-code bytes (§III-E).
    Encode(EncodeError),
    /// An option value was invalid.
    InvalidOption(String),
    /// An option error located in its command line: the [`Span`] is a byte
    /// range into the line handed to the shell-style parser (see
    /// [`crate::shell::caret_line`] for rendering).
    OptionAt {
        /// What is wrong with the option.
        message: String,
        /// Byte range of the offending token in the option line.
        span: Span,
    },
    /// The spec-level lint gate rejected the benchmark ([`crate::Session`]
    /// with a `Deny` gate): the error-severity diagnostics, in order.
    Lint(Vec<Diagnostic>),
    /// The benchmark asks for more work than one invocation may do
    /// ([`crate::session::MAX_PROGRAM_INSTRUCTIONS`],
    /// [`crate::session::MAX_RUNS`]); refused before anything is built.
    Limit {
        /// The option that asks for it, as the shell spells it.
        option: &'static str,
        /// What is counted.
        what: &'static str,
        /// How many the benchmark asks for.
        requested: u64,
        /// How many are allowed.
        limit: u64,
    },
}

impl fmt::Display for NbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NbError::Fault(e) => write!(f, "cpu fault: {e}"),
            NbError::Asm(e) => write!(f, "{e}"),
            NbError::Config(e) => write!(f, "{e}"),
            NbError::Decode(e) => write!(f, "{e}"),
            NbError::Encode(e) => write!(f, "{e}"),
            NbError::InvalidOption(s) => write!(f, "invalid option: {s}"),
            NbError::OptionAt { message, span } => {
                write!(f, "invalid option at byte {}: {message}", span.start)
            }
            NbError::Lint(diags) => {
                write!(f, "lint rejected the benchmark ({} error(s))", diags.len())?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
            NbError::Limit {
                option,
                what,
                requested,
                limit,
            } => write!(f, "{option}: {requested} {what}, over the limit of {limit}"),
        }
    }
}

impl Error for NbError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NbError::Fault(e) => Some(e),
            NbError::Asm(e) => Some(e),
            NbError::Config(e) => Some(e),
            NbError::Decode(e) => Some(e),
            NbError::Encode(e) => Some(e),
            NbError::InvalidOption(_) => None,
            NbError::OptionAt { .. } => None,
            NbError::Lint(_) => None,
            NbError::Limit { .. } => None,
        }
    }
}

impl From<CpuFault> for NbError {
    fn from(e: CpuFault) -> NbError {
        NbError::Fault(e)
    }
}

impl From<ParseAsmError> for NbError {
    fn from(e: ParseAsmError) -> NbError {
        NbError::Asm(e)
    }
}

impl From<ParseConfigError> for NbError {
    fn from(e: ParseConfigError) -> NbError {
        NbError::Config(e)
    }
}

impl From<DecodeError> for NbError {
    fn from(e: DecodeError) -> NbError {
        NbError::Decode(e)
    }
}

impl From<EncodeError> for NbError {
    fn from(e: EncodeError) -> NbError {
        NbError::Encode(e)
    }
}
