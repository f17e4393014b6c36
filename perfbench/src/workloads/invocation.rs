//! `invocation`: §III-K as e2 runs it. The NOP benchmark (unroll 100,
//! loop 0, 10 measurements, 4 events) on a reused user-mode CoffeeLake
//! runner; an op applies the `nanoBench.sh` option line, then runs.

use super::Workload;
use crate::check::Digest;
use crate::layers::{Counters, Spans};
use nanobench_analysis::{has_errors, Severity};
use nanobench_core::shell::{apply_options, tokenize_spanned};
use nanobench_core::{BenchmarkResult, LintGate, NanoBench, NbError};
use nanobench_machine::{Machine, Mode};
use nanobench_pmu::parse_config;
use nanobench_uarch::port::MicroArch;
use nanobench_x86::parse_asm;

/// e2's four-event configuration.
const CFG: &str = "\
0E.01 UOPS_ISSUED.ANY
A1.01 UOPS_DISPATCHED_PORT.PORT_0
A1.02 UOPS_DISPATCHED_PORT.PORT_1
D1.01 MEM_LOAD_RETIRED.L1_HIT
";

/// Entries of one result: the three fixed counters and the four events.
const ENTRIES: usize = 7;

fn option_line() -> String {
    format!("-asm nop -config \"{CFG}\" -unroll_count 100 -loop_count 0 -n_measurements 10 -lint")
}

pub struct Invocation {
    nb: NanoBench,
    line: String,
}

impl Workload for Invocation {
    type Out = BenchmarkResult;
    const REFERENCE_OPS: usize = 50;
    const PERIOD: Option<usize> = None;
    const RESETS_IN_OP: bool = false;
    const COUNT_OPS: usize = 200;
    const WINDOW_OPS: usize = 100;
    const PINS: &'static [(u64, u64)] = &[(1, 0xe4ee_f8af_e65e_beb9), (7, 0x3c36_554d_5763_e78c)];

    fn setup(seed: u64, spans: &mut Spans) -> Result<Invocation, NbError> {
        let machine = spans.time("machine.new_ms", || {
            Machine::new(MicroArch::CoffeeLake, Mode::User, seed)
        });
        Ok(Invocation {
            nb: NanoBench::with_machine(machine),
            line: option_line(),
        })
    }

    fn op(&mut self, _i: usize) -> Result<BenchmarkResult, NbError> {
        apply_options(&mut self.nb, &self.line)?;
        self.nb.run()
    }

    /// The same op as its public parts: tokenize, assemble, parse the
    /// counter config, lint, then run with the gate off (the lint already
    /// ran).
    fn traced_op(&mut self, _i: usize, spans: &mut Spans) -> Result<BenchmarkResult, NbError> {
        let tokens = spans.time("core.shell.tokenize_ms", || tokenize_spanned(&self.line))?;
        let mut lint = false;
        let mut it = tokens.into_iter().map(|(t, _)| t);
        while let Some(option) = it.next() {
            if option == "-lint" {
                lint = true;
                continue;
            }
            let value = it
                .next()
                .ok_or_else(|| NbError::InvalidOption(format!("{option} needs a value")))?;
            let number = || {
                value
                    .parse::<usize>()
                    .map_err(|_| NbError::InvalidOption(format!("`{value}` is not a number")))
            };
            match option.as_str() {
                "-asm" => {
                    let code = spans.time("x86.parse_asm_ms", || parse_asm(&value))?;
                    self.nb.code(code);
                }
                "-config" => {
                    let events = spans.time("pmu.parse_config_ms", || parse_config(&value))?;
                    self.nb.events(events);
                }
                "-unroll_count" => {
                    self.nb.unroll_count(number()?);
                }
                "-loop_count" => {
                    self.nb.loop_count(number()? as u64);
                }
                "-n_measurements" => {
                    self.nb.n_measurements(number()?);
                }
                other => {
                    return Err(NbError::InvalidOption(format!("unknown option `{other}`")));
                }
            }
        }
        if lint {
            let mut diags = spans.time("analysis.analyze_ms", || self.nb.analyze());
            if has_errors(&diags) {
                diags.retain(|d| d.severity == Severity::Error);
                return Err(NbError::Lint(diags));
            }
        }
        self.nb.lint(LintGate::Off);
        spans.time("core.session_run_ms", || self.nb.run())
    }

    fn digest(result: &BenchmarkResult) -> u64 {
        let mut d = Digest::default();
        for (name, value) in result.iter() {
            d.str(name).f64(value);
        }
        d.finish()
    }

    fn check_op(&mut self, _i: usize, result: &BenchmarkResult) -> Result<(), String> {
        if result.entries().len() != ENTRIES {
            return Err(format!(
                "{} result entries, want {ENTRIES}",
                result.entries().len()
            ));
        }
        match result.get("UOPS_ISSUED.ANY") {
            Some(1.0) => Ok(()),
            other => Err(format!("a NOP issues one µop, measured {other:?}")),
        }
    }

    fn check_run(&mut self, _seed: u64) -> Result<String, String> {
        Ok("every invocation measured one issued µop per NOP".into())
    }

    fn counters(&mut self) -> Counters {
        Counters::read(self.nb.session_mut())
    }
}
