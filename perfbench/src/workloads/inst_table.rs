//! `inst_table`: the §V case study. Skylake's instruction suite measured
//! on one reused kernel session; vector variants also go through the
//! §III-E code-bytes path.

use super::Workload;
use crate::check::Digest;
use crate::layers::{Counters, Spans};
use nanobench_core::{NbError, Session};
use nanobench_inst_tools::{
    benchmark_suite, measure_instruction_on, measure_instruction_via_bytes_on, InstMeasurement,
    InstSpec,
};
use nanobench_machine::{Machine, Mode};
use nanobench_uarch::port::MicroArch;

/// Documented Skylake latencies the table must recover (e5's spot checks).
const CLAIMS: [(&str, f64); 4] = [
    ("ADD (r64, r64)", 1.0),
    ("IMUL (r64, r64)", 3.0),
    ("MOV load (r64, m64)", 4.0),
    ("MULPS (xmm, xmm)", 4.0),
];

pub struct InstTable {
    session: Session,
    suite: Vec<InstSpec>,
    /// Whether each variant is a vector one (measured on both paths).
    vector: Vec<bool>,
    /// Index into `suite` of each claim row.
    claim_rows: Vec<usize>,
    claims_checked: [bool; CLAIMS.len()],
}

/// The asm-path measurement, plus the byte-path one for vector variants.
pub type Row = (InstMeasurement, Option<InstMeasurement>);

impl InstTable {
    fn measure(&mut self, i: usize) -> Result<Row, NbError> {
        let k = i % self.suite.len();
        let spec = &self.suite[k];
        let via_asm = measure_instruction_on(&mut self.session, spec)?;
        let via_bytes = match self.vector[k] {
            true => Some(measure_instruction_via_bytes_on(&mut self.session, spec)?),
            false => None,
        };
        Ok((via_asm, via_bytes))
    }
}

fn digest_measurement(d: &mut Digest, m: &InstMeasurement) {
    d.str(&m.name);
    match m.latency {
        Some(l) => d.u64(1).f64(l),
        None => d.u64(0),
    };
    d.f64(m.throughput).f64(m.uops);
    for &p in &m.ports {
        d.f64(p);
    }
}

impl Workload for InstTable {
    type Out = Row;
    const REFERENCE_OPS: usize = 85;
    const PERIOD: Option<usize> = Some(85);
    const RESETS_IN_OP: bool = true;
    const COUNT_OPS: usize = 170;
    const WINDOW_OPS: usize = 85;
    const PINS: &'static [(u64, u64)] = &[(1, 0x7ae0_d86b_e8d5_ea21), (7, 0x7ae0_d86b_e8d5_ea21)];

    fn setup(seed: u64, spans: &mut Spans) -> Result<InstTable, NbError> {
        let machine = spans.time("machine.new_ms", || {
            Machine::new(MicroArch::Skylake, Mode::Kernel, seed)
        });
        let session = Session::with_machine(machine);
        let suite = benchmark_suite();
        let vector = suite
            .iter()
            .map(|s| s.throughput_asm.contains("xmm") || s.throughput_asm.contains("ymm"))
            .collect();
        let claim_rows = CLAIMS
            .iter()
            .map(|(name, _)| {
                suite
                    .iter()
                    .position(|s| s.name == *name)
                    .ok_or_else(|| NbError::InvalidOption(format!("suite lacks claim row {name}")))
            })
            .collect::<Result<_, _>>()?;
        Ok(InstTable {
            session,
            suite,
            vector,
            claim_rows,
            claims_checked: [false; CLAIMS.len()],
        })
    }

    fn op(&mut self, i: usize) -> Result<Row, NbError> {
        self.measure(i)
    }

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> Result<Row, NbError> {
        spans.time("inst_tools.measure_ms", || self.measure(i))
    }

    fn digest((via_asm, via_bytes): &Row) -> u64 {
        let mut d = Digest::default();
        digest_measurement(&mut d, via_asm);
        if let Some(b) = via_bytes {
            digest_measurement(&mut d, b);
        }
        d.finish()
    }

    fn check_op(&mut self, i: usize, (via_asm, via_bytes): &Row) -> Result<(), String> {
        let k = i % self.suite.len();
        if via_bytes.as_ref().is_some_and(|b| b != via_asm) {
            return Err(format!("{}: byte path differs from asm path", via_asm.name));
        }
        if let Some(c) = self.claim_rows.iter().position(|&row| row == k) {
            let (name, latency) = CLAIMS[c];
            if via_asm.latency != Some(latency) {
                return Err(format!(
                    "{name}: latency {:?}, documented {latency}",
                    via_asm.latency
                ));
            }
            self.claims_checked[c] = true;
        }
        Ok(())
    }

    fn check_run(&mut self, _seed: u64) -> Result<String, String> {
        match self.claims_checked.iter().position(|&c| !c) {
            Some(c) => Err(format!("run too short to reach claim row {}", CLAIMS[c].0)),
            None => Ok(format!(
                "documented latencies recovered ({}); byte path == asm path on {} vector variants",
                CLAIMS.map(|(name, l)| format!("{name} {l}")).join(", "),
                self.vector.iter().filter(|&&v| v).count()
            )),
        }
    }

    fn counters(&mut self) -> Counters {
        Counters::read(&self.session)
    }
}
