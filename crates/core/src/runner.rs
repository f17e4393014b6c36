//! Running generated code — Algorithm 2 of the paper.
//!
//! The generated function is run `warm_up_count + n_measurements` times;
//! warm-up runs are discarded (§III-H) and an aggregate function — minimum,
//! median, or arithmetic mean excluding the top and bottom 20% — is applied
//! to the rest (§III-C).

use crate::codegen::Arenas;
use crate::error::NbError;
use nanobench_machine::Machine;
use nanobench_uarch::plan::DecodedProgram;
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::Operand;
use nanobench_x86::reg::Gpr;

/// The user-space version cannot program the counters itself: each
/// invocation goes through the perf subsystem's syscall path first. This
/// stub models that per-run kernel round trip (the reason the user-space
/// version is ~3x slower in §III-K; the real tool additionally pays for
/// process startup).
pub(crate) fn user_syscall_stub() -> Vec<Instruction> {
    vec![
        Instruction::binary(Mnemonic::Mov, Operand::gpr(Gpr::R15), Operand::imm(150)),
        Instruction::binary(Mnemonic::Add, Operand::gpr(Gpr::Rax), Operand::imm(1)),
        Instruction::unary(Mnemonic::Dec, Operand::gpr(Gpr::R15)),
        Instruction::unary(Mnemonic::Jnz, Operand::Label(1)),
    ]
}

/// Aggregate function applied to the per-run measurements (§III-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregate {
    /// Minimum.
    Min,
    /// Median.
    #[default]
    Median,
    /// Arithmetic mean excluding the top and bottom 20% of the values.
    TrimmedMean,
}

impl Aggregate {
    /// Applies the aggregate to a set of values.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn apply(self, values: &[i64]) -> f64 {
        self.apply_with_scratch(values, &mut Vec::new())
    }

    /// [`Aggregate::apply`] with a caller-provided scratch buffer, so a
    /// measurement loop aggregating many sample vectors allocates once.
    /// `Min` never copies; `Median` uses a linear-time selection instead
    /// of a full sort; only `TrimmedMean` sorts.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn apply_with_scratch(self, values: &[i64], scratch: &mut Vec<i64>) -> f64 {
        assert!(!values.is_empty(), "no measurements to aggregate");
        match self {
            Aggregate::Min => *values.iter().min().expect("non-empty") as f64,
            Aggregate::Median => {
                scratch.clear();
                scratch.extend_from_slice(values);
                let n = scratch.len();
                let (below, mid, _) = scratch.select_nth_unstable(n / 2);
                let mid = *mid;
                if n % 2 == 1 {
                    mid as f64
                } else {
                    // The left partition holds the n/2 smallest values, so
                    // its maximum is the lower middle element.
                    let lower = *below.iter().max().expect("n >= 2");
                    (lower + mid) as f64 / 2.0
                }
            }
            Aggregate::TrimmedMean => {
                scratch.clear();
                scratch.extend_from_slice(values);
                scratch.sort_unstable();
                let n = scratch.len();
                let trim = n / 5;
                let kept = &scratch[trim..n - trim];
                kept.iter().sum::<i64>() as f64 / kept.len() as f64
            }
        }
    }
}

/// Runs the generated code once — through its pre-decoded `plan` — and
/// extracts the per-counter deltas (`m2 - m1`) of its `slots` counter
/// reads; `no_mem` says the code was generated in noMem mode (§III-I).
///
/// `corunner_plans` loop on cores 1..N of a multi-core machine while the
/// plan runs on core 0 (pass `&[]` for an uncontended measurement — the
/// path is then byte-for-byte the single-core one).
///
/// `stub_plan`, when given, runs first: a user-mode session passes its
/// decoded `user_syscall_stub`; kernel-mode callers pass `None`.
///
/// # Errors
///
/// Propagates CPU faults from the run.
pub fn run_once(
    machine: &mut Machine,
    slots: usize,
    no_mem: bool,
    plan: &DecodedProgram,
    corunner_plans: &[&DecodedProgram],
    stub_plan: Option<&DecodedProgram>,
    arenas: &Arenas,
) -> Result<Vec<i64>, NbError> {
    if let Some(stub) = stub_plan {
        machine.run_plan(stub)?;
    }
    if corunner_plans.is_empty() {
        machine.run_plan(plan)?;
    } else {
        machine.run_plan_with_corunners(plan, corunner_plans)?;
    }
    let mut deltas = Vec::with_capacity(slots);
    if no_mem {
        // The generated code spilled the register accumulators to the m2
        // area after the second counter read.
        for slot in 0..slots as u64 {
            let delta = machine
                .read_mem(arenas.m2 + 8 * slot, 8)
                .expect("m2 area is mapped");
            deltas.push(delta as i64);
        }
    } else {
        for slot in 0..slots as u64 {
            let m1 = machine
                .read_mem(arenas.m1 + 8 * slot, 8)
                .expect("m1 area is mapped");
            let m2 = machine
                .read_mem(arenas.m2 + 8 * slot, 8)
                .expect("m2 area is mapped");
            deltas.push(m2.wrapping_sub(m1) as i64);
        }
    }
    Ok(deltas)
}

/// Algorithm 2: runs the code `warm_up + n` times and aggregates the last
/// `n` per-counter deltas. All `warm_up + n` runs replay the same decoded
/// `plan` — the program is decoded at most once per measurement series.
///
/// # Errors
///
/// Propagates CPU faults from any run.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    machine: &mut Machine,
    slots: usize,
    no_mem: bool,
    plan: &DecodedProgram,
    corunner_plans: &[&DecodedProgram],
    stub_plan: Option<&DecodedProgram>,
    arenas: &Arenas,
    warm_up: usize,
    n: usize,
    agg: Aggregate,
    scratch: &mut Vec<i64>,
) -> Result<Vec<f64>, NbError> {
    assert!(n > 0, "need at least one measurement");
    let mut samples: Vec<Vec<i64>> = vec![Vec::with_capacity(n); slots];
    for i in 0..warm_up + n {
        let deltas = run_once(
            machine,
            slots,
            no_mem,
            plan,
            corunner_plans,
            stub_plan,
            arenas,
        )?;
        if i >= warm_up {
            for (slot, d) in deltas.into_iter().enumerate() {
                samples[slot].push(d);
            }
        }
    }
    Ok(samples
        .iter()
        .map(|s| agg.apply_with_scratch(s, scratch))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let v = [5i64, 1, 9, 3, 7];
        assert_eq!(Aggregate::Min.apply(&v), 1.0);
        assert_eq!(Aggregate::Median.apply(&v), 5.0);
        let even = [1i64, 3, 5, 7];
        assert_eq!(Aggregate::Median.apply(&even), 4.0);
        // Trimmed mean over 10 values drops 2 on each side.
        let ten: Vec<i64> = vec![100, 1, 2, 3, 4, 5, 6, 7, 8, -50];
        let tm = Aggregate::TrimmedMean.apply(&ten);
        assert_eq!(tm, (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8) as f64 / 8.0);
    }

    #[test]
    #[should_panic(expected = "no measurements")]
    fn empty_aggregate_panics() {
        let _ = Aggregate::Min.apply(&[]);
    }
}
