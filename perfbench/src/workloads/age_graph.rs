//! `age_graph`: §VI-C2 / Figure 1 as e7 runs it. Ivy Bridge L3 set 800,
//! slice 0, in the probabilistic QLRU leader range; every op is one
//! `<WBINVD> B0 .. B11 F0 .. F(n-1) Bb?` sequence.

use super::Workload;
use crate::check::Digest;
use crate::layers::{Counters, Spans};
use nanobench_cache::presets::cpu_by_microarch;
use nanobench_cache_tools::{AccessSeq, CacheSeq, Level, SeqItem};
use nanobench_core::NbError;

/// Figure 1's blocks: the Ivy Bridge L3 associativity.
const K: usize = 12;
/// Figure 1's set and slice.
const SET: usize = 800;
const SLICE: usize = 0;
/// Fresh-block counts on the x-axis, as in e7.
const N_STEP: usize = 20;
const N_MAX: usize = 200;
/// Repetitions of each (n, block) point per pass over the grid, run back
/// to back as in e7, so that the plan cache sees e7's reuse.
const REPS_PER_PASS: usize = 4;

struct Point {
    n_index: usize,
    block: usize,
    seq: AccessSeq,
}

pub struct AgeGraph {
    cs: CacheSeq,
    /// One pass over e7's (n, block, rep) grid: blocks outermost and
    /// repetitions innermost, so that any stretch of consecutive ops
    /// mixes short and long sequences alike.
    grid: Vec<Point>,
    /// `hits[b][n]` and `runs[b][n]` over every checked op.
    hits: Vec<Vec<u64>>,
    runs: Vec<Vec<u64>>,
}

fn grid() -> Vec<Point> {
    let mut grid = Vec::new();
    for block in 0..K {
        for (n_index, n) in (0..=N_MAX).step_by(N_STEP).enumerate() {
            let mut items: Vec<SeqItem> = (0..K + n)
                .map(|b| SeqItem {
                    block: b,
                    measured: false,
                })
                .collect();
            items.push(SeqItem {
                block,
                measured: true,
            });
            let seq = AccessSeq {
                wbinvd: true,
                items,
            };
            for _ in 0..REPS_PER_PASS {
                grid.push(Point {
                    n_index,
                    block,
                    seq: seq.clone(),
                });
            }
        }
    }
    grid
}

impl AgeGraph {
    fn mass(&self, block: usize) -> u64 {
        self.hits[block].iter().sum()
    }
}

impl Workload for AgeGraph {
    type Out = u64;
    const REFERENCE_OPS: usize = 132;
    const PERIOD: Option<usize> = None;
    const RESETS_IN_OP: bool = false;
    const COUNT_OPS: usize = 132;
    const WINDOW_OPS: usize = 44;
    const PINS: &'static [(u64, u64)] = &[(1, 0x91b4_c9d8_59f4_1b3c), (7, 0x1daf_8b6b_59ec_5229)];

    fn setup(seed: u64, spans: &mut Spans) -> Result<AgeGraph, NbError> {
        let cpu = cpu_by_microarch("Ivy Bridge")
            .ok_or_else(|| NbError::InvalidOption("no Ivy Bridge preset".into()))?;
        if cpu.l3_assoc != K {
            return Err(NbError::InvalidOption(format!(
                "Ivy Bridge L3 is {}-way, Figure 1 needs {K}",
                cpu.l3_assoc
            )));
        }
        let cs = spans.time("cache_tools.cacheseq_new_ms", || {
            CacheSeq::new(&cpu, Level::L3, SET, Some(SLICE), K + N_MAX + 1, seed)
        })?;
        let n_points = N_MAX / N_STEP + 1;
        Ok(AgeGraph {
            cs,
            grid: grid(),
            hits: vec![vec![0; n_points]; K],
            runs: vec![vec![0; n_points]; K],
        })
    }

    fn op(&mut self, i: usize) -> Result<u64, NbError> {
        let point = &self.grid[i % self.grid.len()];
        self.cs.run_hits(&point.seq)
    }

    fn traced_op(&mut self, i: usize, spans: &mut Spans) -> Result<u64, NbError> {
        spans.time("cache_tools.run_hits_ms", || self.op(i))
    }

    fn digest(hits: &u64) -> u64 {
        Digest::default().u64(*hits).finish()
    }

    fn check_op(&mut self, i: usize, &hits: &u64) -> Result<(), String> {
        let point = &self.grid[i % self.grid.len()];
        if hits > 1 {
            return Err(format!("{hits} hits from one measured access"));
        }
        self.hits[point.block][point.n_index] += hits;
        self.runs[point.block][point.n_index] += 1;
        Ok(())
    }

    fn check_run(&mut self, _seed: u64) -> Result<String, String> {
        if self.runs.iter().flatten().any(|&r| r == 0) {
            return Err("run too short to cover the age-graph grid once".into());
        }
        let (b1, b11) = (self.mass(1), self.mass(K - 1));
        if b11 <= b1 {
            return Err(format!("B11 mass {b11} must exceed B1 mass {b1}"));
        }
        let intermediate = self
            .hits
            .iter()
            .flatten()
            .zip(self.runs.iter().flatten())
            .any(|(&h, &r)| h > 0 && h < r);
        if !intermediate {
            return Err("probabilistic insertion shows no intermediate hit counts".into());
        }
        Ok(format!(
            "B11 mass {b11} > B1 mass {b1} over {} runs per point; intermediate hit counts present",
            self.runs.iter().flatten().min().unwrap_or(&0)
        ))
    }

    fn counters(&mut self) -> Counters {
        Counters::read(self.cs.session_mut())
    }
}
