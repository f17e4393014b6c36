//! cacheSeq: measuring the hits and misses of an access sequence (§VI-C).
//!
//! cacheSeq takes a sequence of blocks that map to the same cache set,
//! generates a microbenchmark, and evaluates it with the kernel-space
//! version of nanoBench. Per-element measurement inclusion uses the
//! pause/resume-counting feature (§III-I); between two accesses to the same
//! set of a lower-level cache, eviction accesses to the higher-level caches
//! are inserted (and excluded from measurement) so the access actually
//! reaches the cache under analysis; `WBINVD` can be executed at the start
//! of each sequence.

use crate::addresses::{build_pool, AddrPool, Level};
use nanobench_cache::presets::CpuSpec;
use nanobench_core::{BenchSpec, NbError, Session};
use nanobench_machine::{Machine, Mode};
use nanobench_x86::inst::{Instruction, Mnemonic};
use nanobench_x86::operand::{MemRef, Operand};
use nanobench_x86::reg::{Gpr, Width};

/// One element of an access sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeqItem {
    /// Index of the block (into the tool's block pool): `B3` has block 3.
    pub block: usize,
    /// Whether this access is included in the measurement (§VI-C).
    pub measured: bool,
}

/// An access sequence, e.g. `<WBINVD> B0 B1 B2? B0?`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessSeq {
    /// Execute `WBINVD` before the sequence (flushes all caches).
    pub wbinvd: bool,
    /// The accesses in order.
    pub items: Vec<SeqItem>,
}

impl AccessSeq {
    /// Parses the sequence notation used in the paper: blocks are written
    /// `B<i>`, a `?` suffix marks the access as measured, and an optional
    /// leading `<WBINVD>` flushes the caches first.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token.
    pub fn parse(text: &str) -> Result<AccessSeq, String> {
        let mut seq = AccessSeq::default();
        for token in text.split_whitespace() {
            let lower = token.to_ascii_lowercase();
            if lower == "<wbinvd>" {
                if !seq.items.is_empty() {
                    return Err("<WBINVD> must come first".to_string());
                }
                seq.wbinvd = true;
                continue;
            }
            let (body, measured) = match lower.strip_suffix('?') {
                Some(b) => (b, true),
                None => (lower.as_str(), false),
            };
            let block = body
                .strip_prefix('b')
                .and_then(|n| n.parse::<usize>().ok())
                .ok_or_else(|| format!("cannot parse sequence token `{token}`"))?;
            seq.items.push(SeqItem { block, measured });
        }
        Ok(seq)
    }

    /// A sequence accessing `blocks` in order, with every access measured,
    /// after a `WBINVD`.
    pub fn measured_all(blocks: &[usize]) -> AccessSeq {
        AccessSeq {
            wbinvd: true,
            items: blocks
                .iter()
                .map(|b| SeqItem {
                    block: *b,
                    measured: true,
                })
                .collect(),
        }
    }

    /// The number of distinct blocks required.
    pub fn max_block(&self) -> usize {
        self.items.iter().map(|i| i.block + 1).max().unwrap_or(0)
    }
}

/// The cacheSeq tool bound to one (CPU, level, set, slice) target.
///
/// Holds one reusable [`Session`] (machine, arenas, the level's hit-event
/// configuration) and a [`BenchSpec`] whose code is swapped per sequence —
/// the expensive setup (contiguous allocation, address-pool construction,
/// prefetcher disabling) happens once, and every sequence of a campaign
/// reuses it. Sequences normalize their own starting state via `<WBINVD>`,
/// so no session reset is needed (or wanted: a reset would re-enable the
/// prefetchers). The loads a sequence is made of are built once too.
///
/// The spec keeps its code until a different sequence comes: repetitions
/// of one sequence, run back to back as the age graph (§VI-C2) runs them,
/// reuse the spec unchanged, so the session replays its cached plans
/// without building, hashing or comparing the body.
#[derive(Debug)]
pub struct CacheSeq {
    session: Session,
    spec: BenchSpec,
    /// The sequence `spec` holds the code of, if any.
    built: Option<AccessSeq>,
    pool: AddrPool,
    /// The eviction pad between two same-set accesses: two rounds of loads
    /// over `pool.evictors`.
    pad: Vec<Instruction>,
    /// One load per block of `pool.target_blocks`.
    loads: Vec<Instruction>,
}

impl CacheSeq {
    /// Prepares cacheSeq for a target cache set.
    ///
    /// Allocates physically-contiguous memory (kernel mode, §IV-D),
    /// disables the hardware prefetchers via MSR 0x1A4 (§IV-A2), and
    /// collects `n_blocks` same-set block addresses plus eviction
    /// addresses.
    ///
    /// # Errors
    ///
    /// Propagates allocation failures as [`NbError::InvalidOption`].
    pub fn new(
        cpu: &CpuSpec,
        level: Level,
        set: usize,
        slice: Option<usize>,
        n_blocks: usize,
        seed: u64,
    ) -> Result<CacheSeq, NbError> {
        let mut machine = Machine::from_cpu(cpu, Mode::Kernel, seed);
        // Disable prefetchers exactly as the real tool does: by setting
        // bits in MSR 0x1A4 (§IV-A2).
        let disable = machine.decode(&nanobench_x86::asm::parse_asm(
            "mov rcx, 0x1A4; mov rax, 0xF; mov rdx, 0; wrmsr",
        )?);
        machine.run_plan(&disable).map_err(NbError::from)?;
        // Enough contiguous memory that every set/slice combination has
        // plenty of candidate blocks.
        let slices = machine.hierarchy().config().l3.slices as u64;
        let sets = machine.hierarchy().config().l3.sets_per_slice() as u64;
        let need = (n_blocks as u64 + 80) * sets * slices * 64 * 2;
        let region = machine
            .alloc_contiguous(need.max(8 << 20))
            .map_err(|e| NbError::InvalidOption(e.to_string()))?;
        let pool = build_pool(
            &mut machine,
            region,
            need.max(8 << 20),
            level,
            set,
            slice,
            n_blocks,
        );
        let mut session = Session::with_machine(machine);
        session.config_str(level.hit_event_config())?;
        let mut spec = BenchSpec::new();
        spec.no_mem(true)
            .basic_mode(true)
            .n_measurements(1)
            .unroll_count(1);
        let pad = [&pool.evictors, &pool.evictors]
            .into_iter()
            .flatten()
            .map(|&e| load_of(e))
            .collect();
        let loads = pool.target_blocks.iter().map(|&b| load_of(b)).collect();
        Ok(CacheSeq {
            session,
            spec,
            built: None,
            pool,
            pad,
            loads,
        })
    }

    /// The address pool (for tests and diagnostics).
    pub fn pool(&self) -> &AddrPool {
        &self.pool
    }

    /// The underlying machine.
    pub fn machine_mut(&mut self) -> &mut Machine {
        self.session.machine_mut()
    }

    /// The underlying session.
    pub fn session_mut(&mut self) -> &mut Session {
        &mut self.session
    }

    /// The microbenchmark body for a sequence.
    fn body(&self, seq: &AccessSeq) -> Vec<Instruction> {
        // Each access adds its load, at most the eviction pad and at most
        // two counting markers; one marker may close the body.
        let mut out = Vec::with_capacity(seq.items.len() * (self.pad.len() + 3) + 1);
        let mut counting = true;
        let set_counting = |out: &mut Vec<Instruction>, on: bool, counting: &mut bool| {
            if *counting != on {
                out.push(Instruction::new(if on {
                    Mnemonic::NbResume
                } else {
                    Mnemonic::NbPause
                }));
                *counting = on;
            }
        };
        for (i, item) in seq.items.iter().enumerate() {
            // Eviction pads between same-set accesses (never before the
            // first access): excluded from measurement.
            if i > 0 && !self.pad.is_empty() {
                set_counting(&mut out, false, &mut counting);
                out.extend_from_slice(&self.pad);
            }
            set_counting(&mut out, item.measured, &mut counting);
            out.push(self.loads[item.block]);
        }
        set_counting(&mut out, true, &mut counting);
        out
    }

    /// Runs the sequence once and returns the number of *measured*
    /// accesses that hit in the target cache.
    ///
    /// # Errors
    ///
    /// Propagates benchmark errors. Sequences referencing more blocks than
    /// the pool holds yield [`NbError::InvalidOption`].
    pub fn run_hits(&mut self, seq: &AccessSeq) -> Result<u64, NbError> {
        if seq.max_block() > self.pool.target_blocks.len() {
            return Err(NbError::InvalidOption(format!(
                "sequence needs {} blocks but the pool holds {}",
                seq.max_block(),
                self.pool.target_blocks.len()
            )));
        }
        if self.built.as_ref() != Some(seq) {
            if self.built.as_ref().map(|built| built.wbinvd) != Some(seq.wbinvd) {
                let wbinvd = Instruction::new(Mnemonic::Wbinvd);
                self.spec
                    .init(if seq.wbinvd { vec![wbinvd] } else { Vec::new() });
            }
            let body = self.body(seq);
            self.spec.code(body);
            self.built = Some(seq.clone());
        }
        let result = self.session.run(&self.spec)?;
        let value = result.get(self.pool.level.hit_event()).unwrap_or(0.0);
        Ok(value.round().max(0.0) as u64)
    }

    /// Number of measured accesses in a sequence (for hit-ratio math).
    pub fn measured_count(seq: &AccessSeq) -> usize {
        seq.items.iter().filter(|i| i.measured).count()
    }
}

/// The load of one block or evictor: `mov rbx, qword ptr [addr]`.
fn load_of(addr: u64) -> Instruction {
    Instruction::binary(
        Mnemonic::Mov,
        Operand::gpr(Gpr::Rbx),
        Operand::Mem(MemRef::absolute(addr, Width::Q)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_cache::presets::cpu_by_microarch;

    #[test]
    fn parse_sequence_notation() {
        let seq = AccessSeq::parse("<WBINVD> B0 B1 B2? B0?").unwrap();
        assert!(seq.wbinvd);
        assert_eq!(seq.items.len(), 4);
        assert!(!seq.items[0].measured);
        assert!(seq.items[2].measured);
        assert_eq!(seq.items[3].block, 0);
        assert_eq!(seq.max_block(), 3);
        assert!(AccessSeq::parse("X1").is_err());
        assert!(AccessSeq::parse("B0 <WBINVD>").is_err());
    }

    #[test]
    fn l1_hits_and_misses_are_measured() {
        let cpu = cpu_by_microarch("Skylake").unwrap();
        let mut cs = CacheSeq::new(&cpu, Level::L1, 3, None, 12, 9).unwrap();
        // After WBINVD, a first access misses, a repeat hits (8-way set).
        let seq = AccessSeq::parse("<WBINVD> B0? B0? B1? B0?").unwrap();
        let hits = cs.run_hits(&seq).unwrap();
        assert_eq!(hits, 2, "B0 repeat and final B0 hit; first accesses miss");
        // Filling 9 distinct blocks into an 8-way PLRU set evicts B0.
        let seq = AccessSeq::parse("<WBINVD> B0 B1 B2 B3 B4 B5 B6 B7 B8 B0?").unwrap();
        let hits = cs.run_hits(&seq).unwrap();
        assert_eq!(hits, 0, "B0 must be evicted by the 9th distinct block");
    }

    #[test]
    fn l2_eviction_pads_let_accesses_reach_l2() {
        let cpu = cpu_by_microarch("Skylake").unwrap();
        let mut cs = CacheSeq::new(&cpu, Level::L2, 17, None, 8, 9).unwrap();
        // B0 twice: the second access must be served by the L2 (the pads
        // evicted it from L1), counting as an L2 hit.
        let seq = AccessSeq::parse("<WBINVD> B0 B0?").unwrap();
        let hits = cs.run_hits(&seq).unwrap();
        assert_eq!(hits, 1, "second access should hit in L2 after L1 eviction");
    }

    #[test]
    fn l3_sequence_on_skylake_matches_its_qlru_policy() {
        let cpu = cpu_by_microarch("Skylake").unwrap();
        let mut cs = CacheSeq::new(&cpu, Level::L3, 64, Some(0), 20, 9).unwrap();
        let assoc = cpu.l3_assoc;
        // Fill the 16-way set, then re-access the first block: with
        // QLRU_H11_M1_R0_U0 nothing exceeds the associativity, so it hits.
        let blocks: Vec<usize> = (0..assoc).chain([0]).collect();
        let seq = AccessSeq::measured_all(&blocks);
        let hits = cs.run_hits(&seq).unwrap();
        // All fills miss; the final re-access hits.
        assert_eq!(hits, 1);
    }
}
