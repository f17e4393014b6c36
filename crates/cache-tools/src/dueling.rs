//! Detection of set dueling (§VI-C3, following Wong's approach, ref \[48\]).
//!
//! The Ivy Bridge / Haswell / Broadwell L3 caches adaptively switch between
//! two policies: a few *leader sets* are dedicated to each policy and the
//! remaining *follower sets* use whichever policy currently performs
//! better (§VI-B3). This tool finds the dedicated sets — "unlike [Wong's]
//! approach, our tool also supports caches in which the fixed sets are not
//! the same in all C-Boxes" (Haswell: slice 0 only; Broadwell: ranges
//! swapped between slices, §VI-D).
//!
//! Detection strategy on the Table I parts, whose two policies are a
//! deterministic QLRU variant (A) and its probabilistic `MRp` variant (B):
//!
//! 1. B-leader sets always run the probabilistic policy — they are exactly
//!    the sets whose fill-evict-probe outcome varies across repetitions.
//! 2. A-leader sets are the only other sets whose *misses move the PSEL
//!    counter*: pumping misses into an A-leader pushes the followers to
//!    policy B, which is observable on a reference follower set.
//!
//! The scan drives the simulated hardware directly through same-set load
//! sequences (the nanoBench measurement path for individual sequences is
//! exercised by the cacheSeq-based tools; a full-cache scan uses the raw
//! path for speed — see DESIGN.md §5).

use nanobench_core::Session;
use nanobench_machine::Machine;
use std::collections::HashMap;
use std::ops::Range;

/// The dueling roles found in one slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SliceReport {
    /// Sets dedicated to the deterministic policy (A).
    pub leader_a: Vec<Range<usize>>,
    /// Sets dedicated to the probabilistic policy (B).
    pub leader_b: Vec<Range<usize>>,
}

/// The dedicated sets of every slice.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DuelingReport {
    /// Reports indexed by slice.
    pub per_slice: Vec<SliceReport>,
}

impl DuelingReport {
    /// Whether any dedicated sets were found at all (false for
    /// non-adaptive caches like Skylake's).
    pub fn is_adaptive(&self) -> bool {
        self.per_slice
            .iter()
            .any(|s| !s.leader_a.is_empty() || !s.leader_b.is_empty())
    }
}

/// Compresses a sorted list of set indices into ranges.
fn to_ranges(mut sets: Vec<usize>) -> Vec<Range<usize>> {
    sets.sort_unstable();
    sets.dedup();
    let mut out: Vec<Range<usize>> = Vec::new();
    for s in sets {
        match out.last_mut() {
            Some(r) if r.end == s => r.end = s + 1,
            _ => out.push(s..s + 1),
        }
    }
    out
}

/// Per-(slice, set) buckets of same-set physical addresses from a
/// contiguous region.
fn bucket_addresses(
    machine: &Machine,
    base: u64,
    size: u64,
    per_bucket: usize,
) -> HashMap<(usize, usize), Vec<u64>> {
    let mut buckets: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    let mut addr = base;
    while addr + 64 <= base + size {
        let key = machine.hierarchy().l3_location(addr);
        let v = buckets.entry(key).or_default();
        if v.len() < per_bucket {
            v.push(addr);
        }
        addr += 64;
    }
    buckets
}

/// Fill-evict-probe outcome of one set: which of the first `assoc + 1`
/// blocks survive. Starts from per-line flushes so repetitions are
/// independent.
fn probe_signature(machine: &mut Machine, addrs: &[u64], assoc: usize) -> Vec<bool> {
    // Two associativities' worth of fills maximizes the number of
    // insertion-age draws, so probabilistic policies reveal themselves
    // quickly.
    let k = (2 * assoc + 1).min(addrs.len());
    for &a in &addrs[..k] {
        machine.hierarchy_mut().clflush(a);
    }
    for &a in &addrs[..k] {
        machine.hierarchy_mut().access(a);
    }
    (0..k)
        .map(|i| {
            machine.hierarchy().probe_level(addrs[i])
                != nanobench_cache::hierarchy::HitLevel::Memory
        })
        .collect()
}

/// Whether the set's probe behaviour varies across repetitions
/// (probabilistic policy).
fn is_nondeterministic(machine: &mut Machine, addrs: &[u64], assoc: usize, reps: usize) -> bool {
    let first = probe_signature(machine, addrs, assoc);
    (1..reps).any(|_| probe_signature(machine, addrs, assoc) != first)
}

/// Neutralizes the policy selector before a per-set test. Probing leader
/// sets generates misses that move PSEL, which would make *followers* look
/// non-deterministic and contaminate the scan. Wong's approach equivalently
/// quiesces the selector with balanced training traffic; with the simulated
/// hardware we reset the counter directly (experiment instrumentation; the
/// detector's decisions still use only load/flush/probe observations).
fn neutralize_psel(machine: &Machine) {
    machine.hierarchy().psel().reset();
}

/// Pumps `n` misses into the set (cycling `assoc + 1` blocks with per-line
/// flushes so every access misses).
fn pump_misses(machine: &mut Machine, addrs: &[u64], assoc: usize, n: usize) {
    let k = (assoc + 1).min(addrs.len());
    for i in 0..n {
        let a = addrs[i % k];
        machine.hierarchy_mut().clflush(a);
        machine.hierarchy_mut().access(a);
    }
}

/// [`find_dedicated_sets`] on a reusable [`Session`]'s machine, so a scan
/// campaign shares the session the other cache tools already hold instead
/// of building a dedicated machine per scan.
pub fn find_dedicated_sets_on(
    session: &mut Session,
    region: u64,
    region_size: u64,
    set_range: Range<usize>,
    reps: usize,
) -> DuelingReport {
    find_dedicated_sets(session.machine_mut(), region, region_size, set_range, reps)
}

/// Finds the dedicated (leader) sets in the given set range of each slice.
///
/// `region` must be a physically-contiguous allocation large enough to
/// give every (slice, set) pair `assoc + 2` same-set blocks.
pub fn find_dedicated_sets(
    machine: &mut Machine,
    region: u64,
    region_size: u64,
    set_range: Range<usize>,
    reps: usize,
) -> DuelingReport {
    let assoc = machine.hierarchy().config().l3.assoc;
    let slices = machine.hierarchy().config().l3.slices;
    let buckets = bucket_addresses(machine, region, region_size, 2 * assoc + 4);

    let mut report = DuelingReport {
        per_slice: vec![SliceReport::default(); slices],
    };

    // Phase 1: B-leaders are non-deterministic regardless of PSEL.
    let mut deterministic: Vec<(usize, usize)> = Vec::new();
    for slice in 0..slices {
        let mut b_sets = Vec::new();
        for set in set_range.clone() {
            let Some(addrs) = buckets.get(&(slice, set)).cloned() else {
                continue;
            };
            if addrs.len() < 2 * assoc + 1 {
                continue;
            }
            neutralize_psel(machine);
            if is_nondeterministic(machine, &addrs, assoc, reps) {
                b_sets.push(set);
            } else {
                deterministic.push((slice, set));
            }
        }
        report.per_slice[slice].leader_b = to_ranges(b_sets);
    }

    // A known B-leader lets us push PSEL back toward A between tests.
    let b_leader_addrs = report.per_slice.iter().enumerate().find_map(|(slice, r)| {
        r.leader_b
            .first()
            .and_then(|range| buckets.get(&(slice, range.start)).cloned())
    });

    // Phase 2: a deterministic set is an A-leader iff pumping misses into
    // it flips a reference follower to the (non-deterministic) B policy.
    if let Some(b_addrs) = b_leader_addrs {
        // Reference follower: a deterministic set far away from any
        // detected leader candidates (outside the scanned range if
        // possible, otherwise the first deterministic set).
        let reference = deterministic
            .iter()
            .find(|(sl, st)| {
                *sl == 0
                    && report
                        .per_slice
                        .iter()
                        .all(|r| r.leader_b.iter().all(|range| !range.contains(st)))
            })
            .copied();
        let Some(reference) = reference else {
            return report;
        };
        let ref_addrs = buckets
            .get(&reference)
            .cloned()
            .expect("reference bucket exists");

        let mut a_sets: Vec<Vec<usize>> = vec![Vec::new(); slices];
        for (slice, set) in deterministic {
            if (slice, set) == reference {
                continue;
            }
            let Some(addrs) = buckets.get(&(slice, set)).cloned() else {
                continue;
            };
            // Reset PSEL toward A by pumping misses into the B-leader.
            pump_misses(machine, &b_addrs, assoc, 1500);
            let before = is_nondeterministic(machine, &ref_addrs, assoc, reps);
            // Pump misses into the candidate; if it is an A-leader, PSEL
            // moves toward B and the follower becomes non-deterministic.
            pump_misses(machine, &addrs, assoc, 1500);
            let after = is_nondeterministic(machine, &ref_addrs, assoc, reps);
            if !before && after {
                a_sets[slice].push(set);
            }
        }
        for (slice, sets) in a_sets.into_iter().enumerate() {
            report.per_slice[slice].leader_a = to_ranges(sets);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nanobench_cache::presets::cpu_by_microarch;
    use nanobench_machine::Mode;

    fn region_for(machine: &mut Machine, sets: usize) -> (u64, u64) {
        let slices = machine.hierarchy().config().l3.slices as u64;
        let total_sets = machine.hierarchy().config().l3.sets_per_slice() as u64;
        let assoc = machine.hierarchy().config().l3.assoc as u64;
        let size = (2 * assoc + 8) * total_sets * slices * 64 * 2;
        let base = machine.alloc_contiguous(size).unwrap();
        let _ = sets;
        (base, size)
    }

    #[test]
    fn to_ranges_compresses() {
        assert_eq!(to_ranges(vec![5, 3, 4, 9]), vec![3..6, 9..10]);
        assert!(to_ranges(vec![]).is_empty());
    }

    #[test]
    fn skylake_is_not_adaptive() {
        let cpu = cpu_by_microarch("Skylake").unwrap();
        let mut m = Machine::from_cpu(&cpu, Mode::Kernel, 5);
        m.hierarchy_mut().prefetchers_mut().disable_all();
        let (base, size) = region_for(&mut m, 64);
        let report = find_dedicated_sets(&mut m, base, size, 500..600, 4);
        assert!(!report.is_adaptive());
    }

    #[test]
    fn ivy_bridge_leaders_found_in_scanned_window() {
        // Scan a window covering the first leader range (512-575) plus
        // part of the second (768-831) on slice 0; per §VI-D Ivy Bridge
        // has leaders in ALL slices.
        let cpu = cpu_by_microarch("Ivy Bridge").unwrap();
        let mut m = Machine::from_cpu(&cpu, Mode::Kernel, 5);
        m.hierarchy_mut().prefetchers_mut().disable_all();
        let (base, size) = region_for(&mut m, 0);
        let report = find_dedicated_sets(&mut m, base, size, 760..840, 8);
        // The probabilistic leaders 768-831 must show up in every slice.
        for (slice, r) in report.per_slice.iter().enumerate() {
            let b_sets: usize = r.leader_b.iter().map(|r| r.len()).sum();
            assert!(
                b_sets >= 48,
                "slice {slice}: expected ~64 B-leaders in 768..832, found {b_sets} ({:?})",
                r.leader_b
            );
            for range in &r.leader_b {
                assert!(range.start >= 768 && range.end <= 832, "{range:?}");
            }
        }
    }
}
