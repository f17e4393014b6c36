//! Inference of permutation policies (§VI-C1, first tool; algorithm of
//! Abel & Reineke, RTAS 2013 [15], adapted to the cacheSeq primitive).
//!
//! The state of a permutation policy is a total order of the cached
//! blocks; position 0 is the next victim. The order is *read out* by age
//! measurements: block `b` is at position `p` iff it survives exactly `p`
//! fresh misses after the state was established (fresh blocks are inserted
//! "above" the existing blocks by all policies in this class, so existing
//! blocks are evicted in position order). The hit permutation for position
//! `p` is obtained by establishing a canonical state, hitting the block at
//! position `p`, and reading the order back out; the miss permutation
//! analogously with one fresh miss.
//!
//! The inferred specification is validated against random sequences and
//! compared with the canonical LRU/FIFO/PLRU specifications.

use crate::cacheseq::{AccessSeq, CacheSeq, SeqItem};
use nanobench_cache::policy::{
    fifo_spec, lru_spec, plru_spec, simulate_sequence, Perm, PermutationSpec, PolicyKind,
};
use nanobench_core::NbError;

/// Outcome of the permutation-policy inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PermInferResult {
    /// The inferred permutations match a known policy.
    Named {
        /// `"LRU"`, `"FIFO"` or `"PLRU"`.
        name: &'static str,
        /// The measured hit permutations.
        hit: Vec<Perm>,
        /// The measured miss permutation.
        miss: Perm,
    },
    /// A consistent permutation policy that matches no known name.
    Unknown {
        /// The measured hit permutations.
        hit: Vec<Perm>,
        /// The measured miss permutation.
        miss: Perm,
    },
    /// Measurements are inconsistent with a (deterministic, miss-monotone)
    /// permutation policy — e.g. MRU or the QLRU family (§VI-B2).
    NotPermutation {
        /// What went wrong.
        reason: String,
    },
}

/// Measures the age of `probe` after the given establishing accesses: the
/// number of fresh misses the block survives.
///
/// Fresh blocks use pool indices `fresh_base..`.
fn age_of(
    cs: &mut CacheSeq,
    establish: &[usize],
    probe: usize,
    assoc: usize,
    fresh_base: usize,
) -> Result<usize, NbError> {
    let mut age = 0usize;
    for n in 1..=assoc {
        let mut items: Vec<SeqItem> = establish
            .iter()
            .map(|b| SeqItem {
                block: *b,
                measured: false,
            })
            .collect();
        items.extend((0..n).map(|i| SeqItem {
            block: fresh_base + i,
            measured: false,
        }));
        items.push(SeqItem {
            block: probe,
            measured: true,
        });
        let seq = AccessSeq {
            wbinvd: true,
            items,
        };
        if cs.run_hits(&seq)? == 1 {
            age = n;
        } else {
            break;
        }
    }
    Ok(age)
}

/// Reads out the full order after the establishing accesses: returns
/// `positions[b]` for blocks `0..assoc` (or an error string if the ages do
/// not form a permutation).
fn read_order(
    cs: &mut CacheSeq,
    establish: &[usize],
    blocks: &[usize],
    assoc: usize,
    fresh_base: usize,
) -> Result<Result<Vec<usize>, String>, NbError> {
    let mut ages = Vec::with_capacity(blocks.len());
    for &b in blocks {
        ages.push(age_of(cs, establish, b, assoc, fresh_base)?);
    }
    let mut seen = vec![false; assoc];
    for &a in &ages {
        if a >= assoc || seen[a] {
            return Ok(Err(format!("ages {ages:?} are not a permutation")));
        }
        seen[a] = true;
    }
    Ok(Ok(ages))
}

/// Infers the permutation policy of the target cache.
///
/// Requires a pool of at least `2 * assoc + 2` blocks.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn infer_permutation_policy(
    cs: &mut CacheSeq,
    assoc: usize,
) -> Result<PermInferResult, NbError> {
    let blocks: Vec<usize> = (0..assoc).collect();
    let fresh_base = assoc + 1;

    // Canonical state: <WBINVD> B0 .. B(A-1).
    let canonical = read_order(cs, &blocks, &blocks, assoc, fresh_base)?;
    let canonical = match canonical {
        Ok(pos) => pos,
        Err(reason) => return Ok(PermInferResult::NotPermutation { reason }),
    };
    // block_at[p] = block at position p in the canonical state.
    let mut block_at = vec![0usize; assoc];
    for (b, &p) in canonical.iter().enumerate() {
        block_at[p] = b;
    }

    // Hit permutations: canonical followed by a hit at each position.
    let mut hit: Vec<Perm> = Vec::with_capacity(assoc);
    for &block in block_at.iter().take(assoc) {
        let mut establish = blocks.clone();
        establish.push(block);
        let after = match read_order(cs, &establish, &blocks, assoc, fresh_base)? {
            Ok(pos) => pos,
            Err(reason) => return Ok(PermInferResult::NotPermutation { reason }),
        };
        // perm[old position] = new position.
        let mut perm = vec![0usize; assoc];
        for (b, &newp) in after.iter().enumerate() {
            perm[canonical[b]] = newp;
        }
        hit.push(perm);
    }

    // Miss permutation: canonical followed by one fresh miss. The victim
    // (canonical position 0) is replaced by the fresh block, which starts
    // at position 0 before the permutation applies.
    let fresh = assoc; // block index `assoc` is the miss block
    let mut establish = blocks.clone();
    establish.push(fresh);
    let mut probe_blocks: Vec<usize> = blocks.clone();
    probe_blocks.push(fresh);
    let mut miss = vec![usize::MAX; assoc];
    for &b in &probe_blocks {
        if b != fresh && canonical[b] == 0 {
            continue; // the evicted victim has no new position
        }
        let age = age_of(cs, &establish, b, assoc, fresh_base)?;
        if age >= assoc {
            return Ok(PermInferResult::NotPermutation {
                reason: format!("block B{b} has out-of-range age {age} after a miss"),
            });
        }
        let old_pos = if b == fresh { 0 } else { canonical[b] };
        miss[old_pos] = age;
    }
    if miss.contains(&usize::MAX) {
        return Ok(PermInferResult::NotPermutation {
            reason: "could not observe a complete miss permutation".to_string(),
        });
    }

    // Compare with the canonical specifications (hit + miss components).
    for (name, spec) in [
        ("LRU", lru_spec(assoc)),
        ("FIFO", fifo_spec(assoc)),
        (
            "PLRU",
            if assoc.is_power_of_two() {
                plru_spec(assoc)
            } else {
                lru_spec(assoc) // placeholder, never matches below
            },
        ),
    ] {
        if name == "PLRU" && !assoc.is_power_of_two() {
            continue;
        }
        // The measured canonical state fixes block->position; the spec's
        // permutations are position-based, so they compare directly.
        if spec_matches(&spec, &hit, &miss, &canonical) {
            return Ok(PermInferResult::Named { name, hit, miss });
        }
    }
    Ok(PermInferResult::Unknown { hit, miss })
}

/// Compares measured (hit, miss) permutations with a canonical spec,
/// accounting for the relabeling between the measured canonical state and
/// the spec's initial order.
fn spec_matches(
    spec: &PermutationSpec,
    measured_hit: &[Perm],
    measured_miss: &Perm,
    _canonical: &[usize],
) -> bool {
    // Derive the spec's own canonical state (fill B0..B(A-1) from flush)
    // and its position-based hit/miss permutations in that state; since
    // both the measurement and the derivation express permutations purely
    // over *positions*, they are directly comparable.
    let assoc = spec.assoc();
    let derived = derive_position_perms(spec, assoc);
    derived.0 == measured_hit && &derived.1 == measured_miss
}

/// Simulates the spec to derive position-based hit and miss permutations
/// from the canonical (post-fill) state.
fn derive_position_perms(spec: &PermutationSpec, assoc: usize) -> (Vec<Perm>, Perm) {
    use nanobench_cache::policy::{occupancy, PermutationPolicy, SetPolicy};

    let occupied = |tags: &[Option<u64>]| occupancy(tags.iter().map(Option::is_some));

    // Track block positions through a simulated fill.
    let fill_state = || {
        let mut policy = PermutationPolicy::new(spec.clone());
        let mut tags: Vec<Option<u64>> = vec![None; assoc];
        for b in 0..assoc as u64 {
            let way = policy.on_miss(occupied(&tags));
            tags[way] = Some(b);
        }
        (policy, tags)
    };
    // Position of each block = how many misses it survives.
    let positions = |policy: &PermutationPolicy, tags: &[Option<u64>]| -> Vec<usize> {
        let mut pos = vec![0usize; assoc];
        let mut p = policy.clone();
        let mut t = tags.to_vec();
        for round in 0..assoc {
            let way = p.on_miss(occupied(&t));
            if let Some(b) = t[way] {
                if (b as usize) < assoc {
                    pos[b as usize] = round;
                }
            }
            t[way] = Some(1000 + round as u64);
        }
        pos
    };

    let (base_policy, base_tags) = fill_state();
    let canonical = positions(&base_policy, &base_tags);
    let mut block_at = vec![0usize; assoc];
    for (b, &p) in canonical.iter().enumerate() {
        block_at[p] = b;
    }

    let mut hit = Vec::with_capacity(assoc);
    for &block in block_at.iter().take(assoc) {
        let (mut policy, tags) = fill_state();
        let way = tags
            .iter()
            .position(|t| *t == Some(block as u64))
            .expect("block present");
        policy.on_hit(way, occupied(&tags));
        let after = positions(&policy, &tags);
        let mut perm = vec![0usize; assoc];
        for (b, &newp) in after.iter().enumerate() {
            perm[canonical[b]] = newp;
        }
        hit.push(perm);
    }

    let (mut policy, mut tags) = fill_state();
    let way = policy.on_miss(occupied(&tags));
    tags[way] = Some(assoc as u64); // the fresh block
    let after_all = {
        let mut pos_of_fresh = 0usize;
        let mut pos = vec![0usize; assoc];
        let mut p2 = policy.clone();
        let mut t2 = tags.clone();
        for round in 0..assoc {
            let w = p2.on_miss(occupied(&t2));
            match t2[w] {
                Some(b) if (b as usize) < assoc => pos[b as usize] = round,
                Some(b) if b as usize == assoc => pos_of_fresh = round,
                _ => {}
            }
            t2[w] = Some(2000 + round as u64);
        }
        (pos, pos_of_fresh)
    };
    let mut miss = vec![usize::MAX; assoc];
    miss[0] = after_all.1;
    for b in 0..assoc {
        if canonical[b] == 0 {
            continue; // evicted victim
        }
        miss[canonical[b]] = after_all.0[b];
    }
    // Victim position 0 was replaced by the fresh block; fill any hole
    // defensively (cannot occur for valid specs).
    for slot in miss.iter_mut() {
        if *slot == usize::MAX {
            *slot = 0;
        }
    }
    (hit, miss)
}

/// Convenience: checks an inferred result against random sequences by
/// simulating the matched policy.
///
/// # Errors
///
/// Propagates measurement errors.
pub fn validate_inference(
    cs: &mut CacheSeq,
    assoc: usize,
    kind: &PolicyKind,
    n_seqs: usize,
    seed: u64,
) -> Result<bool, NbError> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..n_seqs {
        let len = assoc * 3;
        let blocks: Vec<usize> = (0..len).map(|_| rng.gen_range(0..assoc + 2)).collect();
        let seq = AccessSeq::measured_all(&blocks);
        let measured = cs.run_hits(&seq)?;
        let blocks_u64: Vec<u64> = blocks.iter().map(|b| *b as u64).collect();
        let sim = simulate_sequence(kind, assoc, 0, &blocks_u64)
            .iter()
            .filter(|h| **h)
            .count() as u64;
        if sim != measured {
            return Ok(false);
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addresses::Level;
    use nanobench_cache::presets::cpu_by_microarch;

    #[test]
    fn derived_perms_for_lru_are_promotions() {
        let (hit, miss) = derive_position_perms(&lru_spec(4), 4);
        // LRU: hit at p moves it to the top.
        assert_eq!(hit[0], vec![3, 0, 1, 2]);
        assert_eq!(hit[3], vec![0, 1, 2, 3]);
        assert_eq!(miss, vec![3, 0, 1, 2]);
        // FIFO: hits are the identity.
        let (fhit, fmiss) = derive_position_perms(&fifo_spec(4), 4);
        assert!(fhit.iter().all(|p| *p == vec![0, 1, 2, 3]));
        assert_eq!(fmiss, vec![3, 0, 1, 2]);
        // The three canonical policies are pairwise distinct.
        let p = derive_position_perms(&plru_spec(4), 4);
        assert_ne!((hit, miss), p);
    }

    #[test]
    fn infers_plru_on_skylake_l1() {
        let cpu = cpu_by_microarch("Skylake").unwrap();
        let mut cs = CacheSeq::new(&cpu, Level::L1, 9, None, 2 * 8 + 2, 13).unwrap();
        let result = infer_permutation_policy(&mut cs, 8).unwrap();
        match result {
            PermInferResult::Named { name, .. } => assert_eq!(name, "PLRU"),
            other => panic!("expected PLRU, got {other:?}"),
        }
        // And the inference cross-validates on random sequences.
        assert!(validate_inference(&mut cs, 8, &PolicyKind::Plru, 10, 3).unwrap());
    }

    #[test]
    fn mru_l3_is_not_a_permutation_policy() {
        // Nehalem's L3 uses MRU (Table I) which is not a permutation
        // policy (§VI-B2); the tool must notice rather than mis-infer.
        let cpu = cpu_by_microarch("Nehalem").unwrap();
        let mut cs = CacheSeq::new(&cpu, Level::L3, 40, Some(0), 2 * 16 + 2, 13).unwrap();
        let result = infer_permutation_policy(&mut cs, 16).unwrap();
        match result {
            PermInferResult::NotPermutation { .. } | PermInferResult::Unknown { .. } => {}
            other => panic!("MRU must not be identified as LRU/FIFO/PLRU: {other:?}"),
        }
    }
}
