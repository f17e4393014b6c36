//! Cache replacement policies.
//!
//! This module implements every policy family the paper discusses (§VI-B):
//! permutation-based policies (LRU, FIFO, tree-based PLRU, and arbitrary
//! permutation specifications), the one-bit MRU/NRU policy with the Sandy
//! Bridge WBINVD variant, the fully parameterized QLRU family with the
//! paper's naming scheme (`QLRU_Hxy_Mz_Rr_Uu[_UMO]`), and a random policy.
//!
//! A policy instance manages one cache set. "Locations" (ways) are indexed
//! from 0; the paper's "leftmost" is way 0.

mod basic;
mod mru;
mod permutation;
mod qlru;

pub use basic::{Fifo, Lru, Plru, RandomPolicy};
pub use mru::Mru;
pub use permutation::{fifo_spec, lru_spec, plru_spec, Perm, PermutationPolicy, PermutationSpec};
pub use qlru::{
    all_meaningful_qlru_variants, HitFunc, InsertAge, QlruPolicy, QlruVariant, RVariant, UVariant,
};

use crate::cache::{Dueling, MAX_ASSOC};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;

/// A set's occupancy as a policy sees it: bit `w` is set when way `w` holds
/// a valid line, and every bit at or past the set's associativity is set
/// too. A full set reads `u64::MAX`, and the clear bits are exactly the
/// empty ways ([`MAX_ASSOC`] = 64 is what makes a set fit in one word).
/// `valid` lists each way's validity, way 0 first.
///
/// # Examples
///
/// ```
/// use nanobench_cache::policy::{first_empty, last_empty, occupancy};
/// let occ = occupancy([true, false, true, false]);
/// assert_eq!((first_empty(occ), last_empty(occ)), (Some(1), Some(3)));
/// assert_eq!(first_empty(occupancy([true; 4])), None);
/// ```
pub fn occupancy(valid: impl IntoIterator<Item = bool>) -> u64 {
    valid.into_iter().enumerate().fold(
        u64::MAX,
        |occ, (w, v)| if v { occ } else { occ & !(1 << w) },
    )
}

/// The leftmost empty way of an [`occupancy`], if the set is not full.
#[inline]
pub fn first_empty(occupied: u64) -> Option<usize> {
    let empty = !occupied;
    (empty != 0).then(|| empty.trailing_zeros() as usize)
}

/// The rightmost empty way of an [`occupancy`], if the set is not full.
#[inline]
pub fn last_empty(occupied: u64) -> Option<usize> {
    let empty = !occupied;
    (empty != 0).then(|| 63 - empty.leading_zeros() as usize)
}

/// Whether way `w` holds a line in an [`occupancy`].
#[inline]
pub fn holds(occupied: u64, w: usize) -> bool {
    (occupied >> w) & 1 != 0
}

/// Per-set replacement policy state machine.
///
/// The cache set tells the policy about hits and asks it for a placement
/// location on misses; the policy never sees addresses, only way indices and
/// the current [`occupancy`]. This mirrors how real replacement logic only
/// observes per-line status bits.
pub trait SetPolicy: fmt::Debug + Send {
    /// Called when an access hits the block at `way`; `occupied` is the
    /// set's [`occupancy`].
    fn on_hit(&mut self, way: usize, occupied: u64);

    /// Called on a miss with the set's [`occupancy`]; returns the way where
    /// the new block is placed (evicting any valid line there) and updates
    /// internal state as if the new block had been inserted.
    fn on_miss(&mut self, occupied: u64) -> usize;

    /// Called when the line at `way` is invalidated (e.g. `CLFLUSH`).
    fn on_invalidate(&mut self, way: usize);

    /// Called when the whole cache is flushed (e.g. `WBINVD`).
    ///
    /// Must restore a fixed state that does not depend on the policy's
    /// history (a random-number stream may stay where it is), so that a
    /// second flush with no call in between changes nothing: the cache
    /// skips the sets that were not filled since the previous flush.
    fn on_flush(&mut self);

    /// Restores the just-constructed state for `seed`, reusing existing
    /// allocations. Unlike [`SetPolicy::on_flush`] — which models a
    /// hardware flush and leaves any random-number stream where it is —
    /// this also rewinds the stream of probabilistic policies, so a reset
    /// cache replays bit-identically to a freshly built one.
    /// Deterministic policies ignore `seed`.
    fn reset(&mut self, seed: u64);
}

/// A set's replacement policy: one variant per built-in policy family plus
/// set dueling, so the cache's access path resolves policy calls through a
/// direct `match` instead of a vtable.
#[derive(Debug, Clone)]
pub enum PolicySlot {
    /// Least-recently-used.
    Lru(Lru),
    /// First-in first-out.
    Fifo(Fifo),
    /// Tree-based pseudo-LRU.
    Plru(Plru),
    /// One-bit MRU / NRU (both WBINVD variants).
    Mru(Mru),
    /// A QLRU variant.
    Qlru(QlruPolicy),
    /// An arbitrary permutation policy.
    Permutation(PermutationPolicy),
    /// Uniformly random replacement.
    Random(RandomPolicy),
    /// A set of a set-dueling cache (boxed: it holds two inner slots).
    Dueling(Box<Dueling>),
}

/// Delegates a [`SetPolicy`] method call to whichever policy the slot
/// holds.
macro_rules! for_each_slot {
    ($slot:expr, $p:ident => $call:expr) => {
        match $slot {
            PolicySlot::Lru($p) => $call,
            PolicySlot::Fifo($p) => $call,
            PolicySlot::Plru($p) => $call,
            PolicySlot::Mru($p) => $call,
            PolicySlot::Qlru($p) => $call,
            PolicySlot::Permutation($p) => $call,
            PolicySlot::Random($p) => $call,
            PolicySlot::Dueling($p) => $call,
        }
    };
}

impl SetPolicy for PolicySlot {
    #[inline]
    fn on_hit(&mut self, way: usize, occupied: u64) {
        for_each_slot!(self, p => p.on_hit(way, occupied))
    }

    #[inline]
    fn on_miss(&mut self, occupied: u64) -> usize {
        for_each_slot!(self, p => p.on_miss(occupied))
    }

    #[inline]
    fn on_invalidate(&mut self, way: usize) {
        for_each_slot!(self, p => p.on_invalidate(way))
    }

    #[inline]
    fn on_flush(&mut self) {
        for_each_slot!(self, p => p.on_flush())
    }

    fn reset(&mut self, seed: u64) {
        for_each_slot!(self, p => p.reset(seed))
    }
}

/// A policy selector: everything needed to instantiate per-set policy state.
///
/// `PolicyKind` is the configuration-level description used by cache
/// configurations ([Table I presets](crate::presets)) and by the candidate
/// library of the policy-inference tools.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyKind {
    /// Least-recently-used.
    Lru,
    /// First-in first-out.
    Fifo,
    /// Tree-based pseudo-LRU (associativity must be a power of two).
    Plru,
    /// One-bit MRU / bit-PLRU / NRU (§VI-B2). `fill_sets_all_ones` selects
    /// the Sandy Bridge variant that keeps all status bits set while the
    /// cache is not yet full after a WBINVD (reported as `MRU*` in Table I).
    Mru {
        /// Sandy Bridge WBINVD variant flag.
        fill_sets_all_ones: bool,
    },
    /// A QLRU variant per the paper's naming scheme (§VI-B2).
    Qlru(QlruVariant),
    /// An arbitrary permutation policy given by its A+1 permutations.
    Permutation(PermutationSpec),
    /// Uniformly random replacement.
    Random,
}

impl PolicyKind {
    /// Short human-readable name, matching the paper's naming scheme
    /// (`PLRU`, `MRU`, `MRU*`, `QLRU_H11_M1_R0_U0`, ...).
    pub fn name(&self) -> String {
        match self {
            PolicyKind::Lru => "LRU".to_string(),
            PolicyKind::Fifo => "FIFO".to_string(),
            PolicyKind::Plru => "PLRU".to_string(),
            PolicyKind::Mru {
                fill_sets_all_ones: false,
            } => "MRU".to_string(),
            PolicyKind::Mru {
                fill_sets_all_ones: true,
            } => "MRU*".to_string(),
            PolicyKind::Qlru(v) => v.name(),
            PolicyKind::Permutation(_) => "PERMUTATION".to_string(),
            PolicyKind::Random => "RANDOM".to_string(),
        }
    }

    /// Parses a policy name produced by [`PolicyKind::name`].
    ///
    /// # Errors
    ///
    /// Returns an error string when the name is not recognized.
    pub fn parse(name: &str) -> Result<PolicyKind, String> {
        match name {
            "LRU" => Ok(PolicyKind::Lru),
            "FIFO" => Ok(PolicyKind::Fifo),
            "PLRU" => Ok(PolicyKind::Plru),
            "MRU" => Ok(PolicyKind::Mru {
                fill_sets_all_ones: false,
            }),
            "MRU*" => Ok(PolicyKind::Mru {
                fill_sets_all_ones: true,
            }),
            "RANDOM" => Ok(PolicyKind::Random),
            other if other.starts_with("QLRU_") => QlruVariant::parse(other).map(PolicyKind::Qlru),
            other => Err(format!("unknown policy name `{other}`")),
        }
    }

    /// Whether the policy makes probabilistic decisions.
    pub fn is_probabilistic(&self) -> bool {
        match self {
            PolicyKind::Random => true,
            PolicyKind::Qlru(v) => v.is_probabilistic(),
            _ => false,
        }
    }

    /// Checks that this policy can manage a set with `assoc` ways.
    ///
    /// This is the fallible counterpart of the constraints
    /// [`PolicyKind::instantiate`] enforces by panicking; configuration
    /// code that handles user-supplied policies should call this (or
    /// [`PolicyKind::try_instantiate`]) so a bad policy/associativity
    /// combination surfaces as an error instead of aborting a worker.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated constraint: zero
    /// associativity, PLRU with a non-power-of-two or >64-way set, QLRU
    /// with more than [`MAX_ASSOC`] ways, or an inconsistent permutation
    /// specification.
    pub fn validate(&self, assoc: usize) -> Result<(), String> {
        if assoc == 0 {
            return Err("associativity must be positive".to_string());
        }
        match self {
            PolicyKind::Plru => {
                if !assoc.is_power_of_two() {
                    return Err(format!(
                        "PLRU requires a power-of-two associativity, got {assoc}"
                    ));
                }
                if assoc > 64 {
                    return Err(format!("PLRU supports at most 64 ways, got {assoc}"));
                }
            }
            PolicyKind::Qlru(_) if assoc > MAX_ASSOC => {
                return Err(format!(
                    "QLRU supports at most {MAX_ASSOC} ways, got {assoc}"
                ));
            }
            PolicyKind::Permutation(spec) => {
                spec.validate()?;
                if spec.assoc() != assoc {
                    return Err(format!(
                        "permutation spec is for {} ways, set has {assoc}",
                        spec.assoc()
                    ));
                }
            }
            _ => {}
        }
        Ok(())
    }

    /// Instantiates per-set state for a set with `assoc` ways, validating
    /// the policy/associativity combination first.
    ///
    /// `seed` provides determinism for probabilistic policies; derive it
    /// from (cache seed, set index) so different sets draw independently.
    ///
    /// # Errors
    ///
    /// Returns the error of [`PolicyKind::validate`].
    // Inlined into `instantiate`, which runs once per set when a cache is
    // built: a second call and a `Result` copy per set slow a Skylake
    // hierarchy build by about a tenth.
    #[inline(always)]
    pub fn try_instantiate(&self, assoc: usize, seed: u64) -> Result<PolicySlot, String> {
        self.validate(assoc)?;
        Ok(match self {
            PolicyKind::Lru => PolicySlot::Lru(Lru::new(assoc)),
            PolicyKind::Fifo => PolicySlot::Fifo(Fifo::new(assoc)),
            PolicyKind::Plru => PolicySlot::Plru(Plru::new(assoc)),
            PolicyKind::Mru { fill_sets_all_ones } => {
                PolicySlot::Mru(Mru::new(assoc, *fill_sets_all_ones))
            }
            PolicyKind::Qlru(v) => {
                PolicySlot::Qlru(QlruPolicy::new(assoc, *v, SmallRng::seed_from_u64(seed)))
            }
            PolicyKind::Permutation(spec) => {
                PolicySlot::Permutation(PermutationPolicy::try_new(spec.clone())?)
            }
            PolicyKind::Random => {
                PolicySlot::Random(RandomPolicy::new(assoc, SmallRng::seed_from_u64(seed)))
            }
        })
    }

    /// Panicking counterpart of [`PolicyKind::try_instantiate`], for
    /// validated configurations.
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyKind::validate`] rejects the combination (e.g.
    /// `assoc` is 0, or the policy is PLRU and `assoc` is not a power of
    /// two).
    pub fn instantiate(&self, assoc: usize, seed: u64) -> PolicySlot {
        match self.try_instantiate(assoc, seed) {
            Ok(slot) => slot,
            Err(e) => panic!("cannot instantiate policy {}: {e}", self.name()),
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Simulates an access sequence of abstract blocks against a policy on a
/// single cache set, returning per-access hit/miss.
///
/// Blocks are identified by arbitrary `u64` ids; the set starts empty. This
/// is the "simulation of different replacement policies" the paper's
/// inference tool compares measurements against (§VI-C1).
///
/// # Examples
///
/// ```
/// use nanobench_cache::policy::{simulate_sequence, PolicyKind};
/// // 2-way LRU: A B A -> miss miss hit
/// let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 0]);
/// assert_eq!(hits, vec![false, false, true]);
/// ```
pub fn simulate_sequence(kind: &PolicyKind, assoc: usize, seed: u64, blocks: &[u64]) -> Vec<bool> {
    let mut sim = SetSim::new(kind, assoc, seed);
    blocks.iter().map(|b| sim.access(*b)).collect()
}

/// A standalone single-set simulator (contents + policy).
#[derive(Debug, Clone)]
pub struct SetSim {
    tags: Vec<Option<u64>>,
    policy: PolicySlot,
}

impl SetSim {
    /// Creates an empty set with `assoc` ways governed by `kind`.
    pub fn new(kind: &PolicyKind, assoc: usize, seed: u64) -> SetSim {
        SetSim {
            tags: vec![None; assoc],
            policy: kind.instantiate(assoc, seed),
        }
    }

    /// Fallible counterpart of [`SetSim::new`].
    ///
    /// # Errors
    ///
    /// Returns the error of [`PolicyKind::validate`].
    pub fn try_new(kind: &PolicyKind, assoc: usize, seed: u64) -> Result<SetSim, String> {
        Ok(SetSim {
            tags: vec![None; assoc],
            policy: kind.try_instantiate(assoc, seed)?,
        })
    }

    /// Accesses `block`; returns `true` on a hit.
    pub fn access(&mut self, block: u64) -> bool {
        let occupied = occupancy(self.tags.iter().map(Option::is_some));
        if let Some(way) = self.tags.iter().position(|t| *t == Some(block)) {
            self.policy.on_hit(way, occupied);
            true
        } else {
            let way = self.policy.on_miss(occupied);
            assert!(way < self.tags.len(), "policy returned way out of range");
            self.tags[way] = Some(block);
            false
        }
    }

    /// Returns `true` if `block` is currently cached (without touching
    /// policy state).
    pub fn contains(&self, block: u64) -> bool {
        self.tags.contains(&Some(block))
    }

    /// Empties the set, as after `WBINVD`.
    pub fn flush(&mut self) {
        self.tags.fill(None);
        self.policy.on_flush();
    }

    /// The current contents by way (left = way 0).
    pub fn contents(&self) -> &[Option<u64>] {
        &self.tags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names_round_trip() {
        let kinds = [
            PolicyKind::Lru,
            PolicyKind::Fifo,
            PolicyKind::Plru,
            PolicyKind::Mru {
                fill_sets_all_ones: false,
            },
            PolicyKind::Mru {
                fill_sets_all_ones: true,
            },
            PolicyKind::Random,
        ];
        for kind in kinds {
            assert_eq!(PolicyKind::parse(&kind.name()).unwrap(), kind);
        }
        for v in all_meaningful_qlru_variants() {
            let kind = PolicyKind::Qlru(v);
            assert_eq!(PolicyKind::parse(&kind.name()).unwrap(), kind, "{}", kind);
        }
    }

    #[test]
    fn validate_rejects_bad_combinations() {
        assert!(PolicyKind::Lru.validate(0).is_err());
        assert!(PolicyKind::Plru.validate(12).is_err());
        assert!(PolicyKind::Plru.validate(128).is_err());
        assert!(PolicyKind::Plru.validate(16).is_ok());
        let qlru = PolicyKind::parse("QLRU_H11_M1_R0_U0").unwrap();
        assert!(qlru.validate(MAX_ASSOC).is_ok());
        assert!(qlru.validate(MAX_ASSOC + 1).is_err());
        let mut spec = lru_spec(4);
        assert!(PolicyKind::Permutation(spec.clone()).validate(8).is_err());
        assert!(PolicyKind::Permutation(spec.clone()).validate(4).is_ok());
        spec.miss = vec![0, 0, 1, 2];
        assert!(PolicyKind::Permutation(spec).validate(4).is_err());
    }

    #[test]
    fn try_instantiate_errors_instead_of_panicking() {
        assert!(PolicyKind::Plru.try_instantiate(12, 0).is_err());
        assert!(SetSim::try_new(&PolicyKind::Plru, 12, 0).is_err());
        let sim = SetSim::try_new(&PolicyKind::Plru, 8, 0);
        assert!(sim.is_ok());
    }

    #[test]
    fn simulate_lru_basics() {
        // 2-way LRU, sequence A B C A: C evicts A (LRU), so final A misses.
        let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 2, 0]);
        assert_eq!(hits, vec![false, false, false, false]);
        // A B A C B: A hit; C evicts B? no, evicts LRU=B after A touched. B misses.
        let hits = simulate_sequence(&PolicyKind::Lru, 2, 0, &[0, 1, 0, 2, 1]);
        assert_eq!(hits, vec![false, false, true, false, false]);
    }

    #[test]
    fn occupancy_helpers_at_1_12_and_64_ways() {
        // One way: the spare bits are all but bit 0.
        assert_eq!(occupancy([false]), u64::MAX - 1);
        assert_eq!(first_empty(occupancy([false])), Some(0));
        assert_eq!(last_empty(occupancy([false])), Some(0));
        assert_eq!(first_empty(occupancy([true])), None);
        // Twelve ways (the Ivy Bridge L3): ways 12..64 read as full.
        let twelve = occupancy((0..12).map(|w| w != 3 && w != 10));
        assert_eq!(first_empty(twelve), Some(3));
        assert_eq!(last_empty(twelve), Some(10));
        assert!(holds(twelve, 0) && !holds(twelve, 3) && holds(twelve, 11));
        assert!(holds(twelve, 12) && holds(twelve, 63));
        assert_eq!(twelve | 1 << 3 | 1 << 10, u64::MAX);
        assert_eq!(last_empty(occupancy([false; 12])), Some(11));
        // 64 ways use bit 63 and leave no spare bit.
        assert_eq!(occupancy([false; MAX_ASSOC]), 0);
        assert_eq!(last_empty(occupancy([false; MAX_ASSOC])), Some(63));
        let last_free = occupancy((0..MAX_ASSOC).map(|w| w != 63));
        assert_eq!(first_empty(last_free), Some(63));
        assert!(!holds(last_free, 63) && holds(last_free, 62));
        assert_eq!(first_empty(occupancy([true; MAX_ASSOC])), None);
        assert_eq!(last_empty(occupancy([true; MAX_ASSOC])), None);
    }

    #[test]
    fn set_sim_flush() {
        let mut sim = SetSim::new(&PolicyKind::Lru, 4, 0);
        sim.access(1);
        assert!(sim.contains(1));
        sim.flush();
        assert!(!sim.contains(1));
        assert!(!sim.access(1));
    }
}
