//! A single set-associative cache.

use crate::policy::{occupancy, PolicyKind, PolicySlot, SetPolicy};
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// Cache line size in bytes (64 on all CPUs in Table I).
pub const LINE_SIZE: u64 = 64;

/// Seed salt separating a dueling set's policy-B random stream from its
/// policy-A stream ([`Dueling::slot`] and its reset both apply it).
pub const POLICY_B_SEED_SALT: u64 = 0xB00B;

/// Per-set seed derivation used by [`Cache::new`] and [`Cache::reset_seeded`].
fn derive_set_seed(cache_seed: u64, set: usize) -> u64 {
    cache_seed ^ (set as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Geometry and policy of a single cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Replacement policy.
    pub policy: PolicyKind,
}

impl CacheConfig {
    /// Number of sets (`size / (assoc * 64)`); [`Cache::new`] requires a
    /// power of two.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / (self.assoc as u64 * LINE_SIZE)) as usize
    }
}

/// MESI coherence state of a cached line (§VI context: the shared L3 is
/// contended by several cores; private L1/L2 copies carry these states).
///
/// `Invalid` is represented by the line's absence; [`Cache::state_of`]
/// returns it for lines that are not present.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LineState {
    /// Not present.
    Invalid,
    /// Present in exactly one core's private caches, clean.
    Exclusive,
    /// Present in one or more cores' private caches, clean.
    Shared,
    /// Present in exactly one core's private caches, dirty.
    Modified,
}

impl LineState {
    /// One-letter MESI name (`M`/`E`/`S`/`I`), used by the golden traces.
    pub fn letter(self) -> char {
        match self {
            LineState::Modified => 'M',
            LineState::Exclusive => 'E',
            LineState::Shared => 'S',
            LineState::Invalid => 'I',
        }
    }
}

/// Aggregate hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of valid lines evicted by fills.
    pub evictions: u64,
}

/// Upper bound on associativity, so a set's occupancy fits in one `u64`
/// (see [`crate::policy::occupancy`]).
pub const MAX_ASSOC: usize = 64;

/// Sentinel marking an empty way in the packed tag arena. No reachable
/// physical address produces this block number (it would need a paddr of
/// `u64::MAX * 64`).
const TAG_INVALID: u64 = u64::MAX;

/// Decodes a packed 2-bit MESI value (the `LineState` declaration order).
#[inline]
fn state_from_bits(bits: u8) -> LineState {
    match bits {
        0 => LineState::Invalid,
        1 => LineState::Exclusive,
        2 => LineState::Shared,
        _ => LineState::Modified,
    }
}

/// Shared policy-selector state for set dueling (§VI-B3).
///
/// Leader sets increment/decrement the counter on misses; follower sets
/// consult [`PselCounter::use_policy_b`].
#[derive(Debug, Default)]
pub struct PselCounter(AtomicI32);

/// Saturation bound of the 10-bit PSEL counter.
const PSEL_MAX: i32 = 1023;
/// Initial / threshold value.
const PSEL_MID: i32 = 512;

impl PselCounter {
    /// Creates a counter at the midpoint.
    pub fn new() -> Arc<PselCounter> {
        Arc::new(PselCounter(AtomicI32::new(PSEL_MID)))
    }

    /// Records a miss in a leader set of policy A (pushes toward B).
    pub fn miss_in_a(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some((v + 1).min(PSEL_MAX))
            });
    }

    /// Records a miss in a leader set of policy B (pushes toward A).
    pub fn miss_in_b(&self) {
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some((v - 1).max(0))
            });
    }

    /// Whether follower sets should currently use policy B.
    pub fn use_policy_b(&self) -> bool {
        self.0.load(Ordering::Relaxed) > PSEL_MID
    }

    /// Raw counter value (for tests and debugging).
    pub fn value(&self) -> i32 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets the counter to the midpoint.
    pub fn reset(&self) {
        self.0.store(PSEL_MID, Ordering::Relaxed);
    }
}

/// The dueling role of a set (§VI-B3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SetRole {
    /// Dedicated to policy A.
    LeaderA,
    /// Dedicated to policy B.
    LeaderB,
    /// Follows the currently winning policy.
    Follower,
}

/// One set of a set-dueling cache, the state behind
/// [`PolicySlot::Dueling`]. A leader always runs its own policy and moves
/// the shared PSEL counter on every miss; a follower routes each decision
/// to whichever policy PSEL currently favours, and the inactive policy's
/// state freezes, like hardware reinterpreting the same status bits.
#[derive(Debug, Clone)]
pub struct Dueling {
    role: SetRole,
    /// Policy A's and policy B's state. A leader keeps both but only ever
    /// consults its own.
    policies: [PolicySlot; 2],
    psel: Arc<PselCounter>,
}

impl Dueling {
    /// Builds a set with `role` dueling `policy_a` against `policy_b`
    /// over the shared `psel`. Policy A draws from `seed` and policy B
    /// from `seed ^ POLICY_B_SEED_SALT`, here and in [`SetPolicy::reset`].
    ///
    /// # Panics
    ///
    /// Panics if [`PolicyKind::validate`] rejects either policy for
    /// `assoc` ways.
    pub fn slot(
        role: SetRole,
        policy_a: &PolicyKind,
        policy_b: &PolicyKind,
        assoc: usize,
        seed: u64,
        psel: &Arc<PselCounter>,
    ) -> PolicySlot {
        PolicySlot::Dueling(Box::new(Dueling {
            role,
            policies: [
                policy_a.instantiate(assoc, seed),
                policy_b.instantiate(assoc, seed ^ POLICY_B_SEED_SALT),
            ],
            psel: Arc::clone(psel),
        }))
    }

    /// The policy this set's next decision goes to.
    #[inline]
    fn active(&mut self) -> &mut PolicySlot {
        let b = match self.role {
            SetRole::LeaderA => false,
            SetRole::LeaderB => true,
            SetRole::Follower => self.psel.use_policy_b(),
        };
        &mut self.policies[usize::from(b)]
    }
}

impl SetPolicy for Dueling {
    fn on_hit(&mut self, way: usize, occupied: u64) {
        self.active().on_hit(way, occupied);
    }

    fn on_miss(&mut self, occupied: u64) -> usize {
        match self.role {
            SetRole::LeaderA => self.psel.miss_in_a(),
            SetRole::LeaderB => self.psel.miss_in_b(),
            SetRole::Follower => {}
        }
        self.active().on_miss(occupied)
    }

    fn on_invalidate(&mut self, way: usize) {
        for policy in &mut self.policies {
            policy.on_invalidate(way);
        }
    }

    fn on_flush(&mut self) {
        for policy in &mut self.policies {
            policy.on_flush();
        }
    }

    fn reset(&mut self, seed: u64) {
        self.policies[0].reset(seed);
        self.policies[1].reset(seed ^ POLICY_B_SEED_SALT);
    }
}

/// A single set-associative cache level (or one L3 slice).
///
/// Storage is struct-of-arrays: one contiguous tag arena and one packed
/// 2-bit MESI arena for the whole cache, indexed `set * assoc + way`, so
/// the per-access probe walks one dense cache-line-friendly span instead
/// of chasing per-set `Vec` allocations.
#[derive(Debug)]
pub struct Cache {
    /// Block number per way ([`TAG_INVALID`] marks an empty way), indexed
    /// `set * assoc + way`.
    tags: Vec<u64>,
    /// MESI state per way, packed four 2-bit values per byte in the same
    /// `set * assoc + way` indexing; meaningful only where the tag is
    /// valid.
    states: Vec<u8>,
    /// Most-recently-hit (or filled) way per set, probed before the scan.
    mru_way: Vec<u8>,
    /// Per-set valid mask: bit `w` is set while way `w` holds a line. A
    /// fill sets its way's bit and an invalidation clears it, so no access
    /// rebuilds it from the tags; the policies read it or'ed with
    /// `spare_ways` ([`Cache::occupancy_of`]).
    valid: Vec<u64>,
    /// The bits past `assoc`, which an [`occupancy`] reads as full.
    spare_ways: u64,
    /// One bit per set (`set / 64`, bit `set % 64`), set by a fill and for
    /// every set at build and reset: the sets that may differ from their
    /// flushed state, and so the only ones [`Cache::flush_all`] visits. A
    /// hit, invalidation or state change needs a present line, which a
    /// fill already marked.
    dirty: Vec<u64>,
    /// One bit per set in the layout of `dirty`, set by a fill and by a
    /// flush and cleared by a reset: the sets that may differ from their
    /// reset state, and so the only ones a reset to the previous reset's
    /// seed visits. A flush marks the sets it visits because
    /// [`SetPolicy::on_flush`] promises a fixed state, not the reset one.
    touched: Vec<u64>,
    /// The seed of the last reset; `None` until the first, which visits
    /// every set because a build's factory names no seed.
    reset_seed: Option<u64>,
    policies: Vec<PolicySlot>,
    assoc: usize,
    set_bits: u32,
    stats: CacheStats,
}

impl Cache {
    /// Builds a cache from a configuration; `seed` feeds probabilistic
    /// policies (each set derives its own stream).
    pub fn new(config: &CacheConfig, seed: u64) -> Cache {
        Cache::with_policies(config.num_sets(), config.assoc, |set| {
            config
                .policy
                .instantiate(config.assoc, derive_set_seed(seed, set))
        })
    }

    /// Builds a cache with a custom per-set policy factory (used for set
    /// dueling, where leader and follower sets differ; build those with
    /// [`Dueling::slot`]).
    ///
    /// # Panics
    ///
    /// Panics if `num_sets` is not a power of two or `assoc` is zero.
    pub fn with_policies(
        num_sets: usize,
        assoc: usize,
        mut factory: impl FnMut(usize) -> PolicySlot,
    ) -> Cache {
        assert!(
            num_sets.is_power_of_two(),
            "set count must be a power of two"
        );
        assert!(assoc > 0);
        assert!(assoc <= MAX_ASSOC, "associativity above {MAX_ASSOC}");
        let ways = num_sets * assoc;
        let mut cache = Cache {
            tags: vec![TAG_INVALID; ways],
            states: vec![0; ways.div_ceil(4)],
            mru_way: vec![0; num_sets],
            valid: vec![0; num_sets],
            spare_ways: occupancy(std::iter::repeat_n(false, assoc)),
            dirty: vec![0; num_sets.div_ceil(64)],
            touched: vec![0; num_sets.div_ceil(64)],
            reset_seed: None,
            policies: (0..num_sets).map(&mut factory).collect(),
            assoc,
            set_bits: num_sets.trailing_zeros(),
            stats: CacheStats::default(),
        };
        cache.mark_all_dirty();
        cache
    }

    /// Marks every set for the next flush (a fresh or reset policy need
    /// not be in its flushed state).
    fn mark_all_dirty(&mut self) {
        let word = self.all_sets_word();
        self.dirty.fill(word);
    }

    /// The value of every word of a per-set bitmap with all sets marked.
    fn all_sets_word(&self) -> u64 {
        // The set count is a power of two: either whole words or one
        // partial word.
        u64::MAX >> (64 - self.num_sets().min(64))
    }

    /// Empties `set`: every tag invalid, no valid way and the MRU probe
    /// back at way 0. Its packed states stay as they are, since a state is
    /// read only where the tag is valid and a fill writes it; its policy is
    /// the caller's to restore.
    fn empty_set(&mut self, set: usize) {
        let base = set * self.assoc;
        self.tags[base..base + self.assoc].fill(TAG_INVALID);
        self.mru_way[set] = 0;
        self.valid[set] = 0;
    }

    /// The MESI state packed at arena index `idx` (`set * assoc + way`).
    #[inline]
    fn state_at(&self, idx: usize) -> LineState {
        state_from_bits((self.states[idx >> 2] >> ((idx & 3) << 1)) & 0b11)
    }

    /// Overwrites the packed MESI state at arena index `idx`.
    #[inline]
    fn set_state_at(&mut self, idx: usize, state: LineState) {
        let shift = (idx & 3) << 1;
        let byte = &mut self.states[idx >> 2];
        *byte = (*byte & !(0b11 << shift)) | ((state as u8) << shift);
    }

    /// Scans `set` for `block`, probing the most-recently-used way first
    /// (the probe is exact: a set never holds duplicate tags).
    #[inline]
    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        let base = set * self.assoc;
        let mru = self.mru_way[set] as usize;
        if self.tags[base + mru] == block {
            return Some(mru);
        }
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == block)
    }

    /// The [`occupancy`] of `set` that its policy takes.
    #[inline]
    fn occupancy_of(&self, set: usize) -> u64 {
        self.valid[set] | self.spare_ways
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        1 << self.set_bits
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// The set index of a physical address.
    pub fn set_index(&self, paddr: u64) -> usize {
        ((paddr / LINE_SIZE) & ((1 << self.set_bits) - 1)) as usize
    }

    /// Looks up `paddr` without changing any state.
    pub fn probe(&self, paddr: u64) -> bool {
        let block = paddr / LINE_SIZE;
        self.find_way(self.set_index(paddr), block).is_some()
    }

    /// Performs a lookup, updating replacement state on a hit. Returns
    /// `true` on a hit. On a miss, no fill happens — the caller decides
    /// (this separation lets the hierarchy fill multiple levels coherently).
    #[inline]
    pub fn access(&mut self, paddr: u64) -> bool {
        self.access_with_state(paddr).is_some()
    }

    /// [`Cache::access`] that additionally returns the MESI state of the
    /// hit line (`None` on a miss): one tag probe serves both the hit
    /// decision and the state read, which the hierarchy's L1 fast path
    /// needs on every store hit.
    #[inline]
    pub fn access_with_state(&mut self, paddr: u64) -> Option<LineState> {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        if let Some(way) = self.find_way(set, block) {
            let occupied = self.occupancy_of(set);
            self.policies[set].on_hit(way, occupied);
            self.mru_way[set] = way as u8;
            self.stats.hits += 1;
            Some(self.state_at(set * self.assoc + way))
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Inserts the line for `paddr` in the `Exclusive` state, returning
    /// the physical block address of the evicted line if a valid line was
    /// displaced. The line must be absent (see [`Cache::fill_with_state`]).
    pub fn fill(&mut self, paddr: u64) -> Option<u64> {
        self.fill_with_state(paddr, LineState::Exclusive)
    }

    /// Inserts the line for `paddr` with an explicit MESI state (what the
    /// coherent hierarchy uses), returning the physical block address of
    /// the evicted line if a valid line was displaced.
    ///
    /// The line must be absent: every fill follows a miss (or a failed
    /// [`Cache::probe`]) of this cache for the same line, and nothing in
    /// between inserts it, so the fill does not scan the set again. Debug
    /// builds check this.
    pub fn fill_with_state(&mut self, paddr: u64, state: LineState) -> Option<u64> {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        debug_assert!(
            self.find_way(set, block).is_none(),
            "fill of {paddr:#x}, which the cache already holds"
        );
        let base = set * self.assoc;
        self.dirty[set >> 6] |= 1 << (set & 63);
        self.touched[set >> 6] |= 1 << (set & 63);
        let occupied = self.occupancy_of(set);
        let way = self.policies[set].on_miss(occupied);
        let evicted = self.tags[base + way];
        self.tags[base + way] = block;
        self.set_state_at(base + way, state);
        self.valid[set] |= 1 << way;
        self.mru_way[set] = way as u8;
        if evicted == TAG_INVALID {
            None
        } else {
            self.stats.evictions += 1;
            Some(evicted * LINE_SIZE)
        }
    }

    /// The MESI state of the line containing `paddr`; `Invalid` if absent.
    pub fn state_of(&self, paddr: u64) -> LineState {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        self.find_way(set, block).map_or(LineState::Invalid, |way| {
            self.state_at(set * self.assoc + way)
        })
    }

    /// Sets the MESI state of the line containing `paddr`; returns whether
    /// the line was present (absent lines are left `Invalid`).
    pub fn set_state(&mut self, paddr: u64, state: LineState) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                self.set_state_at(set * self.assoc + way, state);
                true
            }
            None => false,
        }
    }

    /// Invalidates the line containing `paddr` if present; returns whether
    /// it was present.
    pub fn invalidate(&mut self, paddr: u64) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        if let Some(way) = self.find_way(set, block) {
            self.tags[set * self.assoc + way] = TAG_INVALID;
            self.set_state_at(set * self.assoc + way, LineState::Invalid);
            self.valid[set] &= !(1 << way);
            self.policies[set].on_invalidate(way);
            true
        } else {
            false
        }
    }

    /// Flushes the entire cache (as `WBINVD` does). Only the sets filled
    /// since the last flush are visited: every other set is empty already
    /// and its policy in the state [`SetPolicy::on_flush`] would restore.
    /// The visited sets are marked for the next reset.
    pub fn flush_all(&mut self) {
        for word in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[word]);
            self.touched[word] |= bits;
            while bits != 0 {
                let set = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.empty_set(set);
                self.policies[set].on_flush();
            }
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets statistics to zero (contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Restores the state a build with `seed` has, in place: empties
    /// every set, rewinds every per-set policy to `per_set_seed(seed,
    /// set)`, which must be the derivation the build used, and zeroes the
    /// statistics — all without dropping the tag or policy allocations.
    ///
    /// A reset to the previous reset's `seed` visits only the sets filled
    /// or flushed since: every other set is still in the state that reset
    /// left (any other change to a set needs a line present in it, which
    /// only a fill puts there). Any other seed, and the first reset after
    /// the build, visits every set. Returns the number of sets visited.
    pub fn reset_with(&mut self, seed: u64, per_set_seed: fn(u64, usize) -> u64) -> usize {
        if self.reset_seed != Some(seed) {
            self.reset_seed = Some(seed);
            let word = self.all_sets_word();
            self.touched.fill(word);
        }
        let mut visited = 0;
        for word in 0..self.touched.len() {
            let mut bits = std::mem::take(&mut self.touched[word]);
            visited += bits.count_ones() as usize;
            while bits != 0 {
                let set = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.empty_set(set);
                self.policies[set].reset(per_set_seed(seed, set));
            }
        }
        self.mark_all_dirty();
        self.stats = CacheStats::default();
        visited
    }

    /// [`Cache::reset_with`] using the same per-set seed derivation as
    /// [`Cache::new`]; pass the cache seed that was passed there.
    pub fn reset_seeded(&mut self, cache_seed: u64) -> usize {
        self.reset_with(cache_seed, derive_set_seed)
    }

    /// Iterates over every valid line as `(paddr, state)` pairs (the
    /// paddr is the line's base address). Used by the hierarchy's
    /// full-state coherence audit.
    pub fn valid_lines(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.tags
            .iter()
            .enumerate()
            .filter(|&(_, &t)| t != TAG_INVALID)
            .map(|(i, &t)| (t * LINE_SIZE, self.state_at(i)))
    }

    /// The blocks currently cached in `set` (by way).
    pub fn set_contents(&self, set: usize) -> Vec<Option<u64>> {
        let base = set * self.assoc;
        self.tags[base..base + self.assoc]
            .iter()
            .map(|&t| if t == TAG_INVALID { None } else { Some(t) })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> Cache {
        Cache::new(
            &CacheConfig {
                size_bytes: 4 * 64 * 8, // 8 sets x 4 ways
                assoc: 4,
                policy: PolicyKind::Lru,
            },
            0,
        )
    }

    #[test]
    fn geometry() {
        let c = small_cache();
        assert_eq!(c.num_sets(), 8);
        assert_eq!(c.assoc(), 4);
        assert_eq!(c.set_index(0), 0);
        assert_eq!(c.set_index(64), 1);
        assert_eq!(c.set_index(64 * 8), 0);
        assert_eq!(c.set_index(63), 0);
    }

    #[test]
    fn access_fill_evict() {
        let mut c = small_cache();
        assert!(!c.access(0x0));
        c.fill(0x0);
        assert!(c.access(0x0));
        // Fill 4 more conflicting lines (same set 0: stride = 8 * 64).
        let stride = 8 * 64u64;
        let mut evicted = Vec::new();
        for i in 1..=4u64 {
            c.access(i * stride);
            if let Some(e) = c.fill(i * stride) {
                evicted.push(e);
            }
        }
        assert_eq!(evicted, vec![0x0]); // LRU evicts the first line
        assert!(!c.probe(0x0));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 5);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_and_flush() {
        let mut c = small_cache();
        c.fill(0x40);
        assert!(c.probe(0x40));
        assert!(c.invalidate(0x40));
        assert!(!c.invalidate(0x40));
        c.fill(0x40);
        c.flush_all();
        assert!(!c.probe(0x40));
    }

    #[test]
    fn psel_saturation() {
        let psel = PselCounter::new();
        for _ in 0..2000 {
            psel.miss_in_a();
        }
        assert_eq!(psel.value(), 1023);
        assert!(psel.use_policy_b());
        for _ in 0..4000 {
            psel.miss_in_b();
        }
        assert_eq!(psel.value(), 0);
        assert!(!psel.use_policy_b());
    }

    #[test]
    fn follower_switches_with_psel() {
        let psel = PselCounter::new();
        let (a, b) = (PolicyKind::Lru, PolicyKind::Fifo);
        let mut f = Dueling::slot(SetRole::Follower, &a, &b, 4, 0, &psel);
        // All four ways hold lines. With PSEL at midpoint, policy A (LRU)
        // is active: hits reorder.
        let occ = u64::MAX;
        f.on_hit(0, occ);
        // Push PSEL toward B and verify misses now follow FIFO order
        // regardless of the hit we just made on way 0.
        for _ in 0..600 {
            psel.miss_in_a();
        }
        assert!(psel.use_policy_b());
        let way = f.on_miss(occ);
        assert_eq!(way, 0, "FIFO (policy B) ignores the earlier hit");
    }
}
