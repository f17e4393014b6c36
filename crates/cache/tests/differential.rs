//! Differential test: the arena cache against a naive reference model.
//!
//! The oracle keeps its own storage — per-set `Vec<Option<u64>>` tags and
//! `Vec<LineState>` states — and builds each set's occupancy mask from its
//! own tags on every access instead of keeping one up to date; it has no
//! MRU-way probe, no packed state words, flushes every set rather than
//! only the sets filled since the last flush, and rebuilds every set on a
//! reset instead of reseeding it. Its sets hold the
//! library's single-policy `PolicySlot`s, but set dueling is its own
//! model: leaders step the oracle's own PSEL integer on misses and
//! followers consult it, never the library's `Dueling` arm. Agreement on
//! every observable (hit/miss + MESI state, eviction victim, invalidation
//! result, stats, final contents, final PSEL) pins the storage layout,
//! partial flush, reset and set dueling as behaviour-preserving across the
//! whole policy library.

use nanobench_cache::cache::{Dueling, POLICY_B_SEED_SALT};
use nanobench_cache::policy::{plru_spec, PolicySlot};
use nanobench_cache::{
    Cache, CacheStats, LineState, PolicyKind, PselCounter, SetPolicy, SetRole, LINE_SIZE,
};
use proptest::prelude::*;
use proptest::TestRng;

const NUM_SETS: usize = 4;

/// Associativities of the cache properties: the two small ones, the Ivy
/// Bridge L3's 12 ways (spare bits past `assoc` in the occupancy mask),
/// the 16-way L3s, and `MAX_ASSOC` = 64, which leaves no spare bit.
fn assocs() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(4usize),
        Just(8usize),
        Just(12usize),
        Just(16usize),
        Just(64usize)
    ]
}

/// Distinct cache blocks a stream touches for `assoc` ways: twice the
/// associativity per set, so a sweep can fill and overflow any set.
fn block_span(assoc: usize) -> u64 {
    (2 * assoc * NUM_SETS) as u64
}

/// The occupancy mask the policies take, built from a set's tags: bit `w`
/// clear exactly when way `w` is empty (every bit past the tags set). The
/// test computes it itself rather than through the library's helper.
fn mask_of(tags: &[Option<u64>]) -> u64 {
    let mut mask = u64::MAX;
    for (w, tag) in tags.iter().enumerate() {
        if tag.is_none() {
            mask ^= 1 << w;
        }
    }
    mask
}

/// The oracle's PSEL: a 10-bit saturating counter that starts at its
/// midpoint; followers use policy B while it is above the midpoint.
const PSEL_START: i32 = 512;
const PSEL_MAX: i32 = 1023;

/// Per-set seed derivation applied identically to both models (the
/// cache-internal derivation is private, which is fine: equivalence only
/// needs symmetry, not the same constants).
fn set_seed(case_seed: u64, set: usize) -> u64 {
    case_seed ^ (set as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
}

/// A set's policies in the oracle: `[policy]`, or a dueling follower's
/// `[A, B]`; and what a miss adds to PSEL (+1 in an A leader, -1 in a B
/// leader, 0 elsewhere).
type SetPolicies = (Vec<PolicySlot>, i32);

/// A plain cache reimplemented as a test oracle.
struct NaiveSet {
    tags: Vec<Option<u64>>,
    states: Vec<LineState>,
    policies: SetPolicies,
}

struct NaiveCache {
    sets: Vec<NaiveSet>,
    stats: CacheStats,
    psel: i32,
    /// Builds each set's policies, at construction and on every reset.
    factory: Box<dyn Fn(usize) -> SetPolicies>,
}

impl NaiveCache {
    fn new(
        num_sets: usize,
        assoc: usize,
        factory: impl Fn(usize) -> SetPolicies + 'static,
    ) -> NaiveCache {
        NaiveCache {
            sets: (0..num_sets)
                .map(|s| NaiveSet {
                    tags: vec![None; assoc],
                    states: vec![LineState::Invalid; assoc],
                    policies: factory(s),
                })
                .collect(),
            stats: CacheStats::default(),
            psel: PSEL_START,
            factory: Box::new(factory),
        }
    }

    /// The policy `set`'s next decision goes to; a miss first steps PSEL.
    fn decide(&mut self, set: usize, miss: bool) -> &mut PolicySlot {
        let (policies, step) = &mut self.sets[set].policies;
        if miss {
            self.psel = (self.psel + *step).clamp(0, PSEL_MAX);
        }
        let b = policies.len() == 2 && self.psel > PSEL_START;
        &mut policies[usize::from(b)]
    }

    fn set_index(&self, paddr: u64) -> usize {
        ((paddr / LINE_SIZE) & (self.sets.len() as u64 - 1)) as usize
    }

    fn find_way(&self, set: usize, block: u64) -> Option<usize> {
        self.sets[set].tags.iter().position(|&t| t == Some(block))
    }

    fn access_with_state(&mut self, paddr: u64) -> Option<LineState> {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                let occ = mask_of(&self.sets[set].tags);
                self.decide(set, false).on_hit(way, occ);
                self.stats.hits += 1;
                Some(self.sets[set].states[way])
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Fills an absent line, as `Cache::fill_with_state` requires.
    fn fill_with_state(&mut self, paddr: u64, state: LineState) -> Option<u64> {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        let occ = mask_of(&self.sets[set].tags);
        let way = self.decide(set, true).on_miss(occ);
        let evicted = self.sets[set].tags[way];
        self.sets[set].tags[way] = Some(block);
        self.sets[set].states[way] = state;
        evicted.map(|block| {
            self.stats.evictions += 1;
            block * LINE_SIZE
        })
    }

    fn set_state(&mut self, paddr: u64, state: LineState) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                self.sets[set].states[way] = state;
                true
            }
            None => false,
        }
    }

    fn state_of(&self, paddr: u64) -> LineState {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        self.find_way(set, block)
            .map_or(LineState::Invalid, |way| self.sets[set].states[way])
    }

    fn invalidate(&mut self, paddr: u64) -> bool {
        let block = paddr / LINE_SIZE;
        let set = self.set_index(paddr);
        match self.find_way(set, block) {
            Some(way) => {
                self.sets[set].tags[way] = None;
                self.sets[set].states[way] = LineState::Invalid;
                for p in &mut self.sets[set].policies.0 {
                    p.on_invalidate(way);
                }
                true
            }
            None => false,
        }
    }

    fn flush_all(&mut self) {
        for set in &mut self.sets {
            set.tags.fill(None);
            set.states.fill(LineState::Invalid);
            set.policies.0.iter_mut().for_each(PolicySlot::on_flush);
        }
    }

    /// What `Cache::reset_with` promises: every set empty, its policy as
    /// at construction, the statistics zeroed (PSEL is not the cache's).
    fn reset(&mut self) {
        for (s, set) in self.sets.iter_mut().enumerate() {
            set.tags.fill(None);
            set.states.fill(LineState::Invalid);
            set.policies = (self.factory)(s);
        }
        self.stats = CacheStats::default();
    }

    fn set_contents(&self, set: usize) -> Vec<Option<u64>> {
        self.sets[set].tags.clone()
    }
}

/// One generated operation against both models. Addresses are drawn over
/// the largest span and folded into the case's [`block_span`].
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Access; on a miss, fill with the given state.
    Access(u64, LineState),
    /// `len % (2 * assoc) + 1` accesses to consecutive blocks of one set,
    /// from the block of the address on, each filling on a miss: a
    /// same-set sweep, long enough to fill and overflow a set of any
    /// associativity between two flushes.
    Sweep(u64, u64, LineState),
    Invalidate(u64),
    SetState(u64, LineState),
    StateOf(u64),
    Flush,
    /// `Cache::reset_with` under the construction's seed derivation.
    Reset,
}

/// Draws one [`Op`], weighted toward accesses so replacement state gets
/// exercised deeply between the flushes and resets.
struct OpStrategy;

impl Strategy for OpStrategy {
    type Value = Op;
    fn generate(&self, rng: &mut TestRng) -> Op {
        let paddr = (0..block_span(64)).generate(rng) * LINE_SIZE + (0..LINE_SIZE).generate(rng);
        let state = match (0u8..3).generate(rng) {
            0 => LineState::Exclusive,
            1 => LineState::Shared,
            _ => LineState::Modified,
        };
        match (0u8..24).generate(rng) {
            0..=11 => Op::Access(paddr, state),
            12 | 13 => Op::Invalidate(paddr),
            14 | 15 => Op::SetState(paddr, state),
            16 | 17 => Op::StateOf(paddr),
            18..=20 => Op::Flush,
            21 => Op::Reset,
            _ => Op::Sweep(paddr, (0..128u64).generate(rng), state),
        }
    }
}

/// One access to both models, filling on a miss; checks the hit, the
/// line's state and the eviction.
fn access_both(arena: &mut Cache, oracle: &mut NaiveCache, paddr: u64, state: LineState, i: usize) {
    let a = arena.access_with_state(paddr);
    let o = oracle.access_with_state(paddr);
    assert_eq!(a, o, "op {i}: hit/state mismatch at {paddr:#x}");
    if a.is_none() {
        let ev_a = arena.fill_with_state(paddr, state);
        let ev_o = oracle.fill_with_state(paddr, state);
        assert_eq!(ev_a, ev_o, "op {i}: eviction mismatch at {paddr:#x}");
    }
}

/// Drives the same stream through both models and checks every observable;
/// both were built with [`set_seed`] of `case_seed`. Returns the oracle's
/// final PSEL and the final statistics.
fn check_equivalence(
    mut arena: Cache,
    mut oracle: NaiveCache,
    case_seed: u64,
    ops: &[Op],
) -> (i32, CacheStats) {
    let assoc = arena.assoc();
    let span = block_span(assoc) * LINE_SIZE;
    for (i, &op) in ops.iter().enumerate() {
        match op {
            Op::Access(paddr, state) => {
                access_both(&mut arena, &mut oracle, paddr % span, state, i);
            }
            Op::Sweep(paddr, len, state) => {
                let stride = NUM_SETS as u64 * LINE_SIZE;
                for k in 0..len % (2 * assoc as u64) + 1 {
                    access_both(
                        &mut arena,
                        &mut oracle,
                        (paddr + k * stride) % span,
                        state,
                        i,
                    );
                }
            }
            Op::Invalidate(paddr) => {
                let paddr = paddr % span;
                assert_eq!(arena.invalidate(paddr), oracle.invalidate(paddr), "op {i}");
            }
            Op::SetState(paddr, state) => {
                let paddr = paddr % span;
                assert_eq!(
                    arena.set_state(paddr, state),
                    oracle.set_state(paddr, state),
                    "op {i}"
                );
            }
            Op::StateOf(paddr) => {
                let paddr = paddr % span;
                assert_eq!(arena.state_of(paddr), oracle.state_of(paddr), "op {i}");
            }
            Op::Flush => {
                arena.flush_all();
                oracle.flush_all();
            }
            Op::Reset => {
                arena.reset_with(|set| set_seed(case_seed, set));
                oracle.reset();
            }
        }
    }
    assert_eq!(arena.stats(), oracle.stats);
    for set in 0..arena.num_sets() {
        assert_eq!(
            arena.set_contents(set),
            oracle.set_contents(set),
            "final contents of set {set}"
        );
    }
    for block in 0..block_span(assoc) {
        let paddr = block * LINE_SIZE;
        assert_eq!(
            arena.state_of(paddr),
            oracle.state_of(paddr),
            "final state of block {block}"
        );
    }
    (oracle.psel, oracle.stats)
}

/// One sweep of `2 * assoc` blocks overflows a set at every associativity
/// of [`assocs`], so the properties above evict at 64 ways too.
#[test]
fn a_sweep_overflows_a_set_at_every_associativity() {
    for assoc in [4, 8, 12, 16, 64] {
        let lru = move |_| (vec![PolicyKind::Lru.instantiate(assoc, 0)], 0);
        let arena = Cache::with_policies(NUM_SETS, assoc, |set| lru(set).0.remove(0));
        let oracle = NaiveCache::new(NUM_SETS, assoc, lru);
        let sweep = Op::Sweep(0, 2 * assoc as u64 - 1, LineState::Exclusive);
        let (_, stats) = check_equivalence(arena, oracle, 0, &[sweep]);
        assert_eq!(stats.misses, 2 * assoc as u64, "{assoc} ways");
        assert_eq!(stats.evictions, assoc as u64, "{assoc} ways");
    }
}

/// Every parseable policy family exercised by the plain differential run.
const POLICIES: &[&str] = &[
    "LRU",
    "FIFO",
    "PLRU",
    "MRU",
    "MRU*",
    "RANDOM",
    "QLRU_H11_M1_R0_U0",
    "QLRU_H00_M1_R2_U1",
    "QLRU_H00_M2_R0_U0_UMO",
    "QLRU_H11_MR161_R1_U2",
];

/// Dueling policy pairs `(A, B)`: a deterministic pair, and Ivy Bridge's
/// L3 pair, whose probabilistic B checks the policy-B seed derivation.
const DUELING_PAIRS: &[(&str, &str)] = &[
    ("LRU", "QLRU_H00_M1_R2_U1"),
    ("QLRU_H11_M1_R1_U2", "QLRU_H11_MR161_R1_U2"),
];

proptest! {
    /// Uniform-policy caches: the arena against the oracle, at every
    /// associativity of [`assocs`] the policy accepts (PLRU needs a power
    /// of two).
    #[test]
    fn arena_cache_matches_naive_model(
        policy_idx in 0..POLICIES.len(),
        assoc in assocs(),
        case_seed in 0..u64::MAX,
        ops in collection::vec(OpStrategy, 1..200),
    ) {
        let kind = PolicyKind::parse(POLICIES[policy_idx]).unwrap();
        if kind.validate(assoc).is_err() {
            return;
        }
        let arena = Cache::with_policies(NUM_SETS, assoc, |set| {
            kind.instantiate(assoc, set_seed(case_seed, set))
        });
        let oracle = NaiveCache::new(NUM_SETS, assoc, move |set| {
            (vec![kind.instantiate(assoc, set_seed(case_seed, set))], 0)
        });
        check_equivalence(arena, oracle, case_seed, &ops);
    }

    /// Set dueling: leader sets 0 (policy A) and 1 (policy B), followers
    /// elsewhere. The arena runs the library's `Dueling` arm over a
    /// `PselCounter`; the oracle runs its own dueling model.
    #[test]
    fn dueling_cache_matches_naive_model(
        pair in 0..DUELING_PAIRS.len(),
        assoc in assocs(),
        case_seed in 0..u64::MAX,
        ops in collection::vec(OpStrategy, 1..200),
    ) {
        let a = PolicyKind::parse(DUELING_PAIRS[pair].0).unwrap();
        let b = PolicyKind::parse(DUELING_PAIRS[pair].1).unwrap();
        let psel = PselCounter::new();
        let roles = [SetRole::LeaderA, SetRole::LeaderB, SetRole::Follower, SetRole::Follower];
        let arena = Cache::with_policies(NUM_SETS, assoc, |set| {
            Dueling::slot(roles[set], &a, &b, assoc, set_seed(case_seed, set), &psel)
        });
        let oracle = NaiveCache::new(NUM_SETS, assoc, move |set| {
            let seed = set_seed(case_seed, set);
            let policy_a = || a.instantiate(assoc, seed);
            let policy_b = || b.instantiate(assoc, seed ^ POLICY_B_SEED_SALT);
            match set {
                0 => (vec![policy_a()], 1),
                1 => (vec![policy_b()], -1),
                _ => (vec![policy_a(), policy_b()], 0),
            }
        });
        let (oracle_psel, _) = check_equivalence(arena, oracle, case_seed, &ops);
        prop_assert_eq!(psel.value(), oracle_psel);
    }

    /// `on_flush` restores a fixed state, so a second flush changes
    /// nothing (the cache skips the sets not filled since the last flush):
    /// a clone taken after one flush and the original flushed again make
    /// the same decisions. A dueling set's clone shares its PSEL counter,
    /// which is safe here: leaders only write it and followers only read
    /// it.
    #[test]
    fn a_second_flush_changes_nothing(
        family in 0..FLUSH_FAMILIES,
        assoc in prop_oneof![Just(4usize), Just(8usize)],
        seed in 0..u64::MAX,
        before in collection::vec(0..SET_OPS, 0..60),
        after in collection::vec(0..SET_OPS, 1..60),
    ) {
        let mut policy = flush_family(family, assoc, seed);
        drive(&mut policy, assoc, &before);
        policy.on_flush();
        let mut flushed_once = policy.clone();
        policy.on_flush();
        prop_assert_eq!(
            drive(&mut policy, assoc, &after),
            drive(&mut flushed_once, assoc, &after)
        );
    }
}

/// Every named kind, then a permutation spec, an A leader, a B leader, a
/// follower on policy A and a follower on policy B.
const FLUSH_FAMILIES: usize = POLICIES.len() + 5;

fn flush_family(family: usize, assoc: usize, seed: u64) -> PolicySlot {
    if let Some(name) = POLICIES.get(family) {
        return PolicyKind::parse(name).unwrap().instantiate(assoc, seed);
    }
    let qlru = PolicyKind::parse("QLRU_H00_M1_R2_U1").unwrap();
    let psel = PselCounter::new();
    let dueling = |role| Dueling::slot(role, &PolicyKind::Lru, &qlru, assoc, seed, &psel);
    match family - POLICIES.len() {
        0 => PolicyKind::Permutation(plru_spec(assoc)).instantiate(assoc, seed),
        1 => dueling(SetRole::LeaderA),
        2 => dueling(SetRole::LeaderB),
        k => {
            if k == 4 {
                for _ in 0..600 {
                    psel.miss_in_a();
                }
                assert!(psel.use_policy_b());
            }
            dueling(SetRole::Follower)
        }
    }
}

/// Single-set ops for [`drive`]: `op < 12` accesses block `op`, larger
/// values invalidate block `op - 12` if it is present.
const SET_OPS: u64 = 20;

/// Drives `policy` over an initially empty set and returns the way each
/// miss filled.
fn drive(policy: &mut PolicySlot, assoc: usize, ops: &[u64]) -> Vec<usize> {
    let mut tags: Vec<Option<u64>> = vec![None; assoc];
    let mut victims = Vec::new();
    for &op in ops {
        let occupied = mask_of(&tags);
        let (block, invalidate) = if op < 12 {
            (op, false)
        } else {
            (op - 12, true)
        };
        match tags.iter().position(|&t| t == Some(block)) {
            Some(way) if invalidate => {
                tags[way] = None;
                policy.on_invalidate(way);
            }
            Some(way) => policy.on_hit(way, occupied),
            None if invalidate => {}
            None => {
                let way = policy.on_miss(occupied);
                tags[way] = Some(block);
                victims.push(way);
            }
        }
    }
    victims
}
