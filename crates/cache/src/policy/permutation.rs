//! Permutation-based replacement policies (§VI-B1).
//!
//! A permutation policy maintains a total order of the blocks in a cache
//! set; a hit permutes the order depending only on the accessed block's
//! position, and a miss replaces the smallest element. Such policies are
//! fully specified by A+1 permutations (plus, in our occupancy-aware
//! setting, the permutations applied when *filling* an empty way, which
//! real hardware does before evicting anything).
//!
//! LRU, FIFO and tree-based PLRU are permutation policies; their canonical
//! specifications are provided by [`lru_spec`], [`fifo_spec`] and
//! [`plru_spec`], and the property tests in this crate verify that the
//! spec-driven policy is behaviourally identical to the native
//! implementations.

use super::{first_empty, SetPolicy};

/// A permutation over positions: `perm[old_position] = new_position`.
pub type Perm = Vec<usize>;

fn is_permutation(p: &[usize]) -> bool {
    let mut seen = vec![false; p.len()];
    for &x in p {
        if x >= p.len() || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

/// A complete specification of a permutation policy for one associativity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PermutationSpec {
    /// The initial order after a flush: `initial_order[pos]` is the way at
    /// that position (position 0 = next victim). For LRU/FIFO this is the
    /// identity; for tree-PLRU it is the order induced by the all-zero tree.
    pub initial_order: Perm,
    /// Permutation applied on a hit at each position.
    pub hit: Vec<Perm>,
    /// Permutation applied when an empty way at the given position is
    /// filled (cache not yet full).
    pub fill: Vec<Perm>,
    /// Permutation applied on a miss in a full set; the new block starts at
    /// position 0 (the victim's position) before the permutation.
    pub miss: Perm,
}

impl PermutationSpec {
    /// The associativity this spec is for.
    pub fn assoc(&self) -> usize {
        self.miss.len()
    }

    /// Checks that all components are valid permutations of the same size.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let a = self.assoc();
        if self.hit.len() != a || self.fill.len() != a {
            return Err(format!(
                "expected {a} hit and fill permutations, got {} and {}",
                self.hit.len(),
                self.fill.len()
            ));
        }
        for (i, p) in std::iter::once(&self.initial_order)
            .chain(self.hit.iter())
            .chain(self.fill.iter())
            .chain(std::iter::once(&self.miss))
            .enumerate()
        {
            if p.len() != a || !is_permutation(p) {
                return Err(format!("component {i} is not a permutation of 0..{a}"));
            }
        }
        Ok(())
    }
}

/// The permutation that moves position `p` to the top (position A-1) and
/// shifts every position above `p` down by one.
fn promote_perm(assoc: usize, p: usize) -> Perm {
    (0..assoc)
        .map(|pos| {
            if pos == p {
                assoc - 1
            } else if pos > p {
                pos - 1
            } else {
                pos
            }
        })
        .collect()
}

/// Canonical LRU specification: every access promotes to the top.
pub fn lru_spec(assoc: usize) -> PermutationSpec {
    let promote: Vec<Perm> = (0..assoc).map(|p| promote_perm(assoc, p)).collect();
    PermutationSpec {
        initial_order: (0..assoc).collect(),
        hit: promote.clone(),
        fill: promote,
        miss: promote_perm(assoc, 0),
    }
}

/// Canonical FIFO specification: hits change nothing; insertions (fills and
/// misses) go to the top.
pub fn fifo_spec(assoc: usize) -> PermutationSpec {
    let identity: Perm = (0..assoc).collect();
    PermutationSpec {
        initial_order: identity.clone(),
        hit: vec![identity; assoc],
        fill: (0..assoc).map(|p| promote_perm(assoc, p)).collect(),
        miss: promote_perm(assoc, 0),
    }
}

/// Tree-PLRU position of `way` for the given tree bits (heap layout, node 1
/// is the root; `false` points left). The position is the sum over the path
/// of `2^depth` for each bit pointing away from the way.
fn plru_position(assoc: usize, tree: &[bool], way: usize) -> usize {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = assoc;
    let mut weight = 1usize;
    let mut pos = 0usize;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            if tree[node] {
                pos += weight; // bit points right, away from the left-side way
            }
            node *= 2;
            hi = mid;
        } else {
            if !tree[node] {
                pos += weight;
            }
            node = 2 * node + 1;
            lo = mid;
        }
        weight *= 2;
    }
    pos
}

fn plru_promote(assoc: usize, tree: &mut [bool], way: usize) {
    let mut node = 1usize;
    let mut lo = 0usize;
    let mut hi = assoc;
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if way < mid {
            tree[node] = true;
            node *= 2;
            hi = mid;
        } else {
            tree[node] = false;
            node = 2 * node + 1;
            lo = mid;
        }
    }
}

/// Derives the canonical tree-PLRU permutation specification by simulating
/// the tree (§VI-B1 notes PLRU is a permutation policy).
///
/// # Panics
///
/// Panics if `assoc` is not a power of two.
pub fn plru_spec(assoc: usize) -> PermutationSpec {
    assert!(
        assoc.is_power_of_two(),
        "PLRU requires power-of-two associativity"
    );
    // From the all-zero tree, way w sits at position plru_position(w).
    // Hitting the way at position p promotes it; the permutation is read
    // off by comparing positions before and after.
    let tree0 = vec![false; assoc];
    let pos0: Vec<usize> = (0..assoc)
        .map(|w| plru_position(assoc, &tree0, w))
        .collect();
    // way_at[p] = way at position p in the initial state.
    let mut way_at = vec![0usize; assoc];
    for (w, &p) in pos0.iter().enumerate() {
        way_at[p] = w;
    }
    let mut hit = Vec::with_capacity(assoc);
    for p in 0..assoc {
        let mut tree = tree0.clone();
        plru_promote(assoc, &mut tree, way_at[p]);
        let perm: Perm = (0..assoc)
            .map(|old| plru_position(assoc, &tree, way_at[old]))
            .collect();
        hit.push(perm);
    }
    // A fill/miss also just promotes the accessed way.
    let miss = hit[0].clone();
    PermutationSpec {
        initial_order: way_at,
        fill: hit.clone(),
        hit,
        miss,
    }
}

/// A policy driven by an explicit [`PermutationSpec`].
#[derive(Debug, Clone)]
pub struct PermutationPolicy {
    spec: PermutationSpec,
    /// `order[pos]` = way currently at that position; position 0 is the
    /// next victim.
    order: Vec<usize>,
}

impl PermutationPolicy {
    /// Creates policy state in the canonical initial order (way i at
    /// position i).
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`PermutationSpec::validate`]; use
    /// [`PermutationPolicy::try_new`] for specs from user input.
    pub fn new(spec: PermutationSpec) -> PermutationPolicy {
        match PermutationPolicy::try_new(spec) {
            Ok(policy) => policy,
            Err(e) => panic!("invalid permutation spec: {e}"),
        }
    }

    /// Fallible counterpart of [`PermutationPolicy::new`].
    ///
    /// # Errors
    ///
    /// Returns the error of [`PermutationSpec::validate`].
    pub fn try_new(spec: PermutationSpec) -> Result<PermutationPolicy, String> {
        spec.validate()?;
        let order = spec.initial_order.clone();
        Ok(PermutationPolicy { spec, order })
    }

    fn apply(&mut self, perm_idx: PermChoice) {
        let perm = match perm_idx {
            PermChoice::Hit(p) => &self.spec.hit[p],
            PermChoice::Fill(p) => &self.spec.fill[p],
            PermChoice::Miss => &self.spec.miss,
        };
        let mut new_order = vec![usize::MAX; self.order.len()];
        for (old_pos, &way) in self.order.iter().enumerate() {
            new_order[perm[old_pos]] = way;
        }
        self.order = new_order;
    }

    fn position_of(&self, way: usize) -> usize {
        self.order
            .iter()
            .position(|w| *w == way)
            .expect("way is always present in the order")
    }
}

enum PermChoice {
    Hit(usize),
    Fill(usize),
    Miss,
}

impl SetPolicy for PermutationPolicy {
    fn on_hit(&mut self, way: usize, _occupied: u64) {
        let p = self.position_of(way);
        self.apply(PermChoice::Hit(p));
    }

    fn on_miss(&mut self, occupied: u64) -> usize {
        if let Some(empty) = first_empty(occupied) {
            let p = self.position_of(empty);
            self.apply(PermChoice::Fill(p));
            empty
        } else {
            let victim = self.order[0];
            self.apply(PermChoice::Miss);
            victim
        }
    }

    fn on_invalidate(&mut self, _way: usize) {}

    fn on_flush(&mut self) {
        self.order.clone_from(&self.spec.initial_order);
    }

    fn reset(&mut self, _seed: u64) {
        self.order.clone_from(&self.spec.initial_order);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{simulate_sequence, PolicyKind};

    #[test]
    fn specs_validate() {
        for a in [2usize, 4, 8, 16] {
            lru_spec(a).validate().unwrap();
            fifo_spec(a).validate().unwrap();
            plru_spec(a).validate().unwrap();
        }
        plru_spec(12_usize.next_power_of_two()).validate().unwrap();
    }

    #[test]
    fn invalid_spec_rejected() {
        let mut spec = lru_spec(4);
        spec.miss = vec![0, 0, 1, 2];
        assert!(spec.validate().is_err());
        let mut spec = lru_spec(4);
        spec.initial_order = vec![0, 1, 2, 2];
        assert!(spec.validate().is_err());
    }

    #[test]
    fn plru_initial_order_is_tree_induced() {
        // All-zero 4-way tree: positions are [w0, w2, w1, w3].
        assert_eq!(plru_spec(4).initial_order, vec![0, 2, 1, 3]);
    }

    fn pseudo_random_seq(len: usize, universe: u64, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % universe
            })
            .collect()
    }

    #[test]
    fn spec_driven_lru_matches_native() {
        for assoc in [2usize, 4, 8] {
            let spec = PolicyKind::Permutation(lru_spec(assoc));
            for seed in 0..20 {
                let seq = pseudo_random_seq(100, assoc as u64 + 3, seed);
                assert_eq!(
                    simulate_sequence(&PolicyKind::Lru, assoc, 0, &seq),
                    simulate_sequence(&spec, assoc, 0, &seq),
                    "assoc {assoc} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn spec_driven_fifo_matches_native() {
        for assoc in [2usize, 4, 8] {
            let spec = PolicyKind::Permutation(fifo_spec(assoc));
            for seed in 0..20 {
                let seq = pseudo_random_seq(100, assoc as u64 + 3, seed);
                assert_eq!(
                    simulate_sequence(&PolicyKind::Fifo, assoc, 0, &seq),
                    simulate_sequence(&spec, assoc, 0, &seq),
                    "assoc {assoc} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn spec_driven_plru_matches_native() {
        for assoc in [2usize, 4, 8, 16] {
            let spec = PolicyKind::Permutation(plru_spec(assoc));
            for seed in 0..30 {
                let seq = pseudo_random_seq(150, assoc as u64 + 5, seed);
                assert_eq!(
                    simulate_sequence(&PolicyKind::Plru, assoc, 0, &seq),
                    simulate_sequence(&spec, assoc, 0, &seq),
                    "assoc {assoc} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn plru_positions_all_zero_tree() {
        // 8-way, all bits zero: way 0 is the victim (position 0) and way 4
        // (other side of the root) is position 1.
        let tree = vec![false; 8];
        assert_eq!(plru_position(8, &tree, 0), 0);
        assert_eq!(plru_position(8, &tree, 4), 1);
        assert_eq!(plru_position(8, &tree, 2), 2);
        // The positions form a permutation.
        let mut pos: Vec<usize> = (0..8).map(|w| plru_position(8, &tree, w)).collect();
        pos.sort_unstable();
        assert_eq!(pos, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn lru_and_plru_specs_differ() {
        assert_ne!(lru_spec(4), plru_spec(4));
        assert_ne!(lru_spec(4), fifo_spec(4));
    }
}
