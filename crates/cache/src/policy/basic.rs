//! LRU, FIFO, tree-based PLRU and random replacement.

use super::{first_empty, SetPolicy};
use rand::rngs::SmallRng;
use rand::Rng;

/// Least-recently-used replacement.
///
/// Maintains a recency stack; the victim is the least recently used
/// occupied way. Empty ways are filled left to right first.
#[derive(Debug, Clone)]
pub struct Lru {
    /// `stack[0]` is the most recently used way.
    stack: Vec<usize>,
}

impl Lru {
    /// Creates LRU state for a set with `assoc` ways.
    pub fn new(assoc: usize) -> Lru {
        Lru {
            stack: (0..assoc).collect(),
        }
    }

    fn touch(&mut self, way: usize) {
        if let Some(pos) = self.stack.iter().position(|w| *w == way) {
            self.stack.remove(pos);
            self.stack.insert(0, way);
        }
    }
}

impl SetPolicy for Lru {
    fn on_hit(&mut self, way: usize, _occupied: u64) {
        self.touch(way);
    }

    fn on_miss(&mut self, occupied: u64) -> usize {
        let way = match first_empty(occupied) {
            Some(empty) => empty,
            None => *self.stack.last().expect("associativity is positive"),
        };
        self.touch(way);
        way
    }

    fn on_invalidate(&mut self, way: usize) {
        // Move to LRU position so the way is reused predictably.
        if let Some(pos) = self.stack.iter().position(|w| *w == way) {
            self.stack.remove(pos);
            self.stack.push(way);
        }
    }

    fn on_flush(&mut self) {
        let assoc = self.stack.len();
        self.stack.clear();
        self.stack.extend(0..assoc);
    }

    fn reset(&mut self, _seed: u64) {
        self.on_flush();
    }
}

/// First-in first-out replacement: hits do not update state.
#[derive(Debug, Clone)]
pub struct Fifo {
    /// `queue[0]` is the next victim (oldest).
    queue: Vec<usize>,
}

impl Fifo {
    /// Creates FIFO state for a set with `assoc` ways.
    pub fn new(assoc: usize) -> Fifo {
        Fifo {
            queue: (0..assoc).collect(),
        }
    }
}

impl SetPolicy for Fifo {
    fn on_hit(&mut self, _way: usize, _occupied: u64) {}

    fn on_miss(&mut self, occupied: u64) -> usize {
        let way = match first_empty(occupied) {
            Some(empty) => empty,
            None => self.queue[0],
        };
        if let Some(pos) = self.queue.iter().position(|w| *w == way) {
            self.queue.remove(pos);
            self.queue.push(way);
        }
        way
    }

    fn on_invalidate(&mut self, way: usize) {
        if let Some(pos) = self.queue.iter().position(|w| *w == way) {
            self.queue.remove(pos);
            self.queue.insert(0, way);
        }
    }

    fn on_flush(&mut self) {
        let assoc = self.queue.len();
        self.queue.clear();
        self.queue.extend(0..assoc);
    }

    fn reset(&mut self, _seed: u64) {
        self.on_flush();
    }
}

/// Tree-based pseudo-LRU (§VI-B1).
///
/// Maintains a complete binary tree of direction bits over the ways. On a
/// miss the victim is found by following the bits from the root; after each
/// access all bits on the path to the accessed way are set to point *away*
/// from it.
///
/// # Panics
///
/// `Plru::new` panics if the associativity is not a power of two.
#[derive(Debug, Clone)]
pub struct Plru {
    assoc: usize,
    /// Heap-layout tree bits packed into a word: bit 1 is the root, node
    /// `i` has children `2i` and `2i+1`. Bit value 0 points left, 1 points
    /// right. Associativity is capped at 64 ways, so the tree's `assoc - 1`
    /// inner nodes always fit. The leaves `assoc..2 * assoc` are the ways
    /// (way `w` is node `assoc + w`), so a way's bits, high to low, spell
    /// its path from the root.
    tree: u64,
}

impl Plru {
    /// Creates PLRU state for a set with `assoc` ways (power of two).
    pub fn new(assoc: usize) -> Plru {
        assert!(
            assoc.is_power_of_two(),
            "PLRU requires a power-of-two associativity, got {assoc}"
        );
        assert!(assoc <= 64, "PLRU supports at most 64 ways, got {assoc}");
        Plru { assoc, tree: 0 }
    }

    /// Points every node on `way`'s path away from it: a node whose left
    /// child lies on the path gets 1 (right), one whose right child does
    /// gets 0.
    fn promote(&mut self, way: usize) {
        let mut node = self.assoc + way;
        while node > 1 {
            let away = ((node & 1) ^ 1) as u64;
            node >>= 1;
            self.tree = (self.tree & !(1 << node)) | (away << node);
        }
    }

    /// Follows the bits from the root down to a leaf.
    fn victim(&self) -> usize {
        let mut node = 1;
        while node < self.assoc {
            node = 2 * node + ((self.tree >> node) & 1) as usize;
        }
        node - self.assoc
    }
}

impl SetPolicy for Plru {
    fn on_hit(&mut self, way: usize, _occupied: u64) {
        self.promote(way);
    }

    fn on_miss(&mut self, occupied: u64) -> usize {
        let way = match first_empty(occupied) {
            Some(empty) => empty,
            None => self.victim(),
        };
        self.promote(way);
        way
    }

    fn on_invalidate(&mut self, _way: usize) {}

    fn on_flush(&mut self) {
        self.tree = 0;
    }

    fn reset(&mut self, _seed: u64) {
        self.tree = 0;
    }
}

/// Uniformly random replacement (victim drawn from all ways on a full set).
#[derive(Debug, Clone)]
pub struct RandomPolicy {
    assoc: usize,
    rng: SmallRng,
}

impl RandomPolicy {
    /// Creates random-replacement state for a set with `assoc` ways.
    pub fn new(assoc: usize, rng: SmallRng) -> RandomPolicy {
        RandomPolicy { assoc, rng }
    }
}

impl SetPolicy for RandomPolicy {
    fn on_hit(&mut self, _way: usize, _occupied: u64) {}

    fn on_miss(&mut self, occupied: u64) -> usize {
        match first_empty(occupied) {
            Some(empty) => empty,
            None => self.rng.gen_range(0..self.assoc),
        }
    }

    fn on_invalidate(&mut self, _way: usize) {}

    fn on_flush(&mut self) {}

    fn reset(&mut self, seed: u64) {
        use rand::SeedableRng;
        self.rng = SmallRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{simulate_sequence, PolicyKind, SetSim};

    #[test]
    fn lru_eviction_order() {
        let mut sim = SetSim::new(&PolicyKind::Lru, 4, 0);
        for b in 0..4 {
            sim.access(b);
        }
        sim.access(0); // refresh block 0
        sim.access(100); // evicts LRU = block 1
        assert!(sim.contains(0));
        assert!(!sim.contains(1));
        assert!(sim.contains(2));
    }

    #[test]
    fn fifo_ignores_hits() {
        let mut sim = SetSim::new(&PolicyKind::Fifo, 4, 0);
        for b in 0..4 {
            sim.access(b);
        }
        sim.access(0); // hit; does not change FIFO order
        sim.access(100); // evicts first-in = block 0
        assert!(!sim.contains(0));
        assert!(sim.contains(1));
    }

    #[test]
    fn plru_classic_4way() {
        // Standard 4-way PLRU worked example: fill 0,1,2,3 then hit 0;
        // the next victim must come from the right half and be way 2.
        let mut p = Plru::new(4);
        for w in 0..4 {
            p.promote(w);
        }
        p.on_hit(0, u64::MAX);
        assert_eq!(p.victim(), 2);
    }

    #[test]
    fn plru_is_not_lru() {
        // Search for a sequence distinguishing PLRU from LRU on a 4-way
        // set; such sequences must exist (the policies differ).
        let mut state = 99u64;
        let mut seq: Vec<u64> = Vec::new();
        let found = (0..600).any(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push((state >> 33) % 6);
            simulate_sequence(&PolicyKind::Lru, 4, 0, &seq)
                != simulate_sequence(&PolicyKind::Plru, 4, 0, &seq)
        });
        assert!(found, "PLRU must be observationally different from LRU");
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two() {
        let _ = Plru::new(12);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let seq: Vec<u64> = (0..200).map(|i| i % 9).collect();
        let a = simulate_sequence(&PolicyKind::Random, 4, 42, &seq);
        let b = simulate_sequence(&PolicyKind::Random, 4, 42, &seq);
        let c = simulate_sequence(&PolicyKind::Random, 4, 43, &seq);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
