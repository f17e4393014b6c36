//! LRU, FIFO, tree-based PLRU and random replacement.

use super::SetPolicy;
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
    fn on_hit(&mut self, way: usize, _occupied: &[bool]) {
        self.touch(way);
    }

    fn on_miss(&mut self, occupied: &[bool]) -> usize {
        let way = match occupied.iter().position(|o| !o) {
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
    fn on_hit(&mut self, _way: usize, _occupied: &[bool]) {}

    fn on_miss(&mut self, occupied: &[bool]) -> usize {
        let way = match occupied.iter().position(|o| !o) {
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
    /// right. Associativity is capped at 64 ways, so the tree's `assoc`
    /// nodes always fit.
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

    fn promote(&mut self, way: usize) {
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if way < mid {
                // Accessed the left half: point the bit right (away).
                self.tree |= 1 << node;
                node *= 2;
                hi = mid;
            } else {
                self.tree &= !(1 << node);
                node = 2 * node + 1;
                lo = mid;
            }
        }
    }

    fn victim(&self) -> usize {
        let mut node = 1usize;
        let mut lo = 0usize;
        let mut hi = self.assoc;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.tree & (1 << node) != 0 {
                node = 2 * node + 1;
                lo = mid;
            } else {
                node *= 2;
                hi = mid;
            }
        }
        lo
    }
}

impl SetPolicy for Plru {
    fn on_hit(&mut self, way: usize, _occupied: &[bool]) {
        self.promote(way);
    }

    fn on_miss(&mut self, occupied: &[bool]) -> usize {
        let way = match occupied.iter().position(|o| !o) {
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
    fn on_hit(&mut self, _way: usize, _occupied: &[bool]) {}

    fn on_miss(&mut self, occupied: &[bool]) -> usize {
        match occupied.iter().position(|o| !o) {
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
        let occ = [true; 4];
        for w in 0..4 {
            p.promote(w);
        }
        p.on_hit(0, &occ);
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
