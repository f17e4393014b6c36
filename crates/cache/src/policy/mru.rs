//! The MRU (bit-PLRU / PLRUm / NRU) policy and its Sandy Bridge variant.

use super::{first_empty, SetPolicy};

/// One-status-bit-per-line MRU replacement (§VI-B2 of the paper).
///
/// Each line has one bit. An access sets the line's bit to 0; if it was the
/// last bit set to 1, the bits of *all other* lines are set to 1. On a miss
/// the leftmost line whose bit is 1 is replaced.
///
/// The Sandy Bridge L3 uses a variant (`MRU*` in Table I) that keeps all
/// bits set to 1 while the cache is not yet full after a `WBINVD`: fills do
/// not clear the inserted line's bit until the set is full.
#[derive(Debug, Clone)]
pub struct Mru {
    bits: Vec<bool>,
    fill_sets_all_ones: bool,
}

impl Mru {
    /// Creates MRU state for a set with `assoc` ways.
    pub fn new(assoc: usize, fill_sets_all_ones: bool) -> Mru {
        Mru {
            bits: vec![true; assoc],
            fill_sets_all_ones,
        }
    }

    /// Applies the access rule: clear the bit, saturating by setting all
    /// others when the last 1-bit disappears.
    fn touch(&mut self, way: usize) {
        let was_last_one = self.bits[way] && self.bits.iter().filter(|b| **b).count() == 1;
        self.bits[way] = false;
        if was_last_one {
            for (w, bit) in self.bits.iter_mut().enumerate() {
                if w != way {
                    *bit = true;
                }
            }
        }
    }

    /// Exposes the status bits (for tests and debugging).
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }
}

impl SetPolicy for Mru {
    fn on_hit(&mut self, way: usize, _occupied: u64) {
        self.touch(way);
    }

    fn on_miss(&mut self, occupied: u64) -> usize {
        match first_empty(occupied) {
            Some(empty) => {
                if self.fill_sets_all_ones {
                    // Sandy Bridge variant: while filling, all bits stay 1.
                    self.bits.fill(true);
                } else {
                    self.touch(empty);
                }
                empty
            }
            None => {
                let way = self.bits.iter().position(|b| *b).unwrap_or(0); // all bits 0 cannot persist, but stay safe
                self.touch(way);
                way
            }
        }
    }

    fn on_invalidate(&mut self, way: usize) {
        self.bits[way] = true;
    }

    fn on_flush(&mut self) {
        self.bits.fill(true);
    }

    fn reset(&mut self, _seed: u64) {
        self.bits.fill(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{simulate_sequence, PolicyKind, SetSim};

    #[test]
    fn mru_saturation_rule() {
        let mut m = Mru::new(4, false);
        // Clear bits 0..2; when bit 3 (the last 1) is cleared, all others
        // must be re-set.
        for w in 0..3 {
            m.on_hit(w, u64::MAX);
        }
        assert_eq!(m.bits(), &[false, false, false, true]);
        m.on_hit(3, u64::MAX);
        assert_eq!(m.bits(), &[true, true, true, false]);
    }

    #[test]
    fn mru_victim_is_leftmost_one() {
        let mut sim = SetSim::new(
            &PolicyKind::Mru {
                fill_sets_all_ones: false,
            },
            4,
            0,
        );
        for b in 0..4u64 {
            sim.access(b);
        }
        // Base variant: fills touch bits. After the 4th fill the saturation
        // rule leaves bits [1,1,1,0], so the next victim is way 0.
        sim.access(100);
        assert!(!sim.contains(0));
        assert!(sim.contains(3));
    }

    #[test]
    fn sandy_bridge_variant_differs_after_fill_hits() {
        // Base MRU and the WBINVD variant diverge on some sequence with
        // hits during the fill phase (that divergence is what Table I's
        // `MRU*` entry reports). Search for a witness.
        let base_kind = PolicyKind::Mru {
            fill_sets_all_ones: false,
        };
        let sandy_kind = PolicyKind::Mru {
            fill_sets_all_ones: true,
        };
        let mut state = 7u64;
        let mut seq: Vec<u64> = Vec::new();
        let found = (0..600).any(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push((state >> 33) % 6);
            simulate_sequence(&base_kind, 4, 0, &seq) != simulate_sequence(&sandy_kind, 4, 0, &seq)
        });
        assert!(found, "MRU* must be observationally different from MRU");
    }

    #[test]
    fn mru_is_not_lru_or_fifo() {
        let seq: Vec<u64> = vec![0, 1, 2, 3, 0, 1, 4, 0, 2, 5, 0, 1, 2, 3];
        let mru = simulate_sequence(
            &PolicyKind::Mru {
                fill_sets_all_ones: false,
            },
            4,
            0,
            &seq,
        );
        assert_ne!(mru, simulate_sequence(&PolicyKind::Lru, 4, 0, &seq));
        assert_ne!(mru, simulate_sequence(&PolicyKind::Fifo, 4, 0, &seq));
    }
}
