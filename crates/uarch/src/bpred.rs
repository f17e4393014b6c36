//! A small branch predictor: per-branch two-bit saturating counters.
//!
//! The predictor state persists across benchmark runs, so nanoBench's
//! warm-up runs (§III-H: "train the branch predictor to reduce the number
//! of mispredicted branches") have their documented effect.

/// Two-bit-counter branch predictor keyed by instruction index.
///
/// Counters live in a dense array indexed by the branch's instruction
/// index, grown on demand; an absent entry reads as the weakly-not-taken
/// initial state. The table is consulted on every conditional branch the
/// interpreter retires, so lookups must not hash.
#[derive(Debug, Default, Clone)]
pub struct BranchPredictor {
    counters: Vec<u8>,
}

/// Initial counter value: weakly predicted not-taken.
const WEAK_NOT_TAKEN: u8 = 1;

impl BranchPredictor {
    /// Creates an empty predictor (all branches weakly predicted
    /// not-taken).
    pub fn new() -> BranchPredictor {
        BranchPredictor::default()
    }

    /// Predicts whether the branch at `index` is taken.
    pub fn predict(&self, index: usize) -> bool {
        self.counters.get(index).copied().unwrap_or(WEAK_NOT_TAKEN) >= 2
    }

    /// Updates the predictor with the actual outcome; returns `true` if
    /// the branch was mispredicted. Always inlined: the engine calls it on
    /// every conditional branch from several handlers.
    #[inline(always)]
    pub fn update(&mut self, index: usize, taken: bool) -> bool {
        if index >= self.counters.len() {
            self.counters.resize(index + 1, WEAK_NOT_TAKEN);
        }
        let counter = &mut self.counters[index];
        let predicted = *counter >= 2;
        if taken {
            *counter = (*counter + 1).min(3);
        } else {
            *counter = counter.saturating_sub(1);
        }
        predicted != taken
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.counters.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_loop_branch() {
        let mut bp = BranchPredictor::new();
        // First taken occurrence: predicted not-taken -> mispredict.
        assert!(bp.update(5, true));
        // Second: counter reached 2 -> predicted taken.
        assert!(!bp.update(5, true));
        assert!(!bp.update(5, true));
        // Loop exit: predicted taken, actually not -> mispredict.
        assert!(bp.update(5, false));
        // Re-entering the loop next run: still predicted taken (counter 2).
        assert!(!bp.update(5, true));
    }

    #[test]
    fn distinct_branches_are_independent() {
        let mut bp = BranchPredictor::new();
        bp.update(1, true);
        bp.update(1, true);
        assert!(bp.predict(1));
        assert!(!bp.predict(2));
    }

    #[test]
    fn reset_forgets() {
        let mut bp = BranchPredictor::new();
        bp.update(1, true);
        bp.update(1, true);
        bp.reset();
        assert!(!bp.predict(1));
    }
}
