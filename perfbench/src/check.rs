//! The output check: every op's simulated output is digested bit-exactly,
//! and an op fails if it errs, breaks its workload's claim, or digests
//! differently from the reference it must reproduce.

/// 64-bit FNV-1a over the bit patterns of an op's outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Digest {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Digest {
        self.bytes(&v.to_le_bytes())
    }

    /// Floats enter by their bit pattern, so -0.0, 0.0 and NaN payloads
    /// all differ.
    pub fn f64(&mut self, v: f64) -> &mut Digest {
        self.u64(v.to_bits())
    }

    pub fn str(&mut self, s: &str) -> &mut Digest {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Folds a sequence of op digests into one.
pub fn fold(digests: &[u64]) -> u64 {
    let mut d = Digest::default();
    for &x in digests {
        d.u64(x);
    }
    d.finish()
}

/// Per-op outcomes of one run: each op's digest (`None` when it erred)
/// and whether it failed any check.
#[derive(Debug, Default)]
pub struct Ledger {
    digests: Vec<Option<u64>>,
    failed: Vec<bool>,
}

impl Ledger {
    /// Records op `len()`'s outcome.
    pub fn push(&mut self, digest: Option<u64>, ok: bool) {
        self.digests.push(digest);
        self.failed.push(digest.is_none() || !ok);
    }

    pub fn attempted(&self) -> usize {
        self.digests.len()
    }

    pub fn failed(&self) -> usize {
        self.failed.iter().filter(|&&f| f).count()
    }

    /// Fails every op whose digest differs from `reference[i]`, e.g. the
    /// same ops replayed on a fresh set-up with the same seed. Returns how
    /// many were newly failed.
    pub fn check_against(&mut self, reference: &[Option<u64>]) -> usize {
        let mut newly = 0;
        for (i, want) in reference.iter().enumerate().take(self.digests.len()) {
            if (want.is_none() || self.digests[i] != *want) && !self.failed[i] {
                self.failed[i] = true;
                newly += 1;
            }
        }
        newly
    }

    /// For ops that are pure functions of an input cycling with `period`:
    /// fails op `i` unless it reproduces op `i % period` bit-exactly.
    pub fn check_period(&mut self, period: usize) -> usize {
        let reference: Vec<Option<u64>> = (0..self.digests.len())
            .map(|i| self.digests[i % period])
            .collect();
        self.check_against(&reference)
    }

    /// Checks the fold of the first `prefix` digests against `pinned`.
    /// On a mismatch all `prefix` ops fail. Returns `None` when the run
    /// has fewer ops than the prefix.
    pub fn check_pin(&mut self, prefix: usize, pinned: u64) -> Option<bool> {
        if self.digests.len() < prefix {
            return None;
        }
        let ok = self.prefix_fold(prefix) == Some(pinned);
        if !ok {
            self.failed[..prefix].fill(true);
        }
        Some(ok)
    }

    /// The fold of the first `prefix` digests, if all of them exist.
    pub fn prefix_fold(&self, prefix: usize) -> Option<u64> {
        let head: Option<Vec<u64>> = self.digests.get(..prefix)?.iter().copied().collect();
        head.map(|h| fold(&h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(digests: &[u64]) -> Ledger {
        let mut l = Ledger::default();
        for &d in digests {
            l.push(Some(d), true);
        }
        l
    }

    #[test]
    fn a_corrupted_replay_digest_fails_exactly_that_op() {
        let mut l = ledger(&[11, 22, 33, 44]);
        let mut reference = l.digests.clone();
        reference[2] = Some(33 ^ 1);
        assert_eq!(l.check_against(&reference), 1);
        assert_eq!((l.attempted(), l.failed()), (4, 1));
        // Failing it again does not count it twice.
        assert_eq!(l.check_against(&reference), 0);
        assert_eq!(l.failed(), 1);
    }

    #[test]
    fn a_corrupted_repeat_fails_the_op_that_differs() {
        let mut l = ledger(&[1, 2, 3, 1, 2, 4, 1]);
        assert_eq!(l.check_period(3), 1);
        assert_eq!(l.failed(), 1);
    }

    #[test]
    fn a_corrupted_pin_fails_the_whole_prefix() {
        let mut l = ledger(&[5, 6, 7, 8, 9]);
        let good = fold(&[5, 6, 7]);
        assert_eq!(l.check_pin(3, good), Some(true));
        assert_eq!(l.failed(), 0);
        assert_eq!(l.check_pin(3, good ^ 0x8000), Some(false));
        assert_eq!(l.failed(), 3);
        assert_eq!(l.check_pin(6, good), None, "run shorter than the prefix");
    }

    #[test]
    fn erring_and_claim_breaking_ops_count_as_failed() {
        let mut l = Ledger::default();
        l.push(Some(1), true);
        l.push(None, true);
        l.push(Some(3), false);
        assert_eq!((l.attempted(), l.failed()), (3, 2));
    }

    #[test]
    fn digest_sees_every_bit() {
        let a = Digest::default().f64(0.0).finish();
        let b = Digest::default().f64(-0.0).finish();
        assert_ne!(a, b);
        assert_ne!(
            Digest::default().str("ab").str("c").finish(),
            Digest::default().str("a").str("bc").finish()
        );
    }
}
