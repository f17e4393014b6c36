//! The parameterized QLRU (Quad-age LRU / 2-bit RRIP) policy family with
//! the paper's naming scheme (§VI-B2).
//!
//! A variant is described by a name of the form
//! `QLRU_Hxy_M{x|Rpx}_R{0,1,2}_U{0,1,2,3}[_UMO]`:
//!
//! * **Hxy** — hit promotion: age 3 → `x`, age 2 → `y`, otherwise → 0.
//! * **Mx / MRpx** — insertion age on a miss (`MRpx`: age `x` with
//!   probability 1/p, age 3 otherwise).
//! * **R0/R1/R2** — where a block is inserted / which block is replaced.
//! * **U0..U3** — how ages are updated when no block has age 3 anymore.
//! * **UMO** — the no-age-3 check happens only on a miss, before victim
//!   selection ("update on miss only").

use super::{first_empty, holds, last_empty, SetPolicy};
use rand::rngs::SmallRng;
use rand::Rng;
use std::fmt;

/// Hit promotion function `Hxy` (§VI-B2): maps the current age of a block
/// that was hit to its new age.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HitFunc {
    /// New age for a block whose age was 3 (x ∈ {0, 1, 2}).
    pub from3: u8,
    /// New age for a block whose age was 2 (y ∈ {0, 1}).
    pub from2: u8,
}

impl HitFunc {
    /// Applies the promotion function.
    pub fn apply(self, age: u8) -> u8 {
        match age {
            3 => self.from3,
            2 => self.from2,
            _ => 0,
        }
    }
}

/// Insertion age on a miss: deterministic `Mx`, or probabilistic `MRpx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertAge {
    /// Always insert with the given age.
    Fixed(u8),
    /// Insert with age `age` with probability `1/p`, and age 3 otherwise
    /// (the paper writes this `MRpx`, e.g. `MR161` for p = 16, x = 1).
    Probabilistic {
        /// Denominator p of the 1/p probability.
        p: u32,
        /// Age used with probability 1/p.
        age: u8,
    },
}

/// Replacement / insert-location variant (§VI-B2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RVariant {
    /// Fill leftmost empty; replace leftmost age-3 block; undefined if none
    /// (this combination never arises in the meaningful variants).
    R0,
    /// Like R0, but when no age-3 block exists, replace the leftmost block.
    R1,
    /// Like R0, but fill the *rightmost* empty location while not full.
    R2,
}

/// Age-update variant applied when no block has age 3 (§VI-B2). `i` is the
/// accessed location and `M` the maximum current age.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UVariant {
    /// `age'(b) = age(b) + (3 - M)` for all blocks.
    U0,
    /// Like U0 but the accessed block keeps its age.
    U1,
    /// `age'(b) = age(b) + 1` for all blocks.
    U2,
    /// Like U2 but the accessed block keeps its age.
    U3,
}

/// A fully specified QLRU variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QlruVariant {
    /// Hit promotion policy.
    pub hit: HitFunc,
    /// Insertion age.
    pub insert: InsertAge,
    /// Insert-location / replacement variant.
    pub replace: RVariant,
    /// Age-update variant.
    pub update: UVariant,
    /// Whether ages are only updated on a miss ("update on miss only").
    pub umo: bool,
}

impl QlruVariant {
    /// The paper's name for this variant, e.g. `QLRU_H11_M1_R0_U0` or
    /// `QLRU_H00_MR162_R0_U0_UMO`.
    pub fn name(&self) -> String {
        let h = format!("H{}{}", self.hit.from3, self.hit.from2);
        let m = match self.insert {
            InsertAge::Fixed(age) => format!("M{age}"),
            InsertAge::Probabilistic { p, age } => format!("MR{p}{age}"),
        };
        let r = match self.replace {
            RVariant::R0 => "R0",
            RVariant::R1 => "R1",
            RVariant::R2 => "R2",
        };
        let u = match self.update {
            UVariant::U0 => "U0",
            UVariant::U1 => "U1",
            UVariant::U2 => "U2",
            UVariant::U3 => "U3",
        };
        let umo = if self.umo { "_UMO" } else { "" };
        format!("QLRU_{h}_{m}_{r}_{u}{umo}")
    }

    /// Parses a name produced by [`QlruVariant::name`].
    ///
    /// # Errors
    ///
    /// Returns an error string for malformed names.
    pub fn parse(name: &str) -> Result<QlruVariant, String> {
        let rest = name
            .strip_prefix("QLRU_")
            .ok_or_else(|| format!("`{name}` does not start with QLRU_"))?;
        let (rest, umo) = match rest.strip_suffix("_UMO") {
            Some(r) => (r, true),
            None => (rest, false),
        };
        let parts: Vec<&str> = rest.split('_').collect();
        if parts.len() != 4 {
            return Err(format!("`{name}` does not have 4 components"));
        }
        let h = parts[0]
            .strip_prefix('H')
            .filter(|s| s.len() == 2)
            .ok_or_else(|| format!("bad H component in `{name}`"))?;
        let from3 = h[0..1].parse::<u8>().map_err(|e| e.to_string())?;
        let from2 = h[1..2].parse::<u8>().map_err(|e| e.to_string())?;
        let m = parts[1]
            .strip_prefix('M')
            .ok_or_else(|| format!("bad M component in `{name}`"))?;
        let insert = if let Some(rp) = m.strip_prefix('R') {
            // MRpx: all but the last digit are p, the last digit is the age.
            if rp.len() < 2 {
                return Err(format!("bad MR component in `{name}`"));
            }
            let (p_str, age_str) = rp.split_at(rp.len() - 1);
            InsertAge::Probabilistic {
                p: p_str
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?,
                age: age_str
                    .parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?,
            }
        } else {
            InsertAge::Fixed(
                m.parse()
                    .map_err(|e: std::num::ParseIntError| e.to_string())?,
            )
        };
        let replace = match parts[2] {
            "R0" => RVariant::R0,
            "R1" => RVariant::R1,
            "R2" => RVariant::R2,
            other => return Err(format!("bad R component `{other}`")),
        };
        let update = match parts[3] {
            "U0" => UVariant::U0,
            "U1" => UVariant::U1,
            "U2" => UVariant::U2,
            "U3" => UVariant::U3,
            other => return Err(format!("bad U component `{other}`")),
        };
        Ok(QlruVariant {
            hit: HitFunc { from3, from2 },
            insert,
            replace,
            update,
            umo,
        })
    }

    /// Whether the insertion age is probabilistic (`MRpx`).
    pub fn is_probabilistic(&self) -> bool {
        matches!(self.insert, InsertAge::Probabilistic { .. })
    }
}

impl fmt::Display for QlruVariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// Enumerates all *meaningful deterministic* QLRU variants (§VI-B2).
///
/// Excluded combinations:
/// * `R0` with `U2`/`U3` — R0 requires an age-3 block to always exist, which
///   those update rules do not guarantee (explicitly noted in the paper);
/// * insertion age `M3` with hit promotion leaving age 3 unreachable is kept
///   (the inference tool handles observational equivalence separately).
///
/// The probabilistic `MRpx` variants are not enumerated: they cannot be
/// identified by exact hit-count matching and are detected via age graphs
/// (§VI-C2), as in the paper.
pub fn all_meaningful_qlru_variants() -> Vec<QlruVariant> {
    let mut out = Vec::new();
    for from3 in 0..=2u8 {
        for from2 in 0..=1u8 {
            for insert_age in 0..=3u8 {
                for replace in [RVariant::R0, RVariant::R1, RVariant::R2] {
                    for update in [UVariant::U0, UVariant::U1, UVariant::U2, UVariant::U3] {
                        if replace == RVariant::R0 && matches!(update, UVariant::U2 | UVariant::U3)
                        {
                            continue;
                        }
                        for umo in [false, true] {
                            out.push(QlruVariant {
                                hit: HitFunc { from3, from2 },
                                insert: InsertAge::Fixed(insert_age),
                                replace,
                                update,
                                umo,
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

/// Per-set QLRU state.
#[derive(Debug, Clone)]
pub struct QlruPolicy {
    variant: QlruVariant,
    ages: Vec<u8>,
    rng: SmallRng,
}

impl QlruPolicy {
    /// Creates QLRU state for a set with `assoc` ways.
    pub fn new(assoc: usize, variant: QlruVariant, rng: SmallRng) -> QlruPolicy {
        QlruPolicy {
            variant,
            ages: vec![3; assoc],
            rng,
        }
    }

    /// The current per-way ages (for tests and debugging).
    pub fn ages(&self) -> &[u8] {
        &self.ages
    }

    fn draw_insert_age(&mut self) -> u8 {
        match self.variant.insert {
            InsertAge::Fixed(age) => age,
            InsertAge::Probabilistic { p, age } => {
                if self.rng.gen_range(0..p) == 0 {
                    age
                } else {
                    3
                }
            }
        }
    }

    /// Applies the U-update if no occupied block has age 3, i.e. if the
    /// largest age `M` among the occupied blocks is below 3. `accessed` is
    /// the location `i` from the paper's definition.
    fn maybe_update(&mut self, accessed: usize, occupied: u64) {
        let max_age = self
            .ages
            .iter()
            .enumerate()
            .filter(|&(w, _)| holds(occupied, w))
            .map(|(_, &a)| a)
            .max()
            .unwrap_or(0);
        if max_age == 3 {
            return;
        }
        let delta3 = 3 - max_age;
        for (w, age) in self.ages.iter_mut().enumerate() {
            if !holds(occupied, w) {
                continue;
            }
            let skip_accessed = matches!(self.variant.update, UVariant::U1 | UVariant::U3);
            if skip_accessed && w == accessed {
                continue;
            }
            let delta = match self.variant.update {
                UVariant::U0 | UVariant::U1 => delta3,
                UVariant::U2 | UVariant::U3 => 1,
            };
            *age = (*age + delta).min(3);
        }
    }

    /// The victim in a full set: the leftmost block of age 3.
    fn pick_victim(&self) -> usize {
        // With no age-3 block, R1 replaces the leftmost; R0/R2 are
        // undefined here (the paper excludes such combinations) — fall back
        // to leftmost so behaviour stays total and deterministic.
        self.ages.iter().position(|&a| a == 3).unwrap_or(0)
    }
}

impl SetPolicy for QlruPolicy {
    fn on_hit(&mut self, way: usize, occupied: u64) {
        self.ages[way] = self.variant.hit.apply(self.ages[way]);
        if !self.variant.umo {
            self.maybe_update(way, occupied);
        }
    }

    fn on_miss(&mut self, occupied: u64) -> usize {
        // UMO: the no-age-3 check happens on the miss, before victim
        // selection. The "accessed" block for U1/U3 does not exist yet; the
        // update applies to all blocks (use an out-of-range index).
        if self.variant.umo {
            self.maybe_update(usize::MAX, occupied);
        }
        let empty = match self.variant.replace {
            RVariant::R0 | RVariant::R1 => first_empty(occupied),
            RVariant::R2 => last_empty(occupied),
        };
        let way = empty.unwrap_or_else(|| self.pick_victim());
        self.ages[way] = self.draw_insert_age();
        if !self.variant.umo {
            // After the fill, the inserted block is the accessed one.
            self.maybe_update(way, occupied | 1 << way);
        }
        way
    }

    fn on_invalidate(&mut self, way: usize) {
        self.ages[way] = 3;
    }

    fn on_flush(&mut self) {
        self.ages.fill(3);
    }

    fn reset(&mut self, seed: u64) {
        use rand::SeedableRng;
        self.ages.fill(3);
        self.rng = SmallRng::seed_from_u64(seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{occupancy, simulate_sequence, PolicyKind, SetSim};

    fn v(name: &str) -> QlruVariant {
        QlruVariant::parse(name).unwrap()
    }

    #[test]
    fn names_round_trip() {
        for variant in all_meaningful_qlru_variants() {
            assert_eq!(QlruVariant::parse(&variant.name()).unwrap(), variant);
        }
        // The probabilistic Ivy Bridge policy from §VI-D.
        let ivy = v("QLRU_H11_MR161_R1_U2");
        assert_eq!(ivy.insert, InsertAge::Probabilistic { p: 16, age: 1 });
        assert_eq!(ivy.name(), "QLRU_H11_MR161_R1_U2");
    }

    #[test]
    fn paper_rrip_names() {
        // §VI-B2: SRRIP-HP = QLRU_H00_M2_R0_U0_UMO; BRRIP = QLRU_H00_MRp2_R0_U0_UMO.
        let srrip = v("QLRU_H00_M2_R0_U0_UMO");
        assert!(srrip.umo);
        assert_eq!(srrip.insert, InsertAge::Fixed(2));
        assert_eq!(srrip.hit.apply(3), 0);
        assert_eq!(srrip.hit.apply(2), 0);
    }

    #[test]
    fn meaningful_variant_count() {
        // 6 hit funcs × 4 insertion ages × (R0 with U0/U1 + R1/R2 with 4 Us)
        // × 2 UMO = 6 * 4 * (2 + 8) * 2 = 480.
        assert_eq!(all_meaningful_qlru_variants().len(), 480);
    }

    #[test]
    fn insertion_location_r2_vs_r1() {
        // While filling an empty 4-way set, R1 fills left to right, R2
        // right to left.
        let kind_r1 = PolicyKind::Qlru(v("QLRU_H00_M1_R1_U1"));
        let kind_r2 = PolicyKind::Qlru(v("QLRU_H00_M1_R2_U1"));
        let mut r1 = SetSim::new(&kind_r1, 4, 0);
        let mut r2 = SetSim::new(&kind_r2, 4, 0);
        for b in 10..13u64 {
            r1.access(b);
            r2.access(b);
        }
        assert_eq!(r1.contents()[0], Some(10));
        assert_eq!(r2.contents()[3], Some(10));
        assert_eq!(r2.contents()[1], Some(12));
    }

    #[test]
    fn skylake_l3_age_dynamics() {
        // Hand-traced dynamics of QLRU_H11_M1_R0_U0 (the Skylake/Kaby/
        // Coffee/Cannon Lake L3 policy per Table I) on a 4-way set:
        // the first fill is inserted with age 1, and because no block has
        // age 3 afterwards, U0 renormalizes it to 3. Subsequent fills stay
        // at age 1 while an age-3 block exists.
        let variant = v("QLRU_H11_M1_R0_U0");
        let mut p = QlruPolicy::new(4, variant, rand::SeedableRng::seed_from_u64(0));
        let mut occupied = occupancy([false; 4]);
        let w0 = p.on_miss(occupied);
        occupied |= 1 << w0;
        assert_eq!(w0, 0, "R0 fills leftmost empty");
        assert_eq!(p.ages()[0], 3, "U0 renormalizes the lone block to age 3");
        let w1 = p.on_miss(occupied);
        occupied |= 1 << w1;
        assert_eq!(w1, 1);
        assert_eq!(
            p.ages()[1],
            1,
            "insertion age 1 persists while an age-3 block exists"
        );
        // A hit on way 0 takes it from 3 to 1 (H11); then no age-3 block
        // remains among {3->1, 1}, so U0 adds 2 to every occupied block.
        p.on_hit(0, occupied);
        assert_eq!(&p.ages()[..2], &[3, 3]);
    }

    #[test]
    fn distinct_variants_are_distinguishable() {
        // The Skylake L2 and Cannon Lake L2 policies (Table I) differ only
        // in the R component; verify they are observationally different.
        let a = PolicyKind::Qlru(v("QLRU_H00_M1_R2_U1"));
        let b = PolicyKind::Qlru(v("QLRU_H00_M1_R0_U1"));
        let mut state = 3u64;
        let mut seq: Vec<u64> = Vec::new();
        let found = (0..600).any(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push((state >> 33) % 7);
            simulate_sequence(&a, 4, 0, &seq) != simulate_sequence(&b, 4, 0, &seq)
        });
        assert!(found, "R0 and R2 variants must differ");
    }

    #[test]
    fn umo_differs_from_non_umo() {
        let a = PolicyKind::Qlru(v("QLRU_H00_M2_R0_U0"));
        let b = PolicyKind::Qlru(v("QLRU_H00_M2_R0_U0_UMO"));
        // Find some sequence over 5 blocks on a 4-way set that separates them.
        let mut found = false;
        let mut seq = Vec::new();
        let mut state = 12345u64;
        for len in 0..400 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seq.push(state >> 33 & 7);
            if len > 8 {
                let ha = simulate_sequence(&a, 4, 0, &seq);
                let hb = simulate_sequence(&b, 4, 0, &seq);
                if ha != hb {
                    found = true;
                    break;
                }
            }
        }
        assert!(found, "UMO variant should be observationally different");
    }

    #[test]
    fn probabilistic_insertion_rates() {
        // MR161: roughly 1/16 of inserted blocks get age 1.
        let variant = v("QLRU_H11_MR161_R1_U2");
        let mut policy = QlruPolicy::new(16, variant, rand::SeedableRng::seed_from_u64(7));
        let mut age1 = 0usize;
        let n = 4096;
        for _ in 0..n {
            let way = policy.on_miss(u64::MAX);
            // Read the age right after insertion (U2 may bump it, but the
            // inserted value is what draw produced; check both 1 and 2).
            if policy.ages()[way] <= 2 {
                age1 += 1;
            }
        }
        let rate = age1 as f64 / n as f64;
        assert!(
            (0.03..0.10).contains(&rate),
            "expected ~1/16 low-age insertions, got {rate}"
        );
    }

    #[test]
    fn r0_fallback_is_total() {
        // Construct a state with no age-3 block under R0 and verify the
        // policy still returns a valid way instead of panicking.
        let variant = v("QLRU_H00_M0_R0_U1");
        let mut policy = QlruPolicy::new(4, variant, rand::SeedableRng::seed_from_u64(0));
        for _ in 0..20 {
            let way = policy.on_miss(u64::MAX);
            assert!(way < 4);
        }
    }
}
