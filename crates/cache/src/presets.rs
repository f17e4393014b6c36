//! Cache-hierarchy presets for the ten CPUs of Table I.
//!
//! Each preset encodes the cache geometry of the part and — as the
//! simulated "ground truth" — the replacement policies the paper reports
//! for it. The cache-characterization tools (crate
//! `nanobench-cache-tools`) must re-discover these policies blindly; the
//! Table I experiment compares their output against
//! [`CpuSpec::expected_policies`].

use crate::cache::CacheConfig;
use crate::hierarchy::{HierarchyConfig, L3Config, L3PolicyConfig, Latencies, SliceLeaders};
use crate::policy::{HitFunc, InsertAge, PolicyKind, QlruVariant, RVariant, UVariant};

/// KB shorthand.
const KB: u64 = 1024;
/// MB shorthand.
const MB: u64 = 1024 * 1024;

/// Builds a deterministic-insertion QLRU variant (`QLRU_Hxy_Mz_Rr_Uu`).
///
/// The presets construct their ground-truth policies as constants instead
/// of parsing name strings, so a typo in a preset cannot panic when the
/// hierarchy is built; `preset_qlru_constants_match_their_paper_names`
/// pins each constant to the paper's name.
const fn qlru_fixed(
    from3: u8,
    from2: u8,
    insert: u8,
    replace: RVariant,
    update: UVariant,
) -> QlruVariant {
    QlruVariant {
        hit: HitFunc { from3, from2 },
        insert: InsertAge::Fixed(insert),
        replace,
        update,
        umo: false,
    }
}

/// Builds a probabilistic-insertion QLRU variant (`QLRU_Hxy_MRpz_Rr_Uu`).
const fn qlru_prob(
    from3: u8,
    from2: u8,
    p: u32,
    age: u8,
    replace: RVariant,
    update: UVariant,
) -> QlruVariant {
    QlruVariant {
        hit: HitFunc { from3, from2 },
        insert: InsertAge::Probabilistic { p, age },
        replace,
        update,
        umo: false,
    }
}

/// `QLRU_H11_M1_R1_U2` (Ivy Bridge L3 leader A).
const QLRU_H11_M1_R1_U2: QlruVariant = qlru_fixed(1, 1, 1, RVariant::R1, UVariant::U2);
/// `QLRU_H11_MR161_R1_U2` (Ivy Bridge L3 leader B).
const QLRU_H11_MR161_R1_U2: QlruVariant = qlru_prob(1, 1, 16, 1, RVariant::R1, UVariant::U2);
/// `QLRU_H11_M1_R0_U0` (Haswell+ L3 leader A / Skylake+ uniform L3).
const QLRU_H11_M1_R0_U0: QlruVariant = qlru_fixed(1, 1, 1, RVariant::R0, UVariant::U0);
/// `QLRU_H11_MR161_R0_U0` (Haswell/Broadwell L3 leader B).
const QLRU_H11_MR161_R0_U0: QlruVariant = qlru_prob(1, 1, 16, 1, RVariant::R0, UVariant::U0);
/// `QLRU_H00_M1_R2_U1` (Skylake/Kaby/Coffee Lake L2).
const QLRU_H00_M1_R2_U1: QlruVariant = qlru_fixed(0, 0, 1, RVariant::R2, UVariant::U1);
/// `QLRU_H00_M1_R0_U1` (Cannon Lake L2).
const QLRU_H00_M1_R0_U1: QlruVariant = qlru_fixed(0, 0, 1, RVariant::R0, UVariant::U1);

/// A CPU model from Table I.
#[derive(Debug, Clone)]
pub struct CpuSpec {
    /// Marketing name, e.g. `"Core i5-750"`.
    pub model: &'static str,
    /// Microarchitecture name, e.g. `"Nehalem"`.
    pub microarch: &'static str,
    /// Core generation (1 = Nehalem ... 8 = Cannon Lake row).
    pub generation: u8,
    /// L1 data cache size in bytes.
    pub l1_size: u64,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L1 policy.
    pub l1_policy: PolicyKind,
    /// L2 size in bytes.
    pub l2_size: u64,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// L2 policy.
    pub l2_policy: PolicyKind,
    /// Total L3 size in bytes.
    pub l3_size: u64,
    /// L3 associativity.
    pub l3_assoc: usize,
    /// Number of L3 slices (1 before Sandy Bridge).
    pub l3_slices: usize,
    /// L3 policy configuration (ground truth).
    pub l3_policy: L3PolicyConfig,
}

/// The leader-set ranges reported in §VI-D: sets 512–575 and 768–831.
// One contiguous range per policy really is a `Vec<Range>` of one element
// here: `SliceLeaders` supports arbitrarily many ranges.
#[allow(clippy::single_range_in_vec_init)]
fn leader_ranges() -> SliceLeaders {
    SliceLeaders {
        a: vec![512..576],
        b: vec![768..832],
    }
}

/// Leader ranges with the two policies' set ranges swapped (Broadwell's
/// second slice, §VI-D).
#[allow(clippy::single_range_in_vec_init)]
fn leader_ranges_swapped() -> SliceLeaders {
    SliceLeaders {
        a: vec![768..832],
        b: vec![512..576],
    }
}

impl CpuSpec {
    /// Builds the full hierarchy configuration for this CPU.
    pub fn hierarchy_config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1: CacheConfig {
                size_bytes: self.l1_size,
                assoc: self.l1_assoc,
                policy: self.l1_policy.clone(),
            },
            l2: CacheConfig {
                size_bytes: self.l2_size,
                assoc: self.l2_assoc,
                policy: self.l2_policy.clone(),
            },
            l3: L3Config {
                size_bytes: self.l3_size,
                assoc: self.l3_assoc,
                slices: self.l3_slices,
                policy: self.l3_policy.clone(),
            },
            latencies: Latencies::default(),
            inclusive_l3: true,
        }
    }

    /// The (L1, L2, L3) policy names as Table I reports them; adaptive L3s
    /// are reported as `"adaptive(<A>, <B>)"`.
    pub fn expected_policies(&self) -> (String, String, String) {
        let l3 = match &self.l3_policy {
            L3PolicyConfig::Uniform(kind) => kind.name(),
            L3PolicyConfig::Adaptive {
                policy_a, policy_b, ..
            } => format!("adaptive({}, {})", policy_a.name(), policy_b.name()),
        };
        (self.l1_policy.name(), self.l2_policy.name(), l3)
    }
}

/// All ten CPUs of Table I, in the paper's row order.
pub fn table1_cpus() -> Vec<CpuSpec> {
    let plru = PolicyKind::Plru;
    let mru = PolicyKind::Mru {
        fill_sets_all_ones: false,
    };
    let mru_star = PolicyKind::Mru {
        fill_sets_all_ones: true,
    };
    vec![
        CpuSpec {
            model: "Core i5-750",
            microarch: "Nehalem",
            generation: 1,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 8,
            l2_policy: plru.clone(),
            l3_size: 8 * MB,
            l3_assoc: 16,
            l3_slices: 1,
            l3_policy: L3PolicyConfig::Uniform(mru.clone()),
        },
        CpuSpec {
            model: "Core i5-650",
            microarch: "Westmere",
            generation: 1,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 8,
            l2_policy: plru.clone(),
            l3_size: 4 * MB,
            l3_assoc: 16,
            l3_slices: 1,
            l3_policy: L3PolicyConfig::Uniform(mru),
        },
        CpuSpec {
            model: "Core i7-2600",
            microarch: "Sandy Bridge",
            generation: 2,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 8,
            l2_policy: plru.clone(),
            l3_size: 8 * MB,
            l3_assoc: 16,
            l3_slices: 4,
            l3_policy: L3PolicyConfig::Uniform(mru_star),
        },
        CpuSpec {
            model: "Core i5-3470",
            microarch: "Ivy Bridge",
            generation: 3,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 8,
            l2_policy: plru.clone(),
            l3_size: 6 * MB,
            l3_assoc: 12,
            l3_slices: 4,
            // §VI-D: leader sets 512-575 / 768-831 in ALL slices.
            l3_policy: L3PolicyConfig::Adaptive {
                policy_a: PolicyKind::Qlru(QLRU_H11_M1_R1_U2),
                policy_b: PolicyKind::Qlru(QLRU_H11_MR161_R1_U2),
                leaders: vec![leader_ranges(); 4],
            },
        },
        CpuSpec {
            model: "Xeon E3-1225 v3",
            microarch: "Haswell",
            generation: 4,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 8,
            l2_policy: plru.clone(),
            l3_size: 8 * MB,
            l3_assoc: 16,
            l3_slices: 4,
            // §VI-D: leader sets only in slice 0.
            l3_policy: L3PolicyConfig::Adaptive {
                policy_a: PolicyKind::Qlru(QLRU_H11_M1_R0_U0),
                policy_b: PolicyKind::Qlru(QLRU_H11_MR161_R0_U0),
                leaders: vec![
                    leader_ranges(),
                    SliceLeaders::default(),
                    SliceLeaders::default(),
                    SliceLeaders::default(),
                ],
            },
        },
        CpuSpec {
            model: "Core i5-5200U",
            microarch: "Broadwell",
            generation: 5,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 8,
            l2_policy: plru.clone(),
            l3_size: 3 * MB,
            l3_assoc: 12,
            l3_slices: 2,
            // §VI-D: policy A in sets 512-575 of slice 0 and 768-831 of
            // slice 1; policy B in the other two ranges.
            l3_policy: L3PolicyConfig::Adaptive {
                policy_a: PolicyKind::Qlru(QLRU_H11_M1_R0_U0),
                policy_b: PolicyKind::Qlru(QLRU_H11_MR161_R0_U0),
                leaders: vec![leader_ranges(), leader_ranges_swapped()],
            },
        },
        CpuSpec {
            model: "Core i7-6500U",
            microarch: "Skylake",
            generation: 6,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 4,
            l2_policy: PolicyKind::Qlru(QLRU_H00_M1_R2_U1),
            l3_size: 4 * MB,
            l3_assoc: 16,
            l3_slices: 2,
            l3_policy: L3PolicyConfig::Uniform(PolicyKind::Qlru(QLRU_H11_M1_R0_U0)),
        },
        CpuSpec {
            model: "Core i7-7700",
            microarch: "Kaby Lake",
            generation: 7,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 4,
            l2_policy: PolicyKind::Qlru(QLRU_H00_M1_R2_U1),
            l3_size: 8 * MB,
            l3_assoc: 16,
            l3_slices: 4,
            l3_policy: L3PolicyConfig::Uniform(PolicyKind::Qlru(QLRU_H11_M1_R0_U0)),
        },
        CpuSpec {
            model: "Core i7-8700K",
            microarch: "Coffee Lake",
            generation: 8,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru.clone(),
            l2_size: 256 * KB,
            l2_assoc: 4,
            l2_policy: PolicyKind::Qlru(QLRU_H00_M1_R2_U1),
            l3_size: 8 * MB,
            l3_assoc: 16,
            // The i7-8700K has six C-Boxes. The slice hash can model six
            // (3-bit hash reduced mod 6), but the per-slice *set* count
            // must stay a power of two for the cache geometry, and
            // 8 MB / 6 slices is not — so we keep four slices here (see
            // DESIGN.md §5).
            l3_slices: 4,
            l3_policy: L3PolicyConfig::Uniform(PolicyKind::Qlru(QLRU_H11_M1_R0_U0)),
        },
        CpuSpec {
            model: "Core i3-8121U",
            microarch: "Cannon Lake",
            generation: 8,
            l1_size: 32 * KB,
            l1_assoc: 8,
            l1_policy: plru,
            l2_size: 256 * KB,
            l2_assoc: 4,
            l2_policy: PolicyKind::Qlru(QLRU_H00_M1_R0_U1),
            l3_size: 4 * MB,
            l3_assoc: 16,
            l3_slices: 2,
            l3_policy: L3PolicyConfig::Uniform(PolicyKind::Qlru(QLRU_H11_M1_R0_U0)),
        },
    ]
}

/// Looks up a Table I CPU by microarchitecture name (case-insensitive).
pub fn cpu_by_microarch(name: &str) -> Option<CpuSpec> {
    table1_cpus()
        .into_iter()
        .find(|c| c.microarch.eq_ignore_ascii_case(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_qlru_constants_match_their_paper_names() {
        for (variant, name) in [
            (QLRU_H11_M1_R1_U2, "QLRU_H11_M1_R1_U2"),
            (QLRU_H11_MR161_R1_U2, "QLRU_H11_MR161_R1_U2"),
            (QLRU_H11_M1_R0_U0, "QLRU_H11_M1_R0_U0"),
            (QLRU_H11_MR161_R0_U0, "QLRU_H11_MR161_R0_U0"),
            (QLRU_H00_M1_R2_U1, "QLRU_H00_M1_R2_U1"),
            (QLRU_H00_M1_R0_U1, "QLRU_H00_M1_R0_U1"),
        ] {
            assert_eq!(variant.name(), name);
            assert_eq!(QlruVariant::parse(name).unwrap(), variant);
        }
    }

    #[test]
    fn ten_rows_like_table1() {
        let cpus = table1_cpus();
        assert_eq!(cpus.len(), 10);
        assert_eq!(cpus[0].microarch, "Nehalem");
        assert_eq!(cpus[9].microarch, "Cannon Lake");
    }

    #[test]
    fn geometries_are_consistent() {
        for cpu in table1_cpus() {
            let cfg = cpu.hierarchy_config();
            assert_eq!(cfg.l1.num_sets(), 64, "{}: L1 must have 64 sets", cpu.model);
            let sets = cfg.l3.sets_per_slice();
            assert!(
                sets.is_power_of_two(),
                "{}: L3 sets/slice = {sets}",
                cpu.model
            );
            // Leader-set ranges must exist in the slice.
            if let L3PolicyConfig::Adaptive { leaders, .. } = &cfg.l3.policy {
                for l in leaders {
                    for r in l.a.iter().chain(l.b.iter()) {
                        assert!(r.end <= sets, "{}: leader range outside slice", cpu.model);
                    }
                }
            }
        }
    }

    #[test]
    fn all_l1_policies_are_plru() {
        for cpu in table1_cpus() {
            assert_eq!(cpu.expected_policies().0, "PLRU", "{}", cpu.model);
        }
    }

    #[test]
    fn skylake_l2_is_the_table1_variant() {
        let sky = cpu_by_microarch("skylake").unwrap();
        assert_eq!(sky.expected_policies().1, "QLRU_H00_M1_R2_U1");
        assert_eq!(sky.l2_assoc, 4);
        let cnl = cpu_by_microarch("Cannon Lake").unwrap();
        assert_eq!(cnl.expected_policies().1, "QLRU_H00_M1_R0_U1");
    }

    #[test]
    fn leader_sets_step_psel_as_section_vi_d_reports() {
        // The PSEL step of one cold access to sets 512, 768 and 600 of
        // each slice, prefetchers off.
        let none = [0, 0, 0];
        let (a_then_b, b_then_a) = ([1, -1, 0], [-1, 1, 0]);
        for (arch, steps) in [
            ("Ivy Bridge", vec![a_then_b; 4]),
            ("Haswell", vec![a_then_b, none, none, none]),
            ("Broadwell", vec![a_then_b, b_then_a]),
            ("Skylake", vec![none; 2]),
        ] {
            let cpu = cpu_by_microarch(arch).unwrap();
            assert_eq!(steps.len(), cpu.l3_slices, "{arch}");
            let config = cpu.hierarchy_config();
            let sets = config.l3.sets_per_slice() as u64;
            let mut h = crate::hierarchy::CacheHierarchy::new(&config, 7);
            h.prefetchers_mut().disable_all();
            for (slice, steps) in steps.into_iter().enumerate() {
                for (set, step) in [512u64, 768, 600].into_iter().zip(steps) {
                    let paddr = (0..)
                        .map(|k| (set + k * sets) * 64)
                        .find(|&p| h.l3_location(p) == (slice, set as usize))
                        .unwrap();
                    let before = h.psel().value();
                    h.access(paddr);
                    assert_eq!(
                        h.psel().value() - before,
                        step,
                        "{arch}: slice {slice}, set {set}"
                    );
                }
            }
        }
    }

    #[test]
    fn hierarchies_instantiate() {
        for cpu in table1_cpus() {
            let _ = crate::hierarchy::CacheHierarchy::new(&cpu.hierarchy_config(), 7);
        }
    }
}
