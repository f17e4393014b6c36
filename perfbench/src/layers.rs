//! Per-layer observations: exact work counts read from the layers' public
//! accessors, and host-time spans the benchmark records around its calls
//! into each layer.

use nanobench_core::Session;
use std::collections::BTreeMap;
use std::time::Instant;

/// A snapshot of the work counters one session's layers expose.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `core`: decoded-plan cache hits and misses (monotonic).
    pub plan_hits: u64,
    pub plan_misses: u64,
    /// `machine`: core 0's simulated cycle counter (rewound by a reset).
    pub cycles: u64,
    /// `machine`: demand translations and hierarchy walks (monotonic).
    pub translations: u64,
    pub walks: u64,
    /// `cache`: core 0's L1/L2 accesses and the shared L3's hits, misses
    /// and evictions (zeroed by a reset).
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    pub l3_hits: u64,
    pub l3_misses: u64,
    pub l3_evictions: u64,
    /// `cache`: cross-core snoop hits, invalidated remote copies and
    /// C-Box lookups (zeroed by a reset).
    pub snoop_hits: u64,
    pub invalidations: u64,
    pub uncore_lookups: u64,
}

impl Counters {
    pub fn read(session: &Session) -> Counters {
        let (plan_hits, plan_misses) = session.plan_cache_stats();
        let machine = session.machine();
        let (translations, walks) = machine.mem_path_counters();
        let h = machine.hierarchy();
        let (l1, l2, l3) = (h.l1_stats(), h.l2_stats(), h.l3_stats());
        Counters {
            plan_hits,
            plan_misses,
            cycles: machine.cycle(),
            translations,
            walks,
            l1_accesses: l1.hits + l1.misses,
            l2_accesses: l2.hits + l2.misses,
            l3_hits: l3.hits,
            l3_misses: l3.misses,
            l3_evictions: l3.evictions,
            snoop_hits: h.snoop_hits().iter().sum(),
            invalidations: h.invalidations(),
            uncore_lookups: h.uncore_total(),
        }
    }

    /// The work one op did between snapshots `before` and `after`. When
    /// the op resets its session internally, the counters a reset rewinds
    /// are read as they stand after the op: the work since its last reset.
    pub fn op_delta(before: &Counters, after: &Counters, resets_in_op: bool) -> Counters {
        let scoped = |b: u64, a: u64| if resets_in_op { a } else { a - b };
        Counters {
            plan_hits: after.plan_hits - before.plan_hits,
            plan_misses: after.plan_misses - before.plan_misses,
            cycles: scoped(before.cycles, after.cycles),
            translations: after.translations - before.translations,
            walks: after.walks - before.walks,
            l1_accesses: scoped(before.l1_accesses, after.l1_accesses),
            l2_accesses: scoped(before.l2_accesses, after.l2_accesses),
            l3_hits: scoped(before.l3_hits, after.l3_hits),
            l3_misses: scoped(before.l3_misses, after.l3_misses),
            l3_evictions: scoped(before.l3_evictions, after.l3_evictions),
            snoop_hits: scoped(before.snoop_hits, after.snoop_hits),
            invalidations: scoped(before.invalidations, after.invalidations),
            uncore_lookups: scoped(before.uncore_lookups, after.uncore_lookups),
        }
    }

    pub fn add(&mut self, o: &Counters) {
        self.plan_hits += o.plan_hits;
        self.plan_misses += o.plan_misses;
        self.cycles += o.cycles;
        self.translations += o.translations;
        self.walks += o.walks;
        self.l1_accesses += o.l1_accesses;
        self.l2_accesses += o.l2_accesses;
        self.l3_hits += o.l3_hits;
        self.l3_misses += o.l3_misses;
        self.l3_evictions += o.l3_evictions;
        self.snoop_hits += o.snoop_hits;
        self.invalidations += o.invalidations;
        self.uncore_lookups += o.uncore_lookups;
    }
}

/// Host-time spans by name, in milliseconds, one sample per occurrence,
/// each tagged with the timing window it fell in (see `fast`).
#[derive(Debug, Default)]
pub struct Spans {
    samples: BTreeMap<&'static str, Vec<(usize, f64)>>,
    /// Window that new samples are tagged with.
    window: usize,
    /// Sum of every span recorded since the last [`Spans::take_op_total`].
    op_total: f64,
}

impl Spans {
    /// Runs `f` inside span `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed().as_secs_f64() * 1e3);
        out
    }

    pub fn record(&mut self, name: &'static str, ms: f64) {
        self.samples
            .entry(name)
            .or_default()
            .push((self.window, ms));
        self.op_total += ms;
    }

    /// Tags the samples recorded from now on with `window`.
    pub fn set_window(&mut self, window: usize) {
        self.window = window;
    }

    /// Span time recorded since the previous call.
    pub fn take_op_total(&mut self) -> f64 {
        std::mem::take(&mut self.op_total)
    }

    /// Median of the samples of `name` taken in windows `keep` accepts,
    /// or 0 when there are none (the workload never entered that span).
    pub fn median_ms(&self, name: &str, keep: impl Fn(usize) -> bool) -> f64 {
        let kept: Vec<f64> = self
            .samples
            .get(name)
            .into_iter()
            .flatten()
            .filter(|(w, _)| keep(*w))
            .map(|&(_, ms)| ms)
            .collect();
        match kept.is_empty() {
            true => 0.0,
            false => crate::stats::median(&kept),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_scoped_counters_read_since_the_reset() {
        let before = Counters {
            cycles: 900,
            translations: 10,
            l3_hits: 50,
            ..Counters::default()
        };
        let after = Counters {
            cycles: 300,
            translations: 25,
            l3_hits: 7,
            ..Counters::default()
        };
        let d = Counters::op_delta(&before, &after, true);
        assert_eq!((d.cycles, d.translations, d.l3_hits), (300, 15, 7));
        let later = Counters {
            cycles: 1000,
            translations: 30,
            l3_hits: 60,
            ..Counters::default()
        };
        let d = Counters::op_delta(&before, &later, false);
        assert_eq!((d.cycles, d.translations, d.l3_hits), (100, 20, 10));
    }

    #[test]
    fn spans_report_medians_and_op_totals() {
        let mut s = Spans::default();
        s.record("a", 3.0);
        s.record("a", 5.0);
        s.set_window(1);
        s.record("a", 100.0);
        assert_eq!(s.time("b", || 7), 7);
        assert_eq!(s.median_ms("a", |w| w == 0), 4.0);
        assert_eq!(s.median_ms("a", |_| true), 5.0);
        assert_eq!(s.median_ms("never", |_| true), 0.0);
        assert!(s.take_op_total() >= 108.0);
        assert_eq!(s.take_op_total(), 0.0);
    }
}
