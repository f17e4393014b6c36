//! Fast-window selection.
//!
//! A shared host's speed swings by up to 2x as neighbours come and go,
//! sometimes for tens of seconds, which no fixed run length averages away.
//! So the closed loop is cut into windows, each a run of consecutive ops
//! that mixes the workload's inputs the way a whole run does, and timings
//! are reported over the windows the host ran at its fast speed: those
//! whose cost per op is within [`TOLERANCE`] of the run's
//! tenth-percentile window. A [`Probe`] after each window tells whether
//! the host ran at full speed then, so that a run that has not yet seen
//! enough of it can go on for a while, and so that the fast windows are
//! picked among full-speed ones when there are enough ([`select`]). Set-up
//! samples are filtered the same way. How many windows were fast, and the
//! scale of [`full_speed_scale`], are printed beside the results.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// How much costlier than the tenth-percentile window a window may be
/// and still count as fast.
pub const TOLERANCE: f64 = 0.1;

/// A probe sample at or under this many ms means the host ran at full
/// speed. Timed right after windows of simulator ops, it took 0.87-0.95 ms
/// at full speed and up to 1.4 ms with a busy neighbour on the 2-vCPU
/// x86-64 host the bounds in `BENCHMARK.json` were set on, alike after
/// `invocation` and after `age_graph` windows; on a faster host every
/// window passes, so nothing is stretched.
pub const PROBE_FULL_SPEED_MS: f64 = 0.97;

/// How the simulator's slowdown grows with the probe's: when the probe ran
/// `r` times slower than full speed, ops ran about `r^1.5` times slower.
/// Fitted on the host the bounds were set on, over 518 windows of
/// `invocation` and `age_graph` ops, each followed by a probe: the fit
/// that made their fast, middling and slow probe bins agree (within 10%).
pub const SLOWDOWN_EXPONENT: f64 = 1.5;

/// A fixed unit of host work — sorting random words and counting them in
/// a hash map, both branchy and cache-hungry like the simulator, yet none
/// of its code — timed to tell whether the host runs at full speed.
pub struct Probe {
    words: Vec<u64>,
    counts: HashMap<u64, u64>,
    x: u64,
}

impl Probe {
    const WORDS: usize = 20_000;

    pub fn new() -> Probe {
        Probe {
            words: Vec::with_capacity(Probe::WORDS),
            counts: HashMap::new(),
            x: 0x2545_f491_4f6c_dd1d,
        }
    }

    fn next(&mut self) -> u64 {
        self.x ^= self.x << 13;
        self.x ^= self.x >> 7;
        self.x ^= self.x << 17;
        self.x
    }

    /// Host ms of one unit.
    pub fn sample_ms(&mut self) -> f64 {
        let start = Instant::now();
        self.unit();
        start.elapsed().as_secs_f64() * 1e3
    }

    fn unit(&mut self) {
        self.words.clear();
        for _ in 0..Probe::WORDS {
            let w = self.next();
            self.words.push(w);
        }
        self.words.sort_unstable();
        self.counts.clear();
        for _ in 0..Probe::WORDS {
            let key = self.next() & 0x3fff;
            *self.counts.entry(key).or_default() += 1;
        }
        black_box((&self.words, self.counts.len()));
    }
}

/// One window: how many items (ops or set-ups) it holds, how long they
/// took in all, in seconds, and the slower of the probes on its two sides,
/// in ms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub items: usize,
    pub seconds: f64,
    pub probe_ms: f64,
}

impl Window {
    fn cost(&self) -> f64 {
        self.seconds / self.items as f64
    }

    fn full_speed(&self) -> bool {
        self.probe_ms <= PROBE_FULL_SPEED_MS
    }
}

/// Seconds of `windows` the host ran at full speed.
pub fn full_speed_seconds(windows: &[Window]) -> f64 {
    windows
        .iter()
        .filter(|w| w.full_speed())
        .map(|w| w.seconds)
        .sum()
}

/// Picks the windows to time, and the factor that takes their timings to
/// full host speed. When the windows the probe found at full speed hold
/// at least `min_items` items, the fast ones among them, as measured;
/// else the fast ones among all, scaled by [`full_speed_scale`].
pub fn select(windows: &[Window], min_items: usize) -> (Vec<bool>, f64) {
    let full: Vec<usize> = (0..windows.len())
        .filter(|&w| windows[w].full_speed())
        .collect();
    if full.iter().map(|&w| windows[w].items).sum::<usize>() >= min_items {
        let subset: Vec<Window> = full.iter().map(|&w| windows[w]).collect();
        let mut fast = vec![false; windows.len()];
        for (&w, f) in full.iter().zip(fast_windows(&subset, min_items)) {
            fast[w] = f;
        }
        return (fast, 1.0);
    }
    let fast = fast_windows(windows, min_items);
    let scale = full_speed_scale(windows, &fast);
    (fast, scale)
}

/// Factor taking timings from the `fast` windows to full host speed: 1
/// when their median probe ran at full speed, else the probe's slowdown
/// raised to [`SLOWDOWN_EXPONENT`], inverted.
fn full_speed_scale(windows: &[Window], fast: &[bool]) -> f64 {
    let probes: Vec<f64> = windows
        .iter()
        .zip(fast)
        .filter(|(_, &f)| f)
        .map(|(w, _)| w.probe_ms)
        .collect();
    if probes.is_empty() {
        return 1.0;
    }
    let slowdown = crate::stats::median(&probes) / PROBE_FULL_SPEED_MS;
    slowdown.max(1.0).powf(-SLOWDOWN_EXPONENT)
}

/// Which windows are fast: those within [`TOLERANCE`] of the
/// tenth-percentile cost per item, widened in order of cost until they
/// hold at least `min_items` items (or all do).
pub fn fast_windows(windows: &[Window], min_items: usize) -> Vec<bool> {
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[a].cost().total_cmp(&windows[b].cost()));
    let costs: Vec<f64> = order.iter().map(|&w| windows[w].cost()).collect();
    let mut fast = vec![false; windows.len()];
    if costs.is_empty() {
        return fast;
    }
    let limit = crate::stats::percentile(&costs, 10) * (1.0 + TOLERANCE);
    let mut items = 0;
    for (&w, &cost) in order.iter().zip(&costs) {
        if cost > limit && items >= min_items {
            break;
        }
        fast[w] = true;
        items += windows[w].items;
    }
    fast
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(items: usize, seconds: f64) -> Window {
        Window {
            items,
            seconds,
            probe_ms: if items > 5 { 0.9 } else { 1.2 },
        }
    }

    #[test]
    fn slow_windows_are_left_out() {
        // Ten fast windows at 1 ms per op, ten at 2 ms, one at 1.05 ms.
        let mut ws = vec![w(10, 0.010); 10];
        ws.extend(vec![w(10, 0.020); 10]);
        ws.push(w(20, 0.021));
        let fast = fast_windows(&ws, 0);
        assert_eq!(fast.iter().filter(|&&f| f).count(), 11);
        assert!(fast[20] && !fast[10]);
    }

    #[test]
    fn too_few_fast_items_widen_the_selection_by_cost() {
        let ws = [w(5, 0.005), w(5, 0.009), w(5, 0.007), w(5, 0.020)];
        // Only the 1 ms/op window is within tolerance; 12 ops need the
        // 1.4 and 1.8 ms/op windows too, but not the 4 ms/op one.
        assert_eq!(fast_windows(&ws, 12), vec![true, true, true, false]);
        assert_eq!(fast_windows(&ws, 100), vec![true; 4]);
        assert!(fast_windows(&[], 10).is_empty());
        assert_eq!(full_speed_seconds(&[w(5, 1.0), w(6, 2.0), w(7, 3.0)]), 5.0);
    }

    #[test]
    fn full_speed_windows_are_preferred() {
        // Windows of 6 items ran at full speed, windows of 5 did not.
        let ws = [w(6, 0.006), w(5, 0.001), w(6, 0.012), w(6, 0.0061)];
        assert_eq!(select(&ws, 12), (vec![true, false, false, true], 1.0));
        // Too few full-speed items: windows by cost among all, scaled by
        // the mostly slow probes around them.
        let ws = [w(5, 0.005), w(5, 0.006), w(6, 0.009)];
        let (fast, scale) = select(&ws, 12);
        assert_eq!(fast, vec![true; 3]);
        assert!(scale < 1.0);
    }

    #[test]
    fn only_a_slow_host_scales_timings() {
        let ws = [w(6, 1.0), w(5, 1.0), w(5, 1.0)];
        assert_eq!(full_speed_scale(&ws, &[true, false, false]), 1.0);
        let slow = (1.2f64 / PROBE_FULL_SPEED_MS).powf(-SLOWDOWN_EXPONENT);
        assert_eq!(full_speed_scale(&ws, &[false, true, true]), slow);
        assert_eq!(full_speed_scale(&ws, &[false; 3]), 1.0);
    }

    #[test]
    fn the_probe_takes_time() {
        let mut p = Probe::new();
        assert!(p.sample_ms() > 0.0);
    }
}
