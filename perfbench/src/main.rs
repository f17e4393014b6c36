//! perfbench: one command over nanoBench's two case studies, its §III-K
//! invocation path and multi-core interference.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <inst_table|age_graph|invocation|interference|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload;
//! with `--trace 1`, the per-layer ones. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only when every op passed the output check.

mod check;
mod fast;
mod layers;
mod stats;
mod workloads;

use check::Ledger;
use fast::{full_speed_seconds, select, Probe, Window};
use layers::{Counters, Spans};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};
use workloads::age_graph::AgeGraph;
use workloads::inst_table::InstTable;
use workloads::interference::Interference;
use workloads::invocation::Invocation;
use workloads::{Workload, NAMES};

/// Set-ups are timed back to back before the closed loop, so that every
/// run starts them from the same fresh process, in windows of
/// `SETUP_WINDOW`: for `SETUP_PHASE`, then on until the host has run
/// `SETUP_FULL_SPEED_S` at full speed, or until `SETUP_CAP`. `setup_s` is
/// the median of those in fast windows (see [`fast`]), at least
/// `MIN_SETUPS` of them.
const SETUP_PHASE: Duration = Duration::from_secs(1);
const SETUP_CAP: Duration = Duration::from_secs(3);
const SETUP_FULL_SPEED_S: f64 = 0.3;
const SETUP_WINDOW: Duration = Duration::from_millis(50);
const MIN_SETUPS: usize = 5;

/// The closed loop runs `--seconds`, then on until the host has run
/// `FULL_SPEED_SHARE` of that at full speed, or until `MAX_STRETCH` times
/// `--seconds`.
const FULL_SPEED_SHARE: f64 = 0.3;
const MAX_STRETCH: f64 = 2.2;

/// Fewest ops the fast windows must hold, so that p90 keeps at least 10
/// samples beyond it; a traced run splits them in two.
const MIN_FAST_OPS: usize = 120;

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload != "all" && !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            NAMES.join(", ")
        ));
    }
    Ok(args)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // JSON has no NaN or infinity; a ratio without a base reads 0.
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// What the closed loop measured.
struct Timed {
    ledger: Ledger,
    /// Per op: host latency in ms, and for a traced op the sum of the
    /// spans inside it in ms.
    ops: Vec<(f64, Option<f64>)>,
    /// The loop's windows, each of `Workload::WINDOW_OPS` consecutive ops.
    windows: Vec<Window>,
    problems: Vec<String>,
}

/// Whether op `i` of a traced run is a traced one: half of them, picked
/// by a hash of `i` so the choice never falls in step with a workload's
/// own cycle of inputs.
fn is_traced(i: usize) -> bool {
    let mut x = (i as u64).wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (x ^ (x >> 31)) & 1 == 1
}

/// Runs ops back to back for `seconds` (stretched as [`MAX_STRETCH`]
/// says), then to the end of the window: one client, one thread, the next
/// op issued when the previous one returns. With `trace`, half of the ops
/// are traced; their spans are tagged with the op's window.
fn closed_loop<W: Workload>(w: &mut W, seconds: u64, trace: bool, spans: &mut Spans) -> Timed {
    let mut t = Timed {
        ledger: Ledger::default(),
        ops: Vec::new(),
        windows: Vec::new(),
        problems: Vec::new(),
    };
    let mut probe = Probe::new();
    let mut probe_ms = probe.sample_ms();
    let start = Instant::now();
    let mut window = Instant::now();
    for i in 0.. {
        let traced = trace && is_traced(i);
        spans.set_window(t.windows.len());
        let t0 = Instant::now();
        let out = if traced {
            w.traced_op(i, spans)
        } else {
            w.op(i)
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        t.ops.push((ms, traced.then(|| spans.take_op_total())));
        let (digest, verdict) = match out {
            Ok(out) => (Some(W::digest(&out)), w.check_op(i, &out)),
            Err(e) => (None, Err(format!("op {i}: {e}"))),
        };
        if let Err(e) = &verdict {
            t.problems.push(e.clone());
        }
        t.ledger.push(digest, verdict.is_ok());
        if (i + 1) % W::WINDOW_OPS == 0 {
            let seconds_in = window.elapsed().as_secs_f64();
            let after = probe.sample_ms();
            t.windows.push(Window {
                items: W::WINDOW_OPS,
                seconds: seconds_in,
                probe_ms: probe_ms.max(after),
            });
            probe_ms = after;
            window = Instant::now();
            if stop(
                start,
                seconds as f64,
                full_speed_seconds(&t.windows),
                FULL_SPEED_SHARE,
                MAX_STRETCH,
            ) {
                break;
            }
        }
    }
    t
}

/// Whether a phase that started at `start` and should last `seconds` is
/// done: past `seconds` with `share` of that at full host speed, or past
/// `stretch` times `seconds` anyway.
fn stop(start: Instant, seconds: f64, full_speed_s: f64, share: f64, stretch: f64) -> bool {
    let elapsed = start.elapsed().as_secs_f64();
    elapsed >= seconds && (full_speed_s >= share * seconds || elapsed >= stretch * seconds)
}

/// Times set-ups (each dropped at once, outside its timing) as
/// `SETUP_PHASE` says; returns the median of those in fast windows, taken
/// to full host speed, and the fast-window flags (the windows `spans`
/// were tagged with).
fn setup_seconds<W: Workload>(seed: u64, spans: &mut Spans) -> Result<(f64, Vec<bool>), String> {
    let mut samples: Vec<(usize, f64)> = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    let mut probe = Probe::new();
    let mut probe_ms = probe.sample_ms();
    let start = Instant::now();
    let mut opened = Instant::now();
    let mut first = 0;
    loop {
        spans.set_window(windows.len());
        let t0 = Instant::now();
        let built = W::setup(seed, spans).map_err(|e| format!("set-up: {e}"))?;
        samples.push((windows.len(), t0.elapsed().as_secs_f64()));
        drop(built);
        if opened.elapsed() >= SETUP_WINDOW {
            let after = probe.sample_ms();
            windows.push(Window {
                items: samples.len() - first,
                seconds: samples[first..].iter().map(|(_, s)| s).sum(),
                probe_ms: probe_ms.max(after),
            });
            probe_ms = after;
            first = samples.len();
            opened = Instant::now();
            let phase = SETUP_PHASE.as_secs_f64();
            let stretch = SETUP_CAP.as_secs_f64() / phase;
            let share = SETUP_FULL_SPEED_S / phase;
            let full = full_speed_seconds(&windows);
            if samples.len() >= MIN_SETUPS && stop(start, phase, full, share, stretch) {
                break;
            }
        }
    }
    let (fast, scale) = select(&windows, MIN_SETUPS);
    let kept: Vec<f64> = samples
        .iter()
        .filter(|(w, _)| fast[*w])
        .map(|&(_, s)| s)
        .collect();
    Ok((stats::median(&kept) * scale, fast))
}

/// Digests of the first `n` ops on a fresh set-up with the same seed.
fn replay<W: Workload>(seed: u64, n: usize) -> Result<Vec<Option<u64>>, String> {
    let mut w = W::setup(seed, &mut Spans::default()).map_err(|e| format!("set-up: {e}"))?;
    Ok((0..n)
        .map(|i| w.op(i).ok().map(|o| W::digest(&o)))
        .collect())
}

/// Per-op work counts of the first `n` ops on a fresh set-up, and their
/// total host time in ms.
fn count_window<W: Workload>(seed: u64, n: usize) -> Result<(Vec<Counters>, f64), String> {
    let mut w = W::setup(seed, &mut Spans::default()).map_err(|e| format!("set-up: {e}"))?;
    let mut per_op = Vec::with_capacity(n);
    let mut host_ms = 0.0;
    for i in 0..n {
        let before = w.counters();
        let t0 = Instant::now();
        w.op(i).map_err(|e| format!("count window op {i}: {e}"))?;
        host_ms += t0.elapsed().as_secs_f64() * 1e3;
        per_op.push(Counters::op_delta(&before, &w.counters(), W::RESETS_IN_OP));
    }
    Ok((per_op, host_ms))
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run<W: Workload>(args: &Args) -> Result<Report, String> {
    let mut setup_spans = Spans::default();
    let (setup, setup_fast) = setup_seconds::<W>(args.seed, &mut setup_spans)?;
    let mut w = W::setup(args.seed, &mut Spans::default()).map_err(|e| format!("set-up: {e}"))?;
    let mut spans = Spans::default();
    let mut t = closed_loop(&mut w, args.seconds, args.trace, &mut spans);
    match w.check_run(args.seed) {
        Ok(found) => println!("claim: {found}"),
        Err(e) => t.problems.push(e),
    }
    drop(w);

    // The output check: the reference prefix must replay bit-exactly on a
    // fresh set-up, pure ops must repeat, and known seeds must match pins.
    let ledger = &mut t.ledger;
    let reference_ops = W::REFERENCE_OPS.min(ledger.attempted());
    let mismatched = ledger.check_against(&replay::<W>(args.seed, reference_ops)?);
    if mismatched > 0 {
        t.problems
            .push(format!("{mismatched} ops differ on replay"));
    }
    if let Some(period) = W::PERIOD {
        let n = ledger.check_period(period);
        if n > 0 {
            t.problems
                .push(format!("{n} ops differ from their first pass"));
        }
    }
    if let Some(fold) = ledger.prefix_fold(W::REFERENCE_OPS) {
        println!(
            "reference digest of the first {} ops at seed {}: {fold:#018x}",
            W::REFERENCE_OPS,
            args.seed
        );
    }
    if let Some(&(_, pin)) = W::PINS.iter().find(|(seed, _)| *seed == args.seed) {
        match ledger.check_pin(W::REFERENCE_OPS, pin) {
            Some(true) => println!("reference digest matches the pin for seed {}", args.seed),
            Some(false) => t
                .problems
                .push(format!("reference digest differs from pin {pin:#018x}")),
            None => t
                .problems
                .push("run too short to check the pinned digest".into()),
        }
    }

    let min_fast_ops = if args.trace { 2 } else { 1 } * MIN_FAST_OPS;
    let (fast, scale) = select(&t.windows, min_fast_ops);
    let fast_ops: Vec<&(f64, Option<f64>)> = t
        .ops
        .iter()
        .enumerate()
        .filter(|(i, _)| fast.get(i / W::WINDOW_OPS) == Some(&true))
        .map(|(_, op)| op)
        .collect();
    let fast_s: f64 = t
        .windows
        .iter()
        .zip(&fast)
        .filter(|(_, &f)| f)
        .map(|(w, _)| w.seconds)
        .sum();
    println!(
        "{} of {} windows fast ({fast_s:.2} s); {} of {} ops in them; {:.2} s at full host speed; \
         timings scaled by {scale:.4} to full speed",
        fast.iter().filter(|&&f| f).count(),
        fast.len(),
        fast_ops.len(),
        t.ops.len(),
        full_speed_seconds(&t.windows),
    );
    let sorted_ms = |traced: bool| -> Vec<f64> {
        let mut v: Vec<f64> = fast_ops
            .iter()
            .filter(|op| op.1.is_some() == traced)
            .map(|op| op.0)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let plain = sorted_ms(false);
    let plain_beyond = stats::tail_guard(plain.len())?;
    let p50 = stats::percentile(&plain, 50);
    let p90 = stats::percentile(&plain, stats::TAIL) * scale;
    let metrics = if args.trace {
        let (counts, host_ms) = count_window::<W>(args.seed, W::COUNT_OPS)?;
        let (again, _) = count_window::<W>(args.seed, W::COUNT_OPS)?;
        if counts != again {
            t.problems
                .push("per-layer counts drift between two same-seed windows".into());
        }
        let traced = sorted_ms(true);
        stats::tail_guard(traced.len())?;
        let traced_p50 = stats::percentile(&traced, 50);
        let span_sums: Vec<f64> = fast_ops.iter().filter_map(|op| op.1).collect();
        println!(
            "untraced op p50 {p50:.4} ms ({} samples), traced op p50 {traced_p50:.4} ms ({} samples); \
             counts over the first {} ops, repeated exactly: {}",
            plain.len(),
            traced.len(),
            W::COUNT_OPS,
            counts == again
        );
        let mut m = layer_metrics(&counts, host_ms);
        for name in OP_SPANS {
            m.push(Metric {
                name,
                value: spans.median_ms(name, |w| fast.get(w) == Some(&true)),
                unit: "ms",
            });
        }
        for name in SETUP_SPANS {
            m.push(Metric {
                name,
                value: setup_spans.median_ms(name, |w| setup_fast.get(w) == Some(&true)),
                unit: "ms",
            });
        }
        m.push(Metric {
            name: "trace.overhead_ms",
            value: traced_p50 - p50,
            unit: "ms",
        });
        m.push(Metric {
            name: "trace.span_coverage",
            value: stats::median(&span_sums) / p50,
            unit: "ratio",
        });
        m
    } else {
        let n = plain.len();
        println!(
            "setup_s = {setup:.6} s (median over {} of {} set-up windows, the fast ones)",
            setup_fast.iter().filter(|&&f| f).count(),
            setup_fast.len()
        );
        println!("op_ms_p50 = {:.4} ms ({n} samples)", p50 * scale);
        println!("op_ms_p90 = {p90:.4} ms ({n} samples, {plain_beyond} beyond p90)");
        vec![
            Metric {
                name: "ops_per_s",
                value: fast_ops.len() as f64 / (fast_s * scale),
                unit: "1/s",
            },
            Metric {
                name: "op_ms_p50",
                value: p50 * scale,
                unit: "ms",
            },
            Metric {
                name: "op_ms_p90",
                value: p90,
                unit: "ms",
            },
            Metric {
                name: "setup_s",
                value: setup,
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb(),
                unit: "MB",
            },
        ]
    };
    for p in t.problems.iter().take(5) {
        eprintln!("output check: {p}");
    }
    Ok(Report {
        correct: t.problems.is_empty() && t.ledger.failed() == 0,
        attempted: t.ledger.attempted(),
        failed: t.ledger.failed(),
        metrics,
    })
}

/// Span names reported by every traced run, inside ops and inside
/// set-ups; a workload that never enters one reports 0 for it.
const OP_SPANS: [&str; 7] = [
    "core.shell.tokenize_ms",
    "x86.parse_asm_ms",
    "pmu.parse_config_ms",
    "analysis.analyze_ms",
    "core.session_run_ms",
    "inst_tools.measure_ms",
    "cache_tools.run_hits_ms",
];
const SETUP_SPANS: [&str; 2] = ["machine.new_ms", "cache_tools.cacheseq_new_ms"];

/// The per-layer work counts of a count window of `per_op.len()` ops
/// that took `host_ms` in all.
fn layer_metrics(per_op: &[Counters], host_ms: f64) -> Vec<Metric> {
    let mut c = Counters::default();
    for op in per_op {
        c.add(op);
    }
    let k = per_op.len() as u64;
    let l3 = c.l3_hits + c.l3_misses;
    let count = |name, value| Metric {
        name,
        value,
        unit: "count",
    };
    vec![
        count("core.plan_cache.hits", c.plan_hits as f64),
        count("core.plan_cache.misses", c.plan_misses as f64),
        Metric {
            name: "core.plan_cache.hit_ratio",
            value: ratio(c.plan_hits, c.plan_hits + c.plan_misses),
            unit: "ratio",
        },
        Metric {
            name: "machine.sim_cycles_per_op",
            value: ratio(c.cycles, k),
            unit: "cycles",
        },
        Metric {
            name: "uarch.host_ns_per_sim_cycle",
            value: host_ms * 1e6 / c.cycles as f64,
            unit: "ns",
        },
        count("machine.translations_per_op", ratio(c.translations, k)),
        count("machine.walks_per_op", ratio(c.walks, k)),
        count("cache.l1.accesses_per_op", ratio(c.l1_accesses, k)),
        count("cache.l2.accesses_per_op", ratio(c.l2_accesses, k)),
        count("cache.l3.accesses_per_op", ratio(l3, k)),
        Metric {
            name: "cache.l3.miss_ratio",
            value: ratio(c.l3_misses, l3),
            unit: "ratio",
        },
        count("cache.l3.evictions_per_op", ratio(c.l3_evictions, k)),
        Metric {
            name: "cache.host_ns_per_l3_access",
            value: host_ms * 1e6 / l3 as f64,
            unit: "ns",
        },
        count("cache.snoop_hits_per_op", ratio(c.snoop_hits, k)),
        count("cache.invalidations_per_op", ratio(c.invalidations, k)),
        count("cache.uncore_lookups_per_op", ratio(c.uncore_lookups, k)),
    ]
}

/// Runs every workload in its own process, so each reports its own peak
/// RSS; fails if any of them does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find its own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;
    for name in NAMES {
        println!("== {name} ==");
        let status = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "all" => return run_all(&args),
        "inst_table" => run::<InstTable>(&args),
        "age_graph" => run::<AgeGraph>(&args),
        "invocation" => run::<Invocation>(&args),
        _ => run::<Interference>(&args),
    };
    match result {
        Ok(report) => {
            println!(
                "workload {}: {} ops attempted, {} failed",
                args.workload, report.attempted, report.failed
            );
            for m in &report.metrics {
                println!("{} = {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two short same-seed windows must count exactly the same work, op
    /// by op; any drift would mean nondeterminism.
    fn counts_repeat<W: Workload>(n: usize) {
        let (a, _) = count_window::<W>(3, n).expect("first window runs");
        let (b, _) = count_window::<W>(3, n).expect("second window runs");
        assert_eq!(a, b);
        assert!(
            a.iter().all(|c| c.cycles > 0 && c.translations > 0),
            "{a:?}"
        );
    }

    #[test]
    fn per_layer_counts_repeat_exactly() {
        counts_repeat::<InstTable>(2);
        counts_repeat::<AgeGraph>(2);
        counts_repeat::<Invocation>(3);
        counts_repeat::<Interference>(2);
    }

    /// The default seed's reference prefix reproduces its pin.
    fn prefix_matches_pin<W: Workload>() {
        let digests = replay::<W>(1, W::REFERENCE_OPS).expect("replay runs");
        let mut ledger = Ledger::default();
        for d in digests {
            ledger.push(d, true);
        }
        let pin = W::PINS
            .iter()
            .find(|(s, _)| *s == 1)
            .expect("seed 1 is pinned")
            .1;
        assert_eq!(ledger.check_pin(W::REFERENCE_OPS, pin), Some(true));
    }

    #[test]
    fn reference_prefixes_match_their_pins() {
        prefix_matches_pin::<InstTable>();
        prefix_matches_pin::<AgeGraph>();
        prefix_matches_pin::<Invocation>();
        prefix_matches_pin::<Interference>();
    }

    #[test]
    fn a_corrupted_op_digest_fails_that_op() {
        let reference = replay::<Invocation>(1, 4).expect("replay runs");
        let mut ledger = Ledger::default();
        for (i, d) in reference.iter().enumerate() {
            // Op 2's output arrives corrupted.
            ledger.push(d.map(|d| if i == 2 { d ^ 1 } else { d }), true);
        }
        assert_eq!(ledger.check_against(&reference), 1);
        assert_eq!((ledger.attempted(), ledger.failed()), (4, 1));
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload age_graph --seed 9 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("age_graph", 9, 3, true)
        );
        assert!(args("--workload nope").is_err());
        assert!(args("--workload invocation --trace 2").is_err());
        assert!(args("--workload invocation --seed").is_err());
    }
}
