#!/usr/bin/env python3
"""Paired wall-clock gate: perfbench at the merge-base against perfbench at HEAD.

    python3 .github/perf_gate.py <parent perfbench> <head perfbench>

For every workload in BENCHMARK.json this runs PAIRS pairs of runs at
`--seconds run_seconds`, alternating which side runs first, and reads the
JSON report on each run's last line of stdout. The gate fails when

* a HEAD run exits non-zero;
* HEAD fails a larger share of ops than the parent on some workload; or
* for some workload and end-to-end metric, HEAD's median is worse than the
  parent's by more than the metric's bound AND HEAD loses at least LOSSES
  of the PAIRS pairs (a tie counts for neither side).

Requiring both conditions keeps one noisy window from failing the gate,
and keeps a steady regression within host noise from passing it. Medians,
quartiles and pair wins go to stdout and, in CI, to $GITHUB_STEP_SUMMARY.
"""

import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
LOSSES = 8
SEED = 1
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(binary, workload, seconds):
    """One perfbench run: (exit code, report or None, stderr)."""
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds)],
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        report = None
    return proc.returncode, report, proc.stderr


def worse_by(parent, head, better):
    """How much worse HEAD is than the parent, as a share of the parent."""
    change = (head - parent) if better == "lower" else (parent - head)
    if parent == 0:
        return 0.0 if change <= 0 else float("inf")
    return change / abs(parent)


def gate_workload(workload, binaries, seconds, metrics, out):
    """Runs the pairs of one workload; returns its list of failures."""
    reports = {"parent": [], "head": []}
    failures = []
    for i in range(PAIRS):
        order = ["parent", "head"] if i % 2 == 0 else ["head", "parent"]
        for side in order:
            code, report, stderr = run(binaries[side], workload, seconds)
            if side == "head" and code != 0:
                failures.append(f"{workload}: HEAD run {i + 1} exited {code}: {stderr.strip()[-500:]}")
            if report is None:
                raise SystemExit(f"{workload}: {side} run {i + 1} printed no report (exit {code})\n{stderr}")
            reports[side].append(report)
        print(f"{workload}: pair {i + 1}/{PAIRS} done", flush=True)

    share = {
        side: sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
        for side, rs in reports.items()
    }
    if share["head"] > share["parent"]:
        failures.append(
            f"{workload}: HEAD failed {share['head']:.2%} of ops, the parent {share['parent']:.2%}"
        )

    out.append(f"### {workload}\n")
    out.append("| metric | parent median [q1, q3] | HEAD median [q1, q3] | worse by | HEAD wins / losses / ties | verdict |")
    out.append("|---|---|---|---|---|---|")
    for metric in metrics:
        name, better, bound = metric["name"], metric["better"], metric["bound"]
        parent = [r["metrics"][name]["value"] for r in reports["parent"]]
        head = [r["metrics"][name]["value"] for r in reports["head"]]
        losses = sum(worse_by(p, h, better) > 0 for p, h in zip(parent, head))
        wins = sum(worse_by(p, h, better) < 0 for p, h in zip(parent, head))
        p1, pm, p3 = statistics.quantiles(parent, n=4, method="inclusive")
        h1, hm, h3 = statistics.quantiles(head, n=4, method="inclusive")
        worse = worse_by(pm, hm, better)
        failed = worse > bound and losses >= LOSSES
        if failed:
            failures.append(
                f"{workload}: {name} median worse by {worse:.1%} (bound {bound:.0%}), "
                f"HEAD lost {losses} of {PAIRS} pairs"
            )
        out.append(
            f"| {name} | {pm:.6g} [{p1:.6g}, {p3:.6g}] | {hm:.6g} [{h1:.6g}, {h3:.6g}] "
            f"| {worse:+.1%} | {wins} / {losses} / {PAIRS - wins - losses} | {'FAIL' if failed else 'ok'} |"
        )
    out.append("")
    return failures


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    binaries = {"parent": sys.argv[1], "head": sys.argv[2]}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = [f"## perfbench paired gate ({PAIRS} pairs, fail at {LOSSES} losses past the bound)\n"]
    failures = []
    for workload in bench["workloads"]:
        failures += gate_workload(
            workload["name"], binaries, bench["run_seconds"], bench["end_to_end"], out
        )
    out += [f"- FAIL: {f}" for f in failures] or ["- PASS"]
    text = "\n".join(out) + "\n"
    print(text)
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as f:
            f.write(text)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
