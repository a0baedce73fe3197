#!/usr/bin/env python3
"""Scan benchmark: seeded workloads, the real scan path, oracle checks.

Usage:
    python3 scanbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; tdmscan is imported from its `src/`. The
workload is generated from the seed into `.bench_work/`, then each scan runs
in a fresh child process (see child.py), one at a time and with at most
`nproc` workers, for about S seconds:

- `--trace 0` alternates one-worker and two-worker scans and prints the
  end-to-end metrics: set-up time, pipelines/s for both worker counts,
  per-entry latency median and tail, peak RSS, and the failed share.
- `--trace 1` alternates traced and untraced one-worker scans and prints
  the per-layer metrics; the spans of the last traced scan are written to
  `.bench_work/trace-<workload>.jsonl`.

Every scan's outputs are checked: entry statuses, the report's tool table,
anti-pattern counts and (on matrix-heavy) timing rows must equal the
generator's oracle, and `report.json` plus the CSV bundle must be
byte-identical across all scans of the run. Times are scaled per child to a
reference machine speed (see speed()). The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`. The
exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
# A child normally ends within seconds; this keeps a hung one from holding
# the run past its own time limit.
CHILD_TIMEOUT_S = 60
# Times are reported as if measured on a machine where child.calibrate()
# takes this long; see speed().
CAL_REFERENCE_S = 0.033
# Enough samples for a median even when a workload's scans are slow.
MIN_ROUNDS = 3
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s",
    "pipelines_per_s": "1/s",
    "pipelines_per_s_w2": "1/s",
    "entry_ms_p50": "ms",
    "entry_ms_tail": "ms",
    "peak_rss_mib": "MiB",
    "failed_share": "ratio",
}


class BenchError(RuntimeError):
    """A child process failed or produced unusable output."""


def _workers_w2() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def run_child(*args: str) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} timed out after {CHILD_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def speed(result: dict) -> float:
    """Machine speed during one child, relative to the reference machine.

    On a shared host the CPU can drift by tens of percent within minutes, and
    every layer slows with it. Each child times a fixed calibration workload
    twice right after set-up and twice at its end; scaling that child's times
    by the mean of those samples removes the drift its scan shares with its
    calibration, so runs made at different moments compare.
    """
    return CAL_REFERENCE_S / statistics.fmean(result["cal_s"])


def output_digest(out_dir: Path) -> str:
    """sha256 over report.json and the CSV bundle, file names included."""
    digest = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def expected_report(oracle: dict) -> dict:
    """The report tables the oracle implies, counted independently of tdmscan."""
    tool_table: dict[str, dict[str, int]] = {}
    prevalence = dict.fromkeys(workloads.FINDINGS, 0)
    pipelines = with_tools = 0
    for entry in oracle["entries"].values():
        if entry["status"] != workloads.OK:
            continue
        pipelines += 1
        if not entry["tools"]:
            continue
        with_tools += 1
        for tool, style in entry["tools"].items():
            row = tool_table.setdefault(
                tool, {"pipelines": 0, "direct": 0, "script": 0, "both": 0}
            )
            row["pipelines"] += 1
            row["direct"] += style in (workloads.DIRECT, workloads.BOTH)
            row["script"] += style in (workloads.SCRIPT, workloads.BOTH)
            row["both"] += style == workloads.BOTH
        for name in workloads.FINDINGS:
            prevalence[name] += entry["flags"][name]
    return {
        "pipelines": pipelines,
        "pipelines_with_tools": with_tools,
        "tool_table": dict(sorted(tool_table.items())),
        "prevalence": prevalence,
        "timing": oracle["timing"],
    }


def check_report(report: dict, expected: dict) -> list[str]:
    problems = []
    totals = report["totals"]
    for key in ("pipelines", "pipelines_with_tools"):
        if totals[key] != expected[key]:
            problems.append(f"totals.{key}: {totals[key]} != oracle {expected[key]}")
    if report["tool_table"] != expected["tool_table"]:
        diff = sorted(
            tool
            for tool in set(report["tool_table"]) | set(expected["tool_table"])
            if report["tool_table"].get(tool) != expected["tool_table"].get(tool)
        )
        problems.append(f"tool_table differs from oracle for {diff}")
    counts = {
        name: row["count"] for name, row in report["antipattern_prevalence"].items()
    }
    if counts != expected["prevalence"]:
        problems.append(f"antipattern counts {counts} != oracle {expected['prevalence']}")
    if expected["timing"] is not None and report["timing"] != expected["timing"]:
        problems.append(f"timing {report['timing']} != oracle {expected['timing']}")
    return problems


def status_mismatches(statuses: dict[str, str], oracle: dict) -> list[str]:
    """Entries whose outcome contradicts the generator's expectation."""
    wrong = []
    for slug, entry in oracle["entries"].items():
        got = statuses.get(slug)
        want = entry["status"]
        if want == workloads.REJECTED:
            if got not in ("skipped", "failed"):
                wrong.append(slug)
        elif got != want:
            wrong.append(slug)
    return wrong


def tail_percentile(count: int) -> float:
    """Highest listed percentile with at least ten samples beyond it."""
    for pct in TAIL_PERCENTILES:
        if count - math.ceil(pct / 100.0 * count) >= 10:
            return pct
    return 50.0


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class Run:
    """One benchmark run over one generated workload."""

    def __init__(self, name: str, seed: int, seconds: float, sizes: dict | None = None,
                 work: Path = WORK):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.sizes = sizes or {}
        self.work = work
        self.dir = work / f"{name}-{seed}-{os.getpid()}"
        self.corpus = self.dir / "corpus"
        self.src = str(ROOT / "src")
        self.scans = 0
        self.digest: str | None = None
        self.problems: list[str] = []
        self.attempted = 0
        self.mismatched = 0
        self.failed_entries = 0
        self.speeds: list[float] = []

    def generate(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.corpus.mkdir(parents=True)
        workload = workloads.GENERATORS[self.name](self.seed, **self.sizes)
        oracle_path = self.dir / "oracle.json"
        workloads.write(workload, str(self.corpus), str(oracle_path))
        self.oracle = json.loads(oracle_path.read_text(encoding="utf-8"))
        self.expected = expected_report(self.oracle)
        self.expected_ok = {
            slug for slug, e in self.oracle["entries"].items() if e["status"] == workloads.OK
        }

    def scan(self, mode: str, *extra: str) -> dict:
        """Run one scan child, then check its statuses and outputs."""
        self.scans += 1
        out_dir = self.dir / f"out-{self.scans}"
        result = self.child(mode, str(self.corpus), str(out_dir), *extra)
        wrong = status_mismatches(result["statuses"], self.oracle)
        self.attempted += result["entries"]
        self.mismatched += len(wrong)
        if wrong:
            self.problems.append(f"{mode} scan: unexpected status for {wrong[:5]}")
        self.failed_entries += sum(
            1
            for slug, status in result["statuses"].items()
            if status == "failed" or (slug in self.expected_ok and status != "ok")
        )
        digest = output_digest(out_dir)
        if self.digest is None:
            self.digest = digest
            report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
            self.problems.extend(check_report(report, self.expected))
        elif digest != self.digest:
            self.problems.append(f"{mode} scan output digest {digest} != {self.digest}")
        shutil.rmtree(out_dir)
        return result

    def child(self, mode: str, *args: str) -> dict:
        result = run_child(mode, self.src, *args)
        self.speeds.append(speed(result))
        return result

    def rounds(self, steps) -> list[list[dict]]:
        """Repeat `steps` (alternating their order) until the time is used.

        A round starts only if the slowest round so far still fits, and at
        least MIN_ROUNDS run.
        """
        results: list[list[dict]] = [[] for _ in steps]
        start = time.perf_counter()
        slowest = 0.0
        rounds = 0
        while rounds < MIN_ROUNDS or time.perf_counter() - start + slowest <= self.seconds:
            began = time.perf_counter()
            order = range(len(steps)) if rounds % 2 == 0 else reversed(range(len(steps)))
            for index in order:
                results[index].append(steps[index]())
            slowest = max(slowest, time.perf_counter() - began)
            rounds += 1
        return results

    def end_to_end(self) -> tuple[dict, list[str]]:
        workers = _workers_w2()
        setups = [self.child("setup") for _ in range(3)]
        w1, w2 = self.rounds(
            [lambda: self.scan("scan", "1"), lambda: self.scan("scan", str(workers))]
        )
        samples = len(w1[0]["latency_ms"])
        tail_pct = tail_percentile(samples)

        def rate(r):
            return r["entries"] / r["scan_s"]

        series = {
            "setup_s": (setups + w1 + w2, lambda r: r["setup_s"]),
            "pipelines_per_s": (w1, rate),
            "pipelines_per_s_w2": (w2, rate),
            "entry_ms_p50": (w1, lambda r: statistics.median(r["latency_ms"])),
            "entry_ms_tail": (w1, lambda r: percentile(r["latency_ms"], tail_pct)),
        }
        measured, metrics = {}, {}
        for name, (results, value) in series.items():
            power = -1 if value is rate else 1
            measured[name] = statistics.median(value(r) for r in results)
            metrics[name] = statistics.median(value(r) * speed(r) ** power for r in results)
        metrics["peak_rss_mib"] = statistics.median(r["peak_rss_mib"] for r in w1)
        metrics["failed_share"] = self.failed_entries / self.attempted
        notes = [
            self.speed_note(),
            "unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in measured.items()),
            f"scans: {len(w1)} x workers=1, {len(w2)} x workers={workers}; "
            f"set-up samples: {len(setups) + len(w1) + len(w2)}",
            f"entry_ms_tail is p{tail_pct:g} of {samples} entries per scan, "
            f"median over {len(w1)} scans",
        ]
        return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, notes

    def per_layer(self) -> tuple[dict, list[str]]:
        trace_file = self.work / f"trace-{self.name}.jsonl"
        traced, plain = self.rounds(
            [
                lambda: self.scan("trace", str(trace_file)),
                lambda: self.scan("scan", "1"),
            ]
        )
        names = sorted({m for r in traced for m in r["layers"]})
        metrics = {
            name: statistics.median(
                r["layers"][name] * (speed(r) if unit_of(name) == "s" else 1.0) for r in traced
            )
            for name in names
        }
        statuses = traced[0]["statuses"]
        for status in ("ok", "skipped", "failed"):
            metrics[f"analyzer.entries_{status}"] = sum(
                1 for s in statuses.values() if s == status
            )
        metrics["trace.overhead_share"] = (
            statistics.median(r["scan_s"] * speed(r) for r in traced)
            / statistics.median(r["scan_s"] * speed(r) for r in plain)
            - 1.0
        )
        notes = [
            self.speed_note(),
            f"scans: {len(traced)} traced, {len(plain)} untraced; spans: {trace_file}",
        ]
        missing = traced[-1]["missing"]
        if missing:
            notes.append(f"missing wrap targets (their metrics are left out): {missing}")
        notes.append("span (last traced scan, unscaled)  calls      busy_s      self_s")
        for span, row in sorted(traced[-1]["spans"].items()):
            notes.append(
                f"{span:32} {row['calls']:8d} {row['busy_s']:11.4f} {row['self_s']:11.4f}"
            )
        return {k: (v, unit_of(k)) for k, v in metrics.items()}, notes

    def speed_note(self) -> str:
        return (
            f"times scaled per child to a machine where calibrate() takes "
            f"{CAL_REFERENCE_S * 1000:g} ms: speed factor median "
            f"{statistics.median(self.speeds):.4f}, range {min(self.speeds):.3f}-"
            f"{max(self.speeds):.3f} over {len(self.speeds)} children"
        )


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes") or metric.endswith("bytes_read"):
        return "bytes"
    if metric.endswith("_share"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tdmscan" / "__init__.py").is_file():
        print(f"scanbench: no tdmscan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds)
    try:
        run.generate()
        # Warm-up child: compiles bytecode so no measured child pays for it.
        run_child("setup", run.src)
        metrics, notes = run.per_layer() if args.trace else run.end_to_end()
    except BenchError as exc:
        print(f"scanbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed}: output digest {run.digest}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:14.6g} {unit}")
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    correct = not run.problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.mismatched,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
