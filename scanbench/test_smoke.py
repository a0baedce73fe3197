"""Smoke tests for the scan benchmark itself.

Run with: python3 -m pytest -q scanbench
"""

import copy
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "synthetic-small": {"count": 60, "bad_copies": 1},
    "matrix-heavy": {"count": 5, "max_jobs": 12},
    "tool-dense": {"count": 5},
}


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_tiny_workload_passes_output_checks(name, tmp_path):
    bench = run.Run(name, seed=5, seconds=0, sizes=TINY[name], work=tmp_path)
    bench.generate()
    bench.scan("scan", "1")
    bench.scan("scan", "2")
    traced = bench.scan("trace", str(tmp_path / "spans.jsonl"))
    assert bench.problems == []
    assert bench.mismatched == 0
    assert traced["missing"] == []
    assert set(traced["layers"]) == set(tracing.LAYER_METRICS)
    # The self-referencing alias entry is kept and counted as failed.
    assert bench.failed_entries == 3


def test_checks_reject_a_report_that_differs_from_the_oracle(tmp_path):
    bench = run.Run("matrix-heavy", seed=5, seconds=0, sizes=TINY["matrix-heavy"], work=tmp_path)
    bench.generate()
    tampered = copy.deepcopy(bench.expected)
    tool = next(iter(tampered["tool_table"]))
    tampered["tool_table"][tool]["direct"] += 1
    tampered["prevalence"]["absent_feedback"] += 1
    tampered["timing"]["script"]["pre_deployment"] += 1
    bench.expected = tampered
    bench.scan("scan", "1")
    assert len(bench.problems) == 3


def test_rejected_entry_may_be_skipped_or_failed():
    oracle = {"entries": {"a": {"status": workloads.REJECTED}, "b": {"status": workloads.OK}}}
    assert run.status_mismatches({"a": "failed", "b": "ok"}, oracle) == []
    assert run.status_mismatches({"a": "skipped", "b": "ok"}, oracle) == []
    assert run.status_mismatches({"a": "ok", "b": "skipped"}, oracle) == ["a", "b"]


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_fixed_seed_regenerates_identical_files(name, tmp_path):
    for label, seed in (("a", 9), ("b", 9), ("c", 10)):
        workload = workloads.GENERATORS[name](seed, **TINY[name])
        workloads.write(workload, str(tmp_path / label), str(tmp_path / f"{label}.json"))
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "c")


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def test_tail_percentile_keeps_ten_entries_beyond():
    assert run.tail_percentile(1014) == 99.0
    assert run.tail_percentile(207) == 95.0
    assert run.tail_percentile(107) == 90.0
    assert run.tail_percentile(30) == 50.0


def test_oracle_sidecar_is_outside_the_corpus(tmp_path):
    workload = workloads.matrix_heavy(1, **TINY["matrix-heavy"])
    workloads.write(workload, str(tmp_path / "corpus"), str(tmp_path / "oracle.json"))
    oracle = json.loads((tmp_path / "oracle.json").read_text())
    assert sorted(oracle["entries"]) == sorted(p.name for p in (tmp_path / "corpus").iterdir())
    assert oracle["timing"] is not None
