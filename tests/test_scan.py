"""scan_entries: the same results for any worker count, pooled or not."""

import concurrent.futures
import multiprocessing
import os

import pytest

from tdmscan import analyzer
from tdmscan.analytics import export_csv_bundle, export_json
from tdmscan.analyzer import scan_entries
from tdmscan.cli import _entries_from_directory

from conftest import CORPUS_DIR


def _outcomes(result):
    return [(e.slug, e.status, e.message, e.warnings) for e in result.entries]


def test_worker_counts_give_identical_scans(monkeypatch, registry):
    # Two usable CPUs even on a one-CPU machine, so the pool really runs.
    monkeypatch.setattr(analyzer, "_usable_cpus", lambda: 2)
    pools = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    entries = _entries_from_directory(CORPUS_DIR)
    one = scan_entries(entries, registry, workers=1)
    two = scan_entries(entries, registry, workers=2)
    assert pools == [2]
    assert export_json(two.report) == export_json(one.report)
    assert export_csv_bundle(two.report) == export_csv_bundle(one.report)
    assert _outcomes(two) == _outcomes(one)
    assert [e.slug for e in one.entries] == sorted(e.repo_slug for e in entries)
    assert two.warnings == one.warnings


def _no_fork(method=None):
    raise ValueError(f"cannot find context for {method!r}")


@pytest.mark.parametrize(
    "cpus, get_context",
    [(1, multiprocessing.get_context), (2, _no_fork)],
    ids=["one-usable-cpu", "no-fork"],
)
def test_serial_scan_runs_in_this_process(monkeypatch, registry, cpus, get_context):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(multiprocessing, "get_context", get_context)

    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    pids = []
    analyze_document = analyzer.analyze_document

    def counting(*args, **kwargs):
        pids.append(os.getpid())
        return analyze_document(*args, **kwargs)

    monkeypatch.setattr(analyzer, "analyze_document", counting)
    entries = _entries_from_directory(CORPUS_DIR)
    result = scan_entries(entries, registry, workers=64)
    assert pids == [os.getpid()] * len(entries)
    assert result.succeeded == len(entries) - 1
