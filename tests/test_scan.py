"""scan_entries: the same results for any worker count, pooled or not, and
with warm or cold line memos."""

import concurrent.futures
import multiprocessing
import os
from dataclasses import replace

import pytest

from tdmscan import analyzer, script_resolver, shipped_registry
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


def test_warm_line_memos_give_identical_scans():
    # One fresh registry in this process: the first scan fills the line
    # memos, the second and the duplicated entries read them back.
    registry = shipped_registry()
    script_resolver._memo_line_ref_events.cache_clear()
    entries = _entries_from_directory(CORPUS_DIR)
    cold = scan_entries(entries, registry)
    warm = scan_entries(entries, registry)
    assert registry._line_memo.cache_info().hits > 0
    assert export_json(warm.report) == export_json(cold.report)
    assert export_csv_bundle(warm.report) == export_csv_bundle(cold.report)
    assert _outcomes(warm) == _outcomes(cold)

    copies = [replace(e, repo_slug=f"copy-{e.repo_slug}") for e in entries]
    doubled = scan_entries(entries + copies, registry)
    by_slug = {e.slug: e for e in doubled.entries}
    for entry in entries:
        original = by_slug[entry.repo_slug]
        copy = by_slug[f"copy-{entry.repo_slug}"]
        assert copy.status == original.status
        assert copy.message.replace("copy-", "", 1) == original.message
        assert copy.warnings == original.warnings
    assert _outcomes(doubled)[: len(entries)] == _outcomes(cold)
