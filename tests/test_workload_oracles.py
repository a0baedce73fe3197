"""Every scanbench workload's oracle, checked against a scan at 1 and 2 workers.

`scanbench/workloads.py` writes seeded corpora and says, from the generator
alone, what each entry holds: its status, its tools with their invocation
style, and its four anti-pattern flags (and, on matrix-heavy, the timing
rows).  Here each workload is drawn at a few seeds and small sizes, scanned
at one and two workers, and held to that oracle through the benchmark's own
checks (`scanbench/run.py`), entry by entry and in the report's tables.
"""

import json
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tdmscan import analyzer, shipped_registry
from tdmscan.analytics import export_json
from tdmscan.cli import _entries_from_directory
from tdmscan.ingest import materialize

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scanbench"))

import run  # noqa: E402
import workloads  # noqa: E402

# The smoke test's tiny sizes: every kind of entry, in a fraction of a second.
TINY = {
    "synthetic-small": {"count": 60, "bad_copies": 1},
    "matrix-heavy": {"count": 5, "max_jobs": 12},
    "tool-dense": {"count": 5},
}
REGISTRY = shipped_registry()


def _scan_checked(entries, oracle: dict, workers: int) -> bytes:
    """Scan at `workers`, hold the scan to the oracle, return report.json."""
    result = analyzer.scan_entries(entries, REGISTRY, workers=workers)
    statuses = {entry.slug: entry.status for entry in result.entries}
    assert run.status_mismatches(statuses, oracle) == []
    report = result.report
    assert run.check_report(report.to_json_dict(), run.expected_report(oracle)) == []
    assert report.findings_per_pipeline == {
        slug: entry["flags"]
        for slug, entry in oracle["entries"].items()
        if entry["status"] == workloads.OK and entry["tools"]
    }
    return export_json(report)


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_scan_matches_the_workload_oracle(name, seed):
    workload = workloads.GENERATORS[name](seed, **TINY[name])
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        # Two shares even on a one-CPU host, so the merge is always checked.
        patch.setattr(analyzer, "_usable_cpus", lambda: 2)
        corpus, oracle_path = Path(tmp, "corpus"), Path(tmp, "oracle.json")
        workloads.write(workload, str(corpus), str(oracle_path))
        oracle = json.loads(oracle_path.read_text(encoding="utf-8"))
        entries = _entries_from_directory(str(corpus))
        assert sorted(entry.repo_slug for entry in entries) == sorted(oracle["entries"])

        one_worker = _scan_checked(entries, oracle, workers=1)
        assert _scan_checked(entries, oracle, workers=2) == one_worker

        for entry in entries:
            expected = oracle["entries"][entry.repo_slug]
            if expected["status"] != workloads.OK:
                continue
            analysis = analyzer.explain_document(*materialize(entry), REGISTRY)
            assert analysis.profile.tools == expected["tools"], entry.repo_slug
            assert analysis.findings.as_dict() == expected["flags"], entry.repo_slug
