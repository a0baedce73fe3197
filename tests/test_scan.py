"""scan_entries and analyze_document: the same results for any worker count,
forked or not, and with warm or cold line and pipeline memos; a forked
child's failure reaches the caller and leaves no process behind."""

import json
import os
import re
import signal
import subprocess
import sys
import textwrap
import time
import types
from collections import Counter
from dataclasses import replace

import pytest

from tdmscan import analyzer, script_resolver, shipped_registry
from tdmscan import registry as registry_module
from tdmscan.analytics import export_csv_bundle, export_json
from tdmscan.analyzer import AnalysisOptions, analyze_document, scan_entries
from tdmscan.cli import _analysis_json, _entries_from_directory
from tdmscan.config_model import MalformedDocument, NotAPipeline, RawDocument
from tdmscan.ingest import FetchPolicy, ManifestEntry, materialize
from tdmscan.memo import AdmissionMemo
from tdmscan.registry import Registry
from tdmscan.script_resolver import MappingTree

from conftest import CORPUS_DIR
from test_ingest import FakeClock, FakeResponse, FakeSession


def _outcomes(result):
    return [(e.slug, e.status, e.message, e.warnings) for e in result.entries]


@pytest.fixture
def two_cpus(monkeypatch):
    """Two usable CPUs even on a one-CPU machine, so a child is forked.

    Every test using it must leave no child process behind, zombie or not.
    """
    monkeypatch.setattr(analyzer, "_usable_cpus", lambda: 2)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_counts_give_identical_scans(monkeypatch, registry, two_cpus):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    entries = _entries_from_directory(CORPUS_DIR)
    one = scan_entries(entries, registry, workers=1)
    assert forks == []
    two = scan_entries(entries, registry, workers=2)
    assert forks == [1]
    assert export_json(two.report) == export_json(one.report)
    assert export_csv_bundle(two.report) == export_csv_bundle(one.report)
    assert _outcomes(two) == _outcomes(one)
    assert [e.slug for e in one.entries] == sorted(e.repo_slug for e in entries)
    assert two.warnings == one.warnings


@pytest.mark.parametrize(
    "cpus, has_fork", [(1, True), (2, False)], ids=["one-usable-cpu", "no-fork"]
)
def test_serial_scan_runs_in_this_process(monkeypatch, registry, cpus, has_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if has_fork:

        def refuse():
            raise AssertionError("a child process was forked")

        monkeypatch.setattr(os, "fork", refuse)
    else:
        monkeypatch.delattr(os, "fork")
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


def _in_child(monkeypatch, action):
    """Make every chunk scanned outside this process run ``action`` first."""
    parent = os.getpid()
    scan_chunk = analyzer._scan_chunk

    def wrapped(*args, **kwargs):
        if os.getpid() != parent:
            action()
        return scan_chunk(*args, **kwargs)

    monkeypatch.setattr(analyzer, "_scan_chunk", wrapped)


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not picklable")


class Unloadable(Exception):
    """Pickles, but unpickling calls ``Unloadable(message)`` and fails."""

    def __init__(self, message, code):
        super().__init__(message)


def _raise(exc):
    def action():
        raise exc

    return action


@pytest.mark.parametrize(
    "action, error, message",
    [
        (_raise(LookupError("no such tool: x")), LookupError, "no such tool: x"),
        (
            _raise(Unpicklable("opaque")),
            RuntimeError,
            re.escape("scan worker raised Unpicklable('opaque')"),
        ),
        (
            _raise(Unloadable("needs a code", 7)),
            RuntimeError,
            re.escape("scan worker raised Unloadable('needs a code')"),
        ),
        (
            lambda: os._exit(3),
            RuntimeError,
            r"scan worker \d+ exited with status 3 before reporting",
        ),
        (
            lambda: os.kill(os.getpid(), signal.SIGKILL),
            RuntimeError,
            rf"scan worker \d+ was killed by signal {int(signal.SIGKILL)} "
            rf"\({signal.strsignal(signal.SIGKILL)}\) before reporting",
        ),
    ],
    ids=["raises", "raises-unpicklable", "raises-unloadable", "exits", "killed"],
)
def test_child_failure_reaches_the_caller(
    monkeypatch, registry, two_cpus, action, error, message
):
    _in_child(monkeypatch, action)
    entries = _entries_from_directory(CORPUS_DIR)
    with pytest.raises(error) as raised:
        scan_entries(entries, registry, workers=2)
    assert type(raised.value) is error
    assert re.fullmatch(message, str(raised.value))


def test_failure_in_this_process_kills_the_child(monkeypatch, registry, two_cpus):
    parent = os.getpid()
    scan_chunk = analyzer._scan_chunk

    def wrapped(*args, **kwargs):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        if not slept:
            slept.append(1)
            time.sleep(5)  # a child that is waited for, not killed, takes this long
        return scan_chunk(*args, **kwargs)

    slept = []
    monkeypatch.setattr(analyzer, "_scan_chunk", wrapped)
    entries = _entries_from_directory(CORPUS_DIR)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        scan_entries(entries, registry, workers=2)
    assert time.monotonic() - start < 4


def test_two_worker_scan_imports_no_pool_module():
    code = textwrap.dedent(
        f"""
        import json, os, sys
        from tdmscan import analyzer, shipped_registry
        from tdmscan.cli import _entries_from_directory

        analyzer._usable_cpus = lambda: 2
        forks = []
        real_fork = os.fork
        os.fork = lambda: forks.append(1) or real_fork()
        entries = _entries_from_directory({CORPUS_DIR!r})
        result = analyzer.scan_entries(entries, shipped_registry(), workers=2)
        modules = ["multiprocessing", "concurrent.futures.process"]
        print(json.dumps({{
            "forks": len(forks),
            "ok": result.succeeded,
            "imported": [name for name in modules if name in sys.modules],
        }}))
        """
    )
    src = os.path.dirname(os.path.dirname(analyzer.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"forks": 1, "ok": 38, "imported": []}


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


# --- whole-pipeline memos: a hit gives what a cold analysis gives -------------


def _cold_parse_memo(monkeypatch):
    monkeypatch.setattr(
        analyzer, "_parse_memo", AdmissionMemo(analyzer._PARSE_MEMO_SIZE)
    )


def _analyze_cold(monkeypatch, doc, tree, registry, options=AnalysisOptions()):
    """analyze_document with memos that have seen nothing yet."""
    _cold_parse_memo(monkeypatch)
    registry.__dict__.pop("_analysis_memo", None)
    return analyze_document(doc, tree, registry, options)


def _entry_outcome(monkeypatch, entry, registry):
    doc, tree = materialize(entry)
    try:
        analysis = _analyze_cold(monkeypatch, doc, tree, registry)
    except (NotAPipeline, MalformedDocument) as exc:
        return "skipped", str(exc), []
    return "ok", _analysis_json(analysis, doc.path), analysis.warnings


def test_duplicated_corpus_matches_entry_by_entry_analysis(monkeypatch):
    # Three slugs per entry: a config's second sighting stores its analysis
    # and the third reads it back.
    entries = _entries_from_directory(CORPUS_DIR)
    tripled = [
        replace(entry, repo_slug=f"{prefix}{entry.repo_slug}")
        for prefix in ("", "copy1-", "copy2-")
        for entry in entries
    ]
    reference_registry = shipped_registry()
    expected = {
        entry.repo_slug: _entry_outcome(monkeypatch, entry, reference_registry)
        for entry in tripled
    }

    _cold_parse_memo(monkeypatch)
    registry = shipped_registry()
    analyses = {}
    parsed = []
    real_analyze, real_parse = analyzer.analyze_document, analyzer.parse_config

    def recording_analyze(doc, tree, registry, options):
        analysis = real_analyze(doc, tree, registry, options)
        analyses[doc.repo_slug] = _analysis_json(analysis, doc.path)
        return analysis

    def counting_parse(doc):
        parsed.append(doc.content)
        return real_parse(doc)

    monkeypatch.setattr(analyzer, "analyze_document", recording_analyze)
    monkeypatch.setattr(analyzer, "parse_config", counting_parse)
    result = scan_entries(tripled, registry)

    assert sorted(e.slug for e in result.entries) == sorted(expected)
    for outcome in result.entries:
        status, detail, warnings = expected[outcome.slug]
        assert outcome.status == status, outcome.slug
        if status == "ok":
            assert analyses[outcome.slug] == detail, outcome.slug
            assert outcome.warnings == warnings, outcome.slug
        else:
            assert outcome.message == detail, outcome.slug
    ok = [slug for slug, (status, _, _) in expected.items() if status == "ok"]
    assert len(ok) == 3 * (len(entries) - 1)
    # One key per slug of every pipeline with tools, copies included.
    with_tools = sorted(slug for slug in ok if expected[slug][1]["tools"])
    assert len(with_tools) > 3 * 30
    assert sorted(result.report.findings_per_pipeline) == with_tools
    # Each pipeline is parsed on its first two sightings; a failure is never
    # stored, so the not-a-pipeline entry is parsed on all three.
    counts = Counter(parsed)
    with open(os.path.join(CORPUS_DIR, "34-not-a-pipeline", ".travis.yml")) as handle:
        assert counts.pop(handle.read()) == 3
    assert set(counts.values()) == {2}
    assert registry._analysis_memo._values


_LINT_CONFIG = (
    "language: python\n"
    "install: pip install flake8\n"
    "script:\n"
    "  - ./ci/lint.sh\n"
    "  - flake8 .\n"
)
_LINT_FILES = {"ci/lint.sh": "pylint src\n"}


def _without_pylint(registry):
    return Registry(
        tools=tuple(tool for tool in registry.tools if tool.id != "pylint"),
        version=registry.version,
    )


# How each variant differs from the memoized base analysis.
_VARIANTS = {
    "script-content": {"files": {"ci/lint.sh": "bandit -r src\n"}},
    "missing-script": {"files": {}},
    "path": {"path": "ci/.travis.yml"},
    "invalid-utf8": {"invalid_utf8": True},
    "install-exclusion": {"options": AnalysisOptions(install_exclusion=False)},
    "late-merging-mode": {"options": AnalysisOptions(late_merging_mode="job")},
    "recursive-scripts": {"options": AnalysisOptions(recursive_scripts=True)},
    "registry": {"registry": _without_pylint},
}


@pytest.mark.parametrize("variant", sorted(_VARIANTS))
def test_memoized_analysis_is_not_shared_across_a_difference(monkeypatch, variant):
    _cold_parse_memo(monkeypatch)
    registry = shipped_registry()
    base_doc = RawDocument("acme/base", ".travis.yml", _LINT_CONFIG)
    base = [
        analyze_document(base_doc, MappingTree(_LINT_FILES), registry)
        for _ in range(3)
    ]
    assert base[2].record.profile is base[1].record.profile

    change = _VARIANTS[variant]
    doc = RawDocument(
        "acme/variant",
        change.get("path", base_doc.path),
        _LINT_CONFIG,
        invalid_utf8=change.get("invalid_utf8", False),
    )
    files = change.get("files", _LINT_FILES)
    options = change.get("options", AnalysisOptions())
    other = change.get("registry")
    variant_registry = other(registry) if other else registry
    analysis = analyze_document(doc, MappingTree(files), variant_registry, options)
    assert analysis.record.profile is not base[2].record.profile
    assert analysis.record.findings is not base[2].record.findings

    reference_registry = other(shipped_registry()) if other else shipped_registry()
    reference = _analyze_cold(
        monkeypatch, doc, MappingTree(files), reference_registry, options
    )
    assert _analysis_json(analysis, doc.path) == _analysis_json(reference, doc.path)
    assert analysis.warnings == reference.warnings


@pytest.mark.parametrize(
    "content, error",
    [("script: [unclosed\n", MalformedDocument), ("just: data\n", NotAPipeline)],
    ids=["malformed", "not-a-pipeline"],
)
def test_failures_keep_their_own_messages(monkeypatch, content, error):
    _cold_parse_memo(monkeypatch)
    registry = shipped_registry()
    for path in ["a/.travis.yml"] * 3 + ["b/.travis.yml"] * 3 + ["a/.travis.yml"]:
        with pytest.raises(error) as raised:
            analyze_document(
                RawDocument(f"acme/{path}", path, content), MappingTree({}), registry
            )
        assert str(raised.value).startswith(f"{path}: ")
    assert not analyzer._parse_memo._values


def test_memos_store_on_the_second_sighting_and_stay_bounded(monkeypatch):
    _cold_parse_memo(monkeypatch)
    registry = shipped_registry()
    bound = analyzer._PARSE_MEMO_SIZE
    assert registry_module._ANALYSIS_MEMO_SIZE == bound
    docs = [
        RawDocument(f"acme/p{i}", ".travis.yml", f"script: flake8 src/p{i}\n")
        for i in range(bound + 40)
    ]
    for doc in docs:
        analyze_document(doc, MappingTree({}), registry)
    assert not analyzer._parse_memo._values
    assert not registry._analysis_memo._values
    for doc in docs:
        copy = replace(doc, repo_slug=f"copy-{doc.repo_slug}")
        analysis = analyze_document(copy, MappingTree({}), registry)
        assert analysis.record.repo_slug == copy.repo_slug
    assert len(analyzer._parse_memo._values) == bound
    assert len(registry._analysis_memo._values) == bound


def test_remote_scan_on_two_threads_matches_one(monkeypatch):
    def no_default_session():
        raise AssertionError("the caller's session was not used")

    monkeypatch.setitem(
        sys.modules, "requests", types.SimpleNamespace(Session=no_default_session)
    )
    configs = {
        "direct": ("script: flake8 .\n", {}),
        "script": ("script: ./ci/lint.sh\n", {"ci/lint.sh": "pylint src\n"}),
        "missing": ("script: ./ci/lint.sh && make\n", {}),
    }
    responses = {}
    entries = []
    for index in range(24):
        name = sorted(configs)[index % 3]
        config, files = configs[name]
        base = f"https://raw.example.org/acme/{name}{index}/main"
        responses[f"{base}/.travis.yml"] = [FakeResponse(200, config)]
        for path, text in files.items():
            responses[f"{base}/{path}"] = [FakeResponse(200, text)]
        entries.append(
            ManifestEntry(
                f"acme/{name}{index:02d}", ".travis.yml", ("ci/lint.sh",), remote_base_url=base
            )
        )

    def scan(workers):
        _cold_parse_memo(monkeypatch)
        return scan_entries(
            entries,
            shipped_registry(),
            policy=FetchPolicy(max_requests_per_hour=10_000),
            session=FakeSession(responses),
            clock=FakeClock(),
            workers=workers,
        )

    two = scan(2)
    one = scan(1)
    assert _outcomes(two) == _outcomes(one)
    assert [e.status for e in one.entries] == ["ok"] * len(entries)
    assert export_json(two.report) == export_json(one.report)
    assert export_csv_bundle(two.report) == export_csv_bundle(one.report)
    assert sorted(one.report.tool_table) == ["flake8", "pylint"]
