"""scan_entries and analyze_document: the same results for any worker count,
forked or not, and with warm or cold line and pipeline memos; a forked
child's failure reaches the caller and leaves no process behind."""

import gc
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import textwrap
import time
import tracemalloc
import types
from collections import Counter
from dataclasses import replace
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from tdmscan import analytics, analyzer, placement, script_resolver, shipped_registry
from tdmscan import registry as registry_module
from tdmscan import memo as memo_module
from tdmscan.analytics import (
    PipelineRecord,
    export_csv_bundle,
    export_json,
    pipeline_record,
)
from tdmscan.analyzer import (
    AnalysisOptions,
    ParsedConfig,
    analyze_document,
    explain_document,
    scan_entries,
)
from tdmscan.cli import _entries_from_directory
from tdmscan.config_model import (
    CommandLine,
    MalformedDocument,
    NotAPipeline,
    PhaseKind,
    PipelineConfig,
    RawDocument,
)
from tdmscan.ingest import FetchPolicy, ManifestEntry, materialize
from tdmscan.memo import BoundedMemo
from tdmscan.registry import Registry
from tdmscan.script_resolver import MappingTree

from conftest import CORPUS_DIR
from test_golden import OTHER_SCAN_SHA256, SCAN_SHA256
from test_ingest import FakeClock, FakeResponse, FakeSession, ServingSession


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


def test_local_scan_imports_neither_openssl_nor_thread_pool(tmp_path):
    code = textwrap.dedent(
        f"""
        import json, sys
        from tdmscan import analyzer, shipped_registry
        from tdmscan.cli import _entries_from_directory, _write_outputs

        entries = _entries_from_directory({CORPUS_DIR!r})
        result = analyzer.scan_entries(entries, shipped_registry(), workers=1)
        _write_outputs(result.report, {str(tmp_path)!r}, None)
        modules = ["hashlib", "_hashlib", "concurrent.futures", "logging"]
        print(json.dumps({{
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
    assert json.loads(done.stdout) == {"ok": 38, "imported": []}
    assert (tmp_path / "report.json").is_file()


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
    monkeypatch.setattr(analyzer, "_parse_memo", BoundedMemo())


def _cold_record(monkeypatch, doc, tree, registry, options=AnalysisOptions()):
    """The record and warnings of an unmemoized explain_document."""
    _cold_parse_memo(monkeypatch)
    analysis = explain_document(doc, tree, registry, options)
    record = pipeline_record(analysis.profile, analysis.placements, analysis.findings)
    return record, analysis.warnings


def _entry_outcome(monkeypatch, entry, registry):
    doc, tree = materialize(entry)
    try:
        record, warnings = _cold_record(monkeypatch, doc, tree, registry)
    except (NotAPipeline, MalformedDocument) as exc:
        return "skipped", str(exc), []
    return "ok", record, warnings


def test_duplicated_corpus_matches_entry_by_entry_analysis(monkeypatch):
    # Three slugs per entry: a config's first sighting stores its record
    # and the other two read that same record back.
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
    records = {}
    parsed = []
    real_analyze, real_parse = analyzer.analyze_document, analyzer.parse_config

    def recording_analyze(doc, tree, registry, options):
        record, warnings = real_analyze(doc, tree, registry, options)
        records[doc.repo_slug] = record
        return record, warnings

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
            assert records[outcome.slug] == detail, outcome.slug
            assert outcome.warnings == warnings, outcome.slug
        else:
            assert outcome.message == detail, outcome.slug
    ok = [slug for slug, (status, _, _) in expected.items() if status == "ok"]
    assert len(ok) == 3 * (len(entries) - 1)
    for slug in ok:
        if slug.startswith("copy"):
            assert records[slug] is records[slug.split("-", 1)[1]], slug
    # One key per slug of every pipeline with tools, copies included.
    with_tools = sorted(slug for slug in ok if expected[slug][1].flags is not None)
    assert len(with_tools) > 3 * 30
    assert sorted(result.report.findings_per_pipeline) == with_tools
    # Each pipeline is parsed once, on its first sighting; a failure is
    # never stored, so the not-a-pipeline entry is parsed on all three.
    counts = Counter(parsed)
    with open(os.path.join(CORPUS_DIR, "34-not-a-pipeline", ".travis.yml")) as handle:
        assert counts.pop(handle.read()) == 3
    assert set(counts.values()) == {1}
    assert registry._analysis_memo._values


def _leaves(value):
    """The non-tuple values inside `value`, nested tuples flattened."""
    if isinstance(value, tuple):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_memos_hold_records_of_plain_keys(monkeypatch):
    """The memos keep what the report and script resolution read, under
    digest keys: no parsed model, command line or file text."""
    _cold_parse_memo(monkeypatch)
    registry = shipped_registry()
    entries = _entries_from_directory(CORPUS_DIR)
    for _ in range(2):
        scan_entries(entries, registry)
    values = list(registry._analysis_memo._values.values())
    assert len(values) == len(entries) - 1
    for value in values:
        assert type(value) is PipelineRecord
        assert type(value.keys) is tuple
        for key in value.keys:
            assert type(key) is tuple and key
            assert {type(field) for field in key} <= {str, int, bool}, key
        assert value.flags is None or {type(flag) for flag in value.flags} == {bool}
    parsed = list(analyzer._parse_memo._values.values())
    assert len(parsed) == len(entries) - 1
    assert any(value.references for value in parsed)
    for value in parsed:
        assert type(value) is ParsedConfig
        assert {type(warning) for warning in value.warnings} <= {str}
        for path, (job_index, phase) in value.references:
            assert (type(path), type(job_index), type(phase)) == (str, int, PhaseKind)
        for leaf in _leaves(value):
            assert not isinstance(leaf, (PipelineConfig, CommandLine)), leaf

    texts = set()
    for directory, _, names in os.walk(CORPUS_DIR):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8", errors="replace") as handle:
                texts.add(handle.read())
    keys = [*analyzer._parse_memo._values, *registry._analysis_memo._values]
    for key in keys:
        for leaf in _leaves(key):
            assert type(leaf) in (str, bool, type(None), AnalysisOptions), key
            if type(leaf) is str:
                assert leaf not in texts, key
                assert "\n" not in leaf and len(leaf) <= 64, key
    # A config key is (path, sha256, invalid_utf8); a record's adds the
    # options and each script's (path, sha256 or None).
    for path, digest, invalid_utf8 in analyzer._parse_memo._values:
        assert path == ".travis.yml" and re.fullmatch("[0-9a-f]{64}", digest)
        assert type(invalid_utf8) is bool
    for source, options, scripts in registry._analysis_memo._values:
        assert source in analyzer._parse_memo._values
        assert options == AnalysisOptions()
        for path, digest in scripts:
            assert digest is None or re.fullmatch("[0-9a-f]{64}", digest)


def test_records_share_equal_key_tuples(monkeypatch):
    _cold_parse_memo(monkeypatch)
    monkeypatch.setattr(analytics, "_SHARED_KEYS", {})
    registry = shipped_registry()
    scan_entries(_entries_from_directory(CORPUS_DIR), registry)
    keys = [key for record in registry._analysis_memo._values.values() for key in record.keys]
    canonical = {}
    for key in keys:
        assert canonical.setdefault(key, key) is key
    assert len(canonical) < len(keys)


def test_shared_key_table_is_bounded(monkeypatch):
    monkeypatch.setattr(analytics, "_SHARED_KEYS", {})
    monkeypatch.setattr(analytics, "MAX_VALUES", 2)
    first, second, third = (("tool", name, "direct") for name in "abc")
    assert analytics._shared(first) is first
    assert analytics._shared(tuple(list(first))) is first
    assert analytics._shared(second) is second
    # Past the bound a new key comes back as given and is not stored.
    copy = tuple(list(third))
    assert analytics._shared(third) is third and analytics._shared(copy) is copy
    assert list(analytics._SHARED_KEYS) == [first, second]


# --- whole-scan differential: memos on against memos off ---------------------

_DIFF_CONFIGS = (
    "script: flake8 .\n",
    "install: pip install flake8\nscript:\n  - ./ci/lint.sh\n  - pylint src\n",
    "script: bash ci/outer.sh\nnotifications:\n  email: true\n",
    "stages: [lint, deploy]\n"
    "jobs:\n"
    "  include:\n"
    "    - stage: lint\n"
    "      if: branch = master AND type = push\n"
    "      script: ./tools/lint.sh\n"
    "    - stage: deploy\n"
    "      script: skip\n"
    "      deploy:\n"
    "        provider: pypi\n"
    "      after_deploy: ./ci/lint.sh\n",
    "jobs:\n  allow_failures:\n    - python: nightly\nscript: mypy pkg && ./ci/lint.sh\n",
    "just: data\n",
    "script: [unclosed\n",
)
_DIFF_SCRIPTS = (
    "flake8 .\n",
    "pylint src\nbash ci/lint.sh\n",
    "echo ok\n",
    "shellcheck run.sh\n./ci/outer.sh\n",
)
_DIFF_SCRIPT_PATHS = ("ci/lint.sh", "ci/outer.sh", "tools/lint.sh")
# A config's last line: none, U+FFFD as valid UTF-8, or an invalid byte that
# decodes to the same text as the second.
_DIFF_TAILS = (b"", "# \ufffd\n".encode("utf-8"), b"# \xff\n")

# Per corpus, one or two values on each axis of an entry: config text, config
# path, tail, and each script's text or None.  Entries draw from these pools,
# so they repeat, and many differ from another in one value only.
_diff_scripts = st.tuples(
    *[st.none() | st.sampled_from(_DIFF_SCRIPTS) for _ in _DIFF_SCRIPT_PATHS]
)
_diff_corpus = st.tuples(
    st.lists(st.sampled_from(_DIFF_CONFIGS), min_size=1, max_size=2, unique=True),
    st.lists(st.sampled_from((".travis.yml", "ci/.travis.yml")), min_size=1, unique=True),
    st.lists(st.sampled_from(_DIFF_TAILS), min_size=1, unique=True),
    st.lists(_diff_scripts, min_size=1, max_size=2),
).flatmap(
    lambda pools: st.lists(
        st.tuples(*map(st.sampled_from, pools)), min_size=3, max_size=12
    )
)
_diff_options = st.lists(
    st.builds(
        AnalysisOptions,
        st.booleans(),
        st.booleans(),
        st.sampled_from(["pipeline", "job"]),
    ),
    min_size=2,
    max_size=2,
    unique=True,
)


class _PassThrough:
    """A memo that stores nothing."""

    def get(self, key, compute):
        return compute()


def _write_corpus(root, corpus):
    entries = []
    for index, (config, config_path, tail, scripts) in enumerate(corpus):
        slug_dir = os.path.join(root, f"e{index:02d}")
        files = {config_path: config.encode("utf-8") + tail}
        for path, text in zip(_DIFF_SCRIPT_PATHS, scripts):
            if text is not None:
                files[path] = text.encode("utf-8")
        for path, data in files.items():
            full = os.path.join(slug_dir, path)
            os.makedirs(os.path.dirname(full), exist_ok=True)
            with open(full, "wb") as handle:
                handle.write(data)
        entries.append(
            ManifestEntry(
                f"e{index:02d}", config_path, _DIFF_SCRIPT_PATHS, local_root=slug_dir
            )
        )
    return entries


@settings(max_examples=40, deadline=None)
@given(corpus=_diff_corpus, option_sets=_diff_options)
def test_memos_leave_every_scan_byte_unchanged(corpus, option_sets):
    def scans():
        """Each option set's scan at 1 and at 2 workers, one memo state for all."""
        registry = shipped_registry()
        outputs = []
        for options in option_sets:
            for workers in (1, 2):
                result = scan_entries(entries, registry, options, workers=workers)
                report = result.report
                outputs.append(
                    (export_json(report), export_csv_bundle(report), _outcomes(result))
                )
        return outputs

    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        entries = _write_corpus(root, corpus)
        patch.setattr(analyzer, "_usable_cpus", lambda: 2)
        patch.setattr(analyzer, "_parse_memo", BoundedMemo())
        patch.setattr(script_resolver, "_reference_memo", BoundedMemo())
        memoized = scans()
        patch.setattr(analyzer, "_parse_memo", _PassThrough())
        patch.setattr(Registry, "_analysis_memo", _PassThrough())
        patch.setattr(script_resolver, "_reference_memo", _PassThrough())
        patch.setattr(
            Registry,
            "_line_memo",
            property(lambda registry: partial(registry_module._line_hits, registry)),
        )
        patch.setattr(
            script_resolver, "_memo_line_ref_events", script_resolver._line_ref_events
        )
        patch.setattr(placement, "_anchored_literal", placement._anchored_literal.__wrapped__)
        unmemoized = scans()
    assert memoized == unmemoized
    assert unmemoized[0::2] == unmemoized[1::2]


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
        analyze_document(base_doc, MappingTree(_LINT_FILES), registry)[0]
        for _ in range(3)
    ]
    assert base[2] is base[1]

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
    tree = MappingTree(files)
    record, warnings = analyze_document(doc, tree, variant_registry, options)
    assert record is not base[2]

    reference_registry = other(shipped_registry()) if other else shipped_registry()
    reference = _cold_record(
        monkeypatch, doc, MappingTree(files), reference_registry, options
    )
    assert (record, warnings) == reference


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


@pytest.mark.parametrize(
    "content, judged",
    [
        ("script: pytest -q\nafter_success: ./ci/deploy.sh\n", False),
        ("script: flake8 src\n", True),
    ],
    ids=["tool-less", "with-a-tool"],
)
def test_only_pipelines_with_tools_are_placed_and_judged(monkeypatch, content, judged):
    _cold_parse_memo(monkeypatch)
    doc = RawDocument("acme/demo", ".travis.yml", content)
    tree = MappingTree({"ci/deploy.sh": "git push\n"})
    expected = _cold_record(monkeypatch, doc, tree, shipped_registry())
    calls = []

    def recording(name):
        real = getattr(analyzer, name)

        def call(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return call

    for name in ("classify_pipeline", "evaluate"):
        monkeypatch.setattr(analyzer, name, recording(name))
    assert analyze_document(doc, tree, shipped_registry()) == expected
    assert calls == (["classify_pipeline", "evaluate"] if judged else [])
    assert (expected[0] is analytics.TOOLLESS_RECORD) != judged


def test_memos_store_on_the_first_sighting_and_stay_bounded(monkeypatch):
    _cold_parse_memo(monkeypatch)
    bound = 64
    monkeypatch.setattr(memo_module, "MAX_VALUES", bound)
    registry = shipped_registry()
    parsed = []
    real_parse = analyzer.parse_config

    def counting_parse(doc):
        parsed.append(doc.repo_slug)
        return real_parse(doc)

    monkeypatch.setattr(analyzer, "parse_config", counting_parse)
    docs = [
        RawDocument(f"acme/p{i}", ".travis.yml", f"script: flake8 src/p{i}\n")
        for i in range(bound + 40)
    ]
    first = [analyze_document(doc, MappingTree({}), registry)[0] for doc in docs]
    assert parsed == [doc.repo_slug for doc in docs]
    memos = (analyzer._parse_memo, registry._analysis_memo)
    for memo in memos:
        assert len(memo._values) == bound
        assert memo.bytes == sum(memo._weights.values()) <= memo_module.MAX_BYTES
    # The most recent `bound` configs are held and read back unparsed; the
    # oldest were evicted and are parsed again.
    parsed.clear()
    for doc, record in reversed(list(zip(docs, first))):
        copy = replace(doc, repo_slug=f"copy-{doc.repo_slug}")
        assert analyze_document(copy, MappingTree({}), registry)[0] == record
    assert parsed == [f"copy-{doc.repo_slug}" for doc in reversed(docs[:40])]
    for memo in memos:
        assert len(memo._values) == bound


_SHARED_DEPLOY = "bash ci/notify.sh\nflake8 src\n"


def test_recursive_scan_reads_each_distinct_script_once(monkeypatch, tmp_path):
    # A matrix corpus: every pipeline runs the same deploy script in each of
    # its jobs, and two of them carry their own text of a second script.
    _cold_parse_memo(monkeypatch)
    monkeypatch.setattr(script_resolver, "_reference_memo", BoundedMemo())
    scripts = {"ci/deploy.sh": _SHARED_DEPLOY, "ci/notify.sh": "echo done\n"}
    entries = []
    for index in range(6):
        root = tmp_path / f"p{index}"
        jobs = "".join(
            f"    - stage: s{job}\n      script: bash ci/deploy.sh --job {job}\n"
            for job in range(index + 3)
        )
        files = {".travis.yml": f"jobs:\n  include:\n{jobs}", **scripts}
        if index < 2:
            files["ci/notify.sh"] = f"pylint p{index}\n"
        for path, text in files.items():
            (root / path).parent.mkdir(parents=True, exist_ok=True)
            (root / path).write_text(text)
        entries.append(
            ManifestEntry(f"p{index}", ".travis.yml", tuple(scripts), local_root=str(root))
        )
    texts = {_SHARED_DEPLOY, "echo done\n", "pylint p0\n", "pylint p1\n"}
    scanned = []
    real_script_paths = script_resolver.script_paths

    def counting_script_paths(text, warnings=None):
        scanned.append(text)
        return real_script_paths(text, warnings)

    monkeypatch.setattr(script_resolver, "script_paths", counting_script_paths)
    options = AnalysisOptions(recursive_scripts=True)
    result = scan_entries(entries, shipped_registry(), options)
    assert [e.status for e in result.entries] == ["ok"] * len(entries)
    assert Counter(text for text in scanned if text in texts) == dict.fromkeys(texts, 1)
    assert result.report.tool_table["pylint"]["pipelines"] == 2

    monkeypatch.setattr(script_resolver, "script_paths", real_script_paths)
    monkeypatch.setattr(script_resolver, "_reference_memo", _PassThrough())
    _cold_parse_memo(monkeypatch)
    cold = scan_entries(entries, shipped_registry(), options)
    assert export_json(cold.report) == export_json(result.report)
    assert _outcomes(cold) == _outcomes(result)


def _alias_fanout(index):
    """A depth-4 alias fan-out: 8**4 copies of one line with a tool and a
    variable script reference, so its ParsedConfig holds 4,096 warnings."""
    line = f"flake8 src/p{index} && bash $CI/p{index}.sh"
    return "".join(
        [
            f'a: &a ["{line}"]\n',
            "b: &b [" + ", ".join(["*a"] * 8) + "]\n",
            "c: &c [" + ", ".join(["*b"] * 8) + "]\n",
            "d: &d [" + ", ".join(["*c"] * 8) + "]\n",
            "script: [" + ", ".join(["*d"] * 8) + "]\n",
        ]
    )


def test_memos_retain_no_more_than_their_caps(monkeypatch, tmp_path):
    cap, count = 1 << 20, 3
    monkeypatch.setattr(memo_module, "MAX_BYTES", cap)
    monkeypatch.setattr(memo_module, "MAX_VALUES", count)
    entries = []
    for index in range(12):
        root = tmp_path / f"p{index}"
        root.mkdir()
        (root / ".travis.yml").write_text(_alias_fanout(index))
        entries.append(ManifestEntry(f"p{index}", ".travis.yml", (), local_root=str(root)))
    registry = shipped_registry()
    tracemalloc.start()
    try:
        _cold_parse_memo(monkeypatch)
        result = scan_entries(entries, registry)
        assert [e.status for e in result.entries] == ["ok"] * len(entries)
        # One variable-reference warning per line, then one unresolved script.
        assert all(len(e.warnings) == 8**4 + 1 for e in result.entries)
        del result
        parse_memo, analysis_memo = analyzer._parse_memo, registry._analysis_memo
        # The weight cap holds fewer fan-outs than the count cap would.
        assert 0 < len(parse_memo._values) < count
        assert len(analysis_memo._values) == count
        estimated, retained = {}, {}
        for name, memo in (("parse", parse_memo), ("analysis", analysis_memo)):
            estimated[name] = memo.bytes
            assert memo.bytes == sum(memo._weights.values())
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            memo._values.clear()
            memo._weights.clear()
            gc.collect()
            retained[name] = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # What each memo keeps alive is within its own estimate, and so within
    # the cap.
    for name in ("parse", "analysis"):
        assert 0 < retained[name] <= estimated[name] <= cap, (retained, estimated)


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


@pytest.mark.parametrize("workers", [1, 2])
def test_remote_scan_without_a_session_opens_one(monkeypatch, workers):
    responses = {}
    entries = []
    for index in range(5):
        base = f"https://raw.example.org/acme/p{index}/main"
        responses[f"{base}/.travis.yml"] = [FakeResponse(200, "script: flake8 .\n")]
        entries.append(
            ManifestEntry(f"acme/p{index}", ".travis.yml", (), remote_base_url=base)
        )
    class ClosingSession(FakeSession):
        closed = False

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.closed = True

    sessions = []

    def counting_session():
        sessions.append(ClosingSession(responses))
        return sessions[-1]

    monkeypatch.setitem(
        sys.modules, "requests", types.SimpleNamespace(Session=counting_session)
    )
    result = scan_entries(
        entries,
        shipped_registry(),
        policy=FetchPolicy(max_requests_per_hour=10_000),
        clock=FakeClock(),
        workers=workers,
    )
    assert [e.status for e in result.entries] == ["ok"] * 5
    assert len(sessions) == 1
    assert len(sessions[0].calls) == 5
    assert sessions[0].closed


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "options, golden",
    [
        (AnalysisOptions(), SCAN_SHA256),
        (AnalysisOptions(False, True, "job"), OTHER_SCAN_SHA256),
    ],
    ids=["default", "other"],
)
def test_fixture_corpus_served_remotely_gives_the_golden_bytes(
    monkeypatch, workers, options, golden
):
    # Every corpus file served at <base>/<slug>/<path>; with no allow-list
    # the remote trees may read any of them, as the local ones may.
    base = "https://raw.example.org"
    files = {}
    for directory, _, names in os.walk(CORPUS_DIR):
        for name in names:
            full = os.path.join(directory, name)
            rel = os.path.relpath(full, CORPUS_DIR).replace(os.sep, "/")
            with open(full, "rb") as handle:
                files[f"{base}/{rel}"] = handle.read()
    entries = [
        replace(entry, local_root=None, remote_base_url=f"{base}/{entry.repo_slug}")
        for entry in _entries_from_directory(CORPUS_DIR)
    ]
    _cold_parse_memo(monkeypatch)
    report = scan_entries(
        entries,
        shipped_registry(),
        options,
        policy=FetchPolicy(max_requests_per_hour=100_000),
        session=ServingSession(files, FakeResponse),
        clock=FakeClock(),
        workers=workers,
    ).report
    csvs = export_csv_bundle(report)
    digest = hashlib.sha256(export_json(report))
    for name in sorted(csvs):
        digest.update(csvs[name])
    assert digest.hexdigest() == golden
