import json
import os
import shutil
import sys
import time
import types
from contextlib import nullcontext

import pytest

from tdmscan.cli import _entries_from_directory, main
from tdmscan.ingest import MAX_FILE_BYTES

from conftest import CORPUS_DIR, EXAMPLE_CONFIG, MappingTree
from test_ingest import FakeResponse, RaisingSession, ServingSession


INVALID_UTF8_CONFIG = b"# caf\xe9 \xff\xfe\nlanguage: python\nscript:\n  - mypy pkg\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / ".travis.yml"
    path.write_text(EXAMPLE_CONFIG)
    return str(path)


class TestAnalyze:
    def test_example_end_to_end(self, capsys, example_file):
        code, out, err = run_cli(capsys, "analyze", example_file)
        assert code == 0
        data = json.loads(out)
        assert data["tools"] == {"flake8": "direct"}
        assert data["placements"] == [
            {
                "job": 0,
                "stage": "lint",
                "placement": "dedicated_stage",
                "multi_tool": False,
                "timings": {"pre_deployment": 1, "post_deployment": 0},
            }
        ]
        assert data["findings"]["absent_feedback"] is True
        assert data["findings"]["skip_on_failure"] is False
        assert data["findings"]["late_merging"] is False
        assert data["findings"]["email_only"] is False

    def test_stdout_is_pure_json(self, capsys, example_file):
        _, out, _ = run_cli(capsys, "analyze", example_file)
        json.loads(out)  # raises if polluted

    def test_empty_file_exits_2(self, capsys, tmp_path):
        config = tmp_path / ".travis.yml"
        for content, error in [
            ("", "NotAPipeline"),
            ("script: &s [flake8, *s]\n", "MalformedDocument"),
            ("script: " + "[" * 600 + "]" * 600 + "\n", "MalformedDocument"),
        ]:
            config.write_text(content)
            code, out, err = run_cli(capsys, "analyze", str(config))
            assert code == 2
            assert error in err
            assert out == ""

    def test_config_over_the_byte_cap_exits_2(self, capsys, tmp_path):
        config = tmp_path / ".travis.yml"
        config.write_text("script: flake8\n" + "#" * MAX_FILE_BYTES + "\n")
        code, out, err = run_cli(capsys, "analyze", str(config))
        assert code == 2
        assert err == f"FileTooLarge: .travis.yml is over the {MAX_FILE_BYTES}-byte cap\n"
        assert out == ""

    def test_directory_with_scripts(self, capsys, tmp_path):
        (tmp_path / "ci").mkdir()
        (tmp_path / ".travis.yml").write_text("language: sh\nscript: ./ci/check.sh\n")
        (tmp_path / "ci" / "check.sh").write_text("shellcheck run.sh\n")
        code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["tools"] == {"shellcheck": "script"}
        assert any(d["script"] == "ci/check.sh" for d in data["detections"])

    def test_lines_of_a_multi_line_command_are_not_shared(self, capsys, tmp_path):
        # The second command starts after both lines of the first, so its
        # flake8 is its own detection and timing, not a repeat of line 1's.
        config = 'script: ["make\\nflake8 a", "flake8 b"]\n'
        (tmp_path / ".travis.yml").write_text(config)
        code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        lines = [(d["line"], d["matched"]) for d in data["detections"]]
        assert lines == [(1, "flake8"), (2, "flake8")]
        assert data["timing"] == {"pre_deployment": 2, "post_deployment": 0}

    def test_linked_directory_out_of_the_root_is_not_read(self, capsys, tmp_path):
        (tmp_path / "outside" / "dir").mkdir(parents=True)
        (tmp_path / "outside" / "dir" / "lint.sh").write_text("flake8 .\n")
        (tmp_path / "repo").mkdir()
        (tmp_path / "repo" / ".travis.yml").write_text("script: ./ci/lint.sh\n")
        (tmp_path / "repo" / "ci").symlink_to("../outside/dir")
        code, out, _ = run_cli(capsys, "analyze", str(tmp_path / "repo"))
        assert code == 0
        data = json.loads(out)
        assert data["tools"] == {}
        assert data["warnings"] == ["unresolved script reference: ci/lint.sh"]

    def test_invalid_utf8_config_warns(self, capsys, tmp_path):
        (tmp_path / ".travis.yml").write_bytes(INVALID_UTF8_CONFIG)
        code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["warnings"] == ["invalid UTF-8 bytes replaced during decoding"]
        assert data["tools"] == {"mypy": "direct"}

    def test_missing_path_exits_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "analyze", str(tmp_path / "nope"))
        assert code == 1
        assert err

    def test_missing_config_exits_1_naming_it(self, capsys, tmp_path):
        for arg, message in [
            (tmp_path / "nope.yml", f"{tmp_path.name}: missing nope.yml"),
            (tmp_path / "nope" / ".travis.yml", "nope: missing .travis.yml"),
            (tmp_path, f"{tmp_path.name}: missing .travis.yml"),
        ]:
            code, out, err = run_cli(capsys, "analyze", str(arg))
            assert code == 1
            assert err == f"NotFound: {message}\n"
            assert out == ""

    def test_config_linked_out_of_the_root_exits_1(self, capsys, tmp_path):
        (tmp_path / "outside.yml").write_text("script: flake8 .\n")
        (tmp_path / "repo").mkdir()
        (tmp_path / "repo" / ".travis.yml").symlink_to("../outside.yml")
        for path in [tmp_path / "repo", tmp_path / "repo" / ".travis.yml"]:
            code, out, err = run_cli(capsys, "analyze", str(path))
            assert code == 1
            assert err == "NotFound: repo: .travis.yml resolves outside the repository\n"
            assert out == ""

    def test_no_install_exclusion_flag(self, capsys, tmp_path):
        config = tmp_path / ".travis.yml"
        config.write_text("language: python\nscript: pip install flake8\n")
        code, out, _ = run_cli(capsys, "analyze", str(config))
        assert json.loads(out)["tools"] == {}
        code, out, _ = run_cli(capsys, "analyze", "--no-install-exclusion", str(config))
        assert json.loads(out)["tools"] == {"flake8": "direct"}

    def test_recursive_scripts_flag(self, capsys, tmp_path):
        (tmp_path / "ci").mkdir()
        (tmp_path / ".travis.yml").write_text("language: python\nscript: bash ci/outer.sh\n")
        (tmp_path / "ci" / "outer.sh").write_text("bash ci/inner.sh\n")
        (tmp_path / "ci" / "inner.sh").write_text("ruff check .\n")
        _, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert json.loads(out)["tools"] == {}
        _, out, _ = run_cli(capsys, "analyze", "--recursive-scripts", str(tmp_path))
        assert json.loads(out)["tools"] == {"ruff": "script"}

    def test_late_merging_mode_flag(self, capsys, tmp_path):
        config = tmp_path / ".travis.yml"
        config.write_text(
            "jobs:\n"
            "  include:\n"
            "    - if: type = push AND branch = master\n"
            "      script: flake8 a\n"
            "    - script: flake8 b\n"
        )
        _, out, _ = run_cli(capsys, "analyze", str(config))
        assert json.loads(out)["findings"]["late_merging"] is False
        _, out, _ = run_cli(capsys, "analyze", "--late-merging-mode", "job", str(config))
        assert json.loads(out)["findings"]["late_merging"] is True


class TestScan:
    def test_fixture_corpus_scan(self, capsys, tmp_path):
        out_dir = tmp_path / "report"
        code, out, err = run_cli(capsys, "scan", CORPUS_DIR, "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "report.json").is_file()
        assert (out_dir / "tools.csv").is_file()
        assert "pipelines analyzed: 38" in out
        assert "pipelines with tools: 36" in out

    def test_invalid_utf8_config_warns(self, capsys, tmp_path):
        entry = tmp_path / "corpus" / "latin1"
        entry.mkdir(parents=True)
        (entry / ".travis.yml").write_bytes(INVALID_UTF8_CONFIG)
        code, out, err = run_cli(
            capsys, "scan", str(tmp_path / "corpus"), "--out", str(tmp_path / "out")
        )
        assert code == 0
        assert "latin1: invalid UTF-8 bytes replaced during decoding" in err
        assert "warnings: 1" in out

    def test_scan_deterministic(self, capsys, tmp_path):
        first = tmp_path / "r1"
        second = tmp_path / "r2"
        assert run_cli(capsys, "scan", CORPUS_DIR, "--out", str(first))[0] == 0
        assert run_cli(capsys, "scan", CORPUS_DIR, "--out", str(second))[0] == 0
        for name in sorted(os.listdir(first)):
            a = (first / name).read_bytes()
            b = (second / name).read_bytes()
            assert a == b, name

    def test_scan_workers_deterministic(self, capsys, tmp_path):
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(serial))
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(parallel), "--workers", "4")
        assert (serial / "report.json").read_bytes() == (parallel / "report.json").read_bytes()

    def test_scan_manifest(self, capsys, tmp_path):
        entries = []
        for slug in ("01-direct-flake8-minimal", "05-both-flake8"):
            slug_dir = os.path.join(CORPUS_DIR, slug)
            scripts = []
            for dirpath, _, filenames in os.walk(slug_dir):
                for filename in filenames:
                    rel = os.path.relpath(os.path.join(dirpath, filename), slug_dir)
                    if rel != ".travis.yml":
                        scripts.append(rel.replace(os.sep, "/"))
            entries.append(
                {
                    "repo_slug": slug,
                    "config_path": ".travis.yml",
                    "script_paths": sorted(scripts),
                    "local_root": slug_dir,
                }
            )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 1, "entries": entries}))
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "scan", str(manifest), "--out", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["tool_table"]["flake8"]["pipelines"] == 2
        assert report["tool_table"]["flake8"]["both"] == 1

    def test_corpus_without_tools_exits_0(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "only").mkdir(parents=True)
        (corpus / "only" / ".travis.yml").write_text("language: python\nscript: pytest\n")
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "scan", str(corpus), "--out", str(out_dir))
        assert code == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["tool_table"] == {}

    def test_all_entries_failing_exits_nonzero(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        (corpus / "bad").mkdir(parents=True)
        (corpus / "bad" / ".travis.yml").write_text("services:\n  db: {}\n")
        code, _, err = run_cli(capsys, "scan", str(corpus), "--out", str(tmp_path / "o"))
        assert code == 1

    def test_failing_entry_does_not_abort_run(self, capsys, tmp_path):
        good = os.path.join(CORPUS_DIR, "01-direct-flake8-minimal")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "entries": [
                        {
                            "repo_slug": "gone/away",
                            "config_path": ".travis.yml",
                            "script_paths": [],
                            "local_root": str(tmp_path / "missing"),
                        },
                        {
                            "repo_slug": "acme/good",
                            "config_path": ".travis.yml",
                            "script_paths": [],
                            "local_root": good,
                        },
                    ],
                }
            )
        )
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "scan", str(manifest), "--out", str(out_dir))
        assert code == 0
        assert "gone/away" in err
        report = json.loads((out_dir / "report.json").read_text())
        assert report["totals"]["pipelines"] == 1

    def test_format_restriction(self, capsys, tmp_path):
        out_dir = tmp_path / "json-only"
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(out_dir), "--format", "json")
        assert os.listdir(out_dir) == ["report.json"]
        out_dir2 = tmp_path / "csv-only"
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(out_dir2), "--format", "csv")
        assert "report.json" not in os.listdir(out_dir2)
        assert "tools.csv" in os.listdir(out_dir2)


def _nested_corpus(tmp_path):
    root = tmp_path / "corpus"
    files = [
        "acme/.travis.yml",
        "acme/build.sh",
        "acme/ci/lint.sh",
        "acme/ci/deep/er/run.sh",
        "acme/sub/.travis.yml",
        "beta/.travis.yml",
        "empty/.keep",
    ]
    for rel in files:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("script: flake8 .\n")
    (root / "not-a-slug.txt").write_text("")
    return str(root)


@pytest.mark.parametrize("layout", ["fixture-corpus", "nested", "nested-trailing-sep"])
def test_enumeration_lists_only_the_root(tmp_path, monkeypatch, layout):
    if layout == "fixture-corpus":
        root = CORPUS_DIR
    else:
        root = _nested_corpus(tmp_path)
        if layout == "nested-trailing-sep":
            root += os.sep
    opened = []

    def counting(name):
        real = getattr(os, name)

        def opening(path=".", *args, **kwargs):
            opened.append((name, path))
            return real(path, *args, **kwargs)

        return opening

    for name in ("scandir", "walk", "listdir"):
        monkeypatch.setattr(os, name, counting(name))
    entries = _entries_from_directory(root)
    monkeypatch.undo()
    assert opened == [("scandir", root)]
    assert isinstance(entries, list)
    slugs = sorted(name for name in os.listdir(root) if os.path.isdir(os.path.join(root, name)))
    assert [e.repo_slug for e in entries] == slugs
    for entry in entries:
        assert entry.config_path == ".travis.yml"
        assert entry.local_root == os.path.join(root, entry.repo_slug)
        assert entry.script_paths is None
        assert entry.remote_base_url is None
    if layout != "fixture-corpus":
        assert slugs == ["acme", "beta", "empty"]  # not-a-slug.txt is skipped


def _linked_scripts_repo(root):
    """A repo whose only script is reached through an in-root directory link."""
    (root / "ci").mkdir(parents=True)
    (root / "ci" / "lint.sh").write_text("flake8 .\n")
    (root / "tools").mkdir()
    (root / "tools" / "ci").symlink_to("../ci")
    (root / ".travis.yml").write_text("language: python\nscript: bash tools/ci/lint.sh\n")


def test_scan_and_analyze_resolve_a_script_through_a_linked_directory(capsys, tmp_path):
    _linked_scripts_repo(tmp_path / "corpus" / "acme")
    code, out, err = run_cli(capsys, "analyze", str(tmp_path / "corpus" / "acme"))
    assert code == 0
    data = json.loads(out)
    assert data["tools"] == {"flake8": "script"}
    assert data["warnings"] == []
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "scan", str(tmp_path / "corpus"), "--out", str(out_dir))
    assert code == 0
    assert "unresolved" not in err
    assert "warnings: 0" in out
    report = json.loads((out_dir / "report.json").read_text())
    assert report["tool_table"]["flake8"]["pipelines"] == 1
    assert report["tool_table"]["flake8"]["script"] == 1


class TestFetch:
    BASE = "https://raw.example.org"

    def corpus_manifests(self, tmp_path):
        """A remote and a local manifest of the fixture corpus, each entry
        listing every file of its directory, and the files served."""
        remote, local, files = [], [], {}
        for entry in _entries_from_directory(CORPUS_DIR):
            paths = []
            for directory, _, names in os.walk(entry.local_root):
                for name in names:
                    full = os.path.join(directory, name)
                    path = os.path.relpath(full, entry.local_root).replace(os.sep, "/")
                    paths.append(path)
                    with open(full, "rb") as handle:
                        files[f"{self.BASE}/{entry.repo_slug}/{path}"] = handle.read()
            common = {"repo_slug": entry.repo_slug, "config_path": ".travis.yml",
                      "script_paths": sorted(paths)}
            remote.append({**common, "remote_base_url": f"{self.BASE}/{entry.repo_slug}"})
            local.append({**common, "local_root": entry.local_root})
        paths = []
        for name, entries in (("remote.json", remote), ("local.json", local)):
            (tmp_path / name).write_text(json.dumps({"schema_version": 1, "entries": entries}))
            paths.append(str(tmp_path / name))
        return paths, files

    @staticmethod
    def serve(monkeypatch, session):
        """Make `requests.Session()` open `session`."""
        monkeypatch.setitem(
            sys.modules, "requests", types.SimpleNamespace(Session=lambda: nullcontext(session))
        )

    def test_scan_of_a_remote_entry_exits_1_naming_fetch(self, capsys, tmp_path):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 1, "entries": [
            {"repo_slug": "acme/remote", "config_path": ".travis.yml",
             "remote_base_url": "https://raw.example.org/acme/remote/main"},
        ]}))
        out_dir = tmp_path / "out"
        code, out, err = run_cli(capsys, "scan", str(manifest), "--out", str(out_dir))
        assert code == 1
        assert out == ""
        assert not out_dir.exists()
        assert err.startswith("ManifestParseError: acme/remote: ")
        assert "`tdmscan fetch`" in err

    def test_fetch_then_scan_equals_a_local_scan(self, capsys, tmp_path, monkeypatch):
        (remote, local), files = self.corpus_manifests(tmp_path)
        session = ServingSession(files, FakeResponse)
        self.serve(monkeypatch, session)
        fetched = tmp_path / "fetched"
        code, out, err = run_cli(
            capsys, "fetch", remote, "--out", str(fetched), "--workers", "2"
        )
        assert (code, out, err) == (0, f"{fetched / 'manifest.json'}\n", "")
        assert sorted(session.calls) == sorted(files)
        for manifest, out_dir in ((fetched / "manifest.json", "a"), (local, "b")):
            code, _, _ = run_cli(capsys, "scan", str(manifest), "--out", str(tmp_path / out_dir))
            assert code == 0
        report = (tmp_path / "a" / "report.json").read_bytes()
        assert report == (tmp_path / "b" / "report.json").read_bytes()

    def test_failed_entries_exit_1_naming_each(self, capsys, tmp_path, monkeypatch):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"schema_version": 1, "entries": [
            {"repo_slug": slug, "config_path": ".travis.yml",
             "remote_base_url": f"https://raw.example.org/{index}"}
            for index, slug in enumerate(["..", "acme/a"])
        ]}))
        self.serve(monkeypatch, RaisingSession(TypeError("unexpected keyword")))
        out_dir = tmp_path / "fetched"
        code, _, err = run_cli(capsys, "fetch", str(manifest), "--out", str(out_dir))
        assert code == 1
        assert err.splitlines() == [
            "..: slug '..' cannot name a directory; nothing fetched",
            "acme/a: unexpected keyword",
        ]
        written = json.loads((out_dir / "manifest.json").read_text())
        assert written["entries"] == []
        assert sorted(written["failed"]) == ["..", "acme/a"]
        assert os.listdir(out_dir) == ["manifest.json"]


class TestRegistryValidate:
    def test_shipped_registry_ok(self, capsys):
        code, out, _ = run_cli(capsys, "registry-validate")
        assert code == 0
        assert out.strip() == "38 tools, OK"

    def test_missing_field_reports_path(self, capsys, tmp_path):
        registry = {
            "version": "1",
            "tools": [
                {
                    "id": "x",
                    "display_name": "X",
                    "patterns": ["x"],
                    "tool_type": "linter",
                    "tdm_activity": ["identification"],
                }
            ],
        }
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(registry))
        code, _, err = run_cli(capsys, "registry-validate", str(path))
        assert code == 1
        assert "tools[0].debt_type" in err

    def test_uncompilable_pattern(self, capsys, tmp_path):
        registry = {
            "version": "1",
            "tools": [
                {
                    "id": "x",
                    "display_name": "X",
                    "patterns": ["(bad"],
                    "tool_type": "linter",
                    "tdm_activity": ["identification"],
                    "debt_type": "code",
                }
            ],
        }
        path = tmp_path / "registry.json"
        path.write_text(json.dumps(registry))
        code, _, err = run_cli(capsys, "registry-validate", str(path))
        assert code == 1
        assert "InvalidPattern" in err

    def test_custom_registry_used_by_analyze(self, capsys, tmp_path):
        registry = {
            "version": "custom",
            "tools": [
                {
                    "id": "mytool",
                    "display_name": "MyTool",
                    "patterns": ["mytool"],
                    "tool_type": "linter",
                    "tdm_activity": ["identification"],
                    "debt_type": "code",
                }
            ],
        }
        registry_path = tmp_path / "registry.json"
        registry_path.write_text(json.dumps(registry))
        config = tmp_path / ".travis.yml"
        config.write_text("language: python\nscript: mytool run\n")
        code, out, _ = run_cli(
            capsys, "analyze", "--registry", str(registry_path), str(config)
        )
        assert code == 0
        assert json.loads(out)["tools"] == {"mytool": "direct"}


class TestReportCommand:
    def test_json_to_csv_conversion(self, capsys, tmp_path):
        scan_out = tmp_path / "scan"
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(scan_out), "--format", "json")
        converted = tmp_path / "converted"
        code, out, _ = run_cli(
            capsys, "report", str(scan_out / "report.json"), "--out", str(converted)
        )
        assert code == 0
        direct = tmp_path / "direct"
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(direct), "--format", "csv")
        for name in os.listdir(direct):
            assert (converted / name).read_bytes() == (direct / name).read_bytes()

    def test_bad_report_exits_1(self, capsys, tmp_path):
        path = tmp_path / "r.json"
        path.write_text("{broken")
        code, _, err = run_cli(capsys, "report", str(path))
        assert code == 1

    def test_json_round_trip(self, capsys, tmp_path):
        scan_out = tmp_path / "scan"
        run_cli(capsys, "scan", CORPUS_DIR, "--out", str(scan_out), "--format", "json")
        converted = tmp_path / "converted"
        code, _, _ = run_cli(
            capsys,
            "report",
            str(scan_out / "report.json"),
            "--out",
            str(converted),
            "--format",
            "json",
        )
        assert code == 0
        saved = (scan_out / "report.json").read_bytes()
        assert (converted / "report.json").read_bytes() == saved

    @pytest.mark.parametrize(
        "content",
        [
            "[]",
            '{"tool_table": []}',
            '{"cooccurrence": [{"tools": ["a"], "pipelines": 1}]}',
            '{"tools_per_pipeline": {"x": 1}}',
            '{"per_tool_antipattern": {"t": {"absent_feedback": {}}}}',
            '{"antipattern_prevalence": {"absent_feedback": {"count": 1}}}',
        ],
        ids=[
            "top-level-list",
            "table-not-object",
            "one-tool-pair",
            "non-int-key",
            "per-tool-row-without-percent",
            "prevalence-row-without-percent",
        ],
    )
    def test_malformed_report_exits_1(self, capsys, tmp_path, content):
        path = tmp_path / "r.json"
        path.write_text(content)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, "report", str(path), "--out", str(out_dir))
        assert code == 1
        assert err.startswith("cannot read report: ")
        assert not out_dir.exists()


@pytest.mark.parametrize("command", ["scan", "report"])
def test_unknown_format_exits_2(capsys, tmp_path, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, str(tmp_path), "--format", "xml"])
    assert exit_info.value.code == 2


def test_throughput_10k_configs_under_60s(registry):
    """Single-worker engineering target on synthetic small configs."""
    from tdmscan.analyzer import AnalysisOptions, analyze_document
    from tdmscan.config_model import RawDocument

    # Every config has its own command argument, so no call is a memo hit.
    bodies = [
        "language: python\nscript: flake8 src{i}\n",
        "language: go\nscript:\n  - go vet ./pkg{i}/...\n  - make test\n",
        "language: shell\nscript: shellcheck run{i}.sh\n"
        "notifications:\n  email: true\n",
        "language: node_js\nscript: npm test -- --shard {i}\n",
    ]
    tree = MappingTree({})
    options = AnalysisOptions()
    start = time.monotonic()
    for i in range(10_000):
        doc = RawDocument(f"r{i}", ".travis.yml", bodies[i % len(bodies)].format(i=i))
        analyze_document(doc, tree, registry, options)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
