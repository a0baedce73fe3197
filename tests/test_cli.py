import json
import os
import shutil
import time

import pytest

from tdmscan.cli import _entries_from_directory, main
from tdmscan.ingest import ManifestEntry

from conftest import CORPUS_DIR, EXAMPLE_CONFIG


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

    def test_directory_with_scripts(self, capsys, tmp_path):
        (tmp_path / "ci").mkdir()
        (tmp_path / ".travis.yml").write_text("language: sh\nscript: ./ci/check.sh\n")
        (tmp_path / "ci" / "check.sh").write_text("shellcheck run.sh\n")
        code, out, _ = run_cli(capsys, "analyze", str(tmp_path))
        assert code == 0
        data = json.loads(out)
        assert data["tools"] == {"shellcheck": "script"}
        assert any(d["script"] == "ci/check.sh" for d in data["detections"])

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


def _entries_by_relpath(root):
    """Directory enumeration with os.path.relpath: the reference construction."""
    entries = []
    for name in sorted(os.listdir(root)):
        slug_dir = os.path.join(root, name)
        if not os.path.isdir(slug_dir):
            continue
        scripts = []
        for dirpath, _, filenames in os.walk(slug_dir):
            for filename in filenames:
                rel = os.path.relpath(os.path.join(dirpath, filename), slug_dir)
                rel = rel.replace(os.sep, "/")
                if rel != ".travis.yml":
                    scripts.append(rel)
        entries.append(
            ManifestEntry(name, ".travis.yml", tuple(sorted(scripts)), local_root=slug_dir)
        )
    return entries


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
def test_enumeration_matches_relpath_construction(tmp_path, layout):
    if layout == "fixture-corpus":
        root = CORPUS_DIR
    else:
        root = _nested_corpus(tmp_path)
        if layout == "nested-trailing-sep":
            root += os.sep
    entries = _entries_from_directory(root)
    assert entries == _entries_by_relpath(root)
    if layout != "fixture-corpus":
        acme = entries[0]
        assert acme.script_paths == (
            "build.sh",
            "ci/deep/er/run.sh",
            "ci/lint.sh",
            "sub/.travis.yml",
        )
        assert [e.repo_slug for e in entries] == ["acme", "beta", "empty"]


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
    from tdmscan.script_resolver import MappingTree

    bodies = [
        "language: python\nscript: flake8 .\n",
        "language: go\nscript:\n  - go vet ./...\n  - make test\n",
        "language: shell\nscript: shellcheck run.sh\nnotifications:\n  email: true\n",
        "language: node_js\nscript: npm test\n",
    ]
    tree = MappingTree({})
    options = AnalysisOptions()
    start = time.monotonic()
    for i in range(10_000):
        doc = RawDocument(f"r{i}", ".travis.yml", bodies[i % len(bodies)])
        analyze_document(doc, tree, registry, options)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
