"""Golden bytes: the reports over the fixture corpus, and the scan's
standard output and error, are pinned by sha256.

A refactor that claims "every report byte unchanged" passes these tests
without further evidence.  The default options are pinned, and so are the
non-default ones that take the other branches of script resolution,
detection and placement.  A change that is meant to alter a report must
update the digests and say why.
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from tdmscan.cli import main

from conftest import CORPUS_DIR

SCAN_SHA256 = "cd790bbb55ddb78728bf392f6c039765f9f12bde4c221783f890f89953e00749"
ANALYZE_SHA256 = "eae6bd8b5ca841c3f9ec5cf31713c797eff57466e7c070bde29ed58d3e7bd039"

OTHER_OPTIONS = [
    "--no-install-exclusion",
    "--recursive-scripts",
    "--late-merging-mode",
    "job",
]
OTHER_SCAN_SHA256 = "13b9bd36d68877e42e6a9c58fae2e638c5059b3b3e81877ba12382a889e7e2c8"
OTHER_ANALYZE_SHA256 = "133c9c634ad072023b13aebbd3dc4d881c2726832c483f9ed954dfbda9c9f1dd"

# The default scan's standard output (the summary), then its standard error
# (every warning line).
SCAN_STREAMS_SHA256 = "80ba64c236079cb2f5744b87af6eae2638ff8bbd251b23961f527100974cc55c"

SCAN_DIGESTS = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "scan_digests.py"
)


def _scan_digest(out, capsys, *flags) -> str:
    assert main(["scan", CORPUS_DIR, "--out", str(out), *flags]) == 0
    capsys.readouterr()
    csvs = sorted(name for name in os.listdir(out) if name.endswith(".csv"))
    assert len(csvs) == 8
    digest = hashlib.sha256()
    for name in ["report.json", *csvs]:
        digest.update((out / name).read_bytes())
    return digest.hexdigest()


def test_scan_report_bytes(tmp_path, capsys):
    assert _scan_digest(tmp_path / "out", capsys) == SCAN_SHA256


def test_scan_report_bytes_at_two_workers(tmp_path, capsys):
    assert _scan_digest(tmp_path / "out", capsys, "--workers", "2") == SCAN_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_report_bytes_under_other_options(tmp_path, capsys, workers):
    digest = _scan_digest(tmp_path / "out", capsys, "--workers", workers, *OTHER_OPTIONS)
    assert digest == OTHER_SCAN_SHA256


@pytest.mark.parametrize("workers", ["1", "2"])
def test_scan_stream_bytes(tmp_path, capsys, workers):
    assert main(["scan", CORPUS_DIR, "--out", str(tmp_path / "out"), "--workers", workers]) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256((out + err).encode("utf-8")).hexdigest() == SCAN_STREAMS_SHA256


@pytest.mark.parametrize(
    "flags, expected", [([], SCAN_SHA256), (OTHER_OPTIONS, OTHER_SCAN_SHA256)]
)
def test_scan_digests_script_prints_the_report_digest(flags, expected):
    done = subprocess.run(
        [sys.executable, SCAN_DIGESTS, CORPUS_DIR, *flags],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    digests = json.loads(done.stdout)
    assert sorted(digests) == ["analyze", "report", "stderr", "stdout"]
    assert digests["report"] == expected
    assert digests["analyze"] == (OTHER_ANALYZE_SHA256 if flags else ANALYZE_SHA256)


def _analyze_digest(capsys, *flags) -> str:
    digest = hashlib.sha256()
    names = sorted(os.listdir(CORPUS_DIR))
    assert len(names) == 39
    not_pipelines = []
    for name in names:
        code = main(["analyze", os.path.join(CORPUS_DIR, name), *flags])
        if code == 2:
            not_pipelines.append(name)
        else:
            assert code == 0, name
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert not_pipelines == ["34-not-a-pipeline"]
    return digest.hexdigest()


def test_analyze_json_bytes(capsys):
    assert _analyze_digest(capsys) == ANALYZE_SHA256


def test_analyze_json_bytes_under_other_options(capsys):
    assert _analyze_digest(capsys, *OTHER_OPTIONS) == OTHER_ANALYZE_SHA256
