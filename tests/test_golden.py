"""Golden bytes: the reports over the fixture corpus are pinned by sha256.

A refactor that claims "every report byte unchanged" passes these two tests
without further evidence.  A change that is meant to alter a report must
update the digests and say why.
"""

import hashlib
import os

from tdmscan.cli import main

from conftest import CORPUS_DIR

SCAN_SHA256 = "cd790bbb55ddb78728bf392f6c039765f9f12bde4c221783f890f89953e00749"
ANALYZE_SHA256 = "eae6bd8b5ca841c3f9ec5cf31713c797eff57466e7c070bde29ed58d3e7bd039"


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


def test_analyze_json_bytes(capsys):
    digest = hashlib.sha256()
    names = sorted(os.listdir(CORPUS_DIR))
    assert len(names) == 39
    not_pipelines = []
    for name in names:
        code = main(["analyze", os.path.join(CORPUS_DIR, name)])
        if code == 2:
            not_pipelines.append(name)
        else:
            assert code == 0, name
        digest.update(capsys.readouterr().out.encode("utf-8"))
    assert not_pipelines == ["34-not-a-pipeline"]
    assert digest.hexdigest() == ANALYZE_SHA256
