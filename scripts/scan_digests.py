"""Print the sha256 digests of one `tdmscan scan` run as one JSON line.

    python scripts/scan_digests.py CORPUS [scan flags]

Runs `tdmscan scan CORPUS --out <temporary directory> [scan flags]` in this
process, with tdmscan imported from this checkout's `src/`, and prints the
digest of the report (`report.json`, then the CSV files in sorted name order,
as tests/test_golden.py digests it), of standard output and of standard
error.  Then it runs `tdmscan analyze` over each entry directory of CORPUS
in name order (none when CORPUS is a manifest), with the scan's analysis
options, and prints the digest of their standard output, as
tests/test_golden.py digests the fixtures'.  Two checkouts whose lines are
equal wrote the same bytes.  A scan that exits nonzero prints its standard
error and no digests, and the script exits with the scan's code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tdmscan.cli import _build_parser, main as tdmscan_main  # noqa: E402


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_sha256(out_dir: str) -> str:
    """The digest of `report.json`, then every CSV file in sorted name order."""
    digest = hashlib.sha256()
    csvs = sorted(name for name in os.listdir(out_dir) if name.endswith(".csv"))
    for name in ["report.json", *csvs]:
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def analysis_flags(scan: list[str]) -> list[str]:
    """The options among the arguments `scan` of `tdmscan scan` that
    `tdmscan analyze` takes too."""
    args = _build_parser().parse_args(["scan", *scan])
    flags = ["--late-merging-mode", args.late_merging_mode]
    if args.registry:
        flags += ["--registry", args.registry]
    if not args.install_exclusion:
        flags.append("--no-install-exclusion")
    if args.recursive_scripts:
        flags.append("--recursive-scripts")
    return flags


def analyze_sha256(corpus: str, flags: list[str]) -> str:
    """The digest of `tdmscan analyze FLAGS ENTRY`'s standard output, run
    over each entry directory of `corpus` in name order."""
    names = []
    if os.path.isdir(corpus):
        with os.scandir(corpus) as listing:
            names = sorted(item.name for item in listing if item.is_dir())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        for name in names:
            tdmscan_main(["analyze", os.path.join(corpus, name), *flags])
    return _sha256(stdout.getvalue())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("corpus", help="a corpus directory or manifest, as `tdmscan scan` reads")
    parser.add_argument("flags", nargs=argparse.REMAINDER, help="further `tdmscan scan` flags")
    args = parser.parse_args(argv)
    stdout, stderr = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = tdmscan_main(["scan", args.corpus, "--out", out, *args.flags])
        if code != 0:
            sys.stderr.write(stderr.getvalue())
            return code
        report = report_sha256(out)
    digests = {
        "report": report,
        "stdout": _sha256(stdout.getvalue()),
        "stderr": _sha256(stderr.getvalue()),
        "analyze": analyze_sha256(args.corpus, analysis_flags([args.corpus, *args.flags])),
    }
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
