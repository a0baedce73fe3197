"""Print the sha256 digests of one `tdmscan scan` run as one JSON line.

    python scripts/scan_digests.py CORPUS [scan flags]

Runs `tdmscan scan CORPUS --out <temporary directory> [scan flags]` in this
process, with tdmscan imported from this checkout's `src/`, and prints the
digest of the report (`report.json`, then the CSV files in sorted name order,
as tests/test_golden.py digests it), of standard output and of standard
error.  Two checkouts whose lines are equal wrote the same bytes.  A scan that
exits nonzero prints its standard error and no digests, and the script exits
with the scan's code.
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

from tdmscan.cli import main as tdmscan_main  # noqa: E402


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
    }
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
