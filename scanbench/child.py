"""One measured step of the scan benchmark, run in a fresh process.

Usage:
    python child.py setup SRC
    python child.py scan SRC CORPUS OUT WORKERS
    python child.py trace SRC CORPUS OUT SPANS_FILE

Every mode first imports tdmscan from SRC and loads the shipped registry,
timing that as set-up. `scan` then does the work of
`tdmscan scan CORPUS --out OUT --workers WORKERS`; with one worker it also
times each entry's materialize + analyze_document. `trace` does the
one-worker scan with every layer call wrapped in a span. The last line of
standard output is one JSON object with the measurements.
"""

import sys
import time

_START = time.perf_counter()


def _setup(src: str):
    sys.path.insert(0, src)
    import tdmscan  # noqa: F401 - set-up includes importing the package
    from tdmscan.registry import shipped_registry

    return shipped_registry()


_CAL_DOC = "language: python\nstages: [lint, test]\njobs:\n  include:\n" + "".join(
    f"    - stage: lint\n      script:\n        - flake8 src/m{i}\n        - make test\n"
    for i in range(12)
)
_CAL_WORDS = ("bandit", "black", "flake8", "pylint", "mypy", "eslint", "go\\s+vet", "cppcheck")
_CAL_LINES = tuple(f"make test && flake8 src/m{i} | tee out{i}.log" for i in range(40))


def calibrate() -> float:
    """Seconds one fixed interpreter workload takes; it uses no tdmscan code.

    YAML parsing, regex search and arithmetic, like the scan's own mix, so
    its time tracks how fast this machine runs the scan right now.
    """
    import re

    import yaml

    boundary = "[\\s;|&()<>'\"`:,]"
    patterns = [
        re.compile(f"(?:^|(?<={boundary}))(?:{word})(?=$|{boundary})") for word in _CAL_WORDS
    ]
    start = time.perf_counter()
    hits = 0
    for _ in range(3):
        yaml.load(_CAL_DOC, Loader=yaml.SafeLoader)
        for line in _CAL_LINES:
            for segment in re.split(r"&&|\|\||;|\||&", line):
                hits += sum(1 for pattern in patterns if pattern.search(segment))
    total = 0
    for k in range(200_000):
        total += k * k
    return time.perf_counter() - start


def _time_entries(analyzer) -> dict[str, float]:
    """Wrap the two per-entry calls of a one-worker scan with a timer."""
    latency: dict[str, float] = {}

    def timed(target):
        def wrapper(first, *args, **kwargs):
            start = time.perf_counter()
            try:
                return target(first, *args, **kwargs)
            finally:
                slug = first.repo_slug
                latency[slug] = latency.get(slug, 0.0) + time.perf_counter() - start

        return wrapper

    analyzer.materialize = timed(analyzer.materialize)
    analyzer.analyze_document = timed(analyzer.analyze_document)
    return latency


def _scan(registry, corpus: str, out_dir: str, workers: int) -> dict:
    from tdmscan import analyzer, cli

    start = time.perf_counter()
    entries = cli._entries_from_directory(corpus)
    result = analyzer.scan_entries(
        entries, registry, analyzer.AnalysisOptions(), workers=workers
    )
    cli._write_outputs(result.report, out_dir, None)
    scan_s = time.perf_counter() - start
    return {
        "scan_s": scan_s,
        "entries": len(entries),
        "statuses": {entry.slug: entry.status for entry in result.entries},
    }


def _peak_rss_mib() -> float:
    """Peak RSS of this process, or of a worker process if one grew larger."""
    import resource

    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def main(argv: list[str]) -> int:
    mode, src = argv[0], argv[1]
    registry = _setup(src)
    out = {"setup_s": time.perf_counter() - _START, "cal_s": [calibrate(), calibrate()]}
    if mode == "scan":
        corpus, out_dir, workers = argv[2], argv[3], int(argv[4])
        from tdmscan import analyzer

        latency = _time_entries(analyzer) if workers == 1 else None
        out.update(_scan(registry, corpus, out_dir, workers))
        out["peak_rss_mib"] = _peak_rss_mib()
        if latency is not None:
            out["latency_ms"] = [latency[slug] * 1000.0 for slug in sorted(latency)]
    elif mode == "trace":
        corpus, out_dir, spans_file = argv[2], argv[3], argv[4]
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        out.update(_scan(registry, corpus, out_dir, 1))
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.span_table()
        out["missing"] = tracer.missing
        tracer.write(spans_file, {"corpus": corpus, "scan_s": out["scan_s"]})
    elif mode != "setup":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    out["cal_s"] += [calibrate(), calibrate()]
    import json

    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
