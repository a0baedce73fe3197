"""Spans around tdmscan's layer calls, taken from outside the program.

`Tracer.install` replaces the module and class attributes through which the
scan reaches each layer (for example `tdmscan.analyzer.parse_config` or
`tdmscan.registry.detect_in_text`) with wrappers that record a span per call:
name, start, end, parent span and entry id. Spans stay in memory and are
written out after the scan. A target that no longer exists is listed as
missing, and the metrics that depend only on missing targets are left out.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from time import perf_counter


def _slug(obj) -> str | None:
    return getattr(obj, "repo_slug", None)


def _count_read(counters, tracer, args, result):
    if result is not None:
        counters["ingest.files_read"] += 1
        counters["ingest.bytes_read"] += len(result.encode("utf-8"))


def _count_parse(counters, tracer, args, cfg):
    counters["config_model.jobs"] += len(cfg.jobs)
    counters["config_model.command_lines"] += sum(
        len(commands) for job in cfg.jobs for commands in job.phases.values()
    )


def _count_scripts(counters, tracer, args, result):
    docs = result[0]
    counters["script_resolver.scripts"] += len(docs)
    counters["script_resolver.unresolved"] += sum(1 for doc in docs if not doc.resolved)


def _count_detect(counters, tracer, args, detections):
    text = args[0]
    counters["registry.detect_bytes"] += len(text.encode("utf-8"))
    counters["registry.detections"] += len(detections)
    tracer.texts.add((tracer.entry, hash(text)))


def _count_placements(counters, tracer, args, results):
    counters["placement.results"] += len(results)


def _count_findings(counters, tracer, args, findings):
    counters["antipatterns.findings"] += len(findings.true_findings())


def _count_export(counters, tracer, args, result):
    blobs = result.values() if isinstance(result, dict) else [result]
    counters["analytics.export_bytes"] += sum(len(blob) for blob in blobs)


# (span name, module, attribute path, entry id from the first argument,
#  counter). The module is the one the caller looks the name up in.
WRAPS = (
    ("cli.enumerate", "tdmscan.cli", "_entries_from_directory", None, None),
    ("cli.write", "tdmscan.cli", "_write_outputs", None, None),
    ("ingest.materialize", "tdmscan.analyzer", "materialize", _slug, None),
    ("ingest.read_config", "tdmscan.ingest", "_read_local_file", None, _count_read),
    ("ingest.tree_read", "tdmscan.ingest", "LocalTree.read", None, _count_read),
    ("analyzer.analyze_document", "tdmscan.analyzer", "analyze_document", _slug, None),
    ("config_model.parse_config", "tdmscan.analyzer", "parse_config", None, _count_parse),
    (
        "script_resolver.collect",
        "tdmscan.analyzer",
        "collect_script_documents",
        None,
        _count_scripts,
    ),
    ("registry.profile_pipeline", "tdmscan.analyzer", "profile_pipeline", None, None),
    ("registry.detect_in_text", "tdmscan.registry", "detect_in_text", None, _count_detect),
    (
        "placement.classify_pipeline",
        "tdmscan.analyzer",
        "classify_pipeline",
        None,
        _count_placements,
    ),
    ("placement.classify_timing", "tdmscan.placement", "classify_timing", None, None),
    ("antipatterns.evaluate", "tdmscan.analyzer", "evaluate", None, _count_findings),
    ("analytics.aggregator_add", "tdmscan.analytics", "Aggregator.add", None, None),
    ("analytics.aggregator_report", "tdmscan.analytics", "Aggregator.report", None, None),
    ("analytics.export_json", "tdmscan.cli", "export_json", None, _count_export),
    ("analytics.export_csv", "tdmscan.cli", "export_csv_bundle", None, _count_export),
)

# Per-layer metric -> (kind, spans it is computed from). "busy" sums span
# durations, "self" sums durations minus child spans, "calls" counts spans,
# "count" reads the counter of the same name. A metric is missing when none
# of its spans could be installed.
LAYER_METRICS = {
    "cli.enumerate_s": ("busy", ("cli.enumerate",)),
    "cli.write_s": ("busy", ("cli.write",)),
    "ingest.materialize_s": ("busy", ("ingest.materialize",)),
    "ingest.files_read": ("count", ("ingest.read_config", "ingest.tree_read")),
    "ingest.bytes_read": ("count", ("ingest.read_config", "ingest.tree_read")),
    "config_model.parse_s": ("busy", ("config_model.parse_config",)),
    "config_model.parse_calls": ("calls", ("config_model.parse_config",)),
    "config_model.jobs": ("count", ("config_model.parse_config",)),
    "config_model.command_lines": ("count", ("config_model.parse_config",)),
    "script_resolver.collect_s": ("busy", ("script_resolver.collect",)),
    "script_resolver.scripts": ("count", ("script_resolver.collect",)),
    "script_resolver.unresolved": ("count", ("script_resolver.collect",)),
    "registry.profile_s": ("busy", ("registry.profile_pipeline",)),
    "registry.detect_s": ("busy", ("registry.detect_in_text",)),
    "registry.detect_calls": ("calls", ("registry.detect_in_text",)),
    "registry.detect_bytes": ("count", ("registry.detect_in_text",)),
    "registry.detections": ("count", ("registry.detect_in_text",)),
    "registry.distinct_text_share": ("count", ("registry.detect_in_text",)),
    "placement.classify_s": ("busy", ("placement.classify_pipeline",)),
    "placement.timing_s": ("busy", ("placement.classify_timing",)),
    "placement.timing_calls": ("calls", ("placement.classify_timing",)),
    "placement.results": ("count", ("placement.classify_pipeline",)),
    "antipatterns.evaluate_s": ("busy", ("antipatterns.evaluate",)),
    "antipatterns.findings": ("count", ("antipatterns.evaluate",)),
    "analytics.aggregate_s": (
        "busy",
        ("analytics.aggregator_add", "analytics.aggregator_report"),
    ),
    "analytics.export_s": ("busy", ("analytics.export_json", "analytics.export_csv")),
    "analytics.export_bytes": ("count", ("analytics.export_json", "analytics.export_csv")),
    "analyzer.analyze_s": ("busy", ("analyzer.analyze_document",)),
    "analyzer.self_s": ("self", ("analyzer.analyze_document",)),
}


class Tracer:
    """Collects spans and counters from wrapped layer calls in one process."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.entry: str | None = None
        self.counters: Counter[str] = Counter()
        self.texts: set[tuple[str | None, int]] = set()
        self.installed: list[str] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for name, module_name, path, entry_of, count in WRAPS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None) if owner is not None else None
            target = getattr(owner, attr, None) if owner is not None else None
            if target is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(name, target, entry_of, count))
            self.installed.append(name)

    def _wrap(self, name, target, entry_of, count):
        spans, stack, counters = self.spans, self.stack, self.counters

        def wrapper(*args, **kwargs):
            if not stack:
                self.entry = entry_of(args[0]) if entry_of else None
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.entry)
            if count is not None:
                count(counters, self, args, result)
            return result

        return wrapper

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy seconds, and self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _entry in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = {}
        for index, (name, start, end, _parent, _entry) in enumerate(self.spans):
            row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["busy_s"] += end - start
            row["self_s"] += end - start - child_time[index]
        return table

    def layer_metrics(self) -> dict[str, float]:
        """Every LAYER_METRICS value whose spans were installed."""
        table = self.span_table()
        empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        counters = dict(self.counters)
        scans = table.get("registry.detect_in_text", empty)["calls"]
        counters["registry.distinct_text_share"] = len(self.texts) / scans if scans else 0.0
        column = {"busy": "busy_s", "self": "self_s", "calls": "calls"}
        metrics: dict[str, float] = {}
        for metric, (kind, names) in LAYER_METRICS.items():
            present = [n for n in names if n in self.installed]
            if not present:
                continue
            if kind == "count":
                metrics[metric] = counters.get(metric, 0)
            else:
                metrics[metric] = sum(table.get(n, empty)[column[kind]] for n in present)
        return metrics

    def write(self, path: str, header: dict) -> None:
        """Spans as JSON lines after one header line; times in seconds."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "fields": ["name", "start", "end", "parent", "entry"]}))
            handle.write("\n")
            for span in self.spans:
                handle.write(json.dumps(span))
                handle.write("\n")
