"""Corpus-level aggregation into frequency tables and report export.

Counting rules: a tool counts once per pipeline regardless of detection
multiplicity; co-occurrence counts each unordered tool pair once per
pipeline; job-level tables count (job, source) rows so a job invoking tools
both directly and via scripts appears in both columns.  Percentages round
half away from zero to one decimal.  Exports are byte-deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from itertools import combinations
from typing import Any, Iterable, Mapping

from .antipatterns import FINDING_NAMES, FindingSet
from .placement import PlacementKind, PlacementResult, TimingKind
from .registry import (
    INVOCATION_BOTH,
    INVOCATION_DIRECT,
    INVOCATION_SCRIPT,
    PipelineToolProfile,
    SOURCE_CONFIG,
)

SCHEMA_VERSION = "1.0"

CSV_FILES = (
    "tools.csv",
    "cooccurrence.csv",
    "antipatterns.csv",
    "antipattern_matrix.csv",
    "per_tool_antipattern.csv",
    "stage_names.csv",
    "placement.csv",
    "timing.csv",
)

_SOURCES = ("direct", "script")
_PLACEMENT_ORDER = (
    PlacementKind.DEDICATED_STAGE.value,
    PlacementKind.DEDICATED_JOB.value,
    PlacementKind.MIXED_JOB.value,
)
_TIMING_ORDER = (TimingKind.PRE_DEPLOYMENT.value, TimingKind.POST_DEPLOYMENT.value)


class DivisionByZero(ZeroDivisionError):
    """percent() was called with a zero denominator."""


class UnsupportedFormat(ValueError):
    """export_report() received an unknown format name."""


def percent(numerator: int, denominator: int) -> float:
    """Percentage rounded half away from zero to one decimal place."""
    if denominator == 0:
        raise DivisionByZero("denominator must be > 0")
    value = Decimal(numerator) * 100 / Decimal(denominator)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


@dataclass
class PipelineRecord:
    """Per-pipeline analysis result, the unit of aggregation."""

    repo_slug: str
    profile: PipelineToolProfile
    placements: list[PlacementResult]
    findings: FindingSet


@dataclass
class CorpusReport:
    """All aggregate tables for one analysis run."""

    schema_version: str
    registry_version: str
    totals: dict[str, int]
    tool_table: dict[str, dict[str, int]]
    tools_per_pipeline: dict[int, int]
    cooccurrence: dict[tuple[str, str], int]
    antipattern_prevalence: dict[str, dict[str, Any]]
    antipattern_matrix: dict[str, dict[str, int]]
    per_tool_antipattern: dict[str, dict[str, dict[str, Any]]]
    stage_names: dict[str, dict[str, int]]
    placement: dict[str, dict[str, int]]
    timing: dict[str, dict[str, int]]
    late_merging_counts: dict[str, int]
    findings_per_pipeline: dict[str, dict[str, bool]]
    findings_count_histogram: dict[int, int]

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "registry_version": self.registry_version,
            "totals": dict(self.totals),
            "tool_table": {t: dict(row) for t, row in sorted(self.tool_table.items())},
            "tools_per_pipeline": {
                str(k): v for k, v in sorted(self.tools_per_pipeline.items())
            },
            "cooccurrence": [
                {"tools": [a, b], "pipelines": n}
                for (a, b), n in sorted(
                    self.cooccurrence.items(), key=lambda kv: (-kv[1], kv[0])
                )
            ],
            "antipattern_prevalence": {
                f: dict(row) for f, row in self.antipattern_prevalence.items()
            },
            "antipattern_matrix": {
                f: dict(row) for f, row in self.antipattern_matrix.items()
            },
            "per_tool_antipattern": {
                t: {f: dict(cell) for f, cell in rows.items()}
                for t, rows in sorted(self.per_tool_antipattern.items())
            },
            "stage_names": {s: dict(row) for s, row in sorted(self.stage_names.items())},
            "placement": {s: dict(row) for s, row in self.placement.items()},
            "timing": {s: dict(row) for s, row in self.timing.items()},
            "late_merging_counts": dict(self.late_merging_counts),
            "findings_per_pipeline": {
                slug: dict(flags)
                for slug, flags in sorted(self.findings_per_pipeline.items())
            },
            "findings_count_histogram": {
                str(k): v for k, v in sorted(self.findings_count_histogram.items())
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CorpusReport":
        return cls(
            schema_version=str(data.get("schema_version", SCHEMA_VERSION)),
            registry_version=str(data.get("registry_version", "")),
            totals={k: int(v) for k, v in data.get("totals", {}).items()},
            tool_table={
                t: {k: int(v) for k, v in row.items()}
                for t, row in data.get("tool_table", {}).items()
            },
            tools_per_pipeline={
                int(k): int(v) for k, v in data.get("tools_per_pipeline", {}).items()
            },
            cooccurrence={
                (entry["tools"][0], entry["tools"][1]): int(entry["pipelines"])
                for entry in data.get("cooccurrence", [])
            },
            antipattern_prevalence={
                f: dict(row) for f, row in data.get("antipattern_prevalence", {}).items()
            },
            antipattern_matrix={
                f: {k: int(v) for k, v in row.items()}
                for f, row in data.get("antipattern_matrix", {}).items()
            },
            per_tool_antipattern={
                t: {f: dict(cell) for f, cell in rows.items()}
                for t, rows in data.get("per_tool_antipattern", {}).items()
            },
            stage_names={
                s: {k: int(v) for k, v in row.items()}
                for s, row in data.get("stage_names", {}).items()
            },
            placement={
                s: {k: int(v) for k, v in row.items()}
                for s, row in data.get("placement", {}).items()
            },
            timing={
                s: {k: int(v) for k, v in row.items()}
                for s, row in data.get("timing", {}).items()
            },
            late_merging_counts={
                k: int(v) for k, v in data.get("late_merging_counts", {}).items()
            },
            findings_per_pipeline={
                slug: {k: bool(v) for k, v in flags.items()}
                for slug, flags in data.get("findings_per_pipeline", {}).items()
            },
            findings_count_histogram={
                int(k): int(v)
                for k, v in data.get("findings_count_histogram", {}).items()
            },
        )


class Aggregator:
    """Streaming, mergeable accumulator of PipelineRecords.

    Merging partial aggregators is associative and commutative, so records
    may be produced concurrently and combined at a single merge point.
    """

    def __init__(self, registry_version: str = ""):
        self.registry_version = registry_version
        self.total_pipelines = 0
        self.pipelines_with_tools = 0
        self.tool_any: Counter[str] = Counter()
        self.tool_direct: Counter[str] = Counter()
        self.tool_script: Counter[str] = Counter()
        self.tool_both: Counter[str] = Counter()
        self.histogram: Counter[int] = Counter()
        self.cooccurrence: Counter[tuple[str, str]] = Counter()
        self.finding_counts: Counter[str] = Counter()
        self.finding_pairs: Counter[tuple[str, str]] = Counter()
        self.per_tool_finding: Counter[tuple[str, str]] = Counter()
        self.stage_rows: Counter[tuple[str, str]] = Counter()
        self.placement_rows: Counter[tuple[str, str]] = Counter()
        self.timing_rows: Counter[tuple[str, str]] = Counter()
        self.late_all = 0
        self.late_any = 0
        self.findings_per_pipeline: dict[str, dict[str, bool]] = {}
        self.findings_histogram: Counter[int] = Counter()

    def add(self, record: PipelineRecord) -> None:
        self.total_pipelines += 1
        tools = sorted(record.profile.tools)
        if not tools:
            return
        self.pipelines_with_tools += 1
        self.histogram[len(tools)] += 1
        for tool in tools:
            invocation = record.profile.tools[tool].invocation
            self.tool_any[tool] += 1
            if invocation in (INVOCATION_DIRECT, INVOCATION_BOTH):
                self.tool_direct[tool] += 1
            if invocation in (INVOCATION_SCRIPT, INVOCATION_BOTH):
                self.tool_script[tool] += 1
            if invocation == INVOCATION_BOTH:
                self.tool_both[tool] += 1
        for pair in combinations(tools, 2):
            self.cooccurrence[pair] += 1

        flags = record.findings.as_dict()
        true_names = [name for name in FINDING_NAMES if flags[name]]
        for name in true_names:
            self.finding_counts[name] += 1
        for pair in combinations(true_names, 2):
            self.finding_pairs[tuple(sorted(pair))] += 1
        for tool in tools:
            for name in true_names:
                self.per_tool_finding[(tool, name)] += 1
        self.late_all += int(record.findings.late_merging_all_jobs)
        self.late_any += int(record.findings.late_merging_any_job)
        self.findings_per_pipeline[record.repo_slug] = flags
        self.findings_histogram[len(true_names)] += 1

        for placement in record.placements:
            for source in placement.sources():
                label = "direct" if source == SOURCE_CONFIG else "script"
                self.stage_rows[(placement.stage_label, label)] += 1
                self.placement_rows[(label, placement.placement.value)] += 1
                timing = placement.timing_for_source(source)
                self.timing_rows[(label, timing.value)] += 1

    def merge(self, other: "Aggregator") -> None:
        self.total_pipelines += other.total_pipelines
        self.pipelines_with_tools += other.pipelines_with_tools
        for name in (
            "tool_any",
            "tool_direct",
            "tool_script",
            "tool_both",
            "histogram",
            "cooccurrence",
            "finding_counts",
            "finding_pairs",
            "per_tool_finding",
            "stage_rows",
            "placement_rows",
            "timing_rows",
            "findings_histogram",
        ):
            getattr(self, name).update(getattr(other, name))
        self.late_all += other.late_all
        self.late_any += other.late_any
        self.findings_per_pipeline.update(other.findings_per_pipeline)

    def report(self) -> CorpusReport:
        tool_table = {
            tool: {
                "pipelines": self.tool_any[tool],
                "direct": self.tool_direct[tool],
                "script": self.tool_script[tool],
                "both": self.tool_both[tool],
            }
            for tool in sorted(self.tool_any)
        }

        denominator = self.pipelines_with_tools
        prevalence: dict[str, dict[str, Any]] = {}
        if denominator:
            for name in FINDING_NAMES:
                count = self.finding_counts[name]
                prevalence[name] = {
                    "count": count,
                    "percent": percent(count, denominator),
                }

        matrix: dict[str, dict[str, int]] = {}
        if denominator:
            for row in FINDING_NAMES:
                matrix[row] = {}
                for col in FINDING_NAMES:
                    if row == col:
                        continue
                    matrix[row][col] = self.finding_pairs[tuple(sorted((row, col)))]

        per_tool: dict[str, dict[str, dict[str, Any]]] = {}
        for tool in sorted(self.tool_any):
            pipelines = self.tool_any[tool]
            per_tool[tool] = {}
            for name in FINDING_NAMES:
                with_finding = self.per_tool_finding[(tool, name)]
                per_tool[tool][name] = {
                    "pipelines_with_tool": pipelines,
                    "with_finding": with_finding,
                    "percent": percent(with_finding, pipelines),
                }

        direct_jobs = sum(
            n for (label, source), n in self.stage_rows.items() if source == "direct"
        )
        script_jobs = sum(
            n for (label, source), n in self.stage_rows.items() if source == "script"
        )
        stage_names = {}
        for label in sorted({key[0] for key in self.stage_rows}):
            direct = self.stage_rows[(label, "direct")]
            script = self.stage_rows[(label, "script")]
            stage_names[label] = {
                "direct_jobs": direct,
                "script_jobs": script,
                "total": direct + script,
            }

        placement = {
            source: {
                kind: self.placement_rows[(source, kind)]
                for kind in _PLACEMENT_ORDER
            }
            for source in _SOURCES
        }
        timing = {
            source: {
                kind: self.timing_rows[(source, kind)] for kind in _TIMING_ORDER
            }
            for source in _SOURCES
        }

        return CorpusReport(
            schema_version=SCHEMA_VERSION,
            registry_version=self.registry_version,
            totals={
                "pipelines": self.total_pipelines,
                "pipelines_with_tools": self.pipelines_with_tools,
                "direct_jobs": direct_jobs,
                "script_jobs": script_jobs,
            },
            tool_table=tool_table,
            tools_per_pipeline=dict(sorted(self.histogram.items())),
            cooccurrence=dict(self.cooccurrence),
            antipattern_prevalence=prevalence,
            antipattern_matrix=matrix,
            per_tool_antipattern=per_tool,
            stage_names=stage_names,
            placement=placement,
            timing=timing,
            late_merging_counts={
                "pipeline_mode": self.late_all,
                "job_mode": self.late_any,
            },
            findings_per_pipeline=dict(sorted(self.findings_per_pipeline.items())),
            findings_count_histogram=dict(sorted(self.findings_histogram.items())),
        )


def aggregate(
    records: Iterable[PipelineRecord], registry_version: str = ""
) -> CorpusReport:
    """Fold a stream of records into a CorpusReport."""
    aggregator = Aggregator(registry_version)
    for record in records:
        aggregator.add(record)
    return aggregator.report()


def _csv_bytes(header: list[str], rows: list[list[Any]]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def export_json(report: CorpusReport) -> bytes:
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def export_csv_bundle(report: CorpusReport) -> dict[str, bytes]:
    files: dict[str, bytes] = {}

    tool_rows = [
        [tool, row["pipelines"], row["direct"], row["script"], row["both"]]
        for tool, row in sorted(
            report.tool_table.items(), key=lambda kv: (-kv[1]["pipelines"], kv[0])
        )
    ]
    files["tools.csv"] = _csv_bytes(
        ["tool", "pipelines", "direct", "script", "both"], tool_rows
    )

    cooc_rows = [
        [a, b, n]
        for (a, b), n in sorted(
            report.cooccurrence.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    files["cooccurrence.csv"] = _csv_bytes(["tool_a", "tool_b", "pipelines"], cooc_rows)

    ap_rows = [
        [name, row["count"], f"{row['percent']:.1f}"]
        for name in FINDING_NAMES
        if (row := report.antipattern_prevalence.get(name)) is not None
    ]
    files["antipatterns.csv"] = _csv_bytes(["finding", "count", "percent"], ap_rows)

    matrix_rows = []
    for row_name in FINDING_NAMES:
        cells = report.antipattern_matrix.get(row_name)
        if cells is None:
            continue
        matrix_rows.append(
            [row_name]
            + [
                ("" if col == row_name else cells.get(col, 0))
                for col in FINDING_NAMES
            ]
        )
    files["antipattern_matrix.csv"] = _csv_bytes(
        ["finding", *FINDING_NAMES], matrix_rows
    )

    per_tool_rows = []
    for tool, rows in sorted(report.per_tool_antipattern.items()):
        for name in FINDING_NAMES:
            cell = rows.get(name)
            if cell is None:
                continue
            per_tool_rows.append(
                [
                    tool,
                    name,
                    cell["pipelines_with_tool"],
                    cell["with_finding"],
                    f"{cell['percent']:.1f}",
                ]
            )
    files["per_tool_antipattern.csv"] = _csv_bytes(
        ["tool", "finding", "pipelines_with_tool", "with_finding", "percent"],
        per_tool_rows,
    )

    stage_rows = [
        [label, row["direct_jobs"], row["script_jobs"], row["total"]]
        for label, row in sorted(
            report.stage_names.items(), key=lambda kv: (-kv[1]["total"], kv[0])
        )
    ]
    files["stage_names.csv"] = _csv_bytes(
        ["stage", "direct_jobs", "script_jobs", "total"], stage_rows
    )

    placement_rows = []
    timing_rows = []
    if report.totals.get("pipelines_with_tools"):
        for source in _SOURCES:
            for kind in _PLACEMENT_ORDER:
                placement_rows.append(
                    [source, kind, report.placement.get(source, {}).get(kind, 0)]
                )
            for kind in _TIMING_ORDER:
                timing_rows.append(
                    [source, kind, report.timing.get(source, {}).get(kind, 0)]
                )
    files["placement.csv"] = _csv_bytes(["source", "placement", "jobs"], placement_rows)
    files["timing.csv"] = _csv_bytes(["source", "timing", "jobs"], timing_rows)

    return files


def export_report(report: CorpusReport, format: str) -> dict[str, bytes]:
    """Serialize a report; returns {filename: content} for the chosen format."""
    if format == "json":
        return {"report.json": export_json(report)}
    if format == "csv-bundle" or format == "csv":
        return export_csv_bundle(report)
    raise UnsupportedFormat(f"unknown format {format!r}")
