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
from operator import itemgetter
from typing import Any, Callable, Mapping, get_args, get_origin, get_type_hints

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

_SOURCES = ("direct", "script")
_PLACEMENT_ORDER = (
    PlacementKind.DEDICATED_STAGE.value,
    PlacementKind.DEDICATED_JOB.value,
    PlacementKind.MIXED_JOB.value,
)
_TIMING_ORDER = (TimingKind.PRE_DEPLOYMENT.value, TimingKind.POST_DEPLOYMENT.value)


class DivisionByZero(ZeroDivisionError):
    """percent() was called with a zero denominator."""


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
        data = {
            name: _coerce(hint, getattr(self, name), key=str)
            for name, hint in _FIELD_TYPES.items()
        }
        data["cooccurrence"] = [
            {"tools": list(pair), "pipelines": n}
            for pair, n in _ranked(self.cooccurrence)
        ]
        return data

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "CorpusReport":
        data = _coerce(dict[str, Any], data)
        defaults = {"schema_version": SCHEMA_VERSION, "registry_version": ""}
        fields = {
            name: _coerce(hint, data.get(name, defaults.get(name, {})))
            for name, hint in _FIELD_TYPES.items()
        }
        cooccurrence = {}
        for entry in data.get("cooccurrence", []):
            tool_a, tool_b = entry["tools"]
            cooccurrence[(tool_a, tool_b)] = int(entry["pipelines"])
        return cls(cooccurrence=cooccurrence, **fields)


# Every field converts to and from JSON by its annotation, except the
# tuple-keyed `cooccurrence`, which JSON holds as a ranked list.
_FIELD_TYPES = {
    name: hint
    for name, hint in get_type_hints(CorpusReport).items()
    if name != "cooccurrence"
}


def _coerce(hint: Any, value: Any, key: Callable[[Any], Any] | None = None) -> Any:
    """`value` as the type `hint` names, nested dicts included.

    Dict keys go through `key` when given (``str`` on the way to JSON, which
    keeps ``"10"`` before ``"2"`` under ``sort_keys``) and through the
    hint's key type otherwise.
    """
    if get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise TypeError(f"expected a JSON object, got {type(value).__name__}")
        key_type, value_type = get_args(hint)
        convert = key or key_type
        return {convert(k): _coerce(value_type, v, key) for k, v in value.items()}
    return value if hint is Any else hint(value)


def _ranked(table: Mapping[Any, Any], count=lambda value: value) -> list[tuple]:
    """`table`'s items, largest count first, ties by key."""
    return sorted(table.items(), key=lambda item: (-count(item[1]), item[0]))


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
            for source, timing in placement.source_timings.items():
                label = "direct" if source == SOURCE_CONFIG else "script"
                self.stage_rows[(placement.stage_label, label)] += 1
                self.placement_rows[(label, placement.placement.value)] += 1
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


def export_json(report: CorpusReport) -> bytes:
    text = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
    return (text + "\n").encode("utf-8")


def _ranked_rows(
    table: Mapping[str, Mapping[str, int]], key_column: str, count_column: str
) -> list[dict[str, Any]]:
    return [
        {key_column: key, **row}
        for key, row in _ranked(table, itemgetter(count_column))
    ]


def _per_source_rows(
    table: Mapping[str, Mapping[str, int]], column: str, kinds, sources
) -> list[dict[str, Any]]:
    return [
        {"source": source, column: kind, "jobs": table.get(source, {}).get(kind, 0)}
        for source in sources
        for kind in kinds
    ]


def _percent_row(cells: Mapping[str, Any], **labels: str) -> dict[str, Any]:
    return {**cells, **labels, "percent": f"{cells['percent']:.1f}"}


def _csv_tables(report: CorpusReport) -> dict[str, tuple[tuple[str, ...], list]]:
    """Each CSV file of the bundle as (header, rows)."""
    prevalence = report.antipattern_prevalence
    matrix = report.antipattern_matrix
    # A corpus without tools gets placement and timing headers only.
    sources = _SOURCES if report.totals.get("pipelines_with_tools") else ()
    return {
        "tools.csv": (
            ("tool", "pipelines", "direct", "script", "both"),
            _ranked_rows(report.tool_table, "tool", "pipelines"),
        ),
        "cooccurrence.csv": (
            ("tool_a", "tool_b", "pipelines"),
            [
                {"tool_a": a, "tool_b": b, "pipelines": n}
                for (a, b), n in _ranked(report.cooccurrence)
            ],
        ),
        "antipatterns.csv": (
            ("finding", "count", "percent"),
            [
                _percent_row(prevalence[name], finding=name)
                for name in FINDING_NAMES
                if name in prevalence
            ],
        ),
        "antipattern_matrix.csv": (
            ("finding", *FINDING_NAMES),
            [
                {**matrix[name], "finding": name, name: ""}
                for name in FINDING_NAMES
                if name in matrix
            ],
        ),
        "per_tool_antipattern.csv": (
            ("tool", "finding", "pipelines_with_tool", "with_finding", "percent"),
            [
                _percent_row(rows[name], tool=tool, finding=name)
                for tool, rows in sorted(report.per_tool_antipattern.items())
                for name in FINDING_NAMES
                if name in rows
            ],
        ),
        "stage_names.csv": (
            ("stage", "direct_jobs", "script_jobs", "total"),
            _ranked_rows(report.stage_names, "stage", "total"),
        ),
        "placement.csv": (
            ("source", "placement", "jobs"),
            _per_source_rows(report.placement, "placement", _PLACEMENT_ORDER, sources),
        ),
        "timing.csv": (
            ("source", "timing", "jobs"),
            _per_source_rows(report.timing, "timing", _TIMING_ORDER, sources),
        ),
    }


def export_csv_bundle(report: CorpusReport) -> dict[str, bytes]:
    files = {}
    for name, (header, rows) in _csv_tables(report).items():
        buffer = io.StringIO()
        # The header orders each row's cells; a cell the row lacks is 0.
        writer = csv.DictWriter(
            buffer, header, restval=0, extrasaction="ignore", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(rows)
        files[name] = buffer.getvalue().encode("utf-8")
    return files
