"""Corpus-level aggregation into frequency tables and report export.

Each pipeline is folded as a PipelineRecord: the counter keys of its
contribution and its finding flags.  Counting rules: a tool counts once per
pipeline regardless of detection multiplicity; co-occurrence counts each
unordered tool pair once per pipeline; job-level tables count (job, source)
rows so a job invoking tools both directly and via scripts appears in both
columns.  Percentages round half away from zero to one decimal.  Exports are
byte-deterministic.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_UP
from itertools import combinations
from operator import itemgetter
from typing import Any, Callable, Mapping, NamedTuple, get_args, get_origin, get_type_hints

from .antipatterns import FINDING_NAMES, FindingSet
from .memo import MAX_VALUES
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
# The tool table's columns that each invocation style counts in.
_TOOL_COLUMNS = {
    INVOCATION_DIRECT: ("pipelines", "direct"),
    INVOCATION_SCRIPT: ("pipelines", "script"),
    INVOCATION_BOTH: ("pipelines", "direct", "script", "both"),
}


class DivisionByZero(ZeroDivisionError):
    """percent() was called with a zero denominator."""


def percent(numerator: int, denominator: int) -> float:
    """Percentage rounded half away from zero to one decimal place."""
    if denominator == 0:
        raise DivisionByZero("denominator must be > 0")
    value = Decimal(numerator) * 100 / Decimal(denominator)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


class PipelineRecord(NamedTuple):
    """What the report reads of one pipeline; immutable, so memos may share it.

    `keys` are the pipeline's counter keys, each a tuple of a tag and
    str/int fields: ``("pipeline",)``; for a pipeline with tools also
    ``("tools", n)``, ``("findings", n)``, ``("tool", tool, invocation)``,
    ``("pair", tool_a, tool_b)``, ``("finding", name)``,
    ``("finding_pair", name_a, name_b)``, ``("tool_finding", tool, name)``,
    ``("late_merging", "pipeline_mode" | "job_mode")`` per Late Merging
    reading that holds, and one ``("row", stage label, source, placement,
    timing)`` per placement source.  `flags` are the four finding booleans in
    FINDING_NAMES order, or None when the pipeline has no tools.
    """

    keys: tuple[tuple, ...]
    flags: tuple[bool, ...] | None


TOOLLESS_RECORD = PipelineRecord(keys=(("pipeline",),), flags=None)

# One canonical tuple per distinct counter key, shared by every record that
# holds the key: a corpus has few distinct keys, and memoized records would
# otherwise each keep their own copies.  Past MAX_VALUES distinct keys a new
# key stays unshared (threads racing at the bound may each add one more).
# `memo.weight` still counts a record's keys as its own.
_SHARED_KEYS: dict[tuple, tuple] = {}


def _shared(key: tuple) -> tuple:
    if len(_SHARED_KEYS) < MAX_VALUES:
        return _SHARED_KEYS.setdefault(key, key)
    return _SHARED_KEYS.get(key, key)


def pipeline_record(
    profile: PipelineToolProfile, placements: list[PlacementResult], findings: FindingSet
) -> PipelineRecord:
    """The PipelineRecord of one analyzed pipeline."""
    tools = profile.tool_ids()
    if not tools:
        return TOOLLESS_RECORD
    flags = tuple(getattr(findings, name) for name in FINDING_NAMES)
    true_names = [name for name, flag in zip(FINDING_NAMES, flags) if flag]
    keys = [("pipeline",), ("tools", len(tools)), ("findings", len(true_names))]
    keys += [("tool", tool, profile.tools[tool].invocation) for tool in tools]
    keys += [("pair", *pair) for pair in combinations(tools, 2)]
    keys += [("finding", name) for name in true_names]
    keys += [("finding_pair", *pair) for pair in combinations(sorted(true_names), 2)]
    keys += [("tool_finding", tool, name) for tool in tools for name in true_names]
    if findings.late_merging_all_jobs:
        keys.append(("late_merging", "pipeline_mode"))
    if findings.late_merging_any_job:
        keys.append(("late_merging", "job_mode"))
    for placement in placements:
        label, kind = placement.stage_label, placement.placement.value
        for source, timing in placement.source_timings.items():
            source = "direct" if source == SOURCE_CONFIG else "script"
            keys.append(("row", label, source, kind, timing.value))
    return PipelineRecord(tuple(map(_shared, keys)), flags)


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

    One Counter of every record's keys, plus each tool-bearing pipeline's
    finding flags by slug; every table is derived from them in report().
    Merging partial aggregators is associative and commutative, so records
    may be produced concurrently and combined at a single merge point.
    """

    def __init__(self, registry_version: str = ""):
        self.registry_version = registry_version
        self.counts: Counter[tuple] = Counter()
        self.findings_per_pipeline: dict[str, tuple[bool, ...]] = {}

    def add(self, slug: str, record: PipelineRecord) -> None:
        self.counts.update(record.keys)
        if record.flags is not None:
            self.findings_per_pipeline[slug] = record.flags

    def merge(self, other: "Aggregator") -> None:
        self.counts.update(other.counts)
        self.findings_per_pipeline.update(other.findings_per_pipeline)

    def report(self) -> CorpusReport:
        tables: defaultdict[str, dict[tuple, int]] = defaultdict(dict)
        for (tag, *fields), n in self.counts.items():
            tables[tag][tuple(fields)] = n

        tool_table: dict[str, dict[str, int]] = {}
        for (tool, invocation), n in sorted(tables["tool"].items()):
            row = tool_table.setdefault(tool, dict.fromkeys(_TOOL_COLUMNS["both"], 0))
            for column in _TOOL_COLUMNS[invocation]:
                row[column] += n

        denominator = sum(tables["tools"].values())
        prevalence: dict[str, dict[str, Any]] = {}
        matrix: dict[str, dict[str, int]] = {}
        for name in FINDING_NAMES if denominator else ():
            count = tables["finding"].get((name,), 0)
            prevalence[name] = {"count": count, "percent": percent(count, denominator)}
            matrix[name] = {
                other: tables["finding_pair"].get(tuple(sorted((name, other))), 0)
                for other in FINDING_NAMES
                if other != name
            }

        per_tool: dict[str, dict[str, dict[str, Any]]] = {}
        for tool, row in tool_table.items():
            per_tool[tool] = {}
            for name in FINDING_NAMES:
                with_finding = tables["tool_finding"].get((tool, name), 0)
                per_tool[tool][name] = {
                    "pipelines_with_tool": row["pipelines"],
                    "with_finding": with_finding,
                    "percent": percent(with_finding, row["pipelines"]),
                }

        placement = {source: dict.fromkeys(_PLACEMENT_ORDER, 0) for source in _SOURCES}
        timing = {source: dict.fromkeys(_TIMING_ORDER, 0) for source in _SOURCES}
        stage_names: dict[str, dict[str, int]] = {}
        for (label, source, kind, when), n in sorted(tables["row"].items()):
            placement[source][kind] += n
            timing[source][when] += n
            row = stage_names.setdefault(
                label, {"direct_jobs": 0, "script_jobs": 0, "total": 0}
            )
            row[f"{source}_jobs"] += n
            row["total"] += n

        return CorpusReport(
            schema_version=SCHEMA_VERSION,
            registry_version=self.registry_version,
            totals={
                "pipelines": tables["pipeline"].get((), 0),
                "pipelines_with_tools": denominator,
                "direct_jobs": sum(placement["direct"].values()),
                "script_jobs": sum(placement["script"].values()),
            },
            tool_table=tool_table,
            tools_per_pipeline=_by_count(tables["tools"]),
            cooccurrence=tables["pair"],
            antipattern_prevalence=prevalence,
            antipattern_matrix=matrix,
            per_tool_antipattern=per_tool,
            stage_names=stage_names,
            placement=placement,
            timing=timing,
            late_merging_counts={
                mode: tables["late_merging"].get((mode,), 0)
                for mode in ("pipeline_mode", "job_mode")
            },
            findings_per_pipeline={
                slug: dict(zip(FINDING_NAMES, flags))
                for slug, flags in sorted(self.findings_per_pipeline.items())
            },
            findings_count_histogram=_by_count(tables["findings"]),
        )


def _by_count(table: Mapping[tuple[int], int]) -> dict[int, int]:
    """A histogram table keyed by one-int tuples, as {bin: pipelines} in bin order."""
    return {n: count for (n,), count in sorted(table.items())}


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
