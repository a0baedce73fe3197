"""End-to-end analysis of single pipelines and whole corpora."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .analytics import Aggregator, CorpusReport, PipelineRecord
from .antipatterns import LATE_MERGING_MODE_PIPELINE, evaluate
from .config_model import (
    MalformedDocument,
    NotAPipeline,
    RawDocument,
    iter_command_lines,
    parse_config,
)
from .ingest import ManifestEntry, FetchPolicy, NotFound, materialize
from .placement import classify_pipeline
from .registry import Registry, profile_pipeline
from .script_resolver import FileTree, collect_script_documents


@dataclass(frozen=True)
class AnalysisOptions:
    install_exclusion: bool = True
    recursive_scripts: bool = False
    late_merging_mode: str = LATE_MERGING_MODE_PIPELINE


@dataclass
class PipelineAnalysis:
    """Everything derived from one pipeline, plus collected warnings."""

    record: PipelineRecord
    warnings: list[str] = field(default_factory=list)


def analyze_document(
    doc: RawDocument,
    tree: FileTree,
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
) -> PipelineAnalysis:
    """Parse, resolve scripts, detect tools, classify, and evaluate rules.

    Raises NotAPipeline / MalformedDocument for unanalyzable input.
    """
    cfg = parse_config(doc)
    warnings = list(cfg.warnings)

    commands = list(iter_command_lines(cfg))
    scripts, attribution = collect_script_documents(
        commands, tree, recursive=options.recursive_scripts, warnings=warnings
    )
    for script in scripts:
        if not script.resolved:
            warnings.append(f"unresolved script reference: {script.path}")

    profile = profile_pipeline(
        cfg,
        scripts,
        registry,
        install_exclusion=options.install_exclusion,
        attribution=attribution,
    )
    scripts_by_path = {script.path: script for script in scripts}
    placements = classify_pipeline(cfg, profile, scripts_by_path)
    findings = evaluate(cfg, profile, late_merging_mode=options.late_merging_mode)

    record = PipelineRecord(
        repo_slug=doc.repo_slug,
        profile=profile,
        placements=placements,
        findings=findings,
    )
    return PipelineAnalysis(record=record, warnings=warnings)


@dataclass
class EntryResult:
    slug: str
    status: str  # "ok" | "skipped" | "failed"
    analysis: PipelineAnalysis | None = None
    message: str = ""


@dataclass
class ScanResult:
    report: CorpusReport
    entries: list[EntryResult]
    warnings: list[str]

    @property
    def succeeded(self) -> int:
        return sum(1 for entry in self.entries if entry.status == "ok")


def _process_entry(
    entry: ManifestEntry,
    registry: Registry,
    options: AnalysisOptions,
    policy: FetchPolicy,
    session,
    clock,
    bucket,
) -> EntryResult:
    try:
        doc, tree = materialize(
            entry, policy=policy, session=session, clock=clock, bucket=bucket
        )
    except NotFound as exc:
        return EntryResult(entry.repo_slug, "skipped", message=str(exc))
    except Exception as exc:  # noqa: BLE001 - entry isolation
        return EntryResult(entry.repo_slug, "failed", message=str(exc))
    try:
        analysis = analyze_document(doc, tree, registry, options)
    except (NotAPipeline, MalformedDocument) as exc:
        return EntryResult(entry.repo_slug, "skipped", message=str(exc))
    except Exception as exc:  # noqa: BLE001 - entry isolation
        return EntryResult(entry.repo_slug, "failed", message=str(exc))
    return EntryResult(entry.repo_slug, "ok", analysis=analysis)


def scan_entries(
    entries: list[ManifestEntry],
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
    policy: FetchPolicy | None = None,
    session=None,
    clock=None,
    workers: int = 1,
) -> ScanResult:
    """Analyze every entry and aggregate; failures are isolated per entry.

    Results are merged in slug order, so the report is deterministic no
    matter how many workers run or in which order entries complete.
    """
    policy = policy or FetchPolicy()
    bucket = None
    if any(not entry.is_local for entry in entries):
        from .ingest import TokenBucket

        bucket = TokenBucket(policy.max_requests_per_hour, clock)

    def process(entry: ManifestEntry) -> EntryResult:
        return _process_entry(entry, registry, options, policy, session, clock, bucket)

    if workers <= 1 or len(entries) <= 1:
        results = list(map(process, entries))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(process, entries))
    by_slug = {result.slug: result for result in results}

    aggregator = Aggregator(registry.version)
    ordered = [by_slug[slug] for slug in sorted(by_slug)]
    warnings: list[str] = []
    for entry_result in ordered:
        if entry_result.status == "ok":
            aggregator.add(entry_result.analysis.record)
            warnings.extend(
                f"{entry_result.slug}: {message}"
                for message in entry_result.analysis.warnings
            )
        else:
            warnings.append(f"{entry_result.slug}: {entry_result.message}")
    return ScanResult(report=aggregator.report(), entries=ordered, warnings=warnings)
