"""End-to-end analysis of single pipelines and whole corpora."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, NoReturn

from .analytics import (
    TOOLLESS_RECORD,
    Aggregator,
    CorpusReport,
    PipelineRecord,
    pipeline_record,
)
from .antipatterns import LATE_MERGING_MODE_PIPELINE, FindingSet, evaluate
from .config_model import (
    MalformedDocument,
    NotAPipeline,
    PipelineConfig,
    RawDocument,
    parse_config,
)
from .ingest import (
    FileTooLarge,
    ManifestEntry,
    ManifestParseError,
    NotFound,
    materialize,
    text_sha256,
)
from .memo import BoundedMemo
from .placement import PlacementResult, classify_pipeline
from .registry import PipelineToolProfile, Registry, profile_pipeline
from .script_resolver import (
    FileTree,
    ScriptDocument,
    Site,
    collect_script_documents,
    script_references,
)


class ParsedConfig(NamedTuple):
    """What script resolution needs of a parsed config, as memoized."""

    warnings: tuple[str, ...]  # the config's, then its script references'
    references: tuple[tuple[str, Site], ...]  # see script_references


@dataclass(frozen=True)
class AnalysisOptions:
    install_exclusion: bool = True
    recursive_scripts: bool = False
    late_merging_mode: str = LATE_MERGING_MODE_PIPELINE


@dataclass
class PipelineAnalysis:
    """Everything derived from one pipeline, plus collected warnings."""

    repo_slug: str
    profile: PipelineToolProfile
    placements: list[PlacementResult]
    findings: FindingSet
    warnings: list[str] = field(default_factory=list)


def _parsed(cfg: PipelineConfig) -> ParsedConfig:
    warnings = list(cfg.warnings)
    references = script_references(cfg.jobs, warnings)
    return ParsedConfig(tuple(warnings), references)


def _resolve(parsed: ParsedConfig, tree: FileTree, options: AnalysisOptions):
    """The scripts, sites and warnings of one entry; reads are never memoized."""
    warnings = list(parsed.warnings)
    scripts, sites = collect_script_documents(
        parsed.references, tree, recursive=options.recursive_scripts, warnings=warnings
    )
    for script in scripts:
        if not script.resolved:
            warnings.append(f"unresolved script reference: {script.path}")
    return scripts, sites, warnings


def _profiled(
    cfg: PipelineConfig,
    scripts: list[ScriptDocument],
    sites: dict[str, tuple[Site, ...]],
    registry: Registry,
    options: AnalysisOptions,
):
    """The pipeline's tool profile, and a function judging it: its placements
    and anti-pattern findings."""
    profile = profile_pipeline(
        cfg, scripts, registry, install_exclusion=options.install_exclusion, sites=sites
    )

    def judge() -> tuple[list[PlacementResult], FindingSet]:
        scripts_by_path = {script.path: script for script in scripts}
        placements = classify_pipeline(
            cfg, profile, scripts_by_path, registry, install_exclusion=options.install_exclusion
        )
        return placements, evaluate(cfg, profile, late_merging_mode=options.late_merging_mode)

    return profile, judge


def analyze_document(
    doc: RawDocument,
    tree: FileTree,
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
    memo: BoundedMemo | None = None,
) -> tuple[PipelineRecord, list[str]]:
    """The pipeline's record for the report, and the entry's warnings.

    Raises NotAPipeline / MalformedDocument for unanalyzable input.

    `memo` serves one scan share, so every call given it passes the same
    `registry` and `options`; without one the document is analyzed cold.
    It holds the config's ParsedConfig under its (path, sha256,
    invalid_utf8), and the record under that key and the (path, sha256) of
    every script the tree gave (None for a missing one), each stored on its
    first sighting; the record's counter keys are shared through the memo
    (`BoundedMemo.share`).  When the record is not memoized but the ParsedConfig
    is, the config is parsed again.  A pipeline without tools is neither
    placed nor judged: its record is TOOLLESS_RECORD whatever the rules
    would find.
    """
    if memo is None:
        memo = BoundedMemo()
    source = (doc.path, doc.sha256 or text_sha256(doc.content), doc.invalid_utf8)
    cfg = None

    def parse() -> ParsedConfig:
        nonlocal cfg
        cfg = parse_config(doc)
        return _parsed(cfg)

    scripts, sites, warnings = _resolve(memo.get(source, parse), tree, options)

    def derive() -> PipelineRecord:
        config = cfg if cfg is not None else parse_config(doc)
        profile, judge = _profiled(config, scripts, sites, registry, options)
        if not profile.tools:
            return TOOLLESS_RECORD
        return pipeline_record(profile, *judge(), memo.share)

    key = (source, tuple((script.path, script.sha256) for script in scripts))
    return memo.get(key, derive), warnings


def explain_document(
    doc: RawDocument,
    tree: FileTree,
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
) -> PipelineAnalysis:
    """The pipeline's full profile, placements and findings, whose evidence
    is built when read.

    Not memoized: `tdmscan analyze` prints every detection and placement,
    which no scan reads.  Unlike a scan, it places and judges a pipeline
    without tools too.  Raises like analyze_document.
    """
    cfg = parse_config(doc)
    scripts, sites, warnings = _resolve(_parsed(cfg), tree, options)
    profile, judge = _profiled(cfg, scripts, sites, registry, options)
    return PipelineAnalysis(doc.repo_slug, profile, *judge(), warnings)


@dataclass
class EntryResult:
    """One entry's outcome; an ``ok`` entry's record is already aggregated."""

    slug: str
    status: str  # "ok" | "skipped" | "failed"
    message: str = ""
    warnings: list[str] = field(default_factory=list)


@dataclass
class ScanResult:
    report: CorpusReport
    entries: list[EntryResult]
    warnings: list[str]

    @property
    def succeeded(self) -> int:
        return sum(1 for entry in self.entries if entry.status == "ok")


def _scan_chunk(
    entries: list[ManifestEntry], registry: Registry, options: AnalysisOptions
) -> tuple[Aggregator, list[EntryResult]]:
    """Materialize and analyze each entry, in order and with one memo,
    folding every ``ok`` record into one aggregator."""
    aggregator, memo = Aggregator(registry.version), BoundedMemo()
    results = []
    for entry in entries:
        try:
            record, warnings = analyze_document(*materialize(entry), registry, options, memo)
        except (NotFound, FileTooLarge, NotAPipeline, MalformedDocument) as exc:
            results.append(EntryResult(entry.repo_slug, "skipped", message=str(exc)))
        except Exception as exc:  # noqa: BLE001 - entry isolation
            results.append(EntryResult(entry.repo_slug, "failed", message=str(exc)))
        else:
            aggregator.add(entry.repo_slug, record)
            results.append(EntryResult(entry.repo_slug, "ok", warnings=warnings))
    return aggregator, results


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _deal(entries: list[ManifestEntry], n: int) -> list[list[ManifestEntry]]:
    """One to ``n`` strided shares: share ``w`` holds ``entries[w::n]``."""
    return [entries[w::n] for w in range(max(1, min(n, len(entries))))]


def _scan_forked(
    shares: list[list[ManifestEntry]], registry: Registry, options: AnalysisOptions
) -> list[tuple[Aggregator, list[EntryResult]]]:
    """Share ``w`` is scanned by worker ``w``; worker 0 is this process.

    Each child sends its ``(Aggregator, results)`` up its own pipe and is
    reaped here, in fork order, so the parts are returned in share order.
    A child's exception is raised here.  If anything fails in this process,
    every child not yet reaped is killed and reaped before it propagates.
    """

    def share(worker: int) -> tuple[Aggregator, list[EntryResult]]:
        return _scan_chunk(shares[worker], registry, options)

    if len(shares) > 1:
        # Imported and compiled once, before the fork, so every child
        # inherits both: a child that imported pickle itself began its share
        # about 8 ms later.
        import pickle  # noqa: F401

        registry._unions
    children: dict[int, int] = {}  # child pid -> read end of its pipe
    try:
        for worker in range(1, len(shares)):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                os.close(read_fd)
                for sibling_fd in children.values():
                    os.close(sibling_fd)
                _report_and_exit(write_fd, partial(share, worker))
            os.close(write_fd)
            children[pid] = read_fd
        parts = [share(0)]
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(read_fd)
            del children[pid]
            _, status = os.waitpid(pid, 0)
            parts.append(_child_parts(pid, status, data))
    finally:
        for pid, read_fd in children.items():
            import signal  # only failures need it; importing it costs about 1 ms

            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return parts


def _report_and_exit(write_fd: int, scan) -> NoReturn:
    """In a forked child: run ``scan``, pickle its outcome into the pipe, exit.

    The child leaves through ``os._exit`` whatever happens, so it never
    unwinds into its caller's frames or runs the parent's exit handlers.
    It exits 0 only once its outcome is written.  An exception that does
    not survive pickling is sent as a RuntimeError carrying its repr.
    """
    import pickle

    status = 1
    try:
        try:
            outcome = (True, scan())
        except BaseException as exc:  # noqa: BLE001 - sent to the parent
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:  # noqa: BLE001 - any pickling failure
                exc = RuntimeError(f"scan worker raised {exc!r}")
            outcome = (False, exc)
        data = pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _child_parts(
    pid: int, status: int, data: bytes
) -> tuple[Aggregator, list[EntryResult]]:
    """A reaped child's part, or the exception it reported or died of."""
    import pickle

    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        import signal

        raise RuntimeError(
            f"scan worker {pid} was killed by signal {-code} "
            f"({signal.strsignal(-code)}) before reporting"
        )
    if code:
        raise RuntimeError(f"scan worker {pid} exited with status {code} before reporting")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value


def scan_entries(
    entries: list[ManifestEntry],
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
    workers: int = 1,
) -> ScanResult:
    """Analyze every entry and aggregate; failures are isolated per entry.

    Entries are taken in slug order (the last entry wins a repeated slug)
    and dealt into at most n strided shares, share ``w`` holding every n-th
    entry from the ``w``-th; n is ``workers`` capped at the usable CPUs.
    This process scans share 0 and a child forked from it scans each other
    share, inheriting the loaded package and registry (without ``os.fork``
    every entry runs here).  The partial aggregates merge in any order to
    the same report, and each share's results go back to its entries'
    places, so the scan is the same for any number of workers.  Every entry
    must be local: a remote one raises ManifestParseError before any entry
    is read, since `tdmscan fetch` must copy it first.
    """
    by_slug = {entry.repo_slug: entry for entry in entries}
    ordered = [by_slug[slug] for slug in sorted(by_slug)]
    for entry in ordered:
        if not entry.is_local:
            raise ManifestParseError(
                f"{entry.repo_slug}: a remote entry is not scanned; copy the "
                "corpus with `tdmscan fetch` and scan the manifest it writes"
            )
    n = max(1, min(workers, _usable_cpus())) if hasattr(os, "fork") else 1
    parts = _scan_forked(_deal(ordered, n), registry, options)

    aggregator = Aggregator(registry.version)
    results: list[EntryResult] = [None] * len(ordered)
    for worker, (part, part_results) in enumerate(parts):
        aggregator.merge(part)
        results[worker :: len(parts)] = part_results
    warnings: list[str] = []
    for result in results:
        if result.status == "ok":
            warnings.extend(
                f"{result.slug}: {message}" for message in result.warnings
            )
        else:
            warnings.append(f"{result.slug}: {result.message}")
    return ScanResult(report=aggregator.report(), entries=results, warnings=warnings)
