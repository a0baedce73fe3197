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
    iter_command_lines,
    parse_config,
)
from .ingest import (
    FetchPolicy,
    FileTooLarge,
    ManifestEntry,
    NotFound,
    TokenBucket,
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

# Chunks per worker in a sharded scan, dealt round-robin: enough that the
# workers' shares hold a similar mix of small and large pipelines.
_CHUNKS_PER_WORKER = 8


class ParsedConfig(NamedTuple):
    """What script resolution needs of a parsed config: the parse memo's value."""

    warnings: tuple[str, ...]  # the config's, then its script references'
    references: tuple[tuple[str, Site], ...]  # see script_references


# Per-process memo of ParsedConfigs, keyed on the config's (path, sha256,
# invalid_utf8).  Parsing does not depend on the registry, so all share it.
_parse_memo = BoundedMemo()


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
    references = script_references(iter_command_lines(cfg), warnings)
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


def _judge(
    cfg: PipelineConfig,
    scripts: list[ScriptDocument],
    profile: PipelineToolProfile,
    options: AnalysisOptions,
) -> tuple[list[PlacementResult], FindingSet]:
    """The pipeline's placements and anti-pattern findings."""
    scripts_by_path = {script.path: script for script in scripts}
    placements = classify_pipeline(cfg, profile, scripts_by_path)
    findings = evaluate(cfg, profile, late_merging_mode=options.late_merging_mode)
    return placements, findings


def analyze_document(
    doc: RawDocument,
    tree: FileTree,
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
) -> tuple[PipelineRecord, list[str]]:
    """The pipeline's record for the report, and the entry's warnings.

    Raises NotAPipeline / MalformedDocument for unanalyzable input.

    The config's ParsedConfig is memoized on its (path, sha256,
    invalid_utf8), and the record on that key, `options`, the (path, sha256)
    of every script the tree gave (None for a missing one) and `registry`.
    Both are stored on their first sighting.  When the record is not
    memoized but the ParsedConfig is, the config is parsed again.  A
    pipeline without tools is neither placed nor judged: its record is
    TOOLLESS_RECORD whatever the rules would find.
    """
    source = (doc.path, doc.sha256 or text_sha256(doc.content), doc.invalid_utf8)
    cfg = None

    def parse() -> ParsedConfig:
        nonlocal cfg
        cfg = parse_config(doc)
        return _parsed(cfg)

    scripts, sites, warnings = _resolve(_parse_memo.get(source, parse), tree, options)

    def derive() -> PipelineRecord:
        config = cfg if cfg is not None else parse_config(doc)
        profile = profile_pipeline(
            config, scripts, registry, install_exclusion=options.install_exclusion, sites=sites
        )
        if not profile.tools:
            return TOOLLESS_RECORD
        return pipeline_record(profile, *_judge(config, scripts, profile, options))

    key = (source, options, tuple((script.path, script.sha256) for script in scripts))
    return registry._analysis_memo.get(key, derive), warnings


def explain_document(
    doc: RawDocument,
    tree: FileTree,
    registry: Registry,
    options: AnalysisOptions = AnalysisOptions(),
) -> PipelineAnalysis:
    """The pipeline's full profile, placements and findings with evidence.

    Not memoized: `tdmscan analyze` prints every detection and placement,
    which no scan reads.  Raises like analyze_document.
    """
    cfg = parse_config(doc)
    scripts, sites, warnings = _resolve(_parsed(cfg), tree, options)
    profile = profile_pipeline(
        cfg, scripts, registry, install_exclusion=options.install_exclusion, sites=sites
    )
    placements, findings = _judge(cfg, scripts, profile, options)
    return PipelineAnalysis(doc.repo_slug, profile, placements, findings, warnings)


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


def _process_entry(
    entry: ManifestEntry,
    aggregator: Aggregator,
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
    except (NotFound, FileTooLarge) as exc:
        return EntryResult(entry.repo_slug, "skipped", message=str(exc))
    except Exception as exc:  # noqa: BLE001 - entry isolation
        return EntryResult(entry.repo_slug, "failed", message=str(exc))
    try:
        record, warnings = analyze_document(doc, tree, registry, options)
    except (NotAPipeline, MalformedDocument) as exc:
        return EntryResult(entry.repo_slug, "skipped", message=str(exc))
    except Exception as exc:  # noqa: BLE001 - entry isolation
        return EntryResult(entry.repo_slug, "failed", message=str(exc))
    aggregator.add(entry.repo_slug, record)
    return EntryResult(entry.repo_slug, "ok", warnings=warnings)


def _scan_chunk(
    entries: list[ManifestEntry],
    registry: Registry,
    options: AnalysisOptions,
    policy: FetchPolicy,
    session=None,
    clock=None,
    bucket=None,
) -> tuple[Aggregator, list[EntryResult]]:
    """Analyze entries in order, folding every ``ok`` record into one aggregator."""
    aggregator = Aggregator(registry.version)
    results = [
        _process_entry(
            entry, aggregator, registry, options, policy, session, clock, bucket
        )
        for entry in entries
    ]
    return aggregator, results


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _chunks(entries: list[ManifestEntry], workers: int) -> list[list[ManifestEntry]]:
    """Contiguous chunks, several per worker (see _CHUNKS_PER_WORKER)."""
    size = max(1, len(entries) // (workers * _CHUNKS_PER_WORKER))
    return [entries[start : start + size] for start in range(0, len(entries), size)]


def _scan_local(
    entries: list[ManifestEntry],
    registry: Registry,
    options: AnalysisOptions,
    policy: FetchPolicy,
    workers: int,
) -> list[tuple[Aggregator, list[EntryResult]]]:
    """Local entries are CPU-bound: shard them across this and forked processes.

    There are at most ``workers`` processes, one per usable CPU, and never
    more than there are chunks.  This process scans one share of the chunks
    and ``processes - 1`` children forked from it scan the rest, so they
    inherit the loaded package and registry and nothing is pickled on the
    way in.  With one process, or where ``os.fork`` does not exist, every
    entry runs here.
    """
    processes = max(1, min(workers, _usable_cpus()))
    chunks = _chunks(entries, processes)
    processes = min(processes, len(chunks))
    if processes <= 1 or not hasattr(os, "fork"):
        return [_scan_chunk(entries, registry, options, policy)]
    return _scan_forked(chunks, processes, registry, options, policy)


def _scan_forked(
    chunks: list[list[ManifestEntry]],
    processes: int,
    registry: Registry,
    options: AnalysisOptions,
    policy: FetchPolicy,
) -> list[tuple[Aggregator, list[EntryResult]]]:
    """Chunk ``i`` is scanned by worker ``i % processes``; worker 0 is this process.

    Each child sends its ``(chunk index, Aggregator, results)`` list up its
    own pipe and is reaped here, and the parts are returned in chunk order.
    A child's exception is raised here.  If anything fails in this process,
    every child not yet reaped is killed and reaped before it propagates.
    """

    def share(worker: int) -> list[tuple[int, Aggregator, list[EntryResult]]]:
        return [
            (index, *_scan_chunk(chunks[index], registry, options, policy))
            for index in range(worker, len(chunks), processes)
        ]

    # Imported and compiled once, before the fork, so every child inherits
    # both: a child that imported pickle itself began its first chunk about
    # 8 ms later.
    import pickle  # noqa: F401

    registry._unions
    children: dict[int, int] = {}  # child pid -> read end of its pipe
    try:
        for worker in range(1, processes):
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
        parts = share(0)
        for pid, read_fd in list(children.items()):
            with open(read_fd, "rb", closefd=False) as pipe:
                data = pipe.read()
            os.close(read_fd)
            del children[pid]
            _, status = os.waitpid(pid, 0)
            parts.extend(_child_parts(pid, status, data))
    finally:
        for pid, read_fd in children.items():
            import signal  # only failures need it; importing it costs about 1 ms

            os.close(read_fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    parts.sort(key=lambda part: part[0])
    return [(aggregator, results) for _, aggregator, results in parts]


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
) -> list[tuple[int, Aggregator, list[EntryResult]]]:
    """A reaped child's parts, or the exception it reported or died of."""
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


def _scan_remote(
    entries: list[ManifestEntry],
    registry: Registry,
    options: AnalysisOptions,
    policy: FetchPolicy,
    session,
    clock,
    workers: int,
) -> list[tuple[Aggregator, list[EntryResult]]]:
    """Remote fetches wait on I/O: overlap them on threads sharing one rate
    limit and one session; without the caller's, one is opened for the scan."""
    if session is None:
        try:
            import requests
        except ImportError:
            pass  # each remote entry then fails on the import in materialize
        else:
            with requests.Session() as session:
                return _scan_remote(
                    entries, registry, options, policy, session, clock, workers
                )
    bucket = TokenBucket(policy.max_requests_per_hour, clock)

    def scan(chunk: list[ManifestEntry]) -> tuple[Aggregator, list[EntryResult]]:
        return _scan_chunk(chunk, registry, options, policy, session, clock, bucket)

    if workers <= 1 or len(entries) <= 1:
        return [scan(entries)]
    # Imported here, as a local scan never needs it: it pulls in `logging`.
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(scan, _chunks(entries, workers)))


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

    Local entries run in up to ``workers`` processes, at most one per usable
    CPU: the calling process scans one share of them and ``N - 1`` children
    forked from it scan the rest (see _scan_local).  A manifest with remote
    entries runs on ``workers`` threads that share the caller's session and
    one rate limit.  Entries are processed in slug order (the last entry
    wins a repeated slug) and the partial aggregates are merged in that
    order, so the report is the same for any number of workers.
    """
    policy = policy or FetchPolicy()
    by_slug = {entry.repo_slug: entry for entry in entries}
    ordered = [by_slug[slug] for slug in sorted(by_slug)]
    if all(entry.is_local for entry in ordered):
        parts = _scan_local(ordered, registry, options, policy, workers)
    else:
        parts = _scan_remote(ordered, registry, options, policy, session, clock, workers)

    aggregator = Aggregator(registry.version)
    results: list[EntryResult] = []
    for part, part_results in parts:
        aggregator.merge(part)
        results.extend(part_results)
    warnings: list[str] = []
    for result in results:
        if result.status == "ok":
            warnings.extend(
                f"{result.slug}: {message}" for message in result.warnings
            )
        else:
            warnings.append(f"{result.slug}: {result.message}")
    return ScanResult(report=aggregator.report(), entries=results, warnings=warnings)
