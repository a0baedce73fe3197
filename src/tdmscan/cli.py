"""Command-line entry point.

Subcommands: `analyze` one config or directory, `scan` a corpus (manifest
or directory layout), `registry-validate` a registry file, and `report` to
re-export a saved JSON report.  Standard output carries only data;
diagnostics go to standard error.  Exit codes: 0 success, 1 internal error
or invalid input, 2 not-a-pipeline.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter

from .analytics import CorpusReport, export_csv_bundle, export_json
from .analyzer import AnalysisOptions, explain_document, scan_entries
from .antipatterns import LATE_MERGING_MODE_JOB, LATE_MERGING_MODE_PIPELINE
from .config_model import (
    CONFIG_FILENAME,
    MalformedDocument,
    NotAPipeline,
)
from .ingest import (
    AUTH_TOKEN_ENV,
    FileTooLarge,
    ManifestEntry,
    ManifestParseError,
    NotFound,
    load_manifest,
    materialize,
)
from .registry import Registry, RegistryError, load_registry_file, shipped_registry

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_A_PIPELINE = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdmscan",
        description=(
            "Static analyzer for Travis-style CI pipelines: detects "
            "technical-debt tool usage, classifies placement and timing, "
            "flags configuration anti-patterns, and aggregates corpus "
            f"statistics. Remote fetches read an auth token from ${AUTH_TOKEN_ENV}."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--registry", metavar="PATH", help="registry JSON overriding the shipped one"
    )
    common.add_argument(
        "--no-install-exclusion",
        dest="install_exclusion",
        action="store_false",
        help="also count package-installer lines as tool invocations",
    )
    common.add_argument(
        "--recursive-scripts",
        action="store_true",
        help="follow script references found inside resolved scripts",
    )
    common.add_argument(
        "--late-merging-mode",
        choices=[LATE_MERGING_MODE_PIPELINE, LATE_MERGING_MODE_JOB],
        default=LATE_MERGING_MODE_PIPELINE,
        help="flag late merging when all tool jobs (pipeline) or any (job) are restricted",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", parents=[common], help="analyze one config file or directory"
    )
    analyze.add_argument("path", help=f"a {CONFIG_FILENAME} file or a directory containing one")

    scan = sub.add_parser(
        "scan", parents=[common], help="scan a corpus manifest or directory layout"
    )
    scan.add_argument("path", help="manifest JSON or <root>/<slug>/ directory layout")
    scan.add_argument("--out", default="tdmscan-report", help="output directory")
    scan.add_argument(
        "--format",
        choices=["json", "csv"],
        default=None,
        help="restrict output to one format (default: both)",
    )
    scan.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help=(
            "analyze entries with N workers (default 1): local entries run in "
            "at most N processes, one per usable CPU, where this process scans "
            "one share and N-1 forked children scan the rest; manifests with "
            "remote entries run on N threads that share one fetch rate limit"
        ),
    )

    validate = sub.add_parser(
        "registry-validate", help="validate a registry file (default: shipped)"
    )
    validate.add_argument("path", nargs="?", help="registry JSON path")

    report = sub.add_parser("report", help="re-export a saved JSON report")
    report.add_argument("path", help="report.json produced by scan")
    report.add_argument("--out", default="tdmscan-report", help="output directory")
    report.add_argument("--format", choices=["json", "csv"], default="csv")

    return parser


def _load_registry(args) -> Registry:
    if getattr(args, "registry", None):
        return load_registry_file(args.registry)
    return shipped_registry()


def _options(args) -> AnalysisOptions:
    return AnalysisOptions(
        install_exclusion=args.install_exclusion,
        recursive_scripts=args.recursive_scripts,
        late_merging_mode=args.late_merging_mode,
    )


def _analysis_json(analysis, path: str) -> dict:
    profile = analysis.profile
    detections = [
        {
            "tool": d.tool_id,
            "source": d.source,
            "script": d.script_path,
            "phase": d.phase.value,
            "job": d.job_index,
            "line": d.line_ordinal,
            "matched": d.matched_text,
        }
        for d in profile.all_detections()
    ]
    placements = []
    timing_totals = {"pre_deployment": 0, "post_deployment": 0}
    for placement in analysis.placements:
        timings = {"pre_deployment": 0, "post_deployment": 0}
        for kind, count in placement.timing_counts.items():
            timings[kind.value] += count
            timing_totals[kind.value] += count
        placements.append(
            {
                "job": placement.job_index,
                "stage": placement.stage_label,
                "placement": placement.placement.value,
                "multi_tool": placement.multi_tool,
                "timings": timings,
            }
        )
    findings = analysis.findings
    return {
        "repo": analysis.repo_slug,
        "path": path,
        "tools": profile.tools,
        "detections": detections,
        "placements": placements,
        "timing": timing_totals,
        "stage_labels": Counter(p.stage_label for p in analysis.placements),
        "findings": {
            **findings.as_dict(),
            "late_merging_all_jobs": findings.late_merging_all_jobs,
            "late_merging_any_job": findings.late_merging_any_job,
        },
        "evidence": {
            name: [list(pair) for pair in pairs]
            for name, pairs in findings.evidence.items()
        },
        "warnings": analysis.warnings,
    }


def _find_config(path: str) -> tuple[str, str]:
    """(tree root, config path in it) for a file-or-directory argument."""
    if os.path.isdir(path):
        return path, CONFIG_FILENAME
    return os.path.dirname(path) or ".", os.path.basename(path)


def _cmd_analyze(args) -> int:
    registry = _load_registry(args)
    root, rel = _find_config(args.path)
    slug = os.path.basename(os.path.abspath(root))
    try:
        doc, tree = materialize(ManifestEntry(slug, rel, None, local_root=root))
        analysis = explain_document(doc, tree, registry, _options(args))
    except (FileTooLarge, NotAPipeline, MalformedDocument) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NOT_A_PIPELINE
    json.dump(_analysis_json(analysis, doc.path), sys.stdout, sort_keys=True, indent=2)
    print()
    return EXIT_OK


def _entries_from_directory(root: str) -> list[ManifestEntry]:
    """One entry per directory under `root`, in name order; the directories
    are not opened here, `materialize` reads each entry's files."""
    with os.scandir(root) as listing:
        names = sorted(item.name for item in listing if item.is_dir())
    return [
        ManifestEntry(name, CONFIG_FILENAME, None, local_root=os.path.join(root, name))
        for name in names
    ]


def _render(report: CorpusReport, fmt: str | None) -> dict[str, bytes]:
    """Every output file's bytes by file name, in the order they are written."""
    files = {}
    if fmt in (None, "json"):
        files["report.json"] = export_json(report)
    if fmt in (None, "csv"):
        files.update(export_csv_bundle(report))
    return files


def _write_files(files: dict[str, bytes], out_dir: str) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, blob in files.items():
        path = os.path.join(out_dir, name)
        with open(path, "wb") as handle:
            handle.write(blob)
        written.append(path)
    return written


def _write_outputs(report: CorpusReport, out_dir: str, fmt: str | None) -> list[str]:
    return _write_files(_render(report, fmt), out_dir)


def _cmd_scan(args) -> int:
    registry = _load_registry(args)
    if os.path.isdir(args.path):
        entries = _entries_from_directory(args.path)
    else:
        entries = load_manifest(args.path).entries
    result = scan_entries(
        entries, registry, _options(args), workers=max(1, args.workers)
    )
    for warning in result.warnings:
        print(warning, file=sys.stderr)
    _write_outputs(result.report, args.out, args.format)
    totals = result.report.totals
    print(f"pipelines analyzed: {totals['pipelines']}")
    print(f"pipelines with tools: {totals['pipelines_with_tools']}")
    print(f"entries skipped or failed: {len(entries) - result.succeeded}")
    print(f"warnings: {len(result.warnings)}")
    if entries and result.succeeded == 0:
        return EXIT_ERROR
    return EXIT_OK


def _cmd_registry_validate(args) -> int:
    try:
        if args.path:
            registry = load_registry_file(args.path)
        else:
            registry = shipped_registry()
    except RegistryError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(f"{len(registry)} tools, OK")
    return EXIT_OK


def _cmd_report(args) -> int:
    try:
        with open(args.path, encoding="utf-8") as handle:
            report = CorpusReport.from_json_dict(json.load(handle))
        # Rendered before anything is written: a row without a column the
        # export reads fails here and leaves no partial output.
        files = _render(report, args.format)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_ERROR
    for path in _write_files(files, args.out):
        print(path)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "registry-validate": _cmd_registry_validate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (RegistryError, ManifestParseError, FileNotFoundError, NotFound) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
