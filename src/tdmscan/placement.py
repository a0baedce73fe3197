"""Where and when detected tools run: job/stage kind and deployment timing.

A job that runs only tool work sits in a dedicated stage (alone in an
explicitly named stage) or is a dedicated job; anything else is mixed.
Setup phases (before_install, install, before_script) and shell ceremony do
not count against dedication.  Timing splits executions into pre-deployment
gates and post-deployment reports.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from functools import cache
from typing import Callable, Mapping

from .config_model import (
    PhaseKind,
    PipelineConfig,
    Job,
    SETUP_PHASES,
    resolve_stage_name,
)
from .registry import (
    PipelineToolProfile,
    Registry,
    SOURCE_CONFIG,
    SOURCE_SCRIPT,
)
from .script_resolver import (
    LineAction,
    ScriptDocument,
    command_lines,
    shell_line,
)


class PlacementKind(enum.Enum):
    DEDICATED_STAGE = "dedicated_stage"
    DEDICATED_JOB = "dedicated_job"
    MIXED_JOB = "mixed_job"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TimingKind(enum.Enum):
    PRE_DEPLOYMENT = "pre_deployment"
    POST_DEPLOYMENT = "post_deployment"
    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class PlacementResult:
    """Classification of one detection-bearing job.

    `source_timings` maps each detection source of the job, in sorted
    order, to post when any of its detections is post, else pre;
    `timing_counts` counts the job's detections per timing kind.
    """

    job_index: int
    stage_label: str
    placement: PlacementKind
    source_timings: dict[str, TimingKind]
    timing_counts: dict[TimingKind, int]
    multi_tool: bool


def _substantial_lines(content: str) -> frozenset[int]:
    """Indexes of the script lines with an action that is not ceremony."""
    return frozenset(
        index
        for index, stripped in command_lines(content)
        if not all(script_ceremony for _, _, script_ceremony, _ in shell_line(stripped).actions)
    )


def _runs_only_tdm(job: Job, runs_tool_work: Callable[[str], bool]) -> bool:
    """Whether every command text of the job's non-setup phases runs only
    tool work (see classify_pipeline)."""
    return all(
        runs_tool_work(text)
        for phase, texts in job.phases.items()
        if phase not in SETUP_PHASES
        for text in texts
    )


def classify_timing(cfg: PipelineConfig, job: Job, phase: PhaseKind) -> TimingKind:
    """Pre-deployment gate or post-deployment report, for `job`'s `phase`.

    Post in after_deploy, in after_success or after_script of a deploying
    job, or in a stage strictly after the first deploying stage.  Pipelines
    without deployment are gates throughout.
    """
    if phase is PhaseKind.AFTER_DEPLOY:
        return TimingKind.POST_DEPLOYMENT
    if phase in (PhaseKind.AFTER_SUCCESS, PhaseKind.AFTER_SCRIPT) and job.deploys:
        return TimingKind.POST_DEPLOYMENT
    if resolve_stage_name(job) in cfg.post_deploy_stages:
        return TimingKind.POST_DEPLOYMENT
    return TimingKind.PRE_DEPLOYMENT


def classify_pipeline(
    cfg: PipelineConfig,
    profile: PipelineToolProfile,
    scripts: Mapping[str, ScriptDocument],
    registry: Registry,
    *,
    install_exclusion: bool = True,
) -> list[PlacementResult]:
    """One PlacementResult per detection-bearing job, in job order.

    Dedicated stage requires an explicitly named stage containing exactly
    the job; a job that passes the "only tool work" test in a shared or
    implicit stage is a dedicated job; everything else is mixed.  A job
    passes when every action of its non-setup phases is ceremony, carries
    tool work (the registry finds a tool in the action's own text, with the
    scan's `install_exclusion`), or runs only scripts whose every
    substantial line carries a detection.

    Each job reads its config detections and its script sites from the
    profile; a script's detections are never copied per job.  A detection's
    timing depends only on its job and phase, so classify_timing runs once
    per (job, phase) with detections, and the job's detections are counted
    per (source, phase).  Whether a command text runs only tool work
    depends only on the text, so it is decided once per distinct text.
    """
    results: list[PlacementResult] = []
    stage_sizes = Counter(resolve_stage_name(job) for job in cfg.jobs)

    @cache
    def runs_only_tools(path: str) -> bool:
        # Every substantial line of the script carries a detection: that
        # depends only on the script, so it is decided once, on first lookup.
        doc = scripts.get(path)
        return (
            doc is not None
            and doc.content is not None
            and _substantial_lines(doc.content)
            <= {d.line_ordinal for d in profile.scripts.get(path, ())}
        )

    def is_tool_work(action: LineAction) -> bool:
        text, ceremony, _, references = action
        if ceremony or registry.line_hits(text, install_exclusion):
            return True
        paths = [path for path, _ in references if path is not None]
        return bool(paths) and all(map(runs_only_tools, paths))

    @cache
    def runs_tool_work(text: str) -> bool:
        return all(
            is_tool_work(action)
            for _, stripped in command_lines(text)
            for action in shell_line(stripped).actions
        )

    script_tools = {
        path: {d.tool_id for d in found} for path, found in profile.scripts.items()
    }
    jobs = profile.jobs
    for job in cfg.jobs:
        if job.index not in jobs:
            continue
        config, script_sites = jobs[job.index]
        job_tools = {d.tool_id for d in config}
        counts = [
            (SOURCE_CONFIG, phase, count)
            for phase, count in Counter(d.phase for d in config).items()
        ]
        for path, phase in script_sites:
            counts.append((SOURCE_SCRIPT, phase, len(profile.scripts[path])))
            job_tools |= script_tools[path]
        phases = dict.fromkeys(phase for _, phase, _ in counts)
        kinds = {phase: classify_timing(cfg, job, phase) for phase in phases}
        source_timings: dict[str, TimingKind] = {}
        timing_counts: dict[TimingKind, int] = {}
        for source, phase, count in counts:
            kind = kinds[phase]
            timing_counts[kind] = timing_counts.get(kind, 0) + count
            if source_timings.get(source) is not TimingKind.POST_DEPLOYMENT:
                source_timings[source] = kind
        if not _runs_only_tdm(job, runs_tool_work):
            placement = PlacementKind.MIXED_JOB
        elif job.stage_name is not None and stage_sizes[job.stage_name] == 1:
            placement = PlacementKind.DEDICATED_STAGE
        else:
            placement = PlacementKind.DEDICATED_JOB
        results.append(
            PlacementResult(
                job_index=job.index,
                stage_label=resolve_stage_name(job),
                placement=placement,
                source_timings=source_timings,
                timing_counts=timing_counts,
                multi_tool=len(job_tools) >= 2,
            )
        )
    return results
