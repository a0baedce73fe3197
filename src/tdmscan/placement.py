"""Where and when detected tools run: job/stage kind and deployment timing.

A job that runs only tool work sits in a dedicated stage (alone in an
explicitly named stage) or is a dedicated job; anything else is mixed.
Setup phases (before_install, install, before_script) and shell ceremony do
not count against dedication.  Timing splits executions into pre-deployment
gates and post-deployment reports.
"""

from __future__ import annotations

import enum
import re
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Mapping

from .config_model import (
    PhaseKind,
    PipelineConfig,
    Job,
    SETUP_PHASES,
    resolve_stage_name,
)
from .registry import (
    Detection,
    PipelineToolProfile,
    SOURCE_CONFIG,
    SOURCE_SCRIPT,
    compile_anchored,
)
from .script_resolver import (
    ScriptDocument,
    command_lines,
    command_words,
    is_installer,
    script_paths,
    split_actions,
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


# Shell ceremony ignored by the "runs only the tool" test.
_CEREMONY_HEADS = frozenset({"echo", "cd", "export", "set"})
# Scripts additionally contain structure that is not a task of its own.
_SCRIPT_CEREMONY_HEADS = _CEREMONY_HEADS | frozenset(
    {
        "if", "then", "else", "elif", "fi",
        "for", "while", "until", "do", "done",
        "case", "esac", "local", "return", "shift",
        "break", "continue", "trap", "exit", "true",
        ":", "{", "}", "[", "[[", "function",
    }
)

@lru_cache(maxsize=1024)
def _anchored_literal(text: str) -> re.Pattern[str]:
    return compile_anchored(re.escape(text))


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


def _is_ceremony(action: str, heads: frozenset[str]) -> bool:
    words = command_words(action)
    return not words or words[0] in heads or is_installer(words)


def _action_has_detection(action: str, matched_texts: tuple[str, ...]) -> bool:
    for text in matched_texts:
        if _anchored_literal(text).search(action):
            return True
    return False


def _substantial_lines(content: str) -> frozenset[int]:
    """Indexes of the script lines with an action that is not ceremony."""
    return frozenset(
        index
        for index, stripped in command_lines(content)
        if any(
            not _is_ceremony(action, _SCRIPT_CEREMONY_HEADS)
            for action in split_actions(stripped)
        )
    )


def _action_is_tool_script(action: str, runs_only_tools: Callable[[str], bool]) -> bool:
    paths = script_paths(action)
    return bool(paths) and all(map(runs_only_tools, paths))


def _runs_only_tdm(
    job: Job,
    config_detections: list[Detection],
    open_actions: Callable[[str], list[str]],
) -> bool:
    """Whether every action of the job's non-setup phases is ceremony, runs
    only tool scripts, or carries one of its phase's config detections.

    `open_actions` gives a command text's actions that are neither ceremony
    nor a tool script; only those are searched for a detection.
    """
    for phase, commands in job.phases.items():
        if phase in SETUP_PHASES:
            continue
        # Whether any detection matches an action depends only on the
        # distinct matched texts, not on their order or repeats.
        config_texts = tuple(
            dict.fromkeys(d.matched_text for d in config_detections if d.phase == phase)
        )
        for text in dict.fromkeys([cmd.text for cmd in commands]):
            for action in open_actions(text):
                if not _action_has_detection(action, config_texts):
                    return False
    return True


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
) -> list[PlacementResult]:
    """One PlacementResult per detection-bearing job, in job order.

    Dedicated stage requires an explicitly named stage containing exactly
    the job; a job that passes the "only tool work" test in a shared or
    implicit stage is a dedicated job; everything else is mixed.

    Each job reads its config detections and its script sites from the
    profile; a script's detections are never copied per job.  A detection's
    timing depends only on its job and phase, so classify_timing runs once
    per (job, phase) with detections, and the job's detections are counted
    per (source, phase).  Each distinct command text is split and judged
    once per pipeline; only the search for a job's own config detections
    runs per job.
    """
    results: list[PlacementResult] = []
    stage_sizes = Counter(resolve_stage_name(job) for job in cfg.jobs)
    decided: dict[str, bool] = {}

    def runs_only_tools(path: str) -> bool:
        # Every substantial line of the script carries a detection: that
        # depends only on the script, so it is decided once, on first lookup.
        if path not in decided:
            doc = scripts.get(path)
            decided[path] = (
                doc is not None
                and doc.resolved
                and doc.content is not None
                and _substantial_lines(doc.content)
                <= {d.line_ordinal for d in profile.script_detections(path)}
            )
        return decided[path]

    # Per distinct command text, its actions that are neither ceremony nor a
    # tool script: that depends only on the text and on the scripts, so it
    # is decided once, on first lookup.
    open_by_text: dict[str, list[str]] = {}

    def open_actions(text: str) -> list[str]:
        if text not in open_by_text:
            open_by_text[text] = [
                action
                for _, stripped in command_lines(text)
                for action in split_actions(stripped)
                if not (
                    _is_ceremony(action, _CEREMONY_HEADS)
                    or _action_is_tool_script(action, runs_only_tools)
                )
            ]
        return open_by_text[text]

    script_tools = {
        path: {d.tool_id for d in profile.script_detections(path)}
        for path in profile.sites
    }
    jobs = profile.jobs()
    for job in cfg.jobs:
        if job.index not in jobs:
            continue
        config, script_sites = jobs[job.index]
        tool_ids = {d.tool_id for d in config}
        counts = [
            (SOURCE_CONFIG, phase, count)
            for phase, count in Counter(d.phase for d in config).items()
        ]
        for path, phase in script_sites:
            counts.append((SOURCE_SCRIPT, phase, len(profile.script_detections(path))))
            tool_ids |= script_tools[path]
        phases = dict.fromkeys(phase for _, phase, _ in counts)
        kinds = {phase: classify_timing(cfg, job, phase) for phase in phases}
        source_timings: dict[str, TimingKind] = {}
        timing_counts: dict[TimingKind, int] = {}
        for source, phase, count in counts:
            kind = kinds[phase]
            timing_counts[kind] = timing_counts.get(kind, 0) + count
            if source_timings.get(source) is not TimingKind.POST_DEPLOYMENT:
                source_timings[source] = kind
        if not _runs_only_tdm(job, config, open_actions):
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
                multi_tool=len(tool_ids) >= 2,
            )
        )
    return results
