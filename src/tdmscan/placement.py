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
from typing import Mapping

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
    extract_script_refs,
    is_installer_segment,
    shell_tokens,
    split_actions,
    strip_wrappers,
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


class NoDetectionInJob(ValueError):
    """classify_placement requires a job with at least one detection."""


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
    """Classification of one detection-bearing job."""

    job_index: int
    stage_label: str
    placement: PlacementKind
    timings: dict[Detection, TimingKind]
    multi_tool: bool

    def sources(self) -> list[str]:
        return sorted({d.source for d in self.timings})

    def timing_for_source(self, source: str) -> TimingKind:
        """Post when any detection of `source` is post, else pre."""
        values = [t for d, t in self.timings.items() if d.source == source]
        if any(t is TimingKind.POST_DEPLOYMENT for t in values):
            return TimingKind.POST_DEPLOYMENT
        return TimingKind.PRE_DEPLOYMENT


def _is_ceremony(action: str, heads: frozenset[str]) -> bool:
    tokens = strip_wrappers(shell_tokens(action))
    if not tokens:
        return True
    return tokens[0] in heads or is_installer_segment(action)


def _action_has_detection(action: str, matched_texts: tuple[str, ...]) -> bool:
    for text in matched_texts:
        if _anchored_literal(text).search(action):
            return True
    return False


@lru_cache(maxsize=256)
def _substantial_lines(content: str) -> frozenset[int]:
    """Indexes of the script lines with an action that is not ceremony."""
    lines = set()
    for index, line in enumerate(content.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if any(
            not _is_ceremony(action, _SCRIPT_CEREMONY_HEADS)
            for action in split_actions(stripped)
        ):
            lines.add(index)
    return frozenset(lines)


def _script_runs_only_tools(
    path: str,
    doc: ScriptDocument,
    job_detections: list[Detection],
) -> bool:
    """Every substantial line of the script carries a detection."""
    if not doc.resolved or doc.content is None:
        return False
    detected_lines = {
        d.line_ordinal
        for d in job_detections
        if d.source == SOURCE_SCRIPT and d.script_path == path
    }
    return _substantial_lines(doc.content) <= detected_lines


def _action_is_tool_script(
    action: str,
    cmd_for_refs,
    scripts: Mapping[str, ScriptDocument],
    job_detections: list[Detection],
) -> bool:
    pseudo = cmd_for_refs._replace(text=action)
    refs = extract_script_refs(pseudo)
    if not refs:
        return False
    for ref in refs:
        doc = scripts.get(ref.normalized_path)
        if doc is None or not _script_runs_only_tools(
            ref.normalized_path, doc, job_detections
        ):
            return False
    return True


def _runs_only_tdm(
    job: Job,
    job_detections: list[Detection],
    scripts: Mapping[str, ScriptDocument],
) -> bool:
    for phase, commands in job.phases.items():
        if phase in SETUP_PHASES:
            continue
        # Whether any detection matches an action depends only on the
        # distinct matched texts, not on their order or repeats.
        config_texts = tuple(
            dict.fromkeys(
                d.matched_text
                for d in job_detections
                if d.source == SOURCE_CONFIG and d.phase == phase
            )
        )
        for cmd in commands:
            for line in cmd.text.splitlines():
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                for action in split_actions(stripped):
                    if _is_ceremony(action, _CEREMONY_HEADS):
                        continue
                    if _action_has_detection(action, config_texts):
                        continue
                    if _action_is_tool_script(action, cmd, scripts, job_detections):
                        continue
                    return False
    return True


def _stage_sizes(cfg: PipelineConfig) -> Counter[str]:
    """Number of jobs per stage label."""
    return Counter(resolve_stage_name(job) for job in cfg.jobs)


def _placement(
    job: Job,
    job_detections: list[Detection],
    scripts: Mapping[str, ScriptDocument],
    stage_sizes: Counter[str],
) -> PlacementKind:
    if _runs_only_tdm(job, job_detections, scripts):
        if job.stage_name is not None and stage_sizes[job.stage_name] == 1:
            return PlacementKind.DEDICATED_STAGE
        return PlacementKind.DEDICATED_JOB
    return PlacementKind.MIXED_JOB


def classify_placement(
    cfg: PipelineConfig,
    job: Job,
    profile: PipelineToolProfile,
    scripts: Mapping[str, ScriptDocument],
) -> PlacementKind:
    """Dedicated stage, dedicated job, or mixed job, for one detected job.

    Dedicated stage requires an explicitly named stage containing exactly
    this job; a job that passes the "only tool work" test in a shared or
    implicit stage is a dedicated job; everything else is mixed.
    """
    job_detections = profile.detections_for_job(job.index)
    if not job_detections:
        raise NoDetectionInJob(f"job {job.index} has no detections")
    return _placement(job, job_detections, scripts, _stage_sizes(cfg))


def classify_timing(cfg: PipelineConfig, det: Detection) -> TimingKind:
    """Pre-deployment gate or post-deployment report, for one detection.

    Post when the detection runs in after_deploy, in after_success or
    after_script of a deploying job, or in a stage strictly after the first
    deploying stage.  Pipelines without deployment are gates throughout.
    """
    if det.phase is PhaseKind.AFTER_DEPLOY:
        return TimingKind.POST_DEPLOYMENT
    job = cfg.jobs[det.job_index]
    if (
        det.phase in (PhaseKind.AFTER_SUCCESS, PhaseKind.AFTER_SCRIPT)
        and job.deploys
    ):
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

    A detection's timing depends only on its job and phase, so
    classify_timing runs once per phase among each job's detections.
    """
    results: list[PlacementResult] = []
    stage_sizes = _stage_sizes(cfg)
    for job in cfg.jobs:
        job_detections = profile.detections_for_job(job.index)
        if not job_detections:
            continue
        placement = _placement(job, job_detections, scripts, stage_sizes)
        kinds: dict[PhaseKind, TimingKind] = {}
        timings: dict[Detection, TimingKind] = {}
        for d in job_detections:
            kind = kinds.get(d.phase)
            if kind is None:
                kind = kinds[d.phase] = classify_timing(cfg, d)
            timings[d] = kind
        tool_count = len({d.tool_id for d in job_detections})
        results.append(
            PlacementResult(
                job_index=job.index,
                stage_label=resolve_stage_name(job),
                placement=placement,
                timings=timings,
                multi_tool=tool_count >= 2,
            )
        )
    return results
