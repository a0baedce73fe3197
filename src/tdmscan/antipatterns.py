"""The four configuration anti-patterns, with per-finding evidence.

Late Merging: every tool-bearing job is restricted to push builds on
main/master.  Skip-on-Failure: allow_failures present.  Absent Feedback: no
enabled notification channel.  Email-only: email is the sole enabled
channel.  Absent Feedback and Email-only are mutually exclusive by
construction.

Each rule decides its flag first and returns it with a function that builds
its evidence, the (config path, excerpt) pairs behind a true flag.  Nothing
calls that function but a read of `FindingSet.evidence`, which only
`tdmscan analyze` makes: a scan keeps the flags alone.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Any, Callable

from .config_model import Job, PipelineConfig, clip
from .registry import PipelineToolProfile

FINDING_NAMES = ("late_merging", "skip_on_failure", "absent_feedback", "email_only")

LATE_MERGING_MODE_PIPELINE = "pipeline"
LATE_MERGING_MODE_JOB = "job"

Evidence = list[tuple[str, str]]
Build = Callable[[], Evidence]
# A rule's flag and its evidence builder; `list` builds no evidence.
Rule = tuple[bool, Build]

_MAIN_BRANCHES = frozenset({"main", "master"})
_PR_TYPES = frozenset({"pull_request", "pr"})
_OTHER_TYPES = frozenset({"pull_request", "pr", "cron", "api"})

# Tolerant clause matcher: `type`/`branch`, then `=`, `==` or `IN (...)`.
# A list's body holds no `(`: a `(` that is never closed is given up at the
# next `(`, not at the end of the condition, so the search stays linear.
_CLAUSE = re.compile(
    r"\b(type|branch)\s*(?:==|=|\bIN\b|\bin\b)\s*(\(([^()]*)\)|[^\s()]+)",
    re.IGNORECASE,
)
# What keeps a condition from restricting: any `OR`, or a `NOT` before a
# `type` or `branch` clause.
_NOT_A_RESTRICTION = re.compile(
    r"(?<![^\s()])(?:OR(?![^\s(])|NOT[\s(]+(?:type|branch)\b)", re.IGNORECASE
)
# A `NOT` run; a clause starting where one ends is negated: `NOT type = x`,
# `NOT (type = x)`.
_NOT = re.compile(r"(?<![^\s()])NOT[\s(]+", re.IGNORECASE)


@dataclass
class FindingSet:
    """Anti-pattern booleans for one pipeline, and the builders of its true
    findings' evidence, which is built on the first read of `evidence`."""

    late_merging: bool = False
    skip_on_failure: bool = False
    absent_feedback: bool = False
    email_only: bool = False
    late_merging_all_jobs: bool = False
    late_merging_any_job: bool = False
    builders: dict[str, Build] = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def evidence(self) -> dict[str, Evidence]:
        return {name: build() for name, build in self.builders.items()}

    def as_dict(self) -> dict[str, bool]:
        return {name: getattr(self, name) for name in FINDING_NAMES}

    def true_findings(self) -> list[str]:
        return [name for name in FINDING_NAMES if getattr(self, name)]


def _excerpt(value: Any) -> str:
    return clip(json.dumps(value, sort_keys=True, default=str))


def _condition_reading(condition: str) -> tuple[bool, bool]:
    """Whether `condition` restricts to push builds of main/master, and
    whether it re-enables pull requests, from its `type` and `branch`
    clauses that no `NOT` precedes, read in one pass."""
    negated = {match.end() for match in _NOT.finditer(condition)}
    values: dict[str, set[str]] = {"type": set(), "branch": set()}
    for match in _CLAUSE.finditer(condition):
        if match.start() in negated:
            continue
        body = match.group(3) if match.group(3) is not None else match.group(2)
        for token in re.split(r"[,\s]+", body):
            token = token.strip("\"'")
            if token:
                values[match.group(1).lower()].add(token.lower())
    types, branches = values["type"], values["branch"]
    push_only = "push" in types and not types & _OTHER_TYPES
    restricts = push_only and bool(branches) and branches <= _MAIN_BRANCHES
    return restricts and not _NOT_A_RESTRICTION.search(condition), bool(types & _PR_TYPES)


def _branch_only_restricts(only: list[str] | None) -> bool:
    if not only:
        return False
    return {branch.lower() for branch in only} <= _MAIN_BRANCHES


def _job_restriction(cfg: PipelineConfig, job: Job, read: Callable) -> Rule:
    """Whether `job` runs only on push builds of main/master, by the first
    condition it has of its own, its stage's and the global one, as `read`
    reads it, or by a `branches: only:` list that no such condition widens to
    pull requests."""
    stage_condition = cfg.stage_conditions.get(job.stage_name)
    if job.condition:
        condition = job.condition
        path = f"{job.entry_path}.if" if job.entry_path else "if"
    elif stage_condition:
        condition, path = stage_condition, f"stages[{job.stage_name}].if"
    else:
        condition, path = cfg.global_condition, "if"
    restricts, reenables_pr = read(condition) if condition else (False, False)
    if restricts:
        return True, lambda: [(path, clip(condition))]
    if reenables_pr:
        return False, list
    if _branch_only_restricts(job.branch_only):
        return True, lambda: [(f"{job.entry_path}.branches.only", _excerpt(job.branch_only))]
    if _branch_only_restricts(cfg.global_branch_only):
        return True, lambda: [("branches.only", _excerpt(cfg.global_branch_only))]
    return False, list


def _late_merging_readings(
    cfg: PipelineConfig, profile: PipelineToolProfile
) -> tuple[bool, bool, Build]:
    """All-jobs and any-job readings, and the restricted jobs' evidence.
    Each distinct condition is read once, whichever jobs share it."""
    indexes = sorted(profile.jobs)
    read = cache(_condition_reading)
    rules = [_job_restriction(cfg, cfg.jobs[index], read) for index in indexes]
    builds = [build for restricted, build in rules if restricted]
    all_jobs = bool(indexes) and len(builds) == len(indexes)
    return all_jobs, bool(builds), lambda: [pair for build in builds for pair in build()]


def detect_skip_on_failure(cfg: PipelineConfig) -> Rule:
    """True iff allow_failures appears under `jobs` or `matrix`."""
    blocks = [
        (key, cfg.raw[key])
        for key in ("jobs", "matrix")
        if isinstance(cfg.raw.get(key), dict) and "allow_failures" in cfg.raw[key]
    ]
    return bool(blocks), lambda: [
        (f"{key}.allow_failures", _excerpt(block["allow_failures"])) for key, block in blocks
    ]


def detect_absent_feedback(cfg: PipelineConfig) -> Rule:
    """No notifications section, or one without any enabled channel."""
    notifications = cfg.notifications
    if notifications is None:
        return True, lambda: [("notifications", "absent")]
    return not notifications.channels, lambda: [("notifications", _excerpt(notifications.raw))]


def detect_email_only(cfg: PipelineConfig) -> Rule:
    """Email is declared, enabled, and the only enabled channel (which only
    a mapping of channels can declare)."""
    notifications = cfg.notifications
    if notifications is None or notifications.channels != frozenset({"email"}):
        return False, list
    return True, lambda: [("notifications.email", _excerpt(notifications.raw["email"]))]


def evaluate(
    cfg: PipelineConfig,
    profile: PipelineToolProfile,
    late_merging_mode: str = LATE_MERGING_MODE_PIPELINE,
) -> FindingSet:
    """Run all four rules; the FindingSet keeps the true findings' builders."""
    late_all, late_any, late_build = _late_merging_readings(cfg, profile)
    late = late_any if late_merging_mode == LATE_MERGING_MODE_JOB else late_all
    rules = {
        "late_merging": (late, late_build),
        "skip_on_failure": detect_skip_on_failure(cfg),
        "absent_feedback": detect_absent_feedback(cfg),
        "email_only": detect_email_only(cfg),
    }
    return FindingSet(
        **{name: flag for name, (flag, _) in rules.items()},
        late_merging_all_jobs=late_all,
        late_merging_any_job=late_any,
        builders={name: build for name, (flag, build) in rules.items() if flag},
    )
