"""The four configuration anti-patterns, with per-finding evidence.

Late Merging: every tool-bearing job is restricted to push builds on
main/master.  Skip-on-Failure: allow_failures present.  Absent Feedback: no
enabled notification channel.  Email-only: email is the sole enabled
channel.  Absent Feedback and Email-only are mutually exclusive by
construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from .config_model import Job, PipelineConfig, clip
from .registry import PipelineToolProfile

FINDING_NAMES = ("late_merging", "skip_on_failure", "absent_feedback", "email_only")

LATE_MERGING_MODE_PIPELINE = "pipeline"
LATE_MERGING_MODE_JOB = "job"

Evidence = list[tuple[str, str]]

_MAIN_BRANCHES = frozenset({"main", "master"})
_PR_TYPES = frozenset({"pull_request", "pr"})
_OTHER_TYPES = frozenset({"pull_request", "pr", "cron", "api"})

# Tolerant clause matcher: `type`/`branch`, then `=`, `==` or `IN (...)`.
_CLAUSE = re.compile(
    r"\b(type|branch)\s*(?:==|=|\bIN\b|\bin\b)\s*(\(([^)]*)\)|[^\s()]+)",
    re.IGNORECASE,
)
# What keeps a condition from restricting: any `OR`, or a `NOT` before a
# `type` or `branch` clause.
_NOT_A_RESTRICTION = re.compile(
    r"(?<![^\s()])(?:OR(?![^\s(])|NOT[\s(]+(?:type|branch)\b)", re.IGNORECASE
)
# A `NOT` ending the text before a clause: `NOT type = x`, `NOT (type = x)`.
_NEGATES = re.compile(r"(?<![^\s()])NOT[\s(]+\Z", re.IGNORECASE)


@dataclass
class FindingSet:
    """Anti-pattern booleans for one pipeline plus supporting evidence."""

    late_merging: bool = False
    skip_on_failure: bool = False
    absent_feedback: bool = False
    email_only: bool = False
    late_merging_all_jobs: bool = False
    late_merging_any_job: bool = False
    evidence: dict[str, Evidence] = field(default_factory=dict)

    def as_dict(self) -> dict[str, bool]:
        return {
            "late_merging": self.late_merging,
            "skip_on_failure": self.skip_on_failure,
            "absent_feedback": self.absent_feedback,
            "email_only": self.email_only,
        }

    def true_findings(self) -> list[str]:
        return [name for name in FINDING_NAMES if self.as_dict()[name]]


def _excerpt(value: Any) -> str:
    return clip(json.dumps(value, sort_keys=True, default=str))


def _clause_values(condition: str, key: str) -> set[str]:
    """The values of `condition`'s `key` clauses that no `NOT` precedes."""
    values: set[str] = set()
    for match in _CLAUSE.finditer(condition):
        if match.group(1).lower() != key or _NEGATES.search(condition, 0, match.start()):
            continue
        body = match.group(3) if match.group(3) is not None else match.group(2)
        for token in re.split(r"[,\s]+", body):
            token = token.strip("\"'")
            if token:
                values.add(token.lower())
    return values


def _condition_restricts_to_main_push(condition: str) -> bool:
    if _NOT_A_RESTRICTION.search(condition):
        return False
    types = _clause_values(condition, "type")
    branches = _clause_values(condition, "branch")
    if "push" not in types or types & _OTHER_TYPES:
        return False
    if not branches or not branches <= _MAIN_BRANCHES:
        return False
    return True


def _condition_reenables_pr(condition: str | None) -> bool:
    if not condition:
        return False
    return bool(_clause_values(condition, "type") & _PR_TYPES)


def _branch_only_restricts(only: list[str] | None) -> bool:
    if not only:
        return False
    return {branch.lower() for branch in only} <= _MAIN_BRANCHES


def _job_restriction(
    cfg: PipelineConfig, job: Job
) -> tuple[bool, Evidence]:
    """Whether `job` runs only on push builds of main/master, by the first
    condition it has of its own, its stage's and the global one, or by a
    `branches: only:` list that no such condition widens to pull requests."""
    stage_condition = cfg.stage_conditions.get(job.stage_name)
    if job.condition:
        condition = job.condition
        path = f"{job.entry_path}.if" if job.entry_path else "if"
    elif stage_condition:
        condition, path = stage_condition, f"stages[{job.stage_name}].if"
    else:
        condition, path = cfg.global_condition, "if"
    if condition and _condition_restricts_to_main_push(condition):
        return True, [(path, clip(condition))]
    if _branch_only_restricts(job.branch_only) and not _condition_reenables_pr(
        condition
    ):
        return True, [(f"{job.entry_path}.branches.only", _excerpt(job.branch_only))]
    if _branch_only_restricts(cfg.global_branch_only) and not _condition_reenables_pr(
        condition
    ):
        return True, [("branches.only", _excerpt(cfg.global_branch_only))]
    return False, []


def _late_merging_readings(
    cfg: PipelineConfig, profile: PipelineToolProfile
) -> tuple[bool, bool, Evidence]:
    """All-jobs and any-job readings plus the restricted jobs' evidence."""
    indexes = sorted(profile.jobs)
    evidence: Evidence = []
    restricted_jobs = 0
    for index in indexes:
        restricted, job_evidence = _job_restriction(cfg, cfg.jobs[index])
        if restricted:
            restricted_jobs += 1
            evidence.extend(job_evidence)
    all_jobs = bool(indexes) and restricted_jobs == len(indexes)
    return all_jobs, restricted_jobs > 0, evidence


def detect_skip_on_failure(cfg: PipelineConfig) -> tuple[bool, Evidence]:
    """True iff allow_failures appears under `jobs` or `matrix`."""
    evidence: Evidence = []
    for key in ("jobs", "matrix"):
        block = cfg.raw.get(key)
        if isinstance(block, dict) and "allow_failures" in block:
            evidence.append((f"{key}.allow_failures", _excerpt(block["allow_failures"])))
    return bool(evidence), evidence


def detect_absent_feedback(cfg: PipelineConfig) -> tuple[bool, Evidence]:
    """No notifications section, or one without any enabled channel."""
    notifications = cfg.notifications
    if notifications is None:
        return True, [("notifications", "absent")]
    if not notifications.channels:
        return True, [("notifications", _excerpt(notifications.raw))]
    return False, []


def detect_email_only(cfg: PipelineConfig) -> tuple[bool, Evidence]:
    """Email is declared, enabled, and the only enabled channel."""
    notifications = cfg.notifications
    if notifications is None or notifications.channels != frozenset({"email"}):
        return False, []
    raw_email = (
        notifications.raw.get("email")
        if isinstance(notifications.raw, dict)
        else notifications.raw
    )
    return True, [("notifications.email", _excerpt(raw_email))]


def evaluate(
    cfg: PipelineConfig,
    profile: PipelineToolProfile,
    late_merging_mode: str = LATE_MERGING_MODE_PIPELINE,
) -> FindingSet:
    """Run all four rules and assemble the FindingSet."""
    late_all, late_any, late_evidence = _late_merging_readings(cfg, profile)
    skip, skip_evidence = detect_skip_on_failure(cfg)
    absent, absent_evidence = detect_absent_feedback(cfg)
    email, email_evidence = detect_email_only(cfg)

    late = late_any if late_merging_mode == LATE_MERGING_MODE_JOB else late_all

    evidence: dict[str, Evidence] = {}
    if late:
        evidence["late_merging"] = late_evidence
    if skip:
        evidence["skip_on_failure"] = skip_evidence
    if absent:
        evidence["absent_feedback"] = absent_evidence
    if email:
        evidence["email_only"] = email_evidence

    return FindingSet(
        late_merging=late,
        skip_on_failure=skip,
        absent_feedback=absent,
        email_only=email,
        late_merging_all_jobs=late_all,
        late_merging_any_job=late_any,
        evidence=evidence,
    )
