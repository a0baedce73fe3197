import re
import time
from collections import Counter

import pytest
import yaml
from hypothesis import given, strategies as st

from tdmscan import antipatterns
from tdmscan.antipatterns import (
    detect_absent_feedback,
    detect_email_only,
    detect_skip_on_failure,
    evaluate,
)
from tdmscan.config_model import parse_config

from conftest import make_doc, profile_of


def build(registry, text):
    cfg = parse_config(make_doc(text))
    return cfg, profile_of(registry, cfg)


class TestLateMerging:
    def test_example_config_not_flagged(self, registry, example_config):
        profile = profile_of(registry, example_config)
        findings = evaluate(example_config, profile)
        assert findings.late_merging_all_jobs is False
        assert findings.evidence.get("late_merging") is None

    def test_if_type_push_branch_master(self, registry):
        cfg, profile = build(
            registry,
            "jobs:\n"
            "  include:\n"
            "    - if: type = push AND branch = master\n"
            "      script: flake8 .\n",
        )
        findings = evaluate(cfg, profile)
        assert findings.late_merging_all_jobs is True
        assert findings.evidence.get("late_merging") == [
            ("jobs.include[0].if", "type = push AND branch = master")
        ]

    def test_evidence_clips_a_long_condition(self, registry):
        condition = "type = push AND branch = master AND repo = "
        condition += "a" * (1000 - len(condition))
        cfg, profile = build(
            registry, f"jobs:\n  include:\n    - if: {condition}\n      script: flake8 .\n"
        )
        findings = evaluate(cfg, profile)
        assert findings.late_merging_all_jobs is True
        assert findings.evidence["late_merging"] == [
            ("jobs.include[0].if", condition[:157] + "...")
        ]

    def test_stage_condition_restricts_its_jobs(self, registry):
        stages = (
            "stages:\n"
            "  - name: lint\n"
            "    if: type = push AND branch = master\n"
            "jobs:\n"
            "  include:\n"
            "    - stage: lint\n"
            "      script: flake8 src\n"
        )
        cfg, profile = build(registry, stages)
        findings = evaluate(cfg, profile)
        assert findings.late_merging is True
        assert findings.evidence["late_merging"] == [
            ("stages[lint].if", "type = push AND branch = master")
        ]
        # A job's own condition comes before its stage's.
        cfg, profile = build(
            registry,
            stages + "    - stage: lint\n      if: type = pull_request\n      script: pylint src\n",
        )
        findings = evaluate(cfg, profile)
        assert (findings.late_merging_all_jobs, findings.late_merging_any_job) == (False, True)

    def test_global_branches_only_main(self, registry):
        cfg, profile = build(
            registry, "branches:\n  only: [main]\nscript: flake8 .\n"
        )
        findings = evaluate(cfg, profile)
        assert findings.late_merging_all_jobs is True
        assert findings.evidence.get("late_merging") == [("branches.only", "[\"main\"]")]

    def test_one_unrestricted_job_unflags_pipeline(self, registry):
        cfg, profile = build(
            registry,
            "jobs:\n"
            "  include:\n"
            "    - if: type = push AND branch = master\n"
            "      script: flake8 a\n"
            "    - script: flake8 b\n",
        )
        findings = evaluate(cfg, profile)
        assert findings.late_merging_all_jobs is False
        assert findings.evidence.get("late_merging") is None
        assert findings.late_merging_any_job is True

    def test_job_mode_uses_any_reading(self, registry):
        cfg, profile = build(
            registry,
            "jobs:\n"
            "  include:\n"
            "    - if: type = push AND branch = master\n"
            "      script: flake8 a\n"
            "    - script: flake8 b\n",
        )
        findings = evaluate(cfg, profile, late_merging_mode="job")
        assert findings.late_merging is True

    def test_double_equals_and_in_clause(self, registry):
        for condition in (
            "type == push AND branch == main",
            "type IN (push) AND branch IN (main, master)",
            "branch = master AND type = push",
            "type = push AND branch = master AND NOT tag IS present",
        ):
            cfg, profile = build(
                registry,
                f"jobs:\n  include:\n    - if: {condition}\n      script: flake8 .\n",
            )
            assert evaluate(cfg, profile).late_merging_all_jobs is True, condition

    def test_non_restricting_conditions(self, registry):
        for condition in (
            "type = push",  # no branch clause
            "branch = master",  # no type clause
            "type IN (push, pull_request) AND branch = master",
            "type = push AND branch = develop",
            "tag IS present",
            "type = push AND NOT branch = master",  # every branch but master
            "type = push AND NOT branch IN (main, master)",
            "type = push AND branch = master OR sender = bot",
        ):
            cfg, profile = build(
                registry,
                f"jobs:\n  include:\n    - if: {condition}\n      script: flake8 .\n",
            )
            findings = evaluate(cfg, profile)
            assert findings.late_merging_all_jobs is False, condition
            assert findings.evidence.get("late_merging") is None, condition

    def test_stage_if_without_a_value_leaves_the_global_condition(self, registry):
        cfg, profile = build(
            registry,
            "if: type = push AND branch = main\n"
            "stages:\n  - name: lint\n    if:\n"
            "jobs:\n  include:\n    - stage: lint\n      script: flake8 .\n",
        )
        assert cfg.stage_conditions == {}
        assert evaluate(cfg, profile).late_merging_all_jobs is True

    def test_branches_only_superset_not_flagged(self, registry):
        cfg, profile = build(
            registry, "branches:\n  only: [master, dev]\nscript: flake8 .\n"
        )
        assert evaluate(cfg, profile).late_merging_all_jobs is False

    def test_pr_condition_overrides_branches_only(self, registry):
        cfg, profile = build(
            registry,
            "branches:\n  only: [main]\n"
            "jobs:\n"
            "  include:\n"
            "    - if: type = pull_request\n"
            "      script: flake8 .\n",
        )
        assert evaluate(cfg, profile).late_merging_all_jobs is False

    @pytest.mark.parametrize(
        "condition, flagged",
        [
            ("NOT type = pull_request", True),
            ("NOT (type = pull_request)", True),
            ("NOT type IN (pull_request, api)", True),
            ("type = pull_request", False),
            ("type IN (push, pull_request)", False),
        ],
    )
    def test_negated_pr_condition_keeps_branches_only(self, registry, condition, flagged):
        cfg, profile = build(
            registry,
            "branches:\n  only: [master]\n"
            "jobs:\n"
            "  include:\n"
            f"    - if: {condition}\n"
            "      script: flake8 src\n",
        )
        findings = evaluate(cfg, profile)
        assert findings.late_merging_all_jobs is flagged
        if flagged:
            assert findings.evidence["late_merging"] == [("branches.only", '["master"]')]

    def test_no_tools_never_flagged(self, registry):
        cfg, profile = build(registry, "branches:\n  only: [main]\nscript: pytest\n")
        assert evaluate(cfg, profile).late_merging_all_jobs is False

    @pytest.mark.parametrize(
        "text, path",
        [
            (
                "if: type = push AND branch = master\nscript: flake8 .\n",
                "if",
            ),
            (
                "matrix:\n  include:\n"
                "    - if: type = push AND branch = master\n      script: flake8 .\n",
                "matrix.include[0].if",
            ),
            (
                "jobs:\n  include:\n    - not a job\n"
                "    - if: type = push AND branch = master\n      script: flake8 .\n",
                "jobs.include[1].if",
            ),
            (
                "jobs:\n  include:\n    - not a job\n"
                "    - branches: {only: [main]}\n      script: flake8 .\n",
                "jobs.include[1].branches.only",
            ),
            (
                "jobs:\n  include:\n"
                "    if: type = push AND branch = master\n    script: flake8 .\n",
                "jobs.include.if",
            ),
            (
                "jobs:\n  - if: type = push AND branch = master\n    script: flake8 .\n",
                "jobs[0].if",
            ),
        ],
        ids=[
            "global-if",
            "matrix-include",
            "skipped-entry",
            "skipped-entry-branches",
            "lone-include",
            "jobs-list",
        ],
    )
    def test_evidence_path_names_the_job_entry(self, registry, text, path):
        cfg, profile = build(registry, text)
        findings = evaluate(cfg, profile)
        assert findings.late_merging_all_jobs is True
        assert [p for p, _ in findings.evidence["late_merging"]] == [path]


class TestSkipOnFailure:
    def test_jobs_allow_failures(self, registry):
        cfg, _ = build(
            registry,
            "jobs:\n  include:\n    - script: x\n  allow_failures:\n    - name: Lint\n",
        )
        flagged, evidence = detect_skip_on_failure(cfg)
        assert flagged is True
        assert evidence() == [("jobs.allow_failures", '[{"name": "Lint"}]')]

    def test_example_config_not_flagged(self, example_config):
        assert detect_skip_on_failure(example_config)[0] is False

    def test_matrix_alias(self, registry):
        cfg, _ = build(
            registry,
            "matrix:\n  include:\n    - script: x\n  allow_failures:\n    - env: A=1\n",
        )
        flagged, evidence = detect_skip_on_failure(cfg)
        assert flagged is True
        assert evidence() == [("matrix.allow_failures", '[{"env": "A=1"}]')]


class TestAbsentFeedback:
    def test_no_notifications_key(self, example_config):
        flagged, evidence = detect_absent_feedback(example_config)
        assert flagged is True
        assert evidence() == [("notifications", "absent")]

    def test_email_true_not_flagged(self, registry):
        cfg, _ = build(registry, "script: x\nnotifications:\n  email: true\n")
        assert detect_absent_feedback(cfg)[0] is False

    def test_email_false_flagged(self, registry):
        cfg, _ = build(registry, "script: x\nnotifications:\n  email: false\n")
        flagged, evidence = detect_absent_feedback(cfg)
        assert flagged is True
        assert evidence() == [("notifications", '{"email": false}')]

    def test_section_without_channels_flagged(self, registry):
        cfg, _ = build(registry, "script: x\nnotifications:\n  on_success: never\n")
        assert detect_absent_feedback(cfg)[0] is True


class TestEmailOnly:
    def test_recipients_mapping(self, registry):
        cfg, _ = build(
            registry,
            "script: x\nnotifications:\n  email:\n    recipients: [a@b.c]\n",
        )
        flagged, evidence = detect_email_only(cfg)
        assert flagged is True
        assert evidence() == [("notifications.email", '{"recipients": ["a@b.c"]}')]

    def test_second_channel_unflags(self, registry):
        cfg, _ = build(
            registry,
            "script: x\nnotifications:\n  email: true\n  slack: tok\n",
        )
        assert detect_email_only(cfg)[0] is False

    def test_absent_section_is_not_email_only(self, example_config):
        assert detect_email_only(example_config)[0] is False

    def test_disabled_second_channel_still_email_only(self, registry):
        cfg, _ = build(
            registry,
            "script: x\nnotifications:\n  email: true\n  slack: false\n",
        )
        assert detect_email_only(cfg)[0] is True


class TestEvidenceCompleteness:
    def test_every_true_finding_has_evidence(self, registry):
        cfg, profile = build(
            registry,
            "branches:\n  only: [main]\n"
            "jobs:\n"
            "  include:\n"
            "    - script: flake8 .\n"
            "  allow_failures:\n"
            "    - name: x\n"
            "notifications:\n"
            "  email: false\n",
        )
        findings = evaluate(cfg, profile)
        for name in findings.true_findings():
            assert findings.evidence[name], name


_PUSH_MASTER = "type = push AND branch = master"
_ABSENT = {"absent_feedback": [("notifications", "absent")]}

# (id, config, evidence under the pipeline reading, under the job reading);
# None for the job reading means the same as under the pipeline reading.
_EVIDENCE_TABLE = [
    (
        "job-if",
        f"jobs:\n  include:\n    - if: {_PUSH_MASTER}\n      script: flake8 .\n",
        {"late_merging": [("jobs.include[0].if", _PUSH_MASTER)], **_ABSENT},
        None,
    ),
    (
        "stage-if",
        f"stages:\n  - name: lint\n    if: {_PUSH_MASTER}\n"
        "jobs:\n  include:\n    - stage: lint\n      script: flake8 src\n",
        {"late_merging": [("stages[lint].if", _PUSH_MASTER)], **_ABSENT},
        None,
    ),
    (
        "global-if",
        f"if: {_PUSH_MASTER}\nscript: flake8 .\n",
        {"late_merging": [("if", _PUSH_MASTER)], **_ABSENT},
        None,
    ),
    (
        "job-branches-only",
        "jobs:\n  include:\n    - branches: {only: [main]}\n      script: flake8 .\n",
        {"late_merging": [("jobs.include[0].branches.only", '["main"]')], **_ABSENT},
        None,
    ),
    (
        "global-branches-only",
        "branches:\n  only: [main, master]\n"
        "jobs:\n  include:\n    - script: flake8 a\n    - script: pylint b\n",
        {"late_merging": [("branches.only", '["main", "master"]')] * 2, **_ABSENT},
        None,
    ),
    (
        "every-job-restricted",
        "jobs:\n  include:\n    - branches: {only: [master]}\n      script: flake8 a\n"
        "    - if: branch = main AND type = push\n      script: pylint b\n",
        {
            "late_merging": [
                ("jobs.include[0].branches.only", '["master"]'),
                ("jobs.include[1].if", "branch = main AND type = push"),
            ],
            **_ABSENT,
        },
        None,
    ),
    (
        "some-jobs-restricted",
        "jobs:\n  include:\n    - branches: {only: [master]}\n      script: flake8 a\n"
        "    - script: flake8 b\n"
        "    - if: branch = main AND type = push\n      script: pylint c\n",
        _ABSENT,
        {
            "late_merging": [
                ("jobs.include[0].branches.only", '["master"]'),
                ("jobs.include[2].if", "branch = main AND type = push"),
            ],
            **_ABSENT,
        },
    ),
    (
        "jobs-allow-failures",
        "jobs:\n  include:\n    - script: x\n  allow_failures:\n    - name: Lint\n",
        {"skip_on_failure": [("jobs.allow_failures", '[{"name": "Lint"}]')], **_ABSENT},
        None,
    ),
    (
        "matrix-allow-failures",
        "matrix:\n  include:\n    - script: x\n  allow_failures:\n    - env: A=1\n",
        {"skip_on_failure": [("matrix.allow_failures", '[{"env": "A=1"}]')], **_ABSENT},
        None,
    ),
    (
        "both-allow-failures",
        "jobs:\n  include:\n    - script: x\n  allow_failures:\n    - name: Lint\n"
        "matrix:\n  allow_failures: true\n",
        {
            "skip_on_failure": [
                ("jobs.allow_failures", '[{"name": "Lint"}]'),
                ("matrix.allow_failures", "true"),
            ],
            **_ABSENT,
        },
        None,
    ),
    ("absent-notifications", "script: x\n", _ABSENT, None),
    (
        "disabled-channels",
        "script: x\nnotifications:\n  email: false\n  slack: {enabled: false}\n",
        {
            "absent_feedback": [
                ("notifications", '{"email": false, "slack": {"enabled": false}}')
            ]
        },
        None,
    ),
    (
        "email-mapping",
        "script: x\nnotifications:\n  email:\n    recipients: [a@b.c]\n",
        {"email_only": [("notifications.email", '{"recipients": ["a@b.c"]}')]},
        None,
    ),
    (
        "email-bare-value",
        "script: x\nnotifications:\n  email: a@b.c\n  slack: false\n",
        {"email_only": [("notifications.email", '"a@b.c"')]},
        None,
    ),
]


@pytest.mark.parametrize("mode", ["pipeline", "job"])
@pytest.mark.parametrize(
    "text, pipeline_evidence, job_evidence",
    [case[1:] for case in _EVIDENCE_TABLE],
    ids=[case[0] for case in _EVIDENCE_TABLE],
)
def test_evidence_pairs(registry, mode, text, pipeline_evidence, job_evidence):
    """Every evidence branch, with its exact (path, excerpt) pairs in order."""
    cfg, profile = build(registry, text)
    findings = evaluate(cfg, profile, late_merging_mode=mode)
    expected = job_evidence if mode == "job" and job_evidence is not None else pipeline_evidence
    assert findings.evidence == expected
    assert findings.true_findings() == list(expected)

_CHANNEL_VALUE = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from(["tok123", ""]),
    st.fixed_dictionaries({}, optional={"recipients": st.just(["a@b.c"])}),
)
_NOTIFICATIONS = st.one_of(
    st.none(),
    st.fixed_dictionaries(
        {},
        optional={
            "email": _CHANNEL_VALUE,
            "slack": _CHANNEL_VALUE,
            "webhooks": _CHANNEL_VALUE,
            "irc": _CHANNEL_VALUE,
        },
    ),
)


@st.composite
def random_config(draw):
    data = {"language": draw(st.sampled_from(["python", "go", "ruby"]))}
    data["script"] = draw(
        st.sampled_from(["pytest", "flake8 .", "shellcheck run.sh", "make"])
    )
    notifications = draw(_NOTIFICATIONS)
    if notifications is not None:
        data["notifications"] = notifications
    if draw(st.booleans()):
        data["jobs"] = {
            "include": [{"script": data.pop("script")}],
        }
        if draw(st.booleans()):
            data["jobs"]["allow_failures"] = [{"name": "x"}]
    return data


@given(random_config())
def test_absent_feedback_and_email_only_mutually_exclusive(data):
    cfg = parse_config(make_doc(yaml.safe_dump(data)))
    absent, _ = detect_absent_feedback(cfg)
    email, _ = detect_email_only(cfg)
    assert not (absent and email)


@given(random_config())
def test_skip_on_failure_equals_allow_failures_presence(data):
    cfg = parse_config(make_doc(yaml.safe_dump(data)))
    expected = "allow_failures" in data.get("jobs", {})
    assert detect_skip_on_failure(cfg)[0] is expected


@given(random_config())
def test_adding_second_channel_never_sets_email_only(data):
    cfg = parse_config(make_doc(yaml.safe_dump(data)))
    with_slack = dict(data)
    notifications = dict(with_slack.get("notifications") or {})
    notifications["slack"] = "team:token99"
    with_slack["notifications"] = notifications
    cfg2 = parse_config(make_doc(yaml.safe_dump(with_slack)))
    assert detect_email_only(cfg2)[0] is False
    # and absent feedback is also impossible once a live channel exists
    assert detect_absent_feedback(cfg2)[0] is False


# --- the condition reader -----------------------------------------------------

# The reference readings, one function each: a clause's `NOT` is looked for
# in all the text before it, once per key and once per reading.
_NEGATES = re.compile(r"(?<![^\s()])NOT[\s(]+\Z", re.IGNORECASE)


def _clause_values(condition, key):
    values = set()
    for match in antipatterns._CLAUSE.finditer(condition):
        if match.group(1).lower() != key or _NEGATES.search(condition, 0, match.start()):
            continue
        body = match.group(3) if match.group(3) is not None else match.group(2)
        for token in re.split(r"[,\s]+", body):
            token = token.strip("\"'")
            if token:
                values.add(token.lower())
    return values


def _condition_restricts_to_main_push(condition):
    if antipatterns._NOT_A_RESTRICTION.search(condition):
        return False
    types = _clause_values(condition, "type")
    branches = _clause_values(condition, "branch")
    if "push" not in types or types & antipatterns._OTHER_TYPES:
        return False
    return bool(branches) and branches <= antipatterns._MAIN_BRANCHES


def _condition_reenables_pr(condition):
    return bool(condition) and bool(_clause_values(condition, "type") & antipatterns._PR_TYPES)


_WORDS = [
    "type", "TYPE", "Type", "branch", "Branch", "=", "==", "IN", "in", "In",
    "(", ")", "(push, master)", "IN (pr, 'push')", "IN (\"main\",master)",
    "NOT", "not", "NOT(", "(NOT", "OR", "or", "OR(", ")OR", "AND", "and",
    "push", "'push'", '"push"', "pull_request", "pr", "PR", "cron", "api",
    "master", "main", "'Main'", "dev", ",", "x", "typewriter", "NOTtype",
    "branch = NOT type = x", "branch = NOT type = pr", "tag IS present",
]


@given(
    st.lists(
        st.tuples(st.sampled_from(_WORDS), st.sampled_from(["", " ", " ", "  ", "\t"])),
        max_size=14,
    )
)
def test_condition_reading_matches_the_two_reading_passes(parts):
    condition = "".join(word + space for word, space in parts)
    assert antipatterns._condition_reading(condition) == (
        _condition_restricts_to_main_push(condition),
        _condition_reenables_pr(condition),
    )


@pytest.mark.parametrize(
    "condition, reading",
    [
        ("type = push AND branch = master", (True, False)),
        ("type = pr", (False, True)),
        ("NOT type = pr", (False, False)),
        ("not (type = pr)", (False, False)),
        ("branch = NOT type = pr", (False, False)),
        ("NOT branch = dev AND type = pr", (False, True)),
        ("NOTtype = pr", (False, False)),
        ("type = push AND branch = master OR type = api", (False, False)),
        # A list that holds a `(` is no clause at all.
        ("type IN (push, (api)) AND branch = main", (False, False)),
    ],
)
def test_condition_reading(condition, reading):
    assert antipatterns._condition_reading(condition) == reading


# The reference clause pattern: its list body runs to the first `)`, across
# any `(`, so an unclosed `(` is searched to the end of the condition.
_CLAUSE_TO_FIRST_CLOSE = re.compile(
    r"\b(type|branch)\s*(?:==|=|\bIN\b|\bin\b)\s*(\(([^)]*)\)|[^\s()]+)",
    re.IGNORECASE,
)
_FLAT_WORDS = [word for word in _WORDS if "(" not in word and ")" not in word]
_SPACE = st.sampled_from(["", " ", "  ", "\t"])
_FLAT_GROUP = st.lists(
    st.tuples(st.sampled_from(_FLAT_WORDS), st.sampled_from(["", " ", ", ", ","])),
    max_size=5,
).map(lambda parts: "({})".format("".join(word + space for word, space in parts)))
_FLAT_VALUE = st.one_of(st.sampled_from(_FLAT_WORDS), _FLAT_GROUP)
_FLAT_CLAUSE = st.tuples(
    st.sampled_from(["type", "Branch"]), _SPACE, st.sampled_from(["=", "==", "IN", "in"]),
    _SPACE, _FLAT_VALUE,
).map("".join)


@given(st.lists(st.tuples(st.one_of(_FLAT_VALUE, _FLAT_CLAUSE), _SPACE), max_size=10))
def test_balanced_unnested_parentheses_read_as_before(parts):
    condition = "".join(word + space for word, space in parts)
    old_clauses = [m.groups() for m in _CLAUSE_TO_FIRST_CLOSE.finditer(condition)]
    assert [m.groups() for m in antipatterns._CLAUSE.finditer(condition)] == old_clauses
    reading = antipatterns._condition_reading(condition)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(antipatterns, "_CLAUSE", _CLAUSE_TO_FIRST_CLOSE)
        assert antipatterns._condition_reading(condition) == reading


def test_unclosed_parentheses_are_read_in_linear_time():
    condition = "type = (" * 20000  # 160 KB, no `(` ever closed
    start = time.perf_counter()
    assert antipatterns._condition_reading(condition) == (False, False)
    assert time.perf_counter() - start < 1.0


def _counting_reader(monkeypatch):
    calls = Counter()
    real_reading = antipatterns._condition_reading

    def counting_reading(condition):
        calls[condition] += 1
        return real_reading(condition)

    monkeypatch.setattr(antipatterns, "_condition_reading", counting_reading)
    return calls


def test_each_distinct_condition_is_read_once_per_pipeline(registry, monkeypatch):
    calls = _counting_reader(monkeypatch)
    text = (
        "if: type = push AND branch = master\n"
        "stages:\n  - name: lint\n    if: type = pull_request\n  - name: test\n"
        "jobs:\n  include:\n"
        + "".join(f"    - stage: lint\n      script: flake8 {i}\n" for i in range(3))
        + "".join(f"    - stage: test\n      script: pylint {i}\n" for i in range(4))
    )
    cfg, profile = build(registry, text)
    assert len(profile.jobs) == 7
    findings = evaluate(cfg, profile)
    assert (findings.late_merging_all_jobs, findings.late_merging_any_job) == (False, True)
    assert calls == {"type = push AND branch = master": 1, "type = pull_request": 1}
    # The reading is kept for one pipeline, not across pipelines.
    evaluate(cfg, profile)
    assert calls == {"type = push AND branch = master": 2, "type = pull_request": 2}


def test_a_long_condition_shared_by_aliased_jobs_is_read_once(registry, monkeypatch):
    # 2,000 tool jobs, one alias each, sharing one 300 KB `if:`: read once,
    # in one linear pass.
    clause = "type = push AND branch = master AND "
    condition = clause * (300_000 // len(clause)) + "branch = main"
    text = (
        f"jobs:\n  include:\n    - &job\n      if: {condition}\n      script: flake8 .\n"
        + "    - *job\n" * 1999
    )
    calls = _counting_reader(monkeypatch)
    cfg, profile = build(registry, text)
    assert len(profile.jobs) == 2000
    findings = evaluate(cfg, profile)
    assert findings.late_merging_all_jobs is True
    assert calls == {condition: 1}
