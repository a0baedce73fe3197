import pytest
import yaml
from hypothesis import given, strategies as st

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
        assert evidence[0][0] == "jobs.allow_failures"

    def test_example_config_not_flagged(self, example_config):
        assert detect_skip_on_failure(example_config)[0] is False

    def test_matrix_alias(self, registry):
        cfg, _ = build(
            registry,
            "matrix:\n  include:\n    - script: x\n  allow_failures:\n    - env: A=1\n",
        )
        flagged, evidence = detect_skip_on_failure(cfg)
        assert flagged is True
        assert evidence[0][0] == "matrix.allow_failures"


class TestAbsentFeedback:
    def test_no_notifications_key(self, example_config):
        flagged, evidence = detect_absent_feedback(example_config)
        assert flagged is True
        assert evidence == [("notifications", "absent")]

    def test_email_true_not_flagged(self, registry):
        cfg, _ = build(registry, "script: x\nnotifications:\n  email: true\n")
        assert detect_absent_feedback(cfg)[0] is False

    def test_email_false_flagged(self, registry):
        cfg, _ = build(registry, "script: x\nnotifications:\n  email: false\n")
        flagged, evidence = detect_absent_feedback(cfg)
        assert flagged is True
        assert evidence

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
        assert evidence

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
