import os
from collections import Counter
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tdmscan import placement, script_resolver
from tdmscan import registry as registry_module
from tdmscan.analyzer import AnalysisOptions, explain_document
from tdmscan.config_model import (
    SETUP_PHASES,
    NotAPipeline,
    PhaseKind,
    RawDocument,
    parse_config,
    resolve_stage_name,
)
from tdmscan.ingest import LocalTree
from tdmscan.placement import (
    PlacementKind,
    TimingKind,
    classify_pipeline,
    classify_timing,
)
from tdmscan.registry import (
    INVOCATION_BOTH,
    INVOCATION_DIRECT,
    INVOCATION_SCRIPT,
    SOURCE_CONFIG,
    SOURCE_SCRIPT,
    Detection,
    PipelineToolProfile,
    Registry,
    SourceContext,
    detect_in_text,
    profile_pipeline,
)
from tdmscan.script_resolver import (
    CEREMONY_HEADS,
    collect_script_documents,
    command_lines,
    is_installer,
    script_paths,
    script_references,
    shell_tokens,
    split_actions,
    split_segments,
    strip_wrappers,
)

from conftest import (
    CORPUS_DIR,
    MappingTree,
    collect_scripts,
    make_doc,
    profile_of,
    walk_commands,
)


def analyzed(registry, text, files=None):
    cfg = parse_config(make_doc(text))
    scripts, sites = collect_scripts(cfg, files)
    profile = profile_pipeline(cfg, scripts, registry, sites=sites)
    return cfg, profile, {d.path: d for d in scripts}


def timing_of(cfg, det):
    """classify_timing for the job and phase of `det`."""
    return classify_timing(cfg, cfg.jobs[det.job_index], det.phase)


def placement_of(registry, cfg, profile, scripts, job):
    """The placement classify_pipeline gives `job`."""
    (kind,) = [
        r.placement
        for r in classify_pipeline(cfg, profile, scripts, registry)
        if r.job_index == job.index
    ]
    return kind


class TestPlacement:
    def test_example_lint_stage_is_dedicated_stage(self, registry, example_config):
        profile = profile_of(registry, example_config)
        kind = placement_of(registry, example_config, profile, {}, example_config.jobs[0])
        assert kind is PlacementKind.DEDICATED_STAGE

    def test_shared_stage_tool_job_is_dedicated_job(self, registry):
        cfg, profile, scripts = analyzed(
            registry,
            "stages: [test]\n"
            "jobs:\n"
            "  include:\n"
            "    - stage: test\n"
            "      script: pytest -q\n"
            "    - stage: test\n"
            "      script: flake8 .\n",
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[1])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_two_unrelated_commands_is_mixed(self, registry):
        cfg, profile, scripts = analyzed(
            registry, "language: python\nscript:\n  - pytest -q\n  - flake8 .\n"
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.MIXED_JOB

    def test_setup_phases_excluded(self, registry):
        cfg, profile, scripts = analyzed(
            registry,
            "language: python\n"
            "before_install: weird setup thing\n"
            "install: pip install -r r.txt\n"
            "before_script: ./prepare_db.sh\n"
            "script: flake8 .\n",
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_ceremony_commands_ignored(self, registry):
        cfg, profile, scripts = analyzed(
            registry,
            "language: python\n"
            "script:\n"
            "  - echo 'linting now'\n"
            "  - export PYTHONPATH=src\n"
            "  - flake8 .\n",
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_installer_segment_counts_as_setup(self, registry):
        cfg, profile, scripts = analyzed(
            registry, "language: python\nscript:\n  - pip install flake8\n  - flake8 .\n"
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_compound_command_with_other_work_is_mixed(self, registry):
        cfg, profile, scripts = analyzed(
            registry, "language: python\nscript: pytest -q && flake8 .\n"
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.MIXED_JOB

    def test_pipe_chain_is_one_action(self, registry):
        cfg, profile, scripts = analyzed(
            registry, "language: python\nscript: flake8 . | tee lint.log\n"
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_all_tool_script_is_dedicated(self, registry):
        cfg, profile, scripts = analyzed(
            registry,
            "language: python\nscript: ./ci/lint.sh\n",
            {"ci/lint.sh": "#!/bin/sh\nset -e\npylint src\n"},
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_mixed_script_is_mixed(self, registry):
        cfg, profile, scripts = analyzed(
            registry,
            "language: python\nscript: ./ci/all.sh\n",
            {"ci/all.sh": "pylint src\npytest -q\n"},
        )
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.MIXED_JOB

    def test_unresolved_script_forces_mixed(self, registry):
        cfg, profile, scripts = analyzed(
            registry, "language: python\nscript:\n  - ./gone.sh\n  - flake8 .\n"
        )
        assert scripts["gone.sh"].resolved is False
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.MIXED_JOB

    def test_two_tools_only_is_still_dedicated_with_flag(self, registry):
        cfg, profile, scripts = analyzed(
            registry, "language: python\nscript:\n  - flake8 .\n  - pylint src\n"
        )
        results = classify_pipeline(cfg, profile, scripts, registry)
        assert results[0].placement is PlacementKind.DEDICATED_JOB
        assert results[0].multi_tool is True

    def test_solo_implicit_tool_job_is_dedicated_job_not_stage(self, registry):
        cfg, profile, scripts = analyzed(registry, "language: python\nscript: flake8 .\n")
        kind = placement_of(registry, cfg, profile, scripts, cfg.jobs[0])
        assert kind is PlacementKind.DEDICATED_JOB

    def test_no_detection_no_result(self, registry):
        cfg, profile, scripts = analyzed(registry, "language: python\nscript: pytest\n")
        assert classify_pipeline(cfg, profile, scripts, registry) == []

    def test_order_independent_within_stage(self, registry):
        base = (
            "stages: [test]\n"
            "jobs:\n"
            "  include:\n"
            "    - stage: test\n"
            "      name: {a}\n"
            "      script: {sa}\n"
            "    - stage: test\n"
            "      name: {b}\n"
            "      script: {sb}\n"
        )
        first = analyzed(
            registry, base.format(a="lint", sa="flake8 .", b="unit", sb="pytest")
        )
        second = analyzed(
            registry, base.format(a="unit", sa="pytest", b="lint", sb="flake8 .")
        )
        kind_first = placement_of(registry, *first, first[0].jobs[0])
        kind_second = placement_of(registry, *second, second[0].jobs[1])
        assert kind_first is kind_second is PlacementKind.DEDICATED_JOB


class TestTiming:
    def test_example_flake8_is_pre_deployment(self, registry, example_config):
        profile = profile_of(registry, example_config)
        (detection,) = profile.all_detections()
        assert timing_of(example_config, detection) is TimingKind.PRE_DEPLOYMENT

    def test_after_deploy_phase_is_post(self, registry):
        cfg, profile, _ = analyzed(
            registry,
            "script: make\ndeploy:\n  provider: pypi\nafter_deploy: flake8 src\n",
        )
        (detection,) = profile.all_detections()
        assert timing_of(cfg, detection) is TimingKind.POST_DEPLOYMENT

    def test_after_success_in_deploying_job_is_post(self, registry):
        cfg, profile, _ = analyzed(
            registry,
            "script: make\ndeploy:\n  provider: npm\nafter_success: rubocop\n",
        )
        (detection,) = profile.all_detections()
        assert timing_of(cfg, detection) is TimingKind.POST_DEPLOYMENT

    def test_after_success_without_deploy_is_pre(self, registry):
        cfg, profile, _ = analyzed(registry, "script: make\nafter_success: rubocop\n")
        (detection,) = profile.all_detections()
        assert timing_of(cfg, detection) is TimingKind.PRE_DEPLOYMENT

    def test_stage_after_deploy_stage_is_post(self, registry):
        cfg, profile, _ = analyzed(
            registry,
            "stages: [test, deploy, report]\n"
            "jobs:\n"
            "  include:\n"
            "    - stage: test\n"
            "      script: pytest\n"
            "    - stage: deploy\n"
            "      script: skip\n"
            "      deploy:\n"
            "        provider: pypi\n"
            "    - stage: report\n"
            "      script: bandit -r src\n",
        )
        (detection,) = profile.all_detections()
        assert timing_of(cfg, detection) is TimingKind.POST_DEPLOYMENT

    def test_stage_before_deploy_stage_is_pre(self, registry, example_config):
        profile = profile_of(registry, example_config)
        (detection,) = profile.all_detections()
        assert timing_of(example_config, detection) is TimingKind.PRE_DEPLOYMENT

    def test_no_deploy_everything_pre(self, registry):
        cfg, profile, _ = analyzed(
            registry,
            "script: flake8 .\nafter_script: shellcheck run.sh\nafter_success: pylint x\n",
        )
        assert not any(job.deploys for job in cfg.jobs)
        for detection in profile.all_detections():
            assert timing_of(cfg, detection) is TimingKind.PRE_DEPLOYMENT

    def test_moving_job_later_never_flips_post_to_pre(self, registry):
        # same tool job at each stage position relative to a deploy stage
        template = (
            "stages: {stages}\n"
            "jobs:\n"
            "  include:\n"
            "    - stage: deploy\n"
            "      script: skip\n"
            "      deploy:\n"
            "        provider: pypi\n"
            "    - stage: {where}\n"
            "      script: flake8 .\n"
        )
        timings = []
        for where, stages in [
            ("before", "[before, deploy, late]"),
            ("late", "[before, deploy, late]"),
        ]:
            cfg, profile, _ = analyzed(registry, template.format(stages=stages, where=where))
            (detection,) = profile.all_detections()
            timings.append(timing_of(cfg, detection))
        assert timings == [TimingKind.PRE_DEPLOYMENT, TimingKind.POST_DEPLOYMENT]


class TestClassifyPipeline:
    def test_every_detection_gets_exactly_one_timing(self, registry, example_config):
        profile = profile_of(registry, example_config)
        results = classify_pipeline(example_config, profile, {}, registry)
        timed = sum(sum(r.timing_counts.values()) for r in results)
        assert timed == len(profile.all_detections()) == 1

    def test_results_cover_only_detected_jobs(self, registry):
        cfg, profile, scripts = analyzed(
            registry,
            "jobs:\n"
            "  include:\n"
            "    - script: pytest\n"
            "    - script: flake8 .\n",
        )
        results = classify_pipeline(cfg, profile, scripts, registry)
        assert [r.job_index for r in results] == [1]
        assert results[0].stage_label == "implicit"

    def test_shared_script_lines_classified_once(self, registry, monkeypatch):
        script = "set -e\nflake8 src\npylint src\n"
        cfg, profile, scripts = analyzed(
            registry,
            "jobs:\n"
            "  include:\n"
            "    - script: ./ci/lint.sh\n"
            "    - script: ./ci/lint.sh\n"
            "    - script: ./ci/lint.sh\n",
            {"ci/lint.sh": script},
        )
        classified = []
        real_shell_line = placement.shell_line

        def counting_shell_line(stripped):
            classified.append(stripped)
            return real_shell_line(stripped)

        monkeypatch.setattr(placement, "shell_line", counting_shell_line)
        results = classify_pipeline(cfg, profile, scripts, registry)
        assert [r.placement for r in results] == [PlacementKind.DEDICATED_JOB] * 3
        # The shared command text once, then each line of its script once.
        assert classified == ["./ci/lint.sh", "set -e", "flake8 src", "pylint src"]

    def test_ceremony_check_tokenizes_each_action_once(self, monkeypatch):
        tokenized = []
        real_shell_tokens = script_resolver.shell_tokens

        def counting_shell_tokens(segment):
            tokenized.append(segment)
            return real_shell_tokens(segment)

        monkeypatch.setattr(script_resolver, "shell_tokens", counting_shell_tokens)
        script_resolver._memo_shell_line.cache_clear()
        ceremony = {
            "flake8 src": False,
            "sudo pip install x": True,
            "echo hi": True,
            "VAR=1": True,
            "make | tee": False,
        }
        for action, expected in ceremony.items():
            line = script_resolver.shell_line(action)
            tokenized.clear()
            for _ in range(2):
                ((_, is_ceremony, _, _),) = line.actions
                assert is_ceremony is expected
            assert tokenized == [action]

    @pytest.mark.parametrize(
        "script, install_exclusion, expected",
        [
            # The tool's name in another action's install is no tool work...
            (["flake8 src", "foo | pip install flake8"], True, PlacementKind.MIXED_JOB),
            # ...unless installs are searched too.
            (["flake8 src", "foo | pip install flake8"], False, PlacementKind.DEDICATED_STAGE),
            # Each action carries its own eslint run.
            (["./node_modules/.bin/eslint a && eslint b"], True, PlacementKind.DEDICATED_STAGE),
        ],
        ids=["installed-name-elsewhere", "installs-searched", "two-spellings-of-one-tool"],
    )
    def test_an_action_carries_tool_work_by_its_own_hit(
        self, registry, script, install_exclusion, expected
    ):
        config = yaml.safe_dump(
            {
                "stages": ["lint", "test"],
                "jobs": {
                    "include": [
                        {"stage": "lint", "script": script},
                        {"stage": "test", "script": "pytest"},
                    ]
                },
            }
        )
        options = AnalysisOptions(install_exclusion=install_exclusion)
        analysis = explain_document(make_doc(config), MappingTree({}), registry, options)
        assert [(r.job_index, r.placement) for r in analysis.placements] == [(0, expected)]

    def test_detections_and_stages_indexed_once_per_pipeline(self, registry, monkeypatch):
        jobs = 40
        cfg, profile, scripts = analyzed(
            registry,
            "jobs:\n  include:\n"
            + "".join(
                f"    - stage: s{i % 4}\n      script: flake8 src/p{i}\n"
                for i in range(jobs)
            )
            + "    - stage: solo\n      script: pylint src\n",
        )
        indexed = []
        stage_lookups = []
        real_all_detections = PipelineToolProfile.all_detections
        real_resolve_stage_name = placement.resolve_stage_name

        def counting_all_detections(self):
            indexed.append(self)
            return real_all_detections(self)

        def counting_resolve_stage_name(job):
            stage_lookups.append(job.index)
            return real_resolve_stage_name(job)

        monkeypatch.setattr(PipelineToolProfile, "all_detections", counting_all_detections)
        monkeypatch.setattr(placement, "resolve_stage_name", counting_resolve_stage_name)
        results = classify_pipeline(cfg, profile, scripts, registry)
        assert [r.placement for r in results] == [PlacementKind.DEDICATED_JOB] * jobs + [
            PlacementKind.DEDICATED_STAGE
        ]
        assert indexed == []
        # Once per job for the stage sizes and once for its label, plus once
        # per phase with detections for its timing: linear, not one pass per
        # job.
        assert len(stage_lookups) == 3 * (jobs + 1)
        assert profile.jobs[3] == (
            [d for d in real_all_detections(profile) if d.job_index == 3],
            [],
        )
        assert sorted(profile.jobs) == list(range(jobs + 1))


def _reference_timing(cfg, det):
    """The timing rule restated per detection, walking the stage order."""
    job = cfg.jobs[det.job_index]
    if det.phase is PhaseKind.AFTER_DEPLOY:
        return TimingKind.POST_DEPLOYMENT
    if det.phase in (PhaseKind.AFTER_SUCCESS, PhaseKind.AFTER_SCRIPT) and job.deploys:
        return TimingKind.POST_DEPLOYMENT
    order = list(cfg.declared_stage_order)
    for other in cfg.jobs:
        if resolve_stage_name(other) not in order:
            order.append(resolve_stage_name(other))
    deploying = [order.index(resolve_stage_name(o)) for o in cfg.jobs if o.deploys]
    if deploying and order.index(resolve_stage_name(job)) > min(deploying):
        return TimingKind.POST_DEPLOYMENT
    return TimingKind.PRE_DEPLOYMENT


_LABELS = st.sampled_from(["lint", "test", "deploy", "report"])


@given(
    declared=st.lists(_LABELS, max_size=4),
    jobs=st.lists(
        st.tuples(st.one_of(st.none(), _LABELS), st.booleans()), min_size=1, max_size=5
    ),
    global_deploy=st.booleans(),
    phase=st.sampled_from(list(PhaseKind)),
)
def test_timing_matches_stage_order_walk(declared, jobs, global_deploy, phase):
    include = []
    for stage, deploys in jobs:
        entry = {"script": "make"}
        if stage is not None:
            entry["stage"] = stage
        if deploys:
            entry["deploy"] = {"provider": "pypi"}
        include.append(entry)
    data = {"stages": declared, "jobs": {"include": include}}
    if global_deploy:
        data["deploy"] = {"provider": "pypi"}
    cfg = parse_config(make_doc(yaml.safe_dump(data)))
    for job in cfg.jobs:
        det = Detection("flake8", SOURCE_CONFIG, None, phase, job.index, "flake8", 0)
        assert classify_timing(cfg, job, phase) is _reference_timing(cfg, det)


# --- per-detection references --------------------------------------------------


def _per_command_detections(cfg, scripts, registry):
    """profile_pipeline's detections restated per referencing command.

    Each script's detections are built again at every command that
    references it, found with script_paths on each command; the whole list
    is then deduplicated, sonar-relabelled and grouped by tool in id order.
    """
    detections = []
    referencing = {}
    for cmd in walk_commands(cfg.jobs):
        job_index, phase, ordinal, text = cmd
        ctx = SourceContext(SOURCE_CONFIG, phase, job_index, ordinal_base=ordinal)
        detections += detect_in_text(text, registry, ctx)
        for path in script_paths(text):
            referencing.setdefault(path, []).append(cmd)
    by_path = {doc.path: doc for doc in scripts}
    for path in sorted(referencing):
        doc = by_path.get(path)
        if doc is None or not doc.resolved:
            continue
        for job_index, phase, *_ in referencing[path]:
            ctx = SourceContext(SOURCE_SCRIPT, phase, job_index, path)
            detections += detect_in_text(doc.content, registry, ctx)
    detections = registry_module._disambiguate_sonar(
        cfg, scripts, list(dict.fromkeys(detections)), registry
    )
    return sorted(detections, key=lambda d: d.tool_id)


def _per_detection_tool_script(action, scripts, job_detections):
    """Every script the action runs has a detection on each substantial line,
    counting only the job's own detections."""
    paths = script_paths(action)
    if not paths:
        return False
    for path in paths:
        doc = scripts.get(path)
        if doc is None or not doc.resolved:
            return False
        detected = {
            d.line_ordinal
            for d in job_detections
            if d.source == SOURCE_SCRIPT and d.script_path == path
        }
        if not placement._substantial_lines(doc.content) <= detected:
            return False
    return True


def _per_tool_own_hit(action, registry):
    """Some tool matches a segment of the action that installs nothing: the
    registry's line matcher, with install exclusion, as a per-tool loop."""
    parts = [
        segment
        for segment in split_segments(action)
        if not is_installer(strip_wrappers(shell_tokens(segment)))
    ]
    return any(
        pattern.search(part)
        for tool in registry.tools
        for pattern in tool.compiled
        for part in parts
    )


def _per_detection_runs_only_tdm(job, job_detections, scripts, registry):
    """placement._runs_only_tdm restated per command: every action is
    ceremony, carries a tool in its own text, or runs only tool scripts."""
    for phase in PhaseKind:
        if phase in SETUP_PHASES or phase not in job.phases:
            continue
        for text in job.phases[phase]:
            for line in text.splitlines():
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                for action in split_actions(stripped):
                    words = strip_wrappers(shell_tokens(action))
                    if not words or words[0] in CEREMONY_HEADS or is_installer(words):
                        continue
                    if _per_tool_own_hit(action, registry):
                        continue
                    if _per_detection_tool_script(action, scripts, job_detections):
                        continue
                    return False
    return True


def _assert_matches_per_detection(registry, cfg, scripts, sites):
    """The profile and every PlacementResult against the per-detection references.

    Returns the profile and the results.
    """
    profile = profile_pipeline(cfg, scripts, registry, sites=sites)
    expected = _per_command_detections(cfg, scripts, registry)
    assert profile.all_detections() == expected
    by_path = {doc.path: doc for doc in scripts}
    results = classify_pipeline(cfg, profile, by_path, registry)
    by_job = {}
    for d in expected:
        by_job.setdefault(d.job_index, []).append(d)
    assert [r.job_index for r in results] == sorted(by_job)
    stage_sizes = Counter(resolve_stage_name(job) for job in cfg.jobs)
    post, pre = TimingKind.POST_DEPLOYMENT, TimingKind.PRE_DEPLOYMENT
    for result in results:
        job = cfg.jobs[result.job_index]
        job_detections = by_job[job.index]
        timings = [(d.source, timing_of(cfg, d)) for d in job_detections]
        assert result.timing_counts == Counter(kind for _, kind in timings)
        assert list(result.source_timings.items()) == [
            (source, post if (source, post) in timings else pre)
            for source in sorted({source for source, _ in timings})
        ]
        if not _per_detection_runs_only_tdm(job, job_detections, by_path, registry):
            kind = PlacementKind.MIXED_JOB
        elif job.stage_name is not None and stage_sizes[job.stage_name] == 1:
            kind = PlacementKind.DEDICATED_STAGE
        else:
            kind = PlacementKind.DEDICATED_JOB
        assert result.placement is kind
        assert result.multi_tool is (len({d.tool_id for d in job_detections}) >= 2)
    return profile, results


_COMMANDS = st.sampled_from(
    [
        "flake8 .",
        "python -m flake8 src",
        "pylint src && flake8",
        "black --check . | tee black.log",
        "eslint . ; pytest",
        "echo linting",
        "cd src",
        "make test",
        "pip install flake8",
        "./ci/lint.sh",
        "bash ci/mixed.sh",
        "./ci/missing.sh",
        "sh ci/echo.sh",
        "# flake8 in a comment",
        "sudo flake8 --count",
    ]
)
_SCRIPT_FILES = {
    "ci/lint.sh": "set -e\nflake8 src\npylint src\n",
    "ci/mixed.sh": "flake8\nmake\n",
    # Only ceremony: it runs no other work, with or without a detection.
    "ci/echo.sh": "set -e\necho flake8\n",
}


@given(
    jobs=st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                phase: st.lists(_COMMANDS, min_size=1, max_size=4)
                for phase in ("script", "after_success", "install", "after_deploy")
            },
        ),
        min_size=1,
        max_size=3,
    ),
)
@settings(max_examples=200, deadline=None)
def test_runs_only_tdm_matches_per_detection_loop(registry, jobs):
    include = [job or {"script": "flake8"} for job in jobs]
    cfg = parse_config(make_doc(yaml.safe_dump({"jobs": {"include": include}})))
    _assert_matches_per_detection(registry, cfg, *collect_scripts(cfg, _SCRIPT_FILES))


def _alias_fan_out(depth):
    """`[flake8, pylint]` repeated 10**depth times through nested aliases."""
    lines = ["language: python", "x0: &a0 [flake8, pylint]"]
    for level in range(1, depth + 1):
        lines.append(f"x{level}: &a{level} [{', '.join([f'*a{level - 1}'] * 10)}]")
    return "\n".join([*lines, f"script: *a{depth}"]) + "\n"


def test_alias_fan_out_searches_each_action_once_per_distinct_text(
    registry, monkeypatch
):
    # 20,000 commands in one job, of two distinct texts: the registry's
    # line matcher is asked about each distinct action once.
    cfg, profile, scripts = analyzed(registry, _alias_fan_out(4))
    actions = sum(len(commands) for commands in cfg.jobs[0].phases.values())
    assert actions == 20_000
    searches = []
    real_line_hits = Registry.line_hits

    def counting_line_hits(self, stripped, install_exclusion):
        searches.append(stripped)
        return real_line_hits(self, stripped, install_exclusion)

    monkeypatch.setattr(Registry, "line_hits", counting_line_hits)
    results = classify_pipeline(cfg, profile, scripts, registry)
    assert [
        (r.placement, r.multi_tool, sum(r.timing_counts.values())) for r in results
    ] == [
        (PlacementKind.DEDICATED_JOB, True, 20_000)
    ]
    assert searches == ["flake8", "pylint"]


# --- timing classified once per (job, phase) -----------------------------------


def test_timings_match_per_detection_classification_on_fixtures(registry):
    analyzed_slugs, not_pipelines = [], []
    for slug in sorted(os.listdir(CORPUS_DIR)):
        slug_dir = os.path.join(CORPUS_DIR, slug)
        with open(os.path.join(slug_dir, ".travis.yml"), encoding="utf-8") as handle:
            doc = RawDocument(slug, ".travis.yml", handle.read())
        try:
            cfg = parse_config(doc)
        except NotAPipeline:
            not_pipelines.append(slug)
            continue
        scripts, sites = collect_script_documents(
            script_references(cfg.jobs), LocalTree(slug_dir)
        )
        _assert_matches_per_detection(registry, cfg, scripts, sites)
        analyzed_slugs.append(slug)
    assert len(analyzed_slugs) == 38
    assert not_pipelines == ["34-not-a-pipeline"]


_TIMED_PHASES = ("script", "after_success", "after_script", "after_deploy")
_TIMED_COMMANDS = st.lists(
    st.sampled_from(["flake8 .", "pylint src", "./ci/lint.sh", "make"]),
    min_size=1,
    max_size=3,
)
_TIMED_FILES = {"ci/lint.sh": "flake8 src\nmake\nbandit -r src\n"}


@given(
    declared=st.lists(_LABELS, max_size=3, unique=True),
    jobs=st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "stage": _LABELS,
                "deploy": st.just({"provider": "pypi"}),
                **{phase: _TIMED_COMMANDS for phase in _TIMED_PHASES},
            },
        ),
        max_size=5,
    ),
    global_phases=st.fixed_dictionaries(
        {},
        optional={
            "deploy": st.just({"provider": "pypi"}),
            **{phase: _TIMED_COMMANDS for phase in _TIMED_PHASES},
        },
    ),
)
@settings(max_examples=200, deadline=None)
def test_timings_match_per_detection_classification_on_matrices(
    registry, declared, jobs, global_phases
):
    data = {"language": "python", "stages": declared, **global_phases}
    if jobs:
        data["jobs"] = {"include": jobs}
    cfg = parse_config(make_doc(yaml.safe_dump(data)))
    _assert_matches_per_detection(registry, cfg, *collect_scripts(cfg, _TIMED_FILES))


def test_shared_script_matrix_classifies_timing_once_per_job_phase(
    registry, monkeypatch
):
    # 400 jobs in 5 stages, each running one shared 200-line tool script;
    # the last stage deploys, so its after_success runs are post-deployment.
    tools = ["flake8", "pylint", "black --check", "mypy", "bandit -r"]
    script = "".join(f"{tools[i % len(tools)]} src/m{i}\n" for i in range(200))
    include = []
    for i in range(400):
        job = {"stage": f"s{i % 5}", "script": "./ci/lint.sh"}
        if i % 5 == 4:
            job.update(deploy={"provider": "pypi"}, after_success="./ci/lint.sh")
        include.append(job)
    text = yaml.safe_dump({"stages": [f"s{k}" for k in range(5)], "jobs": {"include": include}})
    cfg = parse_config(make_doc(text))
    scripts, sites = collect_scripts(cfg, {"ci/lint.sh": script})
    calls = []
    real_classify_timing = placement.classify_timing

    def counting_classify_timing(cfg, job, phase):
        calls.append((job.index, phase))
        return real_classify_timing(cfg, job, phase)

    monkeypatch.setattr(placement, "classify_timing", counting_classify_timing)
    # The reference side of the differential calls the unpatched function.
    profile, results = _assert_matches_per_detection(registry, cfg, scripts, sites)
    assert len(results) == 400
    assert sum(sum(result.timing_counts.values()) for result in results) == 96_000
    assert {kind for result in results[4::5] for kind in result.timing_counts} == {
        TimingKind.PRE_DEPLOYMENT,
        TimingKind.POST_DEPLOYMENT,
    }
    job_phases = {(d.job_index, d.phase) for d in profile.all_detections()}
    assert len(job_phases) == 480
    assert len(calls) == len(set(calls))
    assert set(calls) == job_phases


# --- each distinct command text worked once per pipeline ------------------------


def _per_occurrence_references(jobs, warnings):
    """script_references with script_paths run on every command."""
    pairs = {}
    for job_index, phase, _, text in walk_commands(jobs):
        for path in script_paths(text, warnings):
            pairs[path, (job_index, phase)] = None
    return tuple(pairs)


def _per_occurrence_profile(cfg, scripts, registry, sites, install_exclusion):
    """profile_pipeline with detect_in_text run on every config command, and
    all_detections of its result restated per tool."""
    detections = []
    phase_key, base = None, 0
    for job_index, phase, _, text in walk_commands(cfg.jobs):
        if (job_index, phase) != phase_key:
            phase_key, base = (job_index, phase), 0
        ctx = SourceContext(SOURCE_CONFIG, phase, job_index, ordinal_base=base)
        detections += detect_in_text(text, registry, ctx, install_exclusion)
        base += max(1, len(text.splitlines()))
    detected_sites = {}
    for doc in sorted(scripts, key=lambda doc: doc.path):
        if doc.content is None:
            continue
        job_index, phase = sites[doc.path][0]
        ctx = SourceContext(SOURCE_SCRIPT, phase, job_index, doc.path)
        found = detect_in_text(doc.content, registry, ctx, install_exclusion)
        if found:
            detections += found
            detected_sites[doc.path] = sites[doc.path]
    detections = registry_module._disambiguate_sonar(cfg, scripts, detections, registry)
    tools, per_tool = {}, []
    for tool_id in sorted({d.tool_id for d in detections}):
        group = [d for d in detections if d.tool_id == tool_id]
        sources = {d.source for d in group}
        if sources == {SOURCE_CONFIG}:
            tools[tool_id] = INVOCATION_DIRECT
        elif sources == {SOURCE_SCRIPT}:
            tools[tool_id] = INVOCATION_SCRIPT
        else:
            tools[tool_id] = INVOCATION_BOTH
        per_tool += [d for d in group if d.script_path is None]
        for path in sorted(detected_sites):
            for job_index, phase in detected_sites[path]:
                per_tool += [
                    d._replace(job_index=job_index, phase=phase)
                    for d in group
                    if d.script_path == path
                ]
    jobs = {}
    for job in cfg.jobs:
        config = [d for d in detections if d.script_path is None and d.job_index == job.index]
        script_sites = [
            (path, phase)
            for path, path_sites in detected_sites.items()
            for job_index, phase in path_sites
            if job_index == job.index
        ]
        if config or script_sites:
            jobs[job.index] = (config, script_sites)
    by_script = {
        path: [d for d in detections if d.script_path == path] for path in detected_sites
    }
    return PipelineToolProfile(tools, jobs, by_script, detected_sites), per_tool


def _per_occurrence_runs_only_tdm(job, is_tool_work):
    """placement._runs_only_tdm judging every action of every command."""
    for phase, texts in job.phases.items():
        if phase in SETUP_PHASES:
            continue
        for text in texts:
            for _, stripped in command_lines(text):
                if not all(map(is_tool_work, split_actions(stripped))):
                    return False
    return True


def _per_occurrence_placements(cfg, profile, scripts, registry, install_exclusion):
    """classify_pipeline with the per-occurrence "only tool work" test."""

    def runs_only_tools(path):
        doc = scripts.get(path)
        return (
            doc is not None
            and doc.resolved
            and doc.content is not None
            and placement._substantial_lines(doc.content)
            <= {d.line_ordinal for d in profile.scripts.get(path, ())}
        )

    def is_tool_work(action):
        words = strip_wrappers(shell_tokens(action))
        if not words or words[0] in CEREMONY_HEADS or is_installer(words):
            return True
        if registry.line_hits(action, install_exclusion):
            return True
        paths = script_paths(action)
        return bool(paths) and all(map(runs_only_tools, paths))

    def runs_only_tdm(job, _runs_tool_work):
        return _per_occurrence_runs_only_tdm(job, is_tool_work)

    with mock.patch.object(placement, "_runs_only_tdm", runs_only_tdm):
        return classify_pipeline(
            cfg, profile, scripts, registry, install_exclusion=install_exclusion
        )


_REPEATED_COMMANDS = st.sampled_from(
    [
        "flake8 .",
        "pylint src && make test",
        "pip install flake8 && flake8 src",
        "npm install eslint",
        "echo linting",
        "cd src",
        "./ci/lint.sh",
        "bash ci/mixed.sh",
        "./x.sh && pylint src",
        "./ci/missing.sh",
        "bash ../x.sh",
        "flake8 && ./ci/../../x.sh",
        "$CI_DIR/x.sh",
        "bash $HOME/check.sh; flake8",
        "flake8 src\nmypy src\n./x.sh",
        "# pylint in a comment\npylint .",
        # A tool, a script reference and ceremony on one line.
        "echo lint && ./x.sh && pylint src ; cd ..",
        "cd src; bash ci/mixed.sh | tee log && flake8",
        "set -e; ./ci/lint.sh || pip install flake8 && flake8 .",
        "foo | pip install flake8",
    ]
)
_REPEATED_PHASES = ("script", "before_script", "after_success", "after_deploy")
_REPEATED_FILES = {
    "ci/lint.sh": "set -e\nflake8 src\npylint src\n",
    "ci/mixed.sh": "flake8\nmake\n",
    "x.sh": "black --check .\n",
}


@given(
    shared=st.lists(_REPEATED_COMMANDS, min_size=1, max_size=3),
    jobs=st.lists(
        st.fixed_dictionaries(
            {},
            optional={
                "stage": st.sampled_from(["lint", "test"]),
                # None runs the shared list, which the YAML holds once and
                # aliases everywhere else.
                **{
                    phase: st.one_of(st.none(), st.lists(_REPEATED_COMMANDS, max_size=3))
                    for phase in _REPEATED_PHASES
                },
            },
        ),
        min_size=1,
        max_size=6,
    ),
    global_phases=st.fixed_dictionaries(
        {}, optional={"after_script": st.none(), "script": st.none()}
    ),
    install_exclusion=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_repeated_commands_match_per_occurrence_loops(
    registry, shared, jobs, global_phases, install_exclusion
):
    include = [
        {key: shared if value is None else value for key, value in job.items()}
        for job in jobs
    ]
    data = {"jobs": {"include": include}, **dict.fromkeys(global_phases, shared)}
    cfg = parse_config(make_doc(yaml.safe_dump(data)))

    warnings, expected_warnings = [], []
    references = script_references(cfg.jobs, warnings)
    assert references == _per_occurrence_references(cfg.jobs, expected_warnings)
    assert warnings == expected_warnings

    scripts, sites = collect_script_documents(references, MappingTree(_REPEATED_FILES))
    profile = profile_pipeline(
        cfg, scripts, registry, install_exclusion=install_exclusion, sites=sites
    )
    expected, per_tool = _per_occurrence_profile(
        cfg, scripts, registry, sites, install_exclusion
    )
    assert profile == expected
    assert list(profile.scripts) == list(expected.scripts)
    assert profile.all_detections() == per_tool

    by_path = {doc.path: doc for doc in scripts}
    placements = classify_pipeline(
        cfg, profile, by_path, registry, install_exclusion=install_exclusion
    )
    assert placements == _per_occurrence_placements(
        cfg, profile, by_path, registry, install_exclusion
    )


def test_each_layer_works_a_repeated_command_text_once(registry, monkeypatch):
    calls = Counter()
    for module in (script_resolver, registry_module, placement):
        real = module.command_lines

        def counting_command_lines(text, name=module.__name__, real=real):
            calls[name] += 1
            return real(text)

        monkeypatch.setattr(module, "command_lines", counting_command_lines)

    def layer_calls(jobs):
        include = [{"script": ["./ci/check.sh", "flake8 src"]} for _ in range(jobs)]
        cfg = parse_config(make_doc(yaml.safe_dump({"jobs": {"include": include}})))
        calls.clear()
        references = script_references(cfg.jobs)
        scripts, sites = collect_script_documents(
            references, MappingTree({"ci/check.sh": "set -e\npylint src\n"})
        )
        profile = profile_pipeline(cfg, scripts, registry, sites=sites)
        results = classify_pipeline(cfg, profile, {doc.path: doc for doc in scripts}, registry)
        assert [r.placement for r in results] == [PlacementKind.DEDICATED_JOB] * jobs
        assert len(profile.all_detections()) == 2 * jobs
        return dict(calls)

    one = layer_calls(1)
    # script_paths reads the reference once, for the sites; detection and
    # placement each split the two command texts and the script once, and
    # placement reads the reference's paths from the line's actions.
    assert one == {"tdmscan.script_resolver": 1, "tdmscan.registry": 3, "tdmscan.placement": 3}
    assert layer_calls(20) == one


def test_alias_fan_out_explains_every_occurrence(registry):
    # The benchmark's bad-entry fan-out: 1,000 copies of one command text.
    fan_out = "".join(
        [
            "language: python\n",
            'a: &a ["flake8 src"]\n',
            "b: &b [" + ", ".join(["*a"] * 10) + "]\n",
            "c: &c [" + ", ".join(["*b"] * 10) + "]\n",
            "script: [" + ", ".join(["*c"] * 10) + "]\n",
        ]
    )
    analysis = explain_document(make_doc(fan_out), MappingTree({}), registry)
    detections = analysis.profile.all_detections()
    assert [d.line_ordinal for d in detections] == list(range(1000))
    assert {(d.tool_id, d.source, d.job_index, d.phase) for d in detections} == {
        ("flake8", SOURCE_CONFIG, 0, PhaseKind.SCRIPT)
    }
    assert [r.placement for r in analysis.placements] == [PlacementKind.DEDICATED_JOB]
