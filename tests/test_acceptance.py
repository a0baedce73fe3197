"""Acceptance gate: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; every tolerance is pinned here (percentages are exact-match).
"""

import os
import random
import string
import time

import yaml

from tdmscan.analytics import export_csv_bundle, export_json, percent
from tdmscan.analyzer import AnalysisOptions, explain_document, scan_entries
from tdmscan.antipatterns import (
    detect_absent_feedback,
    detect_email_only,
    detect_skip_on_failure,
)
from tdmscan.cli import _entries_from_directory
from tdmscan.config_model import (
    MalformedDocument,
    NotAPipeline,
    PhaseKind,
    RawDocument,
    parse_config,
)
from tdmscan.ingest import LocalTree
from tdmscan.registry import SOURCE_CONFIG, SourceContext, detect_in_text

from conftest import CORPUS_DIR, EXAMPLE_CONFIG, fold_records, make_doc

# Tool metadata and pipeline/direct/script reference counts pinned for
# acceptance: (tool_type, tdm_activity, debt_type, direct, script, pipelines).
REFERENCE_TOOL_TABLE = {
    "shellcheck": ("linter", {"identification"}, "build", 69, 672, 727),
    "flake8": ("linter", {"identification"}, "code", 310, 422, 724),
    "cppcheck": ("static_analyzer", {"identification"}, "code", 129, 205, 332),
    "pylint": ("linter", {"identification"}, "code", 89, 226, 315),
    "govet": ("static_analyzer", {"identification"}, "code", 47, 245, 292),
    "clang_format": ("formatter", {"prevention"}, "code", 78, 213, 272),
    "eslint": ("linter", {"identification"}, "code", 66, 175, 241),
    "phpcs": ("linter", {"identification"}, "code", 98, 129, 225),
    "black": ("formatter", {"prevention"}, "code", 71, 117, 180),
    "sonarqube": ("static_analyzer", {"identification", "measurement"}, "code", 54, 124, 178),
    "checkstyle": ("linter", {"identification"}, "code", 39, 75, 114),
    "rubocop": ("linter", {"identification"}, "code", 70, 44, 110),
    "golangci_lint": ("linter", {"identification"}, "code", 71, 28, 97),
    "clang_tidy": ("linter_analyzer", {"identification"}, "code", 31, 64, 94),
    "phpstan": ("static_analyzer", {"identification"}, "code", 72, 5, 76),
    "cpplint": ("linter", {"identification"}, "code", 9, 64, 73),
    "pmd": ("static_analyzer", {"identification"}, "code", 17, 54, 71),
    "sonarcloud": ("static_analyzer", {"identification", "measurement"}, "code", 8, 59, 67),
    "mypy": ("static_analyzer", {"identification"}, "code", 27, 36, 62),
    "tslint": ("linter", {"identification"}, "code", 54, 5, 59),
    "coverity": ("static_analyzer", {"identification"}, "code", 38, 47, 57),
    "swiftlint": ("linter", {"identification"}, "code", 18, 40, 56),
    "ruff": ("linter", {"identification"}, "code", 0, 52, 52),
    "spotbugs": ("static_analyzer", {"identification"}, "code", 19, 26, 45),
    "yamllint": ("linter", {"identification"}, "build", 40, 8, 44),
    "phpmd": ("static_analyzer", {"identification"}, "code", 8, 31, 39),
    "prettier": ("formatter", {"prevention"}, "code", 25, 12, 32),
    "bandit": ("static_analyzer", {"identification"}, "security", 15, 11, 25),
    "lattix": ("architecture_analyzer", {"measurement"}, "architecture", 0, 24, 24),
    "findbugs": ("static_analyzer", {"identification"}, "code", 1, 20, 21),
    "staticcheck": ("static_analyzer", {"identification"}, "code", 3, 16, 19),
    "stylelint": ("linter", {"identification"}, "code", 10, 1, 11),
    "psalm": ("static_analyzer", {"identification"}, "code", 8, 3, 10),
    "hadolint": ("linter", {"identification"}, "build", 5, 5, 9),
    "detekt": ("linter_analyzer", {"identification"}, "code", 6, 1, 7),
    "swiftformat": ("formatter", {"prevention"}, "code", 0, 5, 5),
    "brakeman": ("static_analyzer", {"identification"}, "code", 1, 3, 4),
    "ktlint": ("linter", {"identification"}, "code", 1, 1, 2),
}


def _passed(number: int, message: str) -> None:
    print(f"PASS criterion {number}: {message}")


class _EmptyTree:
    def read(self, path):
        return None


def test_criterion_1_worked_example_end_to_end(registry):
    doc = RawDocument("example/python-project", ".travis.yml", EXAMPLE_CONFIG)
    start = time.monotonic()
    analysis = explain_document(doc, _EmptyTree(), registry, AnalysisOptions())
    elapsed = time.monotonic() - start

    profile = analysis.profile
    assert profile.tools == {"flake8": "direct"}
    (placement,) = analysis.placements
    assert placement.stage_label == "lint"
    assert placement.placement.value == "dedicated_stage"
    assert {t.value for t in placement.timing_counts} == {"pre_deployment"}
    findings = analysis.findings.as_dict()
    assert findings == {
        "late_merging": False,
        "skip_on_failure": False,
        "absent_feedback": True,
        "email_only": False,
    }
    assert elapsed < 1.0, f"analysis took {elapsed:.3f}s"
    _passed(1, f"example config end-to-end exact match in {elapsed * 1000:.0f} ms")


def test_criterion_2_percentage_reproduction():
    headline = {
        2466: 66.9,
        1127: 30.6,
        91: 2.5,
        2900: 78.7,
        555: 15.1,
        174: 4.7,
        55: 1.5,
        2493: 67.7,
        565: 15.3,
        412: 11.2,
        251: 6.8,
    }
    for numerator, expected in headline.items():
        assert percent(numerator, 3684) == expected, numerator
    per_tool = [
        (56, 59, 94.9),
        (407, 727, 56.0),
        (69, 180, 38.3),
        (42, 57, 73.7),
        (35, 73, 47.9),
    ]
    for numerator, denominator, expected in per_tool:
        assert percent(numerator, denominator) == expected
    _passed(2, "all 16 reference percentages reproduced exactly")


def test_criterion_3_inclusion_exclusion():
    from tdmscan.analytics import pipeline_record
    from tdmscan.antipatterns import FindingSet
    from tdmscan.registry import PipelineToolProfile

    def record(slug, tool, invocation):
        profile = PipelineToolProfile(tools={tool: invocation})
        return slug, pipeline_record(profile, [], FindingSet())

    # Reference per-tool rows: direct + script - pipelines = both overlap.
    for tool, (_, _, _, direct, script, pipelines) in REFERENCE_TOOL_TABLE.items():
        overlap = direct + script - pipelines
        assert overlap >= 0, tool
        records = (
            [record(f"{tool}-d{i}", tool, "direct") for i in range(direct - overlap)]
            + [record(f"{tool}-s{i}", tool, "script") for i in range(script - overlap)]
            + [record(f"{tool}-b{i}", tool, "both") for i in range(overlap)]
        )
        row = fold_records(records).tool_table[tool]
        assert row["direct"] == direct
        assert row["script"] == script
        assert row["pipelines"] == pipelines
        assert row["pipelines"] == row["direct"] + row["script"] - row["both"]
    shellcheck_overlap = 69 + 672 - 727
    assert shellcheck_overlap == 14

    # 1,000 randomized synthetic corpora against a brute-force oracle.
    pool = sorted(REFERENCE_TOOL_TABLE)
    rng = random.Random(38_727)
    for corpus_index in range(1000):
        size = rng.randint(1, 12)
        records, tool_sets = [], []
        for i in range(size):
            tools = rng.sample(pool, rng.randint(0, 6))
            profile = PipelineToolProfile(
                tools={tool: rng.choice(["direct", "script", "both"]) for tool in tools}
            )
            records.append(
                (f"c{corpus_index}-r{i}", pipeline_record(profile, [], FindingSet()))
            )
            tool_sets.append(sorted(tools))
        report = fold_records(records)
        # brute force: nested loops, no shared code with the aggregator
        expected_pairs = {}
        expected_pipelines = {}
        for tools in tool_sets:
            for tool in tools:
                expected_pipelines[tool] = expected_pipelines.get(tool, 0) + 1
            for i in range(len(tools)):
                for j in range(i + 1, len(tools)):
                    key = (tools[i], tools[j])
                    expected_pairs[key] = expected_pairs.get(key, 0) + 1
        assert report.cooccurrence == expected_pairs
        assert {t: r["pipelines"] for t, r in report.tool_table.items()} == expected_pipelines
        for tool, row in report.tool_table.items():
            assert row["pipelines"] == row["direct"] + row["script"] - row["both"]
    _passed(3, "identity holds on all 38 reference rows and 1,000 random corpora")


def test_criterion_4_registry_fidelity(registry):
    assert len(registry) == 38
    assert set(registry.ids()) == set(REFERENCE_TOOL_TABLE)
    for tool in registry.tools:
        tool_type, activities, debt_type, *_ = REFERENCE_TOOL_TABLE[tool.id]
        assert tool.tool_type == tool_type, tool.id
        assert tool.tdm_activity == frozenset(activities), tool.id
        assert tool.debt_type == debt_type, tool.id
    # spot checks called out explicitly
    by_id = {tool.id: tool for tool in registry.tools}
    assert by_id["sonarqube"].tdm_activity == {"identification", "measurement"}
    assert by_id["sonarcloud"].tdm_activity == {"identification", "measurement"}
    for build_tool in ("shellcheck", "yamllint", "hadolint"):
        assert by_id[build_tool].debt_type == "build"
    assert by_id["bandit"].debt_type == "security"
    assert by_id["lattix"].debt_type == "architecture"
    assert by_id["lattix"].tdm_activity == {"measurement"}
    _passed(4, "38 tools match the reference metadata row-for-row")


def test_criterion_5_hand_labeled_corpus(registry, corpus_labels):
    slugs = sorted(os.listdir(CORPUS_DIR))
    assert len(slugs) >= 30
    assert set(slugs) == set(corpus_labels)

    checked = 0
    distinct_tools = set()
    seen_placements, seen_timings, seen_invocations = set(), set(), set()
    flagged = {name: 0 for name in ("late_merging", "skip_on_failure", "absent_feedback", "email_only")}

    for slug in slugs:
        slug_dir = os.path.join(CORPUS_DIR, slug)
        with open(os.path.join(slug_dir, ".travis.yml")) as handle:
            doc = RawDocument(slug, ".travis.yml", handle.read())
        expected = corpus_labels[slug]
        try:
            analysis = explain_document(doc, LocalTree(slug_dir), registry, AnalysisOptions())
        except (NotAPipeline, MalformedDocument):
            assert expected.get("skipped") == "not_a_pipeline", slug
            checked += 1
            continue
        assert "skipped" not in expected, slug

        profile = analysis.profile
        got_tools = profile.tools
        assert got_tools == expected["tools"], slug
        distinct_tools.update(got_tools)
        seen_invocations.update(got_tools.values())

        findings = analysis.findings
        assert findings.as_dict() == expected["findings"], slug
        assert findings.late_merging_any_job == expected["late_merging_any_job"], slug
        for name, value in expected["findings"].items():
            flagged[name] += int(value)

        got_placements = [
            {
                "job": p.job_index,
                "stage": p.stage_label,
                "placement": p.placement.value,
                "timing": sorted(t.value for t in p.timing_counts),
                "multi_tool": p.multi_tool,
            }
            for p in analysis.placements
        ]
        want_placements = [
            {
                "job": p["job"],
                "stage": p["stage"],
                "placement": p["placement"],
                "timing": [p["timing"]],
                "multi_tool": p["multi_tool"],
            }
            for p in expected["placements"]
        ]
        assert got_placements == want_placements, slug
        for p in expected["placements"]:
            seen_placements.add(p["placement"])
            seen_timings.add(p["timing"])
        checked += 1

    # required coverage of the crafted corpus
    assert checked == len(slugs)
    assert len(distinct_tools) >= 10
    assert seen_invocations == {"direct", "script", "both"}
    assert seen_placements == {"dedicated_stage", "dedicated_job", "mixed_job"}
    assert seen_timings == {"pre_deployment", "post_deployment"}
    assert all(count >= 1 for count in flagged.values())

    # whole-corpus scan agrees with counts derived from the labels
    entries = _entries_from_directory(CORPUS_DIR)
    result = scan_entries(entries, registry)
    expected_tool_table = {}
    for slug, expected in corpus_labels.items():
        if "skipped" in expected:
            continue
        for tool, invocation in expected["tools"].items():
            row = expected_tool_table.setdefault(
                tool, {"pipelines": 0, "direct": 0, "script": 0, "both": 0}
            )
            row["pipelines"] += 1
            if invocation in ("direct", "both"):
                row["direct"] += 1
            if invocation in ("script", "both"):
                row["script"] += 1
            if invocation == "both":
                row["both"] += 1
    assert result.report.tool_table == expected_tool_table
    _passed(5, f"scan matches all {len(slugs)} hand-labeled fixtures, 100%")


def _random_antipattern_config(rng):
    config = {"language": rng.choice(["python", "go", "ruby", "node_js"])}
    config["script"] = rng.choice(["pytest", "flake8 .", "shellcheck x.sh", "make"])
    channel_values = [True, False, None, "tok123", "", {"recipients": ["a@b.c"]}, {}]
    if rng.random() < 0.8:
        notifications = {}
        for channel in ("email", "slack", "webhooks", "irc"):
            if rng.random() < 0.5:
                notifications[channel] = rng.choice(channel_values)
        config["notifications"] = notifications
    if rng.random() < 0.5:
        config["jobs"] = {"include": [{"script": config.pop("script")}]}
        if rng.random() < 0.5:
            config["jobs"]["allow_failures"] = [{"name": "x"}]
    if rng.random() < 0.3:
        config["branches"] = {"only": rng.choice([["main"], ["master"], ["dev"]])}
    return config


def test_criterion_6_antipattern_invariants():
    rng = random.Random(424_242)
    for _ in range(500):
        data = _random_antipattern_config(rng)
        cfg = parse_config(make_doc(yaml.safe_dump(data)))

        absent, _ = detect_absent_feedback(cfg)
        email, _ = detect_email_only(cfg)
        assert not (absent and email)

        expected_skip = "allow_failures" in data.get("jobs", {})
        assert detect_skip_on_failure(cfg)[0] is expected_skip

        # adding a second enabled channel can only turn email_only off
        augmented = dict(data)
        notifications = dict(augmented.get("notifications") or {})
        notifications["slack"] = "team:token"
        augmented["notifications"] = notifications
        cfg2 = parse_config(make_doc(yaml.safe_dump(augmented)))
        assert detect_email_only(cfg2)[0] is False
    _passed(6, "invariants hold on 500 generated configs (plus hypothesis suite)")


def test_criterion_7_scan_determinism(registry, tmp_path):
    entries = _entries_from_directory(CORPUS_DIR)
    first = scan_entries(entries, registry)
    second = scan_entries(entries, registry)
    assert export_json(first.report) == export_json(second.report)
    first_bundle = export_csv_bundle(first.report)
    second_bundle = export_csv_bundle(second.report)
    assert first_bundle == second_bundle
    total_bytes = len(export_json(first.report)) + sum(
        len(blob) for blob in first_bundle.values()
    )
    _passed(7, f"two scans byte-identical across {total_bytes} output bytes")


def test_criterion_8_token_boundary_soundness(registry):
    rng = random.Random(8_888)
    alphabet = string.ascii_letters + string.digits
    ctx = SourceContext(SOURCE_CONFIG, PhaseKind.SCRIPT, 0)
    cases_per_tool = 1000
    for tool in registry.tools:
        for case in range(cases_per_tool):
            left = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            right = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 10)))
            if case % 2 == 0:
                text = f"run {left}{tool.id}{right} --fast"
            else:
                text = f"curl https://host.example/{left}/{tool.id}/{right}"
            hits = [d.tool_id for d in detect_in_text(text, registry, ctx)]
            assert tool.id not in hits, (tool.id, text)
    _passed(8, f"38 tools x {cases_per_tool} randomized embeddings: zero false fires")
