import random
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from tdmscan.analytics import (
    Aggregator,
    CorpusReport,
    DivisionByZero,
    export_csv_bundle,
    export_json,
    percent,
    pipeline_record,
)
from tdmscan.antipatterns import FindingSet
from tdmscan.registry import PipelineToolProfile

from conftest import fold_records

TOOL_POOL = [
    "flake8", "shellcheck", "pylint", "cppcheck", "eslint",
    "mypy", "rubocop", "bandit", "black", "govet",
]


def make_profile(tool_invocations):
    return PipelineToolProfile(tools=dict(tool_invocations))


def make_record(slug, tool_invocations, findings=None):
    """A `(slug, PipelineRecord)` pair for a pipeline without placements."""
    profile = make_profile(tool_invocations)
    return slug, pipeline_record(profile, [], findings or FindingSet())


class TestPercent:
    def test_two_thirds_share(self):
        assert percent(2466, 3684) == 66.9

    def test_zero_numerator(self):
        assert percent(0, 3684) == 0.0

    def test_tslint_absent_feedback_rate(self):
        assert percent(56, 59) == 94.9

    def test_half_rounds_away_from_zero(self):
        assert percent(1, 8) == 12.5
        assert percent(25, 1000) == 2.5  # 2.50 -> 2.5
        assert percent(125, 1000) == 12.5
        assert percent(15, 200) == 7.5
        assert percent(5, 2000) == 0.3  # 0.25 -> 0.3 (ties away from zero)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            percent(1, 0)


class TestAggregateBasics:
    def test_single_pipeline_pair(self):
        record = make_record("r1", {"flake8": "direct", "pylint": "direct"})
        report = fold_records([record])
        assert report.cooccurrence[("flake8", "pylint")] == 1
        assert report.tools_per_pipeline == {2: 1}

    def test_tool_counts_once_per_pipeline(self):
        report = fold_records([make_record("r1", {"flake8": "both"})])
        row = report.tool_table["flake8"]
        assert row == {"pipelines": 1, "direct": 1, "script": 1, "both": 1}

    def test_inclusion_exclusion_identity(self):
        records = []
        for i in range(55):
            records.append(make_record(f"d{i}", {"shellcheck": "direct"}))
        for i in range(658):
            records.append(make_record(f"s{i}", {"shellcheck": "script"}))
        for i in range(14):
            records.append(make_record(f"b{i}", {"shellcheck": "both"}))
        report = fold_records(records)
        row = report.tool_table["shellcheck"]
        assert row["direct"] == 69
        assert row["script"] == 672
        assert row["pipelines"] == 727
        assert row["pipelines"] == row["direct"] + row["script"] - row["both"]
        assert row["both"] == 14

    def test_histogram_conservation(self):
        records = [
            make_record("a", {"flake8": "direct"}),
            make_record("b", {"flake8": "direct", "mypy": "direct"}),
            make_record("c", {}),
        ]
        report = fold_records(records)
        assert sum(report.tools_per_pipeline.values()) == 2
        assert report.totals["pipelines"] == 3
        assert report.totals["pipelines_with_tools"] == 2
        assert sorted(report.findings_per_pipeline) == ["a", "b"]

    def test_antipattern_tables(self):
        findings = FindingSet(
            skip_on_failure=True, absent_feedback=True, late_merging_any_job=False
        )
        report = fold_records(
            [
                make_record("a", {"flake8": "direct"}, findings),
                make_record("b", {"flake8": "direct"}),
            ]
        )
        prevalence = report.antipattern_prevalence
        assert prevalence["absent_feedback"] == {"count": 1, "percent": 50.0}
        assert prevalence["late_merging"]["count"] == 0
        matrix = report.antipattern_matrix
        assert matrix["skip_on_failure"]["absent_feedback"] == 1
        assert matrix["absent_feedback"]["skip_on_failure"] == 1
        assert matrix["absent_feedback"]["email_only"] == 0
        per_tool = report.per_tool_antipattern["flake8"]
        assert per_tool["absent_feedback"] == {
            "pipelines_with_tool": 2,
            "with_finding": 1,
            "percent": 50.0,
        }


def brute_force_tables(tool_sets):
    """Independent oracle: plain nested loops over per-pipeline tool sets."""
    pipelines = {}
    pairs = {}
    histogram = {}
    for tools in tool_sets:
        if not tools:
            continue
        histogram[len(tools)] = histogram.get(len(tools), 0) + 1
        for tool in tools:
            pipelines[tool] = pipelines.get(tool, 0) + 1
        ordered = sorted(tools)
        for i in range(len(ordered)):
            for j in range(i + 1, len(ordered)):
                key = (ordered[i], ordered[j])
                pairs[key] = pairs.get(key, 0) + 1
    return pipelines, pairs, histogram


def random_corpus(rng, size):
    records = []
    tool_sets = []
    for i in range(size):
        tools = rng.sample(TOOL_POOL, rng.randint(0, 5))
        invocations = {
            tool: rng.choice(["direct", "script", "both"]) for tool in tools
        }
        records.append(make_record(f"repo{i}", invocations))
        tool_sets.append(set(tools))
    return records, tool_sets


def test_cooccurrence_matches_brute_force_oracle():
    rng = random.Random(20117)
    for _ in range(50):
        records, tool_sets = random_corpus(rng, rng.randint(1, 25))
        report = fold_records(records)
        pipelines, pairs, histogram = brute_force_tables(tool_sets)
        assert {t: r["pipelines"] for t, r in report.tool_table.items()} == pipelines
        assert report.cooccurrence == pairs
        assert report.tools_per_pipeline == histogram


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_merge_equals_single_pass(seed):
    rng = random.Random(seed)
    records, _ = random_corpus(rng, rng.randint(0, 12))
    cut = rng.randint(0, len(records))
    left = Aggregator("v1")
    for slug, record in records[:cut]:
        left.add(slug, record)
    right = Aggregator("v1")
    for slug, record in records[cut:]:
        right.add(slug, record)
    left.merge(right)
    assert left.report() == fold_records(records, "v1")


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_merge_is_commutative(seed):
    rng = random.Random(seed)
    records, _ = random_corpus(rng, 8)
    a1, b1 = Aggregator(), Aggregator()
    a2, b2 = Aggregator(), Aggregator()
    for slug, record in records[:4]:
        a1.add(slug, record)
        b2.add(slug, record)
    for slug, record in records[4:]:
        b1.add(slug, record)
        a2.add(slug, record)
    a1.merge(b1)
    a2.merge(b2)
    assert a1.report() == a2.report()


class TestExport:
    def test_json_deterministic(self):
        records = [make_record("a", {"flake8": "direct", "mypy": "script"})]
        first = export_json(fold_records(records))
        second = export_json(fold_records(records))
        assert first == second

    def test_csv_bundle_deterministic(self):
        records = [
            make_record("a", {"flake8": "direct"}),
            make_record("b", {"mypy": "script", "flake8": "both"}),
        ]
        first = export_csv_bundle(fold_records(records))
        second = export_csv_bundle(fold_records(records))
        assert first == second

    def test_bundle_has_all_files(self):
        bundle = export_csv_bundle(fold_records([]))
        assert sorted(bundle) == sorted(
            [
                "tools.csv",
                "cooccurrence.csv",
                "antipatterns.csv",
                "antipattern_matrix.csv",
                "per_tool_antipattern.csv",
                "stage_names.csv",
                "placement.csv",
                "timing.csv",
            ]
        )

    def test_empty_corpus_headers_only(self):
        bundle = export_csv_bundle(fold_records([]))
        for name, blob in bundle.items():
            lines = blob.decode().strip().splitlines()
            assert len(lines) == 1, name

    def test_int_keys_sort_as_json_strings(self):
        records = [
            make_record("few", {tool: "direct" for tool in TOOL_POOL[:2]}),
            make_record("all", {tool: "direct" for tool in TOOL_POOL}),
        ]
        assert len(TOOL_POOL) == 10
        text = export_json(fold_records(records)).decode()
        assert '"tools_per_pipeline": {\n    "10": 1,\n    "2": 1\n  }' in text
        assert '"findings_count_histogram": {\n    "0": 2\n  }' in text

    def test_report_roundtrips_through_json(self):
        findings = FindingSet(absent_feedback=True)
        records = [make_record("a", {"flake8": "direct"}, findings)]
        report = fold_records(records, "v1")
        import json

        data = json.loads(export_json(report).decode())
        assert CorpusReport.from_json_dict(data) == report

    def test_csv_percent_has_one_decimal(self):
        findings = FindingSet(absent_feedback=True)
        report = fold_records([make_record("a", {"flake8": "direct"}, findings)])
        text = export_csv_bundle(report)["antipatterns.csv"].decode()
        assert "absent_feedback,1,100.0" in text
