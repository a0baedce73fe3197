import pickle
import string

import pytest
from hypothesis import given, settings, strategies as st

from tdmscan import registry as registry_module
from tdmscan import script_resolver
from tdmscan.config_model import PhaseKind, parse_config
from tdmscan.registry import (
    DuplicateToolId,
    InvalidPattern,
    RegistryError,
    SOURCE_CONFIG,
    SOURCE_SCRIPT,
    Detection,
    SourceContext,
    UnknownEnumValue,
    detect_in_text,
    load_registry,
    shipped_registry,
)
from tdmscan.analyzer import analyze_document
from tdmscan.script_resolver import is_installer, shell_tokens, split_segments, strip_wrappers
from conftest import MappingTree, make_doc, profile_of

CTX = SourceContext(SOURCE_CONFIG, PhaseKind.SCRIPT, 0)


def tool_ids(detections):
    return [d.tool_id for d in detections]


class TestLoadRegistry:
    def test_shipped_has_38_tools(self, registry):
        assert len(registry) == 38

    def test_shipped_includes_top_tools(self, registry):
        ids = set(registry.ids())
        assert {"shellcheck", "flake8", "cppcheck", "pylint", "govet"} <= ids

    def test_ids_sorted(self, registry):
        assert registry.ids() == sorted(registry.ids())

    def test_duplicate_tool_id(self):
        record = {
            "id": "flake8",
            "display_name": "Flake8",
            "patterns": ["flake8"],
            "tool_type": "linter",
            "tdm_activity": ["identification"],
            "debt_type": "code",
        }
        with pytest.raises(DuplicateToolId):
            load_registry({"version": "1", "tools": [record, dict(record)]})

    def test_unknown_enum_value(self):
        record = {
            "id": "x",
            "display_name": "X",
            "patterns": ["x"],
            "tool_type": "linter",
            "tdm_activity": ["identification"],
            "debt_type": "databse",
        }
        with pytest.raises(UnknownEnumValue, match="debt_type"):
            load_registry({"version": "1", "tools": [record]})

    def test_invalid_pattern(self):
        record = {
            "id": "x",
            "display_name": "X",
            "patterns": ["(unclosed"],
            "tool_type": "linter",
            "tdm_activity": ["identification"],
            "debt_type": "code",
        }
        with pytest.raises(InvalidPattern):
            load_registry({"version": "1", "tools": [record]})

    def test_missing_field_reports_path(self):
        record = {
            "id": "x",
            "display_name": "X",
            "patterns": ["x"],
            "tool_type": "linter",
            "tdm_activity": ["identification"],
        }
        with pytest.raises(RegistryError, match=r"tools\[0\]\.debt_type"):
            load_registry({"version": "1", "tools": [record]})


class TestDetectInText:
    def test_flake8_direct(self, registry):
        assert tool_ids(detect_in_text("flake8 src tests", registry, CTX)) == ["flake8"]

    def test_sonar_scanner_maps_to_sonarqube(self, registry):
        detections = detect_in_text(
            "sonar-scanner -Dsonar.host.url=https://sonar.internal", registry, CTX
        )
        assert tool_ids(detections) == ["sonarqube"]

    def test_install_excluded_by_default(self, registry):
        assert detect_in_text("pip install flake8", registry, CTX) == []

    @pytest.mark.parametrize(
        "line",
        [
            "pip install flake8",
            "sudo pip3 install flake8",
            "npm i eslint",
            "npm install eslint",
            "gem install rubocop",
            "apt-get install cppcheck",
            "brew install shellcheck",
            "composer require --dev phpmd",
            "go install staticcheck",
            "python3 -m pip install flake8",
        ],
    )
    def test_every_installer_excluded_by_default(self, registry, line):
        assert detect_in_text(line, registry, CTX) == []
        assert detect_in_text(line, registry, CTX, install_exclusion=False) != []

    def test_install_included_when_disabled(self, registry):
        detections = detect_in_text(
            "pip install flake8", registry, CTX, install_exclusion=False
        )
        assert tool_ids(detections) == ["flake8"]

    def test_install_segment_does_not_mask_run_segment(self, registry):
        detections = detect_in_text("pip install flake8 && flake8 .", registry, CTX)
        assert tool_ids(detections) == ["flake8"]

    def test_comment_lines_skipped(self, registry):
        assert detect_in_text("# flake8 src", registry, CTX) == []

    def test_one_detection_per_tool_per_line(self, registry):
        detections = detect_in_text("flake8 a && flake8 b", registry, CTX)
        assert tool_ids(detections) == ["flake8"]

    def test_multiline_line_ordinals(self, registry):
        detections = detect_in_text("pytest\nflake8 .\nshellcheck x", registry, CTX)
        assert [(d.tool_id, d.line_ordinal) for d in detections] == [
            ("flake8", 1),
            ("shellcheck", 2),
        ]

    def test_matched_text_is_substring(self, registry):
        line = "  clang-format-3.9 -i src/a.cc"
        (detection,) = detect_in_text(line, registry, CTX)
        assert detection.matched_text in line

    @pytest.mark.parametrize(
        "line,expected",
        [
            ("go vet ./...", ["govet"]),
            ("go tool vet pkg", ["govet"]),
            ("mvn spotbugs:check", ["spotbugs"]),
            ("mvn sonar:sonar", ["sonarqube"]),
            ("vendor/bin/phpstan analyse", ["phpstan"]),
            ("node_modules/.bin/eslint src", ["eslint"]),
            ("python cpplint.py src/a.cc", ["cpplint"]),
            ("bundle exec rubocop", ["rubocop"]),
            ("sh -c 'flake8 src'", ["flake8"]),
        ],
    )
    def test_common_invocation_forms(self, registry, line, expected):
        assert tool_ids(detect_in_text(line, registry, CTX)) == expected

    @pytest.mark.parametrize(
        "line",
        [
            "myflake8fork src",
            "run mypylintwrapper",
            "curl https://example.com/flake8/archive.tar.gz",
            "echo https://ci.dev/shellcheck",
            "git clone https://github.com/acme/flake8x",
            "COLOR=black make paint",
            "MYPY_CACHE=1 tox",
        ],
    )
    def test_non_invocations_do_not_match(self, registry, line):
        assert detect_in_text(line, registry, CTX) == []

    def test_determinism(self, registry):
        text = "flake8 .\nshellcheck run.sh\n# pylint off"
        assert detect_in_text(text, registry, CTX) == detect_in_text(text, registry, CTX)


class TestProfilePipeline:
    def test_example_profile_is_flake8_direct(self, registry, example_config):
        profile = profile_of(registry, example_config)
        assert profile.tools == {"flake8": "direct"}

    def test_script_only_invocation(self, registry):
        cfg = parse_config(make_doc("language: python\nscript: ./lint.sh\n"))
        profile = profile_of(registry, cfg, {"lint.sh": "pylint src/"})
        assert profile.tools == {"pylint": "script"}

    def test_both_invocation(self, registry):
        cfg = parse_config(
            make_doc("language: python\nscript:\n  - flake8 .\n  - bash ci/extra.sh\n")
        )
        profile = profile_of(registry, cfg, {"ci/extra.sh": "flake8 -q"})
        assert profile.tools["flake8"] == "both"
        sources = {d.source for d in profile.all_detections() if d.tool_id == "flake8"}
        assert sources == {SOURCE_CONFIG, SOURCE_SCRIPT}

    def test_unresolved_script_contributes_nothing(self, registry):
        cfg = parse_config(make_doc("language: python\nscript: ./lint.sh\n"))
        profile = profile_of(registry, cfg)
        assert profile.tools == {}

    def test_shared_script_is_scanned_once(self, registry, monkeypatch):
        cfg = parse_config(
            make_doc(
                "jobs:\n"
                "  include:\n"
                "    - script: ./ci/lint.sh\n"
                "    - script: ./ci/lint.sh\n"
                "      after_success: ./ci/lint.sh\n"
                "    - script: ./ci/lint.sh\n"
            )
        )
        script = "flake8 src\npylint src\n"
        scanned = []
        real_detect = registry_module.detect_in_text

        def counting_detect(text, *args, **kwargs):
            scanned.append(text)
            return real_detect(text, *args, **kwargs)

        monkeypatch.setattr(registry_module, "detect_in_text", counting_detect)
        profile = profile_of(registry, cfg, {"ci/lint.sh": script})
        assert scanned.count(script) == 1
        from_script = [d for d in profile.all_detections() if d.source == SOURCE_SCRIPT]
        assert {d.job_index for d in from_script} == {0, 1, 2}
        assert sorted((d.job_index, d.phase.value, d.tool_id) for d in from_script) == [
            (0, "script", "flake8"),
            (0, "script", "pylint"),
            (1, "after_success", "flake8"),
            (1, "after_success", "pylint"),
            (1, "script", "flake8"),
            (1, "script", "pylint"),
            (2, "script", "flake8"),
            (2, "script", "pylint"),
        ]
        assert {d.line_ordinal for d in from_script} == {0, 1}
        # Kept once, at the first site, beside every (job, phase) site.
        assert [d.tool_id for d in profile.scripts["ci/lint.sh"]] == ["flake8", "pylint"]
        assert profile.sites == {
            "ci/lint.sh": (
                (0, PhaseKind.SCRIPT),
                (1, PhaseKind.SCRIPT),
                (1, PhaseKind.AFTER_SUCCESS),
                (2, PhaseKind.SCRIPT),
            )
        }

    def test_profile_holds_detections_per_job_and_per_script(self, registry):
        cfg = parse_config(
            make_doc(
                "jobs:\n"
                "  include:\n"
                "    - script:\n"
                "        - echo start\n"
                "        - pylint src\n"
                "        - flake8 src\n"
                "        - ./ci/lint.sh\n"
                "    - script: ./ci/lint.sh\n"
                "      after_success: ./ci/lint.sh\n"
            )
        )
        script = "shellcheck run.sh\nflake8 tests\n"
        profile = profile_of(registry, cfg, {"ci/lint.sh": script})

        lint, script_phase, after = "ci/lint.sh", PhaseKind.SCRIPT, PhaseKind.AFTER_SUCCESS
        assert profile.tools == {"flake8": "both", "pylint": "direct", "shellcheck": "script"}
        assert profile.jobs == {
            0: (
                [
                    Detection("pylint", SOURCE_CONFIG, None, script_phase, 0, "pylint", 1),
                    Detection("flake8", SOURCE_CONFIG, None, script_phase, 0, "flake8", 2),
                ],
                [(lint, script_phase)],
            ),
            1: ([], [(lint, script_phase), (lint, after)]),
        }
        # In line order, at the first site.
        assert profile.scripts == {
            lint: [
                Detection("shellcheck", SOURCE_SCRIPT, lint, script_phase, 0, "shellcheck", 0),
                Detection("flake8", SOURCE_SCRIPT, lint, script_phase, 0, "flake8", 1),
            ]
        }
        assert profile.sites == {lint: ((0, script_phase), (1, script_phase), (1, after))}
        # Only all_detections() groups by tool: config lines, then sites.
        listed = [(d.tool_id, d.source, d.job_index, d.phase) for d in profile.all_detections()]
        assert listed == [
            ("flake8", SOURCE_CONFIG, 0, script_phase),
            ("flake8", SOURCE_SCRIPT, 0, script_phase),
            ("flake8", SOURCE_SCRIPT, 1, script_phase),
            ("flake8", SOURCE_SCRIPT, 1, after),
            ("pylint", SOURCE_CONFIG, 0, script_phase),
            ("shellcheck", SOURCE_SCRIPT, 0, script_phase),
            ("shellcheck", SOURCE_SCRIPT, 1, script_phase),
            ("shellcheck", SOURCE_SCRIPT, 1, after),
        ]

    def test_profiling_is_idempotent(self, registry, example_config):
        first = profile_of(registry, example_config)
        second = profile_of(registry, example_config)
        assert first == second

    def test_sonarcloud_addon_relabels(self, registry):
        cfg = parse_config(
            make_doc(
                "language: java\naddons:\n  sonarcloud:\n    organization: o\n"
                "script: sonar-scanner\n"
            )
        )
        profile = profile_of(registry, cfg)
        assert list(profile.tools) == ["sonarcloud"]

    def test_plain_sonar_scanner_stays_sonarqube(self, registry):
        cfg = parse_config(make_doc("language: java\nscript: sonar-scanner\n"))
        profile = profile_of(registry, cfg)
        assert list(profile.tools) == ["sonarqube"]

    def test_explicit_sonarqube_token_never_relabeled(self, registry):
        cfg = parse_config(
            make_doc(
                "language: java\naddons:\n  sonarcloud:\n    organization: o\n"
                "script: gradle sonarqube\n"
            )
        )
        profile = profile_of(registry, cfg)
        assert list(profile.tools) == ["sonarqube"]


_PAD = st.text(alphabet=string.ascii_lowercase + string.digits, min_size=1, max_size=8)
_REGISTRY = shipped_registry()


@given(pad_left=_PAD, pad_right=_PAD, data=st.data())
def test_embedded_tool_id_never_matches(pad_left, pad_right, data):
    tool = data.draw(st.sampled_from(_REGISTRY.tools))
    embedded = f"run {pad_left}{tool.id}{pad_right} now"
    detections = detect_in_text(embedded, _REGISTRY, CTX)
    assert tool.id not in tool_ids(detections)


@given(segment=_PAD, data=st.data())
def test_url_path_segment_never_matches(segment, data):
    tool = data.draw(st.sampled_from(_REGISTRY.tools))
    url = f"curl https://example.com/{segment}/{tool.id}/{segment}.tar.gz"
    detections = detect_in_text(url, _REGISTRY, CTX)
    assert tool.id not in tool_ids(detections)


def test_every_tool_has_a_firing_sample(registry):
    samples = {
        "bandit": "bandit -r src",
        "black": "black --check .",
        "brakeman": "brakeman -q",
        "checkstyle": "mvn checkstyle:check",
        "clang_format": "clang-format -i src/a.cc",
        "clang_tidy": "clang-tidy src/a.cpp --",
        "coverity": "cov-build --dir cov-int make",
        "cppcheck": "cppcheck --enable=all src",
        "cpplint": "cpplint src/a.cc",
        "detekt": "gradle detekt",
        "eslint": "eslint .",
        "findbugs": "findbugs -textui .",
        "flake8": "flake8 src",
        "golangci_lint": "golangci-lint run",
        "govet": "go vet ./...",
        "hadolint": "hadolint Dockerfile",
        "ktlint": "ktlint --reporter=plain",
        "lattix": "java -jar lattix.jar project.ldz",
        "mypy": "mypy pkg",
        "phpcs": "phpcs --standard=PSR2 src",
        "phpmd": "phpmd src text cleancode",
        "phpstan": "phpstan analyse src",
        "pmd": "pmd check -d src",
        "prettier": "prettier --check .",
        "psalm": "psalm --show-info=false",
        "pylint": "pylint mypkg",
        "rubocop": "rubocop -a",
        "ruff": "ruff check .",
        "shellcheck": "shellcheck scripts/run.sh",
        "sonarcloud": "sonarcloud",
        "sonarqube": "sonar-scanner",
        "spotbugs": "mvn spotbugs:check",
        "staticcheck": "staticcheck ./...",
        "stylelint": "stylelint '**/*.css'",
        "swiftformat": "swiftformat --lint .",
        "swiftlint": "swiftlint lint",
        "tslint": "tslint -p tsconfig.json",
        "yamllint": "yamllint .travis.yml",
    }
    assert set(samples) == set(registry.ids())
    for tool_id, line in samples.items():
        detections = detect_in_text(line, registry, CTX)
        assert tool_id in tool_ids(detections), f"{tool_id} missed {line!r}"


# --- matcher differential: union prefilter vs the per-tool loop ---------------


def _per_tool_detect(text, registry, ctx, install_exclusion):
    """detect_in_text as a plain loop over every tool, pattern and part."""
    detections = []
    for line_index, line in enumerate(text.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if install_exclusion:
            parts = [
                segment
                for segment in split_segments(stripped)
                if not is_installer(strip_wrappers(shell_tokens(segment)))
            ]
        else:
            parts = [stripped]
        if not parts:
            continue
        for tool in registry.tools:
            matched = None
            for pattern in tool.compiled:
                for part in parts:
                    found = pattern.search(part)
                    if found:
                        matched = found.group(0)
                        break
                if matched:
                    break
            if matched:
                detections.append(
                    Detection(
                        tool_id=tool.id,
                        source=ctx.source,
                        script_path=ctx.script_path,
                        phase=ctx.phase,
                        job_index=ctx.job_index,
                        matched_text=matched,
                        line_ordinal=ctx.ordinal_base + line_index,
                    )
                )
    return detections


def _small_registry(pattern_lists):
    return load_registry(
        {
            "version": "t",
            "tools": [
                {
                    "id": f"t{index}",
                    "display_name": f"T{index}",
                    "patterns": patterns,
                    "tool_type": "linter",
                    "tdm_activity": ["identification"],
                    "debt_type": "code",
                }
                for index, patterns in enumerate(pattern_lists)
            ],
        }
    )


# Patterns that overlap at one position, match the empty string, or look ahead.
_POOL = ["a", "ab?", "a+", "c*", "b", "ab", "a b", "b|c", "a(?=b)", "(?:ab)+", "[ab]c?"]
_BACKREFERENCE = r"(a)\1"
_TEXT = st.lists(
    st.sampled_from(
        ["a", "b", "c", "ab", " ", ";", "&&", "|", "(", ")", "'", "#", "\n", "-", "/",
         "pip install ", "x"]
    ),
    max_size=16,
).map("".join)


@st.composite
def _registries(draw):
    pattern_lists = draw(
        st.lists(st.lists(st.sampled_from(_POOL), min_size=1, max_size=3), min_size=1, max_size=5)
    )
    if draw(st.booleans()):
        pattern_lists.insert(
            draw(st.integers(0, len(pattern_lists))), [_BACKREFERENCE]
        )
    return _small_registry(pattern_lists)


@given(_registries(), st.lists(_TEXT, min_size=1, max_size=5), st.booleans())
@settings(max_examples=300, deadline=None)
def test_detect_matches_per_tool_loop(registry, texts, install_exclusion):
    for text in texts:
        assert detect_in_text(text, registry, CTX, install_exclusion) == _per_tool_detect(
            text, registry, CTX, install_exclusion
        )


def test_backreference_disables_the_union():
    registry = _small_registry([["a"], [_BACKREFERENCE]])
    assert registry._unions is None
    assert tool_ids(detect_in_text("aa ; a", registry, CTX)) == ["t0", "t1"]


def test_shipped_registry_has_unions(registry):
    assert registry._unions is not None


@pytest.mark.parametrize(
    "pattern_lists, present",
    [
        ([["a"], ["b|c", "a(?=b)"]], True),
        ([["a"], [_BACKREFERENCE]], False),
        ([["(a)b"]], False),
        ([], False),
    ],
    ids=["plain", "backreference", "capture-group", "empty"],
)
def test_prefilter_exists_with_the_unions_and_captures_nothing(pattern_lists, present):
    unions = _small_registry(pattern_lists)._unions
    assert (unions is not None) == present
    if present:
        prefilter, forward, backward = unions
        assert prefilter.groups == 0
        assert forward.groups == backward.groups == len(pattern_lists)


def test_segment_without_an_installer_hint_is_not_tokenized(monkeypatch):
    tokenized = []

    def recording_shell_tokens(segment):
        tokenized.append(segment)
        return shell_tokens(segment)

    monkeypatch.setattr(script_resolver, "shell_tokens", recording_shell_tokens)
    script_resolver._memo_shell_line.cache_clear()
    registry = shipped_registry()
    line = "flake8 src && pylint x | tee log ; composer require y ; npm ci"
    assert tool_ids(detect_in_text(line, registry, CTX)) == ["flake8", "pylint"]
    assert tokenized == ["composer require y", "npm ci"]


def test_empty_matching_pattern_terminates():
    # `c*` matches the empty string after the trailing `(`; the scan must stop
    # there rather than search again from the same clamped position.
    registry = _small_registry([["c*"], ["a"]])
    assert tool_ids(detect_in_text("a (", registry, CTX, install_exclusion=False)) == ["t1"]
    assert detect_in_text("x (", registry, CTX, install_exclusion=False) == []


# --- line memo: memoized per-line hits vs the per-tool loop -------------------

# Lines for both the drawn registries (a, b, c) and the shipped one.
_LINE = st.lists(
    st.sampled_from(
        ["a", "b", "c", "ab", " ", ";", "&&", "|", "(", "'", "#", "-", "/", "x",
         "pip install ", "flake8 ", "pylint", "eslint .", "sudo ", "npm i ",
         "composer require ", "go install ", "gem install ", "npm install ",
         "python -m pip install ", "\t"]
    ),
    max_size=8,
).map("".join)


@given(_registries(), st.lists(_LINE, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_line_memo_matches_per_tool_loop(registry, drawn, pool, data):
    # Lines repeat across texts, registries and install_exclusion values, so
    # hits are read back under every combination in one sequence.
    steps = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from([drawn, registry]),
                st.booleans(),
                st.lists(st.sampled_from(pool), max_size=6).map("\n".join),
            ),
            min_size=1,
            max_size=12,
        )
    )
    for chosen, install_exclusion, text in steps:
        assert detect_in_text(text, chosen, CTX, install_exclusion) == _per_tool_detect(
            text, chosen, CTX, install_exclusion
        )


def test_line_memo_is_bounded():
    # A line's hits live on its ShellLine, so the shell_line memo bounds them.
    registry = shipped_registry()
    memo = script_resolver._memo_shell_line
    memo.cache_clear()
    bound = script_resolver.LINE_MEMO_SIZE
    lines = [f"flake8 src/p{i} && pip install pylint{i}" for i in range(bound + 200)]
    first = [detect_in_text(line, registry, CTX) for line in lines]
    info = memo.cache_info()
    assert info.misses == len(lines)
    assert info.currsize == bound
    assert script_resolver.shell_line(lines[-1]).tool_hits[0] is registry
    # The oldest lines were evicted with their hits; matching them again gives
    # the same hits.
    for line, detections in zip(lines[:300], first[:300]):
        assert detect_in_text(line, registry, CTX) == detections
        assert detections == _per_tool_detect(line, registry, CTX, True)
    assert memo.cache_info().currsize == bound


def test_long_lines_skip_the_line_memo():
    registry = shipped_registry()
    script_resolver._memo_shell_line.cache_clear()
    line = "flake8 " + "x" * script_resolver.LINE_MEMO_MAX_CHARS
    for install_exclusion in (True, False, True):
        detections = detect_in_text(line, registry, CTX, install_exclusion)
        assert tool_ids(detections) == ["flake8"]
        assert detections == _per_tool_detect(line, registry, CTX, install_exclusion)
    assert script_resolver._memo_shell_line.cache_info().currsize == 0


def test_line_memo_is_per_instance_and_lazy(monkeypatch):
    first, second = shipped_registry(), shipped_registry()
    script_resolver._memo_shell_line.cache_clear()
    line = script_resolver.shell_line("pylint src && pip install flake8")
    assert line.tool_hits is None
    # A lookup never hashes the registry (that walks every ToolSpec).
    monkeypatch.setattr(
        registry_module.Registry, "__hash__", lambda self: pytest.fail("hashed")
    )
    pylint = (("pylint", "pylint"),)
    both = (("flake8", "flake8"), ("pylint", "pylint"))
    # The slot holds the last asker's hits; another registry or the other
    # setting recomputes them and takes the slot.
    for registry, install_exclusion, hits in [
        (first, True, pylint),
        (first, True, pylint),
        (second, True, pylint),
        (second, False, both),
        (first, False, both),
        (first, True, pylint),
    ]:
        assert registry.line_hits(line.text, install_exclusion) == hits
        held = line.tool_hits
        assert held[0] is registry and held[1] is install_exclusion and held[2] == hits
    assert script_resolver.shell_line(line.text) is line


def test_registry_pickles_after_detection():
    registry = shipped_registry()
    detect_in_text("flake8 .", registry, CTX)
    doc = make_doc("script: flake8 .\n")
    copy = pickle.loads(pickle.dumps(registry))
    assert copy == registry
    assert tool_ids(detect_in_text("flake8 .", copy, CTX)) == ["flake8"]
    record, _ = analyze_document(doc, MappingTree({}), copy)
    assert [key for key in record.keys if key[0] == "tool"] == [("tool", "flake8", "direct")]
    assert record == analyze_document(doc, MappingTree({}), shipped_registry())[0]


# Two registries whose hits differ on the same lines: the shipped one and one
# of three tools with their own ids.
_SHIPPED = shipped_registry()
_THREE_TOOLS = _small_registry([["flake8"], ["pylint", "pip"], ["eslint"]])
_LONG_TAIL = "x" * script_resolver.LINE_MEMO_MAX_CHARS
_SLOT_LINES = [
    "flake8 src",
    "pip install flake8",
    "pip install pylint && pylint src",
    "npm i eslint ; eslint .",
    "sudo pip3 install flake8 | tee log",
    "echo done",
    f"flake8 {_LONG_TAIL}",
    f"pip install flake8 && echo {_LONG_TAIL}",
]


@given(
    st.lists(
        st.tuples(
            st.sampled_from([_SHIPPED, _THREE_TOOLS]),
            st.booleans(),
            st.sampled_from(_SLOT_LINES),
        ),
        min_size=1,
        max_size=24,
    )
)
@settings(max_examples=200, deadline=None)
def test_line_slot_matches_cold_line_hits(steps):
    # Lines stay in the shell_line memo across steps and examples, so each
    # lookup may find the slot filled by either registry and either setting.
    for registry, install_exclusion, stripped in steps:
        cold = registry_module._line_hits(
            registry, script_resolver.ShellLine(stripped), install_exclusion
        )
        assert registry.line_hits(stripped, install_exclusion) == cold



# --- the hot-path records are named tuples --------------------------------------


@pytest.mark.parametrize(
    "record_type, values",
    [
        (
            Detection,
            dict(
                tool_id="flake8",
                source=SOURCE_SCRIPT,
                script_path="ci/lint.sh",
                phase=PhaseKind.AFTER_SUCCESS,
                job_index=2,
                matched_text="flake8",
                line_ordinal=5,
            ),
        ),
        (
            SourceContext,
            dict(
                source=SOURCE_SCRIPT,
                phase=PhaseKind.DEPLOY,
                job_index=0,
                script_path="ci/x.sh",
                ordinal_base=4,
            ),
        ),
    ],
    ids=["Detection", "SourceContext"],
)
def test_records_are_value_tuples(record_type, values):
    record = record_type(**values)
    assert record._fields == tuple(values)
    assert record == record_type(*values.values()) == tuple(values.values())
    assert hash(record) == hash(record_type(*values.values()))
    assert len({record, record_type(**values)}) == 1
    first_field = next(iter(values))
    assert record._replace(**{first_field: "other"}) != record
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is record_type


def test_source_context_defaults_to_no_script_at_ordinal_zero():
    assert CTX == (SOURCE_CONFIG, PhaseKind.SCRIPT, 0, None, 0)


def test_sonarcloud_relabel_changes_only_the_tool_id(registry):
    cfg = parse_config(
        make_doc(
            "language: java\naddons:\n  sonarcloud:\n    organization: o\n"
            "jobs:\n  include:\n    - script: ./ci/scan.sh\n    - script: ./ci/scan.sh\n"
        )
    )
    script = "sonar-scanner -Dsonar.projectKey=k\n"
    profile = profile_of(registry, cfg, {"ci/scan.sh": script})
    scanned = detect_in_text(
        script, registry, SourceContext(SOURCE_SCRIPT, PhaseKind.SCRIPT, 0, "ci/scan.sh")
    )
    assert tool_ids(scanned) == ["sonarqube"]
    assert list(profile.tools) == ["sonarcloud"]
    assert profile.all_detections() == [
        scanned[0]._replace(tool_id="sonarcloud", job_index=job) for job in (0, 1)
    ]
    assert {type(d) for d in profile.all_detections()} == {Detection}
