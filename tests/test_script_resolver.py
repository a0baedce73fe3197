from hypothesis import given, settings, strategies as st

from tdmscan import script_resolver
from tdmscan.config_model import CommandLine, PhaseKind
from tdmscan.script_resolver import (
    SCRIPT_SUFFIXES,
    MappingTree,
    _has_parent_segment,
    _interpreter_argument,
    _iter_ref_tokens,
    collect_script_documents,
    extract_script_refs,
    is_installer_segment,
    normalize_script_path,
    shell_tokens,
    split_actions,
    split_segments,
)


def cmd(text: str) -> CommandLine:
    return CommandLine(text, PhaseKind.SCRIPT, 0, 0)


def paths(command_text: str) -> list[str]:
    return [r.normalized_path for r in extract_script_refs(cmd(command_text))]


class TestExtraction:
    def test_interpreter_invocation(self):
        assert paths("bash ci/run_checks.sh --strict") == ["ci/run_checks.sh"]

    def test_plain_tool_call_has_no_refs(self):
        assert paths("flake8 src tests") == []

    def test_chained_dot_slash_order(self):
        assert paths("./lint.sh && ./test.sh") == ["lint.sh", "test.sh"]

    def test_source_and_dot(self):
        assert paths("source env.sh") == ["env.sh"]
        assert paths(". ./env.sh") == ["env.sh"]

    def test_sh_with_flag_skips_option(self):
        assert paths("sh -e ci/go.sh") == ["ci/go.sh"]

    def test_suffix_without_interpreter(self):
        assert paths("run-parts hooks/pre.bash now") == ["hooks/pre.bash"]

    def test_dot_slash_without_suffix(self):
        assert paths("./configure --prefix=/usr") == ["configure"]

    def test_wrapper_commands_are_transparent(self):
        assert paths("sudo bash ci/x.sh") == ["ci/x.sh"]
        assert paths("travis_retry bash ci/x.sh") == ["ci/x.sh"]

    def test_duplicates_deduplicated(self):
        assert paths("./a.sh && a.sh && bash ./a.sh") == ["a.sh"]

    def test_comment_lines_skipped(self):
        assert paths("# bash ci/x.sh") == []


class TestWarnings:
    def test_parent_segment_rejected(self):
        warnings = []
        refs = extract_script_refs(cmd("bash ../outside.sh"), warnings)
        assert refs == []
        assert any("outside repository" in w for w in warnings)

    def test_absolute_rejected(self):
        warnings = []
        refs = extract_script_refs(cmd("/usr/local/bin/setup.sh"), warnings)
        assert refs == []
        assert any("outside repository" in w for w in warnings)

    def test_variable_token_recorded_with_warning(self):
        warnings = []
        refs = extract_script_refs(cmd("$SCRIPTS_DIR/lint.sh"), warnings)
        assert [r.normalized_path for r in refs] == ["$SCRIPTS_DIR/lint.sh"]
        assert any("unresolved variable" in w for w in warnings)


class TestNormalization:
    def test_leading_dot_slash_stripped(self):
        assert normalize_script_path("./a.sh") == "a.sh"
        assert normalize_script_path("././b/c.sh") == "b/c.sh"

    def test_double_slash_collapsed(self):
        assert normalize_script_path("ci//x.sh") == "ci/x.sh"


class TestResolution:
    def test_present_and_missing(self):
        tree = MappingTree({"ci/lint.sh": "flake8 ."})
        docs, _ = collect_script_documents(
            [cmd("bash ci/lint.sh && bash missing.sh")], tree
        )
        assert [(d.path, d.resolved) for d in docs] == [
            ("ci/lint.sh", True),
            ("missing.sh", False),
        ]
        assert docs[0].content == "flake8 ."

    def test_same_path_resolves_once(self):
        tree = MappingTree({"a.sh": "x"})
        docs, _ = collect_script_documents([cmd("./a.sh"), cmd("bash a.sh")], tree)
        assert len(docs) == 1

    def test_resolution_never_fabricates(self):
        docs, _ = collect_script_documents([cmd("./gone.sh")], MappingTree({}))
        assert docs[0].resolved is False
        assert docs[0].content is None


class TestRecursiveCollection:
    def test_one_level_by_default(self):
        tree = MappingTree({"outer.sh": "bash inner.sh", "inner.sh": "ruff ."})
        docs, attribution = collect_script_documents([cmd("bash outer.sh")], tree)
        assert [d.path for d in docs] == ["outer.sh"]
        assert list(attribution) == ["outer.sh"]

    def test_recursive_follows_and_attributes_root(self):
        root = cmd("bash outer.sh")
        tree = MappingTree({"outer.sh": "bash inner.sh", "inner.sh": "ruff ."})
        docs, attribution = collect_script_documents([root], tree, recursive=True)
        assert [d.path for d in docs] == ["outer.sh", "inner.sh"]
        assert attribution["inner.sh"] == [root]

    def test_cycles_terminate(self):
        tree = MappingTree({"a.sh": "bash b.sh", "b.sh": "bash a.sh"})
        docs, _ = collect_script_documents([cmd("bash a.sh")], tree, recursive=True)
        assert sorted(d.path for d in docs) == ["a.sh", "b.sh"]


class TestShellHelpers:
    def test_split_segments(self):
        assert split_segments("a && b | c ; d") == ["a", "b", "c", "d"]

    def test_split_actions_keeps_pipes(self):
        assert split_actions("flake8 | tee log && pytest") == ["flake8 | tee log", "pytest"]

    def test_installer_detection(self):
        assert is_installer_segment("pip install flake8")
        assert is_installer_segment("pip3 install -U pylint")
        assert is_installer_segment("sudo apt-get install cppcheck")
        assert is_installer_segment("npm i eslint")
        assert is_installer_segment("gem install rubocop")
        assert is_installer_segment("brew install shellcheck")
        assert is_installer_segment("composer require phpstan")
        assert is_installer_segment("go install honnef.co/go/tools/cmd/staticcheck@latest")
        assert is_installer_segment("python -m pip install black")
        assert not is_installer_segment("flake8 src")
        assert not is_installer_segment("npm test")
        assert not is_installer_segment("go vet ./...")


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
def test_extraction_is_pure(text):
    command = cmd(text)
    first = [(r.raw_token, r.normalized_path) for r in extract_script_refs(command)]
    second = [(r.raw_token, r.normalized_path) for r in extract_script_refs(command)]
    assert first == second


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
def test_no_ref_escapes_root(text):
    for ref in extract_script_refs(cmd(text)):
        assert not ref.normalized_path.startswith("/")
        assert ".." not in ref.normalized_path.split("/")


# --- reference memo: memoized per-line events vs the uncached loop -----------


def _uncached_ref_tokens(text, warnings):
    """_iter_ref_tokens as a plain loop over every line, segment and token."""
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        for segment in split_segments(stripped):
            tokens = shell_tokens(segment)
            interp_arg = _interpreter_argument(tokens)
            for token in tokens:
                if (
                    token.endswith(SCRIPT_SUFFIXES)
                    or token.startswith("./")
                    or token == interp_arg
                ):
                    if token.startswith("/") or _has_parent_segment(token):
                        if warnings is not None:
                            warnings.append(
                                f"rejected script reference outside repository: {token}"
                            )
                        continue
                    if "$" in token and warnings is not None:
                        warnings.append(
                            f"script reference with unresolved variable: {token}"
                        )
                    yield token


_REF_LINES = [
    "bash ci/lint.sh --strict",
    "./a.sh && $DIR/b.sh ; sh ../up.sh",
    "/usr/local/bin/setup.sh",
    "source ${HOME}/env.sh | bash ../../x.bash",
    "sudo bash $CI/../run.sh",
    "flake8 . && ./configure",
    "# bash hidden.sh",
    "",
    ". ./env.sh",
]
_REF_TEXT_LINE = st.one_of(
    st.sampled_from(_REF_LINES),
    st.text(alphabet="ab./$ &;|#-", max_size=20),
)


@given(st.lists(_REF_TEXT_LINE, min_size=1, max_size=6), st.data())
@settings(max_examples=200, deadline=None)
def test_ref_memo_matches_uncached_loop(pool, data):
    # Lines repeat with and without a warnings list, in either order.
    steps = data.draw(
        st.lists(
            st.tuples(
                st.booleans(),
                st.lists(st.sampled_from(pool), max_size=6).map("\n".join),
            ),
            min_size=1,
            max_size=10,
        )
    )
    for collect, text in steps:
        expected_warnings: list[str] = []
        expected = list(_uncached_ref_tokens(text, expected_warnings))
        warnings = [] if collect else None
        assert list(_iter_ref_tokens(text, warnings)) == expected
        if collect:
            assert warnings == expected_warnings


def test_warnings_survive_a_first_sighting_without_a_list():
    script_resolver._memo_line_ref_events.cache_clear()
    text = "$D/x.sh && bash ../y.sh\nsh ../z.sh ; ./$W.sh"
    assert list(_iter_ref_tokens(text, None)) == ["$D/x.sh", "./$W.sh"]
    warnings = ["earlier"]
    assert list(_iter_ref_tokens(text, warnings)) == ["$D/x.sh", "./$W.sh"]
    assert script_resolver._memo_line_ref_events.cache_info().hits == 2
    assert warnings == [
        "earlier",
        "script reference with unresolved variable: $D/x.sh",
        "rejected script reference outside repository: ../y.sh",
        "rejected script reference outside repository: ../z.sh",
        "script reference with unresolved variable: ./$W.sh",
    ]


def test_ref_memo_is_bounded():
    memo = script_resolver._memo_line_ref_events
    memo.cache_clear()
    bound = script_resolver._REF_MEMO_SIZE
    lines = [f"bash ci/$V{i}.sh" for i in range(bound + 100)]
    first = []
    for line in lines:
        warnings: list[str] = []
        first.append((list(_iter_ref_tokens(line, warnings)), warnings))
    assert memo.cache_info().misses == len(lines)
    assert memo.cache_info().currsize == bound
    # The oldest lines were evicted; tokenizing them again gives the same events.
    for line, result in zip(lines[:200], first[:200]):
        warnings = []
        assert (list(_iter_ref_tokens(line, warnings)), warnings) == result
        expected_warnings: list[str] = []
        assert list(_uncached_ref_tokens(line, expected_warnings)) == result[0]
        assert expected_warnings == result[1]
    assert memo.cache_info().currsize == bound


def test_long_lines_skip_the_ref_memo():
    script_resolver._memo_line_ref_events.cache_clear()
    line = "bash ci/x.sh " + "-" * script_resolver._REF_MEMO_MAX_CHARS
    assert paths(line) == ["ci/x.sh"]
    assert script_resolver._memo_line_ref_events.cache_info().currsize == 0
