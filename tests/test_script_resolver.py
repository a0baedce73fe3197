from hypothesis import given, strategies as st

from tdmscan.config_model import CommandLine, PhaseKind
from tdmscan.script_resolver import (
    MappingTree,
    collect_script_documents,
    extract_script_refs,
    is_installer_segment,
    normalize_script_path,
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
