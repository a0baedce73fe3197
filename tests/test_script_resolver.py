from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from tdmscan import script_resolver
from tdmscan.config_model import Job, PhaseKind
from tdmscan.ingest import escapes_repo
from tdmscan.script_resolver import (
    INSTALLER_HINT,
    SCRIPT_SUFFIXES,
    ScriptDocument,
    _interpreter_argument,
    collect_script_documents,
    command_lines,
    is_installer,
    normalize_script_path,
    script_paths,
    script_references,
    shell_tokens,
    strip_wrappers,
    split_actions,
    split_segments,
)

from conftest import MappingTree, walk_commands


def cmd(text: str, phase: PhaseKind = PhaseKind.SCRIPT, job: int = 0) -> Job:
    """Job `job` running `text` as the one command of its `phase`."""
    return Job(job, phases={phase: (text,)})


def collect(jobs, tree, recursive=False, warnings=None):
    """Both steps of script resolution over the commands of `jobs`."""
    references = script_references(jobs, warnings)
    return collect_script_documents(references, tree, recursive, warnings)


class TestExtraction:
    def test_interpreter_invocation(self):
        assert script_paths("bash ci/run_checks.sh --strict") == ["ci/run_checks.sh"]

    def test_plain_tool_call_has_no_refs(self):
        assert script_paths("flake8 src tests") == []

    def test_chained_dot_slash_order(self):
        assert script_paths("./lint.sh && ./test.sh") == ["lint.sh", "test.sh"]

    def test_source_and_dot(self):
        assert script_paths("source env.sh") == ["env.sh"]
        assert script_paths(". ./env.sh") == ["env.sh"]

    def test_sh_with_flag_skips_option(self):
        assert script_paths("sh -e ci/go.sh") == ["ci/go.sh"]

    def test_suffix_without_interpreter(self):
        assert script_paths("run-parts hooks/pre.bash now") == ["hooks/pre.bash"]

    def test_dot_slash_without_suffix(self):
        assert script_paths("./configure --prefix=/usr") == ["configure"]

    def test_wrapper_commands_are_transparent(self):
        assert script_paths("sudo bash ci/x.sh") == ["ci/x.sh"]
        assert script_paths("travis_retry bash ci/x.sh") == ["ci/x.sh"]

    def test_duplicates_deduplicated(self):
        assert script_paths("./a.sh && a.sh && bash ./a.sh") == ["a.sh"]

    def test_comment_lines_skipped(self):
        assert script_paths("# bash ci/x.sh") == []


class TestWarnings:
    def test_parent_segment_rejected(self):
        # Backslashes count as the slashes they normalize to.
        tokens = ["../outside.sh", "..\\evil.sh", ".\\..\\x.sh"]
        text = f"bash {tokens[0]} && bash {tokens[1]} && ./ok.sh && . {tokens[2]}"
        warnings = []
        assert script_paths(text, warnings) == ["ok.sh"]
        assert warnings == [
            f"rejected script reference outside repository: {token}" for token in tokens
        ]
        docs, _ = collect([cmd(text)], MappingTree({"ok.sh": "x"}))
        assert [doc.path for doc in docs] == ["ok.sh"]

    def test_absolute_rejected(self):
        for token in ["/usr/local/bin/setup.sh", ".//setup.sh"]:
            warnings = []
            assert script_paths(token, warnings) == []
            assert warnings == [f"rejected script reference outside repository: {token}"]

    def test_variable_token_recorded_with_warning(self):
        warnings = []
        assert script_paths("$SCRIPTS_DIR/lint.sh", warnings) == ["$SCRIPTS_DIR/lint.sh"]
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
        docs, _ = collect(
            [cmd("bash ci/lint.sh && bash missing.sh")], tree
        )
        assert [(d.path, d.resolved) for d in docs] == [
            ("ci/lint.sh", True),
            ("missing.sh", False),
        ]
        assert docs[0].content == "flake8 ."

    def test_same_path_resolves_once(self):
        tree = MappingTree({"a.sh": "x"})
        docs, _ = collect([cmd("./a.sh"), cmd("bash a.sh")], tree)
        assert len(docs) == 1

    def test_resolution_never_fabricates(self):
        docs, _ = collect([cmd("./gone.sh")], MappingTree({}))
        assert docs[0].resolved is False
        assert docs[0].content is None


class TestRecursiveCollection:
    def test_one_level_by_default(self):
        tree = MappingTree({"outer.sh": "bash inner.sh", "inner.sh": "ruff ."})
        docs, sites = collect([cmd("bash outer.sh")], tree)
        assert [d.path for d in docs] == ["outer.sh"]
        assert list(sites) == ["outer.sh"]

    def test_recursive_follows_and_attributes_root(self):
        root = cmd("bash outer.sh")
        tree = MappingTree({"outer.sh": "bash inner.sh", "inner.sh": "ruff ."})
        docs, sites = collect([root], tree, recursive=True)
        assert [d.path for d in docs] == ["outer.sh", "inner.sh"]
        assert sites["inner.sh"] == ((0, PhaseKind.SCRIPT),)

    def test_cycles_terminate(self):
        tree = MappingTree({"a.sh": "bash b.sh", "b.sh": "bash a.sh"})
        docs, _ = collect([cmd("bash a.sh")], tree, recursive=True)
        assert sorted(d.path for d in docs) == ["a.sh", "b.sh"]

    def test_recursive_mode_reads_each_script_once(self, monkeypatch):
        files = {"outer.sh": "bash inner.sh\nbash gone.sh", "inner.sh": "bash outer.sh\nruff ."}
        site_list = [
            (job, phase) for job in range(3) for phase in (PhaseKind.SCRIPT, PhaseKind.AFTER_SUCCESS)
        ]
        commands = [cmd("bash outer.sh", phase, job) for job, phase in site_list]
        scanned = []
        real_script_paths = script_resolver.script_paths

        def counting_script_paths(text, warnings=None):
            scanned.append(text)
            return real_script_paths(text, warnings)

        monkeypatch.setattr(script_resolver, "script_paths", counting_script_paths)
        docs, sites = collect(commands, MappingTree(files), recursive=True)
        assert [d.path for d in docs] == ["outer.sh", "inner.sh", "gone.sh"]
        assert sites == dict.fromkeys(["outer.sh", "inner.sh", "gone.sh"], tuple(site_list))
        # The six commands share one text, which is scanned once.
        assert Counter(scanned) == {"bash outer.sh": 1, files["outer.sh"]: 1, files["inner.sh"]: 1}

    def test_recursive_warnings_are_recorded_once_per_script(self):
        tree = MappingTree({"ci/lint.sh": "bash ../up.sh\n$DIR/x.sh\nflake8 ."})
        commands = [cmd("bash ci/lint.sh", job=job) for job in range(3)]
        warnings = []
        collect(commands, tree, recursive=True, warnings=warnings)
        assert warnings == [
            "rejected script reference outside repository: ../up.sh",
            "script reference with unresolved variable: $DIR/x.sh",
        ]


def _per_root_queue(jobs, tree, recursive, warnings):
    """collect_script_documents restated as a queue of (path, root command),
    with each path's referencing commands reduced to deduplicated
    (job, phase) sites at the end.

    A script is scanned again for every root that reaches it; only its
    first scan records warnings.  The tree never raises FileTooLarge.
    """
    referencing = {}
    docs = {}
    queue = []
    scanned = set()
    warned = set()

    def attach(path, root):
        holders = referencing.setdefault(path, [])
        if root not in holders:
            holders.append(root)
        queue.append((path, root))

    for root in walk_commands(jobs):
        for path in script_paths(root[-1], warnings):
            attach(path, root)
    while queue:
        path, root = queue.pop(0)
        if path not in docs:
            content = tree.read(path)
            docs[path] = ScriptDocument(path, content)
        doc = docs[path]
        if not recursive or not doc.resolved or (path, root) in scanned:
            continue
        scanned.add((path, root))
        for nested in script_paths(doc.content, [] if path in warned else warnings):
            attach(nested, root)
        warned.add(path)
    sites = {
        path: tuple(dict.fromkeys((job_index, phase) for job_index, phase, *_ in roots))
        for path, roots in referencing.items()
    }
    return list(docs.values()), sites


_GRAPH_NAMES = ["a.sh", "b.sh", "c.sh", "gone.sh"]
_GRAPH_LINES = st.one_of(
    st.sampled_from(_GRAPH_NAMES).map("bash {}".format),
    st.sampled_from(["flake8 .", "bash ../up.sh", "./$D/x.sh"]),
)


@given(
    files=st.dictionaries(
        st.sampled_from(_GRAPH_NAMES[:3]),
        st.lists(_GRAPH_LINES, max_size=3).map("\n".join),
    ),
    roots=st.lists(
        st.tuples(
            st.lists(_GRAPH_LINES, min_size=1, max_size=3).map(" && ".join),
            st.sampled_from([PhaseKind.SCRIPT, PhaseKind.AFTER_SUCCESS]),
            st.integers(0, 2),
        ),
        max_size=6,
    ),
    recursive=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_sites_match_the_per_root_queue(files, roots, recursive):
    # Script graphs with cycles, self-references, missing and shared
    # scripts, and several commands per (job, phase).
    commands = [cmd(text, phase, job) for text, phase, job in roots]
    tree = MappingTree(files)
    expected_warnings, warnings = [], []
    expected_docs, expected_sites = _per_root_queue(
        commands, tree, recursive, expected_warnings
    )
    docs, sites = collect(commands, tree, recursive, warnings)
    assert docs == expected_docs
    assert list(sites.items()) == list(expected_sites.items())
    assert warnings == expected_warnings


class TestShellHelpers:
    def test_split_segments(self):
        assert split_segments("a && b | c ; d") == ["a", "b", "c", "d"]

    def test_command_lines_skip_blanks_and_comments(self):
        text = "a && b\n\n  # note\n\tflake8 src  \n#!/bin/sh\n"
        assert command_lines(text) == [(0, "a && b"), (3, "flake8 src")]

    def test_split_actions_keeps_pipes(self):
        assert split_actions("flake8 | tee log && pytest") == ["flake8 | tee log", "pytest"]

    def test_installer_detection(self):
        def installs(segment):
            return is_installer(strip_wrappers(shell_tokens(segment)))

        assert installs("pip install flake8")
        assert installs("pip3 install -U pylint")
        assert installs("sudo apt-get install cppcheck")
        assert installs("npm i eslint")
        assert installs("gem install rubocop")
        assert installs("brew install shellcheck")
        assert installs("composer require phpstan")
        assert installs("go install honnef.co/go/tools/cmd/staticcheck@latest")
        assert installs("python -m pip install black")
        assert not installs("flake8 src")
        assert not installs("npm test")
        assert not installs("go vet ./...")


@given(st.text(alphabet="ab &|;", max_size=40))
@settings(max_examples=500)
def test_a_lines_segments_are_its_actions_segments(line):
    # Placement asks the line matcher about an action's own text: its
    # segments are the line's segments that fall in that action.
    assert split_segments(line) == [
        segment for action in split_actions(line) for segment in split_segments(action)
    ]


class TestShellLine:
    def test_a_line_carries_its_segments_and_each_actions_facts(self):
        line = script_resolver.shell_line(
            "sudo pip install x | tee log && echo hi ; bash ../up.sh; ./ci/$V.sh | flake8"
        )
        assert line.searched == ("tee log", "echo hi", "bash ../up.sh", "./ci/$V.sh", "flake8")
        assert line.actions == (
            ("sudo pip install x | tee log", True, True, ()),
            ("echo hi", True, True, ()),
            (
                "bash ../up.sh",
                False,
                False,
                ((None, "rejected script reference outside repository: ../up.sh"),),
            ),
            (
                "./ci/$V.sh | flake8",
                False,
                False,
                (("ci/$V.sh", "script reference with unresolved variable: ./ci/$V.sh"),),
            ),
        )

    def test_script_heads_widen_only_the_script_flag(self):
        ((_, ceremony, script_ceremony, _),) = script_resolver.shell_line("if [ -f x ]").actions
        assert (ceremony, script_ceremony) == (False, True)

    def test_a_line_is_worked_once_for_every_layer(self, monkeypatch):
        built, worked = [], []
        real_shell_line = script_resolver.ShellLine
        real_line_actions = script_resolver._line_actions

        def counting_shell_line(stripped):
            built.append(stripped)
            return real_shell_line(stripped)

        def counting_line_actions(stripped):
            worked.append(stripped)
            return real_line_actions(stripped)

        monkeypatch.setattr(
            script_resolver, "_memo_shell_line", lru_cache(maxsize=8)(counting_shell_line)
        )
        monkeypatch.setattr(script_resolver, "_line_actions", counting_line_actions)
        text = "./ci/lint.sh && flake8 src\necho done\nmake"
        for _ in range(3):
            assert script_paths(text) == ["ci/lint.sh"]
            assert [
                action[0]
                for _, stripped in command_lines(text)
                for action in script_resolver.shell_line(stripped).actions
            ] == ["./ci/lint.sh", "flake8 src", "echo done", "make"]
        lines = ["./ci/lint.sh && flake8 src", "echo done", "make"]
        assert built == worked == lines

    def test_a_segment_is_tokenized_only_for_a_hint(self, monkeypatch):
        tokenized = []
        real_shell_tokens = script_resolver.shell_tokens

        def counting_shell_tokens(segment):
            tokenized.append(segment)
            return real_shell_tokens(segment)

        monkeypatch.setattr(script_resolver, "shell_tokens", counting_shell_tokens)
        script_resolver._memo_shell_line.cache_clear()
        lines = ["make | tee && pip install x | grep x", "./a.sh | cat", "echo hi"]
        # The segments detection searches: an install hint in the segment.
        for line in lines:
            script_resolver.shell_line(line)
        assert tokenized == ["pip install x"]
        # The actions: each action, and for a reference hint on the line each
        # of its segments, once.
        tokenized.clear()
        for line in lines:
            script_resolver.shell_line(line).actions
            script_resolver.shell_line(line).actions
        assert tokenized == [
            "make | tee",
            "pip install x | grep x",
            "./a.sh | cat",
            "./a.sh",
            "cat",
            "echo hi",
        ]


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
def test_extraction_is_pure(text):
    assert script_paths(text) == script_paths(text)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=80))
def test_no_ref_escapes_root(text):
    for path in script_paths(text):
        assert not path.startswith("/")
        assert ".." not in path.split("/")


# --- reference events: the memoized shell lines vs the uncached loop ---------


def _uncached_ref_tokens(text, warnings):
    """The raw reference tokens of script_paths, as a plain loop over every
    line, segment and token."""
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
                    if escapes_repo(normalize_script_path(token)):
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


def _uncached_paths(text, warnings):
    """script_paths from the uncached tokens: normalized, each once."""
    normalized = (normalize_script_path(t) for t in _uncached_ref_tokens(text, warnings))
    return list(dict.fromkeys(path for path in normalized if path))


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
    st.lists(
        st.sampled_from([*"ab./$ &;|#-'\"()\t\x1c\u2028", "sh", "source"]), max_size=20
    ).map("".join),
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
        expected = _uncached_paths(text, expected_warnings)
        warnings = [] if collect else None
        assert script_paths(text, warnings) == expected
        if collect:
            assert warnings == expected_warnings


def test_installer_hints_come_from_the_rules():
    # `npm i` has a one-letter verb, so npm's head stands in for its verbs.
    assert INSTALLER_HINT.pattern == "install|npm|require"


def test_hint_free_text_is_not_split_into_lines(monkeypatch):
    def fail(*args):
        raise AssertionError("scanned a hint-free text")

    monkeypatch.setattr(script_resolver, "command_lines", fail)
    monkeypatch.setattr(script_resolver, "shell_line", fail)
    monkeypatch.setattr(script_resolver, "_line_actions", fail)
    warnings = []
    text = "flake8 .. && pytest -q\nmake lint | tee out.txt\n# docs\nx.c a.b .x"
    assert script_paths(text, warnings) == []
    assert warnings == []


@pytest.mark.parametrize(
    "text, expected",
    [
        (". env", ["env"]),
        ("a\u2028. env", ["env"]),
        ("a\x1c'.' env", ["env"]),
        ("a;. env", ["env"]),
        ("a && (. env)", ["env"]),
        ("a|.\tenv", ["env"]),
        ("ci/bash lint", ["lint"]),
        ("source env", ["env"]),
        ("run ./x", ["x"]),
        ("a.b env ; x.", []),
    ],
)
def test_reference_hints_cover_the_acceptance_rule(text, expected):
    assert script_paths(text) == expected == _uncached_paths(text, None)


def test_warnings_survive_a_first_sighting_without_a_list():
    script_resolver._memo_shell_line.cache_clear()
    text = "$D/x.sh && bash ../y.sh\nsh ../z.sh ; ./$W.sh"
    assert script_paths(text) == ["$D/x.sh", "$W.sh"]
    warnings = ["earlier"]
    assert script_paths(text, warnings) == ["$D/x.sh", "$W.sh"]
    assert script_resolver._memo_shell_line.cache_info().hits == 2
    assert warnings == [
        "earlier",
        "script reference with unresolved variable: $D/x.sh",
        "rejected script reference outside repository: ../y.sh",
        "rejected script reference outside repository: ../z.sh",
        "script reference with unresolved variable: ./$W.sh",
    ]


def test_shell_line_memo_is_bounded():
    memo = script_resolver._memo_shell_line
    memo.cache_clear()
    bound = script_resolver.LINE_MEMO_SIZE
    lines = [f"bash ci/$V{i}.sh" for i in range(bound + 100)]
    first = []
    for line in lines:
        warnings: list[str] = []
        first.append((script_paths(line, warnings), warnings))
    assert memo.cache_info().misses == len(lines)
    assert memo.cache_info().currsize == bound
    # The oldest lines were evicted; tokenizing them again gives the same events.
    for line, result in zip(lines[:200], first[:200]):
        warnings = []
        assert (script_paths(line, warnings), warnings) == result
        expected_warnings: list[str] = []
        assert _uncached_paths(line, expected_warnings) == result[0]
        assert expected_warnings == result[1]
    assert memo.cache_info().currsize == bound


def test_long_lines_skip_the_shell_line_memo():
    script_resolver._memo_shell_line.cache_clear()
    line = "bash ci/x.sh " + "-" * script_resolver.LINE_MEMO_MAX_CHARS
    assert script_paths(line) == ["ci/x.sh"]
    assert script_resolver._memo_shell_line.cache_info().currsize == 0
