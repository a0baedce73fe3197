"""The YAML loader: one pass from parse events to Python values.

`_load_yaml` takes its events from libyaml when PyYAML ships it and from the
pure-Python reader, scanner and parser otherwise.  PyYAML's own safe loader
over the same event source is the oracle for the values it builds; the pure
variant is `config_model` executed afresh with libyaml reported missing.
The cases where libyaml reads a document differently are pinned one by one
below.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tdmscan import config_model, shipped_registry
from tdmscan.analyzer import analyze_document, scan_entries
from tdmscan.cli import _entries_from_directory
from tdmscan.config_model import (
    MalformedDocument,
    NotAPipeline,
    PipelineConfig,
    _load_yaml,
    parse_config,
)

from conftest import CORPUS_DIR, EXAMPLE_CONFIG, MappingTree, make_doc
from test_placement import _alias_fan_out

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
SAFE_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

needs_libyaml = pytest.mark.skipif(
    not yaml.__with_libyaml__, reason="PyYAML is built without libyaml"
)


def _pure_config_model():
    """A fresh copy of config_model whose loader uses the pure-Python parser."""
    spec = importlib.util.find_spec("tdmscan.config_model")
    module = importlib.util.module_from_spec(spec)
    with mock.patch.object(yaml, "__with_libyaml__", False):
        spec.loader.exec_module(module)
    return module


PURE = _pure_config_model()


def _outcome(load, text):
    try:
        return load(text)
    except yaml.YAMLError:
        return "YAMLError"


def test_pure_variant_uses_the_python_parser():
    assert yaml.parser.Parser in PURE._EventSource.__mro__
    assert PURE._EventSource is not getattr(yaml, "CParser", None)


@needs_libyaml
def test_libyaml_is_the_event_source():
    assert config_model._EventSource is yaml.cyaml.CParser


# --- differential: the loader against PyYAML's safe loader -------------------

_KEYS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False)
    | st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
)
_NESTED = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=20,
)


@st.composite
def _dumped_documents(draw):
    """(yaml text, expected duplicate-key count) from safe_dump of random data."""
    data = draw(st.dictionaries(_KEYS, _NESTED, min_size=1, max_size=5))
    if draw(st.booleans()):
        # The same object twice makes safe_dump emit an anchor and an alias.
        shared = draw(st.lists(_SCALARS, min_size=1, max_size=3))
        data["first"] = shared
        data["second"] = {"again": shared}
    flow = draw(st.booleans())
    dump_options = {
        "default_flow_style": flow,
        "allow_unicode": draw(st.booleans()),
        "width": 10**9,
    }
    text = yaml.safe_dump(data, **dump_options)
    duplicates = 0
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(data, key=repr)))
        extra = yaml.safe_dump({key: draw(_SCALARS)}, **dump_options)
        if flow:
            # "{a: 1}" + "{a: 2}" -> "{a: 1, a: 2}"
            text = text.rstrip()[:-1] + ", " + extra.strip()[1:] + "\n"
        else:
            text += extra
        duplicates = 1
    return text, duplicates


# Plain scalars that resolve to each implicit type, and scalars with an
# explicit tag; every one is valid for its tag.
_PLAIN = [
    "a", "flake8", "-x", "1", "-2", "0x1F", "0o17", "1_000", "1.5", "1:20",
    ".inf", "-.Inf", "yes", "No", "on", "null", "~", "true", "2001-12-14",
    "2001-12-14 21:59:43.10 -5",
]
_TAGGED = [
    "!!str 1", "!!str yes", "!!int '12'", "!!int 0x1F", "!!float 1",
    "!!float '-1.5e+3'", "!!bool yes", "!!bool 'off'", "!!null ''", "!!null x",
    "!!timestamp 2001-12-14", "!!timestamp '2001-12-14t21:59:43.10-05:00'",
    "!!binary aGVsbG8=",
]
_MAP_KEYS = ["a", "b", "c", "script", "'quoted'"]
_MERGEABLE = ("map", "set")


@st.composite
def _written_documents(draw):
    """(yaml text, expected duplicate-key count) of a block mapping whose
    values are flow nodes with anchors, aliases, merge keys and tags.

    An alias names an anchor of an earlier entry, never an open collection,
    and a document holds at most six aliases, so it stays far below the
    loader's node bound.
    """
    anchors = {}  # anchor name -> node kind
    aliases = 0
    duplicates = 0

    def scalar():
        choice = draw(st.sampled_from(["plain", "quoted", "tagged"]))
        if choice == "plain":
            return draw(st.sampled_from(_PLAIN))
        if choice == "quoted":
            chars = st.characters(blacklist_categories=("Cs", "Cc"))
            return json.dumps(draw(st.text(chars, max_size=6)), ensure_ascii=False)
        return draw(st.sampled_from(_TAGGED))

    def node(depth):
        """(flow text, kind) of one node."""
        nonlocal aliases, duplicates
        kinds = ["scalar"]
        if depth < 3:
            # Mostly mappings at the top, so that later entries can merge them.
            kinds += ["seq", "set", "omap"] + ["map"] * (4 if depth == 0 else 2)
        if anchors and aliases < 6:
            kinds.append("alias")
        kind = draw(st.sampled_from(kinds))
        if kind == "scalar":
            return scalar(), kind
        if kind == "alias":
            aliases += 1
            name = draw(st.sampled_from(sorted(anchors)))
            return f"*{name}", anchors[name]
        size = draw(st.integers(0, 3))
        if kind == "seq":
            tag = draw(st.sampled_from(["", "!!seq "]))
            items = [node(depth + 1)[0] for _ in range(size)]
            return f"{tag}[{', '.join(items)}]", kind
        if kind == "omap":
            tag = draw(st.sampled_from(["!!omap", "!!pairs"]))
            items = [
                f"{{{draw(st.sampled_from(_MAP_KEYS))}: {node(depth + 1)[0]}}}"
                for _ in range(size)
            ]
            return f"{tag} [{', '.join(items)}]", "seq"
        keys = [draw(st.sampled_from(_MAP_KEYS)) for _ in range(size)]
        duplicates += len(keys) - len(set(keys))
        if kind == "set":
            return f"!!set {{{', '.join(keys)}}}", kind
        pairs = [f"{key}: {node(depth + 1)[0]}" for key in keys]
        sources = sorted(name for name, kind in anchors.items() if kind in _MERGEABLE)
        if sources and aliases < 6 and draw(st.booleans()):
            merged = draw(st.lists(st.sampled_from(sources), min_size=1, max_size=3, unique=True))
            aliases += len(merged)
            value = ", ".join(f"*{name}" for name in merged)
            if len(merged) > 1 or draw(st.booleans()):
                value = f"[{value}]"
            pairs.insert(draw(st.integers(0, len(pairs))), f"<<: {value}")
        tag = draw(st.sampled_from(["", "!!map "]))
        return f"{tag}{{{', '.join(pairs)}}}", kind

    lines = []
    for index in range(draw(st.integers(1, 6))):
        text, kind = node(0)
        if not text.startswith("*") and draw(st.integers(0, 3)):
            anchors[f"a{index}"] = kind
            text = f"&a{index} {text}"
        lines.append(f"k{index}: {text}\n")
    return "".join(lines), duplicates


def _assert_same_shape(ours, theirs, seen_ours, seen_theirs):
    """Same types and key order throughout, and the same collections shared."""
    assert type(ours) is type(theirs)
    if not isinstance(ours, (dict, list, tuple, set)):
        return
    first_ours = seen_ours.setdefault(id(ours), len(seen_ours))
    first_theirs = seen_theirs.setdefault(id(theirs), len(seen_theirs))
    assert first_ours == first_theirs
    if first_ours < len(seen_ours) - 1:
        return  # seen before: shared the same way on both sides
    if isinstance(ours, dict):
        assert list(ours) == list(theirs)
        pairs = zip(ours.values(), theirs.values())
    elif isinstance(ours, set):
        return
    else:
        pairs = zip(ours, theirs)
    for mine, other in pairs:
        _assert_same_shape(mine, other, seen_ours, seen_theirs)


@given(st.one_of(_dumped_documents(), _written_documents()))
@settings(max_examples=400, deadline=None)
def test_loader_matches_safe_loader(document):
    text, duplicates = document
    try:
        expected = yaml.load(text, Loader=SAFE_LOADER)
    except yaml.YAMLError:
        with pytest.raises(yaml.YAMLError):
            _load_yaml(text)
        return
    data, warnings = _load_yaml(text)
    assert data == expected
    _assert_same_shape(data, expected, {}, {})
    assert len(warnings) == duplicates


def test_aliased_collections_are_shared():
    data, _ = _load_yaml("a: &l [1]\nb: &m {x: *l}\nc: [*l, *m]\nd: {<<: *m}\n")
    assert data["c"][0] is data["a"] and data["c"][1] is data["b"]
    assert data["b"]["x"] is data["a"]
    # Merging copies the merged mapping's entries, not the mapping.
    assert data["d"] == data["b"] and data["d"] is not data["b"]
    assert data["d"]["x"] is data["a"]


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a: &a {x: 1, y: 2}\nm: {<<: *a, y: 3}\n", {"x": 1, "y": 3}),
        (
            "a: &a {x: 1, y: 2}\nb: &b {y: 3, z: 4}\nm: {<<: [*a, *b], w: 0}\n",
            {"y": 2, "z": 4, "x": 1, "w": 0},
        ),
        (
            "a: &a {x: 1}\nb: &b {x: 5, q: 1}\nm: {<<: *a, k: 1, <<: *b}\n",
            {"x": 5, "q": 1, "k": 1},
        ),
        ("a: &s !!set {b, a}\nm: {<<: *s, c: 1}\n", {"b": None, "a": None, "c": 1}),
    ],
    ids=["one", "list", "two-keys", "set"],
)
def test_merge_key_order_and_overrides(text, expected):
    merged = _load_yaml(text)[0]["m"]
    assert merged == expected and list(merged) == list(expected)
    assert merged == yaml.load(text, Loader=SAFE_LOADER)["m"]


@pytest.mark.parametrize(
    "text",
    [
        "d: &d {script: a, install: i}\njobs: {include: [{<<: *d, script: b}]}\n",
        "a: &a {script: x}\nb: &b {script: y}\nm: {<<: [*a, *b]}\n",
        "a: &a {script: x, script: y}\nm: {<<: *a}\n",
    ],
    ids=["override", "merged-twice", "merged-duplicate"],
)
def test_merge_overrides_are_not_duplicate_keys(text):
    _, warnings = _load_yaml(text)
    duplicates_of_anchor = text.count("script: x, script: y")
    assert len(warnings) == duplicates_of_anchor


def test_explicit_keys_after_a_merge_still_warn():
    _, warnings = _load_yaml("a: &a {x: 1}\nm: {<<: *a, x: 2, x: 3}\n")
    assert warnings == ["duplicate key 'x': last occurrence wins"]


def test_nested_duplicates_warn_level_by_level():
    text = "a: {b: {c: 1, c: 2}, b: 3}\nd: {e: 1, e: 2}\nf: 1\nf: 2\n"
    assert _load_yaml(text)[1] == [
        "duplicate key 'f': last occurrence wins",
        "duplicate key 'b': last occurrence wins",
        "duplicate key 'e': last occurrence wins",
        "duplicate key 'c': last occurrence wins",
    ]


@pytest.mark.parametrize(
    "text",
    ["a: !!int x\n", "a: !!bool maybe\n", "a: !!timestamp x\n", "a: !!float ''\n"],
)
def test_rejected_tagged_scalar_is_malformed(text):
    with pytest.raises(yaml.constructor.ConstructorError):
        _load_yaml(text)
    with pytest.raises(MalformedDocument):
        parse_config(make_doc("script: flake8\n" + text))


@pytest.mark.parametrize(
    "text",
    [
        "? [a]\n: 1\n",
        "a: &l [1]\n? *l\n: 2\n",
        "!foo x",
        "!foo [a]",
        "!!str [a]",
        "!!set [a]",
        "!!omap {a: 1}",
        "!!omap [{a: 1, b: 2}]",
        "a: =",
        "a: <<",
        "<<: 1",
        "<<: [*u]",
        "a: &x 1\nb: &x 2\n",
        "a: 1\n---\nb: 2\n",
    ],
)
def test_yaml_errors_stay_errors(text):
    with pytest.raises(yaml.YAMLError):
        yaml.load(text, Loader=SAFE_LOADER)
    with pytest.raises(yaml.YAMLError):
        _load_yaml(text)


@pytest.mark.parametrize("text", ["", "# comment only\n", "---\n"])
def test_empty_document_is_none(text):
    assert _load_yaml(text) == (None, [])


def test_fixture_corpus_loads_identically():
    checked = 0
    for dirpath, _dirnames, filenames in os.walk(CORPUS_DIR):
        for filename in filenames:
            with open(os.path.join(dirpath, filename), encoding="utf-8") as handle:
                text = handle.read()
            assert _outcome(_load_yaml, text) == _outcome(PURE._load_yaml, text)
            checked += 1
    assert checked >= 39


# --- fuzz: parse_config ends in a typed outcome --------------------------------

_FUZZ_ALPHABET = "&*!<>|[]{}:,-#'\"\t\n\ufeff abcdefghijklmnopqrstuvwxyzABCXYZ"
# Keys and indicators too, so that some texts reach the pipeline model.
_FUZZ_WORDS = [
    "script: ", "jobs: ", "matrix: ", "include: ", "stages: ", "stage: ",
    "deploy: ", "language: ", "notifications: ", "email: ", "branches: ",
    "only: ", "allow_failures: ", "<<: ", "? ", "[a]: ", "{b: c}: ", "\n  ",
    "\n- ", "!!set ", "!!omap ", "&a ", "*a",
]
_FUZZ_TEXT = st.lists(
    st.sampled_from(_FUZZ_ALPHABET) | st.sampled_from(_FUZZ_WORDS + ["flake8"] * 4),
    max_size=60,
).map("".join)
_FUZZ_BASES = [
    EXAMPLE_CONFIG,
    "defaults: &d {script: [flake8, pylint], install: pip install tox}\n"
    "jobs:\n  include:\n    - <<: *d\n      stage: lint\n    - {<<: [*d], deploy: {script: tox}}\n",
]


@st.composite
def _edited_configs(draw):
    """A valid config with a few spans replaced by fuzz text."""
    text = draw(st.sampled_from(_FUZZ_BASES))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        text = text[:start] + draw(_FUZZ_TEXT.map(lambda fuzz: fuzz[:6])) + text[end:]
    return text


@given(_FUZZ_TEXT | _edited_configs())
@settings(max_examples=400, deadline=None)
def test_parse_config_ends_in_a_typed_outcome(text):
    start = time.process_time()
    try:
        assert isinstance(parse_config(make_doc(text)), PipelineConfig)
    except (NotAPipeline, MalformedDocument):
        pass
    assert time.process_time() - start < 1.0


# --- where libyaml reads differently (deliberate) ---------------------------


@needs_libyaml
class TestDivergences:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("language: python\t\n", {"language": "python"}),
            ("script: [a]\t\n", {"script": ["a"]}),
        ],
    )
    def test_tab_as_separating_whitespace_parses(self, text, expected):
        assert _load_yaml(text)[0] == expected
        assert _outcome(PURE._load_yaml, text) == "YAMLError"

    def test_tab_fixing_block_scalar_indentation_is_malformed(self):
        text = "script: |\n  \techo\n"
        with pytest.raises(MalformedDocument):
            parse_config(make_doc(text))
        assert PURE._load_yaml(text)[0] == {"script": "\techo\n"}

    def test_empty_tag_loads_as_empty_string(self):
        assert _load_yaml("script: !\n")[0] == {"script": ""}
        assert PURE._load_yaml("script: !\n")[0] == {"script": None}

    def test_block_scalar_header_followed_by_comment_sign_parses(self):
        text = "script: >#\n  flake8\n"
        assert _load_yaml(text)[0] == {"script": "flake8\n"}
        assert _outcome(PURE._load_yaml, text) == "YAMLError"

    @pytest.mark.parametrize("line_break", ["\n", "\x85", " ", " "])
    def test_bom_after_a_line_break_is_skipped(self, line_break):
        text = f"language: python{line_break}﻿"
        assert _load_yaml(text)[0] == {"language": "python"}
        assert _outcome(PURE._load_yaml, text) == "YAMLError"

    def test_bom_starting_a_key_is_malformed(self):
        text = "language: python\n﻿script: flake8\n"
        with pytest.raises(MalformedDocument):
            parse_config(make_doc(text))
        assert PURE._load_yaml(text)[0] == {
            "language": "python",
            "﻿script": "flake8",
        }


# --- typed outcomes -----------------------------------------------------------


class TestLoneSurrogate:
    TEXT = "script: [a\ud800]"

    def test_parse_config_raises_malformed(self):
        with pytest.raises(MalformedDocument):
            parse_config(make_doc(self.TEXT))

    def test_analyze_document_raises_malformed(self, registry):
        # analyze_document's MalformedDocument makes the scan entry skipped.
        with pytest.raises(MalformedDocument):
            analyze_document(make_doc(self.TEXT), MappingTree({}), registry)


_DEEP_SCAN = """
import sys
from tdmscan.analyzer import scan_entries
from tdmscan.cli import _entries_from_directory
from tdmscan.registry import shipped_registry

result = scan_entries(_entries_from_directory(sys.argv[1]), shipped_registry())
print(result.entries[0].status)
"""


def test_deeply_nested_flow_list_ends_in_an_entry_outcome(tmp_path):
    depth = 100_000
    entry = tmp_path / "corpus" / "deep"
    entry.mkdir(parents=True)
    (entry / ".travis.yml").write_text("script: " + "[" * depth + "]" * depth)
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run(
        [sys.executable, "-c", _DEEP_SCAN, str(tmp_path / "corpus")],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    # A negative return code would mean the process died on a signal.
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "skipped"


# --- input bounds of the composer ---------------------------------------------


@pytest.mark.parametrize("module", [config_model, PURE], ids=["loader", "pure"])
def test_nesting_bound(module):
    depth = module._MAX_DEPTH
    assert module._load_yaml("[" * depth + "]" * depth)[0] is not None
    with pytest.raises(yaml.composer.ComposerError, match="nested over"):
        module._load_yaml("[" * (depth + 1) + "]" * (depth + 1))


def _scan_one(tmp_path, text):
    """Status and CPU seconds of a one-entry scan of `text`."""
    entry = tmp_path / "corpus" / "hostile"
    entry.mkdir(parents=True)
    (entry / ".travis.yml").write_text(text)
    start = time.process_time()
    result = scan_entries(
        _entries_from_directory(str(tmp_path / "corpus")), shipped_registry()
    )
    return result.entries[0].status, time.process_time() - start


@pytest.mark.parametrize("depth", [5, 6, 7])
def test_alias_fan_out_beyond_the_node_bound_is_skipped(tmp_path, depth):
    status, seconds = _scan_one(tmp_path, _alias_fan_out(depth))
    assert status == "skipped"
    assert seconds < 1.0


def test_alias_fan_out_within_the_node_bound_is_ok(tmp_path):
    assert _scan_one(tmp_path, _alias_fan_out(4))[0] == "ok"


@pytest.mark.parametrize(
    "text", ["m: &m {a: 1, <<: *m}\n", "l: &l [a, [b, *l]]\n"], ids=["merge", "list"]
)
def test_collection_nested_in_itself_is_skipped(tmp_path, text):
    assert _scan_one(tmp_path, "script: flake8\n" + text)[0] == "skipped"
