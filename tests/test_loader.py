"""The YAML loader: libyaml events under PyYAML's Python composer.

`_TrackingLoader` takes its events from libyaml when PyYAML ships it and from
the pure-Python reader, scanner and parser otherwise.  The pure variant is
the oracle here: it is the same class statement executed with libyaml
reported missing.  The cases where libyaml reads a document differently are
pinned one by one below.
"""

import importlib.util
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
    _load_yaml,
    parse_config,
)
from tdmscan.script_resolver import MappingTree

from conftest import CORPUS_DIR, make_doc
from test_placement import _alias_fan_out

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

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
    assert yaml.parser.Parser in PURE._TrackingLoader.__mro__
    assert yaml.composer.Composer in PURE._TrackingLoader.__mro__


@needs_libyaml
def test_libyaml_events_under_the_python_composer():
    mro = config_model._TrackingLoader.__mro__
    assert yaml.cyaml.CParser in mro
    assert yaml.parser.Parser not in mro
    # Composer's methods override CParser's own composer.
    assert mro.index(yaml.composer.Composer) < mro.index(yaml.cyaml.CParser)
    assert config_model._TrackingLoader.compose_node is yaml.composer.Composer.compose_node


# --- differential: both base sets agree on safe_dump output -----------------

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
def _documents(draw):
    """(yaml text, expected duplicate-key count) from random nested data."""
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


@given(_documents())
@settings(max_examples=300, deadline=None)
def test_loader_matches_pure_python_loader(document):
    text, duplicates = document
    data, warnings = _load_yaml(text)
    assert (data, warnings) == PURE._load_yaml(text)
    assert len(warnings) == duplicates


def test_fixture_corpus_loads_identically():
    checked = 0
    for dirpath, _dirnames, filenames in os.walk(CORPUS_DIR):
        for filename in filenames:
            with open(os.path.join(dirpath, filename), encoding="utf-8") as handle:
                text = handle.read()
            assert _outcome(_load_yaml, text) == _outcome(PURE._load_yaml, text)
            checked += 1
    assert checked >= 39


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
