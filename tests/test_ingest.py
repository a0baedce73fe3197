import copy
import hashlib
import importlib.util
import io
import itertools
import json
import os
import shutil
import socket
import stat
import sys
import threading
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from tdmscan import ingest
from tdmscan.analytics import export_json
from tdmscan.analyzer import scan_entries
from tdmscan.ingest import (
    FETCH_CHUNK_BYTES,
    MAX_FILE_BYTES,
    DuplicateSlug,
    FetchPolicy,
    FileTooLarge,
    LocalTree,
    ManifestEntry,
    ManifestParseError,
    NotFound,
    RateLimited,
    RemoteTree,
    TokenBucket,
    escapes_repo,
    fetch_corpus,
    load_manifest,
    materialize,
    parse_manifest,
    text_sha256,
)

from conftest import CORPUS_DIR


class FakeClock:
    def __init__(self):
        self.time = 0.0
        self.sleeps = []

    def now(self):
        return self.time

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.time += seconds


class FakeResponse:
    """A streamed response.  iter_content hands out `body` (text is sent as
    UTF-8) chunk by chunk and counts the bytes drawn; `error`, if given, is
    raised after the first chunk.  Closing, directly or by leaving a `with`
    block, is recorded.  `headers` are carried but never read."""

    def __init__(self, status_code, body=b"", headers=None, error=None):
        self.status_code = status_code
        self.body = body.encode("utf-8") if isinstance(body, str) else body
        self.headers = headers or {}
        self.error = error
        self.drawn = 0
        self.closed = False

    def iter_content(self, chunk_size=1):
        for start in range(0, len(self.body), chunk_size):
            chunk = self.body[start : start + chunk_size]
            self.drawn += len(chunk)
            yield chunk
            if self.error is not None:
                raise self.error

    def close(self):
        self.closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


class FakeSession:
    def __init__(self, responses):
        # responses: url -> list of responses served in order (last repeats)
        self.responses = {url: list(items) for url, items in responses.items()}
        self.calls = []
        self.served = []  # a fresh copy of each response handed out

    def get(self, url, stream=False, timeout=None, headers=None):
        assert stream, "bodies are streamed, never read whole"
        self.calls.append((url, headers or {}))
        items = self.responses.get(url)
        if not items:
            response = FakeResponse(404)
        else:
            response = copy.copy(items.pop(0) if len(items) > 1 else items[0])
        self.served.append(response)
        return response


class ServingSession:
    """Serves `files` (url -> bytes) with status 200, any other url with 404,
    building a fresh response per request with `respond(status, body)`."""

    def __init__(self, files, respond):
        self.files = files
        self.respond = respond
        self.calls = []

    def get(self, url, stream=False, timeout=None, headers=None):
        assert stream, "bodies are streamed, never read whole"
        self.calls.append(url)
        body = self.files.get(url)
        return self.respond(404, b"") if body is None else self.respond(200, body)


def requests_response(status, body, content_type):
    """A real `requests.Response` as `HTTPAdapter.build_response` builds it:
    its encoding taken from the headers, its body a raw byte stream."""
    requests = pytest.importorskip("requests")
    response = requests.Response()
    response.status_code = status
    response.headers = requests.structures.CaseInsensitiveDict(
        {"Content-Type": content_type}
    )
    response.encoding = requests.utils.get_encoding_from_headers(response.headers)
    response.raw = io.BytesIO(body)
    return response


class RaisingSession:
    """A session whose every request raises `error`."""

    def __init__(self, error):
        self.error = error
        self.calls = []

    def get(self, url, stream=False, timeout=None, headers=None):
        self.calls.append(url)
        raise self.error


def manifest_data(entries):
    return {"schema_version": 1, "created_at": "2026-01-05", "notes": "", "entries": entries}


class TestManifest:
    def test_three_entry_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                manifest_data(
                    [
                        {"repo_slug": f"acme/p{i}", "config_path": ".travis.yml",
                         "script_paths": [], "local_root": str(tmp_path)}
                        for i in range(3)
                    ]
                )
            )
        )
        manifest = load_manifest(str(path))
        assert len(manifest.entries) == 3

    def test_duplicate_slug(self):
        entry = {"repo_slug": "a/b", "config_path": ".travis.yml",
                 "script_paths": [], "local_root": "/x"}
        with pytest.raises(DuplicateSlug):
            parse_manifest(manifest_data([entry, dict(entry)]))

    def test_mixed_local_and_remote_entries(self):
        manifest = parse_manifest(
            manifest_data(
                [
                    {"repo_slug": "a/local", "config_path": ".travis.yml",
                     "script_paths": [], "local_root": "/data/a"},
                    {"repo_slug": "a/remote", "config_path": ".travis.yml",
                     "script_paths": ["ci/x.sh"],
                     "remote_base_url": "https://raw.example.org/a/remote/main"},
                ]
            )
        )
        assert manifest.entries[0].is_local is True
        assert manifest.entries[1].is_local is False

    def test_entry_needs_exactly_one_source(self):
        bad = {"repo_slug": "a/b", "config_path": ".travis.yml", "script_paths": []}
        with pytest.raises(ManifestParseError):
            parse_manifest(manifest_data([bad]))

    def test_path_escape_rejected(self):
        bad = {"repo_slug": "a/b", "config_path": "../up.yml",
               "script_paths": [], "local_root": "/x"}
        with pytest.raises(ManifestParseError):
            parse_manifest(manifest_data([bad]))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("script_paths", "lint.sh"),  # not seven one-character paths
            ("script_paths", None),
            ("local_root", 5),
            ("local_root", ""),
            ("remote_base_url", ["x"]),
        ],
    )
    def test_malformed_field_rejected(self, field, value):
        bad = {"repo_slug": "a/b", "config_path": ".travis.yml",
               "script_paths": [], "local_root": "/x", field: value}
        if field == "remote_base_url":
            del bad["local_root"]
        with pytest.raises(ManifestParseError, match=rf"entries\[0\]\.{field}: "):
            parse_manifest(manifest_data([bad]))

    @pytest.mark.parametrize("version", [1, None], ids=["one", "absent"])
    def test_schema_version_one_or_absent_accepted(self, version):
        data = manifest_data([{"repo_slug": "a/b", "config_path": ".travis.yml",
                               "local_root": "/x"}])
        if version is None:
            del data["schema_version"]
        assert len(parse_manifest(data).entries) == 1

    @pytest.mark.parametrize("version", [2, "x", "1", None, True, 1.0, 0])
    def test_other_schema_version_rejected(self, version):
        data = manifest_data([{"repo_slug": "a/b", "config_path": ".travis.yml",
                               "local_root": "/x"}])
        data["schema_version"] = version
        with pytest.raises(ManifestParseError, match="^schema_version: "):
            parse_manifest(data)

    def test_not_json(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{nope")
        with pytest.raises(ManifestParseError):
            load_manifest(str(path))


class TestLocalMaterialize:
    def make_repo(self, tmp_path):
        root = tmp_path / "repo"
        (root / "ci").mkdir(parents=True)
        (root / ".travis.yml").write_text("language: python\nscript: ./ci/lint.sh\n")
        (root / "ci" / "lint.sh").write_text("flake8 .\n")
        return str(root)

    def test_local_entry(self, tmp_path):
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        doc, tree = materialize(entry)
        assert doc.repo_slug == "a/b"
        assert "flake8" in tree.read("ci/lint.sh")

    def test_local_mode_never_touches_network(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted in local mode")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setitem(sys.modules, "requests", None)  # importing it fails
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        doc, tree = materialize(entry)
        tree.read("ci/lint.sh")
        tree.read("nope.sh")

    def test_tree_restricted_to_declared_scripts(self, tmp_path):
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", (), local_root=root)
        _, tree = materialize(entry)
        assert tree.read("ci/lint.sh") is None

    def test_missing_config_is_not_found(self, tmp_path):
        entry = ManifestEntry("a/b", ".travis.yml", (), local_root=str(tmp_path))
        with pytest.raises(NotFound):
            materialize(entry)

    def test_provenance_digests_stable(self, tmp_path):
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        _, tree1 = materialize(entry)
        tree1.read("ci/lint.sh")
        _, tree2 = materialize(entry)
        tree2.read("ci/lint.sh")
        assert tree1.digests == tree2.digests
        assert sorted(tree1.digests) == [".travis.yml", "ci/lint.sh"]
        config = os.path.join(root, ".travis.yml")
        with open(config, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert tree1.digests[".travis.yml"] == digest

    def test_invalid_utf8_config_is_flagged(self, tmp_path):
        root = tmp_path / "repo"
        root.mkdir()
        raw = b"language: python\nscript: ok\xff\xfe\n"
        (root / ".travis.yml").write_bytes(raw)
        entry = ManifestEntry("a/b", ".travis.yml", (), local_root=str(root))
        doc, tree = materialize(entry)
        assert doc.invalid_utf8 is True
        assert isinstance(doc.content, str) and "\ufffd" in doc.content
        assert tree.undecodable == {".travis.yml"}
        # The digest is of the bytes on disk, not of the replaced text.
        assert tree.digests[".travis.yml"] == hashlib.sha256(raw).hexdigest()

    def test_valid_config_is_not_flagged(self, tmp_path):
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        doc, tree = materialize(entry)
        assert doc.invalid_utf8 is False
        assert tree.undecodable == set()

    def test_local_tree_rejects_escapes(self, tmp_path):
        tree = LocalTree(str(tmp_path))
        assert tree.read("../etc/passwd") is None
        assert tree.read("/etc/passwd") is None

    def test_symlink_out_of_the_root_is_unresolved(self, tmp_path, registry):
        root = self.make_repo(tmp_path)
        (tmp_path / "outside.sh").write_text("flake8 .\n")
        os.remove(os.path.join(root, "ci", "lint.sh"))
        os.symlink(tmp_path / "outside.sh", os.path.join(root, "ci", "lint.sh"))
        assert LocalTree(root).read("ci/lint.sh") is None
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        result = scan_entries([entry], registry).entries[0]
        assert result.status == "ok"
        assert result.warnings == ["unresolved script reference: ci/lint.sh"]

    def test_symlink_inside_the_root_is_read(self, tmp_path):
        root = self.make_repo(tmp_path)
        os.symlink("lint.sh", os.path.join(root, "ci", "alias.sh"))
        os.symlink(root, tmp_path / "linked-root")
        for tree_root in (root, str(tmp_path / "linked-root")):
            assert LocalTree(tree_root).read("ci/alias.sh") == "flake8 .\n"

    def test_linked_directory_out_of_the_root_is_unresolved(self, tmp_path, registry):
        root = self.make_repo(tmp_path)
        outside = tmp_path / "outside" / "dir"
        outside.mkdir(parents=True)
        (outside / "lint.sh").write_text("flake8 .\n")
        os.rename(os.path.join(root, "ci"), tmp_path / "old-ci")
        os.symlink("../outside/dir", os.path.join(root, "ci"))
        tree = LocalTree(root)
        assert tree.read("ci/lint.sh") is None
        assert tree.read("./ci/lint.sh") is None
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        result = scan_entries([entry], registry).entries[0]
        assert result.status == "ok"
        assert result.warnings == ["unresolved script reference: ci/lint.sh"]
        assert scan_entries([entry], registry).report.tool_table == {}

    def test_linked_directory_inside_the_root_is_read(self, tmp_path):
        root = self.make_repo(tmp_path)
        (tmp_path / "repo" / "tools").mkdir()
        os.symlink("../ci", os.path.join(root, "tools", "ci"))
        tree = LocalTree(root)
        assert tree.read("tools/ci/lint.sh") == "flake8 .\n"
        assert tree.read("ci/lint.sh") == "flake8 .\n"
        assert tree.read("tools/ci/missing.sh") is None

    def test_config_symlink_out_of_the_root_is_skipped(self, tmp_path, registry):
        root = tmp_path / "repo"
        root.mkdir()
        (tmp_path / "outside.yml").write_text("script: flake8 .\n")
        (root / ".travis.yml").symlink_to(tmp_path / "outside.yml")
        entry = ManifestEntry("a/b", ".travis.yml", (), local_root=str(root))
        result = scan_entries([entry], registry).entries[0]
        assert result.status == "skipped"
        assert result.message == "a/b: .travis.yml resolves outside the repository"

    @pytest.mark.parametrize(
        "layout, config, message",
        [
            ("absent", ".travis.yml", "missing .travis.yml"),
            ("dangling-link", ".travis.yml", "missing .travis.yml"),
            ("directory", ".travis.yml", ".travis.yml is not a regular file"),
            ("link-to-directory", ".travis.yml", ".travis.yml is not a regular file"),
            (
                "under-outside-link",
                "ci/.travis.yml",
                "ci/.travis.yml resolves outside the repository",
            ),
        ],
        ids=["absent", "dangling-link", "directory", "link-to-directory", "under-outside-link"],
    )
    def test_an_unread_config_is_skipped_saying_why(
        self, tmp_path, registry, layout, config, message
    ):
        root = tmp_path / "repo"
        root.mkdir()
        (tmp_path / "outside").mkdir()
        (tmp_path / "outside" / ".travis.yml").write_text("script: flake8 .\n")
        if layout == "dangling-link":
            (root / ".travis.yml").symlink_to("nowhere.yml")
        elif layout == "directory":
            (root / ".travis.yml").mkdir()
        elif layout == "link-to-directory":
            (root / "ci").mkdir()
            (root / ".travis.yml").symlink_to("ci")
        elif layout == "under-outside-link":
            (root / "ci").symlink_to(tmp_path / "outside")
        entry = ManifestEntry("a/b", config, (), local_root=str(root))
        (result,) = scan_entries([entry], registry).entries
        assert (result.status, result.message) == ("skipped", f"a/b: {message}")


def resolve_and_contain(root, path):
    """What reading `path` under `root` gives by the resolve rule alone:
    every link resolved, the path kept only inside the resolved root, and
    read only as a regular file.  The outcome is (text, digests,
    undecodable) or None, or the type of the exception raised."""
    if escapes_repo(path) or path.rsplit("/", 1)[-1] in ("", "."):
        return None  # outside the repository, or a directory by its name
    full = os.path.realpath(os.path.join(root, path))
    real_root = os.path.realpath(root)
    if os.path.commonpath([full, real_root]) != real_root:
        return None
    try:
        info = os.stat(full)
    except OSError:
        return None
    if not stat.S_ISREG(info.st_mode):
        return None
    if info.st_size > MAX_FILE_BYTES:
        return FileTooLarge
    with open(full, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8"), {path: hashlib.sha256(data).hexdigest()}, set()
    except UnicodeDecodeError:
        text = data.decode("utf-8", errors="replace")
        return text, {path: hashlib.sha256(data).hexdigest()}, {path}


def read_outcome(root, path):
    """`LocalTree(root).read(path)` in the terms of `resolve_and_contain`."""
    tree = LocalTree(root)
    try:
        text = tree.read(path)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)
    return None if text is None else (text, tree.digests, tree.undecodable)


_NAMES = ("a", "b", "c")
_PARTS = st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3)
# What sits at a path of a generated tree.  A link points inside the root
# (by a relative or an absolute target), outside it, or nowhere.
_NODES = st.one_of(
    st.tuples(st.just("file"), st.binary(max_size=24)),
    st.tuples(st.just("file"), st.sampled_from([b"ok\xff\xfe", "caf\xe9\n".encode()])),
    st.tuples(st.just("sized"), st.sampled_from([MAX_FILE_BYTES, MAX_FILE_BYTES + 1])),
    st.tuples(st.sampled_from(["dir", "fifo"])),
    st.tuples(st.sampled_from(["inside", "absolute", "outside", "dangling"]), _PARTS),
)
# Every path of one to three names, and paths that name no file.
_QUERIES = [
    "/".join(parts)
    for depth in (1, 2, 3)
    for parts in itertools.product(_NAMES, repeat=depth)
] + ["", ".", "./a", "a//b", "a/./b", "a/", "b/.", "missing/a"]


def _build_tree(base, nodes):
    """A root under `base` holding `nodes` ((path parts, node) pairs; one
    whose place is taken or whose parent cannot be made is left out), and a
    directory beside it in which `a` is a file and `b` and `c` are
    directories, to three levels."""
    root = base / "repo"
    root.mkdir()
    for depth in (0, 1, 2):
        for parts in itertools.product(("b", "c"), repeat=depth):
            directory = base.joinpath("outside", *parts)
            directory.mkdir(parents=True, exist_ok=True)
            (directory / "a").write_text("outside " + "/".join(parts))
    for parts, node in nodes:
        path = root.joinpath(*parts)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            if os.path.lexists(path):
                continue
        except OSError:
            continue
        kind = node[0]
        if kind == "file":
            path.write_bytes(node[1])
        elif kind == "sized":
            with open(path, "wb") as handle:
                handle.truncate(node[1])  # sparse: no bytes written
        elif kind == "dir":
            path.mkdir()
        elif kind == "fifo":
            os.mkfifo(path)
        elif kind == "inside":
            up = "/".join([".."] * (len(parts) - 1))
            os.symlink(os.path.join(up, *node[1]) if up else os.path.join(*node[1]), path)
        elif kind == "absolute":
            os.symlink(root.joinpath(*node[1]), path)
        elif kind == "outside":
            os.symlink(base.joinpath("outside", *node[1]), path)
        else:
            os.symlink(base / "nowhere", path)
    os.symlink(root, base / "linked-root")
    return root


class TestOneOpenPerFile:
    """Each local file is opened once, with no link followed; what a read
    gives is what the resolve rule alone gives."""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @settings(max_examples=60, deadline=None)
    @given(nodes=st.lists(st.tuples(_PARTS, _NODES), max_size=12))
    @example(nodes=[(["a"], ("inside", ["b"])), (["b", "a"], ("file", b"x"))])
    @example(nodes=[(["a"], ("outside", ["b"])), (["b"], ("inside", ["a", "a"]))])
    @example(nodes=[(["a", "b"], ("sized", MAX_FILE_BYTES + 1)), (["c"], ("fifo",))])
    @example(nodes=[(["a"], ("inside", ["a"])), (["b"], ("absolute", ["c"]))])
    def test_reads_as_the_resolve_rule(self, tmp_path_factory, nodes):
        base = tmp_path_factory.mktemp("tree")
        root = _build_tree(base, nodes)
        for tree_root in (str(root), str(base / "linked-root")):
            for path in _QUERIES:
                assert read_outcome(tree_root, path) == resolve_and_contain(
                    tree_root, path
                ), (tree_root, path)

    def test_without_no_follow_opens_every_read_resolves(self, tmp_path, monkeypatch):
        root = _build_tree(
            tmp_path,
            [
                (["a"], ("file", b"x")),
                (["b"], ("inside", ["c"])),
                (["c", "a"], ("file", b"\xff")),
                (["c", "b"], ("outside", ["a"])),
            ],
        )
        monkeypatch.setattr(ingest, "_WALKS", False)
        for path in _QUERIES:
            assert read_outcome(str(root), path) == resolve_and_contain(str(root), path)

    def test_a_file_that_cannot_be_opened_raises(self, tmp_path, monkeypatch):
        (tmp_path / "ci").mkdir()
        (tmp_path / "ci" / "lint.sh").write_text("flake8 .\n")
        real_open = os.open

        def refuse_the_script(path, flags, *args, **kwargs):
            if os.path.basename(path) == "lint.sh":
                raise PermissionError(13, "Permission denied", path)
            return real_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", refuse_the_script)
        with pytest.raises(PermissionError):
            LocalTree(str(tmp_path)).read("ci/lint.sh")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_config_is_skipped_without_blocking(self, tmp_path, registry):
        os.mkfifo(tmp_path / ".travis.yml")
        entry = ManifestEntry("a/b", ".travis.yml", (), local_root=str(tmp_path))
        results = []
        scan = threading.Thread(
            target=lambda: results.append(scan_entries([entry], registry)), daemon=True
        )
        scan.start()
        scan.join(timeout=10)
        assert not scan.is_alive(), "reading a FIFO blocked"
        (result,) = results[0].entries
        assert (result.status, result.message) == (
            "skipped",
            "a/b: .travis.yml is not a regular file",
        )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd") or not hasattr(os, "mkfifo"),
        reason="lists descriptors through Linux's /proc",
    )
    def test_a_scan_leaves_no_descriptor_open(self, tmp_path, registry):
        corpus = tmp_path / "corpus"
        shutil.copytree(CORPUS_DIR, corpus)
        big = corpus / "zz-big"
        (big / "ci" / "nested").mkdir(parents=True)
        (big / "ci" / "nested" / "ok.sh").write_text("pylint src\n")
        (big / ".travis.yml").write_text(
            "script: bash ci/big.sh && bash ci/dir.sh && bash ci/nested/ok.sh\n"
        )
        with open(big / "ci" / "big.sh", "wb") as handle:
            handle.truncate(MAX_FILE_BYTES + 1)
        (big / "ci" / "dir.sh").mkdir()
        linked = corpus / "zz-linked"
        (linked / "ci").mkdir(parents=True)
        (linked / "ci" / "lint.sh").write_text("flake8 .\n")
        (linked / "tools").symlink_to("ci")
        (linked / ".travis.yml").write_text("script: bash tools/lint.sh\n")
        (corpus / "zz-fifo").mkdir()
        os.mkfifo(corpus / "zz-fifo" / ".travis.yml")
        entries = [
            ManifestEntry(name, ".travis.yml", None, local_root=str(corpus / name))
            for name in sorted(os.listdir(corpus))
        ]
        before = sorted(os.listdir("/proc/self/fd"))
        results = {result.slug: result for result in scan_entries(entries, registry).entries}
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert len(results) == len(os.listdir(CORPUS_DIR)) + 3
        assert results["zz-big"].warnings[0].startswith("script not read: ci/big.sh is over")
        assert results["zz-linked"].status == "ok" and results["zz-linked"].warnings == []
        assert results["zz-fifo"].status == "skipped"


# Text with lone surrogates, which UTF-8 cannot encode strictly.
_TEXT = st.text(st.one_of(st.characters(), st.integers(0xD800, 0xDFFF).map(chr)))


class TestDigests:
    """Every digest equals hashlib's sha256 of the bytes, whichever module
    computes it."""

    @given(_TEXT)
    @example("\ud800")
    @example("caf\xe9 \U0001f600 \udfff")
    def test_text_digest_is_sha256_of_its_utf8(self, text):
        data = text.encode("utf-8", errors="surrogatepass")
        assert text_sha256(text) == hashlib.sha256(data).hexdigest()

    @settings(max_examples=50, deadline=None)
    @given(data=st.binary(max_size=4096))
    @example(data=b"\xff\xfe invalid")
    @example(data="\ud800".encode("utf-8", errors="surrogatepass"))
    def test_local_read_digest_is_sha256_of_its_bytes(self, tmp_path_factory, data):
        root = tmp_path_factory.mktemp("digest")
        (root / "f").write_bytes(data)
        tree = LocalTree(str(root))
        assert tree.read("f") is not None
        assert tree.digests["f"] == hashlib.sha256(data).hexdigest()

    def test_without_a_builtin_sha256_hashlib_is_used(self, monkeypatch):
        # A second copy of the module, loaded where neither built-in module
        # can be imported; tdmscan.ingest itself is left as it is.
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        spec = importlib.util.spec_from_file_location("tdmscan._ingest_copy", ingest.__file__)
        fallback = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, fallback)
        spec.loader.exec_module(fallback)
        assert fallback.sha256 is hashlib.sha256
        assert ingest.sha256 is not hashlib.sha256
        text = "caf\xe9 \udfff"
        assert fallback.text_sha256(text) == text_sha256(text)


class TestByteCap:
    CAP_MESSAGE = f"over the {MAX_FILE_BYTES}-byte cap"

    @staticmethod
    def padded(text, size):
        """`text` and a trailing comment line, `size` bytes in all."""
        return text + "#" * (size - len(text) - 1) + "\n"

    def scan_one(self, tmp_path, files, registry):
        root = tmp_path / "repo"
        for rel, text in files.items():
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
        entry = ManifestEntry(
            "a/b", ".travis.yml", tuple(sorted(set(files) - {".travis.yml"})),
            local_root=str(root),
        )
        return scan_entries([entry], registry).entries[0]

    def test_file_of_exactly_the_cap_is_read(self, tmp_path):
        text = self.padded("script: flake8\n", MAX_FILE_BYTES)
        (tmp_path / ".travis.yml").write_text(text)
        assert LocalTree(str(tmp_path)).read(".travis.yml") == text

    def test_file_over_the_cap_raises(self, tmp_path):
        (tmp_path / "big.sh").write_text("x" * (MAX_FILE_BYTES + 1))
        tree = LocalTree(str(tmp_path))
        with pytest.raises(FileTooLarge, match=self.CAP_MESSAGE):
            tree.read("big.sh")
        assert tree.digests == {}

    @pytest.mark.parametrize("size", [100, MAX_FILE_BYTES + 1])
    def test_file_grown_after_the_stat_is_read_to_the_cap(self, tmp_path, monkeypatch, size):
        (tmp_path / "grown.sh").write_text("x" * size)
        real_fstat = os.fstat

        def stat_of_ten_bytes(fd):
            fields = list(real_fstat(fd))
            fields[6] = 10  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "fstat", stat_of_ten_bytes)
        tree = LocalTree(str(tmp_path))
        if size > MAX_FILE_BYTES:
            with pytest.raises(FileTooLarge):
                tree.read("grown.sh")
        else:
            assert tree.read("grown.sh") == "x" * size

    def test_config_over_the_cap_is_skipped(self, tmp_path, registry):
        text = self.padded("script: flake8\n", MAX_FILE_BYTES + 1)
        result = self.scan_one(tmp_path, {".travis.yml": text}, registry)
        assert result.status == "skipped"
        assert result.message == f".travis.yml is {self.CAP_MESSAGE}"

    def test_script_over_the_cap_is_unresolved_with_a_warning(self, tmp_path, registry):
        files = {
            ".travis.yml": "script: bash ci/big.sh && bash ci/small.sh\n",
            "ci/big.sh": self.padded("flake8 .\n", MAX_FILE_BYTES + 1),
            "ci/small.sh": self.padded("pylint src\n", MAX_FILE_BYTES),
        }
        result = self.scan_one(tmp_path, files, registry)
        assert result.status == "ok"
        assert result.warnings == [
            f"script not read: ci/big.sh is {self.CAP_MESSAGE}",
            "unresolved script reference: ci/big.sh",
        ]

    def test_remote_body_over_the_cap(self):
        base = "https://raw.example.org/acme/demo/main"
        # Two-byte characters: the cap counts bytes, not characters.
        session = FakeSession(
            {
                f"{base}/ok.sh": [FakeResponse(200, "é" * (MAX_FILE_BYTES // 2))],
                f"{base}/big.sh": [FakeResponse(200, "é" * (MAX_FILE_BYTES // 2 + 1))],
            }
        )
        tree = remote_tree(base, session)
        assert len(tree.fetch("ok.sh")) == MAX_FILE_BYTES
        with pytest.raises(FileTooLarge, match=self.CAP_MESSAGE):
            tree.fetch("big.sh")

    def test_remote_config_over_the_cap_raises(self, tmp_path, registry):
        # The fetch records the cap; the copy lacks the config, so its scan
        # skips the entry as missing.
        base = "https://raw.example.org/acme/demo/main"
        body = self.padded("script: x\n", MAX_FILE_BYTES + 1)
        session = FakeSession({f"{base}/.travis.yml": [FakeResponse(200, body)]})
        with pytest.raises(FileTooLarge, match=self.CAP_MESSAGE):
            remote_tree(base, session).fetch(".travis.yml")
        entry = ManifestEntry("acme/demo", ".travis.yml", (), remote_base_url=base)
        manifest = fetch_corpus([entry], str(tmp_path), session=session, clock=FakeClock())
        (written,) = manifest["entries"]
        assert written["files"] == {".travis.yml": "over the cap"}
        assert not os.path.exists(os.path.join(written["local_root"], ".travis.yml"))
        result = scan_entries(load_manifest(str(tmp_path / "manifest.json")).entries, registry)
        assert [(e.status, e.message) for e in result.entries] == [
            ("skipped", "acme/demo: missing .travis.yml")
        ]


def remote_tree(base, session, policy=FetchPolicy(), clock=None):
    """A RemoteTree over `base` with a bucket of its own."""
    clock = clock or FakeClock()
    bucket = TokenBucket(policy.max_requests_per_hour, clock)
    return RemoteTree(base, policy, session, bucket, clock)


def sha(data):
    return hashlib.sha256(data).hexdigest()


class TestRemoteMaterialize:
    """RemoteTree.fetch and fetch_corpus: what is requested, retried and
    written for a remote entry."""

    BASE = "https://raw.example.org/acme/demo/main"

    def entry(self, scripts=("ci/a.sh",)):
        return ManifestEntry(
            "acme/demo", ".travis.yml", tuple(scripts), remote_base_url=self.BASE
        )

    def test_remote_fetch_and_provenance(self, tmp_path):
        session = FakeSession(
            {
                f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: ./ci/a.sh\n")],
                f"{self.BASE}/ci/a.sh": [FakeResponse(200, "flake8 .\n")],
            }
        )
        manifest = fetch_corpus(
            [self.entry()], str(tmp_path / "out"), session=session, clock=FakeClock()
        )
        root = str(tmp_path / "out" / "repos" / "acme%2Fdemo")
        assert manifest == {
            "schema_version": 1,
            "entries": [
                {
                    "repo_slug": "acme/demo",
                    "config_path": ".travis.yml",
                    "script_paths": ["ci/a.sh"],
                    "local_root": root,
                    "files": {
                        ".travis.yml": sha(b"script: ./ci/a.sh\n"),
                        "ci/a.sh": sha(b"flake8 .\n"),
                    },
                }
            ],
            "failed": {},
        }
        with open(tmp_path / "out" / "manifest.json") as handle:
            assert json.load(handle) == manifest
        assert (tmp_path / "out" / "repos" / "acme%2Fdemo" / "ci" / "a.sh").read_bytes() == (
            b"flake8 .\n"
        )
        assert [url for url, _ in session.calls] == [
            f"{self.BASE}/.travis.yml", f"{self.BASE}/ci/a.sh"
        ]
        doc, tree = materialize(load_manifest(str(tmp_path / "out" / "manifest.json")).entries[0])
        assert doc.sha256 == sha(b"script: ./ci/a.sh\n")
        assert tree.read("ci/a.sh") == "flake8 .\n"

    def test_missing_script_resolves_to_none(self, tmp_path):
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        )
        assert remote_tree(self.BASE, session).fetch("ci/a.sh") is None
        manifest = fetch_corpus([self.entry()], str(tmp_path), session=session, clock=FakeClock())
        (written,) = manifest["entries"]
        assert written["files"]["ci/a.sh"] == "missing"
        assert not os.path.exists(os.path.join(written["local_root"], "ci"))

    def test_missing_config_raises_not_found(self, tmp_path):
        manifest = fetch_corpus(
            [self.entry()], str(tmp_path), session=FakeSession({}), clock=FakeClock()
        )
        assert manifest["entries"][0]["files"] == {".travis.yml": "missing", "ci/a.sh": "missing"}
        with pytest.raises(NotFound, match="^acme/demo: missing .travis.yml$"):
            materialize(load_manifest(str(tmp_path / "manifest.json")).entries[0])

    def test_undeclared_script_not_fetched(self, tmp_path):
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: ./ci/other.sh\n")],
             f"{self.BASE}/ci/other.sh": [FakeResponse(200, "flake8\n")]}
        )
        manifest = fetch_corpus(
            [self.entry(scripts=())], str(tmp_path), session=session, clock=FakeClock()
        )
        assert list(manifest["entries"][0]["files"]) == [".travis.yml"]
        assert len(session.calls) == 1  # config only

    def test_retry_budget_exhaustion(self, tmp_path, capsys):
        clock = FakeClock()
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(429)]}
        )
        policy = FetchPolicy(max_requests_per_hour=1000, retry_budget=2)
        with pytest.raises(RateLimited):
            remote_tree(self.BASE, session, policy, clock).fetch(".travis.yml")
        manifest = fetch_corpus([self.entry()], str(tmp_path), policy, session, clock)
        assert manifest["entries"] == []
        assert manifest["failed"] == {
            "acme/demo": f"retry budget exhausted fetching {self.BASE}/.travis.yml"
        }

    def test_retry_then_success(self):
        clock = FakeClock()
        session = FakeSession(
            {
                f"{self.BASE}/.travis.yml": [
                    FakeResponse(500),
                    FakeResponse(200, "script: x\n"),
                ]
            }
        )
        assert remote_tree(self.BASE, session, clock=clock).fetch(".travis.yml") == b"script: x\n"
        assert clock.sleeps == [2.0]  # backed off once

    def test_non_transport_error_fails_the_entry_at_once(self, tmp_path):
        clock = FakeClock()
        session = RaisingSession(TypeError("get() got an unexpected keyword"))
        manifest = fetch_corpus(
            [self.entry()],
            str(tmp_path),
            policy=FetchPolicy(max_requests_per_hour=2),
            session=session,
            clock=clock,
        )
        assert len(session.calls) == 1
        assert clock.sleeps == []
        assert manifest["entries"] == []
        assert manifest["failed"] == {"acme/demo": "get() got an unexpected keyword"}

    def test_transport_error_is_retried_until_rate_limited(self):
        clock = FakeClock()
        session = RaisingSession(ConnectionError("connection reset"))
        policy = FetchPolicy(max_requests_per_hour=1000, retry_budget=2)
        with pytest.raises(RateLimited):
            remote_tree(self.BASE, session, policy, clock).fetch(".travis.yml")
        assert len(session.calls) == 3
        assert clock.sleeps == [2.0, 4.0]

    def test_auth_token_header_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TDMSCAN_FETCH_TOKEN", "sekret")
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        )
        fetch_corpus([self.entry()], str(tmp_path), session=session, clock=FakeClock())
        assert [headers for _, headers in session.calls] == [
            {"Authorization": "token sekret"}
        ] * 2
        # the token never lands in what is written
        for directory, _, names in os.walk(tmp_path):
            for name in names:
                with open(os.path.join(directory, name), "rb") as handle:
                    assert b"sekret" not in handle.read()

    @pytest.mark.parametrize(
        "base, headers",
        [
            ("http://raw.example.org/acme/demo/main", {}),
            ("HTTP://raw.example.org/acme/demo/main", {}),
            ("ftp://raw.example.org/acme/demo/main", {}),
            ("HTTPS://raw.example.org/acme/demo/main", {"Authorization": "token sekret"}),
        ],
    )
    def test_auth_token_goes_over_https_only(self, monkeypatch, base, headers):
        monkeypatch.setenv("TDMSCAN_FETCH_TOKEN", "sekret")
        session = FakeSession({f"{base}/.travis.yml": [FakeResponse(200, "script: x\n")]})
        remote_tree(base, session).fetch(".travis.yml")
        assert [sent for _, sent in session.calls] == [headers]


# Byte fragments of configs and scripts: valid and invalid UTF-8, a script
# reference and tool invocations, in any order.
_FRAGMENTS = st.sampled_from(
    [b"script:\n", b"  - flake8 .\n", b"  - ./ci/a.sh\n", b"pylint src\n",
     b"install: pip install bandit\n", b"caf\xe9", "\u00e9".encode(), b"\xff\xfe", b"\n"]
) | st.binary(max_size=12)
_FILE_BYTES = st.lists(_FRAGMENTS, max_size=8).map(b"".join)


def scan_outcome(entries, registry):
    """A scan's entry outcomes and report.json bytes."""
    result = scan_entries(entries, registry)
    outcomes = [(e.slug, e.status, e.message, e.warnings) for e in result.entries]
    return outcomes, export_json(result.report)


class TestOneBytePath:
    """A fetch writes the bytes served, whatever charset a response
    declares, stops downloading at the cap, and closes every response."""

    BASE = "https://raw.example.org/acme/demo/main"

    @pytest.mark.parametrize("real", [False, True], ids=["fake", "requests"])
    @pytest.mark.parametrize("content_type", ["text/plain", "text/plain; charset=utf-8"])
    @settings(max_examples=40, deadline=None)
    @given(config=_FILE_BYTES, script=_FILE_BYTES)
    @example(config=b"script: echo caf\xe9\n", script=b"")
    @example(config=b"script: ./ci/a.sh\n", script=b"flake8 \xff\n")
    def test_local_and_remote_reads_agree(
        self, tmp_path_factory, registry, real, content_type, config, script
    ):
        def respond(status, body):
            if real:
                return requests_response(status, body, content_type)
            return FakeResponse(status, body, headers={"Content-Type": content_type})

        root = tmp_path_factory.mktemp("same-bytes")
        (root / "ci").mkdir()
        (root / ".travis.yml").write_bytes(config)
        (root / "ci" / "a.sh").write_bytes(script)
        local = ManifestEntry("a/b", ".travis.yml", ("ci/a.sh",), local_root=str(root))
        remote = ManifestEntry("a/b", ".travis.yml", ("ci/a.sh",), remote_base_url=self.BASE)
        session = ServingSession(
            {f"{self.BASE}/.travis.yml": config, f"{self.BASE}/ci/a.sh": script}, respond
        )
        out = tmp_path_factory.mktemp("fetched")
        fetch_corpus([remote], str(out), session=session, clock=FakeClock())
        copy = out / "repos" / "a%2Fb"
        assert (copy / ".travis.yml").read_bytes() == config
        assert (copy / "ci" / "a.sh").read_bytes() == script
        fetched = load_manifest(str(out / "manifest.json")).entries
        assert scan_outcome(fetched, registry) == scan_outcome([local], registry)

    def test_body_over_the_cap_stops_downloading(self):
        big = FakeResponse(200, b"x" * (3 * MAX_FILE_BYTES))
        session = FakeSession({f"{self.BASE}/big.sh": [big]})
        with pytest.raises(FileTooLarge):
            remote_tree(self.BASE, session).fetch("big.sh")
        served = session.served[-1]
        assert MAX_FILE_BYTES < served.drawn <= MAX_FILE_BYTES + FETCH_CHUNK_BYTES
        assert served.closed

    def test_every_response_is_closed(self, tmp_path):
        clock = FakeClock()
        session = FakeSession(
            {
                f"{self.BASE}/.travis.yml": [FakeResponse(503), FakeResponse(200, "script: x\n")],
                f"{self.BASE}/big.sh": [FakeResponse(200, b"x" * (MAX_FILE_BYTES + 1))],
            }
        )
        entry = ManifestEntry(
            "acme/demo", ".travis.yml", ("big.sh", "missing.sh"), remote_base_url=self.BASE
        )
        manifest = fetch_corpus([entry], str(tmp_path), session=session, clock=clock)
        assert manifest["entries"][0]["files"] == {
            ".travis.yml": sha(b"script: x\n"),
            "big.sh": "over the cap",
            "missing.sh": "missing",
        }
        assert [r.status_code for r in session.served] == [503, 200, 200, 404]
        assert all(r.closed for r in session.served)

    def test_transport_error_mid_body_is_retried(self):
        clock = FakeClock()
        body = "script: flake8 .\n" * 5
        session = FakeSession(
            {
                f"{self.BASE}/.travis.yml": [
                    FakeResponse(200, body, error=ConnectionResetError("chunked body cut")),
                    FakeResponse(200, body),
                ]
            }
        )
        assert remote_tree(self.BASE, session, clock=clock).fetch(".travis.yml") == body.encode()
        assert clock.sleeps == [2.0]
        assert len(session.calls) == 2
        assert all(r.closed for r in session.served)

    def test_each_read_fetches_and_escapes_are_never_fetched(self):
        session = FakeSession({f"{self.BASE}/a.sh": [FakeResponse(200, "pylint src\n")]})
        tree = remote_tree(self.BASE, session)
        assert tree.fetch("a.sh") == tree.fetch("a.sh") == b"pylint src\n"
        assert tree.fetch("../a.sh") is None
        assert tree.fetch("/a.sh") is None
        assert [url for url, _ in session.calls] == [f"{self.BASE}/a.sh"] * 2


class TestTokenBucket:
    def test_burst_then_spacing(self):
        clock = FakeClock()
        bucket = TokenBucket(2, clock)
        bucket.acquire()
        bucket.acquire()
        assert clock.sleeps == []  # hourly budget of 2 allows a burst of 2
        bucket.acquire()
        assert clock.sleeps  # third request deferred
        assert clock.time == pytest.approx(1800.0)
        bucket.acquire()
        assert clock.time == pytest.approx(3600.0)

    def test_rate_limit_applies_across_five_files(self, tmp_path):
        clock = FakeClock()
        base = "https://raw.example.org/r/main"
        responses = {f"{base}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        scripts = tuple(f"s{i}.sh" for i in range(4))
        for script in scripts:
            responses[f"{base}/{script}"] = [FakeResponse(200, "ok\n")]
        session = FakeSession(responses)
        entry = ManifestEntry("r", ".travis.yml", scripts, remote_base_url=base)
        policy = FetchPolicy(max_requests_per_hour=2)
        fetch_corpus([entry], str(tmp_path), policy, session, clock)
        assert len(session.calls) == 5
        # 5 requests on a 2/hour budget: burst of 2, then 1800 s spacing
        assert clock.time == pytest.approx(3 * 1800.0)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            FetchPolicy(max_requests_per_hour=0)


class TestRemoteScan:
    def test_two_workers_fetch_through_the_callers_session(
        self, monkeypatch, registry, tmp_path
    ):
        # The fetch threads share the caller's session and one rate limit.
        # A fetch that dropped the session would open a default one; make
        # that fail at once instead of reaching the network.
        def no_default_session():
            raise AssertionError("the caller's session was not used")

        monkeypatch.setitem(
            sys.modules, "requests", types.SimpleNamespace(Session=no_default_session)
        )
        base_a = "https://raw.example.org/acme/a/main"
        base_b = "https://raw.example.org/acme/b/main"
        session = FakeSession(
            {
                f"{base_a}/.travis.yml": [FakeResponse(200, "script: flake8 .\n")],
                f"{base_b}/.travis.yml": [FakeResponse(200, "script: ./ci/lint.sh\n")],
                f"{base_b}/ci/lint.sh": [FakeResponse(200, "pylint src\n")],
            }
        )
        clock = FakeClock()
        entries = [
            ManifestEntry("acme/b", ".travis.yml", ("ci/lint.sh",), remote_base_url=base_b),
            ManifestEntry("acme/a", ".travis.yml", (), remote_base_url=base_a),
        ]
        manifest = fetch_corpus(
            entries,
            str(tmp_path),
            policy=FetchPolicy(max_requests_per_hour=2),
            session=session,
            clock=clock,
            workers=2,
        )
        assert [e["repo_slug"] for e in manifest["entries"]] == ["acme/a", "acme/b"]
        assert sorted(url for url, _ in session.calls) == sorted(session.responses)
        # 3 requests on one 2/hour budget: the third waits 1800 s.  Separate
        # budgets per entry would never wait.
        assert clock.time == pytest.approx(1800.0)
        result = scan_entries(load_manifest(str(tmp_path / "manifest.json")).entries, registry)
        assert [(e.slug, e.status) for e in result.entries] == [
            ("acme/a", "ok"),
            ("acme/b", "ok"),
        ]
        assert sorted(result.report.tool_table) == ["flake8", "pylint"]

    def test_a_remote_entry_is_not_scanned(self, tmp_path, registry, monkeypatch):
        read = []
        monkeypatch.setattr(
            "tdmscan.analyzer.materialize", lambda entry: read.append(entry) or None
        )
        entries = [
            ManifestEntry("acme/a", ".travis.yml", (), local_root=str(tmp_path)),
            ManifestEntry("acme/b", ".travis.yml", (), remote_base_url="https://x.org/b"),
        ]
        with pytest.raises(ManifestParseError, match="^acme/b: .*`tdmscan fetch`"):
            scan_entries(entries, registry)
        assert read == []


class TestFetch:
    """Where `fetch_corpus` writes, and how a second run resumes the first."""

    @staticmethod
    def serve(slugs):
        """(entries, files) serving one config per slug, naming its slug."""
        entries, files = [], {}
        for index, slug in enumerate(slugs):
            base = f"https://raw.example.org/{index}"
            files[f"{base}/.travis.yml"] = f"script: flake8 {slug!r}\n".encode()
            files[f"{base}/ci/a.sh"] = f"pylint {index}\n".encode()
            entries.append(
                ManifestEntry(slug, ".travis.yml", ("ci/a.sh",), remote_base_url=base)
            )
        return entries, files

    def test_slugs_write_nothing_outside_the_directory(self, tmp_path):
        slugs = ["..", ".", "", "../x", "a/../../b", "/abs", "acme", "acme/demo", "%2E%2E"]
        entries, files = self.serve(slugs)
        session = ServingSession(files, FakeResponse)
        out = tmp_path / "deep" / "out"
        manifest = fetch_corpus(entries, str(out), session=session, clock=FakeClock())
        refused = {"..", ".", ""}
        assert sorted(manifest["failed"]) == sorted(refused)
        assert all("cannot name a directory" in m for m in manifest["failed"].values())
        # Nothing was requested for a refused slug.
        assert len(session.calls) == 2 * (len(slugs) - len(refused))
        written = {}
        for directory, _, names in os.walk(tmp_path):
            for name in names:
                path = os.path.join(directory, name)
                with open(path, "rb") as handle:
                    written[os.path.relpath(path, out)] = handle.read()
        roots = {}
        for entry in manifest["entries"]:
            root = os.path.relpath(entry["local_root"], out)
            assert os.path.dirname(root) == "repos"
            roots[entry["repo_slug"]] = root
        assert len(set(roots.values())) == len(roots) == len(slugs) - len(refused)
        # Every file written is the manifest or a file of exactly one entry,
        # holding what that entry's base served.
        expected = {"manifest.json"}
        for index, slug in enumerate(slugs):
            if slug in refused:
                continue
            for path in (".travis.yml", "ci/a.sh"):
                name = os.path.join(roots[slug], path)
                assert written[name] == files[f"https://raw.example.org/{index}/{path}"]
                expected.add(name)
        assert set(written) == expected

    @staticmethod
    def relative(manifest, out):
        for entry in manifest["entries"]:
            entry["local_root"] = os.path.relpath(entry["local_root"], out)
        return manifest

    @pytest.mark.parametrize("interrupt", [RuntimeError, KeyboardInterrupt])
    @pytest.mark.parametrize("k", [0, 1, 4, 7])
    def test_an_interrupted_fetch_resumes(self, tmp_path, k, interrupt):
        entries, files = self.serve(["acme/a", "acme/b", "acme/c", "acme/d"])
        # acme/c lists a script the server lacks; it is asked for every run.
        del files["https://raw.example.org/2/ci/a.sh"]

        class Interrupted(ServingSession):
            def get(self, url, **kwargs):
                if len(self.calls) >= k:
                    raise interrupt("connection dropped")
                return super().get(url, **kwargs)

        whole = tmp_path / "whole"
        expected = fetch_corpus(
            entries, str(whole), session=ServingSession(files, FakeResponse), clock=FakeClock()
        )
        out = tmp_path / "out"
        first = Interrupted(files, FakeResponse)
        if interrupt is KeyboardInterrupt:
            with pytest.raises(KeyboardInterrupt):
                fetch_corpus(entries, str(out), session=first, clock=FakeClock())
            assert not (out / "manifest.json").exists()
        else:
            manifest = fetch_corpus(entries, str(out), session=first, clock=FakeClock())
            assert len(manifest["entries"]) + len(manifest["failed"]) == 4
            assert manifest["failed"] or k >= 7
        kept = {url for url in first.calls[:k] if url in files}
        second = ServingSession(files, FakeResponse)
        resumed = fetch_corpus(entries, str(out), session=second, clock=FakeClock())
        assert not kept & set(second.calls)
        assert sorted(second.calls) == sorted(
            set(files) - kept | {"https://raw.example.org/2/ci/a.sh"}
        )
        assert not [p for p in out.rglob("*") if p.name.endswith(".part")]
        assert json.loads((out / "manifest.json").read_text()) == resumed
        assert self.relative(resumed, out) == self.relative(expected, whole)

    def test_a_write_cut_short_is_fetched_again(self, tmp_path, monkeypatch):
        # A fetch stopped between writing a script and renaming it into
        # place leaves no file under the script's name, so the next run
        # requests it again rather than taking a partial copy as whole.
        entries, files = self.serve(["acme/a"])
        rename = os.replace

        def stop_at_the_script(source, target):
            if target.endswith("a.sh"):
                raise KeyboardInterrupt
            rename(source, target)

        monkeypatch.setattr(os, "replace", stop_at_the_script)
        out = tmp_path / "out"
        with pytest.raises(KeyboardInterrupt):
            fetch_corpus(
                entries, str(out), session=ServingSession(files, FakeResponse), clock=FakeClock()
            )
        monkeypatch.undo()
        copy = out / "repos" / "acme%2Fa"
        assert (copy / ".travis.yml").exists()
        assert not (copy / "ci" / "a.sh").exists()
        second = ServingSession(files, FakeResponse)
        fetch_corpus(entries, str(out), session=second, clock=FakeClock())
        assert second.calls == ["https://raw.example.org/0/ci/a.sh"]
        assert (copy / "ci" / "a.sh").read_bytes() == files["https://raw.example.org/0/ci/a.sh"]
        assert not [p for p in out.rglob("*") if p.name.endswith(".part")]
