import copy
import hashlib
import importlib.util
import io
import json
import os
import sys
import types

import pytest
from hypothesis import example, given, settings, strategies as st

from tdmscan import ingest
from tdmscan.analyzer import analyze_document, scan_entries
from tdmscan.config_model import MalformedDocument, NotAPipeline
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
    load_manifest,
    materialize,
    parse_manifest,
    text_sha256,
)


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


class RefusingSession:
    def get(self, *args, **kwargs):
        raise AssertionError("network access attempted in local mode")


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
        doc, tree = materialize(entry, session=RefusingSession())
        assert doc.repo_slug == "a/b"
        assert "flake8" in tree.read("ci/lint.sh")

    def test_local_mode_never_touches_network(self, tmp_path):
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        doc, tree = materialize(entry, session=RefusingSession())
        tree.read("ci/lint.sh")
        tree.read("nope.sh")

    def test_local_entry_builds_no_fetch_policy(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a local entry built a fetch policy")

        monkeypatch.setattr(ingest, "FetchPolicy", refuse)
        root = self.make_repo(tmp_path)
        entry = ManifestEntry("a/b", ".travis.yml", ("ci/lint.sh",), local_root=root)
        doc, tree = materialize(entry)
        assert doc.repo_slug == "a/b"
        assert "flake8" in tree.read("ci/lint.sh")

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
        assert result.message == "a/b: missing .travis.yml"


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
        real_lstat = os.lstat

        def stat_of_ten_bytes(path):
            fields = list(real_lstat(path))
            fields[6] = 10  # st_size
            return os.stat_result(fields)

        monkeypatch.setattr(os, "lstat", stat_of_ten_bytes)
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
                f"{base}/.travis.yml": [FakeResponse(200, "script: x\n")],
                f"{base}/ok.sh": [FakeResponse(200, "é" * (MAX_FILE_BYTES // 2))],
                f"{base}/big.sh": [FakeResponse(200, "é" * (MAX_FILE_BYTES // 2 + 1))],
            }
        )
        entry = ManifestEntry(
            "acme/demo", ".travis.yml", ("ok.sh", "big.sh"), remote_base_url=base
        )
        _, tree = materialize(entry, session=session, clock=FakeClock())
        assert len(tree.read("ok.sh")) == MAX_FILE_BYTES // 2
        with pytest.raises(FileTooLarge, match=self.CAP_MESSAGE):
            tree.read("big.sh")
        assert "big.sh" not in tree.digests

    def test_remote_config_over_the_cap_raises(self):
        base = "https://raw.example.org/acme/demo/main"
        body = self.padded("script: x\n", MAX_FILE_BYTES + 1)
        session = FakeSession({f"{base}/.travis.yml": [FakeResponse(200, body)]})
        entry = ManifestEntry("acme/demo", ".travis.yml", (), remote_base_url=base)
        with pytest.raises(FileTooLarge, match=self.CAP_MESSAGE):
            materialize(entry, session=session, clock=FakeClock())


class TestRemoteMaterialize:
    BASE = "https://raw.example.org/acme/demo/main"

    def entry(self, scripts=("ci/a.sh",)):
        return ManifestEntry(
            "acme/demo", ".travis.yml", tuple(scripts), remote_base_url=self.BASE
        )

    def test_remote_fetch_and_provenance(self):
        session = FakeSession(
            {
                f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: ./ci/a.sh\n")],
                f"{self.BASE}/ci/a.sh": [FakeResponse(200, "flake8 .\n")],
            }
        )
        doc, tree = materialize(self.entry(), session=session, clock=FakeClock())
        assert "script" in doc.content
        assert tree.read("ci/a.sh") == "flake8 .\n"
        assert session.calls[-1][0] == f"{self.BASE}/ci/a.sh"
        assert tree.digests["ci/a.sh"] == hashlib.sha256(b"flake8 .\n").hexdigest()

    def test_missing_script_resolves_to_none(self):
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        )
        _, tree = materialize(self.entry(), session=session, clock=FakeClock())
        assert tree.read("ci/a.sh") is None

    def test_missing_config_raises_not_found(self):
        session = FakeSession({})
        with pytest.raises(NotFound):
            materialize(self.entry(), session=session, clock=FakeClock())

    def test_undeclared_script_not_fetched(self):
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        )
        _, tree = materialize(self.entry(scripts=()), session=session, clock=FakeClock())
        assert tree.read("ci/other.sh") is None
        assert len(session.calls) == 1  # config only

    def test_retry_budget_exhaustion(self):
        clock = FakeClock()
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(429)]}
        )
        policy = FetchPolicy(max_requests_per_hour=1000, retry_budget=2)
        with pytest.raises(RateLimited):
            materialize(self.entry(), policy=policy, session=session, clock=clock)

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
        doc, _ = materialize(self.entry(), session=session, clock=clock)
        assert doc.content == "script: x\n"
        assert clock.sleeps  # backed off once

    def test_non_transport_error_fails_the_entry_at_once(self, registry):
        clock = FakeClock()
        session = RaisingSession(TypeError("get() got an unexpected keyword"))
        result = scan_entries(
            [self.entry()],
            registry,
            policy=FetchPolicy(max_requests_per_hour=2),
            session=session,
            clock=clock,
        )
        assert len(session.calls) == 1
        assert clock.sleeps == []
        assert [(e.status, e.message) for e in result.entries] == [
            ("failed", "get() got an unexpected keyword")
        ]

    def test_transport_error_is_retried_until_rate_limited(self):
        clock = FakeClock()
        session = RaisingSession(ConnectionError("connection reset"))
        policy = FetchPolicy(max_requests_per_hour=1000, retry_budget=2)
        with pytest.raises(RateLimited):
            materialize(self.entry(), policy=policy, session=session, clock=clock)
        assert len(session.calls) == 3
        assert clock.sleeps == [2.0, 4.0]

    def test_auth_token_header_from_env(self, monkeypatch):
        monkeypatch.setenv("TDMSCAN_FETCH_TOKEN", "sekret")
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        )
        _, tree = materialize(self.entry(), session=session, clock=FakeClock())
        _, headers = session.calls[0]
        assert headers == {"Authorization": "token sekret"}
        # token never lands in the recorded digests
        assert "sekret" not in json.dumps(tree.digests)

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
        entry = ManifestEntry("acme/demo", ".travis.yml", (), remote_base_url=base)
        session = FakeSession({f"{base}/.travis.yml": [FakeResponse(200, "script: x\n")]})
        materialize(entry, session=session, clock=FakeClock())
        assert [sent for _, sent in session.calls] == [headers]


# Byte fragments of configs and scripts: valid and invalid UTF-8, a script
# reference and tool invocations, in any order.
_FRAGMENTS = st.sampled_from(
    [b"script:\n", b"  - flake8 .\n", b"  - ./ci/a.sh\n", b"pylint src\n",
     b"install: pip install bandit\n", b"caf\xe9", "\u00e9".encode(), b"\xff\xfe", b"\n"]
) | st.binary(max_size=12)
_FILE_BYTES = st.lists(_FRAGMENTS, max_size=8).map(b"".join)


class TestOneBytePath:
    """A remote read turns bytes into text, flag and digest as a local one
    does, stops downloading at the cap, and closes every response."""

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
        reads = []
        # Each analysis is cold, so the remote record is derived, not looked
        # up under the local read's digests.
        for entry in (local, remote):
            doc, tree = materialize(entry, session=session, clock=FakeClock())
            try:
                outcome = analyze_document(doc, tree, registry)
            except (NotAPipeline, MalformedDocument) as exc:
                outcome = (type(exc).__name__, str(exc))
            reads.append(
                (doc.content, doc.invalid_utf8, doc.sha256, tree.read("ci/a.sh"),
                 tree.digests, tree.undecodable, outcome)
            )
        assert reads[0] == reads[1]
        assert reads[1][2] == hashlib.sha256(config).hexdigest()

    def test_body_over_the_cap_stops_downloading(self):
        big = FakeResponse(200, b"x" * (3 * MAX_FILE_BYTES))
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")],
             f"{self.BASE}/big.sh": [big]}
        )
        entry = ManifestEntry("acme/demo", ".travis.yml", ("big.sh",), remote_base_url=self.BASE)
        _, tree = materialize(entry, session=session, clock=FakeClock())
        with pytest.raises(FileTooLarge):
            tree.read("big.sh")
        served = session.served[-1]
        assert MAX_FILE_BYTES < served.drawn <= MAX_FILE_BYTES + FETCH_CHUNK_BYTES
        assert served.closed

    def test_every_response_is_closed(self):
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
        _, tree = materialize(entry, session=session, clock=clock)
        assert tree.read("missing.sh") is None
        with pytest.raises(FileTooLarge):
            tree.read("big.sh")
        assert [r.status_code for r in session.served] == [503, 200, 404, 200]
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
        entry = ManifestEntry("acme/demo", ".travis.yml", (), remote_base_url=self.BASE)
        doc, _ = materialize(entry, session=session, clock=clock)
        assert doc.content == body
        assert clock.sleeps == [2.0]
        assert len(session.calls) == 2
        assert all(r.closed for r in session.served)

    def test_each_read_fetches_and_escapes_are_never_fetched(self):
        session = FakeSession(
            {f"{self.BASE}/.travis.yml": [FakeResponse(200, "script: x\n")],
             f"{self.BASE}/a.sh": [FakeResponse(200, "pylint src\n")]}
        )
        _, tree = materialize(
            ManifestEntry("acme/demo", ".travis.yml", None, remote_base_url=self.BASE),
            session=session,
            clock=FakeClock(),
        )
        assert tree.read("a.sh") == tree.read("a.sh") == "pylint src\n"
        assert tree.read("../a.sh") is None
        assert tree.read("/a.sh") is None
        assert [url for url, _ in session.calls] == [
            f"{self.BASE}/.travis.yml", f"{self.BASE}/a.sh", f"{self.BASE}/a.sh"
        ]


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

    def test_rate_limit_applies_across_five_files(self):
        clock = FakeClock()
        base = "https://raw.example.org/r/main"
        responses = {f"{base}/.travis.yml": [FakeResponse(200, "script: x\n")]}
        scripts = tuple(f"s{i}.sh" for i in range(4))
        for script in scripts:
            responses[f"{base}/{script}"] = [FakeResponse(200, "ok\n")]
        session = FakeSession(responses)
        entry = ManifestEntry("r", ".travis.yml", scripts, remote_base_url=base)
        policy = FetchPolicy(max_requests_per_hour=2)
        _, tree = materialize(entry, policy=policy, session=session, clock=clock)
        for script in scripts:
            tree.read(script)
        # 5 requests on a 2/hour budget: burst of 2, then 1800 s spacing
        assert clock.time == pytest.approx(3 * 1800.0)

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            FetchPolicy(max_requests_per_hour=0)


class TestRemoteScan:
    def test_two_workers_fetch_through_the_callers_session(self, monkeypatch, registry):
        # Remote entries run on threads in this process, so the caller's
        # session sees every request and the entries share one rate limit.
        # A scan that dropped the session would open a default one; make
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
        result = scan_entries(
            entries,
            registry,
            policy=FetchPolicy(max_requests_per_hour=2),
            session=session,
            clock=clock,
            workers=2,
        )
        assert [(e.slug, e.status) for e in result.entries] == [
            ("acme/a", "ok"),
            ("acme/b", "ok"),
        ]
        assert sorted(url for url, _ in session.calls) == sorted(session.responses)
        assert sorted(result.report.tool_table) == ["flake8", "pylint"]
        # 3 requests on one 2/hour budget: the third waits 1800 s.  Separate
        # budgets per entry would never wait.
        assert clock.time == pytest.approx(1800.0)
