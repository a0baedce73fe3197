"""Corpus inputs: local directory layouts, JSON manifests, and an optional
rate-limited HTTP fetcher for raw config/script files.

A manifest is the interchange point with whatever large-scale harvesting
produced the corpus; each entry names one pipeline (repo slug, config path,
script paths) sourced either from a local root or a remote raw-content base
URL.  Entry failures are isolated: one bad entry never aborts a run.  Both
trees turn the bytes they read into text and a digest through `file_text`.
"""

from __future__ import annotations

import json
import os
import stat
import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping, Protocol
from urllib.parse import urlsplit

from .config_model import RawDocument

# CPython's own sha256, where it exists: hashlib would map and initialize
# OpenSSL's libcrypto, about 3.5 MiB of resident memory per process, to hash
# files of a few KB.
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

MANIFEST_SCHEMA_VERSION = 1
AUTH_TOKEN_ENV = "TDMSCAN_FETCH_TOKEN"

# The largest config or script analyzed, in bytes: a larger config ends its
# entry `skipped`, a larger script stays unresolved.
MAX_FILE_BYTES = 1 << 20
FETCH_CHUNK_BYTES = 64 * 1024  # a remote body over the cap stops within one chunk


class ManifestParseError(ValueError):
    pass


class DuplicateSlug(ManifestParseError):
    pass


class NotFound(RuntimeError):
    """A required remote or local file does not exist."""


class RateLimited(RuntimeError):
    """The retry budget was exhausted on throttled responses."""


class FileTooLarge(ValueError):
    """A file holds more than MAX_FILE_BYTES bytes."""

    def __init__(self, path: str):
        super().__init__(f"{path} is over the {MAX_FILE_BYTES}-byte cap")


@dataclass(frozen=True)
class ManifestEntry:
    repo_slug: str
    config_path: str
    # The scripts the entry may read.  None is no allow-list: any file the
    # entry's tree reads, the config included.
    script_paths: tuple[str, ...] | None
    local_root: str | None = None
    remote_base_url: str | None = None

    @property
    def is_local(self) -> bool:
        return self.local_root is not None


@dataclass
class CorpusManifest:
    entries: list[ManifestEntry]
    created_at: str = ""
    notes: str = ""


@dataclass(frozen=True)
class FetchPolicy:
    """Limits for remote fetching; the auth token stays in the environment."""

    max_requests_per_hour: int = 3600
    retry_budget: int = 3
    timeout: float = 10.0

    def __post_init__(self):
        if self.max_requests_per_hour <= 0:
            raise ValueError("max_requests_per_hour must be > 0")


class Clock(Protocol):
    def now(self) -> float: ...

    def sleep(self, seconds: float) -> None: ...


class SystemClock:
    def now(self) -> float:
        return time.monotonic()

    def sleep(self, seconds: float) -> None:
        time.sleep(seconds)


class TokenBucket:
    """Thread-safe token bucket: capacity = hourly budget, steady refill."""

    def __init__(self, max_requests_per_hour: int, clock: Clock | None = None):
        if max_requests_per_hour <= 0:
            raise ValueError("max_requests_per_hour must be > 0")
        self._clock = clock or SystemClock()
        self._capacity = float(max_requests_per_hour)
        self._rate = max_requests_per_hour / 3600.0
        self._tokens = self._capacity
        self._updated = self._clock.now()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        """Block (via the injected clock) until one token is available."""
        while True:
            with self._lock:
                now = self._clock.now()
                self._tokens = min(
                    self._capacity, self._tokens + (now - self._updated) * self._rate
                )
                self._updated = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            self._clock.sleep(wait)


def escapes_repo(path: str) -> bool:
    """True when `path` is absolute or has a `..` segment: not repo-relative."""
    return path.startswith("/") or ".." in path.split("/")


def _validate_rel_path(path: str, where: str) -> str:
    if not isinstance(path, str) or not path:
        raise ManifestParseError(f"{where}: path must be a non-empty string")
    if escapes_repo(path):
        raise ManifestParseError(f"{where}: path must be repo-relative: {path!r}")
    return path


def parse_manifest(data: Mapping[str, Any]) -> CorpusManifest:
    if not isinstance(data, Mapping):
        raise ManifestParseError("manifest must be a JSON object")
    version = data.get("schema_version", MANIFEST_SCHEMA_VERSION)
    if type(version) is not int or version != MANIFEST_SCHEMA_VERSION:
        raise ManifestParseError(
            f"schema_version: {version!r} is not {MANIFEST_SCHEMA_VERSION}"
        )
    raw_entries = data.get("entries")
    if not isinstance(raw_entries, list):
        raise ManifestParseError("entries: missing or not a list")

    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    for i, raw in enumerate(raw_entries):
        where = f"entries[{i}]"
        if not isinstance(raw, Mapping):
            raise ManifestParseError(f"{where}: not an object")
        slug = raw.get("repo_slug")
        if not isinstance(slug, str) or not slug:
            raise ManifestParseError(f"{where}.repo_slug: missing")
        if slug in seen:
            raise DuplicateSlug(f"{where}.repo_slug: duplicate slug {slug!r}")
        seen.add(slug)
        config_path = _validate_rel_path(
            raw.get("config_path", ""), f"{where}.config_path"
        )
        raw_paths = raw.get("script_paths", [])
        if not isinstance(raw_paths, list):
            raise ManifestParseError(f"{where}.script_paths: not a list")
        script_paths = tuple(
            _validate_rel_path(p, f"{where}.script_paths[{j}]")
            for j, p in enumerate(raw_paths)
        )
        for name in ("local_root", "remote_base_url"):
            value = raw.get(name)
            if value is not None and (not isinstance(value, str) or not value):
                raise ManifestParseError(f"{where}.{name}: not a non-empty string")
        local_root = raw.get("local_root")
        remote_base_url = raw.get("remote_base_url")
        if (local_root is None) == (remote_base_url is None):
            raise ManifestParseError(
                f"{where}: exactly one of local_root / remote_base_url required"
            )
        entries.append(
            ManifestEntry(
                repo_slug=slug,
                config_path=config_path,
                script_paths=script_paths,
                local_root=local_root,
                remote_base_url=remote_base_url,
            )
        )
    return CorpusManifest(
        entries=entries,
        created_at=str(data.get("created_at", "")),
        notes=str(data.get("notes", "")),
    )


def load_manifest(path: str) -> CorpusManifest:
    """Load and validate a manifest file; duplicate slugs are rejected."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ManifestParseError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ManifestParseError(f"{path}: not valid JSON: {exc}") from exc
    return parse_manifest(data)


def text_sha256(content: str) -> str:
    """sha256 of `content` as UTF-8; a lone surrogate keeps its own bytes."""
    return sha256(content.encode("utf-8", errors="surrogatepass")).hexdigest()


def file_text(tree, path: str, data: bytes) -> str:
    """The text of `path`, read by `tree` as `data`; FileTooLarge over the cap.
    Invalid UTF-8 is replaced and marks `path` in ``tree.undecodable``, and
    ``tree.digests[path]`` takes the sha256 of `data`."""
    if len(data) > MAX_FILE_BYTES:
        raise FileTooLarge(path)
    try:
        content = data.decode("utf-8")
    except UnicodeDecodeError:
        content = data.decode("utf-8", errors="replace")
        tree.undecodable.add(path)
    tree.digests[path] = sha256(data).hexdigest()
    return content


class LocalTree:
    """File tree over a local directory; optionally limited to listed paths.

    Never touches the network.  Reads go through `file_text`, which records
    each file's digest in ``digests`` and marks invalid UTF-8 in
    ``undecodable``.  A file over MAX_FILE_BYTES raises FileTooLarge.  A path
    through a symlink, as its file or any directory on the way, is absent
    unless it resolves inside the root.
    """

    def __init__(self, root: str, allowed: frozenset[str] | None = None):
        self.root = root
        self.allowed = allowed
        self.digests: dict[str, str] = {}
        self.undecodable: set[str] = set()

    def _through_link(self, directory: str) -> bool:
        """Whether `directory` or any directory above it is a symlink."""
        while directory:
            if stat.S_ISLNK(os.lstat(os.path.join(self.root, directory)).st_mode):
                return True
            directory = os.path.dirname(directory)
        return False

    def read(self, path: str) -> str | None:
        if escapes_repo(path):
            return None
        if self.allowed is not None and path not in self.allowed:
            return None
        full = os.path.join(self.root, path)
        try:
            info = os.lstat(full)
            if self._through_link(os.path.dirname(path)) or stat.S_ISLNK(info.st_mode):
                full = os.path.realpath(full)
                root = os.path.realpath(self.root)
                if os.path.commonpath([full, root]) != root:
                    return None
                info = os.stat(full)
        except (OSError, ValueError):
            return None
        if not stat.S_ISREG(info.st_mode):
            return None
        if info.st_size > MAX_FILE_BYTES:
            raise FileTooLarge(path)
        # A read sized by the stat, not by the cap: reading up to the cap
        # would allocate 1 MiB for every file.
        with open(full, "rb") as handle:
            data = handle.read(info.st_size + 1)
            if len(data) > info.st_size:  # the file grew after the stat
                data += handle.read(MAX_FILE_BYTES + 1 - len(data))
        return file_text(self, path, data)


class RemoteTree:
    """Fetches raw files over HTTPS on every read, honoring a shared rate limit.

    Bodies are streamed, and go through `file_text` as LocalTree's bytes do;
    a response's charset is ignored, and a body stops downloading once past
    MAX_FILE_BYTES (FileTooLarge).  404 resolves to None; throttled or failing
    responses and transport errors, mid-body too, are retried within the
    policy's budget, then raise RateLimited.  Any other exception propagates
    at once.  Every response is closed.
    """

    def __init__(
        self,
        base_url: str,
        policy: FetchPolicy,
        session,
        bucket: TokenBucket,
        clock: Clock | None = None,
        allowed: frozenset[str] | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.policy = policy
        self.session = session
        self.bucket = bucket
        self.clock = clock or SystemClock()
        self.allowed = allowed
        self.digests: dict[str, str] = {}
        self.undecodable: set[str] = set()

    def _headers(self) -> dict[str, str]:
        # The token goes over HTTPS only: over plain HTTP anyone on the path
        # could read it.  The host is not checked.
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token and urlsplit(self.base_url).scheme == "https":
            return {"Authorization": f"token {token}"}
        return {}

    def read(self, path: str) -> str | None:
        if escapes_repo(path):
            return None
        if self.allowed is not None and path not in self.allowed:
            return None
        data = self._fetch(path)
        return None if data is None else file_text(self, path, data)

    def _fetch(self, path: str) -> bytes | None:
        """The body of `path` as served with status 200, or None on 404."""
        url = f"{self.base_url}/{path}"
        attempts = 0
        while True:
            self.bucket.acquire()
            attempts += 1
            # Only transport errors are retried (requests' exceptions are
            # OSErrors); anything else fails the entry with its own message.
            try:
                with self.session.get(
                    url, stream=True, timeout=self.policy.timeout, headers=self._headers()
                ) as response:
                    if response.status_code == 404:
                        return None
                    if response.status_code == 200:
                        data = bytearray()
                        for chunk in response.iter_content(FETCH_CHUNK_BYTES):
                            data += chunk
                            if len(data) > MAX_FILE_BYTES:
                                raise FileTooLarge(path)
                        return bytes(data)
            except OSError:
                pass
            if attempts > self.policy.retry_budget:
                raise RateLimited(f"retry budget exhausted fetching {url}")
            # Linear backoff keeps the injected clock easy to reason about.
            self.clock.sleep(min(2.0 * attempts, 30.0))


def materialize(
    entry: ManifestEntry,
    policy: FetchPolicy | None = None,
    session=None,
    clock: Clock | None = None,
    bucket: TokenBucket | None = None,
):
    """Produce (RawDocument, tree) for one manifest entry.

    Local entries never touch the network.  The config is read first
    (missing -> NotFound, over MAX_FILE_BYTES -> FileTooLarge; either way the
    entry is skippable), then the tree reads only declared script paths, a
    remote one fetching each when read.  `script_paths` None sets no
    allow-list; only directory enumeration and `tdmscan analyze` build such.
    """
    if entry.is_local:
        tree = LocalTree(entry.local_root)
    else:
        policy = policy or FetchPolicy()
        if session is None:
            import requests

            session = requests.Session()
        if bucket is None:
            bucket = TokenBucket(policy.max_requests_per_hour, clock)
        tree = RemoteTree(entry.remote_base_url, policy, session, bucket, clock)
    # config read first (unrestricted), then restrict reads to scripts
    content = tree.read(entry.config_path)
    if content is None:
        raise NotFound(f"{entry.repo_slug}: missing {entry.config_path}")
    if entry.script_paths is not None:
        tree.allowed = frozenset(entry.script_paths)
    doc = RawDocument(
        entry.repo_slug,
        entry.config_path,
        content,
        invalid_utf8=entry.config_path in tree.undecodable,
        sha256=tree.digests[entry.config_path],
    )
    return doc, tree
