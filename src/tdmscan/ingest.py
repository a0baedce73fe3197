"""Corpus inputs: local directory layouts, JSON manifests, and a
rate-limited HTTP fetcher that copies remote entries' raw files to disk.

A manifest is the interchange point with whatever large-scale harvesting
produced the corpus; each entry names one pipeline (repo slug, config path,
script paths) sourced either from a local root or a remote raw-content base
URL.  A scan reads local entries only: `fetch_corpus` first copies each
remote entry's config and listed scripts into a directory and writes a
manifest of local entries naming the copies.  Entry failures are isolated:
one bad entry never aborts a run.
"""

from __future__ import annotations

import json
import os
import stat
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Mapping, Protocol
from urllib.parse import quote, urlsplit

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

# Why a LocalTree read a path as None, as its ``unread`` records it; a path
# it records no reason for is missing.
_NOT_A_FILE = "is not a regular file"
_OUTSIDE = "resolves outside the repository"


class ManifestParseError(ValueError):
    pass


class DuplicateSlug(ManifestParseError):
    pass


class NotFound(RuntimeError):
    """A local entry's config is missing, not a regular file or outside the
    repository."""


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


# Where `os` opens without following a link and relative to a directory
# descriptor, LocalTree walks each path that way; elsewhere every read takes
# the resolve rule.
_NOFOLLOW = getattr(os, "O_NOFOLLOW", 0)
_WALKS = bool(_NOFOLLOW) and hasattr(os, "O_DIRECTORY") and os.open in os.supports_dir_fd
_CLOEXEC = getattr(os, "O_CLOEXEC", 0)
# A directory is only the base of the next open, which O_PATH allows without
# read permission.
_DIRECTORY_FLAGS = (
    getattr(os, "O_PATH", os.O_RDONLY) | getattr(os, "O_DIRECTORY", 0) | _NOFOLLOW | _CLOEXEC
)
# A FIFO must not block the open, nor a terminal become the controlling one.
_FILE_FLAGS = (
    os.O_RDONLY
    | _NOFOLLOW
    | getattr(os, "O_NONBLOCK", 0)
    | getattr(os, "O_NOCTTY", 0)
    | _CLOEXEC
    | getattr(os, "O_BINARY", 0)
)


def _read_descriptor(fd: int, size: int) -> bytes:
    """The bytes of `fd`, whose stat gave `size`: up to one byte past `size`,
    then, if the file grew after the stat, up to one byte past the cap.  A
    read sized by the stat, not by the cap: reading up to the cap would
    allocate 1 MiB for every file."""
    limit = size + 1
    data = os.read(fd, limit)
    while len(data) != size:  # at the stat's size the file is whole
        if len(data) == limit:  # the file grew after the stat
            if limit > MAX_FILE_BYTES:
                break
            limit = MAX_FILE_BYTES + 1
        chunk = os.read(fd, limit - len(data))
        if not chunk:
            break
        data += chunk
    return data


class LocalTree:
    """File tree over a local directory; optionally limited to listed paths.

    Never touches the network.  Each file is opened once, without following
    a link, and that descriptor is both checked (a regular file, at most
    MAX_FILE_BYTES: over it raises FileTooLarge) and read, so the file
    checked is the file read.  A path through a symlink, as its file or any
    directory on the way, is read only if it resolves inside the root.
    Invalid UTF-8 is replaced and marks the path in ``undecodable``, and
    ``digests`` takes the sha256 of each file's bytes.  A path read as None
    because it is no regular file, or lies outside the root, gets that
    reason in ``unread``, from what its open or the resolve rule saw.
    """

    def __init__(self, root: str, allowed: frozenset[str] | None = None):
        self.root = root
        self.allowed = allowed
        self.digests: dict[str, str] = {}
        self.undecodable: set[str] = set()
        self.unread: dict[str, str] = {}

    def read(self, path: str) -> str | None:
        if escapes_repo(path):
            return None
        if self.allowed is not None and path not in self.allowed:
            return None
        fd = self._open(path)
        if fd is None:
            return None
        try:
            info = os.fstat(fd)
            if not stat.S_ISREG(info.st_mode):
                self.unread[path] = _NOT_A_FILE
                return None
            if info.st_size > MAX_FILE_BYTES:
                raise FileTooLarge(path)
            data = _read_descriptor(fd, info.st_size)
        finally:
            os.close(fd)
        if len(data) > MAX_FILE_BYTES:  # the file grew after the stat
            raise FileTooLarge(path)
        try:
            content = data.decode("utf-8")
        except UnicodeDecodeError:
            content = data.decode("utf-8", errors="replace")
            self.undecodable.add(path)
        self.digests[path] = sha256(data).hexdigest()
        return content

    def _open(self, path: str) -> int | None:
        """A descriptor of `path`, or None where it is absent.  Each
        directory on the way is opened relative to the one before it, and
        no link is followed below the root; a path that fails so, other than
        by being missing, takes the resolve rule."""
        *directories, name = path.split("/")
        if name in ("", "."):  # a directory
            return None
        if _WALKS:
            directories = [part for part in directories if part and part != "."]
            try:
                if not directories:
                    return os.open(os.path.join(self.root, name), _FILE_FLAGS)
                fd = os.open(os.path.join(self.root, directories[0]), _DIRECTORY_FLAGS)
                try:
                    for part in directories[1:]:
                        fd, parent = os.open(part, _DIRECTORY_FLAGS, dir_fd=fd), fd
                        os.close(parent)
                    return os.open(name, _FILE_FLAGS, dir_fd=fd)
                finally:
                    os.close(fd)
            except FileNotFoundError:
                return None
            except ValueError:  # a NUL or an unencodable character
                return None
            except OSError:
                # A link on the way: Linux gives ELOOP for the file but
                # ENOTDIR for a directory, so no errno is trusted here.
                pass
        return self._open_resolved(path)

    def _open_resolved(self, path: str) -> int | None:
        """The resolve rule: `path` with every link resolved, opened if it
        lies inside the root and is a regular file; None otherwise."""
        try:
            full = os.path.realpath(os.path.join(self.root, path))
            root = os.path.realpath(self.root)
            if os.path.commonpath([full, root]) != root:
                self.unread[path] = _OUTSIDE
                return None
            if not stat.S_ISREG(os.stat(full).st_mode):
                self.unread[path] = _NOT_A_FILE
                return None
        except (OSError, ValueError):
            return None
        return os.open(full, _FILE_FLAGS)


class RemoteTree:
    """Fetches raw files over HTTPS as bytes, honoring a shared rate limit.

    Bodies are streamed, a response's charset is ignored, and a body stops
    downloading once past MAX_FILE_BYTES (FileTooLarge).  404 resolves to
    None; throttled or failing responses and transport errors, mid-body too,
    are retried within the policy's budget, then raise RateLimited.  Any
    other exception propagates at once.  Every response is closed.
    """

    def __init__(
        self,
        base_url: str,
        policy: FetchPolicy,
        session,
        bucket: TokenBucket,
        clock: Clock | None = None,
    ):
        self.base_url = base_url.rstrip("/")
        self.policy = policy
        self.session = session
        self.bucket = bucket
        self.clock = clock or SystemClock()

    def _headers(self) -> dict[str, str]:
        # The token goes over HTTPS only: over plain HTTP anyone on the path
        # could read it.  The host is not checked.
        token = os.environ.get(AUTH_TOKEN_ENV)
        if token and urlsplit(self.base_url).scheme == "https":
            return {"Authorization": f"token {token}"}
        return {}

    def fetch(self, path: str) -> bytes | None:
        """The body of `path` as served with status 200, or None on 404.  A
        path that escapes the repository is None and never requested."""
        if escapes_repo(path):
            return None
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


# What a fetched manifest's ``files`` map gives a path that was not written.
MISSING = "missing"
OVER_THE_CAP = "over the cap"


def _write_whole(path: str, data: bytes) -> None:
    """Write `path` through `path`.part, so it is never seen half written."""
    part = path + ".part"
    with open(part, "wb") as handle:
        handle.write(data)
    os.replace(part, path)


def _fetch_file(tree: RemoteTree, root: str, path: str) -> str:
    """The sha256 of `path` as copied under `root`, or why it is not there.
    A copy already on disk is kept, and its digest read from it, without a
    request."""
    if escapes_repo(path):
        return MISSING
    target = os.path.join(root, path)
    try:
        with open(target, "rb") as handle:
            return sha256(handle.read()).hexdigest()
    except FileNotFoundError:
        pass
    try:
        data = tree.fetch(path)
    except FileTooLarge:
        return OVER_THE_CAP
    if data is None:
        return MISSING
    os.makedirs(os.path.dirname(target), exist_ok=True)
    _write_whole(target, data)
    return sha256(data).hexdigest()


def _entry_data(entry: ManifestEntry) -> dict[str, Any]:
    """`entry` as a manifest entry object; a script list of None is written
    as an empty one."""
    data = {
        "repo_slug": entry.repo_slug,
        "config_path": entry.config_path,
        "script_paths": list(entry.script_paths or ()),
    }
    if entry.is_local:
        data["local_root"] = entry.local_root
    else:
        data["remote_base_url"] = entry.remote_base_url
    return data


def fetch_corpus(
    entries: list[ManifestEntry],
    out_dir: str,
    policy: FetchPolicy = FetchPolicy(),
    session=None,
    clock: Clock | None = None,
    workers: int = 1,
) -> dict[str, Any]:
    """Copy every remote entry's config and listed scripts under `out_dir`,
    then write `out_dir`/manifest.json; return the manifest written.

    Entries are taken in slug order (the last entry wins a repeated slug).
    A remote entry's files go to ``repos/<slug quoted with safe="">/<path>``,
    and its manifest entry names that directory as its absolute
    ``local_root``, keeps its ``script_paths``, and maps each path in
    ``files`` to its sha256, MISSING (404) or OVER_THE_CAP.  A file is
    written whole through a ``.part`` file, and one already present is not
    fetched again, so a re-run resumes an interrupted fetch.  Local entries
    are written unchanged.  An entry whose fetch raises, or whose slug
    names no directory ("", "." or ".."), is left out of ``entries`` and
    maps its slug to the message in ``failed``.

    Entries are handed out one at a time to `workers` threads, which share
    one session (the caller's, or one opened here) and one token bucket;
    `session` and `clock` exist so tests can pass fakes.
    """
    if session is None:
        import requests

        with requests.Session() as session:
            return fetch_corpus(entries, out_dir, policy, session, clock, workers)
    from concurrent.futures import ThreadPoolExecutor

    bucket = TokenBucket(policy.max_requests_per_hour, clock)
    repos = os.path.join(os.path.abspath(out_dir), "repos")

    def fetch(entry: ManifestEntry) -> dict[str, Any] | str:
        if entry.is_local:
            return _entry_data(entry)
        name = quote(entry.repo_slug, safe="")
        if name in ("", ".", ".."):
            return f"slug {entry.repo_slug!r} cannot name a directory; nothing fetched"
        root = os.path.join(repos, name)
        tree = RemoteTree(entry.remote_base_url, policy, session, bucket, clock)
        paths = dict.fromkeys((entry.config_path, *(entry.script_paths or ())))
        try:
            files = {path: _fetch_file(tree, root, path) for path in paths}
        except Exception as exc:  # noqa: BLE001 - entry isolation
            return str(exc)
        local = replace(entry, local_root=root, remote_base_url=None)
        return {**_entry_data(local), "files": files}

    by_slug = {entry.repo_slug: entry for entry in entries}
    slugs = sorted(by_slug)
    written, failed = [], {}
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for slug, outcome in zip(slugs, pool.map(fetch, [by_slug[s] for s in slugs])):
            if isinstance(outcome, str):
                failed[slug] = outcome
            else:
                written.append(outcome)
    manifest = {"schema_version": MANIFEST_SCHEMA_VERSION, "entries": written, "failed": failed}
    os.makedirs(out_dir, exist_ok=True)
    _write_whole(
        os.path.join(out_dir, "manifest.json"),
        (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8"),
    )
    return manifest


def materialize(entry: ManifestEntry):
    """Produce (RawDocument, LocalTree) for one local manifest entry.

    Never touches the network.  The config is read first (missing, not a
    regular file or outside the repository -> NotFound, whose message says
    which; over MAX_FILE_BYTES -> FileTooLarge; either way the entry is
    skippable), then the tree reads only declared script paths.
    `script_paths` None sets no allow-list; only directory enumeration and
    `tdmscan analyze` build such.
    """
    tree = LocalTree(entry.local_root)
    content = tree.read(entry.config_path)
    if content is None:
        reason = tree.unread.get(entry.config_path)
        problem = f"{entry.config_path} {reason}" if reason else f"missing {entry.config_path}"
        raise NotFound(f"{entry.repo_slug}: {problem}")
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
