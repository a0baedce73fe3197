"""Shell-command tokenization and external-script reference resolution.

Pipeline commands frequently delegate to shell scripts stored in the
repository; those scripts are part of the analysis corpus.  Extraction is
heuristic and purely textual: tokens ending in ``.sh``/``.bash``, tokens
starting with ``./``, and the path argument of an interpreter invocation
(``sh X``, ``bash X``, ``source X``, ``. X``) count as references.
`script_references` finds a config's references and the (job, phase) sites
that run them; `collect_script_documents` reads each referenced script once
and gives every script's sites, which detection, placement and timing read.
Tool detection, reference scanning and placement read each stripped line
through one memoized value, `shell_line`: the segments detection searches
and, per action, the two ceremony flags and the reference events.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Protocol

from .config_model import Job, PhaseKind, clip
from .ingest import FileTooLarge, escapes_repo, text_sha256

SCRIPT_SUFFIXES = (".sh", ".bash")

_SEGMENT_SPLIT = re.compile(r"&&|\|\||;|\||&")
_ACTION_SPLIT = re.compile(r"&&|\|\||;")
_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")

# Prefix commands that wrap the real command without changing it.
_WRAPPERS = frozenset(
    {"sudo", "time", "env", "nice", "travis_retry", "travis_wait", "xvfb-run"}
)
_INTERPRETER_BASES = frozenset({"sh", "bash"})

# Shell ceremony, which placement does not count as work of its own.
CEREMONY_HEADS = frozenset({"echo", "cd", "export", "set"})
# Scripts additionally contain structure that is not a task of its own.
SCRIPT_CEREMONY_HEADS = CEREMONY_HEADS | frozenset(
    {
        "if", "then", "else", "elif", "fi",
        "for", "while", "until", "do", "done",
        "case", "esac", "local", "return", "shift",
        "break", "continue", "trap", "exit", "true",
        ":", "{", "}", "[", "[[", "function",
    }
)

# Memos of one stripped line (its ShellLine here, its tool hits per
# registry): at most this many lines, each at most this long (longer lines
# are worked every time).
LINE_MEMO_SIZE = 4096
LINE_MEMO_MAX_CHARS = 256

Site = tuple[int, PhaseKind]


@dataclass(frozen=True)
class ScriptDocument:
    """A referenced script; ``content`` is None when absent from the tree.

    ``sha256`` is the digest of the content read, None when unresolved; it
    follows from where the content came from, so it takes no part in
    equality.
    """

    path: str
    content: str | None
    sha256: str | None = field(default=None, compare=False)

    @property
    def resolved(self) -> bool:
        return self.content is not None


class FileTree(Protocol):
    """Read-only accessor over repo-relative paths.

    A tree may record, in ``digests[path]``, the sha256 of the bytes of each
    file it read; a script's digest is otherwise that of its text.
    """

    def read(self, path: str) -> str | None:
        """Content of `path`, or None when the tree does not contain it.

        May raise FileTooLarge for a file over `ingest.MAX_FILE_BYTES`.
        """
        ...


def command_lines(text: str) -> list[tuple[int, str]]:
    """(line index, stripped line) per line that is neither blank nor a comment."""
    return [
        (index, stripped)
        for index, line in enumerate(text.splitlines())
        if (stripped := line.strip()) and stripped[0] != "#"
    ]


def split_segments(text: str) -> list[str]:
    """Split on all shell operators (`&& || ; | &`), dropping empties."""
    return [part for raw in _SEGMENT_SPLIT.split(text) if (part := raw.strip())]


def split_actions(text: str) -> list[str]:
    """Split on `&& || ;` only — a pipe chain stays one action."""
    return [part for raw in _ACTION_SPLIT.split(text) if (part := raw.strip())]


def shell_tokens(segment: str) -> list[str]:
    """Whitespace tokens with surrounding quotes and parens stripped."""
    return [token for raw in segment.split() if (token := raw.strip("\"'()"))]


def strip_wrappers(tokens: list[str]) -> list[str]:
    """Drop env assignments and wrapper commands preceding the real command."""
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if _ENV_ASSIGNMENT.match(token):
            i += 1
            continue
        base = token.rsplit("/", 1)[-1]
        if base in _WRAPPERS:
            i += 1
            # travis_wait may carry a minutes argument.
            if base == "travis_wait" and i < len(tokens) and tokens[i].isdigit():
                i += 1
            continue
        break
    return tokens[i:]


_INSTALLER_RULES: tuple[tuple[frozenset[str], frozenset[str]], ...] = (
    (frozenset({"pip", "pip2", "pip3"}), frozenset({"install"})),
    (frozenset({"npm"}), frozenset({"install", "i"})),
    (frozenset({"gem"}), frozenset({"install"})),
    (frozenset({"apt-get"}), frozenset({"install"})),
    (frozenset({"brew"}), frozenset({"install"})),
    (frozenset({"composer"}), frozenset({"require"})),
    (frozenset({"go"}), frozenset({"install"})),
)


_PYTHON_MODULE_INSTALL = ["-m", "pip", "install"]

# Every installer segment holds one of these words: each rule's verbs, or its
# heads where a verb is one letter (`npm i`), which nearly any text holds.
_INSTALLER_WORDS = {_PYTHON_MODULE_INSTALL[-1]}.union(
    *(heads if min(map(len, verbs)) == 1 else verbs for heads, verbs in _INSTALLER_RULES)
)
INSTALLER_HINT = re.compile("|".join(map(re.escape, sorted(_INSTALLER_WORDS))))


def is_installer(words: list[str]) -> bool:
    """True when a segment's words (`strip_wrappers` of its `shell_tokens`)
    are a package-manager install.

    Such a segment holds a match of INSTALLER_HINT.
    """
    if len(words) < 2:
        return False
    base = words[0].rsplit("/", 1)[-1]
    for heads, verbs in _INSTALLER_RULES:
        if base in heads and words[1] in verbs:
            return True
    return base.startswith("python") and words[1:4] == _PYTHON_MODULE_INSTALL


def normalize_script_path(token: str) -> str:
    """Repo-relative normal form: forward slashes, no leading './'.

    Tokens made only of dots and slashes (Go's `./...` wildcard, `.`)
    normalize to the empty string and are dropped by callers.
    """
    path = token.replace("\\", "/")
    while path.startswith("./"):
        path = path[2:]
    path = re.sub(r"/{2,}", "/", path)
    if not path.strip("./"):
        return ""
    return path


def _interpreter_argument(tokens: list[str]) -> str | None:
    core = strip_wrappers(tokens)
    if not core:
        return None
    head = core[0]
    base = head.rsplit("/", 1)[-1]
    if base not in _INTERPRETER_BASES and head not in ("source", "."):
        return None
    for token in core[1:]:
        if token.startswith("-"):
            continue
        return token
    return None


# A text with a reference matches this (the acceptance rule of
# `_reference_events`): a token ends in a suffix or starts with `./`, or is
# the argument of `sh`, `bash`, `source` or `.`.  Such a `.` is a token of its
# own: past quotes and parens, whitespace or the end follows it, and a line
# break, whitespace, a segment operator, a quote or a paren precedes it (every
# line break is whitespace).
_REF_HINT = re.compile(
    "|".join(map(re.escape, ("./", "source", *SCRIPT_SUFFIXES, *_INTERPRETER_BASES)))
    + r"""|\.(?<![^\s;&|"'()]\.)["'()]*(?=\s|$)"""
)

RefEvent = tuple[str | None, str | None]

# One action of a stripped line (split on `&& || ;`, so a pipe chain is one
# action): (text, ceremony, script_ceremony, references).  It is ceremony,
# under the config or the script heads, when it has no words, a ceremony
# head or a package install; `references` holds a (normalized path,
# warning) per reference event of its segments (see _reference_events).
LineAction = tuple[str, bool, bool, tuple[RefEvent, ...]]


def _reference_events(tokens: list[str], events: list[RefEvent]) -> None:
    """Append the reference events of one segment's `shell_tokens`: a
    rejected token has no path, an accepted one has a warning only when it
    holds an unresolved variable."""
    interp_arg = _interpreter_argument(tokens)
    for token in tokens:
        if not (
            token.endswith(SCRIPT_SUFFIXES) or token.startswith("./") or token == interp_arg
        ):
            continue
        path = normalize_script_path(token)
        if escapes_repo(path):
            events.append((None, f"rejected script reference outside repository: {clip(token)}"))
        elif "$" in token:
            events.append((path, f"script reference with unresolved variable: {clip(token)}"))
        elif path:
            events.append((path, None))


def _line_actions(stripped: str) -> tuple[LineAction, ...]:
    """The LineActions of one stripped, non-comment line, in order."""
    may_refer = _REF_HINT.search(stripped) is not None
    actions = []
    for action in split_actions(stripped):
        words = strip_wrappers(shell_tokens(action))
        head = words[0] if words else None
        ceremony = head is None or head in CEREMONY_HEADS or is_installer(words)
        references: list[RefEvent] = []
        if may_refer:
            for segment in split_segments(action):
                _reference_events(shell_tokens(segment), references)
        actions.append(
            (action, ceremony, ceremony or head in SCRIPT_CEREMONY_HEADS, tuple(references))
        )
    return tuple(actions)


class ShellLine:
    """What tool detection, reference scanning and placement read of one
    stripped, non-comment line, worked out once per line.

    `searched` holds the line's segments (split on every operator) that are
    not a package install: what detection searches when it excludes
    installs.  Only a segment holding an INSTALLER_HINT match is tokenized
    for that.  `actions`, its LineActions, are worked out on first read:
    detection reads every line, the other layers only some.
    """

    __slots__ = ("text", "searched", "_actions")

    def __init__(self, text: str):
        self.text = text
        self.searched = tuple(
            segment
            for segment in split_segments(text)
            if not (
                INSTALLER_HINT.search(segment)
                and is_installer(strip_wrappers(shell_tokens(segment)))
            )
        )
        self._actions: tuple[LineAction, ...] | None = None

    @property
    def actions(self) -> tuple[LineAction, ...]:
        if self._actions is None:
            self._actions = _line_actions(self.text)
        return self._actions


_memo_shell_line = lru_cache(maxsize=LINE_MEMO_SIZE)(ShellLine)


def shell_line(stripped: str) -> ShellLine:
    """The ShellLine of `stripped`, memoized for lines of at most
    LINE_MEMO_MAX_CHARS."""
    if len(stripped) <= LINE_MEMO_MAX_CHARS:
        return _memo_shell_line(stripped)
    return ShellLine(stripped)


def script_paths(text: str, warnings: list[str] | None = None) -> list[str]:
    """Normalized paths of the scripts `text` references, each once, in order.

    A pure function of the text; `warnings` (when given) collects rejected
    tokens (absolute, or with a `..` segment once normalized) and
    variable-bearing tokens.  A text without a reference hint (see
    `_REF_HINT`) is not split into lines at all.
    """
    if not _REF_HINT.search(text):
        return []
    paths: dict[str, None] = {}
    for _, stripped in command_lines(text):
        for _, _, _, references in shell_line(stripped).actions:
            for path, warning in references:
                if warning is not None and warnings is not None:
                    warnings.append(warning)
                if path is not None:
                    paths[path] = None
    return list(paths)


def script_references(
    jobs: Iterable[Job], warnings: list[str] | None = None
) -> tuple[tuple[str, Site], ...]:
    """The (normalized path, (job index, phase)) pair of every script that
    the commands of `jobs` reference, each pair once, in first-reference
    order (job, phase, command).

    A pure function of the jobs: what a config gives
    `collect_script_documents`.  `warnings` collects what `script_paths`
    records, for every command; each distinct text is scanned once and its
    warnings are replayed at each command that runs it.
    """
    pairs: dict[tuple[str, Site], None] = {}
    scanned: dict[str, tuple[list[str], list[str]]] = {}
    for job in jobs:
        for phase, texts in job.phases.items():
            for text in texts:
                if not _REF_HINT.search(text):
                    continue  # no reference, so no path and no warning
                known = scanned.get(text)
                if known is None:
                    found: list[str] = []
                    known = scanned[text] = script_paths(text, found), found
                paths, found = known
                if found and warnings is not None:
                    warnings.extend(found)
                for path in paths:
                    pairs[path, (job.index, phase)] = None
    return tuple(pairs)


def collect_script_documents(
    references: Iterable[tuple[str, Site]],
    tree: FileTree,
    recursive: bool = False,
    warnings: list[str] | None = None,
) -> tuple[list[ScriptDocument], dict[str, tuple[Site, ...]]]:
    """Read every script of `references` (see script_references) from `tree`.

    Returns the documents (first-reference order) and, per normalized path,
    its sites: the (job index, phase) of each command that (transitively)
    invokes it, once each, in first-reference order.  With `recursive`,
    each resolved script's references are found once per call and inherit
    its sites; a (path, site) pair is followed once, which cuts cycles.
    """
    digests = getattr(tree, "digests", {})
    sites: dict[str, dict[Site, None]] = {}
    docs: dict[str, ScriptDocument] = {}
    nested: dict[str, list[str]] = {}
    queue: deque[tuple[str, Site]] = deque()

    def attach(path: str, site: Site) -> None:
        held = sites.setdefault(path, {})
        if site not in held:
            held[site] = None
            queue.append((path, site))

    for path, site in references:
        attach(path, site)

    while queue:
        path, site = queue.popleft()
        if path not in docs:
            try:
                content = tree.read(path)
            except FileTooLarge as exc:
                content = None
                if warnings is not None:
                    warnings.append(f"script not read: {exc}")
            digest = None if content is None else digests.get(path) or text_sha256(content)
            docs[path] = ScriptDocument(path, content, digest)
            if recursive and content is not None:
                nested[path] = script_paths(content, warnings)
        for reference in nested.get(path, ()):
            attach(reference, site)

    return list(docs.values()), {path: tuple(held) for path, held in sites.items()}
