"""Shell-command tokenization and external-script reference resolution.

Pipeline commands frequently delegate to shell scripts stored in the
repository; those scripts are part of the analysis corpus.  Extraction is
heuristic and purely textual: tokens ending in ``.sh``/``.bash``, tokens
starting with ``./``, and the path argument of an interpreter invocation
(``sh X``, ``bash X``, ``source X``, ``. X``) count as references.
`script_references` finds a config's references and the (job, phase) sites
that run them; `collect_script_documents` reads each referenced script once
and gives every script's sites, which detection, placement and timing read.
Tool detection and placement read shell text through the same primitives:
`command_lines` for the lines, `command_words` for a segment's words.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Protocol

from .config_model import CommandLine, PhaseKind
from .ingest import FileTooLarge, escapes_repo, text_sha256
from .memo import BoundedMemo

SCRIPT_SUFFIXES = (".sh", ".bash")

_SEGMENT_SPLIT = re.compile(r"&&|\|\||;|\||&")
_ACTION_SPLIT = re.compile(r"&&|\|\||;")
_ENV_ASSIGNMENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*=")

# Prefix commands that wrap the real command without changing it.
_WRAPPERS = frozenset(
    {"sudo", "time", "env", "nice", "travis_retry", "travis_wait", "xvfb-run"}
)
_INTERPRETER_BASES = frozenset({"sh", "bash"})

# Memo of the reference events of one stripped line: at most this many
# lines, each at most this long (longer lines are tokenized every time).
_REF_MEMO_SIZE = 1024
_REF_MEMO_MAX_CHARS = 256

Site = tuple[int, PhaseKind]

# Per-process memo of a resolved script's nested references and their
# warnings, keyed on the script's sha256 (recursive mode only).
_reference_memo = BoundedMemo()


@dataclass(frozen=True)
class ScriptDocument:
    """A referenced script; ``resolved`` is False when absent from the tree.

    ``sha256`` is the digest of the content read, None when unresolved; it
    follows from where the content came from, so it takes no part in
    equality.
    """

    path: str
    content: str | None
    resolved: bool
    sha256: str | None = field(default=None, compare=False)


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


class MappingTree:
    """In-memory file tree backed by a plain dict."""

    def __init__(self, files: dict[str, str]):
        self._files = dict(files)

    def read(self, path: str) -> str | None:
        return self._files.get(path)


def command_lines(text: str) -> list[tuple[int, str]]:
    """(line index, stripped line) per line that is neither blank nor a comment."""
    return [
        (index, stripped)
        for index, line in enumerate(text.splitlines())
        if (stripped := line.strip()) and stripped[0] != "#"
    ]


def split_segments(text: str) -> list[str]:
    """Split on all shell operators (`&& || ; | &`), dropping empties."""
    return [part.strip() for part in _SEGMENT_SPLIT.split(text) if part.strip()]


def split_actions(text: str) -> list[str]:
    """Split on `&& || ;` only — a pipe chain stays one action."""
    return [part.strip() for part in _ACTION_SPLIT.split(text) if part.strip()]


def shell_tokens(segment: str) -> list[str]:
    """Whitespace tokens with surrounding quotes and parens stripped."""
    tokens = []
    for raw in segment.split():
        token = raw.strip("\"'()")
        if token:
            tokens.append(token)
    return tokens


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


def command_words(segment: str) -> list[str]:
    """The segment's tokens from its real command on (see strip_wrappers)."""
    return strip_wrappers(shell_tokens(segment))


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
    """True when a segment's `command_words` are a package-manager install.

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
# `_line_ref_events`): a token ends in a suffix or starts with `./`, or is
# the argument of `sh`, `bash`, `source` or `.`.  Such a `.` is a token of its
# own: past quotes and parens, whitespace or the end follows it, and a line
# break, whitespace, a segment operator, a quote or a paren precedes it (every
# line break is whitespace).
_REF_HINT = re.compile(
    "|".join(map(re.escape, ("./", "source", *SCRIPT_SUFFIXES, *_INTERPRETER_BASES)))
    + r"""|\.(?<![^\s;&|"'()]\.)["'()]*(?=\s|$)"""
)


def _line_ref_events(stripped: str) -> tuple[tuple[str | None, str | None], ...]:
    """(token, warning) per reference event on one stripped, non-comment line.

    A rejected token is (None, warning); an accepted one carries a warning
    only when it holds an unresolved variable.
    """
    events: list[tuple[str | None, str | None]] = []
    for segment in split_segments(stripped):
        tokens = shell_tokens(segment)
        interp_arg = _interpreter_argument(tokens)
        for token in tokens:
            if not (
                token.endswith(SCRIPT_SUFFIXES)
                or token.startswith("./")
                or token == interp_arg
            ):
                continue
            if escapes_repo(token):
                events.append(
                    (None, f"rejected script reference outside repository: {token}")
                )
            elif "$" in token:
                events.append(
                    (token, f"script reference with unresolved variable: {token}")
                )
            else:
                events.append((token, None))
    return tuple(events)


_memo_line_ref_events = lru_cache(maxsize=_REF_MEMO_SIZE)(_line_ref_events)


def script_paths(text: str, warnings: list[str] | None = None) -> list[str]:
    """Normalized paths of the scripts `text` references, each once, in order.

    A pure function of the text; `warnings` (when given) collects rejected
    root-escaping tokens and variable-bearing tokens.  A text without a
    reference hint (see `_REF_HINT`) is not split into lines at all.
    """
    if not _REF_HINT.search(text):
        return []
    paths: dict[str, None] = {}
    for _, stripped in command_lines(text):
        if len(stripped) <= _REF_MEMO_MAX_CHARS:
            events = _memo_line_ref_events(stripped)
        else:
            events = _line_ref_events(stripped)
        for token, warning in events:
            if warning is not None and warnings is not None:
                warnings.append(warning)
            if token is not None and (path := normalize_script_path(token)):
                paths[path] = None
    return list(paths)


def _nested_references(text: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """`script_paths` of a script's text, and the warnings it records."""
    warnings: list[str] = []
    return tuple(script_paths(text, warnings)), tuple(warnings)


def script_references(
    commands: Iterable[CommandLine], warnings: list[str] | None = None
) -> tuple[tuple[str, Site], ...]:
    """The (normalized path, (job index, phase)) pair of every script that
    `commands` reference, each pair once, in first-reference order.

    A pure function of the commands: what a config gives
    `collect_script_documents`.  `warnings` collects what `script_paths`
    records.
    """
    pairs: dict[tuple[str, Site], None] = {}
    for cmd in commands:
        for path in script_paths(cmd.text, warnings):
            pairs[path, (cmd.job_index, cmd.phase)] = None
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
    each resolved script's references are found once per distinct text in
    the process (memoized on its sha256, warnings replayed) and inherit its
    sites; a (path, site) pair is followed once, which cuts cycles.
    """
    digests = getattr(tree, "digests", {})
    sites: dict[str, dict[Site, None]] = {}
    docs: dict[str, ScriptDocument] = {}
    nested: dict[str, tuple[str, ...]] = {}
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
            docs[path] = ScriptDocument(path, content, content is not None, digest)
            if recursive and digest is not None:
                nested[path], found = _reference_memo.get(
                    digest, partial(_nested_references, content)
                )
                if warnings is not None:
                    warnings.extend(found)
        for reference in nested.get(path, ()):
            attach(reference, site)

    return list(docs.values()), {path: tuple(held) for path, held in sites.items()}
