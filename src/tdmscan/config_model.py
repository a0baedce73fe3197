"""Normalized model of Travis-style CI pipeline configurations.

A pipeline is an ordered list of stages; each stage holds one or more jobs
that run in parallel; each job executes an ordered set of lifecycle phases
whose entries are shell command lines.  Parsing is a pure transformation:
identical input text always yields a structurally identical model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import GeneratorType
from typing import Any, Iterator

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.events import (
    AliasEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

# libyaml produces the parse events when PyYAML ships it; the pure-Python
# reader, scanner and parser do otherwise.  Either way _load_yaml builds the
# Python values from the events itself, in one loop over an explicit stack:
# libyaml's own composer recurses on the C stack and crashes the process on
# deeply nested input, and PyYAML's Python composer and constructor walk a
# node tree twice.
if yaml.__with_libyaml__:
    from yaml.cyaml import CParser as _EventSource
else:
    from yaml.parser import Parser
    from yaml.reader import Reader
    from yaml.scanner import Scanner

    class _EventSource(Reader, Scanner, Parser):
        def __init__(self, stream):
            Reader.__init__(self, stream)
            Scanner.__init__(self)
            Parser.__init__(self)


class MalformedDocument(ValueError):
    """The document cannot be parsed as YAML."""


class NotAPipeline(ValueError):
    """The document parses but contains no pipeline lifecycle key."""


class PhaseKind(enum.Enum):
    """Job lifecycle phases, declared in execution order."""

    BEFORE_INSTALL = "before_install"
    INSTALL = "install"
    BEFORE_SCRIPT = "before_script"
    SCRIPT = "script"
    AFTER_SUCCESS = "after_success"
    AFTER_FAILURE = "after_failure"
    BEFORE_DEPLOY = "before_deploy"
    DEPLOY = "deploy"
    AFTER_DEPLOY = "after_deploy"
    AFTER_SCRIPT = "after_script"

    # Members are singletons and compare by identity, so the identity hash
    # is consistent with equality; Enum's own hashes the name in Python,
    # once per record hash or dict lookup on the hot path.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


PHASE_BY_NAME = {kind.value: kind for kind in PhaseKind}

DEPLOY_PHASES = frozenset(
    {PhaseKind.BEFORE_DEPLOY, PhaseKind.DEPLOY, PhaseKind.AFTER_DEPLOY}
)
SETUP_PHASES = frozenset(
    {PhaseKind.BEFORE_INSTALL, PhaseKind.INSTALL, PhaseKind.BEFORE_SCRIPT}
)

# Minimal-validity gate: one of these top-level keys must be present.
LIFECYCLE_KEYS = frozenset(PHASE_BY_NAME) | {"jobs", "matrix", "language"}

NOTIFICATION_CHANNELS = (
    "email",
    "slack",
    "webhooks",
    "irc",
    "campfire",
    "flowdock",
    "hipchat",
    "pushover",
)
OTHER_CHANNEL = "other"
_NOTIFICATION_MODIFIERS = frozenset(
    {"on_success", "on_failure", "on_start", "on_cancel", "on_error", "if"}
)

IMPLICIT_STAGE = "implicit"
CONFIG_FILENAME = ".travis.yml"


@dataclass(frozen=True)
class RawDocument:
    """One CI configuration file as retrieved from a repository."""

    repo_slug: str
    path: str
    content: str
    # The reader replaced invalid UTF-8 bytes while decoding `content`.
    invalid_utf8: bool = False
    # The digest the reader recorded for the file, if any; it follows from
    # the content read, so it takes no part in equality.
    sha256: str | None = field(default=None, compare=False)


@dataclass
class Job:
    """One execution unit; jobs of the same stage run in parallel.

    `phases` holds the command texts of each phase the job runs, its own and
    the inherited global ones alike, keyed in lifecycle (`PhaseKind`) order.
    An inherited phase is the global phase's tuple itself, shared by every
    job that inherits it.
    """

    index: int
    stage_name: str | None = None
    phases: dict[PhaseKind, tuple[str, ...]] = field(default_factory=dict)
    condition: str | None = None
    branch_only: list[str] | None = None
    # Where the job's entry sits in the config, e.g. `jobs.include[1]`; None
    # for the implicit job of a config with only global phases.
    entry_path: str | None = None

    @property
    def deploys(self) -> bool:
        return any(phase in DEPLOY_PHASES for phase in self.phases)


@dataclass(frozen=True)
class NotificationConfig:
    """Declared notification channels; `channels` holds only enabled ones."""

    channels: frozenset[str]
    raw: Any


@dataclass
class PipelineConfig:
    """Parsed, normalized model of one pipeline configuration."""

    source: RawDocument
    declared_stage_order: list[str] = field(default_factory=list)
    stage_conditions: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    notifications: NotificationConfig | None = None
    global_branch_only: list[str] | None = None
    global_condition: str | None = None
    post_deploy_stages: frozenset[str] = frozenset()
    raw: dict[str, Any] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# Input bounds of the loader: collections nested at most this deep, and at
# most this many nodes once every alias is expanded.
_MAX_DEPTH = 100
_MAX_NODES = 100_000

_STR_TAG = "tag:yaml.org,2002:str"
_NULL_TAG = "tag:yaml.org,2002:null"
_BOOL_TAG = "tag:yaml.org,2002:bool"
_MERGE_TAG = "tag:yaml.org,2002:merge"
_VALUE_TAG = "tag:yaml.org,2002:value"

_RESOLVER = Resolver()
# First characters that some implicit resolver claims; any other plain
# scalar resolves to a string.
_RESOLVED_FIRST = Resolver.yaml_implicit_resolvers
_CONSTRUCTOR = SafeConstructor()
_CONSTRUCTORS = SafeConstructor.yaml_constructors
_BOOL_VALUES = SafeConstructor.bool_values

# What an open collection builds: a list, a list of (key, value) pairs
# (`!!omap`, `!!pairs`, whose entries are mappings of one key), a dict, or
# a dict that becomes a set (`!!set`).
_LIST, _PAIR_LIST, _DICT, _SET = range(4)
_MAPPINGS = (_DICT, _SET)
_COLLECTION_KINDS = {
    (False, None): _LIST,
    (False, "!"): _LIST,
    (False, "tag:yaml.org,2002:seq"): _LIST,
    (False, "tag:yaml.org,2002:omap"): _PAIR_LIST,
    (False, "tag:yaml.org,2002:pairs"): _PAIR_LIST,
    (True, None): _DICT,
    (True, "!"): _DICT,
    (True, "tag:yaml.org,2002:map"): _DICT,
    (True, "tag:yaml.org,2002:set"): _SET,
}
_WARNED_KEY_TYPES = (str, int, float, bool, type(None))

_NO_KEY = object()  # a mapping waits for its next key
_MERGE = object()  # the merge key `<<`
_OPEN = object()  # an anchored collection whose end has not arrived


class _Open:
    """A collection whose end event has not arrived yet.

    `start` is the document's node count before it, so the collection's
    expanded size is the count at its end minus `start`.  `views` holds
    each element's mapping view (see `_close`) while a sequence might be
    merged from: when it is anchored or the value of a merge key.
    """

    __slots__ = ("kind", "data", "key", "anchor", "start", "views", "merges")

    def __init__(self, kind, anchor, start, views):
        self.kind = kind
        self.data = {} if kind in _MAPPINGS else []
        self.key = _NO_KEY
        self.anchor = anchor
        self.start = start
        self.views = views
        self.merges = None


def _close(frame: _Open) -> tuple[Any, Any]:
    """(value, mapping view) of a complete collection.

    The view is what merging the collection contributes: the key/value
    dict of a mapping, the list of its elements' views for a sequence
    whose views were kept, None otherwise.
    """
    kind = frame.kind
    data = frame.data
    if kind is _LIST or kind is _PAIR_LIST:
        return data, frame.views
    if frame.merges:
        # Merged keys come first; each merge source overrides the ones
        # before it, and the mapping's own keys override them all.
        merged = {}
        for source in frame.merges:
            merged.update(source)
        merged.update(data)
        data = merged
    return (set(data) if kind is _SET else data), data


def _merge_sources(view, mark) -> list[dict]:
    """The mappings a merge key's value contributes, the weakest first."""
    if type(view) is dict:
        return [view]
    if type(view) is list and all(type(item) is dict for item in view):
        return view[::-1]
    problem = "expected a mapping or list of mappings for merging"
    raise ConstructorError("while constructing a mapping", None, problem, mark)


def _tagged_scalar(tag: str, event, top: _Open | None) -> Any:
    """The value of a scalar event whose tag is not the string tag.

    Tags without a fast path go to SafeConstructor's constructor for them.
    An unknown tag raises ConstructorError, as does a value the constructor
    rejects with any other exception (`!!int x`, `!!bool maybe`).
    """
    value = event.value
    if tag == _NULL_TAG:
        return None
    if tag == _BOOL_TAG:
        flag = _BOOL_VALUES.get(value.lower())
        if flag is not None:
            return flag
    elif (tag == _MERGE_TAG or tag == _VALUE_TAG) and _at_key(top):
        # Elsewhere than at a mapping key these tags have no constructor.
        return _MERGE if tag == _MERGE_TAG else value
    node = ScalarNode(tag, value, event.start_mark, event.end_mark)
    constructor = _CONSTRUCTORS.get(tag, _CONSTRUCTORS[None])
    try:
        data = constructor(_CONSTRUCTOR, node)
        if isinstance(data, GeneratorType):
            list(data)  # a collection constructor: it rejects a scalar node
    except yaml.YAMLError:
        raise
    except Exception as exc:  # noqa: BLE001 - rejected scalar text
        problem = f"cannot construct {tag}: {exc!r}"
        raise ConstructorError(None, None, problem, event.start_mark) from exc
    return data


def _at_key(top: _Open | None) -> bool:
    """True when the next node is a key of a mapping (or set)."""
    return top is not None and top.kind in _MAPPINGS and top.key is _NO_KEY


def _load_yaml(text: str) -> tuple[Any, list[str]]:
    """The one YAML document in `text` as PyYAML's SafeLoader builds it, and
    a warning per duplicate mapping key (the last occurrence wins).

    One pass over the parse events builds the values on an explicit stack.
    Scalars take PyYAML's tags and types; an alias gives the anchored object
    itself; merge keys (`<<`) merge as SafeConstructor does.  Only a
    mapping's own keys count as duplicates, not the ones it merges.  The
    warnings come in breadth-first order, as SafeConstructor constructs.
    An `!!omap`/`!!pairs` entry is read as any mapping, which must hold one
    key; unlike in PyYAML it may merge, and its key must be hashable.
    An empty stream gives None.  ComposerError is raised for input nested
    over `_MAX_DEPTH` deep, over `_MAX_NODES` nodes with every alias
    expanded, or with an alias to a collection that encloses it.
    """
    source = _EventSource(text)
    try:
        source.get_event()  # StreamStartEvent
        start = source.get_event()
        if start.__class__ is StreamEndEvent:
            return None, []
        data, duplicates = _build(source.get_event)
        source.get_event()  # DocumentEndEvent
        event = source.get_event()
        if event.__class__ is not StreamEndEvent:
            raise ComposerError(
                "expected a single document in the stream",
                start.start_mark,
                "but found another document",
                event.start_mark,
            )
    finally:
        source.dispose()
    # A mapping's duplicates are found at their keys; SafeConstructor builds
    # the mappings level by level, each level in document order.
    duplicates.sort(key=lambda duplicate: duplicate[:2])
    return data, [
        f"duplicate key '{clip(key)}': last occurrence wins" for _, _, key in duplicates
    ]


def _build(get_event) -> tuple[Any, list[tuple[int, int, str]]]:
    """The value of the node whose events `get_event` gives next, and its
    duplicate keys as (nesting level, position of the mapping, key)."""
    stack: list[_Open] = []
    top: _Open | None = None
    anchors: dict[str, Any] = {}  # name -> (value, expanded size, view) | _OPEN
    total = 0  # nodes so far, aliases expanded
    duplicates: list[tuple[int, int, str]] = []
    while True:
        event = get_event()
        cls = event.__class__
        view = None
        if cls is ScalarEvent:
            total += 1
            value = event.value
            tag = event.tag
            if tag is None or tag == "!":
                implicit = event.implicit
                if implicit[0] and (not value or value[0] in _RESOLVED_FIRST):
                    tag = _RESOLVER.resolve(ScalarNode, value, implicit)
                    if tag != _STR_TAG:
                        value = _tagged_scalar(tag, event, top)
            elif tag != _STR_TAG:
                value = _tagged_scalar(tag, event, top)
            if event.anchor is not None:
                _define(anchors, event, (value, 1, None))
        elif cls is AliasEvent:
            target = anchors.get(event.anchor)
            if target is None or target is _OPEN:
                problem = (
                    f"found undefined alias {event.anchor!r}"
                    if target is None
                    else "alias to an enclosing collection"
                )
                raise ComposerError(None, None, problem, event.start_mark)
            value, size, view = target
            total += size
            if value is _MERGE and not _at_key(top):
                problem = "found a merge key that is not a mapping key"
                raise ConstructorError(None, None, problem, event.start_mark)
        elif cls is MappingStartEvent or cls is SequenceStartEvent:
            if len(stack) == _MAX_DEPTH:
                problem = f"nested over {_MAX_DEPTH} deep"
                raise ComposerError(None, None, problem, event.start_mark)
            is_mapping = cls is MappingStartEvent
            kind = _COLLECTION_KINDS.get((is_mapping, event.tag))
            if kind is None:
                node = "mapping" if is_mapping else "sequence"
                problem = f"cannot construct a {node} tagged {event.tag!r}"
                raise ConstructorError(None, None, problem, event.start_mark)
            anchor = event.anchor
            if anchor is not None:
                _define(anchors, event, _OPEN)
            merge_value = top is not None and top.key is _MERGE
            views = [] if not is_mapping and (anchor is not None or merge_value) else None
            top = _Open(kind, anchor, total, views)
            stack.append(top)
            total += 1
            if total > _MAX_NODES:
                raise _too_many(event)
            continue
        else:  # the end of the innermost collection
            frame = stack.pop()
            top = stack[-1] if stack else None
            value, view = _close(frame)
            if frame.anchor is not None:
                anchors[frame.anchor] = (value, total - frame.start, view)
        if total > _MAX_NODES:
            raise _too_many(event)

        # Hand the value to the enclosing collection.
        if top is None:
            return value, duplicates
        kind = top.kind
        if kind is _LIST:
            top.data.append(value)
            if top.views is not None:
                top.views.append(view)
        elif kind is _DICT or kind is _SET:
            key = top.key
            if key is _NO_KEY:
                if cls is not ScalarEvent:
                    try:
                        hash(value)
                    except TypeError:
                        problem = "found unhashable key"
                        raise ConstructorError(
                            "while constructing a mapping", None, problem, event.start_mark
                        ) from None
                top.key = value
                continue
            top.key = _NO_KEY
            if key is _MERGE:
                merges = _merge_sources(view, event.start_mark)
                if top.merges is None:
                    top.merges = merges
                else:
                    top.merges.extend(merges)
                continue
            own = top.data
            if key in own and isinstance(key, _WARNED_KEY_TYPES):
                duplicates.append((len(stack), top.start, str(key)))
            own[key] = value
        else:  # _PAIR_LIST: each entry is a mapping of one key
            if type(view) is not dict or len(view) != 1:
                problem = "expected a mapping of one key"
                raise ConstructorError(None, None, problem, event.start_mark)
            top.data.extend(view.items())
            if top.views is not None:
                top.views.append(view)


def _define(anchors: dict[str, Any], event, target) -> None:
    if event.anchor in anchors:
        problem = f"found duplicate anchor {event.anchor!r}"
        raise ComposerError(None, None, problem, event.start_mark)
    anchors[event.anchor] = target


def _too_many(event) -> ComposerError:
    problem = f"over {_MAX_NODES} nodes with aliases expanded"
    return ComposerError(None, None, problem, event.start_mark)


_CLIP_LIMIT = 160


def clip(text: str, limit: int = _CLIP_LIMIT) -> str:
    """`text`, cut to `limit` characters ending in `...` when longer: what a
    warning or an evidence entry quotes of an input value."""
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _repr_pieces(value: Any) -> Iterator[str]:
    """`repr(value)` in order, piece by piece, through the lists, tuples,
    dicts and sets `_load_yaml` builds; any other value is one piece."""
    kind = type(value)
    if kind is dict:
        yield "{"
        for i, (key, item) in enumerate(value.items()):
            if i:
                yield ", "
            yield from _repr_pieces(key)
            yield ": "
            yield from _repr_pieces(item)
        yield "}"
    elif kind is list or kind is tuple or kind is set:
        if kind is set and not value:
            yield "set()"
            return
        opening, closing = "[]" if kind is list else "()" if kind is tuple else "{}"
        yield opening
        for i, item in enumerate(value):
            if i:
                yield ", "
            yield from _repr_pieces(item)
        if kind is tuple and len(value) == 1:
            yield ","
        yield closing
    else:
        yield repr(value)


def _short_repr(value: Any, limit: int = _CLIP_LIMIT) -> str:
    """`repr(value)` up to its first piece past `limit` characters, so that
    `clip` of it is `clip(repr(value))`.  An alias repeats one object, so a
    list of many aliases of a long string has a repr that grows with their
    count, not with the input; this one stops within one piece."""
    pieces: list[str] = []
    size = 0
    for piece in _repr_pieces(value):
        pieces.append(piece)
        size += len(piece)
        if size > limit:
            break
    return "".join(pieces)


def resolve_stage_name(job: Job) -> str:
    """Explicit stage name verbatim (case preserved), or "implicit"."""
    if job.stage_name is None:
        return IMPLICIT_STAGE
    return job.stage_name


def _as_list(value: Any) -> list[Any]:
    if value is None:
        return []
    if isinstance(value, list):
        return value
    return [value]


def _scalar_text(value: Any) -> str | None:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, float)):
        return str(value)
    return None


def _label(value: Any) -> str:
    """A stage, condition or branch as text: a scalar as a command reads it
    (`true`, not `True`), anything else through `str`."""
    return _scalar_text(value) or str(value)


def _quote(item: Any, quoted: dict[int, str]) -> str:
    """`clip(repr(item))`, made once per object of one parse: a YAML alias
    repeats its object, which is then quoted once however often it occurs.
    `quoted` maps the id of each object quoted so far to its quote."""
    text = quoted.get(id(item))
    if text is None:
        text = quoted[id(item)] = clip(_short_repr(item))
    return text


def _command_texts(
    phase: PhaseKind, value: Any, warnings: list[str], quoted: dict[int, str]
) -> list[str]:
    """Flatten a phase entry into shell command strings, preserving order.

    Mapping values are deployment-provider blocks: for deploy-family phases
    the nested ``script`` key (the script provider's command) is extracted;
    elsewhere a mapping is ignored with a warning.
    """
    texts: list[str] = []
    for item in _as_list(value):
        scalar = _scalar_text(item)
        if scalar is not None:
            texts.append(scalar)
        elif isinstance(item, list):
            texts.extend(_command_texts(phase, item, warnings, quoted))
        elif isinstance(item, dict):
            if phase in DEPLOY_PHASES:
                for nested in _as_list(item.get("script")):
                    nested_text = _scalar_text(nested)
                    if nested_text is not None:
                        texts.append(nested_text)
            else:
                warnings.append(
                    f"ignored mapping entry in phase '{phase.value}'"
                )
        elif item is not None:
            warnings.append(
                f"ignored non-command entry in phase '{phase.value}': "
                f"{_quote(item, quoted)}"
            )
    return texts


def _phase_commands(
    entry: dict[str, Any],
    warnings: list[str],
    quoted: dict[int, str],
    inherited: dict[PhaseKind, tuple[str, ...]] | None = None,
) -> dict[PhaseKind, tuple[str, ...]]:
    """The command texts of each phase `entry` declares, keyed in lifecycle
    order.  A phase that `entry` does not declare takes `inherited`'s tuple.
    """
    phases: dict[PhaseKind, tuple[str, ...]] = {}
    for name, phase in PHASE_BY_NAME.items():
        if name in entry:
            phases[phase] = tuple(_command_texts(phase, entry[name], warnings, quoted))
        elif inherited and phase in inherited:
            phases[phase] = inherited[phase]
    return phases


def _branch_only(value: Any) -> list[str] | None:
    if not isinstance(value, dict):
        return None
    only = value.get("only")
    if only is None:
        return None
    return [_label(item) for item in _as_list(only)]


def _channel_enabled(value: Any) -> bool:
    if value is None or value is False:
        return False
    if value is True:
        return True
    if isinstance(value, str):
        return bool(value.strip())
    if isinstance(value, (int, float)):
        return True
    if isinstance(value, list):
        return len(value) > 0
    if isinstance(value, dict):
        if value.get("enabled") is False:
            return False
        return len(value) > 0
    return True


def _parse_notifications(value: Any) -> NotificationConfig:
    channels: set[str] = set()
    if isinstance(value, dict):
        for key, sub in value.items():
            name = str(key)
            if name not in _NOTIFICATION_MODIFIERS and _channel_enabled(sub):
                channels.add(name if name in NOTIFICATION_CHANNELS else OTHER_CHANNEL)
    return NotificationConfig(frozenset(channels), value)


def _parse_stages(
    value: Any, warnings: list[str]
) -> tuple[list[str], dict[str, str]]:
    order: list[str] = []
    conditions: dict[str, str] = {}
    for entry in _as_list(value):
        if isinstance(entry, dict):
            name = entry.get("name")
            if name is None:
                warnings.append("ignored stages entry without a name")
                continue
            label = _label(name)
            order.append(label)
            if entry.get("if") is not None:
                conditions[label] = _label(entry["if"])
        elif entry is not None:
            order.append(_label(entry))
    return order, conditions


def _include_entries(raw: dict[str, Any]) -> list[tuple[str, Any]]:
    """(path, entry) per job entry under `jobs`/`matrix`."""
    entries: list[tuple[str, Any]] = []
    for key in ("jobs", "matrix"):
        block = raw.get(key)
        if isinstance(block, dict):
            include = block.get("include")
            if isinstance(include, list):
                entries.extend(
                    (f"{key}.include[{i}]", entry) for i, entry in enumerate(include)
                )
            elif include is not None:
                entries.append((f"{key}.include", include))
        elif isinstance(block, list):
            entries.extend((f"{key}[{i}]", entry) for i, entry in enumerate(block))
    return entries


def _build_job(
    path: str,
    entry: dict[str, Any],
    index: int,
    inherited: dict[PhaseKind, tuple[str, ...]],
    warnings: list[str],
    quoted: dict[int, str],
) -> Job:
    # Globals apply only where the job does not override that phase.
    phases = _phase_commands(entry, warnings, quoted, inherited)
    stage = entry.get("stage")
    condition = entry.get("if")
    return Job(
        index=index,
        stage_name=None if stage is None else _label(stage),
        phases=phases,
        condition=None if condition is None else _label(condition),
        branch_only=_branch_only(entry.get("branches")),
        entry_path=path,
    )


def _post_deploy_stages(declared: list[str], jobs: list[Job]) -> frozenset[str]:
    """Stage labels strictly after the first stage holding a deploying job.

    Stage order is the declared stages, then undeclared labels in job order;
    a repeated label counts at its first position.
    """
    order = list(dict.fromkeys([*declared, *map(resolve_stage_name, jobs)]))
    deploying = [order.index(resolve_stage_name(job)) for job in jobs if job.deploys]
    if not deploying:
        return frozenset()
    return frozenset(order[min(deploying) + 1 :])


def parse_config(doc: RawDocument) -> PipelineConfig:
    """Parse one raw configuration into a :class:`PipelineConfig`.

    Raises :class:`MalformedDocument` for unparsable YAML and
    :class:`NotAPipeline` when the minimal-validity gate fails.  Parsing
    never fails on unknown keys; those are preserved in ``raw`` and ignored.
    """
    warnings: list[str] = []
    if doc.invalid_utf8:
        warnings.append("invalid UTF-8 bytes replaced during decoding")
    try:
        data, dup_warnings = _load_yaml(doc.content)
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # libyaml takes UTF-8, so a lone surrogate fails while encoding.
        raise MalformedDocument(f"{doc.path}: {exc}") from exc
    warnings.extend(dup_warnings)

    if not isinstance(data, dict) or not any(
        str(key) in LIFECYCLE_KEYS for key in data
    ):
        raise NotAPipeline(f"{doc.path}: no pipeline lifecycle key found")

    declared_stage_order, stage_conditions = _parse_stages(
        data.get("stages"), warnings
    )
    quoted: dict[int, str] = {}
    inherited = _phase_commands(data, warnings, quoted)

    entries = _include_entries(data)
    jobs: list[Job] = []
    for path, entry in entries:
        if not isinstance(entry, dict):
            warnings.append(f"ignored non-mapping job entry: {_quote(entry, quoted)}")
            continue
        jobs.append(_build_job(path, entry, len(jobs), inherited, warnings, quoted))

    global_condition = data.get("if")
    if not jobs:
        # A config with only global phases runs as exactly one implicit job.
        jobs = [
            Job(
                index=0,
                phases=inherited,
                condition=None if global_condition is None else _label(global_condition),
            )
        ]

    notifications = (
        _parse_notifications(data.get("notifications"))
        if "notifications" in data
        else None
    )

    return PipelineConfig(
        source=doc,
        declared_stage_order=declared_stage_order,
        stage_conditions=stage_conditions,
        jobs=jobs,
        notifications=notifications,
        global_branch_only=_branch_only(data.get("branches")),
        global_condition=None if global_condition is None else _label(global_condition),
        post_deploy_stages=_post_deploy_stages(declared_stage_order, jobs),
        raw=data,
        warnings=warnings,
    )

