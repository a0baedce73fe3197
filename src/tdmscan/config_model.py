"""Normalized model of Travis-style CI pipeline configurations.

A pipeline is an ordered list of stages; each stage holds one or more jobs
that run in parallel; each job executes an ordered set of lifecycle phases
whose entries are shell command lines.  Parsing is a pure transformation:
identical input text always yields a structurally identical model.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Iterator, Mapping, NamedTuple

import yaml
from yaml.composer import Composer, ComposerError
from yaml.constructor import SafeConstructor
from yaml.resolver import Resolver

# libyaml produces the parse events when PyYAML ships it; the pure-Python
# reader, scanner and parser do otherwise.  Nodes are always built by
# PyYAML's Python composer, bounded by _TrackingLoader: libyaml's own
# composer recurses on the C stack and crashes the process on deeply nested
# input.
_LIBYAML = yaml.__with_libyaml__
if _LIBYAML:
    from yaml.cyaml import CParser

    _EVENT_SOURCE: tuple[type, ...] = (CParser,)
else:
    from yaml.parser import Parser
    from yaml.reader import Reader
    from yaml.scanner import Scanner

    _EVENT_SOURCE = (Reader, Scanner, Parser)


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


class CommandLine(NamedTuple):
    """A single shell command entry within a job phase.

    A named tuple: it equals, hashes and orders as the plain tuple of its
    fields.
    """

    text: str
    phase: PhaseKind
    job_index: int
    ordinal: int


@dataclass
class Job:
    """One execution unit; jobs of the same stage run in parallel.

    `phases` holds the phases the job runs, its own and the inherited
    global ones alike, keyed in lifecycle (`PhaseKind`) order.
    """

    index: int
    stage_name: str | None = None
    display_name: str | None = None
    phases: dict[PhaseKind, list[CommandLine]] = field(default_factory=dict)
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
    email_explicitly_disabled: bool
    raw: Any


@dataclass
class PipelineConfig:
    """Parsed, normalized model of one pipeline configuration."""

    source: RawDocument
    declared_stage_order: list[str] = field(default_factory=list)
    stage_conditions: dict[str, str] = field(default_factory=dict)
    jobs: list[Job] = field(default_factory=list)
    global_phases: dict[PhaseKind, list[CommandLine]] = field(default_factory=dict)
    notifications: NotificationConfig | None = None
    allow_failures_present: bool = False
    global_branch_only: list[str] | None = None
    global_condition: str | None = None
    post_deploy_stages: frozenset[str] = frozenset()
    raw: Mapping[str, Any] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)


# Input bounds of the composer: collections nested at most this deep, and
# at most this many nodes once every alias is expanded.
_MAX_DEPTH = 100
_MAX_NODES = 100_000


class _TrackingLoader(Composer, *_EVENT_SOURCE, SafeConstructor, Resolver):
    """Safe loader that records duplicate mapping keys (last one wins).

    `Composer` comes first so that its methods override CParser's composer.
    Composing raises ComposerError for input beyond `_MAX_DEPTH` or
    `_MAX_NODES`, or for an alias to a collection that encloses it.
    """

    def __init__(self, stream):
        Composer.__init__(self)
        if _LIBYAML:
            CParser.__init__(self, stream)
        else:
            Reader.__init__(self, stream)
            Scanner.__init__(self)
            Parser.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)
        self.duplicate_keys: list[str] = []
        self._depth = 0
        # Expanded size of each composed collection node.
        self._sizes: dict[yaml.Node, int] = {}

    def compose_sequence_node(self, anchor):
        return self._bounded(Composer.compose_sequence_node, anchor, False)

    def compose_mapping_node(self, anchor):
        return self._bounded(Composer.compose_mapping_node, anchor, True)

    def _bounded(self, compose, anchor, pairs: bool):
        if self._depth == _MAX_DEPTH:
            mark = self.peek_event().start_mark
            raise ComposerError(None, None, f"nested over {_MAX_DEPTH} deep", mark)
        self._depth += 1
        node = compose(self, anchor)
        self._depth -= 1
        size = 1
        for child in chain.from_iterable(node.value) if pairs else node.value:
            if isinstance(child, yaml.ScalarNode):
                size += 1
            elif child in self._sizes:
                size += self._sizes[child]
            else:  # still open: an alias to a collection around it
                problem = "alias to an enclosing collection"
                raise ComposerError(None, None, problem, node.start_mark)
        if size > _MAX_NODES:
            problem = f"over {_MAX_NODES} nodes with aliases expanded"
            raise ComposerError(None, None, problem, node.start_mark)
        self._sizes[node] = size
        return node

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            self.flatten_mapping(node)
            seen = set()
            for key_node, _value in node.value:
                try:
                    key = self.construct_object(key_node, deep=True)
                except yaml.YAMLError:
                    continue
                if isinstance(key, (str, int, float, bool, type(None))):
                    if key in seen:
                        self.duplicate_keys.append(str(key))
                    seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _load_yaml(text: str) -> tuple[Any, list[str]]:
    loader = _TrackingLoader(text)
    try:
        data = loader.get_single_data()
    finally:
        loader.dispose()
    warnings = [
        f"duplicate key '{key}': last occurrence wins"
        for key in loader.duplicate_keys
    ]
    return data, warnings


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


def _command_texts(phase: PhaseKind, value: Any, warnings: list[str]) -> list[str]:
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
            texts.extend(_command_texts(phase, item, warnings))
        elif isinstance(item, Mapping):
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
                f"ignored non-command entry in phase '{phase.value}': {item!r}"
            )
    return texts


def _phase_commands(
    entry: Mapping[str, Any],
    job_index: int,
    warnings: list[str],
    inherited: Mapping[PhaseKind, list[CommandLine]] | None = None,
) -> dict[PhaseKind, list[CommandLine]]:
    """The commands of each phase `entry` declares, keyed in lifecycle order.

    A phase that `entry` does not declare takes `inherited`'s commands,
    built at `job_index`.
    """
    phases: dict[PhaseKind, list[CommandLine]] = {}
    for name, phase in PHASE_BY_NAME.items():
        if name in entry:
            texts = _command_texts(phase, entry[name], warnings)
            phases[phase] = [
                CommandLine(text, phase, job_index, i) for i, text in enumerate(texts)
            ]
        elif inherited and phase in inherited:
            phases[phase] = [
                CommandLine(cmd.text, phase, job_index, cmd.ordinal)
                for cmd in inherited[phase]
            ]
    return phases


def _branch_only(value: Any) -> list[str] | None:
    if not isinstance(value, Mapping):
        return None
    only = value.get("only")
    if only is None:
        return None
    return [str(item) for item in _as_list(only)]


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
    if isinstance(value, Mapping):
        if value.get("enabled") is False:
            return False
        return len(value) > 0
    return True


def _parse_notifications(value: Any) -> NotificationConfig:
    channels: set[str] = set()
    email_disabled = False
    if isinstance(value, Mapping):
        for key, sub in value.items():
            name = str(key)
            if name in _NOTIFICATION_MODIFIERS:
                continue
            kind = name if name in NOTIFICATION_CHANNELS else OTHER_CHANNEL
            if _channel_enabled(sub):
                channels.add(kind)
            elif name == "email":
                email_disabled = True
    return NotificationConfig(frozenset(channels), email_disabled, value)


def _parse_stages(
    value: Any, warnings: list[str]
) -> tuple[list[str], dict[str, str]]:
    order: list[str] = []
    conditions: dict[str, str] = {}
    for entry in _as_list(value):
        if isinstance(entry, Mapping):
            name = entry.get("name")
            if name is None:
                warnings.append("ignored stages entry without a name")
                continue
            label = str(name)
            order.append(label)
            if "if" in entry:
                conditions[label] = str(entry["if"])
        elif entry is not None:
            order.append(str(entry))
    return order, conditions


def _include_entries(raw: Mapping[str, Any]) -> tuple[list[tuple[str, Any]], bool]:
    """(path, entry) per job entry and allow_failures presence under `jobs`/`matrix`."""
    entries: list[tuple[str, Any]] = []
    allow_failures = False
    for key in ("jobs", "matrix"):
        block = raw.get(key)
        if isinstance(block, Mapping):
            include = block.get("include")
            if isinstance(include, list):
                entries.extend(
                    (f"{key}.include[{i}]", entry) for i, entry in enumerate(include)
                )
            elif include is not None:
                entries.append((f"{key}.include", include))
            if "allow_failures" in block:
                allow_failures = True
        elif isinstance(block, list):
            entries.extend((f"{key}[{i}]", entry) for i, entry in enumerate(block))
    return entries, allow_failures


def _build_job(
    path: str,
    entry: Mapping[str, Any],
    index: int,
    global_phases: dict[PhaseKind, list[CommandLine]],
    warnings: list[str],
) -> Job:
    # Globals apply only where the job does not override that phase.
    phases = _phase_commands(entry, index, warnings, global_phases)
    stage = entry.get("stage")
    name = entry.get("name")
    condition = entry.get("if")
    return Job(
        index=index,
        stage_name=None if stage is None else str(stage),
        display_name=None if name is None else str(name),
        phases=phases,
        condition=None if condition is None else str(condition),
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

    if not isinstance(data, Mapping) or not any(
        str(key) in LIFECYCLE_KEYS for key in data
    ):
        raise NotAPipeline(f"{doc.path}: no pipeline lifecycle key found")

    declared_stage_order, stage_conditions = _parse_stages(
        data.get("stages"), warnings
    )
    global_phases = _phase_commands(data, -1, warnings)

    entries, allow_failures = _include_entries(data)
    jobs: list[Job] = []
    for path, entry in entries:
        if not isinstance(entry, Mapping):
            warnings.append(f"ignored non-mapping job entry: {entry!r}")
            continue
        jobs.append(_build_job(path, entry, len(jobs), global_phases, warnings))

    global_condition = data.get("if")
    if not jobs:
        # A config with only global phases runs as exactly one implicit job.
        jobs = [
            Job(
                index=0,
                phases=_phase_commands({}, 0, warnings, global_phases),
                condition=None if global_condition is None else str(global_condition),
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
        global_phases=global_phases,
        notifications=notifications,
        allow_failures_present=allow_failures,
        global_branch_only=_branch_only(data.get("branches")),
        global_condition=None if global_condition is None else str(global_condition),
        post_deploy_stages=_post_deploy_stages(declared_stage_order, jobs),
        raw=data,
        warnings=warnings,
    )


def iter_command_lines(cfg: PipelineConfig) -> Iterator[CommandLine]:
    """All job command lines in deterministic (job, phase, ordinal) order.

    Phase order is `Job.phases`' key order, which is lifecycle order.
    """
    for job in cfg.jobs:
        for commands in job.phases.values():
            yield from commands
