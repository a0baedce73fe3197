"""Tool registry and pattern-based detection of tool invocations.

The shipped registry holds 38 technical-debt-management tools, each with
token-anchored detection regexes and metadata (tool type, TDM activity,
debt type).  A pattern only matches at token boundaries — preceded and
followed by whitespace, a line edge, or shell punctuation — so a tool name
embedded in a longer token or a URL path segment never fires.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from importlib import resources
from operator import attrgetter
from typing import Any, Iterable, Mapping, NamedTuple, Sequence

from .config_model import PhaseKind, PipelineConfig
from .script_resolver import (
    LINE_MEMO_MAX_CHARS,
    LINE_MEMO_SIZE,
    ScriptDocument,
    Site,
    command_lines,
    shell_line,
)

TOOL_TYPES = frozenset(
    {"linter", "static_analyzer", "formatter", "linter_analyzer", "architecture_analyzer"}
)
TDM_ACTIVITIES = frozenset({"identification", "measurement", "prevention"})
DEBT_TYPES = frozenset({"code", "build", "security", "architecture"})

SOURCE_CONFIG = "config"
SOURCE_SCRIPT = "script"

INVOCATION_DIRECT = "direct"
INVOCATION_SCRIPT = "script"
INVOCATION_BOTH = "both"

# Token boundary: whitespace, line edge, or shell punctuation.  `/`, `-`,
# `.`, `_` and `=` are intentionally not boundaries: path segments, forks
# like `myflake8fork`, and env assignments must not match.
_BOUNDARY_CLASS = "[\\s;|&()<>'\"`:,]"
_EXPECTED_TOOL_COUNT = 38


class RegistryError(ValueError):
    """Base class for registry validation failures."""


class DuplicateToolId(RegistryError):
    pass


class InvalidPattern(RegistryError):
    pass


class UnknownEnumValue(RegistryError):
    pass


def compile_anchored(pattern: str) -> re.Pattern[str]:
    """Compile `pattern` so it only matches at token boundaries."""
    try:
        return re.compile(
            f"(?:^|(?<={_BOUNDARY_CLASS}))(?:{pattern})(?=$|{_BOUNDARY_CLASS})"
        )
    except re.error as exc:
        raise InvalidPattern(f"pattern {pattern!r} does not compile: {exc}") from exc


@dataclass(frozen=True)
class ToolSpec:
    """One registry entry; `compiled` carries the anchored patterns."""

    id: str
    display_name: str
    patterns: tuple[str, ...]
    tool_type: str
    tdm_activity: frozenset[str]
    debt_type: str
    compiled: tuple[re.Pattern[str], ...]


@dataclass(frozen=True)
class Registry:
    """Immutable set of tool specs, id-sorted for deterministic iteration."""

    tools: tuple[ToolSpec, ...]
    version: str

    def ids(self) -> list[str]:
        return [tool.id for tool in self.tools]

    def __len__(self) -> int:
        return len(self.tools)

    @cached_property
    def _unions(self) -> tuple[re.Pattern[str], re.Pattern[str], re.Pattern[str]] | None:
        """All tools' patterns as three anchored alternations: a prefilter, and
        forward and reversed unions with one group per tool.

        The prefilter has no capture groups and finds where some pattern
        matches; it searches about twice as fast as a capturing union.
        Group k+1 of the forward union is tool k; group k+1 of the reversed
        union is tool n-1-k.  None when a pattern has capture groups, which
        would shift the numbering (and backreferences need them), or when
        the registry is empty.
        """
        if not self.tools or any(
            pattern.groups for tool in self.tools for pattern in tool.compiled
        ):
            return None
        alternatives = [
            "|".join(f"(?:{pattern})" for pattern in tool.patterns) for tool in self.tools
        ]
        grouped = [f"({alternative})" for alternative in alternatives]
        return (
            compile_anchored("|".join(alternatives)),
            compile_anchored("|".join(grouped)),
            compile_anchored("|".join(reversed(grouped))),
        )

    @cached_property
    def _line_memo(self):
        """`_line_hits` for this registry, memoized on (line, install_exclusion).

        Bound to the instance, so a lookup never hashes the tool specs.
        """
        return lru_cache(maxsize=LINE_MEMO_SIZE)(partial(_line_hits, self))

    def line_hits(self, stripped: str, install_exclusion: bool) -> tuple[tuple[str, str], ...]:
        """`_line_hits` of one stripped line, memoized for short lines."""
        if len(stripped) <= LINE_MEMO_MAX_CHARS:
            return self._line_memo(stripped, install_exclusion)
        return _line_hits(self, stripped, install_exclusion)

    def __getstate__(self) -> dict[str, Any]:
        # The line memo is per process and cannot be pickled; a copy builds its own.
        state = dict(self.__dict__)
        state.pop("_line_memo", None)
        return state


class SourceContext(NamedTuple):
    """Where a scanned text comes from, stamped on its detections; a tuple."""

    source: str
    phase: PhaseKind
    job_index: int
    script_path: str | None = None
    ordinal_base: int = 0


class Detection(NamedTuple):
    """One tool sighting on one line of config or script text.

    A named tuple: it equals, hashes and orders as the plain tuple of its
    fields.
    """

    tool_id: str
    source: str
    script_path: str | None
    phase: PhaseKind
    job_index: int
    matched_text: str
    line_ordinal: int


JobShare = tuple[list[Detection], list[tuple[str, PhaseKind]]]


@dataclass
class PipelineToolProfile:
    """The tools found in one pipeline, with their detections per job and per
    script.

    `tools` maps each tool id to its invocation style.  `jobs` maps each
    detection-bearing job index to its config-line detections, in command
    order, and the (script path, phase) sites at which it runs a script with
    detections.  `scripts` maps each script path with detections, in path
    order, to its detections at its first site, and `sites` maps it to the
    deduplicated (job index, phase) sites that run it, the first one
    included.  None is changed after construction.
    """

    tools: dict[str, str]
    jobs: dict[int, JobShare] = field(default_factory=dict)
    scripts: dict[str, list[Detection]] = field(default_factory=dict)
    sites: dict[str, tuple[Site, ...]] = field(default_factory=dict)

    def all_detections(self) -> list[Detection]:
        """Every detection, each script's repeated at each of its sites.

        Per tool in id order: the config detections in command order, then
        per script path in sorted order, site by site, the script's
        detections in line order.
        """
        out = [d for index in sorted(self.jobs) for d in self.jobs[index][0]]
        for path in sorted(self.scripts):
            for job_index, phase in self.sites[path]:
                out.extend(
                    d._replace(job_index=job_index, phase=phase) for d in self.scripts[path]
                )
        out.sort(key=attrgetter("tool_id"))
        return out


def _require(record: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in record:
        raise RegistryError(f"{where}.{key}: missing required field")
    return record[key]


def load_registry(data: Mapping[str, Any]) -> Registry:
    """Validate a registry document and compile its patterns.

    Raises DuplicateToolId, InvalidPattern or UnknownEnumValue (all
    RegistryError subclasses) with the offending field path in the message.
    """
    if not isinstance(data, Mapping):
        raise RegistryError("registry document must be a mapping")
    records = data.get("tools")
    if not isinstance(records, list):
        raise RegistryError("tools: missing or not a list")
    version = str(data.get("version", "0"))

    tools: list[ToolSpec] = []
    seen: set[str] = set()
    for i, record in enumerate(records):
        where = f"tools[{i}]"
        if not isinstance(record, Mapping):
            raise RegistryError(f"{where}: not a mapping")
        tool_id = str(_require(record, "id", where))
        if tool_id != tool_id.lower():
            raise RegistryError(f"{where}.id: {tool_id!r} is not lowercase")
        if tool_id in seen:
            raise DuplicateToolId(f"{where}.id: duplicate tool id {tool_id!r}")
        seen.add(tool_id)

        display_name = str(_require(record, "display_name", where))
        patterns = _require(record, "patterns", where)
        if not isinstance(patterns, list) or not patterns:
            raise InvalidPattern(f"{where}.patterns: must be a non-empty list")
        try:
            compiled = tuple(compile_anchored(str(p)) for p in patterns)
        except InvalidPattern as exc:
            raise InvalidPattern(f"{where}.patterns: {exc}") from exc

        tool_type = str(_require(record, "tool_type", where))
        if tool_type not in TOOL_TYPES:
            raise UnknownEnumValue(f"{where}.tool_type: {tool_type!r}")
        activities = _require(record, "tdm_activity", where)
        if not isinstance(activities, list) or not activities:
            raise UnknownEnumValue(f"{where}.tdm_activity: must be a non-empty list")
        activity_set = frozenset(str(a) for a in activities)
        unknown = activity_set - TDM_ACTIVITIES
        if unknown:
            raise UnknownEnumValue(f"{where}.tdm_activity: {sorted(unknown)!r}")
        debt_type = str(_require(record, "debt_type", where))
        if debt_type not in DEBT_TYPES:
            raise UnknownEnumValue(f"{where}.debt_type: {debt_type!r}")

        tools.append(
            ToolSpec(
                id=tool_id,
                display_name=display_name,
                patterns=tuple(str(p) for p in patterns),
                tool_type=tool_type,
                tdm_activity=activity_set,
                debt_type=debt_type,
                compiled=compiled,
            )
        )

    tools.sort(key=lambda tool: tool.id)
    return Registry(tools=tuple(tools), version=version)


def load_registry_file(path: str) -> Registry:
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise RegistryError(f"{path}: not valid JSON: {exc}") from exc
    return load_registry(data)


def shipped_registry() -> Registry:
    """The packaged 38-tool registry."""
    text = resources.files("tdmscan.data").joinpath("registry.json").read_text("utf-8")
    registry = load_registry(json.loads(text))
    assert len(registry) == _EXPECTED_TOOL_COUNT
    return registry


def _candidate_tools(registry: Registry, parts: Sequence[str]) -> Sequence[ToolSpec]:
    """The tools, in registry order, that can match somewhere in `parts`.

    Every tool whose own patterns find a match is included.  The prefilter
    finds each position where some tool matches; there the forward union
    names the first such tool and the reversed union the last, and only the
    tools in between are tried one by one.
    """
    unions = registry._unions
    if unions is None:
        return registry.tools
    prefilter, forward, backward = unions
    tools = registry.tools
    hits: set[int] = set()
    for part in parts:
        pos = 0
        # `re` clamps `pos` to the end, so an empty match there would repeat
        # forever without this bound.
        while pos <= len(part):
            found = prefilter.search(part, pos)
            if found is None:
                break
            start = found.start()
            first = forward.match(part, start).lastindex - 1
            last = len(tools) - backward.match(part, start).lastindex
            hits.update((first, last))
            for index in range(first + 1, last):
                if index not in hits and any(
                    pattern.match(part, start) for pattern in tools[index].compiled
                ):
                    hits.add(index)
            pos = start + 1
    return [tools[index] for index in sorted(hits)]


def _line_hits(
    registry: Registry, stripped: str, install_exclusion: bool
) -> tuple[tuple[str, str], ...]:
    """(tool id, matched text) per tool found on one stripped, non-comment line.

    With `install_exclusion`, only the segments that install no package (see
    `script_resolver.ShellLine`) are searched.
    """
    parts = shell_line(stripped).searched if install_exclusion else (stripped,)
    if not parts:
        return ()
    hits = []
    for tool in _candidate_tools(registry, parts):
        matched: str | None = None
        for pattern in tool.compiled:
            for part in parts:
                found = pattern.search(part)
                if found:
                    matched = found.group(0)
                    break
            if matched:
                break
        if matched:
            hits.append((tool.id, matched))
    return tuple(hits)


def detect_in_text(
    text: str,
    registry: Registry,
    ctx: SourceContext,
    install_exclusion: bool = True,
) -> list[Detection]:
    """Scan text line by line for tool invocations.

    At most one Detection per (tool, line).  Lines whose leading character
    is `#` are comments and skipped.  With `install_exclusion` on, shell
    segments that merely install a package manager's payload are ignored.
    """
    line_hits = registry.line_hits
    source, phase, job_index, script_path, ordinal_base = ctx
    detections: list[Detection] = []
    for line_index, stripped in command_lines(text):
        for tool_id, matched in line_hits(stripped, install_exclusion):
            detections.append(
                Detection(
                    tool_id,
                    source,
                    script_path,
                    phase,
                    job_index,
                    matched,
                    ordinal_base + line_index,
                )
            )
    return detections


def _sonarcloud_flavored(cfg: PipelineConfig, scripts: Iterable[ScriptDocument]) -> bool:
    addons = cfg.raw.get("addons")
    if isinstance(addons, dict) and "sonarcloud" in addons:
        return True
    if "sonarcloud" in cfg.source.content.lower():
        return True
    for doc in scripts:
        if doc.content and "sonarcloud" in doc.content.lower():
            return True
    return False


def _disambiguate_sonar(
    cfg: PipelineConfig,
    scripts: list[ScriptDocument],
    detections: list[Detection],
    registry: Registry,
) -> list[Detection]:
    """Relabel `sonar-scanner` hits as sonarcloud for sonarcloud pipelines."""
    ids = set(registry.ids())
    if "sonarqube" not in ids or "sonarcloud" not in ids:
        return detections
    if not any(d.tool_id == "sonarqube" for d in detections):
        return detections
    if not _sonarcloud_flavored(cfg, scripts):
        return detections
    return [
        d._replace(tool_id="sonarcloud")
        if d.tool_id == "sonarqube" and "sonar-scanner" in d.matched_text
        else d
        for d in detections
    ]


def profile_pipeline(
    cfg: PipelineConfig,
    scripts: list[ScriptDocument],
    registry: Registry,
    *,
    install_exclusion: bool = True,
    sites: Mapping[str, tuple[Site, ...]],
) -> PipelineToolProfile:
    """Merge config-line and script-content detections into a tool profile.

    `scripts` and `sites` (path -> deduplicated (job, phase) sites) are the
    two results of `collect_script_documents` over the pipeline's commands.
    Each distinct command text is scanned once, and its line hits are
    stamped on every command that runs it.  Each script is scanned once, at
    its first site; its detections are kept there, once, and its sites are
    stored as given.  Per tool, the invocation style is direct, script, or
    both, from the sources of its detections.
    """
    detections: list[Detection] = []
    # Per distinct command text: its detections at its first command, that
    # command's ordinal base, and the text's physical line count.
    scanned: dict[str, tuple[list[Detection], int, int]] = {}
    for job in cfg.jobs:
        job_index = job.index
        for phase, texts in job.phases.items():
            # A command's first line is numbered after every physical line of
            # the commands before it in its phase, each taking at least one.
            base = 0
            for text in texts:
                known = scanned.get(text)
                if known is None:
                    ctx = SourceContext(SOURCE_CONFIG, phase, job_index, ordinal_base=base)
                    found = detect_in_text(text, registry, ctx, install_exclusion)
                    lines = max(1, len(text.splitlines()))
                    scanned[text] = found, base, lines
                    detections.extend(found)
                else:
                    found, first_base, lines = known
                    detections.extend(
                        Detection(
                            d.tool_id,
                            SOURCE_CONFIG,
                            None,
                            phase,
                            job_index,
                            d.matched_text,
                            base - first_base + d.line_ordinal,
                        )
                        for d in found
                    )
                base += lines

    detected_sites: dict[str, tuple[Site, ...]] = {}
    for doc in sorted(scripts, key=attrgetter("path")):
        if doc.content is None:
            continue
        job_index, phase = sites[doc.path][0]
        ctx = SourceContext(SOURCE_SCRIPT, phase, job_index, doc.path)
        found = detect_in_text(doc.content, registry, ctx, install_exclusion)
        if found:
            detections.extend(found)
            detected_sites[doc.path] = sites[doc.path]

    detections = _disambiguate_sonar(cfg, scripts, detections, registry)

    sources: dict[str, set[str]] = {}
    jobs: dict[int, JobShare] = {}
    by_script: dict[str, list[Detection]] = {}
    for detection in detections:
        sources.setdefault(detection.tool_id, set()).add(detection.source)
        if detection.script_path is None:
            jobs.setdefault(detection.job_index, ([], []))[0].append(detection)
        else:
            by_script.setdefault(detection.script_path, []).append(detection)
    for path, path_sites in detected_sites.items():
        for job_index, phase in path_sites:
            jobs.setdefault(job_index, ([], []))[1].append((path, phase))

    tools: dict[str, str] = {}
    for tool_id, tool_sources in sources.items():
        if tool_sources == {SOURCE_CONFIG}:
            tools[tool_id] = INVOCATION_DIRECT
        elif tool_sources == {SOURCE_SCRIPT}:
            tools[tool_id] = INVOCATION_SCRIPT
        else:
            tools[tool_id] = INVOCATION_BOTH
    return PipelineToolProfile(tools, jobs, by_script, detected_sites)
