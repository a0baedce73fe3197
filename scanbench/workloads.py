"""Seeded workload generators for the scan benchmark, each with its oracle.

A workload is a `<root>/<slug>/` corpus directory, the layout `tdmscan scan`
reads, plus an oracle that says what the generator put in every entry: its
expected status, the tools it inserted with their invocation style, and the
anti-pattern flags. `matrix-heavy` also records the expected timing rows.
The oracle comes only from the generator, never from tdmscan, and nothing
here imports the repository's `scripts/`, so edits there cannot shift a
workload.

The seed picks tools, arguments, flags and entry names. The size ladders
(entries, jobs, script lines) are fixed per workload, so runs with different
seeds do the same amount of work of each kind.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

CONFIG = ".travis.yml"

# Expected entry outcomes. "rejected" is an entry the generator knows cannot
# be analysed; tdmscan may report it as skipped or failed.
OK = "ok"
SKIPPED = "skipped"
REJECTED = "rejected"

DIRECT = "direct"
SCRIPT = "script"
BOTH = "both"

FINDINGS = ("late_merging", "skip_on_failure", "absent_feedback", "email_only")

# tool id -> command heads that invoke it. Arguments are added per use; no
# argument ever spells another tool's name as a separate token.
TOOL_HEADS = {
    "bandit": "bandit -r",
    "black": "black --check",
    "cppcheck": "cppcheck --enable=all",
    "cpplint": "cpplint --recursive",
    "eslint": "eslint",
    "flake8": "flake8",
    "golangci_lint": "golangci-lint run",
    "govet": "go vet",
    "hadolint": "hadolint",
    "ktlint": "ktlint",
    "mypy": "mypy",
    "phpstan": "vendor/bin/phpstan analyse",
    "prettier": "prettier --check",
    "pylint": "pylint",
    "rubocop": "rubocop",
    "ruff": "ruff check",
    "shellcheck": "shellcheck",
    "staticcheck": "staticcheck",
    "stylelint": "stylelint",
    "yamllint": "yamllint",
}
TOOL_IDS = tuple(sorted(TOOL_HEADS))

# Installer lines name tools but must not count as invocations.
INSTALLERS = ("pip install", "pip3 install", "npm install", "python -m pip install")

# The synthetic-small distribution: the paper's many-tiny-configs shape.
SMALL_TOOL_LINES = (
    ("flake8", "flake8 src tests"),
    ("shellcheck", "shellcheck scripts/run.sh"),
    ("pylint", "pylint mypkg"),
    ("cppcheck", "cppcheck --enable=all src"),
    ("govet", "go vet ./..."),
    ("eslint", "eslint ."),
    ("mypy", "mypy pkg"),
    ("black", "black --check ."),
    ("rubocop", "rubocop"),
    ("bandit", "bandit -r src"),
)
SMALL_PLAIN_LINES = ("make test", "pytest -q", "npm test", "cargo test", "./gradlew build")
PLAIN_LINES = (
    "make test",
    "pytest -q",
    "npm test",
    "cargo test",
    "echo building",
    "cmake --build build",
    "tox -e py311",
    "go test ./...",
    "bundle exec rake spec",
    "mvn -B verify",
)

# (yaml text or None, absent_feedback, email_only)
NOTIFICATIONS = (
    (None, True, False),
    ("notifications:\n  email: true\n", False, True),
    ("notifications:\n  email: false\n", True, False),
    ("notifications:\n  slack: team:tok\n", False, False),
    ("notifications:\n  email: true\n  slack: team:tok\n", False, False),
)

MATRIX_STAGES = ("lint", "test", "deploy", "report")


@dataclass
class Entry:
    """One generated corpus entry and what the generator knows about it."""

    slug: str
    files: dict[str, bytes]
    status: str = OK
    tools: dict[str, str] = field(default_factory=dict)
    flags: dict[str, bool] = field(default_factory=lambda: dict.fromkeys(FINDINGS, False))
    kind: str = "pipeline"


@dataclass
class Workload:
    name: str
    seed: int
    entries: list[Entry]
    timing: dict[str, dict[str, int]] | None = None

    def oracle(self) -> dict:
        return {
            "workload": self.name,
            "seed": self.seed,
            "entries": {
                e.slug: {
                    "status": e.status,
                    "kind": e.kind,
                    "tools": dict(sorted(e.tools.items())),
                    "flags": e.flags,
                }
                for e in sorted(self.entries, key=lambda e: e.slug)
            },
            "timing": self.timing,
        }


def _invocation(direct: set[str], script: set[str]) -> dict[str, str]:
    tools = {}
    for tool in direct | script:
        if tool in direct and tool in script:
            tools[tool] = BOTH
        else:
            tools[tool] = DIRECT if tool in direct else SCRIPT
    return tools


def _tool_line(tool: str, tag: str) -> str:
    return f"{TOOL_HEADS[tool]} src/{tag}"


def _yaml_list(key: str, lines: list[str], indent: str = "") -> str:
    body = "".join(f"{indent}  - {json.dumps(line)}\n" for line in lines)
    return f"{indent}{key}:\n{body}"


def _flags(has_tools: bool, notification: int, allow_failures: bool, main_only: bool):
    _text, absent, email_only = NOTIFICATIONS[notification]
    return {
        "late_merging": has_tools and main_only,
        "skip_on_failure": allow_failures,
        "absent_feedback": absent,
        "email_only": email_only,
    }


def _pipeline_tail(notification: int, main_only: bool) -> str:
    text = NOTIFICATIONS[notification][0] or ""
    if main_only:
        text += "branches:\n  only: [main]\n"
    return text


def bad_entries(prefix: str) -> list[Entry]:
    """Realistic unanalysable or odd entries, one of each kind.

    The self-referencing alias stays in every workload: tdmscan reports it
    as failed today, and failed_share must show it until that is fixed.
    """
    fanout = "".join(
        [
            "language: python\n",
            'a: &a ["flake8 src"]\n',
            "b: &b [" + ", ".join(["*a"] * 10) + "]\n",
            "c: &c [" + ", ".join(["*b"] * 10) + "]\n",
            "script: [" + ", ".join(["*c"] * 10) + "]\n",
        ]
    )
    no_tools = dict.fromkeys(FINDINGS, False)
    absent = {**no_tools, "absent_feedback": True}
    return [
        Entry(f"{prefix}-not-a-pipeline", {CONFIG: b"name: docs\nversion: 2\n"},
              SKIPPED, kind="not_a_pipeline"),
        Entry(f"{prefix}-malformed", {CONFIG: b"language: python\nscript: [make test\n"},
              SKIPPED, kind="malformed_yaml"),
        Entry(f"{prefix}-missing-config", {"ci/lint.sh": b"flake8 src\n"},
              SKIPPED, kind="missing_config"),
        Entry(
            f"{prefix}-duplicate-keys",
            {CONFIG: b"language: python\nscript:\n  - make test\nscript:\n  - pylint pkg\n"},
            OK, {"pylint": DIRECT}, absent, kind="duplicate_keys",
        ),
        Entry(
            f"{prefix}-invalid-utf8",
            {CONFIG: b"# caf\xe9 \xff\xfe\nlanguage: python\nscript:\n  - mypy pkg\n"},
            OK, {"mypy": DIRECT}, absent, kind="invalid_utf8",
        ),
        Entry(f"{prefix}-alias-fanout", {CONFIG: fanout.encode()}, OK,
              {"flake8": DIRECT}, absent, kind="alias_fanout"),
        Entry(
            f"{prefix}-self-alias",
            {CONFIG: b"language: python\nscript: &s [flake8, *s]\n"},
            REJECTED, kind="self_alias",
        ),
    ]


def synthetic_small(seed: int, count: int = 1000, bad_copies: int = 2) -> Workload:
    """Many tiny configs; YAML parsing and ingest dominate."""
    rng = random.Random(seed)
    entries = []
    for i in range(count):
        files: dict[str, bytes] = {}
        direct: set[str] = set()
        script: set[str] = set()
        lines = [rng.choice(SMALL_PLAIN_LINES)]
        if rng.random() < 0.55:
            tool, line = rng.choice(SMALL_TOOL_LINES)
            if rng.random() < 0.4:
                files["ci/checks.sh"] = f"#!/bin/sh\n{line}\n".encode()
                lines.append("./ci/checks.sh")
                script.add(tool)
            else:
                lines.append(line)
                direct.add(tool)
        notification = rng.randrange(len(NOTIFICATIONS))
        allow_failures = rng.random() < 0.15
        main_only = rng.random() < 0.1
        config = "language: python\n" + _yaml_list("script", lines)
        if allow_failures:
            config += "jobs:\n  allow_failures:\n    - name: checks\n"
        config += _pipeline_tail(notification, main_only)
        files[CONFIG] = config.encode()
        tools = _invocation(direct, script)
        entries.append(
            Entry(f"small-{i:05d}", files, OK, tools,
                  _flags(bool(tools), notification, allow_failures, main_only))
        )
    for copy in range(bad_copies):
        entries.extend(bad_entries(f"small-bad{copy}"))
    return Workload("synthetic-small", seed, entries)


def _ladder(low: int, high: int, count: int, step: int) -> list[int]:
    """`count` values spread evenly over [low, high], in a fixed shuffled order."""
    values = [low + (high - low) * i // max(1, count - 1) for i in range(count)]
    return [values[(i * step) % count] for i in range(count)]


def matrix_heavy(seed: int, count: int = 100, max_jobs: int = 20) -> Workload:
    """Job matrices whose jobs all run one shared script per pipeline.

    Placement/timing cost grows with jobs x detections and the shared
    script is rescanned once per job, so both grow faster than linearly
    with matrix size; YAML parsing is a minor share. Job counts and script
    lengths follow fixed ladders, so the latency tail comes from the large
    matrices on every seed.
    """
    rng = random.Random(seed)
    job_counts = _ladder(5, max_jobs, count, 37)
    script_sizes = _ladder(10, 14, count, 53)
    entries = []
    timing = {s: {"pre_deployment": 0, "post_deployment": 0} for s in (DIRECT, SCRIPT)}
    for i in range(count):
        jobs = job_counts[i]
        tools = rng.sample(TOOL_IDS, 4)
        script_lines = ["#!/bin/bash", "set -euo pipefail"]
        for n in range(script_sizes[i]):
            if n % 3 != 2:
                script_lines.append(_tool_line(tools[n % len(tools)], f"mod{n}"))
            else:
                script_lines.append(f"{rng.choice(PLAIN_LINES)} # step {n}")
        script_tools = {tools[n % len(tools)] for n in range(script_sizes[i]) if n % 3 != 2}
        files = {
            "ci/check.sh": ("\n".join(script_lines) + "\n").encode(),
            "ci/deploy.sh": b"#!/bin/sh\necho deploying\nrsync -a build/ host:/srv/app\n",
        }
        direct: set[str] = set()
        # Stage mix: at least one deploy and one report job per pipeline.
        stages = ["deploy", "report"] + [
            MATRIX_STAGES[j % 2] if j % 5 else rng.choice(MATRIX_STAGES)
            for j in range(jobs - 2)
        ]
        rng.shuffle(stages)
        job_blocks = []
        for j, stage in enumerate(stages):
            block = [f"    - stage: {stage}\n"]
            script = ["./ci/check.sh"]
            config_tool = None
            if stage != "deploy" and j % 4 == 0:
                config_tool = rng.choice(tools)
                script.append(_tool_line(config_tool, f"job{j}"))
            block.append(_yaml_list("script", script, "      "))
            post_config = stage == "report"
            if stage == "deploy":
                block.append(
                    "      deploy:\n        provider: script\n"
                    "        script: bash ci/deploy.sh\n"
                )
                if j % 2 == 0:
                    config_tool = rng.choice(tools)
                    block.append(
                        _yaml_list("after_deploy", [_tool_line(config_tool, "dist")], "      ")
                    )
                    post_config = True
            job_blocks.append("".join(block))
            when = "post_deployment" if stage == "report" else "pre_deployment"
            timing[SCRIPT][when] += 1
            if config_tool is not None:
                direct.add(config_tool)
                timing[DIRECT]["post_deployment" if post_config else "pre_deployment"] += 1
        notification = rng.randrange(len(NOTIFICATIONS))
        allow_failures = rng.random() < 0.25
        main_only = rng.random() < 0.2
        config = (
            "language: python\n"
            "stages: [lint, test, deploy, report]\n"
            "jobs:\n  include:\n" + "".join(job_blocks)
        )
        if allow_failures:
            config += "  allow_failures:\n    - stage: report\n"
        config += _pipeline_tail(notification, main_only)
        files[CONFIG] = config.encode()
        tool_map = _invocation(direct, script_tools)
        entries.append(
            Entry(f"matrix-{i:04d}", files, OK, tool_map,
                  _flags(True, notification, allow_failures, main_only))
        )
    bad = bad_entries("matrix-bad")
    # Each analysable bad entry is one implicit job with one direct tool.
    timing[DIRECT]["pre_deployment"] += sum(1 for e in bad if e.status == OK)
    entries.extend(bad)
    return Workload("matrix-heavy", seed, entries, timing)


def tool_dense(seed: int, count: int = 200) -> Workload:
    """Long inline command lists and several distinct scripts per pipeline.

    Every text the detector scans within a pipeline is distinct, so a
    script-dedup change should not move this workload, while a faster
    per-line matcher should.
    """
    rng = random.Random(seed)
    inline_sizes = _ladder(16, 44, count, 31)
    script_counts = _ladder(3, 8, count, 17)
    entries = []
    for i in range(count):
        tools = rng.sample(TOOL_IDS, 10)
        direct: set[str] = set()
        script: set[str] = set()
        files: dict[str, bytes] = {}
        setup = [f"{INSTALLERS[k % len(INSTALLERS)]} {' '.join(tools[k::3])}" for k in range(3)]
        commands = []
        for n in range(inline_sizes[i]):
            kind = n % 4
            if kind == 3:
                commands.append(f"{rng.choice(PLAIN_LINES)} # part {n}")
                continue
            tool = tools[(n * 7 + i) % len(tools)]
            direct.add(tool)
            line = _tool_line(tool, f"pkg{n}")
            if kind == 0:
                line = f"{rng.choice(INSTALLERS)} {tool.replace('_', '-')} && {line}"
            elif kind == 1:
                line = f"{line} && {rng.choice(PLAIN_LINES)} # run {n}"
            commands.append(line)
        for s in range(script_counts[i]):
            path = f"ci/s{s}.sh"
            body = ["#!/bin/sh", "set -e"]
            for n in range(8 + 3 * s):
                if n % 2:
                    body.append(f"{rng.choice(PLAIN_LINES)} # s{s} line {n}")
                else:
                    tool = tools[(n + s * 3) % len(tools)]
                    script.add(tool)
                    body.append(_tool_line(tool, f"s{s}/m{n}"))
            files[path] = ("\n".join(body) + "\n").encode()
            commands.insert(1 + s * 5, f"bash {path}")
        notification = rng.randrange(len(NOTIFICATIONS))
        allow_failures = rng.random() < 0.2
        main_only = rng.random() < 0.15
        config = (
            "language: python\n"
            + _yaml_list("before_install", setup)
            + _yaml_list("script", commands)
        )
        if allow_failures:
            config += "jobs:\n  allow_failures:\n    - env: SLOW=1\n"
        config += _pipeline_tail(notification, main_only)
        files[CONFIG] = config.encode()
        tool_map = _invocation(direct, script)
        entries.append(
            Entry(f"dense-{i:04d}", files, OK, tool_map,
                  _flags(True, notification, allow_failures, main_only))
        )
    entries.extend(bad_entries("dense-bad"))
    return Workload("tool-dense", seed, entries)


GENERATORS = {
    "synthetic-small": synthetic_small,
    "matrix-heavy": matrix_heavy,
    "tool-dense": tool_dense,
}


def write(workload: Workload, corpus_dir: str, oracle_path: str) -> None:
    """Write the corpus tree and, outside it, the oracle sidecar."""
    for entry in workload.entries:
        slug_dir = os.path.join(corpus_dir, entry.slug)
        os.makedirs(slug_dir, exist_ok=True)
        for rel, content in entry.files.items():
            path = os.path.join(slug_dir, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as handle:
                handle.write(content)
    with open(oracle_path, "w", encoding="utf-8") as handle:
        json.dump(workload.oracle(), handle, sort_keys=True, indent=1)
        handle.write("\n")
