#!/usr/bin/env python3
"""Generate a synthetic corpus directory for demos and benchmarking.

Each pipeline is a small, plausible config; roughly half contain a
registry tool, some via an external script, and a sprinkling carry the
notification / allow_failures shapes the anti-pattern rules look at.

Usage:
    python scripts/make_synthetic_corpus.py OUT_DIR [COUNT] [SEED]
"""

import argparse
import os
import random

TOOL_LINES = [
    "flake8 src tests",
    "shellcheck scripts/run.sh",
    "pylint mypkg",
    "cppcheck --enable=all src",
    "go vet ./...",
    "eslint .",
    "mypy pkg",
    "black --check .",
    "rubocop",
    "bandit -r src",
]
PLAIN_LINES = ["make test", "pytest -q", "npm test", "cargo test", "./gradlew build"]
NOTIFICATIONS = [
    None,
    "notifications:\n  email: true\n",
    "notifications:\n  email: false\n",
    "notifications:\n  slack: team:tok\n",
    "notifications:\n  email: true\n  slack: team:tok\n",
]


def build_pipeline(rng: random.Random) -> dict[str, str]:
    files: dict[str, str] = {}
    lines = [rng.choice(PLAIN_LINES)]
    if rng.random() < 0.55:
        tool_line = rng.choice(TOOL_LINES)
        if rng.random() < 0.4:
            files["ci/checks.sh"] = f"#!/bin/sh\n{tool_line}\n"
            lines.append("./ci/checks.sh")
        else:
            lines.append(tool_line)
    script_block = "".join(f"  - {line}\n" for line in lines)
    config = f"language: python\nscript:\n{script_block}"
    notification = rng.choice(NOTIFICATIONS)
    if notification:
        config += notification
    if rng.random() < 0.15:
        config += "jobs:\n  allow_failures:\n    - name: checks\n"
    if rng.random() < 0.1:
        config += "branches:\n  only: [main]\n"
    files[".travis.yml"] = config
    return files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", metavar="OUT_DIR", help="directory to write under")
    parser.add_argument(
        "count", metavar="COUNT", type=int, nargs="?", default=1000,
        help="number of pipelines (default 1000)",
    )
    parser.add_argument(
        "seed", metavar="SEED", type=int, nargs="?", default=7, help="random seed (default 7)"
    )
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for i in range(args.count):
        slug = f"synthetic-{i:05d}"
        for rel, content in build_pipeline(rng).items():
            path = os.path.join(args.out_dir, slug, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as handle:
                handle.write(content)
    print(f"wrote {args.count} pipelines under {args.out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
