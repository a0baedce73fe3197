"""scripts/make_synthetic_corpus.py: its command line."""

import importlib.util
import os
import random
import subprocess
import sys

SCRIPT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "scripts",
    "make_synthetic_corpus.py",
)


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, SCRIPT, *args], cwd=cwd, capture_output=True, text=True, timeout=60
    )


def _tree(root):
    files = {}
    for directory, _, names in os.walk(root):
        for name in names:
            path = os.path.join(directory, name)
            with open(path, encoding="utf-8") as handle:
                files[os.path.relpath(path, root)] = handle.read()
    return files


def test_help_prints_usage_and_writes_nothing(tmp_path):
    done = _run(tmp_path, "--help")
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: make_synthetic_corpus.py [-h] OUT_DIR [COUNT] [SEED]")
    assert list(tmp_path.iterdir()) == []


def test_positional_arguments_keep_their_meaning_and_defaults(tmp_path):
    done = _run(tmp_path, "out", "3")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "wrote 3 pipelines under out\n"
    spec = importlib.util.spec_from_file_location("make_synthetic_corpus", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    rng = random.Random(7)  # the default SEED
    expected = {
        os.path.join(f"synthetic-{i:05d}", rel): content
        for i in range(3)
        for rel, content in script.build_pipeline(rng).items()
    }
    assert _tree(tmp_path / "out") == expected
    assert _run(tmp_path, "seeded", "3", "7").returncode == 0
    assert _tree(tmp_path / "seeded") == expected
