"""The benchmark's tracer reaches into tdmscan by name; those names must exist.

`scanbench/tracing.py` wraps each `WRAPS` target and silently lists a
missing one, so a rename in `src/` would drop its layer metrics without a
failing test anywhere else.  Its trace mode also reads what the wrapped
calls return, so one traced scan of the fixture corpus runs here too.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

TRACING = os.path.join(os.path.dirname(__file__), "..", "scanbench", "tracing.py")
# Deleted on purpose; the benchmark still lists it.
KNOWN_MISSING = {"tdmscan.ingest._read_local_file"}


def _tracing():
    spec = importlib.util.spec_from_file_location("scanbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    missing = set()
    for _name, module_name, path, _entry_of, _count in _tracing().WRAPS:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{path}")
    assert missing <= KNOWN_MISSING


def test_traced_scan_fills_the_layer_metrics(tmp_path):
    # The counters read `.resolved` on collect_script_documents(...)[0],
    # `true_findings()` on evaluate(...), and so on.
    root = os.path.join(os.path.dirname(__file__), "..")
    corpus = os.path.join(os.path.dirname(__file__), "fixtures", "corpus")
    child = os.path.join(root, "scanbench", "child.py")
    args = [os.path.join(root, "src"), corpus, str(tmp_path / "out"), str(tmp_path / "spans")]
    run = subprocess.run(
        [sys.executable, child, "trace", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    # A wrapper that raises on a result ends its entry `failed`, not the scan.
    assert "failed" not in result["statuses"].values()
    assert set(result["missing"]) == KNOWN_MISSING
    tracing = _tracing()
    installed = {
        name
        for name, module_name, path, _entry_of, _count in tracing.WRAPS
        if f"{module_name}.{path}" not in KNOWN_MISSING
    }
    expected = {
        metric
        for metric, (_kind, names) in tracing.LAYER_METRICS.items()
        if installed.intersection(names)
    }
    layers = result["layers"]
    assert expected <= set(layers)
    for metric in (
        "script_resolver.scripts",
        "registry.detections",
        "placement.results",
        "placement.timing_calls",
        "antipatterns.findings",
    ):
        assert layers[metric] > 0, metric
