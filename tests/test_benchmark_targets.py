"""The benchmark's tracer reaches into tdmscan by name; those names must exist.

`scanbench/tracing.py` wraps each `WRAPS` target and silently lists a
missing one, so a rename in `src/` would drop its layer metrics without a
failing test anywhere else.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(__file__), "..", "scanbench", "tracing.py")
# Deleted on purpose; the benchmark still lists it.
KNOWN_MISSING = {"tdmscan.ingest._read_local_file"}


def _wraps():
    spec = importlib.util.spec_from_file_location("scanbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_tracer_targets_resolve():
    missing = set()
    for _name, module_name, path, _entry_of, _count in _wraps():
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{path}")
    assert missing <= KNOWN_MISSING
