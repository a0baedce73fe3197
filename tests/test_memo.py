"""BoundedMemo: stores on first sighting, its count and byte bounds, the
weight estimate, and threads."""

import sys
import threading
import time

import pytest

from tdmscan import memo as memo_module
from tdmscan.config_model import PhaseKind
from tdmscan.memo import BoundedMemo, weight


class Calls:
    """A compute function per key that records every call."""

    def __init__(self):
        self.keys = []

    def __call__(self, key):
        def compute():
            self.keys.append(key)
            return ("value", key)

        return compute


@pytest.fixture
def four_values(monkeypatch):
    monkeypatch.setattr(memo_module, "MAX_VALUES", 4)


def _entry_weight(key, value):
    return memo_module._ENTRY_BYTES + weight((key, value))


def test_a_value_is_stored_on_first_sighting():
    memo, calls = BoundedMemo(), Calls()
    assert memo.get("a", calls("a")) == ("value", "a")
    assert dict(memo._values) == {"a": ("value", "a")}
    assert memo.bytes == _entry_weight("a", ("value", "a"))
    assert memo.get("a", calls("a")) is memo._values["a"]
    assert calls.keys == ["a"]


def test_more_keys_than_the_bound_keep_the_most_recent(four_values):
    memo, calls = BoundedMemo(), Calls()
    keys = [f"k{i}" for i in range(10)]
    for key in keys:
        memo.get(key, calls(key))
    assert list(memo._values) == keys[-4:]
    assert memo.bytes == sum(_entry_weight(key, ("value", key)) for key in keys[-4:])
    # A hit makes a key the most recent, so the next store evicts another.
    memo.get("k6", calls("k6"))
    memo.get("k0", calls("k0"))
    assert list(memo._values) == ["k8", "k9", "k6", "k0"]
    assert list(memo._weights) == list(memo._values)
    assert calls.keys == keys + ["k0"]


def test_the_byte_cap_evicts_the_least_recent(monkeypatch):
    entry = _entry_weight("k0", ("value", "k0"))
    # Room for three entries of this weight, not four.
    monkeypatch.setattr(memo_module, "MAX_BYTES", 4 * entry - 1)
    memo, calls = BoundedMemo(), Calls()
    for key in ["k0", "k1", "k2", "k1", "k3"]:
        memo.get(key, calls(key))
    assert list(memo._values) == ["k2", "k1", "k3"]
    assert memo.bytes == 3 * entry
    assert calls.keys == ["k0", "k1", "k2", "k3"]
    # A heavier value evicts as many of the oldest as its weight needs.
    heavy = ("value", "x" * (2 * entry))
    memo.get("heavy", lambda: heavy)
    assert list(memo._values) == ["heavy"]
    assert memo.bytes == _entry_weight("heavy", heavy) <= memo_module.MAX_BYTES


def test_a_value_over_the_byte_cap_is_never_stored(monkeypatch):
    monkeypatch.setattr(memo_module, "MAX_BYTES", 4096)
    memo, calls = BoundedMemo(), Calls()
    memo.get("small", calls("small"))
    huge = tuple(f"line {i}" for i in range(100))
    assert _entry_weight("huge", huge) > 4096
    for _ in range(3):
        assert memo.get("huge", lambda: huge) is huge
    # It is returned every time, but stored never, and it evicts nothing.
    assert list(memo._values) == ["small"]
    assert memo.bytes == _entry_weight("small", ("value", "small"))


def _deep_size(value, seen):
    """Bytes CPython allocates for `value` and what it refers to, each once."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    size = sys.getsizeof(value)
    if isinstance(value, tuple):
        size += sum(_deep_size(item, seen) for item in value)
    return size


@pytest.mark.parametrize(
    "value",
    [
        "",
        "ci/lint.sh",
        "caf\u00e9 \u2603 \U0001f600" * 9,
        ("pipeline",),
        (("row", "lint", "script", "dedicated_stage", "pre_deployment"), (True, None)),
        tuple(("ci/x.sh", (index, PhaseKind.SCRIPT)) for index in range(300)),
        (10**30, 2.5, -7),
    ],
    ids=["empty", "ascii", "non-ascii", "tuple", "record", "references", "numbers"],
)
def test_the_weight_errs_high(value):
    assert weight(value) >= _deep_size(value, set())


def test_an_exception_is_not_memoized():
    memo = BoundedMemo()

    def fail():
        raise ValueError("boom")

    for _ in range(3):
        with pytest.raises(ValueError, match="boom"):
            memo.get("bad", fail)
    assert dict(memo._values) == {}


class Yielding:
    """A key whose hash and equality give other threads a turn."""

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        time.sleep(0)
        return hash(self.name)

    def __eq__(self, other):
        time.sleep(0)
        return isinstance(other, Yielding) and other.name == self.name


def test_threads_sharing_a_memo_keep_its_bound_and_values(four_values):
    memo = BoundedMemo()
    keys = [Yielding(f"k{i}") for i in range(12)]
    errors = []

    def work(offset):
        try:
            for round_ in range(100):
                for index in range(len(keys)):
                    key = keys[(index * 7 + offset + round_) % len(keys)]
                    value = memo.get(key, lambda key=key: ("value", key.name))
                    if value != ("value", key.name):
                        errors.append((key.name, value))
                    with memo._lock:
                        if len(memo._values) > memo_module.MAX_VALUES:
                            errors.append(("size", len(memo._values)))
                        if memo.bytes != sum(memo._weights.values()):
                            errors.append(("bytes", memo.bytes))
        except Exception as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(memo._values) == memo_module.MAX_VALUES
    assert list(memo._weights) == list(memo._values)
    assert all(value == ("value", key.name) for key, value in memo._values.items())
