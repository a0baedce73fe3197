"""BoundedMemo: stores on first sighting, its count and byte bounds, and the
weight estimate."""

import sys

import pytest
from hypothesis import given, settings, strategies as st

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


def _held(memo):
    """The memo's stored values by key, least recently used first."""
    return {key: value for key, (value, _) in memo._entries.items()}


def test_a_value_is_stored_on_first_sighting():
    memo, calls = BoundedMemo(), Calls()
    assert memo.get("a", calls("a")) == ("value", "a")
    assert _held(memo) == {"a": ("value", "a")}
    assert memo.bytes == _entry_weight("a", ("value", "a"))
    assert memo.get("a", calls("a")) is _held(memo)["a"]
    assert calls.keys == ["a"]


def test_more_keys_than_the_bound_keep_the_most_recent(four_values):
    memo, calls = BoundedMemo(), Calls()
    keys = [f"k{i}" for i in range(10)]
    for key in keys:
        memo.get(key, calls(key))
    assert list(memo._entries) == keys[-4:]
    assert memo.bytes == sum(_entry_weight(key, ("value", key)) for key in keys[-4:])
    # A hit makes a key the most recent, so the next store evicts another.
    memo.get("k6", calls("k6"))
    memo.get("k0", calls("k0"))
    assert list(memo._entries) == ["k8", "k9", "k6", "k0"]
    assert calls.keys == keys + ["k0"]


def test_the_byte_cap_evicts_the_least_recent(monkeypatch):
    entry = _entry_weight("k0", ("value", "k0"))
    # Room for three entries of this weight, not four.
    monkeypatch.setattr(memo_module, "MAX_BYTES", 4 * entry - 1)
    memo, calls = BoundedMemo(), Calls()
    for key in ["k0", "k1", "k2", "k1", "k3"]:
        memo.get(key, calls(key))
    assert list(memo._entries) == ["k2", "k1", "k3"]
    assert memo.bytes == 3 * entry
    assert calls.keys == ["k0", "k1", "k2", "k3"]
    # A heavier value evicts as many of the oldest as its weight needs.
    heavy = ("value", "x" * (2 * entry))
    memo.get("heavy", lambda: heavy)
    assert list(memo._entries) == ["heavy"]
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
    assert list(memo._entries) == ["small"]
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
    assert _held(memo) == {}


# Keys drawn from few names, so that hits, evictions and re-stores mix;
# values of varied size, some over the byte cap on their own.
_GETS = st.lists(
    st.tuples(st.sampled_from("abcdefgh"), st.integers(0, 600)), max_size=60
)


@settings(max_examples=300, deadline=None)
@given(gets=_GETS, max_values=st.integers(1, 5), max_bytes=st.integers(200, 1500))
def test_the_memo_matches_a_plain_lru_model(gets, max_values, max_bytes):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(memo_module, "MAX_VALUES", max_values)
        patch.setattr(memo_module, "MAX_BYTES", max_bytes)
        memo = BoundedMemo()
        model = []  # (key, value) held, least recently used first
        for key, length in gets:
            value = ("value", "x" * length)
            stored = dict(model)
            got = memo.get(key, lambda value=value: value)
            assert got == stored.get(key, value)
            if key in stored:
                model = [(k, v) for k, v in model if k != key] + [(key, stored[key])]
            elif _entry_weight(key, value) <= max_bytes:
                model.append((key, value))
                while len(model) > max_values or (
                    sum(_entry_weight(k, v) for k, v in model) > max_bytes
                ):
                    model.pop(0)
            assert list(_held(memo).items()) == model
            assert memo.bytes == sum(_entry_weight(k, v) for k, v in model)
            assert all(size <= max_bytes for _, size in memo._entries.values())
