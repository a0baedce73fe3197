"""AdmissionMemo: second-sighting admission, the LRU bound, and threads."""

import sys
import threading
import time

import pytest

from tdmscan import memo as memo_module
from tdmscan.memo import AdmissionMemo


class Calls:
    """A compute function per key that records every call."""

    def __init__(self):
        self.keys = []

    def __call__(self, key):
        def compute():
            self.keys.append(key)
            return ("value", key)

        return compute


def test_a_key_seen_once_stores_no_value():
    memo, calls = AdmissionMemo(4), Calls()
    assert memo.get("a", calls("a")) == ("value", "a")
    assert dict(memo._values) == {}
    assert memo.get("a", calls("a")) == ("value", "a")
    assert list(memo._values) == ["a"]
    assert memo.get("a", calls("a")) == ("value", "a")
    assert calls.keys == ["a", "a"]


def test_more_keys_than_the_bound_keep_the_most_recent():
    memo, calls = AdmissionMemo(4), Calls()
    keys = [f"k{i}" for i in range(10)]
    for _ in range(2):
        for key in keys:
            memo.get(key, calls(key))
    assert list(memo._values) == keys[-4:]
    # A hit makes a key the most recent, so the next store evicts another.
    memo.get("k6", calls("k6"))
    memo.get("k0", calls("k0"))
    assert list(memo._values) == ["k7", "k8", "k9", "k6"]
    assert len(calls.keys) == 21


def test_the_doorkeeper_forgets_its_oldest_first_sightings(monkeypatch):
    monkeypatch.setattr(memo_module, "_DOORKEEPER_SIZE", 3)
    memo, calls = AdmissionMemo(8), Calls()
    for key in "abcdcba":
        memo.get(key, calls(key))
    # "a" was forgotten before its second sighting, which counted as a first.
    assert list(memo._values) == ["c", "b"]
    assert list(memo._seen) == [hash("d"), hash("a")]


def test_an_exception_is_not_memoized():
    memo = AdmissionMemo(4)

    def fail():
        raise ValueError("boom")

    for _ in range(3):
        with pytest.raises(ValueError, match="boom"):
            memo.get("bad", fail)
    assert dict(memo._values) == {}


class Colliding:
    """Distinct keys that share one hash."""

    def __init__(self, name):
        self.name = name

    def __hash__(self):
        return 7

    def __eq__(self, other):
        return isinstance(other, Colliding) and other.name == self.name


def test_a_hash_collision_only_admits_early():
    memo, calls = AdmissionMemo(4), Calls()
    first, second = Colliding("first"), Colliding("second")
    memo.get(first, calls("first"))
    # Admitted on its first sighting, because `first` left its hash behind,
    # but it is stored and found under its own full key.
    assert memo.get(second, calls("second")) == ("value", "second")
    assert list(memo._values) == [second]
    assert memo.get(second, calls("second")) == ("value", "second")
    assert memo.get(first, calls("first")) == ("value", "first")
    assert calls.keys == ["first", "second", "first"]


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


def test_threads_sharing_a_memo_keep_its_bound_and_values():
    memo = AdmissionMemo(4)
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
                        if len(memo._values) > memo.size:
                            errors.append(("size", len(memo._values)))
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
    assert len(memo._values) == memo.size
    assert all(value == ("value", key.name) for key, value in memo._values.items())
