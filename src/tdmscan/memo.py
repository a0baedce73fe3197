"""A bounded, thread-safe memo that stores a value on its key's second sighting.

Mined corpora repeat some inputs many times and most inputs never, so a memo
that stored every value would grow with the distinct inputs for no gain.
`AdmissionMemo` remembers only the hash of a key seen once (a small
doorkeeper); the value is stored when the key comes back.  A hash collision
only admits a key early: lookups compare the full key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")

# Hashes of keys seen once, oldest forgotten first.
_DOORKEEPER_SIZE = 4096


class AdmissionMemo(Generic[V]):
    """An LRU of at most `size` values, each admitted on its second sighting.

    Stored values are shared by every caller that looks the key up and must
    not be mutated.  `compute` runs outside the lock, and a value is stored
    only when it returns, so an exception is never memoized.
    """

    def __init__(self, size: int):
        self.size = size
        self._values: OrderedDict[Hashable, V] = OrderedDict()
        self._seen: dict[int, None] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        with self._lock:
            if key in self._values:
                self._values.move_to_end(key)
                return self._values[key]
            digest = hash(key)
            admit = digest in self._seen
            if admit:
                del self._seen[digest]
            else:
                self._seen[digest] = None
                if len(self._seen) > _DOORKEEPER_SIZE:
                    del self._seen[next(iter(self._seen))]
        value = compute()
        if admit:
            with self._lock:
                self._values[key] = value
                self._values.move_to_end(key)
                if len(self._values) > self.size:
                    self._values.popitem(last=False)
        return value
