"""An LRU memo bounded both in values and in estimated bytes.

Mined corpora repeat whole inputs (templates, forks, boilerplate), so each
distinct input is worth analyzing once per scan share.  `BoundedMemo`
stores a value the first time its key is seen; each scan share keys its
own memo on digests and stores small immutable summaries, so a value costs
little.  Only its share's thread uses a memo, so it takes no lock.  Two
caps bound what a memo holds however many distinct inputs a corpus has: at
most `MAX_VALUES` values and at most `MAX_BYTES` estimated bytes (see
`weight`), least recently used first out.  A value heavier than the byte
cap on its own is returned but never stored.  A memo also shares equal
record keys (`share`), so its table of keys ends with its share too.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")

# Per memo: the most values, and the most estimated bytes, it holds.
MAX_VALUES = 4096
MAX_BYTES = 16 << 20

# Estimated bytes of one stored entry's dict slots and LRU link, and of one
# object with the reference that holds it.
_ENTRY_BYTES = 192
_OBJECT_BYTES = 72


def weight(value: object) -> int:
    """Estimated bytes that `value` keeps alive, from its object count and
    its strings' lengths.

    Made for the memos' keys and values: strings, ints, None, enum members
    and tuples of them, named tuples included; any other object counts as
    one object.  Every object is counted as if the value owned it alone,
    and when a string is not ASCII every character at four bytes plus as
    many for a cached UTF-8 copy, so the estimate errs high.  Tuples are
    walked a level at a time, without a call per element.
    """
    objects = 0
    strings: list[str] = []
    level = [value]
    while level:
        objects += len(level)
        deeper: list = []
        for item in level:
            if isinstance(item, tuple):
                deeper += item
            elif isinstance(item, str):
                strings.append(item)
        level = deeper
    text = "".join(strings)
    chars = len(text) if text.isascii() else 8 * len(text)
    return _OBJECT_BYTES * objects + chars


class BoundedMemo(Generic[V]):
    """An LRU of at most `MAX_VALUES` values and `MAX_BYTES` estimated bytes.

    Stored values are shared by every caller that looks the key up and must
    not be mutated.  A value is stored only when `compute` returns, so an
    exception is never memoized.  An entry's weight, its key and value
    together, is estimated once, when it is stored, and kept beside its
    value.
    """

    def __init__(self):
        self._entries: OrderedDict[Hashable, tuple[V, int]] = OrderedDict()
        self.bytes = 0
        self._keys: dict[tuple, tuple] = {}

    def share(self, key: tuple) -> tuple:
        """The first tuple equal to `key` this memo was given; each weight
        still counts it.  Past `MAX_VALUES` distinct keys a new key comes
        back as given and is not kept."""
        if len(self._keys) < MAX_VALUES:
            return self._keys.setdefault(key, key)
        return self._keys.get(key, key)

    def get(self, key: Hashable, compute: Callable[[], V]) -> V:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            return entry[0]
        value = compute()
        size = _ENTRY_BYTES + weight((key, value))
        if size > MAX_BYTES:
            return value
        self._entries[key] = value, size
        self.bytes += size
        while len(self._entries) > MAX_VALUES or self.bytes > MAX_BYTES:
            _, (_, evicted) = self._entries.popitem(last=False)
            self.bytes -= evicted
        return value
