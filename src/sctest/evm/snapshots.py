"""Worlds after a transaction prefix, cached by prefix.

A cache entry is the world after a prefix of transactions, run from one
base world.  Worlds are values (sctest.evm.world), so executing a suffix
from a cached world leaves it as it was and equals executing prefix +
suffix from the base world: the cache is a pure speedup for
sequence-heavy loops.  The entry keeps its base world and serves only a
caller that asks with that same world; any other base is a miss.
"""

import json
from collections import OrderedDict

from .._kernels import keccak256
from .engine import execute_sequence
from .types import Transaction, tx_doc
from .world import EvmWorld

# worlds a cache keeps, least recently used dropped first
MAX_WORLDS = 1024


def prefix_key(prefix: list[Transaction] | tuple[Transaction, ...]) -> bytes:
    """32-byte digest of the prefix's transaction documents (tx_doc),
    each with its destination written out: two prefixes share a key
    only when every field that changes what they do is equal."""
    doc = json.dumps(
        [tx_doc(tx) for tx in prefix], sort_keys=True, separators=(",", ":")
    )
    return keccak256(doc.encode())


class SnapshotCache:
    """LRU cache of the worlds after prefixes, at most MAX_WORLDS."""

    def __init__(self):
        # prefix_key -> (base world, world after the prefix)
        self._entries: OrderedDict[bytes, tuple[EvmWorld, EvmWorld]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, world: EvmWorld, prefix) -> EvmWorld:
        """The world after prefix run from world.  On a miss the prefix
        runs (world stays as it was) and its result is cached."""
        key = prefix_key(prefix)
        entry = self._entries.get(key)
        if entry is not None and entry[0] is world:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry[1]
        self.misses += 1
        after, _ = execute_sequence(world, list(prefix))
        self._entries[key] = (world, after)
        self._entries.move_to_end(key)
        while len(self._entries) > MAX_WORLDS:
            self._entries.popitem(last=False)
        return after
