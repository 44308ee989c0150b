"""Worlds after a transaction prefix, kept in a trie per base world.

One store holds the world after every transaction prefix its owner ran
from a base world: a campaign's inserted candidates (Campaign.prefixes),
one drive call, or one extract_bottlenecks call.  There is one trie per
base world, matched by identity, keyed by Transaction; each step maps a
transaction to (world after, ExecResult, next steps).  Worlds are values
(sctest.evm.world), so executing a suffix from a kept world leaves it as
it was and equals executing prefix + suffix from the base world: the
store is a pure speedup for sequence-heavy loops.  Nothing is evicted; a
store lives as long as its owner.

A Transaction holding True or 1.0 compares equal to one holding 1, but
the engine refuses a bool or a float where the ABI wants an integer.  So
get_or_build runs a prefix with a top-level argument other than an int,
bytes or tuple as the engine runs it, and keeps none of it.
"""

# not called here: perfbench/layers.py counts Keccak calls per binding
# site and wraps this module's keccak256 in every traced round
from .._kernels import keccak256
from .engine import execute_sequence
from .world import EvmWorld

_KEYED = (int, bytes, tuple)  # argument types that key a step exactly


class SnapshotCache:
    """The worlds after the prefixes run from each base world."""

    def __init__(self):
        # id(base world) -> (base world, its trie); the value holds the
        # world, so its id is not reused while the entry lives
        self._tries: dict[int, tuple[EvmWorld, dict]] = {}
        self.hits = 0
        self.misses = 0

    def trie(self, world: EvmWorld) -> dict:
        """The steps kept from `world`: Transaction -> (world after,
        ExecResult, next steps)."""
        entry = self._tries.get(id(world))
        if entry is None:
            entry = self._tries[id(world)] = (world, {})
        return entry[1]

    def get_or_build(self, world: EvmWorld, prefix) -> EvmWorld:
        """The world after prefix run from world.  On a miss only the
        transactions past the longest kept prefix run (world stays as it
        was), and each is kept."""
        prefix = list(prefix)
        if any(type(a) not in _KEYED for tx in prefix for a in tx.args or ()):
            self.misses += 1
            return execute_sequence(world, prefix)[0]
        node = self.trie(world)
        for n, tx in enumerate(prefix):
            step = node.get(tx)
            if step is None:
                break
            world, _, node = step
        else:
            self.hits += 1
            return world
        self.misses += 1
        for tx in prefix[n:]:
            world, (res,) = execute_sequence(world, [tx])
            step = node[tx] = (world, res, {})
            node = step[2]
        return world
