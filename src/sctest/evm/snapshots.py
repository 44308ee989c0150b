"""World snapshots keyed by transaction prefix.

A snapshot captures (accounts, storage, block) after replaying a prefix
of transactions.  Restoring a snapshot and executing a suffix must be
indistinguishable from executing prefix + suffix from scratch, which
makes the cache a pure speedup for sequence-heavy fuzzing loops.
"""

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass

from .._kernels import keccak256
from .engine import execute_sequence
from .types import Account, BlockCtx, Transaction
from .world import EvmWorld


def _tx_json(tx: Transaction) -> dict:
    args = None
    if tx.args is not None:
        args = ["0x" + a.hex() if isinstance(a, bytes) else a for a in tx.args]
    return {
        "function": tx.function_call,
        "args": args,
        "call_data": tx.call_data.hex() if tx.call_data is not None else None,
        "delay": tx.delay,
        "gas": tx.gas,
        "source": f"0x{tx.source:040x}",
        "destination": f"0x{tx.destination:040x}",
        "value": tx.value,
    }


def prefix_key(prefix: list[Transaction] | tuple[Transaction, ...]) -> bytes:
    """32-byte digest of the canonical prefix serialization."""
    doc = json.dumps(
        [_tx_json(tx) for tx in prefix], sort_keys=True, separators=(",", ":")
    )
    return keccak256(doc.encode())


@dataclass(frozen=True)
class Snapshot:
    key: bytes
    accounts: tuple[tuple[int, int], ...]       # (address, balance)
    storage: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]
    block: tuple[int, int]                      # (timestamp, number)

    def approx_bytes(self) -> int:
        cells = sum(len(slots) for _, slots in self.storage)
        return 200 + 64 * len(self.accounts) + 96 * len(self.storage) + 96 * cells


def capture(world: EvmWorld, key: bytes) -> Snapshot:
    return Snapshot(
        key=key,
        accounts=tuple(
            (a, world.accounts[a].balance) for a in sorted(world.accounts)
        ),
        storage=tuple(
            (a, tuple(sorted(world.storage[a].items())))
            for a in sorted(world.storage)
            if world.storage[a]
        ),
        block=(world.block.timestamp, world.block.number),
    )


def restore(base: EvmWorld, snap: Snapshot) -> EvmWorld:
    """Rebuild a world from snap, taking code bindings from base."""
    return EvmWorld(
        accounts={a: Account(a, b) for a, b in snap.accounts},
        deployed=dict(base.deployed),
        storage={a: dict(slots) for a, slots in snap.storage},
        block=BlockCtx(timestamp=snap.block[0], number=snap.block[1]),
    )


class SnapshotCache:
    """LRU snapshot cache bounded by an approximate memory budget."""

    def __init__(self, memory_budget: int = 10 * 2**30):
        self.memory_budget = memory_budget
        self._lock = threading.Lock()
        self._entries: OrderedDict[bytes, Snapshot] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: bytes) -> Snapshot | None:
        with self._lock:
            snap = self._entries.get(key)
            if snap is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return snap

    def put(self, snap: Snapshot) -> None:
        with self._lock:
            old = self._entries.pop(snap.key, None)
            if old is not None:
                self._bytes -= old.approx_bytes()
            self._entries[snap.key] = snap
            self._bytes += snap.approx_bytes()
            while self._bytes > self.memory_budget and len(self._entries) > 1:
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.approx_bytes()

    def get_or_build(self, world: EvmWorld, prefix) -> Snapshot:
        """The snapshot after prefix; on a miss, prefix runs against
        world (which it leaves as it was) and the result is cached."""
        key = prefix_key(prefix)
        snap = self.get(key)
        if snap is None:
            after, _ = execute_sequence(world, list(prefix))
            snap = capture(after, key)
            self.put(snap)
        return snap
