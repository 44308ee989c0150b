"""Instruction and path coverage accounting.

A CoverageMap keeps one bitset of executed instruction offsets per
contract address plus a set of 64-bit path hashes.  A path is the
sequence of basic-block entries a transaction makes, hashed with FNV-1a
and truncated at PATH_BLOCK_LIMIT blocks so the monitor stays O(trace).

A fuzzing campaign takes the same few paths over and over, so path
hashes are memoised in `_PATH_MEMO`, keyed by the truncated entry tuple.
The memo is bounded by the block entries its keys hold together
(`_PATH_MEMO_CAP`, about 1.6 MB at most; a single key holds up to
PATH_BLOCK_LIMIT entries) and drops the oldest key first.
"""

import json
from dataclasses import dataclass, field

from ..bytecode.cfg import Cfg
from ..evm.types import ExecResult

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

PATH_BLOCK_LIMIT = 4096

_PATH_MEMO: dict[tuple[tuple[int, int], ...], int] = {}
_PATH_MEMO_CAP = 4 * PATH_BLOCK_LIMIT  # block entries over all keys
_path_memo_size = 0  # block entries the keys of _PATH_MEMO hold now


def fnv1a64(data: bytes) -> int:
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


@dataclass
class CoverageMap:
    bits: dict[int, int] = field(default_factory=dict)  # address -> offset bitset
    path_set: set[int] = field(default_factory=set)

    def covered(self, address: int, offset: int) -> bool:
        return bool(self.bits.get(address, 0) >> offset & 1)

    def count(self, address: int) -> int:
        return self.bits.get(address, 0).bit_count()

    def copy(self) -> "CoverageMap":
        return CoverageMap(dict(self.bits), set(self.path_set))

    def union(self, other: "CoverageMap") -> "CoverageMap":
        out = self.copy()
        for addr, bits in other.bits.items():
            out.bits[addr] = out.bits.get(addr, 0) | bits
        out.path_set |= other.path_set
        return out

    def to_json(self) -> str:
        doc = {
            "bits": {
                f"{addr:#x}": format(bits, "x")
                for addr, bits in sorted(self.bits.items())
            },
            "paths": sorted(f"{h:016x}" for h in self.path_set),
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "CoverageMap":
        doc = json.loads(text)
        return CoverageMap(
            bits={int(a, 16): int(b, 16) for a, b in doc["bits"].items()},
            path_set={int(p, 16) for p in doc["paths"]},
        )


def _path_hash(entries: list[tuple[int, int]]) -> int:
    """Hash a sequence of (address, block_start) entries."""
    global _path_memo_size
    key = tuple(entries[:PATH_BLOCK_LIMIT])
    h = _PATH_MEMO.get(key)
    if h is None:
        h = FNV_OFFSET
        for addr, start in key:
            for b in addr.to_bytes(20, "big") + start.to_bytes(4, "big"):
                h = ((h ^ b) * FNV_PRIME) & _MASK64
        _PATH_MEMO[key] = h
        _path_memo_size += len(key)
        while _path_memo_size > _PATH_MEMO_CAP:
            oldest = next(iter(_PATH_MEMO))  # FIFO: dicts keep insertion order
            del _PATH_MEMO[oldest]
            _path_memo_size -= len(oldest)
    return h


def merge(
    map_: CoverageMap, trace: list[int], blocks: Cfg, address: int = 0
) -> CoverageMap:
    """Fold one instruction trace for a single contract into the map."""
    bits = map_.bits.get(address, 0)
    entries = []
    block_of = blocks.block_of
    for off in trace:
        bits |= 1 << off
        if off in blocks.blocks:
            entries.append((address, off))
        elif off not in block_of:
            raise ValueError(f"offset {off} is not a known instruction")
    map_.bits[address] = bits
    map_.path_set.add(_path_hash(entries))
    return map_


def merge_result(map_: CoverageMap, result: ExecResult, world) -> CoverageMap:
    """Fold a transaction's (possibly interleaved) trace into the map.

    Block entries from every deployed contract the trace touched land in
    one path hash, so call interleavings count as distinct paths.
    """
    entries: list[tuple[int, int]] = []
    for address, offsets in result.trace:
        bundle = world.deployed.get(address)
        if bundle is None:
            continue
        bits = map_.bits.get(address, 0)
        blocks = bundle.cfg.blocks
        for off in offsets:
            bits |= 1 << off
            if off in blocks:
                entries.append((address, off))
        map_.bits[address] = bits
    map_.path_set.add(_path_hash(entries))
    return map_
