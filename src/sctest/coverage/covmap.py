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

There is one fold.  coverage_record turns a transaction's trace,
segment by segment, into (address, instruction mask) pairs plus a path
hash; absorb ORs such a record into a map; merge_result is the two in a
row.  A campaign keeps the records of what it ran and absorbs them
again instead of folding the same trace twice.  The same few segments
recur as often as the paths do.  `_SEG_MEMO` maps a segment's
instruction-offset tuple to the CFG it was folded under, its
instruction bitmask and its block entries in order; a hit under the
same CFG object replaces the walk over every offset by a dict lookup,
and a hit under another CFG is folded again and replaces the entry.
The memo is bounded the same way: by the offsets its keys hold together
(`_SEG_MEMO_CAP`), oldest key dropped first.
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

# segment offsets -> (cfg, instruction bitmask, block entries)
_SEG_MEMO: dict[tuple[int, ...], tuple[Cfg, int, tuple[int, ...]]] = {}
_SEG_MEMO_CAP = 1 << 16  # instruction offsets over all keys
_seg_memo_size = 0  # offsets the keys of _SEG_MEMO hold now


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


def _segment(offsets: tuple[int, ...], cfg: Cfg) -> tuple[int, tuple[int, ...]]:
    """(instruction bitmask, block entries in order) of one trace segment
    of a contract whose CFG is cfg."""
    global _seg_memo_size
    hit = _SEG_MEMO.get(offsets)
    if hit is not None and hit[0] is cfg:
        return hit[1], hit[2]
    blocks = cfg.blocks
    mask = 0
    for off in offsets:
        mask |= 1 << off
    starts = tuple(off for off in offsets if off in blocks)
    if hit is None:
        _seg_memo_size += len(offsets)
    _SEG_MEMO[offsets] = (cfg, mask, starts)
    while _seg_memo_size > _SEG_MEMO_CAP:
        oldest = next(iter(_SEG_MEMO))  # FIFO: dicts keep insertion order
        del _SEG_MEMO[oldest]
        _seg_memo_size -= len(oldest)
    return mask, starts


def coverage_record(result: ExecResult, world) -> tuple:
    """What a transaction's (possibly interleaved) trace adds to a map:
    ((address, instruction bitmask) per trace segment, ...) and its path
    hash.

    Block entries from every deployed contract the trace touched land in
    one path hash, so call interleavings count as distinct paths.
    Segments of addresses with no deployed code are skipped.
    """
    masks = []
    entries: list[tuple[int, int]] = []
    for address, offsets in result.trace:
        bundle = world.deployed.get(address)
        if bundle is None:
            continue
        mask, starts = _segment(tuple(offsets), bundle.cfg)
        masks.append((address, mask))
        entries += [(address, start) for start in starts]
    return tuple(masks), _path_hash(entries)


def absorb(map_: CoverageMap, record: tuple) -> int:
    """OR a coverage_record into the map; returns how many instructions
    it covered for the first time."""
    masks, path = record
    new = 0
    bits_of = map_.bits
    for address, mask in masks:
        bits = bits_of.get(address, 0)
        new += (mask & ~bits).bit_count()
        bits_of[address] = bits | mask
    map_.path_set.add(path)
    return new


def merge_result(map_: CoverageMap, result: ExecResult, world) -> int:
    """Fold a transaction's trace into the map and return how many
    instructions it covered for the first time (see coverage_record)."""
    return absorb(map_, coverage_record(result, world))
