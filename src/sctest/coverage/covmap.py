"""Instruction and path coverage accounting.

A CoverageMap keeps one bitset of executed instruction offsets per
contract address plus a set of 64-bit path hashes.  A path is the
sequence of basic-block entries a transaction makes, hashed with FNV-1a
and truncated at PATH_BLOCK_LIMIT blocks so the monitor stays O(trace).

There is one fold, merge_result.  It turns a transaction's trace,
segment by segment, into a record, (address, instruction mask) pairs
plus a path hash, and ORs the record into a map.

A fuzzing campaign takes the same few traces over and over, so there is
one memo, `_RECORDS`: a trace maps to its record and to the CFG each
segment's address had when it was folded (None for an address with no
code).  A hit under the same CFG objects replaces the walk over every
offset and the FNV fold by a dict lookup; a hit under another CFG is
folded again and replaces the entry.  The memo is bounded by the
instruction offsets its keys hold together (`_RECORDS_CAP`) and drops
the oldest key first; a trace longer than the bound is folded but not
kept.
"""

import json
from dataclasses import dataclass, field

from ..bytecode.cfg import Cfg
from ..evm.types import ExecResult

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

PATH_BLOCK_LIMIT = 4096

# trace -> (CFG or None per segment, coverage record)
_RECORDS: dict[tuple, tuple[tuple[Cfg | None, ...], tuple]] = {}
_RECORDS_CAP = 1 << 16  # instruction offsets over all keys
_records_size = 0  # offsets the keys of _RECORDS hold now


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


def _path_hash(entries: list[tuple[int, int]]) -> int:
    """Hash a sequence of (address, block_start) entries."""
    h = FNV_OFFSET
    for addr, start in entries[:PATH_BLOCK_LIMIT]:
        for b in addr.to_bytes(20, "big") + start.to_bytes(4, "big"):
            h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def _segment(offsets: tuple[int, ...], cfg: Cfg) -> tuple[int, tuple[int, ...]]:
    """(instruction bitmask, block entries in order) of one trace segment
    of a contract whose CFG is cfg."""
    blocks = cfg.blocks
    mask = 0
    for off in offsets:
        mask |= 1 << off
    return mask, tuple(off for off in offsets if off in blocks)


def _record(result: ExecResult, world) -> tuple:
    """What a transaction's trace adds to a map: ((address, instruction
    bitmask) per trace segment, ...) and its path hash."""
    global _records_size
    trace = result.trace
    deployed = world.deployed
    hit = _RECORDS.get(trace)
    if hit is not None:
        for (address, _), cfg in zip(trace, hit[0]):
            bundle = deployed.get(address)
            if (None if bundle is None else bundle.cfg) is not cfg:
                break
        else:
            return hit[1]
    cfgs: list[Cfg | None] = []
    masks = []
    entries: list[tuple[int, int]] = []
    for address, offsets in trace:
        bundle = deployed.get(address)
        if bundle is None:
            cfgs.append(None)
            continue
        cfg = bundle.cfg
        cfgs.append(cfg)
        mask, starts = _segment(offsets, cfg)
        masks.append((address, mask))
        entries += [(address, start) for start in starts]
    record = tuple(masks), _path_hash(entries)
    if hit is None:
        _records_size += sum(len(offsets) for _, offsets in trace)
    _RECORDS[trace] = (tuple(cfgs), record)
    while _records_size > _RECORDS_CAP:
        oldest = next(iter(_RECORDS))  # FIFO: dicts keep insertion order
        del _RECORDS[oldest]
        _records_size -= sum(len(offsets) for _, offsets in oldest)
    return record


def merge_result(map_: CoverageMap, result: ExecResult, world) -> int:
    """Fold a transaction's (possibly interleaved) trace into the map
    and return how many instructions it covered for the first time.

    Block entries from every deployed contract the trace touched land in
    one path hash, so call interleavings count as distinct paths.
    Segments of addresses with no deployed code are skipped.
    """
    masks, path = _record(result, world)
    new = 0
    bits_of = map_.bits
    for address, mask in masks:
        bits = bits_of.get(address, 0)
        new += (mask & ~bits).bit_count()
        bits_of[address] = bits | mask
    map_.path_set.add(path)
    return new
