"""Per-function coverage gaps.

Given a coverage map and a contract bundle, report every ABI function that
still has unexecuted instructions inside its body range, and attach the
branch bottlenecks (see bottleneck.py) that sit inside that body.
"""

from dataclasses import dataclass, field

from ..errors import MissingBodyRange
from ..evm.bundle import ContractBundle, genesis_config
from .bottleneck import BranchConstraintInfo, extract_bottlenecks
from .covmap import CoverageMap

FULLY_UNCOVERED = "fully_uncovered"
PARTIALLY_COVERED = "partially_covered"


@dataclass(frozen=True)
class UncoveredFunction:
    sig: str
    status: str  # FULLY_UNCOVERED or PARTIALLY_COVERED
    uncovered_offsets: tuple[int, ...]
    blocking: tuple[BranchConstraintInfo, ...] = field(default=())


def extract_uncovered_functions(
    bundle: ContractBundle, map_: CoverageMap, cases=()
) -> list[UncoveredFunction]:
    """All ABI functions with any uncovered instruction, ordered by entry.

    A function's instructions are those whose offsets fall inside its body
    range.  Status is FULLY_UNCOVERED when not a single one has executed.
    Raises MissingBodyRange for a function whose body range is absent even
    after dispatch recovery.  `cases` goes to extract_bottlenecks: the
    blocking branches are those the cases reach.
    """
    bits = map_.bits.get(genesis_config(bundle)["deploy_at"], 0)
    bottlenecks = extract_bottlenecks(bundle, map_, cases)

    out: list[UncoveredFunction] = []
    sigs = sorted(
        bundle.resolved_abi,
        key=lambda s: (s.entry_offset if s.entry_offset is not None else -1),
    )
    for sig in sigs:
        if sig.body_range is None:
            raise MissingBodyRange(sig.name)
        lo, hi = sig.body_range
        body = [i.offset for i in bundle.cfg.instrs if lo <= i.offset < hi]
        missed = tuple(off for off in body if not (bits >> off) & 1)
        if not missed:
            continue
        status = FULLY_UNCOVERED if len(missed) == len(body) else PARTIALLY_COVERED
        blocking = tuple(
            b for b in bottlenecks if lo <= b.branch_offset < hi
        )
        out.append(UncoveredFunction(sig.signature, status, missed, blocking))
    return out
