"""Branch bottlenecks: conditional jumps holding back coverage.

A bottleneck is an executed JUMPI with exactly one covered successor: the
branch keeps evaluating one way, and whatever sits behind the other arm
stays dark.  Each one is described from the shadow run
(sctest.concolic.shadow) of a test case that reaches it, so the
predicate a router reads is the tree `drive` solves: the first
PathConstraint the run recorded at the branch, negated to the dark arm.
A branch whose condition the shadow saw as concrete (a dispatcher's
selector test, a comparison of stored words) is reported with no
predicate and the text "concrete"; it is never handed to `solve`.

Features: has_keccak and has_nonlinear_term read the predicate's tree.
loop_guarded holds when the branch lies in a CFG cycle and the run
decided one of that cycle's exits on a dynamic argument's length.
storage_dependent holds when the run's slot record (ShadowRun.reads)
names a storage slot that flowed into the branch's condition.
"""

from dataclasses import dataclass

from ..bytecode.abi import FunctionSig
from ..bytecode.cfg import Cfg
from ..concolic.shadow import ShadowRun, shadow_run
from ..concolic.symexpr import (
    Binop,
    Const,
    Input,
    Keccak,
    SymExpr,
    Unop,
    format_expr,
    inputs_of,
    nodes,
    simplify,
)
from ..errors import SctestError
from ..evm.bundle import ContractBundle
from ..evm.snapshots import SnapshotCache
from ..evm.world import EvmWorld, make_world
from .covmap import CoverageMap


@dataclass(frozen=True)
class BranchConstraintInfo:
    branch_offset: int
    constraint_text: str
    inputs_involved: tuple[str, ...]
    features: dict
    # nonzero exactly when the dark arm is taken; None when the shadow
    # saw the branch's condition as concrete
    predicate: SymExpr | None


# ---------------------------------------------------------------------------
# control-flow cycles
# ---------------------------------------------------------------------------

def _loop_guarded(cfg: Cfg, block: int, run: ShadowRun) -> bool:
    """The block lies in a cycle, and the run decided one of that cycle's
    exits on a dynamic argument's length."""
    cycle = {b for b in cfg.reachable(block) if block in cfg.reachable(b)}
    if len(cycle) == 1 and block not in cfg.blocks[block].succs:
        return False
    exits = {
        cfg.blocks[b].instrs[-1].offset
        for b in cycle
        if cfg.blocks[b].terminator == "JUMPI"
        and any(s not in cycle for s in cfg.blocks[b].succs)
    }
    return any(
        isinstance(n, Input) and n.kind == "length"
        for c in run.constraints
        if c.branch_offset in exits
        for n in nodes(c.predicate)
    )


def _describe(
    cfg: Cfg,
    block: int,
    dark_taken: bool,
    sig: FunctionSig,
    run: ShadowRun,
) -> BranchConstraintInfo:
    """The bottleneck at block's JUMPI as the run saw it; dark_taken says
    whether the dark arm is the jump target."""
    offset = cfg.blocks[block].instrs[-1].offset
    seen = next((c for c in run.constraints if c.branch_offset == offset), None)
    if seen is None:
        pred, text, inputs, tree = None, "concrete", (), []
    else:
        pred = seen.predicate
        if not dark_taken:
            pred = simplify(Unop("ISZERO", pred))
        text = format_expr(pred)
        found = {a.param for a in inputs_of(pred)}
        inputs = tuple(name for name in sig.param_names if name in found)
        tree = list(nodes(pred))
    features = {
        "has_keccak": any(isinstance(n, Keccak) for n in tree),
        "has_nonlinear_term": any(
            isinstance(n, Binop)
            and n.op in ("MUL", "EXP")
            and not isinstance(n.x, Const)
            and not isinstance(n.y, Const)
            for n in tree
        ),
        "loop_guarded": _loop_guarded(cfg, block, run),
        "storage_dependent": bool(run.reads.get(offset)),
    }
    return BranchConstraintInfo(offset, text, inputs, features, pred)


def _shadow_runs(bundle: ContractBundle, world: EvmWorld, at: int, cases):
    """(signature, shadow run) of every call to the bundle at `at` in
    cases, each run from world after its case's earlier transactions."""
    cache = SnapshotCache()
    for tc in cases:
        for pos, tx in enumerate(tc.txs):
            sig = bundle.by_name.get(tx.function_call)
            if tx.destination != at or sig is None:
                continue
            try:
                run = shadow_run(world, tc.txs[:pos], tx, cache=cache)
            except SctestError:
                continue
            yield sig, run


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def extract_bottlenecks(
    bundle: ContractBundle, map_: CoverageMap, cases=()
) -> list[BranchConstraintInfo]:
    """Executed JUMPIs with exactly one covered successor, by offset.

    A branch is reported once one of `cases` (TestCases, replayed from
    the bundle's genesis world) reaches it, as the first shadow run that
    reaches it saw it.  With no cases nothing is reported.
    """
    cfg = bundle.cfg
    world, at = make_world(bundle)
    bits = map_.bits.get(at, 0)
    pending: dict[int, tuple[int, bool]] = {}  # offset -> (block, dark_taken)
    for start in cfg.order:
        blk = cfg.blocks[start]
        if blk.terminator != "JUMPI" or blk.unresolved_jump or len(blk.succs) != 2:
            continue
        branch_offset = blk.instrs[-1].offset
        if not (bits >> branch_offset) & 1:
            continue
        taken, fall = blk.succs
        if taken == fall:
            continue
        cov_t = bool((bits >> taken) & 1)
        if cov_t != bool((bits >> fall) & 1):
            pending[branch_offset] = (start, not cov_t)

    if not pending:
        return []
    found: list[BranchConstraintInfo] = []
    for sig, run in _shadow_runs(bundle, world, at, cases):
        for offset in pending.keys() & set(run.trace):
            block, dark_taken = pending.pop(offset)
            found.append(_describe(cfg, block, dark_taken, sig, run))
        if not pending:
            break
    return sorted(found, key=lambda b: b.branch_offset)
