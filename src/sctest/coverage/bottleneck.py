"""Branch bottlenecks: conditional jumps holding back coverage.

A bottleneck is an executed JUMPI with exactly one covered successor: the
branch keeps evaluating one way, and whatever sits behind the other arm
stays dark.  For each such branch this module reconstructs the guarding
predicate by symbolically replaying the stack along one acyclic chain of
predecessor blocks, then renders it as source-flavoured text and derives
routing features from its shape.

Predicates are sctest.concolic.symexpr trees.  A CALLDATALOAD of a
static argument's head word or of a dynamic argument's length word is
the same Input atom the shadow interpreter makes, so a predicate over
such reads alone goes to `solve` and `evaluate` as it is.  Every other
word the replay meets becomes one of symexpr's replay atoms (Env,
CallDataSize, LoopVar, Opaque, CallDataLoad), which `solve` answers Unknown.

The replay is deliberately best effort.  At a join it follows the
lowest-offset predecessor; at a loop header it marks the loop-carried
stack slots (those the back edge rewrites) as an induction variable and
resolves the rest through the entry path.  Anything the replay cannot
express renders as "opaque" while the feature flags still reflect the
recognizable parts.
"""

from dataclasses import dataclass

from ..bytecode.abi import FunctionSig
from ..bytecode.cfg import Cfg
from ..bytecode.opcodes import BINOP, CALL_CLASS, lookup
from ..concolic.symexpr import (
    MASK256,
    Binop,
    CallDataLoad,
    CallDataSize,
    Const,
    Env,
    Input,
    Keccak,
    LoopVar,
    Opaque,
    Sload,
    SymExpr,
    Unop,
    format_expr,
    has_node,
    nodes,
)
from ..evm.bundle import ContractBundle, genesis_config
from .covmap import CoverageMap

_CHAIN_LIMIT = 16

_ENV = {
    "CALLER": "msg.sender",
    "CALLVALUE": "msg.value",
    "TIMESTAMP": "block.timestamp",
    "NUMBER": "block.number",
    "ADDRESS": "address(this)",
}


@dataclass(frozen=True)
class BranchConstraintInfo:
    branch_offset: int
    constraint_text: str
    inputs_involved: tuple[str, ...]
    features: dict
    predicate: SymExpr  # nonzero exactly when the dark arm is taken


# ---------------------------------------------------------------------------
# symbolic replay of straight-line instruction runs
# ---------------------------------------------------------------------------

class _Replay:
    """Stack/memory shadow over one chain of blocks.

    Entry slots materialize lazily as Opaque(k); k counts depth from the
    top of the stack at the start of the chain.  Memory is a dict of
    constant offsets, dropped entirely on any untrackable write.
    CALLDATALOADs are tied to `sig`'s parameter layout when one is given.
    """

    def __init__(self, sig: FunctionSig | None = None):
        self.sig = sig
        self.stack: list[SymExpr] = []
        self.watermark = 0
        self.mem: dict[int, SymExpr] | None = {}

    def need(self, k: int) -> None:
        while len(self.stack) < k:
            self.stack.insert(0, Opaque(self.watermark))
            self.watermark += 1

    def pop(self) -> SymExpr:
        self.need(1)
        return self.stack.pop()

    def push(self, e: SymExpr) -> None:
        self.stack.append(e)

    def clobber_mem(self) -> None:
        self.mem = None

    def write_mem(self, off: SymExpr, val: SymExpr | None) -> None:
        if self.mem is None:
            return
        if not isinstance(off, Const):
            self.mem = None
            return
        at = off.value
        for k in [k for k in self.mem if k < at + 32 and k + 32 > at]:
            del self.mem[k]
        if val is not None:
            self.mem[at] = val

    def read_sha3(self, off: SymExpr, size: SymExpr) -> SymExpr:
        if (
            self.mem is None
            or not isinstance(off, Const)
            or not isinstance(size, Const)
            or size.value <= 0
            or size.value % 32
        ):
            return Opaque()
        words = []
        for k in range(off.value, off.value + size.value, 32):
            if k not in self.mem:
                return Opaque()
            words.append(self.mem[k])
        return Keccak(tuple(words), size.value)

    def load_calldata(self, addr: SymExpr) -> SymExpr:
        """A parameter's Input atom when the address is its head word (a
        static parameter) or its length word (a dynamic one); otherwise a
        CallDataLoad node, tied to the first dynamic parameter whose offset
        word the address reads."""
        sig = self.sig
        for k, p in enumerate(sig.params if sig else ()):
            name = sig.param_names[k]
            head = Const(4 + 32 * k)
            if addr == head:
                if p.is_dynamic:
                    return CallDataLoad(addr, name, "offset")
                return Input(name, 0, "word", p.word_bits)
            if not p.is_dynamic:
                continue
            head_load = CallDataLoad(head, name, "offset")
            four = Const(4)
            if addr in (Binop("ADD", four, head_load), Binop("ADD", head_load, four)):
                return Input(name, 0, "length", 256)
            if head_load in nodes(addr):
                return CallDataLoad(addr, name, "byte" if p.kind == "bytes" else "word")
        return CallDataLoad(addr)

    def step(self, ins) -> None:
        name = ins.name
        if name.startswith("PUSH"):
            self.push(Const(ins.imm or 0))
        elif name.startswith("DUP"):
            k = int(name[3:])
            self.need(k)
            self.push(self.stack[-k])
        elif name.startswith("SWAP"):
            k = int(name[4:])
            self.need(k + 1)
            self.stack[-1], self.stack[-1 - k] = (
                self.stack[-1 - k],
                self.stack[-1],
            )
        elif name == "POP":
            self.pop()
        elif name in BINOP:
            x, y = self.pop(), self.pop()
            if isinstance(x, Const) and isinstance(y, Const):
                self.push(Const(BINOP[name](x.value, y.value)))
            else:
                self.push(Binop(name, x, y))
        elif name == "ISZERO":
            x = self.pop()
            self.push(Const(int(x.value == 0)) if isinstance(x, Const) else Unop(name, x))
        elif name == "NOT":
            x = self.pop()
            self.push(Const(x.value ^ MASK256) if isinstance(x, Const) else Unop(name, x))
        elif name == "CALLDATALOAD":
            self.push(self.load_calldata(self.pop()))
        elif name == "CALLDATASIZE":
            self.push(CallDataSize())
        elif name in _ENV:
            self.push(Env(_ENV[name]))
        elif name == "SLOAD":
            self.push(Sload(self.pop()))
        elif name == "SSTORE":
            self.pop(), self.pop()
        elif name == "SHA3":
            off, size = self.pop(), self.pop()
            self.push(self.read_sha3(off, size))
        elif name == "MLOAD":
            off = self.pop()
            if self.mem is not None and isinstance(off, Const) and off.value in self.mem:
                self.push(self.mem[off.value])
            else:
                self.push(Opaque())
        elif name == "MSTORE":
            off, val = self.pop(), self.pop()
            self.write_mem(off, val)
        elif name == "MSTORE8":
            off, _val = self.pop(), self.pop()
            self.write_mem(off, None)
        elif name == "JUMPDEST":
            pass
        elif name == "JUMP":
            self.pop()
        elif name == "JUMPI":
            self.pop(), self.pop()
        else:
            info = lookup(ins.code)
            for _ in range(info.pops):
                self.pop()
            for _ in range(info.pushes):
                self.push(Opaque())
            if ins.code in CALL_CLASS or name in ("CALLDATACOPY",):
                self.clobber_mem()


# ---------------------------------------------------------------------------
# control-flow helpers: cycles, back edges, predecessor chains
# ---------------------------------------------------------------------------

def _sccs(cfg: Cfg) -> dict[int, int]:
    """Tarjan; maps block start -> SCC id (iterative)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on: set[int] = set()
    stack: list[int] = []
    comp: dict[int, int] = {}
    counter = [0]
    ncomp = [0]

    for root in cfg.order:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, pi = work[-1]
            if pi == 0:
                index[node] = low[node] = counter[0]
                counter[0] += 1
                stack.append(node)
                on.add(node)
            recurse = False
            succs = cfg.blocks[node].succs
            for si in range(pi, len(succs)):
                s = succs[si]
                if s not in index:
                    work[-1] = (node, si + 1)
                    work.append((s, 0))
                    recurse = True
                    break
                if s in on:
                    low[node] = min(low[node], index[s])
            if recurse:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                while True:
                    w = stack.pop()
                    on.discard(w)
                    comp[w] = ncomp[0]
                    if w == node:
                        break
                ncomp[0] += 1
    return comp


def _in_cycle(cfg: Cfg, comp: dict[int, int], block: int) -> bool:
    same = [b for b, c in comp.items() if c == comp[block]]
    return len(same) > 1 or block in cfg.blocks[block].succs


def _mutated_positions(cfg: Cfg, back_preds: list[int]) -> set[int]:
    """Stack slots (depth from the header's entry top) a back edge rewrites."""
    out: set[int] = set()
    for p in back_preds:
        rp = _Replay()
        rp.clobber_mem()
        for ins in cfg.blocks[p].instrs:
            rp.step(ins)
        delta = len(rp.stack) - rp.watermark
        if delta != 0:
            out.update(range(max(len(rp.stack), rp.watermark)))
            continue
        for j in range(len(rp.stack)):
            if rp.stack[-1 - j] != Opaque(j):
                out.add(j)
    return out


def _guard_chain(
    cfg: Cfg, comp: dict[int, int], block: int
) -> tuple[list[int], dict[int, set[int]]]:
    """An acyclic predecessor chain ending at `block`, plus the loop-carried
    slot positions to pin at each cycle-header join along the way."""
    chain = [block]
    joins: dict[int, set[int]] = {}
    while len(chain) < _CHAIN_LIMIT:
        head = chain[0]
        preds = cfg.preds.get(head, ())
        cands = [p for p in preds if p not in chain]
        if not cands:
            break
        if len(preds) > 1 and _in_cycle(cfg, comp, head):
            back = [p for p in preds if comp.get(p) == comp[head]]
            if back:
                joins[head] = _mutated_positions(cfg, back)
            fwd = [p for p in cands if comp.get(p) != comp[head]] or cands
            chain.insert(0, min(fwd))
        else:
            chain.insert(0, min(cands))
    return chain, joins


def _condition(
    cfg: Cfg, comp: dict[int, int], block_start: int, sig: FunctionSig | None
) -> SymExpr | None:
    blk = cfg.blocks.get(block_start)
    if blk is None or blk.terminator != "JUMPI":
        return None
    chain, joins = _guard_chain(cfg, comp, block_start)
    rp = _Replay(sig)
    cond: SymExpr | None = None
    for b in chain:
        pins = joins.get(b)
        if pins:
            rp.need(max(pins) + 1)
            for j in pins:
                rp.stack[-1 - j] = LoopVar(j)
        instrs = cfg.blocks[b].instrs
        for ins in instrs:
            if b == block_start and ins.name == "JUMPI":
                rp.pop()  # destination
                cond = rp.pop()
            else:
                rp.step(ins)
    return cond


# ---------------------------------------------------------------------------
# feature flags
# ---------------------------------------------------------------------------

def _reads_dynamic_extent(e: SymExpr) -> bool:
    """True when the expression reads CALLDATASIZE or a dynamic length word."""
    return any(
        isinstance(n, CallDataSize) or (isinstance(n, Input) and n.kind == "length")
        for n in nodes(e)
    )


def _features(
    bundle: ContractBundle,
    cond: SymExpr,
    block: int,
    comp: dict[int, int],
    sig: FunctionSig | None,
) -> dict:
    nonlinear = any(
        isinstance(n, Binop)
        and n.op in ("MUL", "EXP")
        and not isinstance(n.x, Const)
        and not isinstance(n.y, Const)
        for n in nodes(cond)
    )

    loop_guarded = False
    cfg = bundle.cfg
    if _in_cycle(cfg, comp, block):
        cid = comp[block]
        for b, c in comp.items():
            if c != cid:
                continue
            blk = cfg.blocks[b]
            if blk.terminator != "JUMPI":
                continue
            if not any(comp.get(s) != cid for s in blk.succs):
                continue
            exit_cond = _condition(cfg, comp, b, sig)
            if exit_cond is not None and _reads_dynamic_extent(exit_cond):
                loop_guarded = True
                break

    return {
        "has_keccak": has_node(cond, Keccak),
        "has_nonlinear_term": nonlinear,
        "loop_guarded": loop_guarded,
        "storage_dependent": has_node(cond, Sload),
    }


def _inputs_involved(cond: SymExpr, sig: FunctionSig | None) -> tuple[str, ...]:
    """Parameters the predicate reads, in declaration order."""
    if sig is None:
        return ()
    found = {n.param for n in nodes(cond) if isinstance(n, (Input, CallDataLoad))}
    return tuple(name for name in sig.param_names if name in found)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def extract_bottlenecks(
    bundle: ContractBundle, map_: CoverageMap, address: int | None = None
) -> list[BranchConstraintInfo]:
    """All executed JUMPIs with exactly one covered successor, by offset."""
    if address is None:
        address = genesis_config(bundle)["deploy_at"]
    bits = map_.bits.get(address, 0)
    cfg = bundle.cfg
    comp = _sccs(cfg)

    out: list[BranchConstraintInfo] = []
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
        cov_f = bool((bits >> fall) & 1)
        if cov_t == cov_f:
            continue

        sig = bundle.function_at(branch_offset)
        cond = _condition(cfg, comp, start, sig)
        if cond is None:
            continue
        if cov_t:  # the fallthrough arm is dark: the block is its negation
            blocking = Unop("ISZERO", cond)
        else:
            blocking = cond

        out.append(
            BranchConstraintInfo(
                branch_offset,
                "opaque" if has_node(blocking, Opaque) else format_expr(blocking),
                _inputs_involved(blocking, sig),
                _features(bundle, blocking, start, comp, sig),
                blocking,
            )
        )
    return out
