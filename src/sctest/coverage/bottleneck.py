"""Branch bottlenecks: conditional jumps holding back coverage.

A bottleneck is an executed JUMPI with exactly one covered successor: the
branch keeps evaluating one way, and whatever sits behind the other arm
stays dark.  For each such branch this module reconstructs the guarding
predicate by symbolically replaying the stack along one acyclic chain of
predecessor blocks, then renders it as source-flavoured text and derives
routing features from its shape.

The replay is deliberately best effort.  At a join it follows the
lowest-offset predecessor; at a loop header it marks the loop-carried
stack slots (those the back edge rewrites) as an induction variable and
resolves the rest through the entry path.  Anything the replay cannot
express renders as "opaque" while the feature flags still reflect the
recognizable parts.
"""

from dataclasses import dataclass, field
from typing import Optional

from ..bytecode.abi import AbiType, FunctionSig
from ..bytecode.cfg import Cfg
from ..bytecode.opcodes import BINOP, CALL_CLASS, lookup
from ..evm.bundle import ContractBundle, genesis_config
from .covmap import CoverageMap

# Expressions are tagged tuples:
#   ("const", v)          literal word
#   ("bin", op, x, y)     x = first pop (top), y = second; semantics op(x, y)
#   ("iszero", x) ("not", x)
#   ("cdl", addr)         CALLDATALOAD
#   ("cds",)              CALLDATASIZE
#   ("sload", slot)
#   ("sha3", (w0, w1..))  hash over fully tracked memory words
#   ("env", name)         caller / callvalue / timestamp / number / address
#   ("stackin", k)        unresolved block-entry slot, k = depth from top
#   ("loopvar", k)        loop-carried slot at a header join
#   ("opaque",)           anything the replay cannot track
Expr = tuple

_U256 = (1 << 256) - 1

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
    features: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# symbolic replay of straight-line instruction runs
# ---------------------------------------------------------------------------

class _Replay:
    """Stack/memory shadow over one chain of blocks.

    Entry slots materialize lazily as ("stackin", k); k counts depth from
    the top of the stack at the start of the chain.  Memory is a dict of
    constant offsets, dropped entirely on any untrackable write.
    """

    def __init__(self):
        self.stack: list[Expr] = []
        self.watermark = 0
        self.mem: dict[int, Expr] | None = {}

    def need(self, k: int) -> None:
        while len(self.stack) < k:
            self.stack.insert(0, ("stackin", self.watermark))
            self.watermark += 1

    def pop(self) -> Expr:
        self.need(1)
        return self.stack.pop()

    def push(self, e: Expr) -> None:
        self.stack.append(e)

    def clobber_mem(self) -> None:
        self.mem = None

    def write_mem(self, off: Expr, val: Expr | None) -> None:
        if self.mem is None:
            return
        if off[0] != "const":
            self.mem = None
            return
        at = off[1]
        for k in [k for k in self.mem if k < at + 32 and k + 32 > at]:
            del self.mem[k]
        if val is not None:
            self.mem[at] = val

    def read_sha3(self, off: Expr, size: Expr) -> Expr:
        if (
            self.mem is None
            or off[0] != "const"
            or size[0] != "const"
            or size[1] <= 0
            or size[1] % 32
        ):
            return ("opaque",)
        words = []
        for k in range(off[1], off[1] + size[1], 32):
            if k not in self.mem:
                return ("opaque",)
            words.append(self.mem[k])
        return ("sha3", tuple(words))

    def step(self, ins) -> None:
        name = ins.name
        if name.startswith("PUSH"):
            self.push(("const", ins.imm or 0))
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
            if x[0] == "const" and y[0] == "const":
                self.push(("const", BINOP[name](x[1], y[1])))
            else:
                self.push(("bin", name, x, y))
        elif name == "ISZERO":
            x = self.pop()
            if x[0] == "const":
                self.push(("const", int(x[1] == 0)))
            else:
                self.push(("iszero", x))
        elif name == "NOT":
            x = self.pop()
            self.push(("const", x[1] ^ _U256) if x[0] == "const" else ("not", x))
        elif name == "CALLDATALOAD":
            self.push(("cdl", self.pop()))
        elif name == "CALLDATASIZE":
            self.push(("cds",))
        elif name in _ENV:
            self.push(("env", _ENV[name]))
        elif name == "SLOAD":
            self.push(("sload", self.pop()))
        elif name == "SSTORE":
            self.pop(), self.pop()
        elif name == "SHA3":
            off, size = self.pop(), self.pop()
            self.push(self.read_sha3(off, size))
        elif name == "MLOAD":
            off = self.pop()
            if self.mem is not None and off[0] == "const" and off[1] in self.mem:
                self.push(self.mem[off[1]])
            else:
                self.push(("opaque",))
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
                self.push(("opaque",))
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
            if rp.stack[-1 - j] != ("stackin", j):
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


def branch_condition(bundle: ContractBundle, block_start: int) -> Expr | None:
    """Taken-branch predicate of the JUMPI ending the given block, or None."""
    cfg = bundle.cfg
    blk = cfg.blocks.get(block_start)
    if blk is None or blk.terminator != "JUMPI":
        return None
    comp = _sccs(cfg)
    chain, joins = _guard_chain(cfg, comp, block_start)
    rp = _Replay()
    cond: Expr | None = None
    for b in chain:
        pins = joins.get(b)
        if pins:
            rp.need(max(pins) + 1)
            for j in pins:
                rp.stack[-1 - j] = ("loopvar", j)
        instrs = cfg.blocks[b].instrs
        for ins in instrs:
            if b == block_start and ins.name == "JUMPI":
                rp.pop()  # destination
                cond = rp.pop()
            else:
                rp.step(ins)
    return cond


# ---------------------------------------------------------------------------
# calldata pattern classification against a function's parameter layout
# ---------------------------------------------------------------------------

def _contains(e: Expr, probe: Expr) -> bool:
    if e == probe:
        return True
    if e[0] == "bin":
        return _contains(e[2], probe) or _contains(e[3], probe)
    if e[0] in ("iszero", "not", "cdl", "sload"):
        return _contains(e[1], probe)
    if e[0] == "sha3":
        return any(_contains(w, probe) for w in e[1])
    return False


def _classify_cdl(addr: Expr, sig: FunctionSig | None):
    """("static"|"head"|"length"|"elem", param index) or None."""
    if sig is None:
        return None
    for k, p in enumerate(sig.params):
        head = ("const", 4 + 32 * k)
        if addr == head:
            return ("static", k) if not p.is_dynamic else ("head", k)
        if not p.is_dynamic:
            continue
        head_load = ("cdl", head)
        if addr == ("bin", "ADD", ("const", 4), head_load) or addr == (
            "bin",
            "ADD",
            head_load,
            ("const", 4),
        ):
            return ("length", k)
        if _contains(addr, head_load):
            return ("elem", k)
    return None


def _reads_dynamic_extent(e: Expr, sig: FunctionSig | None) -> bool:
    """True when the expression reads CALLDATASIZE or a dynamic length word."""
    if e[0] == "cds":
        return True
    if e[0] == "cdl":
        kind = _classify_cdl(e[1], sig)
        if kind and kind[0] == "length":
            return True
        return _reads_dynamic_extent(e[1], sig)
    if e[0] == "bin":
        return _reads_dynamic_extent(e[2], sig) or _reads_dynamic_extent(e[3], sig)
    if e[0] in ("iszero", "not", "sload"):
        return _reads_dynamic_extent(e[1], sig)
    if e[0] == "sha3":
        return any(_reads_dynamic_extent(w, sig) for w in e[1])
    return False


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

_CMP = {"LT": "<", "GT": ">", "EQ": "=="}
_CMP_NEG = {"LT": ">=", "GT": "<="}


def _is_const(e: Expr) -> bool:
    return e[0] == "const"


def _is_boolish(e: Expr) -> bool:
    return (e[0] == "bin" and e[1] in _CMP) or e[0] == "iszero"


def _flatten(e: Expr, op: str) -> list[Expr]:
    """Operands of a chain of one associative op, in evaluation-source order
    (second operand first, since it was computed earlier)."""
    if e[0] == "bin" and e[1] == op:
        return _flatten(e[3], op) + _flatten(e[2], op)
    return [e]


class _Unrenderable(Exception):
    pass


def _render(e: Expr, sig: FunctionSig | None) -> str:
    tag = e[0]
    if tag == "const":
        v = e[1]
        return str(v) if v < 4096 else hex(v)
    if tag == "loopvar":
        return "i"
    if tag == "cds":
        return "msg.data.length"
    if tag == "env":
        return e[1]
    if tag == "sload":
        return f"storage[{_render(e[1], sig)}]"
    if tag == "sha3":
        return "keccak(" + " ++ ".join(_render(w, sig) for w in e[1]) + ")"
    if tag == "cdl":
        kind = _classify_cdl(e[1], sig)
        if kind:
            what, k = kind
            name = sig.param_names[k]
            if what == "static":
                return name
            if what == "length":
                return f"{name}.length"
            if what == "elem":
                return f"{name}[i]"
            return f"{name}.offset"
        return f"calldata[{_render(e[1], sig)}]"
    if tag == "not":
        return f"~{_render(e[1], sig)}"
    if tag == "iszero":
        inner = e[1]
        if inner[0] == "bin" and inner[1] in _CMP_NEG:
            x = _render(inner[2], sig)
            y = _render(inner[3], sig)
            return f"{x} {_CMP_NEG[inner[1]]} {y}"
        if inner[0] == "bin" and inner[1] == "EQ":
            x = _render(inner[2], sig)
            y = _render(inner[3], sig)
            a, b = sorted((x, y), key=lambda t: (len(t), t))
            return f"{a} != {b}"
        if inner[0] == "iszero":
            if _is_boolish(inner[1]):
                return _render(inner[1], sig)
            return f"{_render(inner[1], sig)} != 0"
        return f"!({_render(inner, sig)})"
    if tag == "bin":
        op = e[1]
        if op == "AND" and (_is_boolish(e[2]) or _is_boolish(e[3])):
            parts = [_render(p, sig) for p in _flatten(e, "AND")]
            return " && ".join(parts)
        if op == "EQ":
            x, y = _render(e[2], sig), _render(e[3], sig)
            a, b = sorted((x, y), key=lambda t: (len(t), t))
            return f"{a} == {b}"
        if op in _CMP:
            return f"{_render(e[2], sig)} {_CMP[op]} {_render(e[3], sig)}"
        if op == "MUL":
            parts = _flatten(e, "MUL")
            parts.sort(key=lambda p: (not _is_const(p),))
            return "*".join(_render(p, sig) for p in parts)
        if op == "ADD":
            rendered = [(_is_const(p), _render(p, sig)) for p in _flatten(e, "ADD")]
            rendered.sort(key=lambda t: (t[0], -len(t[1]), t[1]))
            return " + ".join(t[1] for t in rendered)
        if op == "SUB":
            return f"{_render(e[2], sig)} - {_render(e[3], sig)}"
        if op == "DIV":
            return f"{_render(e[2], sig)} / {_render(e[3], sig)}"
        if op == "MOD":
            return f"{_render(e[2], sig)} % {_render(e[3], sig)}"
        if op == "EXP":
            return f"{_render(e[2], sig)}**{_render(e[3], sig)}"
        if op == "SHR":
            # a byte pulled out of a packed bytes parameter reads as the
            # element itself
            if e[2] == ("const", 248) and e[3][0] == "cdl":
                kind = _classify_cdl(e[3][1], sig)
                if kind and kind[0] == "elem" and sig.params[kind[1]].kind == "bytes":
                    return f"{sig.param_names[kind[1]]}[i]"
            return f"{_render(e[3], sig)} >> {_render(e[2], sig)}"
        if op == "SHL":
            return f"{_render(e[3], sig)} << {_render(e[2], sig)}"
        sym = {"AND": "&", "OR": "|", "XOR": "^"}[op]
        x, y = _render(e[2], sig), _render(e[3], sig)
        if _is_const(e[2]) and not _is_const(e[3]):
            x, y = y, x
        return f"{x} {sym} {y}"
    raise _Unrenderable(tag)


# ---------------------------------------------------------------------------
# feature flags
# ---------------------------------------------------------------------------

def _walk(e: Expr):
    yield e
    if e[0] == "bin":
        yield from _walk(e[2])
        yield from _walk(e[3])
    elif e[0] in ("iszero", "not", "cdl", "sload"):
        yield from _walk(e[1])
    elif e[0] == "sha3":
        for w in e[1]:
            yield from _walk(w)


def _is_const_valued(e: Expr) -> bool:
    return all(n[0] == "const" for n in _walk(e))


def _features(
    bundle: ContractBundle,
    cond: Expr,
    block: int,
    comp: dict[int, int],
    sig: FunctionSig | None,
) -> dict:
    has_keccak = any(n[0] == "sha3" for n in _walk(cond))
    nonlinear = any(
        n[0] == "bin"
        and n[1] in ("MUL", "EXP")
        and not _is_const_valued(n[2])
        and not _is_const_valued(n[3])
        for n in _walk(cond)
    )
    storage = any(n[0] == "sload" for n in _walk(cond))

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
            exit_cond = branch_condition(bundle, b)
            if exit_cond is not None and _reads_dynamic_extent(exit_cond, sig):
                loop_guarded = True
                break

    return {
        "has_keccak": has_keccak,
        "has_nonlinear_term": nonlinear,
        "loop_guarded": loop_guarded,
        "storage_dependent": storage,
    }


def _inputs_involved(cond: Expr, sig: FunctionSig | None) -> tuple[str, ...]:
    if sig is None:
        return ()
    found: set[int] = set()
    for n in _walk(cond):
        if n[0] != "cdl":
            continue
        kind = _classify_cdl(n[1], sig)
        if kind:
            found.add(kind[1])
    return tuple(sig.param_names[k] for k in sorted(found))


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def _enclosing_sig(bundle: ContractBundle, offset: int) -> Optional[FunctionSig]:
    for sig in bundle.resolved_abi:
        if sig.body_range and sig.body_range[0] <= offset < sig.body_range[1]:
            return sig
    return None


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

        sig = _enclosing_sig(bundle, branch_offset)
        cond = branch_condition(bundle, start)
        if cond is None:
            continue
        if cov_t:  # the fallthrough arm is dark: the block is its negation
            blocking = ("iszero", cond)
        else:
            blocking = cond

        try:
            if any(n[0] in ("opaque", "stackin") for n in _walk(blocking)):
                raise _Unrenderable("unresolved input")
            text = _render(blocking, sig)
        except (_Unrenderable, KeyError):
            text = "opaque"
        out.append(
            BranchConstraintInfo(
                branch_offset,
                text,
                _inputs_involved(blocking, sig),
                _features(bundle, blocking, start, comp, sig),
            )
        )
    return out
