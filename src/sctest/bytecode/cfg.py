"""Control-flow graph recovery from stack-machine bytecode.

Blocks are led by offset 0, JUMPDESTs, and the instruction after each
block end: a jump or a byte that ends the frame (opcodes.BLOCK_ENDS,
where the frame kernel's runs end too, so a halting or unknown byte
never sits inside a block).  Jump targets are resolved only when the
target is a constant pushed within the same block (the standard
compiled-dispatch pattern); anything else is recorded as an unresolved
edge.  Function
entries come from the manifest or from matching the dispatcher pattern
(PUSH4 selector / EQ / JUMPI); body ranges absent from the manifest are
inferred as the dominator closure of the entry block.
"""

from ..record import Record, setfield
from .abi import FunctionSig
from .decode import Instr, decode
from .opcodes import BLOCK_ENDS, lookup

_JUMP = 0x56
_JUMPI = 0x57
_JUMPDEST = 0x5B
_PUSH4 = 0x63
_EQ = 0x14


class BasicBlock(Record):
    _fields = ("start", "instrs", "succs", "unresolved_jump")

    def __init__(
        self,
        start: int,
        instrs: tuple[Instr, ...],
        succs: tuple[int, ...],
        unresolved_jump: bool = False,
    ):
        setfield(self, "start", start)
        setfield(self, "instrs", instrs)
        setfield(self, "succs", succs)
        setfield(self, "unresolved_jump", unresolved_jump)

    @property
    def end(self) -> int:
        return self.instrs[-1].end

    @property
    def terminator(self) -> str:
        return self.instrs[-1].name


class Cfg:
    def __init__(
        self,
        blocks: dict[int, BasicBlock],
        order: list[int],  # block starts, ascending
        preds: dict[int, tuple[int, ...]],
        block_of: dict[int, int],  # instruction offset -> block start
        dispatch: dict[bytes, int],  # selector bytes -> entry offset
        instrs: list[Instr] | None = None,  # every instruction, by offset
    ):
        self.blocks = blocks
        self.order = order
        self.preds = preds
        self.block_of = block_of
        self.dispatch = dispatch
        self.instrs = [] if instrs is None else instrs

    def dominated_by(self, entry_block: int) -> list[int]:
        """Blocks (starts) whose every path from the CFG entry passes
        through entry_block."""
        doms = self._dominators()
        return sorted(b for b, ds in doms.items() if entry_block in ds)

    def _dominators(self) -> dict[int, set[int]]:
        entry = self.order[0] if self.order else 0
        reachable = self.reachable(entry)
        doms = {b: set(reachable) for b in reachable}
        doms[entry] = {entry}
        changed = True
        while changed:
            changed = False
            for b in self.order:
                if b == entry or b not in reachable:
                    continue
                preds = [p for p in self.preds.get(b, ()) if p in reachable]
                if preds:
                    new = set.intersection(*(doms[p] for p in preds)) | {b}
                else:
                    new = {b}
                if new != doms[b]:
                    doms[b] = new
                    changed = True
        return doms

    def reachable(self, entry: int) -> set[int]:
        """Blocks (starts) reachable from entry, entry included."""
        seen: set[int] = set()
        work = [entry]
        while work:
            b = work.pop()
            if b in seen or b not in self.blocks:
                continue
            seen.add(b)
            work.extend(self.blocks[b].succs)
        return seen


def _const_stack_walk(instrs: tuple[Instr, ...]) -> dict[int, int | None]:
    """Per-block constant tracking; returns {jump instr offset: target or None}."""
    stack: list[int | None] = []
    targets: dict[int, int | None] = {}
    for ins in instrs:
        if ins.code == _JUMP or ins.code == _JUMPI:
            targets[ins.offset] = stack[-1] if stack else None
            if stack:
                stack.pop()
            if ins.code == _JUMPI and stack:
                stack.pop()
            continue
        if ins.imm_len:
            stack.append(ins.imm)
        elif 0x80 <= ins.code <= 0x8F:  # DUP
            n = ins.code - 0x7F
            stack.append(stack[-n] if len(stack) >= n else None)
        elif 0x90 <= ins.code <= 0x9F:  # SWAP
            n = ins.code - 0x8F
            if len(stack) >= n + 1:
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            else:
                stack = [None] * (n + 1 - len(stack)) + stack
                stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
        else:
            op = lookup(ins.code)
            for _ in range(min(op.pops, len(stack))):
                stack.pop()
            stack.extend([None] * op.pushes)
    return targets


def build_cfg(bytecode: bytes) -> Cfg:
    instrs = decode(bytecode)
    if not instrs:
        return Cfg({}, [], {}, {}, {}, [])

    leaders: set[int] = {instrs[0].offset}
    for i, ins in enumerate(instrs):
        if ins.code == _JUMPDEST:
            leaders.add(ins.offset)
        if ins.code in BLOCK_ENDS and i + 1 < len(instrs):
            leaders.add(instrs[i + 1].offset)

    # slice the instruction list into blocks, each led by a leader
    bodies: dict[int, list[Instr]] = {}
    block_of: dict[int, int] = {}
    for ins in instrs:
        if ins.offset in leaders:
            start = ins.offset
            bodies[start] = []
        bodies[start].append(ins)
        block_of[ins.offset] = start
    order = list(bodies)
    jump_targets: dict[int, int | None] = {}
    for body in bodies.values():
        jump_targets.update(_const_stack_walk(tuple(body)))

    valid_dest = {ins.offset for ins in instrs if ins.code == _JUMPDEST}

    # successor edges
    blocks: dict[int, BasicBlock] = {}
    preds: dict[int, list[int]] = {b: [] for b in order}
    for bi, start in enumerate(order):
        body = tuple(bodies[start])
        last = body[-1]
        succs: list[int] = []
        unresolved = False
        if last.code == _JUMP or last.code == _JUMPI:
            t = jump_targets.get(last.offset)
            if t is not None and t in valid_dest:
                succs.append(block_of[t])
            else:
                unresolved = True
        falls = last.code == _JUMPI or last.code not in BLOCK_ENDS
        if falls and bi + 1 < len(order):
            succs.append(order[bi + 1])
        blocks[start] = BasicBlock(start, body, tuple(succs), unresolved)
        for succ in succs:
            preds[succ].append(start)
    preds_t = {b: tuple(ps) for b, ps in preds.items()}

    cfg = Cfg(blocks, order, preds_t, block_of, {}, instrs)
    cfg.dispatch = _recover_dispatch(cfg, jump_targets)
    return cfg


def _recover_dispatch(
    cfg: Cfg, jump_targets: dict[int, int | None]
) -> dict[bytes, int]:
    """Match PUSH4 <sel> .. EQ .. JUMPI(resolved) inside each block;
    jump_targets is build_cfg's _const_stack_walk of every block."""
    out: dict[bytes, int] = {}
    for start in cfg.order:
        blk = cfg.blocks[start]
        last = blk.instrs[-1]
        if last.code != _JUMPI:
            continue
        t = jump_targets.get(last.offset)
        if t is None or t not in cfg.block_of:
            continue
        sel = None
        saw_eq = False
        for ins in blk.instrs:
            if ins.code == _PUSH4:
                sel = ins.imm
            elif ins.code == _EQ and sel is not None:
                saw_eq = True
        if saw_eq and sel is not None:
            out.setdefault(sel.to_bytes(4, "big"), t)
    return out


def resolve_entries(cfg: Cfg, abi: list[FunctionSig]) -> list[FunctionSig]:
    """Fill entry_offset (via dispatcher match) and body_range (via
    dominator closure) for sigs that lack them."""
    out: list[FunctionSig] = []
    for sig in abi:
        entry = sig.entry_offset
        if entry is None:
            entry_block = cfg.dispatch.get(sig.selector)
            entry = entry_block
        body = sig.body_range
        if body is None and entry is not None and entry in cfg.blocks:
            dominated = cfg.dominated_by(entry)
            if dominated:
                lo = min(dominated)
                hi = max(cfg.blocks[b].end for b in dominated)
                body = (lo, hi)
        out.append(
            FunctionSig(
                sig.name, sig.params, entry, body, sig.is_property, sig.param_names
            )
        )
    return out
