"""Lockstep concrete + symbolic frame execution.

Runs the same bytecode subset as the concrete kernel while carrying a
shadow for every word: on a shadow stack beside the concrete one, in a
map of memory words and in a map of stored slots.  At every JUMPI whose
condition is symbolic it records a PathConstraint carrying the branch
offset and the concretely taken direction.  The concrete half
reproduces the kernel's semantics instruction for instruction, so the
recorded trace matches what the engine would produce for the same
transaction; generated inputs are nevertheless always re-validated
through the engine before being kept.
Each instruction's gas and stack bounds come from the image's step
table (CodeImage.steps), the table the kernel steps from: the shadow
charges the gas, traces the instruction and makes the one stack check
the kernel makes when it steps, before the handler runs.  SHA3 charges
its words in its handler, and memory grows through the kernel's own
helper under the same cap.

Symbolic values enter through call data only, and only when it is
encoded from structured args: raw call data (Transaction.call_data)
runs with every word concrete, as the engine runs it.  The argument
layout maps ABI-encoded regions to Input atoms: static arguments are
whole-word atoms, array elements are per-element atoms, bytes arguments
are per-byte atoms, and each dynamic argument's length word is a
"length" atom (head-word offsets stay concrete).  Reads that assemble
several symbolic bytes into one word build shift-and-add trees that
symexpr.simplify folds back to single atoms when the code later isolates
a byte.

Execution stops collecting at the first CALL-class instruction
(opcodes.CALL_CLASS; SELFDESTRUCT halts as "selfdestruct"): cross-
contract data flow stays concrete (the engine handles it when the
materialized input is replayed).

A word's shadow is one pair: its symbolic expression (None when the
word is concrete) and its slot record, the pre-transaction storage
slots whose concrete values flowed into it.  A plain word's shadow is
(None, frozenset()).  The pair moves as one: DUP, SWAP, MSTORE, MLOAD,
SSTORE and SLOAD carry both halves together, a memory write drops the
shadow of every word it overlaps, and an SLOAD of a slot the
transaction has not written shadows as that slot alone.  Two-operand
arithmetic and SHA3 join the slots of their inputs; every other word is
plain.  ShadowRun.reads keeps, per JUMPI offset, the slots that reached
its condition on any of its executions: the storage a branch depends on
even where its predicate holds only the concrete words.

The two-operand arithmetic reads sctest.bytecode.opcodes.BINOP, the
table symexpr evaluates with, so a folded constant and the concrete
word agree by construction.  The world after a transaction prefix comes
from the engine, or from a sctest.evm.snapshots.SnapshotCache when the
caller passes one; either way the shadow starts from that world value
and leaves it as it was.
"""

from dataclasses import dataclass

from .._kernels import keccak256
from .._kernels.interp_py import STACK_LIMIT, _ensure
from ..bytecode.abi import encode_call
from ..bytecode.opcodes import BINOP, CALL_CLASS, OPCODES
from ..errors import MalformedCalldata, SctestError, UnknownDestination
from ..evm.engine import _route, _TxCtx, execute_sequence
from ..evm.snapshots import SnapshotCache
from ..evm.types import Transaction
from ..evm.world import EvmWorld
from .symexpr import (
    Binop,
    Const,
    Input,
    Keccak,
    PathConstraint,
    SymExpr,
    Unop,
    simplify,
)

MASK256 = (1 << 256) - 1
ADDR_MASK = (1 << 160) - 1

_BIN_NAME = {code: o.mnemonic for code, o in OPCODES.items() if o.mnemonic in BINOP}
_NO_SLOTS: frozenset[int] = frozenset()
Shadow = tuple[SymExpr | None, frozenset[int]]  # (expression, slot record)
_PLAIN: Shadow = (None, _NO_SLOTS)


@dataclass(frozen=True)
class _Region:
    start: int  # absolute calldata offset
    size: int
    param: str
    kind: str  # word | length | bytes | elems
    bits: int


class ArgLayout:
    """Symbolic view of ABI-encoded call data for one function call."""

    def __init__(self, sig, args):
        self.sig = sig
        self.regions: list[_Region] = []
        head = 4
        tail = 4 + 32 * len(sig.params)
        for t, name, v in zip(sig.params, sig.param_names, args):
            if not t.is_dynamic:
                self.regions.append(_Region(head, 32, name, "word", t.word_bits))
            else:
                n = len(v)
                self.regions.append(_Region(tail, 32, name, "length", 256))
                if t.kind == "bytes":
                    padded = (n + 31) // 32 * 32
                    if n:
                        self.regions.append(_Region(tail + 32, n, name, "bytes", 8))
                    tail += 32 + padded
                else:
                    if n:
                        self.regions.append(
                            _Region(tail + 32, 32 * n, name, "elems", t.bits)
                        )
                    tail += 32 + 32 * n
            head += 32
        self._by_byte = {}
        for r in self.regions:
            for q in range(r.start, r.start + r.size):
                self._by_byte[q] = r

    def word_at(self, p: int, calldata: bytes) -> SymExpr | None:
        """Shadow of a 32-byte CALLDATALOAD window at offset p, or None
        when the window holds no symbolic bytes."""
        # whole-region hit: the common aligned read
        r = self._by_byte.get(p)
        if r is not None and r.start == p and r.kind in ("word", "length"):
            return Input(r.param, 0, r.kind, r.bits)
        if r is not None and r.kind == "elems" and (p - r.start) % 32 == 0:
            if p + 32 <= r.start + r.size:
                return Input(r.param, p - r.start, "elem", r.bits)
        # byte assembly: concrete base plus shifted byte atoms
        atoms: list[tuple[int, Input]] = []
        base = 0
        for j in range(32):
            q = p + j
            rq = self._by_byte.get(q)
            shift = 8 * (31 - j)
            if rq is None:
                if q < len(calldata):
                    base |= calldata[q] << shift
                continue
            if rq.kind == "bytes":
                atoms.append((shift, Input(rq.param, q - rq.start, "byte", 8)))
            else:
                # unaligned overlap with a word-granular region: give up
                # on this window, the concrete value stays authoritative
                return None
        if not atoms:
            return None
        expr: SymExpr = Const(base)
        for shift, atom in atoms:
            expr = Binop("ADD", expr, Binop("SHL", Const(shift), atom))
        return simplify(expr)


@dataclass
class ShadowRun:
    """Everything one lockstep execution observed."""

    # stop | return | revert | invalid | out_of_gas | selfdestruct | external_call
    halt: str
    return_data: bytes
    gas_used: int
    trace: tuple[int, ...]
    constraints: tuple[PathConstraint, ...]
    sha_preimages: tuple[tuple[bytes, bytes], ...]
    storage: dict
    reads: dict[int, frozenset[int]]  # JUMPI offset -> slots its condition read

    @property
    def decisions(self) -> tuple[tuple[int, bool], ...]:
        return tuple((c.branch_offset, c.taken) for c in self.constraints)


def _shadow_frame(
    image,
    calldata: bytes,
    layout: ArgLayout | None,
    storage: dict,
    balances: dict,
    self_addr: int,
    caller: int,
    callvalue: int,
    timestamp: int,
    number: int,
    gas: int,
    start_pc: int = 0,
) -> ShadowRun:
    ops = image.code
    imm = image.imm
    nxt = image.nxt
    is_jumpdest = image.is_jumpdest
    steps = image.steps
    code_len = len(ops)

    stack: list[int] = []
    shadow: list[Shadow] = []  # one per stack word
    memory = bytearray()
    mem_shadow: dict[int, Shadow] = {}  # word offset -> shadow; plain words absent
    sto_shadow: dict[int, Shadow] = {}  # slot -> shadow of what the tx stored there
    reads: dict[int, frozenset[int]] = {}
    trace: list[int] = []
    constraints: list[PathConstraint] = []
    sha_seen: list[tuple[bytes, bytes]] = []
    pc = start_pc

    def halt(kind: str, data: bytes = b"", gleft: int | None = None) -> ShadowRun:
        return ShadowRun(
            kind,
            data,
            gas0 - (gas if gleft is None else gleft),
            tuple(trace),
            tuple(constraints),
            tuple(sha_seen),
            storage,
            reads,
        )

    def mem_invalidate(lo: int, hi: int):
        for off in [o for o in mem_shadow if o < hi and o + 32 > lo]:
            del mem_shadow[off]

    gas0 = gas
    while True:
        if pc >= code_len:
            return halt("stop")
        op = ops[pc]
        cost, need, rise = steps[op]
        gas -= cost
        if gas < 0:
            return halt("out_of_gas", gleft=0)
        trace.append(pc)
        if not need <= len(stack) <= STACK_LIMIT - rise:
            return halt("invalid")

        if 0x60 <= op <= 0x7F:  # PUSH
            stack.append(imm[pc])
            shadow.append(_PLAIN)
        elif 0x80 <= op <= 0x8F:  # DUP
            stack.append(stack[0x7F - op])
            shadow.append(shadow[0x7F - op])
        elif 0x90 <= op <= 0x9F:  # SWAP
            n = op - 0x8F
            stack[-1], stack[-n - 1] = stack[-n - 1], stack[-1]
            shadow[-1], shadow[-n - 1] = shadow[-n - 1], shadow[-1]
        elif op in _BIN_NAME:  # two-operand arithmetic
            name = _BIN_NAME[op]
            a = stack.pop()
            b = stack[-1]
            stack[-1] = BINOP[name](a, b)
            (ea, sa), (eb, sb) = shadow.pop(), shadow[-1]
            if ea is not None or eb is not None:
                ea = Const(a) if ea is None else ea
                eb = Const(b) if eb is None else eb
                shadow[-1] = (simplify(Binop(name, ea, eb)), sa | sb)
            elif sa:
                shadow[-1] = (None, sa | sb)
        elif op == 0x15:  # ISZERO
            stack[-1] = 1 if stack[-1] == 0 else 0
            e, s = shadow[-1]
            if e is not None:
                shadow[-1] = (simplify(Unop("ISZERO", e)), s)
        elif op == 0x19:  # NOT
            stack[-1] = stack[-1] ^ MASK256
            e, s = shadow[-1]
            if e is not None:
                shadow[-1] = (simplify(Unop("NOT", e)), s)
        elif op == 0x20:  # SHA3: charge the words here
            off = stack.pop()
            size = stack.pop()
            del shadow[-2:]
            gas -= 6 * ((size + 31) // 32)
            if gas < 0:
                trace.pop()  # out of gas before it ran: not traced
                return halt("out_of_gas", gleft=0)
            if size:
                if not _ensure(memory, off + size):
                    return halt("out_of_gas")
                buf = bytes(memory[off : off + size])
            else:
                buf = b""
            digest = keccak256(buf)
            sha_seen.append((buf, digest))
            stack.append(int.from_bytes(digest, "big"))
            e = None
            if size and size % 32 == 0 and off % 32 == 0:
                parts = []
                symbolic = False
                for w in range(off, off + size, 32):
                    part = mem_shadow.get(w, _PLAIN)[0]
                    if part is None:
                        part = Const(int.from_bytes(memory[w : w + 32], "big"))
                    else:
                        symbolic = True
                    parts.append(part)
                if symbolic:
                    e = Keccak(tuple(parts), size)
            slots = _NO_SLOTS
            if size:
                hi = off + size
                slots = slots.union(
                    *(s for w, (_, s) in mem_shadow.items() if w < hi and w + 32 > off)
                )
            shadow.append((e, slots))
        elif op == 0x30:  # ADDRESS
            stack.append(self_addr)
            shadow.append(_PLAIN)
        elif op == 0x31:  # BALANCE
            stack[-1] = balances.get(stack[-1] & ADDR_MASK, 0)
            shadow[-1] = _PLAIN
        elif op == 0x33:  # CALLER
            stack.append(caller)
            shadow.append(_PLAIN)
        elif op == 0x34:  # CALLVALUE
            stack.append(callvalue)
            shadow.append(_PLAIN)
        elif op == 0x35:  # CALLDATALOAD
            i = stack[-1]
            if i >= len(calldata):
                stack[-1] = 0
            else:
                chunk = calldata[i : i + 32]
                stack[-1] = int.from_bytes(chunk.ljust(32, b"\x00"), "big")
            # a symbolic load position would need an array theory; the
            # concrete value stands in for it
            e = None
            if shadow[-1][0] is None and layout is not None:
                e = layout.word_at(i, calldata)
            shadow[-1] = (e, _NO_SLOTS)
        elif op == 0x36:  # CALLDATASIZE
            stack.append(len(calldata))
            shadow.append(_PLAIN)
        elif op == 0x37:  # CALLDATACOPY
            dst = stack.pop()
            src = stack.pop()
            size = stack.pop()
            del shadow[-3:]
            if size:
                if not _ensure(memory, dst + size):
                    return halt("out_of_gas")
                chunk = calldata[src : src + size] if src < len(calldata) else b""
                memory[dst : dst + size] = chunk.ljust(size, b"\x00")
                mem_invalidate(dst, dst + size)
                if layout is not None and dst % 32 == 0 and size % 32 == 0:
                    for w in range(0, size, 32):
                        e = layout.word_at(src + w, calldata)
                        if e is not None:
                            mem_shadow[dst + w] = (e, _NO_SLOTS)
        elif op == 0x42:  # TIMESTAMP
            stack.append(timestamp)
            shadow.append(_PLAIN)
        elif op == 0x43:  # NUMBER
            stack.append(number)
            shadow.append(_PLAIN)
        elif op == 0x50:  # POP
            stack.pop()
            shadow.pop()
        elif op == 0x51:  # MLOAD
            off = stack[-1]
            if not _ensure(memory, off + 32):
                return halt("out_of_gas")
            stack[-1] = int.from_bytes(memory[off : off + 32], "big")
            shadow[-1] = mem_shadow.get(off, _PLAIN)
        elif op == 0x52:  # MSTORE
            off = stack.pop()
            val = stack.pop()
            word = shadow[-2]  # the concrete offset is authoritative
            del shadow[-2:]
            if not _ensure(memory, off + 32):
                return halt("out_of_gas")
            memory[off : off + 32] = val.to_bytes(32, "big")
            mem_invalidate(off, off + 32)
            if word != _PLAIN:
                mem_shadow[off] = word
        elif op == 0x53:  # MSTORE8
            off = stack.pop()
            val = stack.pop()
            del shadow[-2:]
            if not _ensure(memory, off + 1):
                return halt("out_of_gas")
            memory[off] = val & 0xFF
            mem_invalidate(off, off + 1)
        elif op == 0x54:  # SLOAD
            slot = stack[-1]
            stack[-1] = storage.get(slot, 0)
            shadow[-1] = sto_shadow.get(slot) or (None, frozenset((slot,)))
        elif op == 0x55:  # SSTORE
            slot = stack.pop()
            val = stack.pop()
            sto_shadow[slot] = shadow[-2]  # keyed by the concrete slot
            del shadow[-2:]
            if val:
                storage[slot] = val
            else:
                storage.pop(slot, None)
        elif op == 0x56:  # JUMP
            dest = stack.pop()
            shadow.pop()
            if dest >= code_len or not is_jumpdest[dest]:
                return halt("invalid")
            pc = dest
            continue
        elif op == 0x57:  # JUMPI
            dest = stack.pop()
            cond = stack.pop()
            e, s = shadow[-2]
            del shadow[-2:]
            if e is not None:
                constraints.append(PathConstraint(e, pc, bool(cond)))
            if s:
                reads[pc] = reads.get(pc, _NO_SLOTS) | s
            if cond:
                if dest >= code_len or not is_jumpdest[dest]:
                    return halt("invalid")
                pc = dest
                continue
        elif op == 0x58:  # PC
            stack.append(pc)
            shadow.append(_PLAIN)
        elif op == 0x5A:  # GAS
            stack.append(gas)
            shadow.append(_PLAIN)
        elif op == 0x5B:  # JUMPDEST
            pass
        elif 0xA0 <= op <= 0xA4:  # LOG0..4
            n = op - 0xA0
            off = stack.pop()
            size = stack.pop()
            del stack[len(stack) - n :]
            del shadow[len(shadow) - n - 2 :]
            if size and not _ensure(memory, off + size):
                return halt("out_of_gas")
        elif op == 0xFF:  # SELFDESTRUCT, ahead of the rest of CALL_CLASS
            return halt("selfdestruct")
        elif op in CALL_CLASS:  # CALL-class / CREATE
            return halt("external_call")
        elif op == 0x00:  # STOP
            return halt("stop")
        elif op in (0xF3, 0xFD):  # RETURN / REVERT
            off = stack.pop()
            size = stack.pop()
            if size:
                if not _ensure(memory, off + size):
                    return halt("out_of_gas")
                data = bytes(memory[off : off + size])
            else:
                data = b""
            return halt("return" if op == 0xF3 else "revert", data)
        else:  # INVALID and unknown bytes
            return halt("invalid")

        pc = nxt[pc]


def shadow_run(
    world: EvmWorld,
    prefix,
    tx: Transaction,
    cache: SnapshotCache | None = None,
) -> ShadowRun:
    """Execute tx with symbolic call-data shadowing after a concrete
    prefix.  The calldata is the engine's: tx.call_data when set, run
    with no Input atoms (nothing symbolic) and whatever tx.function_call
    says; otherwise tx.args encoded for tx.function_call, which must be
    in the ABI, each argument's seed value shadowed by its atoms.
    Calldata under 4 bytes raises MalformedCalldata.  With a cache, a
    prefix seen before from the same world starts from the cached world
    instead of being run again.  The transaction starts as the engine
    starts it (_TxCtx), so a source that cannot pay tx.value raises
    InsufficientBalance."""
    prefix = list(prefix)
    if not prefix:
        base = world
    elif cache is None:
        base, _ = execute_sequence(world, prefix)
    else:
        base = cache.get_or_build(world, prefix)
    bundle = base.deployed.get(tx.destination)
    if bundle is None:
        raise UnknownDestination(f"0x{tx.destination:040x} has no code")
    calldata, layout = tx.call_data, None
    if calldata is None:
        sig = bundle.by_name.get(tx.function_call)
        if sig is None:
            raise SctestError(f"function {tx.function_call!r} not in {bundle.name} ABI")
        args = tx.args if tx.args is not None else ()
        calldata = encode_call(sig, args)
        layout = ArgLayout(sig, args)
    if len(calldata) < 4:
        raise MalformedCalldata(f"calldata is {len(calldata)} bytes, need >= 4")

    ctx = _TxCtx(base, tx)  # the engine's block, value transfer and storage
    return _shadow_frame(
        bundle.image,
        calldata,
        layout,
        ctx.overlay(tx.destination),
        ctx.balances,
        tx.destination,
        tx.source,
        tx.value,
        ctx.block.timestamp,
        ctx.block.number,
        ctx.gas,
        _route(bundle, calldata),
    )
