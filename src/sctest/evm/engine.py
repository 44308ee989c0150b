"""Transaction execution driver.

The frame kernel (sctest._kernels.run_frame) executes straight-line
bytecode and pauses at CALL-class instructions; this driver resolves the
callee (inline recursion for deployed addresses, empty success for
unknown ones), maintains the shared gas meter, the per-transaction
storage/balance overlays, and the trace segments, and commits or
discards state per the halt kind.  Only OUT_OF_GAS rolls back: REVERT
and INVALID
keep their storage writes, which diverges from mainnet semantics but
matches this engine's transactional model (roll back on resource
exhaustion only).
"""

from .._kernels import run_frame
from ..bytecode.abi import encode_call
from ..errors import (
    InsufficientBalance,
    MalformedCalldata,
    SctestError,
    UnknownDestination,
)
from .bundle import ContractBundle
from .types import BlockCtx, ExecResult, Transaction
from .world import EvmWorld

CALL_DEPTH_LIMIT = 8

_HALT_NAME = {
    "stop": "STOP",
    "return": "RETURN",
    "revert": "REVERT",
    "invalid": "INVALID",
    "out_of_gas": "OUT_OF_GAS",
    "selfdestruct": "STOP",  # a clean halt that sends nothing
}


class _TxCtx:
    """Mutable per-transaction execution state, from the block after
    tx.delay and with tx.value moved from source to destination; raises
    InsufficientBalance when the source cannot pay.  balances is the
    world's own accounts dict until the first transfer copies it, so
    value moved exactly when balances is not world.accounts."""

    def __init__(self, world: EvmWorld, tx: Transaction):
        self.world = world
        self.block = world.block
        if tx.delay:
            self.block = BlockCtx(self.block.timestamp + tx.delay, self.block.number)
        self.balances = world.accounts
        self.overlays: dict[int, dict[int, int]] = {}
        self.segments: list[tuple[int, tuple[int, ...]]] = []
        self.sha: list[tuple[bytes, bytes]] = []
        self.gas = tx.gas
        if tx.value and not self.transfer(tx.source, tx.destination, tx.value):
            raise InsufficientBalance(
                f"0x{tx.source:040x} holds {self.balances.get(tx.source, 0)}, "
                f"needs {tx.value}"
            )

    def transfer(self, frm: int, to: int, value: int) -> bool:
        """Move value from frm to to; False, moving nothing, when frm
        holds less than value."""
        balances = self.balances
        if balances.get(frm, 0) < value:
            return False
        if balances is self.world.accounts:
            balances = self.balances = dict(balances)
        balances[frm] -= value
        balances[to] = balances.get(to, 0) + value
        return True

    def overlay(self, addr: int) -> dict[int, int]:
        ov = self.overlays.get(addr)
        if ov is None:
            ov = dict(self.world.storage.get(addr, {}))
            self.overlays[addr] = ov
        return ov


def _route(bundle: ContractBundle, calldata: bytes) -> int:
    """Entry pc.  Fallback monitor: unmatched selectors route to a
    function named "fallback" when the ABI declares one; otherwise
    execution starts at the dispatcher, whose no-match arm returns empty
    success."""
    if len(calldata) >= 4 and calldata[:4] in bundle.by_selector:
        return 0
    entry = bundle.fallback_entry
    return 0 if entry is None else entry


def _run_call(
    ctx: _TxCtx,
    image,
    code_addr: int,
    exec_addr: int,
    caller: int,
    callvalue: int,
    calldata: bytes,
    static: bool,
    depth: int,
    start_pc: int = 0,
) -> tuple[str, bytes]:
    """Run `image` (the code deployed at code_addr) as exec_addr, whose
    storage and balance it uses, until the frame halts.  Trace
    segments are filed under code_addr, so a DELEGATECALL's offsets land
    on the callee's code; the two addresses differ only there."""
    block = ctx.block
    storage = ctx.overlay(exec_addr)
    seg: list[int] = []
    state = None if start_pc == 0 else ([], bytearray(), start_pc, 0, 0)
    callret = None
    while True:
        r = run_frame(
            image, calldata, storage, ctx.balances, exec_addr, caller, callvalue,
            block.timestamp, block.number, ctx.gas, static,
            seg, ctx.sha, state, callret,
        )
        if r[0] == "halt":
            _, kind, data, gas_left = r
            ctx.gas = gas_left
            if seg:
                ctx.segments.append((code_addr, tuple(seg)))
            return kind, data
        # paused at a call instruction
        _, kind, to, value, arg, gas_left, st = r
        ctx.gas = gas_left
        if seg:
            ctx.segments.append((code_addr, tuple(seg)))
        seg = []
        success, ret = _resolve_call(
            ctx, kind, exec_addr, caller, callvalue, to, value, arg, static, depth
        )
        state = st
        callret = (success, ret)


def _resolve_call(
    ctx: _TxCtx,
    kind: str,
    from_addr: int,
    outer_caller: int,
    outer_value: int,
    to: int,
    value: int,
    arg: bytes,
    static: bool,
    depth: int,
) -> tuple[int, bytes]:
    if depth + 1 >= CALL_DEPTH_LIMIT:
        return 0, b""
    bundle = ctx.world.deployed.get(to)
    if bundle is None:
        # unknown destination: succeeds with empty return data
        if kind == "call" and value and not ctx.transfer(from_addr, to, value):
            return 0, b""
        return 1, b""
    if kind == "call":
        if value and not ctx.transfer(from_addr, to, value):
            return 0, b""
        exec_addr, caller, callvalue, st = to, from_addr, value, static
    elif kind == "delegatecall":
        # callee code (and trace), caller's storage/address/caller/value
        exec_addr, caller, callvalue, st = from_addr, outer_caller, outer_value, static
    else:  # staticcall
        exec_addr, caller, callvalue, st = to, from_addr, 0, True
    halt, data = _run_call(
        ctx, bundle.image, to, exec_addr, caller, callvalue, arg, st,
        depth + 1, _route(bundle, arg),
    )
    success = 1 if halt in ("stop", "return", "selfdestruct") else 0
    return success, data


def execute_tx(world: EvmWorld, tx: Transaction) -> tuple[EvmWorld, ExecResult]:
    """Deterministic interpretation of tx against world.

    Worlds are values (EvmWorld): the input world is never changed, and
    the result world shares with it every storage map the transaction
    left unchanged and its deployed map.  A contract's storage map is
    replaced only when the transaction leaves it with other contents
    (writing a slot's own value back changes nothing), and only then
    does the result get a fresh storage dict.  The result gets a fresh
    BlockCtx when tx.delay is nonzero, and a fresh accounts dict when
    value changed hands.  When no storage map changed, no value moved
    and tx.delay is 0 (an OUT_OF_GAS rollback changes nothing), the
    result world is the input world itself.
    """
    bundle = world.deployed.get(tx.destination)
    if bundle is None:
        raise UnknownDestination(f"0x{tx.destination:040x} has no code")

    calldata = tx.call_data
    if calldata is None:
        sig = bundle.by_name.get(tx.function_call)
        if sig is None:
            raise SctestError(
                f"function {tx.function_call!r} not in {bundle.name} ABI"
            )
        calldata = encode_call(sig, tx.args or ())
    if len(calldata) < 4:
        raise MalformedCalldata(f"calldata is {len(calldata)} bytes, need >= 4")

    ctx = _TxCtx(world, tx)
    kind, data = _run_call(
        ctx, bundle.image, tx.destination, tx.destination, tx.source,
        tx.value, calldata, False, 0, _route(bundle, calldata),
    )
    halt = _HALT_NAME[kind]

    storage, accounts = world.storage, world.accounts
    if halt != "OUT_OF_GAS":
        for addr in sorted(ctx.overlays):
            ov = ctx.overlays[addr]  # a private copy already
            if ov != storage.get(addr, {}):
                if storage is world.storage:
                    storage = dict(storage)
                storage[addr] = ov
        accounts = ctx.balances

    result = ExecResult(  # positional, in field order: the cheapest build
        halt,
        data,
        tx.gas - ctx.gas,
        tuple(ctx.segments),
        tuple(ctx.sha),
    )
    if (
        storage is not world.storage
        or accounts is not world.accounts
        or ctx.block is not world.block
    ):
        world = EvmWorld(accounts, world.deployed, storage, ctx.block)
    return world, result


def execute_sequence(
    world: EvmWorld, txs: list[Transaction]
) -> tuple[EvmWorld, list[ExecResult]]:
    """Fold execute_tx over txs left to right, from world (which, as
    with execute_tx, is left as it was).  Errors propagate and stop the
    fold at the offending transaction."""
    results: list[ExecResult] = []
    for tx in txs:
        world, res = execute_tx(world, tx)
        results.append(res)
    return world, results
