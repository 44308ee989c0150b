"""Core value types for the execution environment."""

from typing import NamedTuple

from ..errors import TypeMismatch

DEFAULT_TIMESTAMP = 1_000_000
DEFAULT_GAS = 10_000_000
ADDR_MASK = (1 << 160) - 1


def parse_addr(text: str | int) -> int:
    if isinstance(text, int):
        return text & ADDR_MASK
    return int(text, 16) & ADDR_MASK


class BlockCtx(NamedTuple):
    timestamp: int = DEFAULT_TIMESTAMP
    number: int = 1


def normalize_args(args) -> tuple:
    """Make an argument list hashable and canonical (lists -> tuples).

    A tuple that is canonical already (no list or bytearray, arrays as
    tuples of plain ints) comes back as the same object."""
    if type(args) is tuple:
        for a in args:
            t = type(a)
            if t is int:
                continue
            if t is tuple:
                for x in a:
                    if type(x) is not int:
                        break
                else:
                    continue
                break
            if isinstance(a, (list, tuple, bytearray)):
                break
        else:
            return args
    out = []
    for a in args:
        if isinstance(a, (list, tuple)):
            out.append(tuple(int(x) for x in a))
        elif isinstance(a, bytearray):
            out.append(bytes(a))
        else:
            out.append(a)
    return tuple(out)


class _TxFields(NamedTuple):
    function_call: str
    args: tuple | None = None
    call_data: bytes | None = None
    delay: int = 0
    gas: int = DEFAULT_GAS
    source: int = 0
    destination: int = 0
    value: int = 0


class Transaction(_TxFields):
    """The 8-tuple unit of contract interaction.

    Exactly one of (args, call_data) drives encoding: structured args are
    ABI-encoded at execution time via the destination's manifest; raw
    call_data is passed through untouched.  A named tuple, so building
    one is cheap; args are normalised on the way in, by _replace too.
    """

    __slots__ = ()

    def __new__(
        cls,
        function_call: str,
        args: tuple | None = None,
        call_data: bytes | None = None,
        delay: int = 0,
        gas: int = DEFAULT_GAS,
        source: int = 0,
        destination: int = 0,
        value: int = 0,
    ):
        if args is not None:
            args = normalize_args(args)
        return tuple.__new__(
            cls, (function_call, args, call_data, delay, gas, source, destination, value)
        )

    def _replace(self, **changes) -> "Transaction":
        tx = Transaction(*map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"Got unexpected field names: {list(changes)!r}")
        return tx


def tx_doc(tx: Transaction, destination: int | None = None) -> dict:
    """The JSON document of a transaction, the one test-case ids and
    saved corpora are both built from.

    It always holds function, args, sender, value and delay; call_data
    only when set, gas only when it is not DEFAULT_GAS, and destination
    only when it differs from `destination`, the one the reader implies
    (None implies none, so the key is always written).  An argument
    that is not an int, bool, bytes or tuple raises TypeMismatch, so no
    transaction the engine refuses shares a document with one it runs."""
    args = []
    for i, a in enumerate(tx.args or ()):
        if isinstance(a, bytes):
            args.append("0x" + a.hex())
        elif isinstance(a, tuple):
            args.append(list(a))
        elif isinstance(a, bool):
            args.append(a)
        elif isinstance(a, int):
            args.append(int(a))
        else:
            raise TypeMismatch(
                f"argument {i} of {tx.function_call} is a {type(a).__name__}"
            )
    doc = {
        "function": tx.function_call,
        "args": args,
        "sender": f"0x{tx.source:040x}",
        "value": tx.value,
        "delay": tx.delay,
    }
    if tx.call_data is not None:
        doc["call_data"] = "0x" + tx.call_data.hex()
    if tx.gas != DEFAULT_GAS:
        doc["gas"] = tx.gas
    if tx.destination != destination:
        doc["destination"] = f"0x{tx.destination:040x}"
    return doc


class ExecResult(NamedTuple):
    halt: str  # STOP | RETURN | REVERT | INVALID | OUT_OF_GAS
    return_data: bytes
    gas_used: int
    # trace as (address, offsets) segments in execution order; inner call
    # frames contribute their own segments between the caller's
    trace: tuple[tuple[int, tuple[int, ...]], ...]
    external_calls: tuple[dict, ...]
    logs: tuple[tuple[int, int, tuple, bytes], ...]  # (address, pc, topics, data)
    # (preimage, digest) pairs observed at SHA3 sites; feeds the
    # preimage table drive rewrites hash equalities against
    sha_preimages: tuple[tuple[bytes, bytes], ...] = ()

    def offsets(self, address: int | None = None) -> list[int]:
        """Flattened instruction offsets, optionally for one address."""
        out: list[int] = []
        for addr, seg in self.trace:
            if address is None or addr == address:
                out.extend(seg)
        return out

    @property
    def last_offset(self) -> tuple[int, int] | None:
        """(address, offset) of the final executed instruction."""
        if not self.trace:
            return None
        addr, seg = self.trace[-1]
        return (addr, seg[-1]) if seg else None

    @property
    def failed(self) -> bool:
        return self.halt in ("REVERT", "INVALID", "OUT_OF_GAS")
