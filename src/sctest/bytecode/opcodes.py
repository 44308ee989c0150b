"""The supported instruction vocabulary and every per-opcode fact.

The subset is closed over what the fixtures and the engines need; any
byte outside the table decodes (and executes) as INVALID.  Each Opcode
carries its stack effect (pops, pushes) and its gas on the flat
schedule; TERMINATORS and BLOCK_ENDS are the bytes that end a frame and
a basic block.  The CFG (sctest.bytecode.cfg), the frame kernel's run
and step tables (sctest.evm.image) and the shadow interpreter
(sctest.concolic.shadow) all read them from here.
"""

import operator

from ..record import Record, setfield

_MASK256 = (1 << 256) - 1


class Opcode(Record):
    _fields = ("mnemonic", "code", "pops", "pushes", "immediate_len", "kind", "gas")

    def __init__(
        self,
        mnemonic: str,
        code: int,
        pops: int,
        pushes: int,
        immediate_len: int,  # nonzero only for PUSH1..32
        kind: str,  # arith cmp bit stack mem storage ctrl env hash call log halt
        gas: int,  # flat schedule; SHA3 adds 6 per word in its handler
    ):
        setfield(self, "mnemonic", mnemonic)
        setfield(self, "code", code)
        setfield(self, "pops", pops)
        setfield(self, "pushes", pushes)
        setfield(self, "immediate_len", immediate_len)
        setfield(self, "kind", kind)
        setfield(self, "gas", gas)


def _table() -> dict[int, Opcode]:
    ops = [
        ("STOP", 0x00, 0, 0, 0, "halt", 3),
        ("ADD", 0x01, 2, 1, 0, "arith", 3),
        ("MUL", 0x02, 2, 1, 0, "arith", 3),
        ("SUB", 0x03, 2, 1, 0, "arith", 3),
        ("DIV", 0x04, 2, 1, 0, "arith", 3),
        ("MOD", 0x06, 2, 1, 0, "arith", 3),
        ("EXP", 0x0A, 2, 1, 0, "arith", 3),
        ("LT", 0x10, 2, 1, 0, "cmp", 3),
        ("GT", 0x11, 2, 1, 0, "cmp", 3),
        ("EQ", 0x14, 2, 1, 0, "cmp", 3),
        ("ISZERO", 0x15, 1, 1, 0, "cmp", 3),
        ("AND", 0x16, 2, 1, 0, "bit", 3),
        ("OR", 0x17, 2, 1, 0, "bit", 3),
        ("XOR", 0x18, 2, 1, 0, "bit", 3),
        ("NOT", 0x19, 1, 1, 0, "bit", 3),
        ("SHL", 0x1B, 2, 1, 0, "bit", 3),
        ("SHR", 0x1C, 2, 1, 0, "bit", 3),
        ("SHA3", 0x20, 2, 1, 0, "hash", 30),
        ("ADDRESS", 0x30, 0, 1, 0, "env", 3),
        ("BALANCE", 0x31, 1, 1, 0, "env", 3),
        ("CALLER", 0x33, 0, 1, 0, "env", 3),
        ("CALLVALUE", 0x34, 0, 1, 0, "env", 3),
        ("CALLDATALOAD", 0x35, 1, 1, 0, "env", 3),
        ("CALLDATASIZE", 0x36, 0, 1, 0, "env", 3),
        ("CALLDATACOPY", 0x37, 3, 0, 0, "mem", 20),
        ("TIMESTAMP", 0x42, 0, 1, 0, "env", 3),
        ("NUMBER", 0x43, 0, 1, 0, "env", 3),
        ("POP", 0x50, 1, 0, 0, "stack", 3),
        ("MLOAD", 0x51, 1, 1, 0, "mem", 20),
        ("MSTORE", 0x52, 2, 0, 0, "mem", 20),
        ("MSTORE8", 0x53, 2, 0, 0, "mem", 20),
        ("SLOAD", 0x54, 1, 1, 0, "storage", 100),
        ("SSTORE", 0x55, 2, 0, 0, "storage", 200),
        ("JUMP", 0x56, 1, 0, 0, "ctrl", 3),
        ("JUMPI", 0x57, 2, 0, 0, "ctrl", 3),
        ("PC", 0x58, 0, 1, 0, "ctrl", 3),
        ("GAS", 0x5A, 0, 1, 0, "env", 3),
        ("JUMPDEST", 0x5B, 0, 0, 0, "ctrl", 3),
        ("CREATE", 0xF0, 3, 1, 0, "call", 500),
        ("CALL", 0xF1, 7, 1, 0, "call", 500),
        ("RETURN", 0xF3, 2, 0, 0, "halt", 3),
        ("DELEGATECALL", 0xF4, 6, 1, 0, "call", 500),
        ("CREATE2", 0xF5, 4, 1, 0, "call", 500),
        ("STATICCALL", 0xFA, 6, 1, 0, "call", 500),
        ("REVERT", 0xFD, 2, 0, 0, "halt", 3),
        ("INVALID", 0xFE, 0, 0, 0, "halt", 3),
        ("SELFDESTRUCT", 0xFF, 1, 0, 0, "call", 500),
    ]
    for n in range(1, 33):
        ops.append((f"PUSH{n}", 0x5F + n, 0, 1, n, "stack", 3))
    for n in range(1, 17):
        ops.append((f"DUP{n}", 0x7F + n, n, n + 1, 0, "stack", 3))
        ops.append((f"SWAP{n}", 0x8F + n, n + 1, n + 1, 0, "stack", 3))
    for n in range(0, 5):
        ops.append((f"LOG{n}", 0xA0 + n, 2 + n, 0, 0, "log", 3))
    return {row[1]: Opcode(*row) for row in ops}


OPCODES: dict[int, Opcode] = _table()
_BY_NAME: dict[str, Opcode] = {op.mnemonic: op for op in OPCODES.values()}

INVALID = OPCODES[0xFE]

# The bytes that end a frame: the halting opcodes and every byte outside
# the table, which executes as INVALID.  A basic block also ends at a
# jump; a kernel run ends at every block end (sctest.evm.image.RUN_ENDS).
TERMINATORS = frozenset(
    _BY_NAME[n].code for n in ("STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT")
) | frozenset(range(256)).difference(OPCODES)
BLOCK_ENDS = TERMINATORS | {_BY_NAME["JUMP"].code, _BY_NAME["JUMPI"].code}
CALL_CLASS = frozenset(
    _BY_NAME[n].code
    for n in ("CREATE", "CALL", "DELEGATECALL", "CREATE2", "STATICCALL", "SELFDESTRUCT")
)


# Word semantics of the two-operand instructions, by mnemonic.  x is the
# operand popped first (the stack top) and y the one beneath it, so
# SUB(x, y) is x - y and SHL(x, y) shifts y left by x.  The frame
# interpreter inlines the same arithmetic for speed; tests hold it to
# this table.
BINOP = {
    "ADD": lambda x, y: (x + y) & _MASK256,
    "MUL": lambda x, y: (x * y) & _MASK256,
    "SUB": lambda x, y: (x - y) & _MASK256,
    "DIV": lambda x, y: x // y if y else 0,
    "MOD": lambda x, y: x % y if y else 0,
    "EXP": lambda x, y: pow(x, y, 1 << 256),
    "LT": lambda x, y: 1 if x < y else 0,
    "GT": lambda x, y: 1 if x > y else 0,
    "EQ": lambda x, y: 1 if x == y else 0,
    "AND": operator.and_,
    "OR": operator.or_,
    "XOR": operator.xor,
    "SHL": lambda x, y: (y << x) & _MASK256 if x < 256 else 0,
    "SHR": lambda x, y: y >> x if x < 256 else 0,
}


def by_name(mnemonic: str) -> Opcode:
    return _BY_NAME[mnemonic]


def lookup(code: int) -> Opcode:
    """Opcode for a raw byte; unknown bytes map to INVALID."""
    return OPCODES.get(code, INVALID)
