"""The supported instruction vocabulary.

The subset is closed over what the fixtures and the engines need; any
byte outside the table decodes (and executes) as INVALID.
"""

import operator
from dataclasses import dataclass

_MASK256 = (1 << 256) - 1


@dataclass(frozen=True)
class Opcode:
    mnemonic: str
    code: int
    pops: int
    pushes: int
    immediate_len: int  # nonzero only for PUSH1..32
    kind: str  # arith cmp bit stack mem storage ctrl env hash call log halt


def _table() -> dict[int, Opcode]:
    ops = [
        ("STOP", 0x00, 0, 0, 0, "halt"),
        ("ADD", 0x01, 2, 1, 0, "arith"),
        ("MUL", 0x02, 2, 1, 0, "arith"),
        ("SUB", 0x03, 2, 1, 0, "arith"),
        ("DIV", 0x04, 2, 1, 0, "arith"),
        ("MOD", 0x06, 2, 1, 0, "arith"),
        ("EXP", 0x0A, 2, 1, 0, "arith"),
        ("LT", 0x10, 2, 1, 0, "cmp"),
        ("GT", 0x11, 2, 1, 0, "cmp"),
        ("EQ", 0x14, 2, 1, 0, "cmp"),
        ("ISZERO", 0x15, 1, 1, 0, "cmp"),
        ("AND", 0x16, 2, 1, 0, "bit"),
        ("OR", 0x17, 2, 1, 0, "bit"),
        ("XOR", 0x18, 2, 1, 0, "bit"),
        ("NOT", 0x19, 1, 1, 0, "bit"),
        ("SHL", 0x1B, 2, 1, 0, "bit"),
        ("SHR", 0x1C, 2, 1, 0, "bit"),
        ("SHA3", 0x20, 2, 1, 0, "hash"),
        ("ADDRESS", 0x30, 0, 1, 0, "env"),
        ("BALANCE", 0x31, 1, 1, 0, "env"),
        ("CALLER", 0x33, 0, 1, 0, "env"),
        ("CALLVALUE", 0x34, 0, 1, 0, "env"),
        ("CALLDATALOAD", 0x35, 1, 1, 0, "env"),
        ("CALLDATASIZE", 0x36, 0, 1, 0, "env"),
        ("CALLDATACOPY", 0x37, 3, 0, 0, "mem"),
        ("TIMESTAMP", 0x42, 0, 1, 0, "env"),
        ("NUMBER", 0x43, 0, 1, 0, "env"),
        ("POP", 0x50, 1, 0, 0, "stack"),
        ("MLOAD", 0x51, 1, 1, 0, "mem"),
        ("MSTORE", 0x52, 2, 0, 0, "mem"),
        ("MSTORE8", 0x53, 2, 0, 0, "mem"),
        ("SLOAD", 0x54, 1, 1, 0, "storage"),
        ("SSTORE", 0x55, 2, 0, 0, "storage"),
        ("JUMP", 0x56, 1, 0, 0, "ctrl"),
        ("JUMPI", 0x57, 2, 0, 0, "ctrl"),
        ("PC", 0x58, 0, 1, 0, "ctrl"),
        ("GAS", 0x5A, 0, 1, 0, "env"),
        ("JUMPDEST", 0x5B, 0, 0, 0, "ctrl"),
        ("CREATE", 0xF0, 3, 1, 0, "call"),
        ("CALL", 0xF1, 7, 1, 0, "call"),
        ("RETURN", 0xF3, 2, 0, 0, "halt"),
        ("DELEGATECALL", 0xF4, 6, 1, 0, "call"),
        ("CREATE2", 0xF5, 4, 1, 0, "call"),
        ("STATICCALL", 0xFA, 6, 1, 0, "call"),
        ("REVERT", 0xFD, 2, 0, 0, "halt"),
        ("INVALID", 0xFE, 0, 0, 0, "halt"),
        ("SELFDESTRUCT", 0xFF, 1, 0, 0, "call"),
    ]
    for n in range(1, 33):
        ops.append((f"PUSH{n}", 0x5F + n, 0, 1, n, "stack"))
    for n in range(1, 17):
        ops.append((f"DUP{n}", 0x7F + n, n, n + 1, 0, "stack"))
        ops.append((f"SWAP{n}", 0x8F + n, n + 1, n + 1, 0, "stack"))
    for n in range(0, 5):
        ops.append((f"LOG{n}", 0xA0 + n, 2 + n, 0, 0, "log"))
    return {code: Opcode(m, code, po, pu, il, k) for m, code, po, pu, il, k in ops}


OPCODES: dict[int, Opcode] = _table()
_BY_NAME: dict[str, Opcode] = {op.mnemonic: op for op in OPCODES.values()}

INVALID = OPCODES[0xFE]

TERMINATORS = frozenset(
    _BY_NAME[n].code for n in ("STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT")
)
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
