"""Gap-free bytecode decoding and re-encoding."""

from dataclasses import dataclass

from ..errors import TruncatedImmediate
from .opcodes import OPCODES, lookup


@dataclass(frozen=True)
class Instr:
    offset: int
    code: int  # raw byte as found in the bytecode
    name: str  # resolved mnemonic; unknown bytes resolve to INVALID
    imm: int | None = None  # PUSH immediate as an unsigned integer
    imm_len: int = 0

    @property
    def size(self) -> int:
        return 1 + self.imm_len

    @property
    def end(self) -> int:
        return self.offset + self.size


def decode(bytecode: bytes) -> list[Instr]:
    """Decode every byte; unknown opcodes become INVALID (immediate_len 0).

    Raises TruncatedImmediate when a PUSH immediate overruns the input.
    """
    out: list[Instr] = []
    i = 0
    n = len(bytecode)
    while i < n:
        b = bytecode[i]
        op = lookup(b)
        if op.immediate_len:
            have = n - i - 1
            if have < op.immediate_len:
                raise TruncatedImmediate(i, op.immediate_len, have)
            imm = int.from_bytes(bytecode[i + 1 : i + 1 + op.immediate_len], "big")
            out.append(Instr(i, b, op.mnemonic, imm, op.immediate_len))
            i += 1 + op.immediate_len
        else:
            out.append(Instr(i, b, op.mnemonic if b in OPCODES else "INVALID"))
            i += 1
    return out


def encode(instrs: list[Instr]) -> bytes:
    """Inverse of decode: reproduces the original bytes exactly."""
    out = bytearray()
    for ins in instrs:
        out.append(ins.code)
        if ins.imm_len:
            out.extend(ins.imm.to_bytes(ins.imm_len, "big"))
    return bytes(out)

