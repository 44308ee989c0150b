"""Preprocessed code arrays consumed by the frame interpreter kernels."""

from dataclasses import dataclass
from typing import ClassVar

from .._kernels.interp_py import _GAS
from ..bytecode.decode import Instr, decode
from ..bytecode.opcodes import OPCODES, by_name

# A run ends at every instruction that leaves the straight line, pauses
# the frame, or needs the exact gas meter: SHA3 charges its per-word gas
# in its handler and GAS reads the meter, so each must be last.
RUN_ENDS = frozenset(
    by_name(n).code
    for n in (
        "JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT",
        "CALL", "DELEGATECALL", "STATICCALL", "SHA3", "GAS",
    )
) | frozenset(range(256)).difference(OPCODES)  # an unknown byte halts

# (pops, pushes - pops) per byte; an unknown byte halts before either
_STACK = [(0, 0)] * 256
for _op in OPCODES.values():
    _STACK[_op.code] = (_op.pops, _op.pushes - _op.pops)

# (gas, need, rise) of each byte taken as one instruction
STEPS = tuple((_GAS[b], p, max(g, 0)) for b, (p, g) in enumerate(_STACK))

# the run entry at an offset inside a PUSH immediate: no gas left or
# stack depth fits it, so the kernel steps the byte there
_NEVER = ((), float("inf"), 0, 0)


@dataclass(frozen=True)
class CodeImage:
    """A contract's code in the arrays run_frame reads.

    runs[pc] describes the straight-line run from instruction offset pc
    to the next run end (RUN_ENDS) or the end of the code, as
    (offsets, gas, need, rise): the run's instruction offsets, their
    summed static gas, the stack depth the run needs to start on, and
    the highest the stack rises above that start.  steps[op] gives
    (gas, need, rise) for opcode op alone, the same for every image.
    Offsets inside a PUSH immediate get a run that never fits, so the
    kernel steps there."""

    code: bytes
    instrs: tuple[Instr, ...]
    imm: tuple  # push immediate (int) at push offsets, None elsewhere
    nxt: tuple[int, ...]  # offset of the next instruction, per offset
    is_jumpdest: bytes  # 1 at JUMPDEST offsets
    offsets: tuple[int, ...]  # instruction start offsets
    runs: tuple  # per offset: (offsets, gas, need, rise) to the run end
    steps: ClassVar[tuple] = STEPS  # per opcode: (gas, need, rise)

    @property
    def n_instr(self) -> int:
        return len(self.offsets)

    @staticmethod
    def from_bytecode(code: bytes) -> "CodeImage":
        instrs = decode(code)
        n = len(code)
        imm: list = [None] * n
        nxt = [0] * n
        jd = bytearray(n)
        runs: list = [_NEVER] * n
        run = None  # the run from the instruction after the current one
        for ins in reversed(instrs):
            nxt[ins.offset] = ins.end
            if ins.imm_len:
                imm[ins.offset] = ins.imm
            if ins.code == 0x5B:
                jd[ins.offset] = 1
            pops, grow = _STACK[ins.code]
            gas, need, rise = STEPS[ins.code]
            offs = (ins.offset,)
            if run is not None and ins.code not in RUN_ENDS:
                # the rest of the run starts `grow` above this one's start
                offs += run[0]
                gas += run[1]
                need = max(pops, run[2] - grow)
                rise = max(grow + run[3], 0)
            runs[ins.offset] = run = (offs, gas, need, rise)
        return CodeImage(
            code,
            tuple(instrs),
            tuple(imm),
            tuple(nxt),
            bytes(jd),
            tuple(i.offset for i in instrs),
            tuple(runs),
        )
