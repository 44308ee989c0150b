"""Preprocessed code arrays consumed by the frame interpreter kernels.

Every per-opcode figure here (gas, pops, pushes, and the bytes that end
a block) comes from sctest.bytecode.opcodes; this module only folds
them into the run and step tables that run_frame and the shadow read.
CodeImage.from_bytecode decodes the bytecode itself, with the decoder
build_cfg uses for its instruction list (Cfg.instrs).
"""

from ..bytecode.decode import decode
from ..bytecode.opcodes import BLOCK_ENDS, by_name, lookup
from ..record import Record, setfield

# A run ends where a basic block does, at the calls that pause the frame
# for the driver, and where a handler needs the exact gas meter: SHA3
# charges its per-word gas itself and GAS reads the meter.
RUN_ENDS = BLOCK_ENDS | {
    by_name(n).code for n in ("CALL", "DELEGATECALL", "STATICCALL", "SHA3", "GAS")
}

# (gas, need, rise) of each byte taken as one instruction; a byte outside
# the table is INVALID, which halts before its stack effect
STEPS = tuple(
    (op.gas, op.pops, max(op.pushes - op.pops, 0)) for op in map(lookup, range(256))
)

# the run entry at an offset inside a PUSH immediate: no gas left or
# stack depth fits it, so the kernel steps the byte there
_NEVER = ((), float("inf"), 0, 0)


class CodeImage(Record):
    """A contract's code in the arrays run_frame reads.

    runs[pc] describes the straight-line run from instruction offset pc
    to the next run end (RUN_ENDS) or the end of the code, as
    (offsets, gas, need, rise): the run's instruction offsets, their
    summed static gas, the stack depth the run needs to start on, and
    the highest the stack rises above that start.  steps[op] gives
    (gas, need, rise) for opcode op alone, the same for every image.
    Offsets inside a PUSH immediate get a run that never fits, so the
    kernel steps there."""

    _fields = ("code", "imm", "nxt", "is_jumpdest", "runs")
    steps = STEPS  # per opcode: (gas, need, rise)

    def __init__(
        self,
        code: bytes,
        imm: tuple,  # push immediate (int) at push offsets, None elsewhere
        nxt: tuple[int, ...],  # offset of the next instruction, per offset
        is_jumpdest: bytes,  # 1 at JUMPDEST offsets
        runs: tuple,  # per offset: (offsets, gas, need, rise) to the run end
    ):
        setfield(self, "code", code)
        setfield(self, "imm", imm)
        setfield(self, "nxt", nxt)
        setfield(self, "is_jumpdest", is_jumpdest)
        setfield(self, "runs", runs)

    @staticmethod
    def from_bytecode(code: bytes) -> "CodeImage":
        n = len(code)
        imm: list = [None] * n
        nxt = [0] * n
        jd = bytearray(n)
        runs: list = [_NEVER] * n
        run = None  # the run from the instruction after the current one
        for ins in reversed(decode(code)):
            nxt[ins.offset] = ins.end
            if ins.imm_len:
                imm[ins.offset] = ins.imm
            if ins.code == 0x5B:
                jd[ins.offset] = 1
            gas, need, rise = STEPS[ins.code]
            offs = (ins.offset,)
            if run is not None and ins.code not in RUN_ENDS:
                # the rest of the run starts `grow` above this one's start
                op = lookup(ins.code)
                grow = op.pushes - op.pops
                offs += run[0]
                gas += run[1]
                need = max(op.pops, run[2] - grow)
                rise = max(grow + run[3], 0)
            runs[ins.offset] = run = (offs, gas, need, rise)
        return CodeImage(code, tuple(imm), tuple(nxt), bytes(jd), tuple(runs))
