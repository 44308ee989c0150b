"""Hot-loop kernels: the Keccak-256 sponge and the bytecode frame interpreter.

Keccak is compiled: keccak.c is one CPython C-API function,
keccak256(buffer) -> bytes, which the keccak module builds with the local
C compiler on the first import of this package and loads from then on
(its docstring gives the rules).  There is no pure-Python sponge.
tests/test_keccak.py holds the compiled one to a loop-form Python
reference and to the published vectors.

interp_py runs one call frame in pure Python over a CodeImage
(sctest.evm.image), a straight-line run at a time: it charges gas,
records the trace and checks the stack once per run from the image's
run table, and steps single instructions only where a run's gas or
stack bounds do not hold.  It holds no opcode facts of its own: gas,
stack effects and the bytes that end a run come from
sctest.bytecode.opcodes through the image's tables, so it imports
nothing from sctest.bytecode (whose hashing module imports this
package).  It inlines the two-operand arithmetic that
sctest.bytecode.opcodes.BINOP defines; tests/test_evm.py holds the two
to each other, and tests/test_concolic.py holds the kernel to the
one-instruction-at-a-time shadow interpreter.  BACKEND names the frame
interpreter.
perfbench/run.py reports BACKEND with every benchmark run and times each
kernel per caller.
"""

from . import interp_py
from .keccak import keccak256

BACKEND = "python"
run_frame = interp_py.run_frame

__all__ = ["BACKEND", "keccak256", "run_frame"]
