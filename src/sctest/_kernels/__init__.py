"""Hot-loop kernels: the Keccak-256 sponge and the bytecode frame interpreter.

Both are pure Python.  keccak_py memoises digests of inputs shorter than
one 136-byte absorb block (at most 4096 entries, oldest dropped first)
and writes each keccak-f[1600] round out over local lane variables;
tests/test_keccak.py checks the round against a loop-form reference and
the memo against the uncached sponge.  interp_py runs one call frame and
inlines the two-operand arithmetic that sctest.bytecode.opcodes.BINOP
defines; tests/test_evm.py holds the two to each other.  perfbench/run.py
reports BACKEND with every benchmark run and times each kernel per
caller.
"""

from . import interp_py, keccak_py

BACKEND = "python"
keccak256 = keccak_py.keccak256
run_frame = interp_py.run_frame

__all__ = ["BACKEND", "keccak256", "run_frame"]
