"""sctest: hybrid smart-contract testing engine.

Coverage-guided fuzzing over an EVM-subset interpreter, plus a concolic
engine (shadow execution, path constraints and a built-in word-level
solver) that tries to flip the branches fuzzing leaves uncovered.
"""

__version__ = "0.1.0"
