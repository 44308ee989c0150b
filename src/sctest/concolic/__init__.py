"""Concolic execution: lockstep shadow interpretation, path constraints,
a built-in word-level solver with concretization fallbacks, and a
coverage-guided branch-flipping driver."""

from ..evm.snapshots import SnapshotCache
from .concretize import (
    NoSymbolicInput,
    concretize_keccak,
    concretize_nonlinear,
    substitute_all_but,
)
from .drive import ConcolicState, DriveBudget, drive
from .shadow import ArgLayout, ShadowRun, concretize_loop, shadow_run
from .solve import Sat, SolverResult, SolverSoundness, Unknown, Unsat, solve
from .symexpr import (
    Binop,
    Const,
    Input,
    Keccak,
    PathConstraint,
    SymExpr,
    Unop,
    evaluate,
    evaluate_atoms,
    format_expr,
    inputs_of,
    simplify,
    substitute,
)

__all__ = [
    "ArgLayout",
    "Binop",
    "ConcolicState",
    "Const",
    "DriveBudget",
    "Input",
    "Keccak",
    "NoSymbolicInput",
    "PathConstraint",
    "Sat",
    "ShadowRun",
    "SnapshotCache",
    "SolverResult",
    "SolverSoundness",
    "SymExpr",
    "Unknown",
    "Unop",
    "Unsat",
    "concretize_keccak",
    "concretize_loop",
    "concretize_nonlinear",
    "drive",
    "evaluate",
    "evaluate_atoms",
    "format_expr",
    "inputs_of",
    "shadow_run",
    "simplify",
    "solve",
    "substitute",
    "substitute_all_but",
]
