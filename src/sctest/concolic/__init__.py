"""Concolic execution: lockstep shadow interpretation, path constraints,
a built-in word-level solver, and a coverage-guided branch-flipping
driver that weakens the conjunctions the solver cannot take whole."""

from ..evm.snapshots import SnapshotCache
from .drive import DriveBudget, drive
from .shadow import ArgLayout, ShadowRun, shadow_run
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
    "Const",
    "DriveBudget",
    "Input",
    "Keccak",
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
    "drive",
    "evaluate",
    "evaluate_atoms",
    "format_expr",
    "inputs_of",
    "shadow_run",
    "simplify",
    "solve",
    "substitute",
]
