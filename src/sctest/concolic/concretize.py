"""Constraint weakening for predicates the solver cannot take whole.

Three rewrites, each trading completeness for solvability:

* ``concretize_nonlinear`` pins all-but-one unknown inside nonlinear
  operator nodes to their observed concrete values, so a product of two
  unknowns becomes linear in the survivor.
* ``substitute_all_but`` pins every unknown except one, everywhere.
  The residual fallback when a predicate stays multi-unknown even after
  the nonlinear rewrite.
* ``concretize_keccak`` eliminates hash terms: two hashes of equal
  byte length are equated buffer-wordwise, hashes of differing lengths
  never collide, and a hash equated to a constant whose preimage was
  observed at runtime is replaced by wordwise equations against that
  preimage.  Unmatched digests are left alone.

All three return a simplified predicate and never mutate the input.
"""

from ..errors import NoSymbolicInput
from .symexpr import (
    Binop,
    Const,
    Input,
    Keccak,
    SymExpr,
    Unop,
    has_node,
    inputs_of,
    simplify,
)

NONLINEAR_OPS = frozenset(
    ("MUL", "DIV", "MOD", "EXP", "AND", "OR", "XOR", "SHL", "SHR")
)


def _subst_except(e: SymExpr, env: dict, keep: Input) -> SymExpr:
    """Replace every env-known atom other than ``keep`` with its value."""
    if isinstance(e, Input):
        if e != keep and e in env:
            return Const(env[e])
        return e
    if isinstance(e, Unop):
        return Unop(e.op, _subst_except(e.x, env, keep))
    if isinstance(e, Binop):
        return Binop(
            e.op,
            _subst_except(e.x, env, keep),
            _subst_except(e.y, env, keep),
        )
    if isinstance(e, Keccak):
        return Keccak(
            tuple(_subst_except(p, env, keep) for p in e.parts), e.size
        )
    return e


def concretize_nonlinear(pred: SymExpr, env: dict, keep: Input | None = None):
    """Pin all-but-one unknown inside nonlinear operator nodes.

    ``env`` maps Input atoms to the concrete words they held on the run
    that produced the predicate.  The kept atom defaults to the first
    one encountered.  Only subtrees under a nonlinear operator whose
    operands are both symbolic are rewritten; linear structure keeps
    its unknowns.
    """
    atoms = inputs_of(pred)
    if not atoms:
        raise NoSymbolicInput("predicate has no input atoms to keep")
    if keep is None:
        # default to the first atom the env does not pin; with every atom
        # pinned (or none), fall back to the first in evaluation order
        keep = next((a for a in atoms if a not in env), atoms[0])

    def walk(e: SymExpr) -> SymExpr:
        if isinstance(e, Unop):
            return Unop(e.op, walk(e.x))
        if isinstance(e, Binop):
            if (
                e.op in NONLINEAR_OPS
                and has_node(e.x, Input)
                and has_node(e.y, Input)
            ):
                return Binop(
                    e.op,
                    _subst_except(e.x, env, keep),
                    _subst_except(e.y, env, keep),
                )
            return Binop(e.op, walk(e.x), walk(e.y))
        if isinstance(e, Keccak):
            return Keccak(tuple(walk(p) for p in e.parts), e.size)
        return e

    return simplify(walk(pred))


def substitute_all_but(pred: SymExpr, env: dict, keep: Input) -> SymExpr:
    """Pin every env-known unknown except ``keep``, everywhere."""
    return simplify(_subst_except(pred, env, keep))


def _word_eqs(parts, words) -> SymExpr:
    eqs = [Binop("EQ", p, w) for p, w in zip(parts, words)]
    if not eqs:
        return Const(1)
    out = eqs[0]
    for e in eqs[1:]:
        out = Binop("AND", out, e)
    return out


def concretize_keccak(
    pred: SymExpr,
    concrete_env: dict | None = None,
    preimages: dict | None = None,
) -> SymExpr:
    """Rewrite hash terms until no symbolic hash blocks the solver.

    Hash-to-hash equality of same-sized buffers becomes a conjunction of
    wordwise equations (collision-resistance assumption); differing
    sizes cannot collide.  ``preimages`` maps digest words (int) to the
    buffers (bytes) observed during concrete execution; a hash equated
    to a constant uses the table when it holds a buffer of the right
    size.  Finally, any hash still symbolic has its inputs pinned to
    ``concrete_env`` values, folding to a digest when that makes the
    buffer fully concrete.
    """
    env = concrete_env or {}
    table = preimages or {}

    def rewrite_eq(x: SymExpr, y: SymExpr):
        if isinstance(x, Keccak) and isinstance(y, Keccak):
            if x.size != y.size:
                return Const(0)
            return _word_eqs(
                [walk(p) for p in x.parts], [walk(p) for p in y.parts]
            )
        for k, c in ((x, y), (y, x)):
            if isinstance(k, Keccak) and isinstance(c, Const):
                buf = table.get(c.value)
                if buf is not None and len(buf) == k.size:
                    words = [
                        Const(int.from_bytes(buf[i : i + 32], "big"))
                        for i in range(0, len(buf), 32)
                    ]
                    return _word_eqs([walk(p) for p in k.parts], words)
        return None

    def walk(e: SymExpr) -> SymExpr:
        if isinstance(e, Binop):
            if e.op == "EQ":
                r = rewrite_eq(e.x, e.y)
                if r is not None:
                    return r
            return Binop(e.op, walk(e.x), walk(e.y))
        if isinstance(e, Unop):
            return Unop(e.op, walk(e.x))
        if isinstance(e, Keccak):
            parts = tuple(walk(p) for p in e.parts)
            if env and any(has_node(p, Input) for p in parts):
                # pin the buffer to its observed contents; simplify folds
                # a fully concrete hash into its digest
                parts = tuple(
                    _subst_except(p, env, keep=None) for p in parts
                )
            return Keccak(parts, e.size)
        return e

    return simplify(walk(pred))
