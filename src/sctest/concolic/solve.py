"""Constraint solving over symbolic path predicates.

A conjunction is a list of predicates, each required to evaluate to a
nonzero word.  The pipeline: fold constants, split boolean ANDs, then
require every remaining predicate to mention exactly one unknown atom
and no uninterpreted term (a hash, see symexpr.UNINTERPRETED); otherwise
the answer is Unknown.
Per atom, in order: linear (mod 2^256) equality and interval reasoning,
exhaustive search when the atom's declared width is 16 bits or less,
integer-root extraction for pure-power equalities, otherwise Unknown.
Every Sat model is re-verified by substitution before it is returned; a
verification failure raises, because it can only mean a solver bug.
"""

import math

# not called here: perfbench/layers.py counts Keccak calls per binding
# site and wraps this module's keccak256 in every traced round
from .._kernels import keccak256
from ..errors import SctestError
from ..record import Record, setfield
from .symexpr import (
    UNINTERPRETED,
    Binop,
    Const,
    Input,
    SymExpr,
    Unop,
    conjuncts,
    evaluate_atoms,
    format_expr,
    has_node,
    inputs_of,
    simplify,
)

M256 = 1 << 256
MASK256 = M256 - 1

_ENUM_CAP = 4096  # max modular-equality candidates to enumerate per atom
_SCAN_CAP = 64  # max interval candidates to test before giving up


class SolverSoundness(SctestError):
    """A produced model failed the substitution check: a solver bug."""


class Sat:
    def __init__(self, model: dict):
        self.model = model  # Input atom -> word value


class Unsat(Record):
    pass


class Unknown(Record):
    _fields = ("reason",)

    def __init__(self, reason: str = ""):
        setfield(self, "reason", reason)


SolverResult = Sat | Unsat | Unknown


def _normalize(conjunction) -> list[SymExpr] | Unsat:
    """Simplify, split boolean ANDs, drop trivially-true predicates."""
    out: list[SymExpr] = []
    for c in conjunction:
        for p in conjuncts(simplify(c)):
            if not isinstance(p, Const):
                out.append(p)
            elif p.value == 0:
                return Unsat()
    return out


class _Rel:
    """One comparison, ISZERO-chains resolved into the positive flag."""

    def __init__(self, op: str, x: SymExpr, y: SymExpr | None, positive: bool):
        self.op = op  # LT | GT | EQ | NZ
        self.x = x
        self.y = y
        self.positive = positive


def _to_rel(pred: SymExpr) -> _Rel:
    positive = True
    p = pred
    while isinstance(p, Unop) and p.op == "ISZERO":
        positive = not positive
        p = p.x
    if isinstance(p, Binop) and p.op in ("LT", "GT", "EQ"):
        return _Rel(p.op, p.x, p.y, positive)
    return _Rel("NZ", p, None, positive)


def _linearize(e: SymExpr, atom: Input) -> tuple[int, int] | None:
    """Decompose e as k*atom + b (mod 2^256); None when not affine."""
    if isinstance(e, Const):
        return 0, e.value
    if isinstance(e, Input):
        return (1, 0) if e == atom else None
    if isinstance(e, Unop):
        r = _linearize(e.x, atom)
        if r is None:
            return None
        k, b = r
        if e.op == "NOT":
            return (-k) % M256, (MASK256 - b) % M256
        return None  # ISZERO is not affine
    if isinstance(e, Binop):
        op = e.op
        if op in ("ADD", "SUB"):
            rx = _linearize(e.x, atom)
            ry = _linearize(e.y, atom)
            if rx is None or ry is None:
                return None
            if op == "ADD":
                return (rx[0] + ry[0]) % M256, (rx[1] + ry[1]) % M256
            return (rx[0] - ry[0]) % M256, (rx[1] - ry[1]) % M256
        if op == "MUL":
            rx = _linearize(e.x, atom)
            ry = _linearize(e.y, atom)
            if rx is None or ry is None:
                return None
            if rx[0] == 0:
                c = rx[1]
                return (c * ry[0]) % M256, (c * ry[1]) % M256
            if ry[0] == 0:
                c = ry[1]
                return (c * rx[0]) % M256, (c * rx[1]) % M256
            return None
        if op == "SHL" and isinstance(e.x, Const):
            sh = e.x.value
            if sh >= 256:
                return 0, 0
            ry = _linearize(e.y, atom)
            if ry is None:
                return None
            # exact only when the shift cannot overflow for any atom value
            k, b = ry
            if k in (0, 1) and b <= (MASK256 >> sh) and (
                k == 0 or (1 << atom.bits) - 1 + b <= (MASK256 >> sh)
            ):
                return (k << sh) % M256, (b << sh) % M256
            return None
    return None


def _match_power(e: SymExpr, atom: Input) -> int | None:
    """Degree n when e is exactly atom multiplied by itself n times."""
    if isinstance(e, Input):
        return 1 if e == atom else None
    if isinstance(e, Binop) and e.op == "MUL":
        nx = _match_power(e.x, atom)
        ny = _match_power(e.y, atom)
        if nx is not None and ny is not None:
            return nx + ny
    return None


def _nth_root(c: int, n: int) -> int | None:
    """The r >= 0 with r**n == c, or None."""
    if n == 2:
        r = math.isqrt(c)
        return r if r * r == c else None
    if c < 2:
        return c
    # integer Newton from a power of two at or above the root descends to
    # the floor root in O(log) steps
    r = 1 << (c.bit_length() + n - 1) // n
    while (s := ((n - 1) * r + c // r ** (n - 1)) // n) < r:
        r = s
    return r if r ** n == c else None


def _holds(rel: _Rel, assignment: dict) -> bool:
    x = evaluate_atoms(rel.x, assignment)
    if rel.op == "NZ":
        return (x != 0) == rel.positive
    y = evaluate_atoms(rel.y, assignment)
    if rel.op == "LT":
        return (x < y) == rel.positive
    if rel.op == "GT":
        return (x > y) == rel.positive
    return (x == y) == rel.positive


def _solve_atom(atom: Input, rels: list[_Rel]):
    """Return an int value, Unsat, or Unknown for one atom's relations."""
    dom = 1 << atom.bits
    check = lambda v: all(_holds(r, {atom: v}) for r in rels)

    equalities: list[tuple[int, int]] = []  # (K, B): K*a + B == 0 mod 2^256
    lo, hi = 0, dom - 1
    exclude: set[int] = set()
    exact = True
    power_eqs: list[tuple[int, int]] = []  # (degree, constant)

    for r in rels:
        kx = _linearize(r.x, atom)
        ky = _linearize(r.y, atom) if r.y is not None else (0, 0)
        if r.op == "EQ" or r.op == "NZ":
            if kx is not None and ky is not None:
                K = (kx[0] - ky[0]) % M256
                B = (kx[1] - ky[1]) % M256
                if r.positive == (r.op == "EQ"):  # an equality
                    equalities.append((K, B))
                else:  # a disequality
                    if K == 1:
                        exclude.add((-B) % M256)
                    elif K == 0:
                        if B == 0:
                            return Unsat()  # 0 != 0 required
                    else:
                        exact = False
                continue
            if r.op == "EQ" and r.positive and kx is not None and ky is None:
                n = _match_power(r.y, atom)
                if n is not None and kx[0] == 0:
                    power_eqs.append((n, kx[1]))
                    continue
            if r.op == "EQ" and r.positive and ky is not None and kx is None:
                n = _match_power(r.x, atom)
                if n is not None and ky[0] == 0:
                    power_eqs.append((n, ky[1]))
                    continue
            exact = False
            continue
        # LT / GT: interval updates for the k == 1, no-wrap shape
        if kx is None or ky is None:
            exact = False
            continue
        if kx[0] == 1 and ky[0] == 0:
            b, c, op = kx[1], ky[1], r.op
        elif ky[0] == 1 and kx[0] == 0:
            # mirror the relation so the atom sits on the left
            b, c = ky[1], kx[1]
            op = {"LT": "GT", "GT": "LT"}[r.op]
        else:
            exact = False
            continue
        if b + dom - 1 > MASK256:
            exact = False  # atom + b can wrap modulo 2^256; skip intervals
            continue
        want = op if r.positive else {"LT": "GE", "GT": "LE"}[op]
        if want == "LT":
            hi = min(hi, c - b - 1)
        elif want == "GT":
            lo = max(lo, c - b + 1)
        elif want == "GE":
            lo = max(lo, c - b)
        else:  # LE
            hi = min(hi, c - b)

    # 1. equality-driven candidates
    for K, B in equalities:
        R = (-B) % M256
        if K == 0:
            if R:
                return Unsat()
            continue  # trivially true
        d = math.gcd(K, M256)
        if R % d:
            return Unsat()
        step = M256 // d
        a0 = (R // d) * pow(K // d, -1, step) % step
        tried = 0
        v = a0
        while v < dom and tried < _ENUM_CAP:
            if lo <= v <= hi and v not in exclude and check(v):
                return v
            v += step
            tried += 1
        if v >= dom:
            return Unsat()  # every in-domain solution of this equality failed
        return Unknown(f"{atom.param}: equality candidate cap reached")

    # 2. exhaustive search over narrow declared domains
    if atom.bits <= 16:
        for v in range(dom):
            if check(v):
                return v
        return Unsat()

    # 3. pure-power equalities: integer root extraction
    for n, c in power_eqs:
        r = _nth_root(c, n)
        candidates = [] if r is None else [r, (M256 - r) % M256]
        for v in candidates:
            if v < dom and check(v):
                return v
        exact = False

    # 4. interval scan
    if lo > hi:
        return Unsat() if exact else Unknown(f"{atom.param}: empty interval")
    span = hi - lo + 1
    probes = 0
    v = lo
    while v <= hi and probes < _SCAN_CAP:
        if v not in exclude and check(v):
            return v
        v += 1
        probes += 1
    if exact and span <= _SCAN_CAP:
        return Unsat()
    return Unknown(f"{atom.param}: no candidate verified")


def solve(conjunction) -> SolverResult:
    """Decide a conjunction of nonzero-word predicates."""
    preds = _normalize(conjunction)
    if isinstance(preds, Unsat):
        return preds
    if not preds:
        return Sat({})

    by_atom: dict[Input, list[_Rel]] = {}
    for p in preds:
        if has_node(p, UNINTERPRETED):
            return Unknown("uninterpreted term: hash")
        atoms = inputs_of(p)
        if len(atoms) != 1:
            return Unknown(
                f"{len(atoms)} unknowns in one predicate: {format_expr(p)}"
            )
        by_atom.setdefault(atoms[0], []).append(_to_rel(p))

    model: dict[Input, int] = {}
    for atom in by_atom:
        r = _solve_atom(atom, by_atom[atom])
        if isinstance(r, (Unsat, Unknown)):
            return r
        model[atom] = r

    for p in preds:  # model soundness: substitution must satisfy everything
        if evaluate_atoms(p, model) == 0:
            raise SolverSoundness(
                f"model {model} does not satisfy {format_expr(p)}"
            )
    return Sat(model)

