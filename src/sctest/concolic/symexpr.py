"""Symbolic expression trees over 256-bit words.

Expressions mirror the concrete interpreter's arithmetic exactly:
evaluating a tree under a concrete argument assignment is total and
produces the same word the interpreter would compute.  Binop operand
order follows the interpreter's stack convention: `x` is the operand
popped first (the top of the stack), `y` the one beneath it, so
SUB(x, y) is x - y and SHL(x, y) shifts y left by x.  Binop semantics
are sctest.bytecode.opcodes.BINOP, the table the shadow computes with.

Input atoms name a position inside one decoded argument:
  kind "word"    the 32-byte word of a static argument (offset 0) or of
                 array element offset//32
  kind "byte"    data byte `offset` of a bytes argument
  kind "length"  the length word of a dynamic argument
`bits` bounds the atom's value range as declared by the ABI (a byte atom
is 8 bits, an address 160); solvers use it as the search domain.
"""

from dataclasses import dataclass

from .._kernels import keccak256
from ..bytecode.opcodes import BINOP

MASK256 = (1 << 256) - 1

UNOPS = ("NOT", "ISZERO", "NEG")

_BOOL_OPS = ("LT", "GT", "EQ")


@dataclass(frozen=True)
class Const:
    value: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value & MASK256)


@dataclass(frozen=True)
class Input:
    param: str
    offset: int = 0
    kind: str = "word"  # word | byte | length
    bits: int = 256


@dataclass(frozen=True)
class Unop:
    op: str
    x: "SymExpr"


@dataclass(frozen=True)
class Binop:
    op: str
    x: "SymExpr"  # popped first (stack top)
    y: "SymExpr"


@dataclass(frozen=True)
class Keccak:
    parts: tuple  # word-sized SymExprs, most significant first
    size: int  # byte length of the hashed buffer


@dataclass(frozen=True)
class Sload:
    slot: "SymExpr"


SymExpr = Const | Input | Unop | Binop | Keccak | Sload


def _eval_input(atom: Input, env: dict) -> int:
    v = env[atom.param]
    if atom.kind == "length":
        return len(v) & MASK256
    if atom.kind == "byte":
        i = atom.offset
        return v[i] if i < len(v) else 0
    if isinstance(v, (list, tuple)):
        i = atom.offset // 32
        return int(v[i]) & MASK256 if i < len(v) else 0
    if isinstance(v, bool):
        return 1 if v else 0
    return int(v) & MASK256


def atom_value(atom: Input, env: dict) -> int:
    """The word an atom denotes under {param name: value} bindings."""
    return _eval_input(atom, env)


def _unop(op: str, x: int) -> int:
    if op == "NOT":
        return x ^ MASK256
    if op == "ISZERO":
        return 1 if x == 0 else 0
    return (-x) & MASK256  # NEG


def _evaluate(expr: SymExpr, atom, storage: dict | None) -> int:
    """Total evaluation; atom(Input) gives each atom's word."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Input):
        return atom(expr)
    if isinstance(expr, Unop):
        return _unop(expr.op, _evaluate(expr.x, atom, storage))
    if isinstance(expr, Binop):
        return BINOP[expr.op](
            _evaluate(expr.x, atom, storage), _evaluate(expr.y, atom, storage)
        )
    if isinstance(expr, Keccak):
        buf = b"".join(
            _evaluate(p, atom, storage).to_bytes(32, "big") for p in expr.parts
        )
        return int.from_bytes(keccak256(buf[: expr.size]), "big")
    if isinstance(expr, Sload):
        slot = _evaluate(expr.slot, atom, storage)
        return (storage or {}).get(slot, 0)
    raise TypeError(f"not a SymExpr: {expr!r}")


def evaluate(expr: SymExpr, env: dict, storage: dict | None = None) -> int:
    """Total evaluation under a concrete assignment {param name: value}."""
    return _evaluate(expr, lambda a: _eval_input(a, env), storage)


def evaluate_atoms(expr: SymExpr, assignment: dict, storage: dict | None = None) -> int:
    """Evaluate with atoms bound directly: {Input atom: word value}."""
    return _evaluate(expr, lambda a: assignment[a] & MASK256, storage)


def inputs_of(expr: SymExpr) -> tuple[Input, ...]:
    """Distinct Input atoms in first-occurrence (depth-first) order."""
    out: list[Input] = []
    seen: set[Input] = set()

    def walk(e):
        if isinstance(e, Input):
            if e not in seen:
                seen.add(e)
                out.append(e)
        elif isinstance(e, Unop):
            walk(e.x)
        elif isinstance(e, Binop):
            walk(e.x)
            walk(e.y)
        elif isinstance(e, Keccak):
            for p in e.parts:
                walk(p)
        elif isinstance(e, Sload):
            walk(e.slot)

    walk(expr)
    return tuple(out)


def has_node(expr: SymExpr, node_type) -> bool:
    if isinstance(expr, node_type):
        return True
    if isinstance(expr, Unop):
        return has_node(expr.x, node_type)
    if isinstance(expr, Binop):
        return has_node(expr.x, node_type) or has_node(expr.y, node_type)
    if isinstance(expr, Keccak):
        return any(has_node(p, node_type) for p in expr.parts)
    if isinstance(expr, Sload):
        return has_node(expr.slot, node_type)
    return False


def substitute(expr: SymExpr, model: dict) -> SymExpr:
    """Replace Input atoms found in model (atom -> word value) by Consts."""
    if isinstance(expr, Const):
        return expr
    if isinstance(expr, Input):
        v = model.get(expr)
        return expr if v is None else Const(v)
    if isinstance(expr, Unop):
        return Unop(expr.op, substitute(expr.x, model))
    if isinstance(expr, Binop):
        return Binop(expr.op, substitute(expr.x, model), substitute(expr.y, model))
    if isinstance(expr, Keccak):
        return Keccak(tuple(substitute(p, model) for p in expr.parts), expr.size)
    if isinstance(expr, Sload):
        return Sload(substitute(expr.slot, model))
    raise TypeError(f"not a SymExpr: {expr!r}")


def is_boolean(expr: SymExpr) -> bool:
    """True when the expression only ever evaluates to 0 or 1."""
    if isinstance(expr, Const):
        return expr.value in (0, 1)
    if isinstance(expr, Unop):
        return expr.op == "ISZERO"
    if isinstance(expr, Binop):
        if expr.op in _BOOL_OPS:
            return True
        if expr.op == "AND":
            return is_boolean(expr.x) and is_boolean(expr.y)
    return False


def upper_bound(expr: SymExpr) -> int:
    """A sound upper bound on the expression's value (at worst MASK256)."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Input):
        return (1 << expr.bits) - 1
    if isinstance(expr, Unop):
        return 1 if expr.op == "ISZERO" else MASK256
    if isinstance(expr, Binop):
        op = expr.op
        bx = upper_bound(expr.x)
        by = upper_bound(expr.y)
        if op == "ADD":
            s = bx + by
            return s if s <= MASK256 else MASK256
        if op == "MUL":
            p = bx * by
            return p if p <= MASK256 else MASK256
        if op == "DIV":
            return bx
        if op == "MOD":
            return min(bx, by - 1) if by else 0
        if op in _BOOL_OPS:
            return 1
        if op == "AND":
            return min(bx, by)
        if op in ("OR", "XOR"):
            m = max(bx, by)
            return (1 << m.bit_length()) - 1
        if op == "SHL" and isinstance(expr.x, Const):
            sh = expr.x.value
            if sh >= 256:
                return 0
            v = by << sh
            return v if v <= MASK256 else MASK256
        if op == "SHR" and isinstance(expr.x, Const):
            sh = expr.x.value
            return 0 if sh >= 256 else by >> sh
        return MASK256
    return MASK256  # Keccak, Sload


def _shift_term(term: SymExpr) -> tuple[int, SymExpr] | None:
    """Decompose term as (s, t) with term == t << s exactly (no overflow)."""
    if isinstance(term, Binop) and term.op == "SHL" and isinstance(term.x, Const):
        s = term.x.value
        if s < 256 and upper_bound(term.y) <= (MASK256 >> s):
            return s, term.y
        return None
    return 0, term


def _flatten_additive(e: SymExpr) -> list[SymExpr]:
    if isinstance(e, Binop) and e.op in ("ADD", "OR"):
        return _flatten_additive(e.x) + _flatten_additive(e.y)
    return [e]


def _shr_over_disjoint(shift: int, e: SymExpr) -> SymExpr | None:
    """SHR(shift, sum-of-disjoint-bit-ranges) when the ranges don't overlap.

    Byte-assembled calldata words take this shape; reducing them lets a
    right shift of an assembled word collapse back to the byte atom.
    """
    terms = []
    for raw in _flatten_additive(e):
        dec = _shift_term(raw)
        if dec is None:
            return None
        s, t = dec
        ub = upper_bound(t)
        if ub == 0:
            continue  # contributes nothing
        terms.append((s, t, s + ub.bit_length() - 1))
    # pairwise-disjoint bit ranges make ADD, OR, and concatenation agree
    spans = sorted((s, hi) for s, _, hi in terms)
    for (lo1, hi1), (lo2, _) in zip(spans, spans[1:]):
        if hi1 >= lo2:
            return None
    out: list[SymExpr] = []
    for s, t, hi in terms:
        if hi < shift:
            continue  # shifted out entirely
        if s >= shift:
            out.append(t if s == shift else simplify(Binop("SHL", Const(s - shift), t)))
        elif t is e:
            # e is a single unshifted term: nothing to fold, and
            # simplifying SHR(shift, e) again would recurse forever
            out.append(Binop("SHR", Const(shift), t))
        else:
            out.append(simplify(Binop("SHR", Const(shift - s), t)))
    if not out:
        return Const(0)
    acc = out[0]
    for t in out[1:]:
        acc = Binop("ADD", acc, t)
    return acc


def is_concrete(expr: SymExpr) -> bool:
    if isinstance(expr, Const):
        return True
    if isinstance(expr, (Input, Sload)):
        return False
    if isinstance(expr, Unop):
        return is_concrete(expr.x)
    if isinstance(expr, Binop):
        return is_concrete(expr.x) and is_concrete(expr.y)
    if isinstance(expr, Keccak):
        return all(is_concrete(p) for p in expr.parts)
    return False


def simplify(expr: SymExpr) -> SymExpr:
    """Constant folding plus the structural rules the shadow relies on."""
    if isinstance(expr, (Const, Input, Sload)):
        return expr
    if isinstance(expr, Unop):
        x = simplify(expr.x)
        if isinstance(x, Const):
            return Const(_unop(expr.op, x.value))
        if expr.op == "ISZERO" and isinstance(x, Unop) and x.op == "ISZERO":
            if is_boolean(x.x):
                return x.x
        return Unop(expr.op, x)
    if isinstance(expr, Keccak):
        parts = tuple(simplify(p) for p in expr.parts)
        e = Keccak(parts, expr.size)
        if all(isinstance(p, Const) for p in parts):
            return Const(evaluate(e, {}))
        return e
    if not isinstance(expr, Binop):
        raise TypeError(f"not a SymExpr: {expr!r}")

    op = expr.op
    x = simplify(expr.x)
    y = simplify(expr.y)
    if isinstance(x, Const) and isinstance(y, Const):
        return Const(BINOP[op](x.value, y.value))

    if op == "ADD":
        if isinstance(x, Const) and x.value == 0:
            return y
        if isinstance(y, Const) and y.value == 0:
            return x
    elif op == "SUB":
        if isinstance(y, Const) and y.value == 0:
            return x
    elif op == "MUL":
        for a, b in ((x, y), (y, x)):
            if isinstance(a, Const):
                if a.value == 0:
                    return Const(0)
                if a.value == 1:
                    return b
    elif op in ("OR", "XOR"):
        for a, b in ((x, y), (y, x)):
            if isinstance(a, Const) and a.value == 0:
                return b
    elif op == "AND":
        for a, b in ((x, y), (y, x)):
            if isinstance(a, Const):
                if a.value == 0:
                    return Const(0)
                if a.value == MASK256:
                    return b
    elif op in ("SHL", "SHR"):
        if isinstance(x, Const):
            if x.value == 0:
                return y
            if x.value >= 256:
                return Const(0)
            if op == "SHR":
                folded = _shr_over_disjoint(x.value, y)
                if folded is not None:
                    return folded
    return Binop(op, x, y)


@dataclass(frozen=True)
class PathConstraint:
    """One recorded conditional-branch fact: evaluating `predicate` under
    the run's concrete input is nonzero exactly when `taken` is True."""

    predicate: SymExpr
    branch_offset: int
    taken: bool

    def observed(self) -> SymExpr:
        """The predicate as it held on the recorded path."""
        if self.taken:
            return self.predicate
        return simplify(Unop("ISZERO", self.predicate))

    def negated(self) -> SymExpr:
        """The predicate for the branch direction not taken."""
        if self.taken:
            return simplify(Unop("ISZERO", self.predicate))
        return self.predicate


def format_expr(expr: SymExpr) -> str:
    """Compact infix rendering, for logs and error messages."""
    if isinstance(expr, Const):
        return str(expr.value) if expr.value < 1 << 32 else f"0x{expr.value:x}"
    if isinstance(expr, Input):
        if expr.kind == "length":
            return f"len({expr.param})"
        if expr.kind == "byte":
            return f"{expr.param}[{expr.offset}]"
        if expr.offset:
            return f"{expr.param}[{expr.offset // 32}]"
        return expr.param
    if isinstance(expr, Unop):
        if expr.op == "ISZERO":
            return f"!({format_expr(expr.x)})"
        if expr.op == "NOT":
            return f"~({format_expr(expr.x)})"
        return f"-({format_expr(expr.x)})"
    if isinstance(expr, Binop):
        sym = {
            "ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/", "MOD": "%",
            "EXP": "**", "LT": "<", "GT": ">", "EQ": "==", "AND": "&",
            "OR": "|", "XOR": "^", "SHL": "<<", "SHR": ">>",
        }[expr.op]
        if expr.op in ("SHL", "SHR"):
            # operand order: shift amount is x, value is y
            return f"({format_expr(expr.y)} {sym} {format_expr(expr.x)})"
        return f"({format_expr(expr.x)} {sym} {format_expr(expr.y)})"
    if isinstance(expr, Keccak):
        return f"keccak({', '.join(format_expr(p) for p in expr.parts)})"
    if isinstance(expr, Sload):
        return f"storage[{format_expr(expr.slot)}]"
    return repr(expr)
