"""Symbolic expression trees over 256-bit words.

Expressions mirror the concrete interpreter's arithmetic exactly:
evaluating a tree under a concrete argument assignment is total and
produces the same word the interpreter would compute.  Binop operand
order follows the interpreter's stack convention: `x` is the operand
popped first (the top of the stack), `y` the one beneath it, so
SUB(x, y) is x - y and SHL(x, y) shifts y left by x.  Binop semantics
are sctest.bytecode.opcodes.BINOP, the table the shadow computes with.

Input atoms name a position inside one decoded argument:
  kind "word"    the 32-byte word of a static argument (offset 0)
  kind "elem"    element offset//32 of an array argument
  kind "byte"    data byte `offset` of a bytes argument
  kind "length"  the length word of a dynamic argument
`bits` bounds the atom's value range as declared by the ABI (a byte atom
is 8 bits, an address 160, a bool 1); solvers use it as the search
domain.  atom_value reads an atom's word from {param name: value} and
assign_atoms writes words back, the one map between atoms and values.

The node forms are the ones the shadow interpreter
(sctest.concolic.shadow) builds: Const, Input, Unop (NOT, ISZERO), Binop
and Keccak.  Every other word the shadow meets (environment values,
storage words, calldata read at a symbolic address) stays concrete, so
there is no node for it.  `solve` answers Unknown for a predicate that
holds a Keccak term (UNINTERPRETED); `evaluate` and `format_expr` are
total over every node.
"""

from .._kernels import keccak256
from ..bytecode.opcodes import BINOP
from ..record import Record, setfield

MASK256 = (1 << 256) - 1

UNOPS = ("NOT", "ISZERO")

_BOOL_OPS = ("LT", "GT", "EQ")


class Const(Record):
    _fields = ("value",)

    def __init__(self, value: int):
        setfield(self, "value", value & MASK256)


class Input(Record):
    _fields = ("param", "offset", "kind", "bits")

    def __init__(
        self,
        param: str,
        offset: int = 0,
        kind: str = "word",  # word | elem | byte | length
        bits: int = 256,
    ):
        setfield(self, "param", param)
        setfield(self, "offset", offset)
        setfield(self, "kind", kind)
        setfield(self, "bits", bits)


class Unop(Record):
    _fields = ("op", "x")

    def __init__(self, op: str, x: "SymExpr"):
        setfield(self, "op", op)
        setfield(self, "x", x)


class Binop(Record):
    _fields = ("op", "x", "y")

    def __init__(
        self,
        op: str,
        x: "SymExpr",  # popped first (stack top)
        y: "SymExpr",
    ):
        setfield(self, "op", op)
        setfield(self, "x", x)
        setfield(self, "y", y)


class Keccak(Record):
    _fields = ("parts", "size")

    def __init__(
        self,
        parts: tuple,  # word-sized SymExprs, most significant first
        size: int,  # byte length of the hashed buffer
    ):
        setfield(self, "parts", parts)
        setfield(self, "size", size)


SymExpr = Const | Input | Unop | Binop | Keccak

# terms the solver cannot decide
UNINTERPRETED = (Keccak,)


def atom_value(atom: Input, env: dict) -> int:
    """The word an atom denotes under {param name: value} bindings."""
    v = env[atom.param]
    if atom.kind == "length":
        return len(v) & MASK256
    if atom.kind == "byte":
        i = atom.offset
        return v[i] if i < len(v) else 0
    if isinstance(v, (list, tuple)):
        i = atom.offset // 32
        return int(v[i]) & MASK256 if i < len(v) else 0
    return int(v) & MASK256


def assign_atoms(env: dict, model: dict) -> dict:
    """env ({param name: value}, arrays as tuples, as Transaction holds
    them) with each atom of model ({Input: word}) written back, the
    inverse of atom_value: a byte or an element sets that item, a word
    the value (a bool when 1 bit wide).  A length atom, an item past the
    value's end and an unknown param are left alone."""
    out = dict(env)
    for atom, w in model.items():
        v = out.get(atom.param)
        if v is None or atom.kind == "length":
            continue
        if atom.kind == "word":
            out[atom.param] = bool(w) if atom.bits == 1 else w
        elif atom.kind == "byte":
            i = atom.offset
            if i < len(v):
                out[atom.param] = v[:i] + bytes((w & 0xFF,)) + v[i + 1 :]
        else:  # elem
            i = atom.offset // 32
            if i < len(v):
                out[atom.param] = v[:i] + (w,) + v[i + 1 :]
    return out


def _unop(op: str, x: int) -> int:
    if op == "NOT":
        return x ^ MASK256
    return 1 if x == 0 else 0  # ISZERO


def _evaluate(expr: SymExpr, atom) -> int:
    """Total evaluation; atom(Input) gives each atom's word."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Input):
        return atom(expr)
    if isinstance(expr, Unop):
        return _unop(expr.op, _evaluate(expr.x, atom))
    if isinstance(expr, Binop):
        return BINOP[expr.op](_evaluate(expr.x, atom), _evaluate(expr.y, atom))
    if isinstance(expr, Keccak):
        buf = b"".join(_evaluate(p, atom).to_bytes(32, "big") for p in expr.parts)
        return int.from_bytes(keccak256(buf[: expr.size]), "big")
    raise TypeError(f"not a SymExpr: {expr!r}")


def evaluate(expr: SymExpr, env: dict) -> int:
    """Total evaluation under a concrete assignment {param name: value}."""
    return _evaluate(expr, lambda a: atom_value(a, env))


def evaluate_atoms(expr: SymExpr, assignment: dict) -> int:
    """Evaluate with atoms bound directly: {Input atom: word value}."""
    return _evaluate(expr, lambda a: assignment[a] & MASK256)


def nodes(expr: SymExpr):
    """Every node of the tree, depth first, each before its operands."""
    stack = [expr]
    while stack:
        e = stack.pop()
        yield e
        if isinstance(e, Binop):
            stack += (e.y, e.x)
        elif isinstance(e, Unop):
            stack.append(e.x)
        elif isinstance(e, Keccak):
            stack += reversed(e.parts)


def inputs_of(expr: SymExpr) -> tuple[Input, ...]:
    """Distinct Input atoms in first-occurrence (depth-first) order."""
    return tuple(dict.fromkeys(n for n in nodes(expr) if isinstance(n, Input)))


def has_node(expr: SymExpr, node_type) -> bool:
    """True when some node is an instance of node_type (a class or tuple)."""
    return any(isinstance(n, node_type) for n in nodes(expr))


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


def conjuncts(expr: SymExpr) -> list[SymExpr]:
    """The conjuncts of a boolean AND tree, left to right."""
    if (
        isinstance(expr, Binop)
        and expr.op == "AND"
        and is_boolean(expr.x)
        and is_boolean(expr.y)
    ):
        return conjuncts(expr.x) + conjuncts(expr.y)
    return [expr]


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
    return MASK256  # Keccak


def _shift_term(term: SymExpr) -> tuple[int, SymExpr] | None:
    """Decompose term as (s, t) with term == t << s exactly (no overflow)."""
    if isinstance(term, Binop) and term.op == "SHL" and isinstance(term.x, Const):
        s = term.x.value
        if s < 256 and upper_bound(term.y) <= (MASK256 >> s):
            return s, term.y
        return None
    return 0, term


def _flatten(e: SymExpr, ops: tuple) -> list[SymExpr]:
    """Operands of a chain of Binops in ops, x before y.  Reversed, they
    are in the order the code computed them (y was pushed first)."""
    if isinstance(e, Binop) and e.op in ops:
        return _flatten(e.x, ops) + _flatten(e.y, ops)
    return [e]


def _shr_over_disjoint(shift: int, e: SymExpr) -> SymExpr | None:
    """SHR(shift, sum-of-disjoint-bit-ranges) when the ranges don't overlap.

    Byte-assembled calldata words take this shape; reducing them lets a
    right shift of an assembled word collapse back to the byte atom.
    """
    terms = []
    for raw in _flatten(e, ("ADD", "OR")):
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


def simplify(expr: SymExpr) -> SymExpr:
    """Constant folding plus the structural rules the shadow relies on."""
    if not isinstance(expr, (Unop, Keccak, Binop)):
        return expr  # Const and Input
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


class PathConstraint(Record):
    """One recorded conditional-branch fact: evaluating `predicate` under
    the run's concrete input is nonzero exactly when `taken` is True."""

    _fields = ("predicate", "branch_offset", "taken")

    def __init__(self, predicate: SymExpr, branch_offset: int, taken: bool):
        setfield(self, "predicate", predicate)
        setfield(self, "branch_offset", branch_offset)
        setfield(self, "taken", taken)

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


_INFIX = {
    "ADD": "+", "SUB": "-", "MUL": "*", "DIV": "/", "MOD": "%",
    "LT": "<", "GT": ">", "EQ": "==", "AND": "&", "OR": "|", "XOR": "^",
    "SHL": "<<", "SHR": ">>",
}
_NEGATED = {"LT": ">=", "GT": "<="}


def _is_test(e: SymExpr) -> bool:
    """A comparison or ISZERO: what a source `&&` joins."""
    if isinstance(e, Binop):
        return e.op in _BOOL_OPS
    return isinstance(e, Unop) and e.op == "ISZERO"


def _ordered(a: str, sym: str, b: str) -> str:
    """A symmetric relation with the shorter operand first."""
    a, b = sorted((a, b), key=lambda t: (len(t), t))
    return f"{a} {sym} {b}"


def format_expr(expr: SymExpr) -> str:
    """Source-flavoured infix text, for bottleneck reports and messages.

    No brackets.  Operands appear in source order (`x*x*x + x*x + 2`),
    negated tests as `!=`, `>=` and `<=`, boolean ANDs as `&&` chains,
    and calldata reads by argument name: `name`, `name.length` and
    `name[k]` for a fixed element or byte.  Total over every node.
    """
    f = format_expr
    if isinstance(expr, Const):
        return str(expr.value) if expr.value < 4096 else hex(expr.value)
    if isinstance(expr, Input):
        if expr.kind == "length":
            return f"{expr.param}.length"
        if expr.kind == "byte":
            return f"{expr.param}[{expr.offset}]"
        if expr.kind == "elem":
            return f"{expr.param}[{expr.offset // 32}]"
        return expr.param
    if isinstance(expr, Keccak):
        return "keccak(" + " ++ ".join(f(p) for p in expr.parts) + ")"
    if isinstance(expr, Unop):
        x = expr.x
        if expr.op == "NOT":
            return f"~{f(x)}"
        if isinstance(x, Binop) and x.op in _NEGATED:
            return f"{f(x.x)} {_NEGATED[x.op]} {f(x.y)}"
        if isinstance(x, Binop) and x.op == "EQ":
            return _ordered(f(x.x), "!=", f(x.y))
        if isinstance(x, Unop) and x.op == "ISZERO":
            return f(x.x) if _is_test(x.x) else f"{f(x.x)} != 0"
        return f"!({f(x)})"
    op, x, y = expr.op, expr.x, expr.y
    if op == "AND" and (_is_test(x) or _is_test(y)):
        return " && ".join(f(p) for p in reversed(_flatten(expr, ("AND",))))
    if op == "EQ":
        return _ordered(f(x), "==", f(y))
    if op == "MUL":
        parts = reversed(_flatten(expr, ("MUL",)))
        return "*".join(f(p) for p in sorted(parts, key=lambda p: not isinstance(p, Const)))
    if op == "ADD":
        terms = [(isinstance(p, Const), f(p)) for p in _flatten(expr, ("ADD",))]
        terms.sort(key=lambda t: (t[0], -len(t[1]), t[1]))
        return " + ".join(t for _, t in terms)
    if op == "EXP":
        return f"{f(x)}**{f(y)}"
    if op in ("SHL", "SHR"):  # the shift amount is x, the value y
        x, y = y, x
    elif op in ("AND", "OR", "XOR") and isinstance(x, Const) and not isinstance(y, Const):
        x, y = y, x
    return f"{f(x)} {_INFIX[op]} {f(y)}"
