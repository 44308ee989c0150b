"""Deterministic, type-directed mutation of fuzz candidates.

A Candidate is the campaign's working form of one test: the argument
tuple for every fuzz call (in declaration order) plus the order the
calls execute in.  Mutation only ever touches parameters the target
marked mutable, and reordering only happens in shuffle mode.

What a step may touch depends only on the target, the ABI and the
address pool, so it is worked out once per campaign into a MutationPlan
(mutation_plan) rather than on every step; mutate itself only draws
from the RNG and rebuilds the one changed argument row.

The draws are part of the RNG contract: the golden digests pin the
candidates a seed gives.  Every bounded draw is below(getrandbits, n),
which takes from the generator exactly what random.Random's choice and
randrange take for the same n.  A step draws, in order:
  * the op: below(len(ops)), from plan.ops_splice when a splice partner
    that differs from the candidate is given, else from plan.ops;
  * param: below(len(slots)) for the slot, then the value's draws;
  * swap: below(len(order) - 1) for the position of the left call, or
    nothing when the order holds fewer than two calls (the candidate
    comes back unchanged);
  * splice: 1 + below(len(args) - 1) for the cut, or nothing for a
    single call (all of the partner's rows are taken).
A value draws by its type:
  * uint: below(3) for the op, then below(6) for a boundary value
    (0, 1, max, top bit, v + 1, v - 1), getrandbits(bits) for a fresh
    word, or below(bits) for the bit to flip;
  * bool: nothing (it is negated);
  * address: below(n) over the pool without the value (the whole pool
    when that is empty, the value itself when the pool is empty);
  * bytes: below(3), or below(1) when empty, over append, drop and
    flip; then below(256) for the appended byte, nothing for a drop,
    or below(len) for the byte and below(8) for the bit to flip;
  * array: below(3), or below(1) when empty, over grow, shrink and
    element; then getrandbits(bits) for the grown element, below(len)
    for the element to drop, or below(len) and the uint draws for the
    element to mutate.
"""

import random
from typing import NamedTuple

from ..bytecode.abi import AbiType, FunctionSig
from ..record import Record, setfield
from .target import FuzzTarget


class Candidate(NamedTuple):
    """A tuple, so the campaign's repeat table hashes and compares it in C."""

    args: tuple[tuple, ...]  # one tuple per fuzz call, declaration order
    order: tuple[int, ...]  # execution order over fuzz-call indices


# builds a Candidate from its (args, order) pair past the named
# tuple's Python-level __new__; mutate builds one per step
_tuple_new = tuple.__new__


def initial_candidate(target: FuzzTarget) -> Candidate:
    return Candidate(
        tuple(c.args for c in target.fuzz),
        tuple(range(len(target.fuzz))),
    )


def below(getrandbits, n: int) -> int:
    """A uniform int in [0, n), drawn as random.Random draws one behind
    choice and randrange: n.bit_length() bits at a time until the value
    is below n.  So it takes from the generator exactly what those
    take, also for n == 1.  Raises ValueError for n < 1, as randrange(0)
    does."""
    if n < 1:
        raise ValueError(f"no int below {n} to draw")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _mutate_int(v: int, bits: int, getrandbits) -> int:
    op = below(getrandbits, 3)
    if op == 0:  # boundary values
        mask = (1 << bits) - 1
        i = below(getrandbits, 6)
        return (0, 1, mask, 1 << (bits - 1), (v + 1) & mask, (v - 1) & mask)[i]
    if op == 1:  # fresh random word
        return getrandbits(bits)
    return v ^ (1 << below(getrandbits, bits))  # single bit flip


def _mutate_bytes(v: bytes, getrandbits) -> bytes:
    op = below(getrandbits, 3 if v else 1)
    if op == 0:  # append
        return v + bytes((below(getrandbits, 256),))
    if op == 1:  # drop
        return v[:-1]
    i = below(getrandbits, len(v))  # flip
    return v[:i] + bytes((v[i] ^ (1 << below(getrandbits, 8)),)) + v[i + 1 :]


def _mutate_array(v: tuple, bits: int, getrandbits) -> tuple:
    op = below(getrandbits, 3 if v else 1)
    if op == 0:  # grow
        return v + (getrandbits(bits),)
    i = below(getrandbits, len(v))
    if op == 1:  # shrink
        return v[:i] + v[i + 1 :]
    return v[:i] + (_mutate_int(v[i], bits, getrandbits),) + v[i + 1 :]  # element


def mutate_value(v, ty: AbiType, rng: random.Random, pool: tuple[int, ...]):
    """One mutated value of the same declared type."""
    kind = ty.kind
    getrandbits = rng.getrandbits
    if kind == "bool":
        return not v
    if kind == "address":
        choices = [p for p in pool if p != v] or pool or (v,)
        return choices[below(getrandbits, len(choices))]
    if kind == "bytes":
        return _mutate_bytes(v, getrandbits)
    if kind == "array":
        return _mutate_array(v, ty.bits, getrandbits)
    return _mutate_int(v, ty.bits, getrandbits)


class MutationPlan(Record):
    """What mutate needs that is fixed for a whole campaign: every
    mutable (fuzz call, parameter) slot with its declared type, the
    address pool, and the op lists mutate draws from, without and with
    a splice partner.  Build it once with mutation_plan."""

    _fields = ("slots", "pool", "ops", "ops_splice")

    def __init__(
        self,
        slots: tuple[tuple[int, int, AbiType], ...],
        pool: tuple[int, ...],
        ops: tuple[str, ...],
        ops_splice: tuple[str, ...],
    ):
        setfield(self, "slots", slots)
        setfield(self, "pool", pool)
        setfield(self, "ops", ops)
        setfield(self, "ops_splice", ops_splice)


def mutation_plan(
    target: FuzzTarget, abi: list[FunctionSig], pool: tuple[int, ...] = ()
) -> MutationPlan:
    by_name = {s.name: s for s in abi}
    slots = []
    for ci, call in enumerate(target.fuzz):
        sig = by_name[call.function]
        for pi, name in enumerate(sig.param_names):
            if name in call.mutable_params:
                slots.append((ci, pi, sig.params[pi]))
    # the op order is part of the RNG contract: param x6, splice, swap
    head = ("param",) * 6 if slots else ()
    tail = ("swap",) if target.order_mode == "shuffle" and len(target.fuzz) >= 2 else ()
    return MutationPlan(tuple(slots), pool, head + tail, head + ("splice",) + tail)


def mutate(
    cand: Candidate,
    plan: MutationPlan,
    rng: random.Random,
    other: "Candidate | None" = None,
) -> Candidate:
    """One mutation step: a type-directed value mutation on a mutable
    parameter, a splice with another candidate, or (in shuffle mode)
    an adjacent swap in the execution order.  Everything that depends
    only on the target and the ABI comes precomputed in `plan`."""
    if other is not None and other != cand:
        ops = plan.ops_splice
    else:
        ops = plan.ops
    if not ops:
        return cand
    getrandbits = rng.getrandbits
    op = ops[below(getrandbits, len(ops))]

    if op == "param":
        slots = plan.slots
        ci, pi, ty = slots[below(getrandbits, len(slots))]
        args = cand.args
        row = args[ci]
        value = mutate_value(row[pi], ty, rng, plan.pool)
        row = (*row[:pi], value, *row[pi + 1 :])
        return _tuple_new(Candidate, ((*args[:ci], row, *args[ci + 1 :]), cand.order))

    if op == "swap":
        order = cand.order
        if len(order) < 2:  # no adjacent pair to swap
            return cand
        j = below(getrandbits, len(order) - 1)
        order = (*order[:j], order[j + 1], order[j], *order[j + 2 :])
        return _tuple_new(Candidate, (cand.args, order))

    # splice: a cut after the first call, whole rows from `other` past it
    if len(cand.args) == 1:
        return _tuple_new(Candidate, (other.args, cand.order))
    cut = 1 + below(getrandbits, len(cand.args) - 1)
    return _tuple_new(Candidate, (cand.args[:cut] + other.args[cut:], cand.order))
