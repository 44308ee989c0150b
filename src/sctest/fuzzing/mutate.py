"""Deterministic, type-directed mutation of fuzz candidates.

A Candidate is the campaign's working form of one test: the argument
tuple for every fuzz call (in declaration order) plus the order the
calls execute in.  Mutation only ever touches parameters the target
marked mutable, and reordering only happens in shuffle mode.

What a step may touch depends only on the target, the ABI and the
address pool, so it is worked out once per campaign into a MutationPlan
(mutation_plan) rather than on every step; mutate itself only draws
from the RNG and rebuilds the one changed argument row.
"""

import random
from dataclasses import dataclass
from typing import NamedTuple

from ..bytecode.abi import AbiType, FunctionSig
from .target import FuzzTarget


class Candidate(NamedTuple):
    """A tuple, so the campaign's repeat table hashes and compares it in C."""

    args: tuple[tuple, ...]  # one tuple per fuzz call, declaration order
    order: tuple[int, ...]  # execution order over fuzz-call indices


def initial_candidate(target: FuzzTarget) -> Candidate:
    return Candidate(
        tuple(c.args for c in target.fuzz),
        tuple(range(len(target.fuzz))),
    )


def _mutate_int(v: int, bits: int, rng: random.Random) -> int:
    mask = (1 << bits) - 1
    op = rng.randrange(3)
    if op == 0:  # boundary values
        return rng.choice(
            [0, 1, mask, 1 << (bits - 1), (v + 1) & mask, (v - 1) & mask]
        )
    if op == 1:  # fresh random word
        return rng.getrandbits(bits)
    return v ^ (1 << rng.randrange(bits))  # single bit flip


def _mutate_bytes(v: bytes, rng: random.Random) -> bytes:
    ops = ["append"]
    if v:
        ops += ["drop", "flip"]
    op = rng.choice(ops)
    if op == "append":
        return v + bytes([rng.randrange(256)])
    if op == "drop":
        return v[:-1]
    i = rng.randrange(len(v))
    return v[:i] + bytes([v[i] ^ (1 << rng.randrange(8))]) + v[i + 1 :]


def _mutate_array(v: tuple, bits: int, rng: random.Random) -> tuple:
    ops = ["grow"]
    if v:
        ops += ["shrink", "element"]
    op = rng.choice(ops)
    if op == "grow":
        return v + (rng.getrandbits(bits),)
    if op == "shrink":
        i = rng.randrange(len(v))
        return v[:i] + v[i + 1 :]
    i = rng.randrange(len(v))
    return v[:i] + (_mutate_int(v[i], bits, rng),) + v[i + 1 :]


def mutate_value(v, ty: AbiType, rng: random.Random, pool: tuple[int, ...]):
    """One mutated value of the same declared type."""
    if ty.kind == "bool":
        return not v
    if ty.kind == "address":
        others = [p for p in pool if p != v]
        return rng.choice(others or list(pool) or [v])
    if ty.kind == "bytes":
        return _mutate_bytes(v, rng)
    if ty.kind == "array":
        return _mutate_array(v, ty.bits, rng)
    return _mutate_int(v, ty.bits, rng)


@dataclass(frozen=True)
class MutationPlan:
    """What mutate needs that is fixed for a whole campaign: every
    mutable (fuzz call, parameter) slot with its declared type, the
    address pool, and the op lists mutate draws from, without and with
    a splice partner.  Build it once with mutation_plan."""

    slots: tuple[tuple[int, int, AbiType], ...]
    pool: tuple[int, ...]
    ops: tuple[str, ...]
    ops_splice: tuple[str, ...]


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
    op = rng.choice(ops)

    if op == "swap":
        j = rng.randrange(len(cand.order) - 1)
        order = list(cand.order)
        order[j], order[j + 1] = order[j + 1], order[j]
        return Candidate(cand.args, tuple(order))

    if op == "splice":
        if len(cand.args) == 1:
            return Candidate(other.args, cand.order)
        cut = rng.randrange(1, len(cand.args))
        return Candidate(cand.args[:cut] + other.args[cut:], cand.order)

    ci, pi, ty = rng.choice(plan.slots)
    row = list(cand.args[ci])
    row[pi] = mutate_value(row[pi], ty, rng, plan.pool)
    new_args = cand.args[:ci] + (tuple(row),) + cand.args[ci + 1 :]
    return Candidate(new_args, cand.order)
