"""Coverage-guided branch flipping over shadow executions.

The driver keeps a worklist of flip candidates (one recorded branch
decision each), always attacking the one whose untaken side borders the
most uncovered blocks.  A round builds the path conjunction with the
target negated, applies the concretization rules (dynamic lengths
pinned, hash equalities rewritten, nonlinear terms broken by pinning
all-but-one unknown at observed values), solves, and materializes the
model into a new transaction.  The new input runs concretely; when its
decision prefix matches the prediction it is emitted and its own
branches join the worklist, otherwise it is discarded and the round
ends (the classic restart on divergence).

Dynamic-length escalation: when a conjunction is unsolvable at the
observed lengths, the seed is re-pinned to lengths 2, 4, then 8, each
re-shadowed for fresh constraints; runs that cover new code along the
way are kept.
"""

import itertools
from dataclasses import dataclass, replace

from ..coverage.covmap import CoverageMap, merge_result
from ..errors import SctestError
from ..evm.bundle import ContractBundle
from ..evm.engine import execute_sequence
from ..evm.snapshots import SnapshotCache
from ..evm.types import Transaction
from ..evm.world import make_world
from ..fuzzing.corpus import Corpus, TestCase
from ..fuzzing.target import seed_initial_target
from .concretize import (
    concretize_keccak,
    concretize_nonlinear,
    substitute_all_but,
)
from .shadow import ShadowRun, concretize_loop, shadow_run
from .solve import Sat, Unsat, solve
from .symexpr import (
    UNINTERPRETED,
    Binop,
    Input,
    Keccak,
    PathConstraint,
    atom_value,
    evaluate_atoms,
    has_node,
    inputs_of,
    is_boolean,
    simplify,
    substitute,
)

_PIN_LADDER = (2, 4, 8)
_MAX_COMBOS = 16  # cap on candidate rewrites tried per conjunction


@dataclass
class DriveBudget:
    iterations: int = 10  # worklist rounds (one solve attempt each)
    depth: int = 2  # longest concrete transaction prefix to explore


@dataclass(frozen=True)
class ConcolicState:
    """One flippable branch decision observed on a concrete run."""

    input: tuple[Transaction, ...]  # full case; input[position] is symbolic
    pc: int  # offset of the branch to flip
    phi_solved: tuple[PathConstraint, ...]
    phi_target: PathConstraint
    position: int = 0
    order: int = 0


def _split_bool(pred) -> list:
    """Flatten a boolean AND tree into its conjuncts."""
    if isinstance(pred, Binop) and pred.op == "AND" and is_boolean(pred.x) and is_boolean(pred.y):
        return _split_bool(pred.x) + _split_bool(pred.y)
    return [pred]


def _default_seeds(bundle: ContractBundle, world, destination: int) -> list[TestCase]:
    """One single-call case per ABI function, type-default arguments."""
    target = seed_initial_target(bundle.resolved_abi)
    sender = next(iter(world.accounts))
    return [
        TestCase(
            (
                Transaction(
                    function_call=call.function,
                    args=call.args,
                    source=sender,
                    destination=destination,
                    value=call.value,
                    delay=call.delay,
                ),
            )
        )
        for call in target.fuzz
    ]


def drive(
    bundle: ContractBundle,
    seeds: Corpus,
    coverage: CoverageMap,
    budget: DriveBudget | None = None,
    *,
    cache: SnapshotCache | None = None,
) -> list[TestCase]:
    """Flip uncovered branches reachable from the seed corpus.

    Returns the test cases worth keeping: every seed, every solved
    input that followed its predicted path, and any re-pinned variant
    that covered new code.  `coverage` is updated in place.
    """
    if budget is None:
        budget = DriveBudget()
    world, dest = make_world(bundle)
    cfg = bundle.cfg

    emitted: list[TestCase] = []
    emitted_ids: set[str] = set()
    preimages: dict[int, bytes] = {}
    worklist: list[ConcolicState] = []
    seen_flips: set = set()
    counter = itertools.count()

    def emit(tc: TestCase) -> None:
        if tc.id not in emitted_ids:
            emitted_ids.add(tc.id)
            emitted.append(tc)

    def harvest(pairs) -> None:
        for buf, digest in pairs:
            preimages.setdefault(int.from_bytes(digest, "big"), bytes(buf))

    def instr_count() -> int:
        return sum(b.bit_count() for b in coverage.bits.values())

    def engine_run(txs) -> None:
        after, results = execute_sequence(world, list(txs))
        for r in results:
            merge_result(coverage, r, after)
            harvest(r.sha_preimages)

    def enqueue_flips(txs: tuple, position: int, run: ShadowRun) -> None:
        harvest(run.sha_preimages)
        decisions = run.decisions
        prefix_id = TestCase(txs[:position]).id
        for j, c in enumerate(run.constraints):
            key = (
                position,
                prefix_id,
                decisions[:j],
                (c.branch_offset, not c.taken),
            )
            if key in seen_flips:
                continue
            seen_flips.add(key)
            worklist.append(
                ConcolicState(
                    input=tuple(txs),
                    pc=c.branch_offset,
                    phi_solved=tuple(run.constraints[:j]),
                    phi_target=c,
                    position=position,
                    order=next(counter),
                )
            )

    def flip_block(state: ConcolicState) -> int | None:
        start = cfg.block_of.get(state.pc)
        if start is None:
            return None
        succs = cfg.blocks[start].succs
        if len(succs) != 2:
            return None
        # succs = (jump target, fallthrough); flipping goes the way the
        # recorded run did not
        return succs[1] if state.phi_target.taken else succs[0]

    def score(state: ConcolicState) -> int:
        target = flip_block(state)
        if target is None:
            return 1
        if coverage.covered(dest, target):
            return 0  # flip side already explored; drop lazily
        block = cfg.blocks.get(target)
        adjacent = sum(
            1
            for s in (block.succs if block else ())
            if not coverage.covered(dest, s)
        )
        return 1 + adjacent

    def shadow_positions(tc: TestCase):
        for pos in range(min(len(tc.txs), budget.depth + 1)):
            tx = tc.txs[pos]
            if bundle.by_name.get(tx.function_call) is None:
                continue
            try:
                run = shadow_run(world, list(tc.txs[:pos]), tx, cache=cache)
            except SctestError:
                continue
            enqueue_flips(tc.txs, pos, run)

    # -- seed intake --------------------------------------------------------

    seed_cases = list(seeds.entries) if len(seeds) else _default_seeds(
        bundle, world, dest
    )
    for tc in seed_cases:
        emit(tc)
        engine_run(tc.txs)
        shadow_positions(tc)

    # -- solving ------------------------------------------------------------

    def atom_env(sig, args, preds) -> dict:
        names = dict(zip(sig.param_names, args))
        env: dict[Input, int] = {}
        for p in preds:
            for a in inputs_of(p):
                if a not in env:
                    env[a] = atom_value(a, names)
        return env

    def apply_model(sig, args: tuple, model: dict) -> tuple:
        out = list(args)
        index = {name: i for i, name in enumerate(sig.param_names)}
        for atom, value in model.items():
            i = index.get(atom.param)
            if i is None or atom.kind == "length":
                continue
            t = sig.params[i]
            if t.kind == "bytes":
                buf = bytearray(out[i])
                if atom.offset < len(buf):
                    buf[atom.offset] = value & 0xFF
                out[i] = bytes(buf)
            elif t.kind == "array":
                elems = list(out[i])
                k = atom.offset // 32
                if k < len(elems):
                    elems[k] = value
                out[i] = tuple(elems)
            elif t.kind == "bool":
                out[i] = bool(value)
            else:
                out[i] = value
        return tuple(out)

    def candidate_rewrites(pred, env) -> list:
        """Single-unknown variants of a multi-unknown predicate."""
        atoms = inputs_of(pred)
        out = []
        for keep in atoms:
            cand = concretize_nonlinear(pred, env, keep=keep)
            if len(inputs_of(cand)) == 1 and cand not in out:
                out.append(cand)
        for keep in atoms:
            cand = substitute_all_but(pred, env, keep)
            if len(inputs_of(cand)) <= 1 and cand not in out:
                out.append(cand)
        return out

    def verify_model(original, env, model) -> bool:
        """The solved values, with unsolved atoms at seed defaults, must
        satisfy the pre-rewrite conjunction; hash and storage terms are
        left to the divergence check."""
        assignment = dict(env)
        assignment.update(model)
        for p in original:
            if has_node(p, UNINTERPRETED):
                continue
            if evaluate_atoms(p, assignment) == 0:
                return False
        return True

    def attempt_conjunction(state, sig, prefix, run_tx, constraints, j):
        """Solve Φ ∧ ¬φ for one rung; returns the new case or a verdict."""
        conj = [c.observed() for c in constraints[:j]] + [
            constraints[j].negated()
        ]
        env = atom_env(sig, run_tx.args, conj)
        lengths = {a: v for a, v in env.items() if a.kind == "length"}
        conj = [substitute(p, lengths) for p in conj]
        conj = [concretize_keccak(p, None, preimages) for p in conj]
        conj = [q for p in conj for q in _split_bool(simplify(p))]

        result = solve(conj)
        if isinstance(result, Sat):
            return _finish(state, sig, prefix, run_tx, constraints, j, env, result.model)
        if isinstance(result, Unsat):
            return "unsat"

        # residual: break multi-unknown conjuncts by pinning seed values
        lists = []
        for p in conj:
            n = len(inputs_of(p))
            if n <= 1 and not has_node(p, Keccak):
                lists.append([p])
            else:
                cands = candidate_rewrites(p, env)
                if not cands:
                    return "unknown"
                lists.append(cands)

        tried = 0
        for combo in itertools.product(*lists):
            if tried >= _MAX_COMBOS:
                break
            tried += 1
            res = solve(list(combo))
            if not isinstance(res, Sat):
                continue
            if not verify_model(conj, env, res.model):
                continue
            done = _finish(
                state, sig, prefix, run_tx, constraints, j, env, res.model
            )
            if done == "sat":
                return "sat"
        return "unknown"

    def _finish(state, sig, prefix, run_tx, constraints, j, env, model):
        """Materialize a model, check faithfulness, emit and enqueue."""
        new_args = apply_model(sig, run_tx.args, model)
        new_tx = replace(run_tx, args=new_args)
        case_txs = tuple(prefix) + (new_tx,)
        predicted = tuple(
            (c.branch_offset, c.taken) for c in constraints[:j]
        ) + ((constraints[j].branch_offset, not constraints[j].taken),)
        try:
            run = shadow_run(world, list(prefix), new_tx, cache=cache)
        except SctestError:
            return "diverged"
        if run.decisions[: len(predicted)] != predicted:
            return "diverged"
        harvest(run.sha_preimages)
        engine_run(case_txs)
        emit(TestCase(case_txs))
        enqueue_flips(case_txs, state.position, run)
        return "sat"

    def attempt(state: ConcolicState) -> None:
        prefix = state.input[: state.position]
        seed_tx = state.input[state.position]
        sig = bundle.by_name.get(seed_tx.function_call)
        if sig is None:
            return
        target_pair = (state.pc, state.phi_target.taken)
        dynamic = any(t.is_dynamic for t in sig.params)

        constraints = state.phi_solved + (state.phi_target,)
        verdict = attempt_conjunction(
            state, sig, prefix, seed_tx, constraints, len(state.phi_solved)
        )
        if verdict == "sat" or not dynamic:
            return

        names = dict(zip(sig.param_names, seed_tx.args))
        current = {
            n: max(1, len(v))
            for n, v in names.items()
            if isinstance(v, (bytes, bytearray, list, tuple))
        }
        for pin in _PIN_LADDER:
            if all(c == pin for c in current.values()):
                continue
            pins = {n: pin for n in current}
            pinned_tx = concretize_loop(seed_tx, names, pins)
            case_txs = tuple(prefix) + (pinned_tx,)
            before = instr_count()
            engine_run(case_txs)
            gained = instr_count() > before
            try:
                run = shadow_run(world, list(prefix), pinned_tx, cache=cache)
            except SctestError:
                continue
            if gained:
                emit(TestCase(case_txs))
            enqueue_flips(case_txs, state.position, run)
            j = next(
                (
                    k
                    for k, c in enumerate(run.constraints)
                    if (c.branch_offset, c.taken) == target_pair
                ),
                None,
            )
            if j is None:
                target = flip_block(state)
                if target is not None and coverage.covered(dest, target):
                    emit(TestCase(case_txs))
                    return
                continue
            verdict = attempt_conjunction(
                state, sig, prefix, pinned_tx, run.constraints, j
            )
            if verdict == "sat":
                return

    # -- worklist rounds ------------------------------------------------------

    rounds = 0
    while worklist and rounds < budget.iterations:
        worklist[:] = [s for s in worklist if score(s) > 0]
        if not worklist:
            break
        best = max(worklist, key=lambda s: (score(s), -s.order))
        worklist.remove(best)
        rounds += 1
        attempt(best)

    return emitted
