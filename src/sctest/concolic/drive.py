"""Coverage-guided branch flipping over shadow executions.

The driver keeps a worklist of flip candidates (one recorded branch
decision each), always attacking the one whose untaken side borders the
most uncovered blocks.  A round builds the path conjunction with the
target negated, pins dynamic lengths at their observed values, rewrites
hash equalities into word equations (rewrite_hashes) and solves.  When
the solver cannot take the conjunction whole, each predicate it cannot
decide is tried in single-unknown variants, every other unknown pinned
at its observed value (pin_all_but_one), as in SAGE's generational
search; a model of the variants must still satisfy the unweakened
conjunction.  The model materializes into a new transaction.  The new
input runs concretely; when its decision prefix matches the prediction
it is emitted and its own branches join the worklist, otherwise it is
discarded and the round ends (the classic restart on divergence).

Dynamic-length escalation: when a conjunction is unsolvable at the
observed lengths, the seed's bytes and array arguments are resized to
2, 4, then 8 items (resize_dynamic), each re-shadowed for fresh
constraints; runs that cover new code along the way are kept.
"""

import itertools

from ..coverage.covmap import CoverageMap, merge_result
from ..errors import SctestError
from ..evm.bundle import ContractBundle
from ..evm.engine import execute_sequence
from ..evm.snapshots import SnapshotCache
from ..evm.types import Transaction
from ..evm.world import make_world
from ..fuzzing.corpus import Corpus, TestCase
from ..fuzzing.target import seed_initial_target
from ..record import Record, setfield
from .shadow import ShadowRun, shadow_run
from .solve import Sat, Unsat, solve
from .symexpr import (
    UNINTERPRETED,
    Binop,
    Const,
    Keccak,
    PathConstraint,
    SymExpr,
    Unop,
    assign_atoms,
    atom_value,
    conjuncts,
    evaluate_atoms,
    has_node,
    inputs_of,
    simplify,
    substitute,
)

_PIN_LADDER = (2, 4, 8)
_MAX_COMBOS = 16  # cap on candidate rewrites tried per conjunction
_DEPTH = 2  # longest concrete transaction prefix to explore


class DriveBudget:
    def __init__(self, iterations: int = 10):
        self.iterations = iterations  # worklist rounds (one solve attempt each)


class ConcolicState(Record):
    """One flippable branch decision observed on a concrete run."""

    _fields = ("input", "phi_solved", "phi_target", "position", "order")

    def __init__(
        self,
        input: tuple[Transaction, ...],  # full case; input[position] is symbolic
        phi_solved: tuple[PathConstraint, ...],
        phi_target: PathConstraint,
        position: int = 0,
        order: int = 0,
    ):
        setfield(self, "input", input)
        setfield(self, "phi_solved", phi_solved)
        setfield(self, "phi_target", phi_target)
        setfield(self, "position", position)
        setfield(self, "order", order)


def pin_all_but_one(pred: SymExpr, env: dict) -> list[SymExpr]:
    """Single-unknown variants of pred, one per unknown in inputs_of
    order: that unknown kept, every other atom pinned to its word in env
    ({Input: word}).  Repeats and variants left with more than one
    unknown are dropped."""
    out = []
    for keep in inputs_of(pred):
        pins = {a: v for a, v in env.items() if a != keep}
        cand = simplify(substitute(pred, pins))
        if len(inputs_of(cand)) <= 1 and cand not in out:
            out.append(cand)
    return out


def _word_eqs(parts, words) -> SymExpr:
    """parts[i] == words[i] for every i, left-folded; 1 when empty."""
    eqs = [Binop("EQ", p, w) for p, w in zip(parts, words)]
    if not eqs:
        return Const(1)
    out = eqs[0]
    for e in eqs[1:]:
        out = Binop("AND", out, e)
    return out


def rewrite_hashes(pred: SymExpr, preimages: dict) -> SymExpr:
    """pred with its hash equalities rewritten into word equations.

    Hashes of same-sized buffers are equal when their words are
    (collision resistance); hashes of different sizes never are.  A hash
    equal to a digest in preimages ({digest word: buffer observed at run
    time}) of the hash's size becomes equations against that buffer's
    words; a short last word holds its bytes at the top, as a Keccak
    part does, and the hash reads only those.  Any other hash is left
    alone.
    """

    def rewrite_eq(x: SymExpr, y: SymExpr) -> SymExpr | None:
        if isinstance(x, Keccak) and isinstance(y, Keccak):
            if x.size != y.size:
                return Const(0)
            return _word_eqs(
                [walk(p) for p in x.parts], [walk(p) for p in y.parts]
            )
        for k, c in ((x, y), (y, x)):
            if isinstance(k, Keccak) and isinstance(c, Const):
                buf = preimages.get(c.value)
                if buf is not None and len(buf) == k.size:
                    words = [
                        Const(int.from_bytes(buf[i : i + 32].ljust(32, b"\0"), "big"))
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
            return Keccak(tuple(walk(p) for p in e.parts), e.size)
        return e

    return simplify(walk(pred))


def resize_dynamic(args: tuple, n: int) -> tuple:
    """args with each bytes and array argument cut or zero-padded to n
    items; static arguments as they are."""
    out = []
    for v in args:
        if isinstance(v, bytes):
            v = v[:n].ljust(n, b"\0")
        elif isinstance(v, tuple):
            v = v[:n] + (0,) * (n - len(v))
        out.append(v)
    return tuple(out)


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

    def engine_run(txs) -> int:
        """Run txs from the base world into the coverage; returns how
        many instructions they covered for the first time."""
        after, results = execute_sequence(world, list(txs))
        new = 0
        for r in results:
            new += merge_result(coverage, r, after)
            harvest(r.sha_preimages)
        return new

    def enqueue_flips(txs: tuple, position: int, run: ShadowRun) -> None:
        harvest(run.sha_preimages)
        decisions = run.decisions
        prefix = txs[:position]
        for j, c in enumerate(run.constraints):
            key = (position, prefix, decisions[:j], (c.branch_offset, not c.taken))
            if key in seen_flips:
                continue
            seen_flips.add(key)
            worklist.append(
                ConcolicState(
                    input=tuple(txs),
                    phi_solved=tuple(run.constraints[:j]),
                    phi_target=c,
                    position=position,
                    order=next(counter),
                )
            )

    def flip_block(state: ConcolicState) -> int | None:
        start = cfg.block_of.get(state.phi_target.branch_offset)
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
        for pos in range(min(len(tc.txs), _DEPTH + 1)):
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

    def verify_model(original, env, model) -> bool:
        """The solved values, with unsolved atoms at seed defaults, must
        satisfy the pre-rewrite conjunction; hash terms are left to the
        divergence check."""
        assignment = dict(env)
        assignment.update(model)
        for p in original:
            if has_node(p, UNINTERPRETED):
                continue
            if evaluate_atoms(p, assignment) == 0:
                return False
        return True

    def attempt_conjunction(sig, prefix, run_tx, constraints, j):
        """Solve Φ ∧ ¬φ for one rung; returns the new case or a verdict."""
        conj = [c.observed() for c in constraints[:j]] + [
            constraints[j].negated()
        ]
        names = dict(zip(sig.param_names, run_tx.args))
        env = {a: atom_value(a, names) for p in conj for a in inputs_of(p)}
        lengths = {a: v for a, v in env.items() if a.kind == "length"}
        conj = [substitute(p, lengths) for p in conj]
        conj = [q for p in conj for q in conjuncts(rewrite_hashes(p, preimages))]

        result = solve(conj)
        if isinstance(result, Sat):
            return _finish(sig, prefix, run_tx, constraints, j, env, result.model)
        if isinstance(result, Unsat):
            return "unsat"

        # residual: break multi-unknown conjuncts by pinning seed values
        lists = []
        for p in conj:
            n = len(inputs_of(p))
            if n <= 1 and not has_node(p, Keccak):
                lists.append([p])
            else:
                cands = pin_all_but_one(p, env)
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
            done = _finish(sig, prefix, run_tx, constraints, j, env, res.model)
            if done == "sat":
                return "sat"
        return "unknown"

    def _finish(sig, prefix, run_tx, constraints, j, env, model):
        """Materialize a model, check faithfulness, emit and enqueue."""
        args = assign_atoms(dict(zip(sig.param_names, run_tx.args)), model)
        new_tx = run_tx._replace(args=tuple(args[name] for name in sig.param_names))
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
        enqueue_flips(case_txs, len(prefix), run)
        return "sat"

    def attempt(state: ConcolicState) -> None:
        prefix = state.input[: state.position]
        seed_tx = state.input[state.position]
        sig = bundle.by_name[seed_tx.function_call]
        target_pair = (state.phi_target.branch_offset, state.phi_target.taken)
        dynamic = any(t.is_dynamic for t in sig.params)

        constraints = state.phi_solved + (state.phi_target,)
        verdict = attempt_conjunction(
            sig, prefix, seed_tx, constraints, len(state.phi_solved)
        )
        if verdict == "sat" or not dynamic:
            return

        lengths = [
            max(1, len(v)) for v in seed_tx.args if isinstance(v, (bytes, tuple))
        ]
        for pin in _PIN_LADDER:
            if all(n == pin for n in lengths):
                continue
            pinned_tx = seed_tx._replace(args=resize_dynamic(seed_tx.args, pin))
            case_txs = tuple(prefix) + (pinned_tx,)
            gained = engine_run(case_txs) > 0
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
            verdict = attempt_conjunction(sig, prefix, pinned_tx, run.constraints, j)
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
