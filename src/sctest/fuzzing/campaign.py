"""The coverage-guided fuzzing campaign.

A campaign owns one deployed contract, one fuzz target, and one RNG.
The setup calls run once; every candidate executes its fuzz calls from
that post-setup world (worlds are values, so the snapshot is just a
retained reference).  Candidates are scheduled in proportion to how
many uncovered basic blocks sit adjacent to the blocks their own trace
reached, plus one so fresh entries always have weight.  The weights
change only when the coverage bits grow, and an execution that grows
them always adds an entry; so they are kept between picks and rescored
after each added entry, and at the start of each run() in case the
caller replaced or edited the coverage map.

Mutation often hands back a candidate that already ran, and the one
rule is: a candidate the campaign already ran is not run again.  It
counts as an execution and in ChunkStats.repeats, and nothing else
happens.  The table of executed candidates lasts for the whole campaign
and holds at most _RAN_CAP of them; when it is full the older half is
dropped (a dropped candidate simply runs again).  Skipping leaves every
output byte-identical: execution is a pure function of the snapshot and
the transactions, so the candidate's first run already put its
instruction bits and path hashes into the map; after that run every
finding key it raises is already recorded, so a repeat never has fresh
findings; with no new bits, paths or findings a run would add no corpus
entry (so the weights stay put); and executing draws nothing from the
RNG.  That holds while the map keeps everything it held, so each run()
starts by checking that the map, replaced or not, still holds every bit
and path it held when the last run() ended, and empties the table if it
does not.

A candidate that does run resumes from its longest kept prefix.  The
campaign keeps every inserted candidate's steps in its store,
Campaign.prefixes (sctest.evm.snapshots.SnapshotCache): a trie rooted
at the snapshot, keyed by Transaction, each step holding the world
after and the ExecResult.  A new candidate walks the trie as far as its
transactions match and runs only the rest, one transaction at a time.
Execution is a pure function of the world and the transaction, so the
kept results are what re-running the prefix would give (no transaction
changes which contracts are deployed); every result, kept or new, is
folded into the coverage map with merge_result (whose memo makes a kept
trace a dict hit) and detection runs on the whole sequence, so outputs
stay byte-identical even when the caller replaces the coverage map
between runs.  The store grows only with the corpus (at most entries x
target length steps); shadow_run takes it as its cache.

A kept world is probed once.  The property probe is a pure function of
the world it runs on (sender, destination and properties are fixed for
the campaign), and worlds are values no one mutates, so the campaign
keeps the probe's findings for each world it holds anyway: the
snapshot and the worlds in the store, keyed by id() with the world in
the value so the id stays valid.  A candidate whose remaining calls
changed nothing ends on the very world it resumed from (execute_tx
returns its input world then), and that world's findings are reused;
any other candidate ends on a new world and is probed as before.  The
kept findings are bounded by the store; replay and minimize_corpus
probe every world they run.

Bug detection applies two rules to each executed candidate:
  * assert_failure     - a transaction halted on INVALID
  * property_violation - a zero-argument property function reverts or
                         returns the zero word when probed afterwards
The first runs only when some result halted INVALID; the probe's
transactions are built once per campaign.

Each iteration of run() takes from the campaign's one RNG, in order:
_pick's rng.random(), then, once two entries are in the corpus, the
splice partner's index below(getrandbits, entries), then mutate's draws
(sctest.fuzzing.mutate).  below draws as random.Random's choice and
randrange do, so a fixed seed gives the same candidates on every
supported Python.  Campaign.executions goes up once per iteration,
before the candidate is looked up or run, so a finding appended to the
report sees the count that includes the execution that found it.
"""

import random
from bisect import bisect_right
from itertools import accumulate, islice

from ..bytecode.abi import FunctionSig
from ..coverage.covmap import CoverageMap, merge_result
from ..errors import SctestError
from ..evm.engine import execute_sequence, execute_tx
from ..evm.snapshots import SnapshotCache
from ..evm.types import DEFAULT_GAS, ExecResult, Transaction, normalize_args
from ..evm.world import contract_under_test
from .corpus import BugReport, Corpus, Finding, TestCase
from .mutate import Candidate, below, initial_candidate, mutate, mutation_plan
from .target import ConcreteCall, FuzzTarget

CHUNK = 1000  # executions per scheduling iteration
_RAN_CAP = 1 << 12  # executed candidates the repeat table holds (~1.4 MB)

ASSERT_FAILURE = "assert_failure"
PROPERTY_VIOLATION = "property_violation"

_ZERO_WORD = b"\x00" * 32

# builds a Transaction from its fields past Transaction.__new__;
# Campaign._execute passes each call's args through normalize_args
# itself, so the one gate still sees every argument
_tuple_new = tuple.__new__


def _detect_asserts(
    txs: list[Transaction],
    results: list[ExecResult],
    world,
) -> list[tuple[str, int, str, str]]:
    """(kind, pc, function, message) for every INVALID halt."""
    out = []
    for tx, res in zip(txs, results):
        if res.halt != "INVALID" or res.last_offset is None:
            continue
        addr, off = res.last_offset
        bundle = world.deployed.get(addr)
        sig = bundle.function_at(off) if bundle is not None else None
        fn = sig.name if sig is not None else None
        if fn is None and tx.function_call:
            fn = tx.function_call
        fn = fn or "fallback"
        out.append(
            (
                ASSERT_FAILURE,
                off,
                fn,
                f"INVALID opcode in {fn} at offset 0x{off:x}",
            )
        )
    return out


def _property_txs(
    props: list[FunctionSig], sender: int, destination: int
) -> tuple[Transaction, ...]:
    """One zero-argument call of each property function."""
    return tuple(
        Transaction(
            function_call=sig.name, args=(), source=sender, destination=destination
        )
        for sig in props
    )


def _probe_properties(
    world, probes: tuple[Transaction, ...]
) -> list[tuple[str, int, str, str]]:
    """Run each property call of `probes` once against a settled world."""
    out = []
    for tx in probes:
        _, res = execute_tx(world, tx)
        name = tx.function_call
        if res.failed:
            reason = f"{name}() {res.halt.lower()}s"
        elif res.return_data == _ZERO_WORD:
            reason = f"{name}() returns the zero word"
        else:
            continue
        off = res.last_offset[1] if res.last_offset else 0
        out.append((PROPERTY_VIOLATION, off, name, reason))
    return out


def detect_bugs(
    results: list[ExecResult],
    world_after,
    abi: list[FunctionSig],
    txs: list[Transaction],
    destination: int | None = None,
) -> list[tuple[str, int, str, str]]:
    """Apply both detection rules to the executed sequence `txs`.

    Returns (kind, pc, function, message) tuples: one assert_failure per
    INVALID halt in `results`, plus one property_violation for every
    property function in `abi` that reverts or returns the zero word
    when probed against `world_after` from its first account.  The
    probes go to `destination`, or when it is None to the world's
    contract_under_test, which raises unless exactly one is deployed.
    """
    out = _detect_asserts(txs, results, world_after)
    props = [s for s in abi if s.is_property]
    if props:
        if destination is None:
            destination = contract_under_test(world_after)
        sender = next(iter(world_after.accounts))
        out += _probe_properties(world_after, _property_txs(props, sender, destination))
    return out


class ChunkStats:
    """What one run() of a campaign bought; equal when every count is."""

    def __init__(
        self,
        executions: int = 0,
        new_instructions: int = 0,
        new_paths: int = 0,
        new_findings: int = 0,
        # executions not run: the candidate already ran in this campaign
        # and the map has lost none of its bits or paths since
        repeats: int = 0,
    ):
        self.executions = executions
        self.new_instructions = new_instructions
        self.new_paths = new_paths
        self.new_findings = new_findings
        self.repeats = repeats

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        counts = ", ".join(f"{k}={v}" for k, v in vars(self).items())
        return f"ChunkStats({counts})"


class Campaign:
    def __init__(
        self,
        world,
        target: FuzzTarget,
        rng_seed: int,
        coverage: CoverageMap | None = None,
        corpus: Corpus | None = None,
        report: BugReport | None = None,
        executions: int = 0,
    ):
        self.world = world
        self.target = target
        self.rng_seed = rng_seed
        self.coverage = CoverageMap() if coverage is None else coverage
        self.corpus = Corpus() if corpus is None else corpus
        self.report = BugReport() if report is None else report
        self.executions = executions
        self.destination = contract_under_test(self.world)
        abi = self.world.deployed[self.destination].resolved_abi
        self.default_sender = next(iter(self.world.accounts))
        # one call of each property function, built once
        self._prop_txs = _property_txs(
            [s for s in abi if s.is_property], self.default_sender, self.destination
        )
        pool = tuple(
            sorted(
                set(self.world.accounts) | set(self.target.address_aliases.values())
            )
        )
        self.rng = random.Random(self.rng_seed)
        self._plan = mutation_plan(self.target, abi, pool)
        self._cands: list[Candidate] = []
        self._blocks: list[set[tuple[int, int]]] = []  # per-entry block starts
        self._cum_weights: list[int] | None = None  # None: rescore on next pick
        self._finding_keys: set[tuple[str, int, str]] = set()
        self._started = False
        # id(world) -> (world, property findings) for the snapshot and
        # the worlds in prefixes that were probed; the value holds the
        # world, so its id is not reused while the entry lives
        self._probes: dict[int, tuple] = {}
        self._ran: dict[Candidate, None] = {}  # executed, oldest first
        # the map's bits and paths when the last run() ended
        self._held: tuple[dict[int, int], set[int]] = ({}, set())
        self._fixed = [self._fixed_fields(c) for c in self.target.fuzz]

        self._setup_txs = []
        for call in self.target.setup:
            function, delay, source, value = self._fixed_fields(call)
            self._setup_txs.append(
                Transaction(
                    function, call.args, delay=delay, source=source,
                    destination=self.destination, value=value,
                )
            )
        self.snapshot, setup_results = execute_sequence(
            self.world, self._setup_txs
        )
        # the inserted candidates' steps, walked from the snapshot's trie
        self.prefixes = SnapshotCache()
        self._trie = self.prefixes.trie(self.snapshot)
        for res in setup_results:
            merge_result(self.coverage, res, self.snapshot)
        # findings surfaced by setup alone attach to the first test case
        self._pending = _detect_asserts(
            self._setup_txs, setup_results, self.snapshot
        )

    # -- transaction building ---------------------------------------------

    def _resolve_sender(self, alias: str | None) -> int:
        if alias is None:
            return self.default_sender
        return self.target.address_aliases[alias]

    def _fixed_fields(self, call: ConcreteCall) -> tuple:
        """(function, delay, sender, value): the Transaction fields `call`
        fixes for the whole campaign."""
        return call.function, call.delay, self._resolve_sender(call.sender), call.value

    def _execute(self, cand: Candidate) -> tuple[list, list, object]:
        """Run `cand` from its longest kept prefix.  Returns its
        transactions, one step (world after, result, next steps) per
        call (next is None for a call that ran now), and the world it
        resumed from."""
        args, fixed, destination = cand.args, self._fixed, self.destination
        txs = []
        for i in cand.order:
            function, delay, source, value = fixed[i]
            txs.append(
                _tuple_new(
                    Transaction,
                    (
                        function, normalize_args(args[i], function), None,
                        delay, DEFAULT_GAS, source, destination, value,
                    ),
                )
            )
        steps = []
        node = self._trie
        for tx in txs:
            step = node.get(tx)
            if step is None:
                break
            steps.append(step)
            node = step[2]
        world = start = steps[-1][0] if steps else self.snapshot
        for tx in txs[len(steps) :]:
            world, (res,) = execute_sequence(world, [tx])
            steps.append((world, res, None))
        return txs, steps, start

    def _probe(self, world, held: bool) -> list[tuple[str, int, str, str]]:
        """_probe_properties of `world`, from the cache when the world
        was probed before; the result is kept when `held` (the world is
        the snapshot or in prefixes, so it lives as long as the
        campaign)."""
        hit = self._probes.get(id(world))
        if hit is not None:
            return hit[1]
        found = _probe_properties(world, self._prop_txs)
        if held:
            self._probes[id(world)] = (world, found)
        return found

    # -- scheduling ---------------------------------------------------------

    def _score(self, entry_blocks: set[tuple[int, int]]) -> int:
        uncovered: set[tuple[int, int]] = set()
        for addr, start in entry_blocks:
            for succ in self.world.deployed[addr].cfg.blocks[start].succs:
                if not self.coverage.covered(addr, succ):
                    uncovered.add((addr, succ))
        return len(uncovered) + 1

    def _pick(self) -> Candidate:
        if self._cum_weights is None:
            self._cum_weights = list(accumulate(map(self._score, self._blocks)))
        cum = self._cum_weights
        # the first entry whose running weight exceeds r
        i = bisect_right(cum, self.rng.random() * cum[-1])
        return self._cands[min(i, len(cum) - 1)]

    # -- execution ------------------------------------------------------------

    def _trace_blocks(self, results: list[ExecResult]) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for res in results:
            for addr, offsets in res.trace:
                blocks = self.world.deployed[addr].cfg.blocks
                out.update((addr, off) for off in offsets if off in blocks)
        return out

    def _lost_coverage(self) -> bool:
        """Whether the map lacks a bit or path it held when the last
        run() ended (the caller replaced or edited it)."""
        bits, paths = self._held
        held = self.coverage.bits
        return not paths <= self.coverage.path_set or any(
            b & ~held.get(a, 0) for a, b in bits.items()
        )

    def run(self, execs: int = CHUNK) -> ChunkStats:
        """Execute up to `execs` candidates; returns what the chunk gained."""
        self._cum_weights = None
        ran = self._ran
        if self._lost_coverage():
            ran.clear()
        coverage, prop_txs = self.coverage, self._prop_txs
        paths = coverage.path_set
        rng, plan, cands = self.rng, self._plan, self._cands
        getrandbits = rng.getrandbits
        repeats = new_instructions = new_paths = new_findings = 0
        for _ in range(execs):
            if self._started:
                cand = self._pick()
                n = len(cands)
                other = cands[below(getrandbits, n)] if n >= 2 else None
                cand = mutate(cand, plan, rng, other)
                force_insert = False
            else:
                cand = initial_candidate(self.target)
                self._started = force_insert = True

            # counted before any finding of this execution is appended
            self.executions += 1
            if cand in ran:
                repeats += 1
                continue

            txs, steps, start = self._execute(cand)
            world = steps[-1][0] if steps else start
            before = len(paths)
            gained = 0
            invalid = False
            for after, res, _ in steps:
                gained += merge_result(coverage, res, after)
                if res.halt == "INVALID":
                    invalid = True
            new = len(paths) - before
            if len(ran) >= _RAN_CAP:
                # keep the newer half: one pass per _RAN_CAP // 2
                # insertions, where dropping the oldest key each time
                # would rescan the dict's freed front slots every time
                for old in list(islice(ran, len(ran) - _RAN_CAP // 2)):
                    del ran[old]
            ran[cand] = None
            new_instructions += gained
            new_paths += new

            raw = self._pending
            if raw:
                self._pending = []
            if invalid:
                raw = raw + _detect_asserts(txs, [r for _, r, _ in steps], world)
            if prop_txs:
                found = self._probe(world, world is start)
                if found:
                    raw = raw + found
            # no list is built when nothing was found
            fresh = raw and [f for f in raw if f[:3] not in self._finding_keys]

            if gained or fresh or force_insert:
                tc = TestCase((*self._setup_txs, *txs))
                self.corpus.add(tc, {"new_instructions": gained, "new_paths": new})
                cands.append(cand)
                self._blocks.append(self._trace_blocks([r for _, r, _ in steps]))
                node = self._trie  # resumed steps are kept already
                for tx, step in zip(txs, steps):
                    node = node.setdefault(tx, step[:2] + ({},))[2]
                if prop_txs:  # world is in prefixes now
                    self._probes[id(world)] = (world, found)
                self._cum_weights = None
                for kind, pc, fn, msg in fresh:
                    self._finding_keys.add((kind, pc, fn))
                    self.report.findings.append(Finding(kind, pc, fn, tc.id, msg))
                new_findings += len(fresh)
        self._held = dict(coverage.bits), set(paths)
        return ChunkStats(
            max(execs, 0), new_instructions, new_paths, new_findings, repeats
        )

    def finalize(self) -> None:
        """Shrink the corpus to entries that still pay for themselves."""
        self.corpus = minimize_corpus(self.world, self.corpus, self.report)


def run_campaign(
    world,
    target: FuzzTarget,
    budget: dict,
    rng_seed: int,
) -> tuple[CoverageMap, Corpus, BugReport]:
    """One-shot campaign: run to the budget, minimize, report.

    budget = {"execs": int}, run in scheduling chunks of CHUNK, so a
    fixed rng_seed gives the same results on every run.
    """
    camp = Campaign(world, target, rng_seed)
    remaining = int(budget["execs"])
    while remaining > 0:
        chunk = min(CHUNK, remaining)
        camp.run(chunk)
        remaining -= chunk
    camp.finalize()
    return camp.coverage, camp.corpus, camp.report


def _replay_entries(world, corpus: Corpus):
    """Run each corpus entry once from genesis and judge it with
    detect_bugs against the world's contract_under_test, which raises
    unless exactly one contract is deployed.

    Yields (index, results, world after, raw findings) for every entry
    that runs.  Entries sent to an address without code, calling by
    name a function the contract no longer exposes, or whose sequence
    raises, are marked stale in their delta record and skipped.
    """
    destination = contract_under_test(world)
    abi = world.deployed[destination].resolved_abi

    for i, tc in enumerate(corpus.entries):
        txs = list(tc.txs)
        stale = any(
            world.deployed.get(tx.destination) is None
            or (
                tx.call_data is None  # raw calldata runs whatever it names
                and tx.function_call not in world.deployed[tx.destination].by_name
            )
            for tx in txs
        )
        if not stale:
            try:
                world_after, results = execute_sequence(world, txs)
            except SctestError:
                stale = True
        if stale:
            if i < len(corpus.deltas):
                corpus.deltas[i]["stale"] = True
            continue
        yield i, results, world_after, detect_bugs(
            results, world_after, abi, txs, destination
        )


def replay(world, corpus: Corpus) -> tuple[CoverageMap, BugReport]:
    """Re-execute every corpus entry from genesis and re-derive findings.

    Entries naming functions the deployed contract no longer exposes are
    marked stale in their delta record and skipped; replay never fails
    on them.  The world must hold exactly one deployed contract
    (contract_under_test), or replay raises SctestError.
    """
    coverage = CoverageMap()
    report = BugReport()
    seen: set[tuple[str, int, str]] = set()
    for i, results, world_after, raw in _replay_entries(world, corpus):
        for res in results:
            merge_result(coverage, res, world_after)
        for kind, pc, fn, msg in raw:
            if (kind, pc, fn) in seen:
                continue
            seen.add((kind, pc, fn))
            report.findings.append(
                Finding(kind, pc, fn, corpus.entries[i].id, msg)
            )
    return coverage, report


def _union(signatures) -> tuple[dict[int, int], set[tuple[str, int, str]]]:
    bits: dict[int, int] = {}
    keys: set[tuple[str, int, str]] = set()
    for entry_bits, entry_keys in signatures:
        for addr, b in entry_bits.items():
            bits[addr] = bits.get(addr, 0) | b
        keys |= entry_keys
    return bits, keys


def minimize_corpus(world, corpus: Corpus, report: BugReport) -> Corpus:
    """Greedy one-pass shrink: drop any entry whose removal leaves replay
    coverage (instruction bits plus findings) intact.  Entries cited by a
    finding are always kept so findings stay reproducible.

    Every entry replays from genesis on its own, so the replay of any
    subset is the union of its entries' bits and finding keys.  Each
    entry is therefore run once, and each greedy trial is a union over
    the kept entries, not a replay; stale entries add nothing.  Like
    replay, it raises SctestError unless the world holds exactly one
    deployed contract (contract_under_test)."""
    protected = {f.testcase_id for f in report.findings}
    entries = list(corpus.entries)
    deltas = list(corpus.deltas)
    signatures = [({}, frozenset())] * len(entries)  # stale: nothing
    for i, results, world_after, raw in _replay_entries(world, corpus):
        cov = CoverageMap()
        for res in results:
            merge_result(cov, res, world_after)
        signatures[i] = (cov.bits, frozenset((k, pc, fn) for k, pc, fn, _ in raw))
    baseline = _union(signatures)
    keep = [True] * len(entries)
    for i in range(len(entries) - 1, -1, -1):
        if entries[i].id in protected:
            continue
        trial = _union(
            sig for j, sig in enumerate(signatures) if keep[j] and j != i
        )
        if trial == baseline:
            keep[i] = False
    out = Corpus()
    for j, (e, d) in enumerate(zip(entries, deltas)):
        if keep[j]:
            out.add(e, d)
    return out
