"""The benchmark's workloads and one fixed-budget round of each.

Every campaign starts from ``seed_initial_target`` with ``rng_seed`` set
to the workload seed, and runs a fixed number of executions, so a seed
fixes every output of a round.  Why each workload exists:

fuzz-hashed  pool and ballot.  Mapping slots and ballot's hash guard put
             Keccak at most of the time, and pool's property adds one
             probe transaction per execution.  A Keccak memo or probe
             elision shows its gain here.
fuzz-loops   lottery, bytekey, feeswap and cubic: loops and arithmetic
             with no SHA3 on the hot path.  The interpreter, ABI
             encoding, coverage merge and scheduler dominate, and bytekey
             holds a bug fuzzing finds.  A Keccak change should not move
             anything here.
hybrid       all six fixtures: a short campaign, extract_bottlenecks,
             then drive seeded with the campaign corpus plus cases drawn
             from the ABI by this module's own RNG, then the merged corpus
             is minimised.  This exercises the concolic engine and the
             quadratic minimise/replay loop, which the fuzz workloads
             barely reach (their corpora hold one to three entries).
"""

import hashlib
import random
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"

# the benchmark runs the checkout's own sources, which are not installed
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import sctest  # noqa: E402

if Path(sctest.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"sctest imported from {sctest.__file__}, not from {SRC}")

from sctest import _kernels  # noqa: E402
from sctest.concolic import DriveBudget, SnapshotCache, drive  # noqa: E402
from sctest.coverage import extract_bottlenecks  # noqa: E402
from sctest.errors import SctestError  # noqa: E402
from sctest.evm import Transaction, execute_sequence, load_bundle, make_world  # noqa: E402
from sctest.fuzzing import (  # noqa: E402
    ASSERT_FAILURE,
    CHUNK,
    PROPERTY_VIOLATION,
    Campaign,
    Corpus,
    TestCase,
    detect_bugs,
    minimize_corpus,
    replay,
    seed_initial_target,
)

from layers import LayerProbe  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

_clock = time.perf_counter


@dataclass(frozen=True)
class Workload:
    fixtures: tuple[str, ...]
    execs: int  # campaign executions per fixture
    hybrid: bool = False


WORKLOADS = {
    "fuzz-hashed": Workload(("pool", "ballot"), 300),
    "fuzz-loops": Workload(("lottery", "bytekey", "feeswap", "cubic"), 5000),
    "hybrid": Workload(
        ("ballot", "bytekey", "pool", "feeswap", "cubic", "lottery"), 100, hybrid=True
    ),
}

DRIVE_ROUNDS = 20
CASES_PER_FUNCTION = 6  # ABI-drawn drive seeds per callable function

# the bug each fixture was written to contain, as (kind, function)
INTENDED_BUGS = {
    "ballot": (ASSERT_FAILURE, "castVote"),
    "bytekey": (ASSERT_FAILURE, "validate"),
    "feeswap": (ASSERT_FAILURE, "velocore_execute"),
    "pool": (PROPERTY_VIOLATION, "prop_balanced"),
}


class _StampedFindings(list):
    """A campaign's findings list that remembers, for each finding, how
    many executions the campaign had made when it was appended.  This
    gives execs_to_bug exactly while the campaign still runs its budget
    in CHUNK-sized calls, as run_campaign does."""

    def __init__(self, campaign):
        super().__init__()
        self._campaign = campaign
        self.stamps: list[int] = []

    def append(self, finding):
        self.stamps.append(self._campaign.executions)
        super().append(finding)


@dataclass
class FixtureRun:
    name: str
    bundle: object
    world: object
    dest: int
    campaign: Campaign
    cases: list = field(default_factory=list)  # ABI-drawn drive seeds
    inserts: int = 0  # corpus entries before finalize
    drive_tests: list = field(default_factory=list)  # drive output new to the corpus
    coverage: object = None  # final outputs of the fixture run
    corpus: object = None
    report: object = None


def finding_keys(report) -> set:
    return {(f.kind, f.pc, f.function) for f in report.findings}


def fixture_run(name: str, seed: int) -> FixtureRun:
    """Load a fixture and construct its campaign: the set-up of a run."""
    bundle = load_bundle(FIXTURES / name)
    world, dest = make_world(bundle)
    camp = Campaign(world, seed_initial_target(bundle.resolved_abi), rng_seed=seed)
    camp.report.findings = _StampedFindings(camp)
    return FixtureRun(name, bundle, world, dest, camp)


def _random_args(sig, rng: random.Random, addresses: list[int]) -> tuple:
    out = []
    for t in sig.params:
        if t.kind == "uint":
            # small values half the time: guards compare against constants
            out.append(rng.randrange(256) if rng.random() < 0.5 else rng.getrandbits(t.bits))
        elif t.kind == "address":
            out.append(rng.choice(addresses))
        elif t.kind == "bool":
            out.append(rng.random() < 0.5)
        elif t.kind == "bytes":
            out.append(bytes(rng.randrange(256) for _ in range(rng.randrange(5))))
        else:
            out.append(tuple(rng.randrange(256) for _ in range(rng.randrange(4))))
    return tuple(out)


def abi_cases(run: FixtureRun, seed: int) -> list[TestCase]:
    """Single-call drive seeds drawn from the ABI, independent of mutate."""
    rng = random.Random(f"{seed}/{run.name}")
    addresses = sorted(run.world.accounts)
    sender = next(iter(run.world.accounts))
    return [
        TestCase(
            (
                Transaction(
                    sig.name,
                    args=_random_args(sig, rng, addresses),
                    source=sender,
                    destination=run.dest,
                ),
            )
        )
        for sig in run.bundle.resolved_abi
        if not sig.is_property
        for _ in range(CASES_PER_FUNCTION)
    ]


def fuzz(run: FixtureRun, execs: int) -> float:
    """Run the campaign to its budget and finalize it; returns the
    seconds spent executing (finalize excluded)."""
    camp = run.campaign
    spent = 0.0
    remaining = execs
    while remaining > 0:
        n = min(CHUNK, remaining)
        t = _clock()
        camp.run(n)
        spent += _clock() - t
        remaining -= n
    run.inserts = len(camp.corpus)
    camp.finalize()
    run.coverage, run.corpus, run.report = camp.coverage, camp.corpus, camp.report
    return spent


def _hybrid(run: FixtureRun, tracer, caches: list) -> None:
    camp = run.campaign
    tracer.call("coverage.extract_bottlenecks", extract_bottlenecks, run.bundle, camp.coverage)
    coverage = camp.coverage.copy()
    entries = list(camp.corpus.entries) + run.cases
    seeds = Corpus(entries, [{} for _ in entries])
    cache = SnapshotCache()
    caches.append(cache)
    out = tracer.call(
        "concolic.drive",
        drive,
        run.bundle,
        seeds,
        coverage,
        DriveBudget(iterations=DRIVE_ROUNDS),
        cache=cache,
    )
    known = {tc.id for tc in camp.corpus.entries}
    run.drive_tests = [tc for tc in out if tc.id not in known]
    merged = Corpus()
    for tc, delta in zip(camp.corpus.entries, camp.corpus.deltas):
        merged.add(tc, delta)
    for tc in run.drive_tests:
        merged.add(tc, {"new_instructions": 0, "new_paths": 0})
    _, report = tracer.call("fuzzing.replay", replay, run.world, merged)
    run.corpus = tracer.call("fuzzing.minimize", minimize_corpus, run.world, merged, report)
    run.coverage, run.report = coverage, report


def execs_to_bug(run: FixtureRun) -> int:
    """Tests run before the fixture's intended bug first showed: the
    campaign execution that found it, else campaign executions plus the
    position of the drive test that found it, else every test run + 1."""
    intended = INTENDED_BUGS[run.name]
    camp = run.campaign
    for f, at in zip(camp.report.findings, camp.report.findings.stamps):
        if (f.kind, f.function) == intended:
            return at
    positions = {tc.id: i for i, tc in enumerate(run.drive_tests, 1)}
    for f in run.report.findings:
        if (f.kind, f.function) == intended and f.testcase_id in positions:
            return camp.executions + positions[f.testcase_id]
    return camp.executions + len(run.drive_tests) + 1


def outcomes(runs: list[FixtureRun]) -> dict:
    """The exact, seed-determined results of a round."""
    return {
        "instr_covered": sum(
            sum(b.bit_count() for b in r.coverage.bits.values()) for r in runs
        ),
        "paths_covered": sum(len(r.coverage.path_set) for r in runs),
        "bugs_found": sum(len(finding_keys(r.report)) for r in runs),
        "execs_to_bug": sum(execs_to_bug(r) for r in runs if r.name in INTENDED_BUGS),
        "corpus_entries": sum(len(r.corpus) for r in runs),
    }


def output_digest(runs: list[FixtureRun]) -> str:
    """SHA-256 over each fixture's coverage JSON, corpus ids and report
    JSON: equal digests mean byte-identical outputs."""
    h = hashlib.sha256()
    for r in runs:
        for part in (
            r.name,
            r.coverage.to_json(),
            "\n".join(tc.id for tc in r.corpus.entries),
            r.report.to_json(),
        ):
            h.update(part.encode())
            h.update(b"\0")
    return h.hexdigest()


# -- output checks ------------------------------------------------------------


def check_replay(world, corpus, coverage, report) -> list[str]:
    """Replaying the corpus from genesis reproduces the coverage bits and
    the finding keys."""
    cov, rep = replay(world, corpus)
    errors = []
    if cov.bits != coverage.bits:
        errors.append("corpus replay does not reproduce the coverage bits")
    if finding_keys(rep) != finding_keys(report):
        errors.append("corpus replay does not reproduce the findings")
    return errors


def check_findings(world, corpus, report, abi, dest) -> list[str]:
    """Each finding's cited test case, run from genesis, shows it again."""
    by_id = {tc.id: tc for tc in corpus.entries}
    errors = []
    for f in report.findings:
        key = (f.kind, f.pc, f.function)
        tc = by_id.get(f.testcase_id)
        if tc is None:
            errors.append(f"finding {key} cites a test case missing from the corpus")
            continue
        try:
            after, results = execute_sequence(world, list(tc.txs))
            seen = detect_bugs(results, after, abi, list(tc.txs), destination=dest)
        except SctestError as e:
            errors.append(f"finding {key}: its test case raised {e!r}")
            continue
        if key not in {(k, pc, fn) for k, pc, fn, _ in seen}:
            errors.append(f"finding {key} does not reproduce from its test case")
    return errors


def check_replayable(world, cases) -> list[str]:
    """Every case replays without an engine error."""
    errors = []
    for tc in cases:
        try:
            execute_sequence(world, list(tc.txs))
        except SctestError as e:
            errors.append(f"drive case {tc.id} raised {e!r}")
    return errors


def check_run(run: FixtureRun, hybrid: bool) -> list[str]:
    camp, abi = run.campaign, run.bundle.resolved_abi
    errors = check_replay(run.world, camp.corpus, camp.coverage, camp.report)
    errors += check_findings(run.world, camp.corpus, camp.report, abi, run.dest)
    if hybrid:
        errors += check_replay(run.world, run.corpus, run.coverage, run.report)
        errors += check_findings(run.world, run.corpus, run.report, abi, run.dest)
        errors += check_replayable(run.world, run.drive_tests)
    return [f"{run.name}: {e}" for e in errors]


# -- one round ----------------------------------------------------------------


def run_round(
    name: str,
    seed: int,
    traced: bool = False,
    start: float | None = None,
    execs: int | None = None,
) -> dict:
    """Set up and run one round of workload `name`, check its outputs,
    and return its raw figures.  `start` is when set-up began (the
    worker passes its process start, so imports count); `execs`
    overrides the workload's campaign budget."""
    if start is None:
        start = _clock()
    workload = WORKLOADS[name]
    budget = workload.execs if execs is None else execs
    tracer = Tracer() if traced else NullTracer()
    probe = LayerProbe(tracer) if traced else None
    try:
        setup_root = len(tracer.spans) if traced else None
        with tracer.span("bench.setup"):
            runs = [fixture_run(fixture, seed) for fixture in workload.fixtures]
        setup_s = _clock() - start
        if workload.hybrid:
            for run in runs:
                run.cases = abi_cases(run, seed)

        caches: list = []
        camp_s = 0.0
        workload_root = None
        if traced:
            probe.reset()
            workload_root = len(tracer.spans)
        t0 = _clock()
        with tracer.span("bench.workload"):
            for run in runs:
                camp_s += fuzz(run, budget)
                if workload.hybrid:
                    _hybrid(run, tracer, caches)
        wall_s = _clock() - t0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if traced:
            tracer.unpatch()

    executions = sum(r.campaign.executions for r in runs)
    out = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "backend": _kernels.BACKEND,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "camp_s": camp_s,
        "executions": executions,
        "peak_rss_mb": peak_rss_mb,
        "outcomes": outcomes(runs),
        "digest": output_digest(runs),
    }
    if traced:
        out["layers"] = probe.metrics(
            setup_root,
            workload_root,
            wall_s,
            executions=executions,
            inserts=sum(r.inserts for r in runs),
            emitted=sum(len(r.drive_tests) for r in runs),
            snapshot_hits=sum(c.hits for c in caches),
            snapshot_misses=sum(c.misses for c in caches),
        )
        out["shares"] = probe.shares(workload_root, wall_s)
    errors = [check_run(r, workload.hybrid) for r in runs]
    out["attempted"] = len(runs)
    out["failed"] = sum(1 for e in errors if e)
    out["errors"] = [e for errs in errors for e in errs]
    return out
