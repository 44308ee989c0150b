"""Golden campaign outputs for every fixture.

Each digest was recorded before the campaign's hot path gained its
caches (path-hash memo, scheduler weight cache).  A cache that changed
what a campaign does would change the digest, even when it changes it
the same way on every run, which a run-twice comparison cannot see.

The bottleneck list is what extract_bottlenecks reports after the same
campaigns, each branch described from the shadow run of a corpus entry
that reaches it.  The dispatcher fallbacks read "concrete": the shadow
sees their selector test on concrete words only.

The drive digests cover the cases drive emits from each campaign's
corpus, so a change to which weakened conjunctions drive tries, or in
what order, changes them.
"""

import functools
import hashlib

import pytest

from sctest.concolic import (
    DriveBudget,
    Sat,
    SnapshotCache,
    Unknown,
    Unsat,
    drive,
    evaluate_atoms,
    solve,
)
from sctest.coverage import extract_bottlenecks
from sctest.evm import load_bundle
from sctest.evm.world import make_world
from sctest.fuzzing import run_campaign, seed_initial_target

from conftest import FIXTURES

# SHA-256 over coverage JSON, corpus ids and report JSON of a 300-exec,
# seed-42 campaign on the fixture's seed_initial_target
GOLDEN = {
    "ballot": (
        "10f46ff69d6f10d193dd08ad57caefe3"
        "a19e0417d644815ce116da08151ab5d5"
    ),
    "bytekey": (
        "8c1bbb2645b67cb3ec37d11188119878"
        "cffba38fab3a8af28123b17d2f69833b"
    ),
    "pool": (
        "fb57de82c275d17c8c3bc03ffa578ae8"
        "cfb5af468fbee1804a477d7af7ca65b0"
    ),
    "feeswap": (
        "7c4eea120785ec854dc08bacfaec62aa"
        "ab0503e5fab80b74aab82987a51bc7ae"
    ),
    "cubic": (
        "3c3546e81ab898477e30d33b8a27d9e1"
        "7f16ad66fe141dbe4ff92cebcd0506f8"
    ),
    "lottery": (
        "8be530c102269f07f3cd15460274602e"
        "c807d8a26a00085cd5b5528bd9b04aa9"
    ),
}

# SHA-256 over the ids of the cases drive emits, 20 rounds, from the
# corpus and coverage of the same campaigns
GOLDEN_DRIVE = {
    "ballot": (
        "3103315ce908b8977c2d8e28aaf629ca"
        "7120446b691cc97e93728070b4b2a4d9"
    ),
    "bytekey": (
        "1fb5f680347cfed7db2295ccef98991e"
        "2081a58314981c541f55bd7f77ea288f"
    ),
    "pool": (
        "31a83149f714c0079219656326ca88fd"
        "633c6bd0b3ed0dedcef3fab127a6790b"
    ),
    "feeswap": (
        "8ce3dabe4300ff1a797c75119fc4251f"
        "c7ff8c913b8f72d4c4100ea3aa58d5bd"
    ),
    "cubic": (
        "e8ae8749c5141c12d346033a3f148841"
        "2ba3d715432fd6770500cc6c4a356af5"
    ),
    "lottery": (
        "0fce56d19f0d05798b9bc5388b7c6775"
        "7715392ed92303e17e558e13139e28eb"
    ),
}


# (branch_offset, constraint_text, inputs_involved, features set) of
# extract_bottlenecks over the corpus entries of the same campaigns, all
# fixtures in name order
GOLDEN_BOTTLENECKS = [
    ("ballot", 16, "concrete", (), ()),
    (
        "ballot",
        64,
        "keccak(voter ++ id) == keccak(reason ++ sig + 0xbadbeef)",
        ("id", "voter", "reason", "sig"),
        ("has_keccak",),
    ),
    ("bytekey", 16, "concrete", (), ()),
    (
        "bytekey",
        71,
        "0 < key[0]*key[0]*key[0] - 12 && key[0]*key[0]*key[0] - 12 < 16",
        ("key",),
        ("has_nonlinear_term", "loop_guarded"),
    ),
    ("cubic", 16, "concrete", (), ()),
    ("cubic", 43, "y*y == x*x*x + x*x + 2", ("x", "y"), ("has_nonlinear_term",)),
    ("feeswap", 38, "concrete", (), ()),
    ("feeswap", 135, "123 == tokens[0]", ("tokens",), ("loop_guarded",)),
    ("lottery", 16, "concrete", (), ()),
    ("pool", 38, "concrete", (), ()),
    (
        "pool",
        205,
        "0 < value && 0 >= value && 0 >= value",
        ("value",),
        ("storage_dependent",),
    ),
]

FEATURES = ("has_keccak", "has_nonlinear_term", "loop_guarded", "storage_dependent")


@functools.cache
def campaign(name: str):
    """(bundle, coverage, corpus, report) of the fixture's 300-exec,
    seed-42 campaign; each fixture's campaign runs once per session."""
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    target = seed_initial_target(bundle.resolved_abi)
    return bundle, *run_campaign(world, target, {"execs": 300}, rng_seed=42)


def campaign_digest(name: str) -> str:
    _, cov, corpus, report = campaign(name)
    doc = "\n".join(
        [cov.to_json(), *(e.id for e in corpus.entries), report.to_json()]
    )
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_campaign_output_matches_golden(name):
    assert campaign_digest(name) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_DRIVE))
def test_drive_after_campaign_matches_golden(name):
    bundle, cov, corpus, _ = campaign(name)
    emitted = drive(
        bundle, corpus, cov.copy(), DriveBudget(iterations=20), cache=SnapshotCache()
    )
    doc = "\n".join(tc.id for tc in emitted)
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN_DRIVE[name]


def test_bottlenecks_after_campaign_match_golden():
    got = []
    for name in sorted(GOLDEN):
        bundle, cov, corpus, _ = campaign(name)
        for b in extract_bottlenecks(bundle, cov, corpus.entries):
            assert set(b.features) == set(FEATURES)
            flags = tuple(f for f in FEATURES if b.features[f])
            got.append(
                (name, b.branch_offset, b.constraint_text, b.inputs_involved, flags)
            )
    assert got == GOLDEN_BOTTLENECKS


def test_bottlenecks_without_cases_are_empty():
    # the benchmark's hybrid workload calls extract_bottlenecks(bundle,
    # map) with no cases; that call must keep working on a real map
    for name in sorted(GOLDEN):
        bundle, cov, _, _ = campaign(name)
        assert cov.bits
        assert extract_bottlenecks(bundle, cov) == []


@pytest.mark.parametrize(
    "name,offset,verdict,flag",
    [
        # a hash equality: drive rewrites it with the shadow's preimages
        ("ballot", 64, Unknown, "has_keccak"),
        # two atoms in one predicate
        ("cubic", 43, Unknown, "has_nonlinear_term"),
        ("feeswap", 135, Sat, "loop_guarded"),
        # no single call passes from the corpus's world: the stored words
        # it compares with are zero
        ("pool", 205, Unsat, "storage_dependent"),
    ],
)
def test_solve_on_the_shadow_predicate_of_each_bottleneck(name, offset, verdict, flag):
    bundle, cov, corpus, _ = campaign(name)
    found = extract_bottlenecks(bundle, cov, corpus.entries)
    (b,) = [b for b in found if b.branch_offset == offset]
    assert b.features[flag]
    result = solve([b.predicate])
    assert isinstance(result, verdict)
    if isinstance(result, Sat):
        assert evaluate_atoms(b.predicate, result.model) == 1
