"""Golden campaign outputs for every fixture.

Each digest was recorded before the campaign's hot path gained its
caches (path-hash memo, scheduler weight cache).  A cache that changed
what a campaign does would change the digest, even when it changes it
the same way on every run, which a run-twice comparison cannot see.
"""

import hashlib

import pytest

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


def campaign_digest(name: str) -> str:
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    target = seed_initial_target(bundle.resolved_abi)
    cov, corpus, report = run_campaign(world, target, {"execs": 300}, rng_seed=42)
    doc = "\n".join(
        [cov.to_json(), *(e.id for e in corpus.entries), report.to_json()]
    )
    return hashlib.sha256(doc.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_campaign_output_matches_golden(name):
    assert campaign_digest(name) == GOLDEN[name]
