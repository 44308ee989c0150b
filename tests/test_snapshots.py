"""The store of worlds after a prefix: suffixes run from kept worlds,
misses that resume from the longest kept prefix, and the campaign's
store serving the shadow."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctest.bytecode.abi import FunctionSig, parse_abi
from sctest.bytecode.asm import Asm, dispatcher
from sctest.concolic import shadow_run
from sctest.errors import TypeMismatch
from sctest.evm import snapshots
from sctest.evm import (
    ContractBundle,
    SnapshotCache,
    Transaction,
    deploy,
    execute_sequence,
    make_world,
    new_world,
)
from sctest.fuzzing import Campaign, seed_initial_target

ACCT = 0x1001
AT = 0xC0DE


def _counter_bundle() -> ContractBundle:
    """bump(uint256): slot0 = slot0 * 31 + arg (order-sensitive on purpose)."""
    a = Asm()
    bump = FunctionSig("bump", ("uint256",))
    dispatcher(a, [(bump.selector, "bump")])
    a.func("bump").op("JUMPDEST")
    a.push(4).op("CALLDATALOAD")
    a.push(0).op("SLOAD").push(31).op("MUL").op("ADD")
    a.push(0).op("SSTORE").op("STOP")
    a.end_func("bump")
    abi = parse_abi({"functions": [{"name": "bump", "params": ["uint256"]}]})
    return ContractBundle("counter", a.assemble().bytecode, abi)


def _world():
    return deploy(new_world([(ACCT, 10**18)]), _counter_bundle(), AT)


def _bump(v: int, delay: int = 0) -> Transaction:
    return Transaction(function_call="bump", args=(v,), delay=delay,
                       source=ACCT, destination=AT)


def _state(world):
    return (
        sorted(world.accounts.items()),
        world.storage_view(),
        world.block.timestamp,
        world.block.number,
    )


def _count_runs(monkeypatch, module) -> list:
    """Record the length of every sequence `module` executes."""
    runs = []
    execute = module.execute_sequence

    def counting(world, txs):
        runs.append(len(txs))
        return execute(world, txs)

    monkeypatch.setattr(module, "execute_sequence", counting)
    return runs


def test_a_miss_resumes_from_the_longest_kept_prefix(monkeypatch):
    w = _world()
    runs = _count_runs(monkeypatch, snapshots)
    cache = SnapshotCache()
    first = cache.get_or_build(w, [_bump(1)])
    got = cache.get_or_build(w, [_bump(1), _bump(2)])
    assert runs == [1, 1]  # bump(2) alone ran on the second call
    assert _state(got) == _state(execute_sequence(w, [_bump(1), _bump(2)])[0])
    assert (cache.hits, cache.misses) == (0, 2)
    # both prefixes are kept now
    assert cache.get_or_build(w, [_bump(1)]) is first
    assert cache.get_or_build(w, [_bump(1), _bump(2)]) is got
    assert runs == [1, 1] and (cache.hits, cache.misses) == (2, 2)


def test_a_world_is_served_only_for_equal_transactions():
    # every variant of the kept [bump(1), bump(2)] is a miss served the
    # engine's world, but its own first step, which the trie keeps too
    w = deploy(_world(), _counter_bundle(), 0xB0B)
    kept = [_bump(1), _bump(2)]
    variants = [
        [_bump(2), _bump(1)],
        [_bump(1), _bump(3)],
        [_bump(1), _bump(2, delay=1)],
        [_bump(1)],
        [_bump(1), _bump(2)._replace(value=1)],
        [_bump(1), _bump(2)._replace(gas=50_000)],
        [_bump(1), _bump(2)._replace(destination=0xB0B)],
        [_bump(1), _bump(2)._replace(call_data=bytes.fromhex("deadbeef"))],
        [_bump(1), _bump(2)._replace(source=0x1002)],
        # a moved first transaction
        [_bump(1)._replace(destination=0xB0B), _bump(2)._replace(destination=0xB0B)],
    ]
    for variant in variants:
        cache = SnapshotCache()
        cache.get_or_build(w, kept)
        got = cache.get_or_build(w, variant)
        want = (1, 1) if variant == kept[:1] else (0, 2)
        assert (cache.hits, cache.misses) == want, variant
        assert _state(got) == _state(execute_sequence(w, variant)[0]), variant


@pytest.mark.parametrize("arg", [True, 1.0], ids=["bool", "float"])
def test_an_arg_the_engine_refuses_is_refused_after_an_equal_prefix(arg):
    # a bump holding True or 1.0 equals bump(1) as a Transaction, but
    # the engine wants an integer
    w = _world()
    cache = SnapshotCache()
    cache.get_or_build(w, [_bump(1)])
    assert [_bump(arg)] == [_bump(1)]
    with pytest.raises(TypeMismatch):
        execute_sequence(w, [_bump(arg)])
    with pytest.raises(TypeMismatch):
        cache.get_or_build(w, [_bump(arg)])
    assert cache.hits == 0


def test_cached_world_then_suffix_equals_direct_execution():
    w = _world()
    seq = [_bump(3), _bump(5, delay=2), _bump(7)]
    direct, _ = execute_sequence(w, seq)
    cache = SnapshotCache()
    for cut in range(len(seq) + 1):
        resumed, _ = execute_sequence(cache.get_or_build(w, seq[:cut]), seq[cut:])
        assert _state(resumed) == _state(direct), f"cut={cut}"


@settings(max_examples=20, deadline=None)
@given(
    vals=st.lists(st.integers(0, 2**64), min_size=1, max_size=6),
    data=st.data(),
)
def test_snapshot_transparency_random_splits(vals, data):
    w = _world()
    seq = [_bump(v, delay=v % 3) for v in vals]
    cut = data.draw(st.integers(0, len(seq)))
    direct, _ = execute_sequence(w, seq)
    cached = SnapshotCache().get_or_build(w, seq[:cut])
    resumed, _ = execute_sequence(cached, seq[cut:])
    assert _state(resumed) == _state(direct)


def test_suffix_from_cached_world_leaves_it_unchanged():
    w = _world()
    cache = SnapshotCache()
    cached = cache.get_or_build(w, [_bump(9)])
    before = _state(cached)
    execute_sequence(cached, [_bump(4, delay=5), _bump(2)])
    assert _state(cached) == before
    assert cache.get_or_build(w, [_bump(9)]) is cached


def test_cache_hit_returns_same_snapshot():
    w = _world()
    cache = SnapshotCache()
    s1 = cache.get_or_build(w, [_bump(4)])
    s2 = cache.get_or_build(w, [_bump(4)])
    assert s1 is s2
    assert cache.hits == 1 and cache.misses == 1


def test_cache_serves_a_world_only_for_its_own_base():
    a = _world()
    b, _ = execute_sequence(a, [_bump(100)])
    cache = SnapshotCache()
    from_a = cache.get_or_build(a, [_bump(1)])
    from_b = cache.get_or_build(b, [_bump(1)])
    assert from_a.storage[AT][0] == 1
    assert from_b.storage[AT][0] == 100 * 31 + 1
    assert _state(from_b) == _state(execute_sequence(b, [_bump(1)])[0])
    assert (cache.hits, cache.misses) == (0, 2)


def test_cache_build_leaves_base_world_untouched():
    w = _world()
    before = _state(w)
    random.seed(0)
    SnapshotCache().get_or_build(w, [_bump(6), _bump(8)])
    assert _state(w) == before


def test_the_campaign_store_serves_the_shadow(pool, monkeypatch):
    world, _ = make_world(pool)
    camp = Campaign(world, seed_initial_target(pool.resolved_abi), 42)
    camp.run(300)
    cache = camp.prefixes
    runs = _count_runs(monkeypatch, snapshots)
    asked = 0
    for tc in camp.corpus.entries:
        for k in range(1, len(tc.txs)):
            prefix, tx = tc.txs[:k], tc.txs[k]
            cached = shadow_run(camp.snapshot, prefix, tx, cache=cache)
            assert cached == shadow_run(camp.snapshot, prefix, tx)
            asked += 1
    assert asked > 0
    assert runs == []  # no prefix transaction ran
    assert (cache.hits, cache.misses) == (asked, 0)
