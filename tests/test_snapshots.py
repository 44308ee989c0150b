"""Snapshot keys, restore transparency, and the LRU cache."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from sctest.bytecode.abi import FunctionSig, parse_abi
from sctest.bytecode.asm import Asm, dispatcher
from sctest.evm import snapshots
from sctest.evm import (
    ContractBundle,
    SnapshotCache,
    Transaction,
    capture,
    deploy,
    execute_sequence,
    new_world,
    prefix_key,
    restore,
)

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


def _snapshot(world, prefix):
    """The snapshot after prefix, built without the cache."""
    return capture(execute_sequence(world, prefix)[0], prefix_key(prefix))


def _state(world):
    return (
        sorted((a, acc.balance) for a, acc in world.accounts.items()),
        world.storage_view(),
        world.block.timestamp,
        world.block.number,
    )


def test_prefix_key_is_32_bytes_and_stable():
    seq = [_bump(1), _bump(2, delay=3)]
    k1, k2 = prefix_key(seq), prefix_key(seq)
    assert k1 == k2
    assert len(k1) == 32


def test_prefix_key_sensitive_to_order_args_and_delay():
    base = prefix_key([_bump(1), _bump(2)])
    assert prefix_key([_bump(2), _bump(1)]) != base
    assert prefix_key([_bump(1), _bump(3)]) != base
    assert prefix_key([_bump(1), _bump(2, delay=1)]) != base
    assert prefix_key([_bump(1)]) != base


def test_restore_then_suffix_equals_direct_execution():
    w = _world()
    seq = [_bump(3), _bump(5, delay=2), _bump(7)]
    direct, _ = execute_sequence(w, seq)
    for cut in range(len(seq) + 1):
        snap = _snapshot(w, seq[:cut])
        resumed, _ = execute_sequence(restore(w, snap), seq[cut:])
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
    snap = _snapshot(w, seq[:cut])
    resumed, _ = execute_sequence(restore(w, snap), seq[cut:])
    assert _state(resumed) == _state(direct)


def test_restored_world_is_independent_of_snapshot():
    w = _world()
    snap = _snapshot(w, [_bump(9)])
    r1 = restore(w, snap)
    r1.storage[AT][0] = 12345
    r2 = restore(w, snap)
    assert r2.storage[AT][0] != 12345


def test_cache_hit_returns_same_snapshot():
    w = _world()
    cache = SnapshotCache()
    s1 = cache.get_or_build(w, [_bump(4)])
    s2 = cache.get_or_build(w, [_bump(4)])
    assert s1 is s2
    assert cache.hits == 1 and cache.misses == 1


def test_cache_miss_captures_the_prefix_run_and_hashes_once(monkeypatch):
    w = _world()
    prefix = [_bump(5), _bump(7, delay=2)]
    want = _snapshot(w, prefix)
    keyed = []

    def counting_key(p):
        keyed.append(len(p))
        return prefix_key(p)

    monkeypatch.setattr(snapshots, "prefix_key", counting_key)
    got = SnapshotCache().get_or_build(w, prefix)
    assert got == want
    assert keyed == [2]


def test_cache_evicts_least_recently_used():
    w = _world()
    one = _snapshot(w, [_bump(1)])
    budget = 3 * one.approx_bytes() + one.approx_bytes() // 2
    cache = SnapshotCache(memory_budget=budget)
    s1 = cache.get_or_build(w, [_bump(1)])
    s2 = cache.get_or_build(w, [_bump(2)])
    s3 = cache.get_or_build(w, [_bump(3)])
    assert len(cache) == 3
    cache.get(s1.key)  # refresh s1; s2 becomes LRU
    cache.get_or_build(w, [_bump(4)])
    assert len(cache) == 3
    assert cache.get(s2.key) is None
    assert cache.get(s1.key) is s1 and cache.get(s3.key) is s3


def test_cache_keeps_at_least_one_entry():
    w = _world()
    cache = SnapshotCache(memory_budget=1)
    snap = cache.get_or_build(w, [_bump(1)])
    assert cache.get(snap.key) is snap


def test_cache_build_leaves_base_world_untouched():
    w = _world()
    before = _state(w)
    random.seed(0)
    SnapshotCache().get_or_build(w, [_bump(6), _bump(8)])
    assert _state(w) == before
