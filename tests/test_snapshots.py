"""Snapshot keys, suffixes run from cached worlds, and the LRU cache."""

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
    deploy,
    execute_sequence,
    new_world,
    prefix_key,
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


def _state(world):
    return (
        sorted(world.accounts.items()),
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
        # a moved first transaction: the key implies no destination
        [_bump(1)._replace(destination=0xB0B), _bump(2)._replace(destination=0xB0B)],
    ]
    keys = [base] + [prefix_key(v) for v in variants]
    assert len(set(keys)) == len(keys)
    assert prefix_key([_bump(True)]) != prefix_key([_bump(1)])


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


def test_cache_miss_captures_the_prefix_run_and_hashes_once(monkeypatch):
    w = _world()
    prefix = [_bump(5), _bump(7, delay=2)]
    want, _ = execute_sequence(w, prefix)
    keyed = []

    def counting_key(p):
        keyed.append(len(p))
        return prefix_key(p)

    monkeypatch.setattr(snapshots, "prefix_key", counting_key)
    got = SnapshotCache().get_or_build(w, prefix)
    assert _state(got) == _state(want)
    assert keyed == [2]


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


def test_cache_evicts_least_recently_used(monkeypatch):
    monkeypatch.setattr(snapshots, "MAX_WORLDS", 3)
    w = _world()
    cache = SnapshotCache()
    s1 = cache.get_or_build(w, [_bump(1)])
    cache.get_or_build(w, [_bump(2)])
    s3 = cache.get_or_build(w, [_bump(3)])
    assert len(cache) == 3
    assert cache.get_or_build(w, [_bump(1)]) is s1  # refresh s1; bump(2) becomes LRU
    s4 = cache.get_or_build(w, [_bump(4)])
    assert len(cache) == 3
    assert cache.hits == 1
    # bump(2) was evicted; the other three are still held
    assert cache.get_or_build(w, [_bump(3)]) is s3
    assert cache.get_or_build(w, [_bump(1)]) is s1
    assert cache.get_or_build(w, [_bump(4)]) is s4
    assert (cache.hits, cache.misses) == (4, 4)
    cache.get_or_build(w, [_bump(2)])
    assert (cache.hits, cache.misses) == (4, 5)


def test_cache_keeps_at_least_one_entry(monkeypatch):
    monkeypatch.setattr(snapshots, "MAX_WORLDS", 1)
    w = _world()
    cache = SnapshotCache()
    cache.get_or_build(w, [_bump(1)])
    kept = cache.get_or_build(w, [_bump(2)])
    assert len(cache) == 1
    assert cache.get_or_build(w, [_bump(2)]) is kept
    assert (cache.hits, cache.misses) == (1, 2)


def test_cache_build_leaves_base_world_untouched():
    w = _world()
    before = _state(w)
    random.seed(0)
    SnapshotCache().get_or_build(w, [_bump(6), _bump(8)])
    assert _state(w) == before
