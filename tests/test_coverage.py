"""Coverage accounting: maps, reports, gap extraction, bottlenecks.

The rendered constraint strings and report shapes frozen here are the
contract the fuzzing pipeline and the model prompts build on; any change
to them is a behavior change, not a cosmetic one.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctest.bytecode.abi import FunctionSig, parse_abi
from sctest.bytecode.asm import Asm, dispatcher
from sctest.concolic import ArgLayout, Sat, Unsat, evaluate, inputs_of, shadow_run, solve
from sctest.coverage import (
    FULLY_UNCOVERED,
    PARTIALLY_COVERED,
    CoverageMap,
    MissingBodyRange,
    disassembly_lines,
    extract_bottlenecks,
    extract_uncovered_functions,
    merge_result,
    render_report,
)
from sctest.coverage import covmap
from sctest.coverage.covmap import PATH_BLOCK_LIMIT, _path_hash
from sctest.evm import (
    ExecResult,
    Transaction,
    deploy,
    execute_sequence,
    execute_tx,
    make_world,
    new_world,
)
from sctest.evm.bundle import ContractBundle, genesis_config
from sctest.fuzzing import TestCase as FuzzCase
from sctest.fuzzing import run_campaign, seed_initial_target

ACCT_A = 0x1001


def as_case(bundle, calls) -> FuzzCase:
    """The calls, from ACCT_A to the bundle's genesis address, as one case."""
    _, at = make_world(bundle)
    return FuzzCase(
        tuple(
            Transaction(function_call=fn, args=args, source=ACCT_A, destination=at)
            for fn, args in calls
        )
    )


def run_cover(bundle, calls):
    """Execute calls from genesis and fold every trace into one map."""
    world, _ = make_world(bundle)
    world, results = execute_sequence(world, list(as_case(bundle, calls).txs))
    map_ = CoverageMap()
    for r in results:
        merge_result(map_, r, world)
    return map_


def body_bits(bundle, map_, sig):
    """Covered instruction count inside sig's body, straight off the map."""
    address = genesis_config(bundle)["deploy_at"]
    bits = map_.bits.get(address, 0)
    lo, hi = sig.body_range
    return sum(
        1 for i in bundle.cfg.instrs if lo <= i.offset < hi and (bits >> i.offset) & 1
    )


# ---------------------------------------------------------------------------
# the map itself
# ---------------------------------------------------------------------------


def reference_path_hash(entries) -> int:
    """FNV-1a over 20-byte address + 4-byte block start, first
    PATH_BLOCK_LIMIT entries only, one byte at a time."""
    h = 0xCBF29CE484222325
    for addr, start in entries[:PATH_BLOCK_LIMIT]:
        for b in addr.to_bytes(20, "big") + start.to_bytes(4, "big"):
            h = ((h ^ b) * 0x100000001B3) % 2**64
    return h


ENTRY = st.tuples(st.integers(0, 2**160 - 1), st.integers(0, 2**32 - 1))


@st.composite
def entry_lists(draw):
    """Entry lists up to a few hundred past PATH_BLOCK_LIMIT: a short
    drawn pattern repeated to a drawn length."""
    pattern = draw(st.lists(ENTRY, min_size=1, max_size=6))
    n = draw(
        st.one_of(
            st.integers(0, 40),
            st.integers(PATH_BLOCK_LIMIT - 2, PATH_BLOCK_LIMIT + 300),
        )
    )
    return (pattern * (n // len(pattern) + 1))[:n]


@settings(max_examples=30, deadline=None)
@given(entry_lists())
def test_path_hash_matches_reference_fold(entries):
    assert _path_hash(entries) == reference_path_hash(entries)


@settings(max_examples=10, deadline=None)
@given(st.lists(ENTRY, min_size=1, max_size=20), st.lists(ENTRY, max_size=20))
def test_entries_past_the_block_limit_do_not_change_the_hash(tail_a, tail_b):
    head = [(0xC0DE, i) for i in range(PATH_BLOCK_LIMIT)]
    assert _path_hash(head + tail_a) == _path_hash(head + tail_b)
    assert _path_hash(head + tail_a) == _path_hash(head)


# -- merge_result and its record memo --------------------------------------


def reference_merge_result(map_, result, world) -> int:
    """merge_result as a walk over every executed offset, with the
    reference path hash; returns the instructions covered anew."""
    before = sum(b.bit_count() for b in map_.bits.values())
    entries = []
    for address, offsets in result.trace:
        bundle = world.deployed.get(address)
        if bundle is None:
            continue
        bits = map_.bits.get(address, 0)
        blocks = bundle.cfg.blocks
        for off in offsets:
            bits |= 1 << off
            if off in blocks:
                entries.append((address, off))
        map_.bits[address] = bits
    map_.path_set.add(reference_path_hash(entries))
    return sum(b.bit_count() for b in map_.bits.values()) - before


CALLER_AT, CALLEE_AT = 0xC0DE, 0xCA11


def _interleaved_result():
    """A caller that CALLs a deployed callee twice: five segments,
    caller and callee interleaved, plus a trailing segment for an
    address with no code."""
    call = "6000" * 4 + "6000" + "61ca11" + "6000" + "f1" + "50"
    caller = ContractBundle("caller", bytes.fromhex(call * 2 + "00"), [])
    callee = ContractBundle("callee", bytes.fromhex("600160005500"), [])
    world = deploy(deploy(new_world([(ACCT_A, 10**18)]), caller, CALLER_AT),
                   callee, CALLEE_AT)
    after, res = execute_tx(world, Transaction(
        function_call="raw", call_data=bytes(4), source=ACCT_A,
        destination=CALLER_AT))
    assert [a for a, _ in res.trace] == [CALLER_AT, CALLEE_AT, CALLER_AT,
                                         CALLEE_AT, CALLER_AT]
    return res._replace(trace=res.trace + ((0xDEAD, (0, 2, 4)),)), after


@pytest.fixture(scope="module")
def merge_cases(bundles):
    """(result, world) pairs: every corpus entry of a short campaign on
    each fixture, then the interleaved call."""
    cases = []
    for name in sorted(bundles):
        world, _ = make_world(bundles[name])
        target = seed_initial_target(bundles[name].resolved_abi)
        _, corpus, _ = run_campaign(world, target, {"execs": 150}, 7)
        for tc in corpus.entries:
            after, results = execute_sequence(world, list(tc.txs))
            cases += [(res, after) for res in results]
    cases.append(_interleaved_result())
    return cases


def _fresh_records(monkeypatch, cap=None):
    monkeypatch.setattr(covmap, "_RECORDS", {})
    monkeypatch.setattr(covmap, "_records_size", 0)
    if cap is not None:
        monkeypatch.setattr(covmap, "_RECORDS_CAP", cap)


def _check_merge(map_, ref, result, world):
    assert merge_result(map_, result, world) == reference_merge_result(
        ref, result, world
    )
    assert map_.bits == ref.bits
    assert map_.path_set == ref.path_set


def _held() -> int:
    """Offsets the record memo's keys hold, checked against its count."""
    held = sum(len(seg) for trace in covmap._RECORDS for _, seg in trace)
    assert held == covmap._records_size
    return held


def test_merge_result_matches_the_per_offset_walk(monkeypatch, merge_cases):
    _fresh_records(monkeypatch)
    map_, ref = CoverageMap(), CoverageMap()
    for result, world in merge_cases:
        _check_merge(map_, ref, result, world)
    assert len(covmap._RECORDS) == len({r.trace for r, _ in merge_cases})

    def no_fold(*args):
        raise AssertionError("a kept trace was folded again")

    monkeypatch.setattr(covmap, "_segment", no_fold)
    for result, world in merge_cases:  # every trace comes from the memo
        _check_merge(map_, ref, result, world)


def test_record_memo_keeps_entries_per_cfg(monkeypatch):
    # the same offsets (0, 2, 4, 5, 6) under two CFGs: offset 5 is a
    # JUMPDEST, so a block entry, in one and a PC in the other
    _fresh_records(monkeypatch)
    runs = []
    for op in ("5b", "58"):
        code = bytes.fromhex("6002600301" + op + "00")
        world = deploy(new_world([(ACCT_A, 10**18)]),
                       ContractBundle("b" + op, code, []), CALLER_AT)
        runs.append(execute_tx(world, Transaction(
            function_call="raw", call_data=bytes(4), source=ACCT_A,
            destination=CALLER_AT)))
    (_, r_dest), (_, r_pc) = runs
    assert r_dest.trace == r_pc.trace == ((CALLER_AT, (0, 2, 4, 5, 6)),)
    map_, ref = CoverageMap(), CoverageMap()
    for after, res in (runs + runs):
        _check_merge(map_, ref, res, after)
    assert len(map_.path_set) == 2
    # one key, replaced in place: its offsets are counted once
    assert list(covmap._RECORDS) == [r_pc.trace]
    assert _held() == 5


def test_record_memo_stays_within_its_bound(monkeypatch, merge_cases):
    lengths = sorted(
        sum(len(seg) for _, seg in r.trace) for r, _ in merge_cases
    )
    cap = lengths[len(lengths) // 2]  # some traces are longer than this
    _fresh_records(monkeypatch, cap)
    map_, ref = CoverageMap(), CoverageMap()
    for _ in range(2):  # evicted traces are folded again
        for result, world in merge_cases:
            _check_merge(map_, ref, result, world)
            assert _held() <= cap
    assert covmap._RECORDS


def test_record_memo_drops_the_oldest_trace_first_and_refolds_it(monkeypatch):
    _fresh_records(monkeypatch, 12)
    code = bytes.fromhex("5b" * 16)  # every offset starts a block
    world = deploy(new_world([(ACCT_A, 10**18)]),
                   ContractBundle("dests", code, []), CALLER_AT)
    traces = [
        ((CALLER_AT, tuple(range(i % 5 + 1))), (0xDEAD, (i,)))
        for i in range(20)
    ]

    def check(trace):
        res = ExecResult("STOP", b"", 0, trace)
        _check_merge(CoverageMap(), CoverageMap(), res, world)
        assert _held() <= 12

    for trace in traces:
        check(trace)
    assert traces[0] not in covmap._RECORDS  # evicted
    for trace in traces:  # every early trace comes back, evicting others
        check(trace)
    assert traces[-1] in covmap._RECORDS
    # a trace longer than the bound is folded but not kept
    check(((CALLER_AT, tuple(range(13))),))
    assert covmap._RECORDS == {}


def test_merge_sets_bits_and_one_path(cubic):
    map_ = run_cover(cubic, [("example", (1, 3, 10))])
    address = genesis_config(cubic)["deploy_at"]
    assert map_.count(address) > 0
    assert len(map_.path_set) == 1


def test_merge_is_idempotent(cubic):
    once = run_cover(cubic, [("example", (1, 3, 10))])
    twice = run_cover(cubic, [("example", (1, 3, 10))] * 2)
    assert once.bits == twice.bits
    assert once.path_set == twice.path_set


def test_two_branch_arms_two_paths(cubic):
    map_ = run_cover(cubic, [("example", (1, 3, 10)), ("example", (1, 2, 10))])
    assert len(map_.path_set) == 2


def test_merge_is_commutative_and_monotone(cubic):
    a = run_cover(cubic, [("example", (1, 3, 10)), ("example", (1, 2, 4))])
    b = run_cover(cubic, [("example", (1, 2, 4)), ("example", (1, 3, 10))])
    assert a.bits == b.bits
    assert a.path_set == b.path_set
    smaller = run_cover(cubic, [("example", (1, 3, 10))])
    address = genesis_config(cubic)["deploy_at"]
    assert smaller.bits[address] & a.bits[address] == smaller.bits[address]
    assert smaller.path_set <= a.path_set


def test_map_json_roundtrip(cubic):
    map_ = run_cover(cubic, [("example", (1, 2, 4)), ("example", (1, 3, 10))])
    doc = json.loads(map_.to_json())
    # hex words: bits per address, and the sorted 16-digit path hashes
    assert {int(a, 16): int(b, 16) for a, b in doc["bits"].items()} == map_.bits
    assert doc["paths"] == sorted(doc["paths"])
    assert all(len(h) == 16 for h in doc["paths"])
    assert {int(h, 16) for h in doc["paths"]} == map_.path_set


# ---------------------------------------------------------------------------
# rendered reports
# ---------------------------------------------------------------------------

FUZZ_SHAPE_BALLOT = [
    ("castVote", (i, i * 7, i + 2, 0, 9 - i)) for i in range(5)
]


def test_report_empty_map(ballot):
    rep = render_report(ballot, CoverageMap())
    lines = rep.text.splitlines()
    assert lines[0] == f"COVERAGE v1 0/{len(ballot.cfg.instrs)}"
    assert not any(line.startswith("* ") for line in lines[1:])
    assert rep.summary == {
        "instructions_covered": 0,
        "instructions_total": len(ballot.cfg.instrs),
        "paths_seen": 0,
    }


def test_report_ballot_guard_never_passes(ballot):
    """The internal-call line stays unstarred while the guard and the
    revert arm show as covered."""
    map_ = run_cover(ballot, FUZZ_SHAPE_BALLOT)
    rep = render_report(ballot, map_)
    lines = rep.text.splitlines()
    assert lines[0] == "COVERAGE v1 40/56"
    starred = {
        i for i, line in enumerate(lines[1:], start=1) if line.startswith("* ")
    }
    assert starred == {1, 4, 5, 8}
    src_lines = ballot.source.splitlines()
    assert "_castVoteInternal(voter, params);" in src_lines[6 - 1]
    assert rep.summary["paths_seen"] == 1

    gaps = extract_uncovered_functions(ballot, map_)
    assert [u.status for u in gaps] == [PARTIALLY_COVERED]
    assert gaps[0].sig.startswith("castVote(")


def _starred(lines: list[str], plain: list[str]) -> set[int]:
    """The 1-based numbers of report lines that are their plain text
    starred; every other line must be its plain text as it is."""
    assert len(lines) == len(plain)
    starred = set()
    for i, (line, text) in enumerate(zip(lines, plain), start=1):
        if line == f"* {text}":
            starred.add(i)
        else:
            assert line == text
    return starred


def test_report_starred_never_exceeds_total(bundles):
    """The starred lines are exactly the covered ones, and the header
    counts the covered instructions against all of them."""
    for bundle in bundles.values():
        fn = bundle.resolved_abi[0]
        args = tuple(t.default() for t in fn.params)
        map_ = run_cover(bundle, [(fn.name, args)])
        bits = map_.bits[genesis_config(bundle)["deploy_at"]]
        covered = [i.offset for i in bundle.cfg.instrs if bits >> i.offset & 1]
        lines = render_report(bundle, map_).text.splitlines()
        assert lines[0] == f"COVERAGE v1 {len(covered)}/{len(bundle.cfg.instrs)}"
        source = bundle.source.splitlines()
        starred = _starred(lines[1:], source)
        assert starred == {bundle.linemap[off] for off in covered}
        assert 0 < len(starred) < len(source)
        # without source, one disassembly line per instruction
        bare = ContractBundle("bare", bundle.bytecode, bundle.abi)
        lines = render_report(bare, map_).text.splitlines()
        assert lines[0] == f"COVERAGE v1 {len(covered)}/{len(bundle.cfg.instrs)}"
        texts = [text for _, text in disassembly_lines(bare)]
        offsets = [off for off, _ in disassembly_lines(bare)]
        starred = _starred(lines[1:], texts)
        assert {offsets[i - 1] for i in starred} == set(covered)


def test_report_full_coverage_stars_every_source_line(cubic):
    map_ = run_cover(
        cubic,
        [("example", (1, 3, 10)), ("example", (1, 2, 10)), ("example", (1, 2, 4))],
    )
    rep = render_report(cubic, map_)
    lines = rep.text.splitlines()
    starred = {
        i for i, line in enumerate(lines[1:], start=1) if line.startswith("* ")
    }
    assert set(cubic.linemap.values()) <= starred


def test_report_is_a_pure_function(ballot):
    map_ = run_cover(ballot, FUZZ_SHAPE_BALLOT)
    assert render_report(ballot, map_).text == render_report(ballot, map_).text


def test_report_without_source_uses_disassembly(cubic):
    bare = ContractBundle("bare", cubic.bytecode, cubic.abi)
    map_ = run_cover(bare, [("example", (1, 3, 10))])
    rep = render_report(bare, map_)
    lines = rep.text.splitlines()
    assert lines[0].startswith("COVERAGE v1 ")
    # one line per instruction, each carrying its offset
    assert len(lines) - 1 == len(cubic.cfg.instrs)
    assert any(line.startswith("* 0x0000") for line in lines[1:])


# ---------------------------------------------------------------------------
# uncovered functions
# ---------------------------------------------------------------------------


def test_never_dispatched_function_is_fully_uncovered(pool):
    map_ = run_cover(pool, [("mintDyad", (1, 100))])
    gaps = {u.sig: u for u in extract_uncovered_functions(pool, map_)}
    red = gaps["redeemable(uint256,uint256)"]
    assert red.status == FULLY_UNCOVERED
    lo, hi = pool.by_name["redeemable"].body_range
    assert all(lo <= off < hi for off in red.uncovered_offsets)


def test_fully_covered_contract_reports_no_gaps(cubic):
    map_ = run_cover(
        cubic,
        [("example", (1, 3, 10)), ("example", (1, 2, 10)), ("example", (1, 2, 4))],
    )
    assert extract_uncovered_functions(cubic, map_) == []


def test_gap_extraction_agrees_with_direct_bit_counting(bundles):
    """Oracle: call every ABI function once with default arguments, then
    check presence and status against raw per-body bit counts."""
    for bundle in bundles.values():
        calls = [
            (fn.name, tuple(t.default() for t in fn.params))
            for fn in bundle.resolved_abi
        ]
        map_ = run_cover(bundle, calls)
        gaps = {u.sig: u for u in extract_uncovered_functions(bundle, map_)}
        for fn in bundle.resolved_abi:
            lo, hi = fn.body_range
            total = sum(1 for i in bundle.cfg.instrs if lo <= i.offset < hi)
            got = body_bits(bundle, map_, fn)
            if got == total:
                assert fn.signature not in gaps, fn.signature
            elif got == 0:
                assert gaps[fn.signature].status == FULLY_UNCOVERED
            else:
                assert gaps[fn.signature].status == PARTIALLY_COVERED
            if fn.signature in gaps:
                missed = gaps[fn.signature].uncovered_offsets
                assert len(missed) == total - got
                assert all(lo <= off < hi for off in missed)


def test_missing_body_range_is_an_error(cubic):
    abi = parse_abi(
        {
            "functions": [
                {"name": "example", "params": ["uint8", "uint8", "uint8"]},
                {"name": "ghost", "params": ["uint256"]},
            ]
        }
    )
    bundle = ContractBundle("ghostly", cubic.bytecode, abi)
    with pytest.raises(MissingBodyRange) as err:
        extract_uncovered_functions(bundle, CoverageMap())
    assert err.value.function == "ghost"


# ---------------------------------------------------------------------------
# branch bottlenecks
# ---------------------------------------------------------------------------


def bottleneck_in(bundle, calls, fn_name):
    """(map, bottlenecks inside fn_name) after running calls as one case."""
    map_ = run_cover(bundle, calls)
    lo, hi = bundle.by_name[fn_name].body_range
    hits = [
        b
        for b in extract_bottlenecks(bundle, map_, [as_case(bundle, calls)])
        if lo <= b.branch_offset < hi
    ]
    assert hits, f"no bottleneck inside {fn_name}"
    return map_, hits


def test_lottery_restrictive_condition(lottery):
    _, (b,) = bottleneck_in(lottery, [("checkBalance", ([5, 9], 2))], "checkBalance")
    # the first iteration's element: the shadow reads tickets[0]
    assert b.constraint_text == "tickets[0] == amount*amount*amount"
    assert b.inputs_involved == ("tickets", "amount")
    assert b.features == {
        "has_keccak": False,
        "has_nonlinear_term": True,
        "loop_guarded": True,
        "storage_dependent": False,
    }
    assert evaluate(b.predicate, {"tickets": (5, 9), "amount": 2}) == 0
    assert evaluate(b.predicate, {"tickets": (8, 9), "amount": 2}) == 1


def test_ballot_guard_reads_as_keccak_equality(ballot):
    _, (b,) = bottleneck_in(ballot, FUZZ_SHAPE_BALLOT, "castVote")
    assert b.constraint_text == (
        "keccak(voter ++ id) == keccak(reason ++ sig + 0xbadbeef)"
    )
    assert b.features["has_keccak"]
    assert not b.features["loop_guarded"]
    assert not b.features["storage_dependent"]
    assert b.inputs_involved == ("id", "voter", "reason", "sig")


def test_pool_fused_guard_is_storage_dependent(pool):
    calls = [("mintDyad", (1, 100)), ("deposit", (ACCT_A, 1, 50))]
    map_, (b,) = bottleneck_in(pool, calls, "deposit")
    # the two mapping words are the shadow's concrete reads: 100 minted,
    # nothing allowed
    assert b.constraint_text == "0 < value && 100 >= value && 0 >= value"
    assert b.features["storage_dependent"]
    assert not b.features["has_keccak"]
    assert not b.features["loop_guarded"]
    assert b.inputs_involved == ("value",)
    assert isinstance(solve([b.predicate]), Unsat)
    # an allowance set first makes value = 50 pass, which the predicate,
    # holding the old allowance, cannot see
    allowed = [("redeemable", (1, 100))] + calls
    assert covers(pool, run_cover(pool, allowed), dark_successor(pool, map_, b))


def test_bytekey_window_condition(bytekey):
    _, (b,) = bottleneck_in(bytekey, [("validate", (ACCT_A, b"\x09"))], "validate")
    assert b.constraint_text == (
        "0 < key[0]*key[0]*key[0] - 12 && key[0]*key[0]*key[0] - 12 < 16"
    )
    assert b.features["has_nonlinear_term"]
    assert b.features["loop_guarded"]
    assert b.inputs_involved == ("key",)
    assert evaluate(b.predicate, {"key": b"\x09"}) == 0
    assert evaluate(b.predicate, {"key": b"\x03"}) == 1


def test_feeswap_band_and_multiplier_checks_are_concrete_and_storage_dependent(feeswap):
    calls = [("set_fee1e9", (500,)), ("velocore_execute", ([123],))]
    _, hits = bottleneck_in(feeswap, calls, "velocore_execute")
    # both conditions compare stored words with concrete ones; the slot
    # record names the slot each read: fee1e9 (0) for the band check,
    # lastWithdrawTimestamp (2) for the multiplier's
    world, _ = make_world(feeswap)
    txs = as_case(feeswap, calls).txs
    reads = shadow_run(world, txs[:1], txs[1]).reads
    by_slot = {reads[b.branch_offset]: b for b in hits}
    band, mult = by_slot[frozenset({0})], by_slot[frozenset({2})]
    for b in (band, mult):
        assert b.constraint_text == "concrete"
        assert b.predicate is None
        assert b.inputs_involved == ()
        assert b.features["storage_dependent"]
        assert not b.features["has_keccak"]
    assert band.features["loop_guarded"]
    assert not mult.features["loop_guarded"]


def test_cubic_both_polarities(cubic):
    _, hits = bottleneck_in(cubic, [("example", (1, 2, 10))], "example")
    texts = {b.constraint_text for b in hits}
    # the taken square-match arm is covered, so its blocker is the negation;
    # the final equality never fired, so its blocker is the raw condition
    assert texts == {
        "y*y != x*x*x + x*x + 2",
        "z == x*x*x + x*x + 2",
    }


def test_blocking_branches_sit_inside_their_function(pool):
    calls = [("mintDyad", (1, 100)), ("deposit", (ACCT_A, 1, 50))]
    map_ = run_cover(pool, calls)
    gaps = extract_uncovered_functions(pool, map_, [as_case(pool, calls)])
    assert any(u.blocking for u in gaps)
    for u in gaps:
        lo, hi = pool.by_name[u.sig.split("(")[0]].body_range
        for b in u.blocking:
            assert lo <= b.branch_offset < hi


def test_no_bottlenecks_without_execution(lottery):
    case = as_case(lottery, [("checkBalance", ([5, 9], 2))])
    assert extract_bottlenecks(lottery, CoverageMap(), [case]) == []


def _length_and_word_loop() -> ContractBundle:
    """f(uint256 n, bytes data): `if (data.length == 5) stop;` outside
    any loop, then `for (i = 0; i < n; i++) if (n == 7) stop;`."""
    f = FunctionSig("f", ("uint256", "bytes"))
    a = Asm()
    dispatcher(a, [(f.selector, "f")])
    a.func("f").op("JUMPDEST")
    a.push(36).op("CALLDATALOAD").push(4).op("ADD").op("CALLDATALOAD")
    a.push(5).op("EQ").jumpi("five")
    a.push(0)  # i
    a.label("loop").op("JUMPDEST")
    a.push(4).op("CALLDATALOAD").op("DUP2").op("LT").op("ISZERO").jumpi("end")
    a.push(4).op("CALLDATALOAD").push(7).op("EQ").jumpi("seven")
    a.push(1).op("ADD").jump("loop")
    for label in ("end", "five", "seven"):
        a.label(label).op("JUMPDEST").op("STOP")
    a.end_func("f")
    abi = parse_abi(
        {"functions": [{"name": "f", "params": ["uint256", "bytes"], "param_names": ["n", "data"]}]}
    )
    return ContractBundle("lengthloop", a.assemble().bytecode, abi)


def test_loop_guarded_needs_a_cycle_whose_exit_reads_a_length():
    bundle = _length_and_word_loop()
    calls = [("f", (2, b"ab"))]
    got = {
        b.constraint_text: b.features["loop_guarded"]
        for b in extract_bottlenecks(bundle, run_cover(bundle, calls), [as_case(bundle, calls)])
    }
    # a length test outside any loop, and a test inside a loop whose
    # exits read only the word n
    assert got == {"concrete": False, "5 == data.length": False, "7 == n": False}


def test_a_branch_no_case_reaches_is_not_reported(pool):
    calls = [("mintDyad", (1, 100)), ("deposit", (ACCT_A, 1, 50))]
    map_ = run_cover(pool, calls)
    lo, hi = pool.by_name["deposit"].body_range

    def in_deposit(cases):
        return [b for b in extract_bottlenecks(pool, map_, cases) if lo <= b.branch_offset < hi]

    assert in_deposit([as_case(pool, calls)])
    assert in_deposit([as_case(pool, calls[:1])]) == []


def test_dispatcher_fallback_is_reported_concrete(cubic):
    map_ = run_cover(cubic, [("example", (1, 2, 10))])
    (fallback,) = [
        b
        for b in extract_bottlenecks(cubic, map_, [as_case(cubic, [("example", (1, 2, 10))])])
        if b.branch_offset < cubic.by_name["example"].body_range[0]
    ]
    assert fallback.constraint_text == "concrete"
    assert fallback.predicate is None
    assert fallback.inputs_involved == ()
    assert not any(fallback.features.values())


def test_fully_exercised_branch_is_not_a_bottleneck(cubic):
    calls = [("example", (1, 3, 10)), ("example", (1, 2, 10)), ("example", (1, 2, 4))]
    map_ = run_cover(cubic, calls)
    assert extract_uncovered_functions(cubic, map_) == []
    lo, hi = cubic.by_name["example"].body_range
    in_body = [
        b
        for b in extract_bottlenecks(cubic, map_, [as_case(cubic, calls)])
        if lo <= b.branch_offset < hi
    ]
    assert in_body == []


def covers(bundle, map_, offset) -> bool:
    return bool((map_.bits[genesis_config(bundle)["deploy_at"]] >> offset) & 1)


def dark_successor(bundle, map_, b):
    """The uncovered successor block of bottleneck b's branch."""
    blocks = bundle.cfg.blocks.values()
    (blk,) = [k for k in blocks if k.instrs[-1].offset == b.branch_offset]
    (dark,) = [s for s in blk.succs if not covers(bundle, map_, s)]
    return dark


def test_cubic_blocker_predicate_evaluates_to_the_dark_arm(cubic):
    map_, hits = bottleneck_in(cubic, [("example", (1, 2, 10))], "example")
    by_text = {b.constraint_text: b for b in hits}
    b = by_text["y*y != x*x*x + x*x + 2"]
    # the predicate's atoms are the ones ArgLayout makes for the same reads
    layout = ArgLayout(cubic.by_name["example"], (1, 2, 10))
    x, y = layout.word_at(4, b""), layout.word_at(36, b"")
    assert set(inputs_of(b.predicate)) == {x, y}
    assert evaluate(b.predicate, {"x": 1, "y": 2, "z": 10}) == 0
    assert evaluate(b.predicate, {"x": 1, "y": 3, "z": 10}) == 1
    dark = dark_successor(cubic, map_, b)
    assert covers(cubic, run_cover(cubic, [("example", (1, 3, 10))]), dark)


def test_ballot_keccak_predicate_evaluates_to_the_dark_arm(ballot):
    map_, (b,) = bottleneck_in(ballot, FUZZ_SHAPE_BALLOT, "castVote")
    miss = {"id": 5, "voter": 7, "reason": 7, "params": 0, "sig": 6}
    hit = dict(miss, id=5 + 0xBADBEEF, sig=5)
    assert evaluate(b.predicate, miss) == 0
    assert evaluate(b.predicate, hit) == 1
    args = tuple(hit[n] for n in ballot.by_name["castVote"].param_names)
    dark = dark_successor(ballot, map_, b)
    assert covers(ballot, run_cover(ballot, [("castVote", args)]), dark)


def test_feeswap_element_predicate_is_solved_into_the_dark_arm(feeswap):
    calls = [("velocore_execute", ([5],))]
    map_, hits = bottleneck_in(feeswap, calls, "velocore_execute")
    (b,) = [b for b in hits if b.predicate is not None]
    assert b.constraint_text == "123 == tokens[0]"
    assert b.features["loop_guarded"]
    verdict = solve([b.predicate])
    assert isinstance(verdict, Sat)
    ((atom, value),) = verdict.model.items()
    assert (atom.param, atom.offset, value) == ("tokens", 0, 123)
    dark = dark_successor(feeswap, map_, b)
    assert covers(feeswap, run_cover(feeswap, [("velocore_execute", ([123],))]), dark)
