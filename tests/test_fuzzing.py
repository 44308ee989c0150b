"""Fuzz-target DSL, mutation, campaign, corpus, and replay tests."""

import json
import random
from dataclasses import replace
from itertools import accumulate

import pytest

from sctest.bytecode.abi import AbiType, FunctionSig, encode_call
from sctest.bytecode.asm import Asm, dispatcher
from sctest.coverage import (
    PARTIALLY_COVERED,
    CoverageMap,
    extract_uncovered_functions,
    merge_result,
)
from sctest.evm.bundle import ContractBundle, load_bundle
from sctest.evm.engine import execute_sequence as engine_execute_sequence
from sctest.evm.types import DEFAULT_GAS, Transaction
from sctest.errors import SctestError, TypeMismatch
from sctest.evm.world import contract_under_test, deploy, make_world
from sctest.fuzzing import (
    ASSERT_FAILURE,
    PROPERTY_VIOLATION,
    BugReport,
    Campaign,
    CompileError,
    Corpus,
    EmptyAbi,
    FuzzTarget,
    detect_bugs,
    initial_candidate,
    minimize_corpus,
    mutate,
    mutate_value,
    mutation_plan,
    parse_target,
    render_target,
    replay,
    run_campaign,
    seed_initial_target,
)
from sctest.fuzzing import TestCase as FuzzCase
from sctest.fuzzing import campaign as campaign_mod
from sctest.fuzzing.target import FuzzCall

from conftest import BUNDLE_NAMES, FIXTURES

POOL_TARGET = """\
# exercise the deposit path
target pool
alias A = 0x0000000000000000000000000000000000001001

setup:
    call mintDyad(1, 100)
    call redeemable(1, 100) from A

fuzz:
    call deposit(A, 1, ?value:uint256=10) from A

order fixed
"""

TOY_ABI = [
    FunctionSig("f", ("uint8", "bool", "bytes", "uint256[]"), None, None,
                False, ("a", "b", "c", "d")),
    FunctionSig("g", ("address",), None, None, False, ("who",)),
]


def pool_abi():
    return load_bundle(FIXTURES / "pool").resolved_abi


def parse_pool(text: str):
    return parse_target(text, pool_abi())


def gate_bundle() -> ContractBundle:
    """One function, one guard: poke(x) hits INVALID when x > 10."""
    a = Asm()
    sig = ("uint256",)
    sel = FunctionSig("poke", sig).selector
    dispatcher(a, [(sel, "poke")], line=1)
    a.func("poke")
    a.op("JUMPDEST", 2)
    a.push(10, 3).push(4, 3).op("CALLDATALOAD", 3).op("GT", 3)
    a.jumpi("boom", 3)
    a.op("STOP", 4)
    a.label("boom")
    a.op("JUMPDEST", 3)
    a.op("INVALID", 3)
    a.end_func("poke")
    result = a.assemble()
    entry, body = result.functions["poke"]
    abi = [FunctionSig("poke", sig, entry, body, False, ("x",))]
    return ContractBundle("gate", result.bytecode, abi)


GATE_TARGET = """\
target gate
fuzz:
    call poke(?x:uint256=0)
order fixed
"""


# -- parsing ---------------------------------------------------------------


def test_parse_valid_pool_target():
    t = parse_pool(POOL_TARGET)
    assert isinstance(t, FuzzTarget)
    assert t.name == "pool"
    assert t.address_aliases == {"A": 0x1001}
    assert len(t.setup) == 2
    assert len(t.fuzz) == 1
    assert t.setup[0].function == "mintDyad"
    assert t.setup[0].args == (1, 100)
    assert t.setup[0].sender is None
    assert t.setup[1].sender == "A"
    fz = t.fuzz[0]
    assert fz.function == "deposit"
    assert fz.args == (0x1001, 1, 10)
    assert fz.mutable_params == ("value",)
    assert t.order_mode == "fixed"


def test_parse_unknown_function_is_e001():
    bad = POOL_TARGET.replace("call redeemable", "call reemable")
    errs = parse_pool(bad)
    assert isinstance(errs, list)
    assert [e.code for e in errs] == ["E001"]
    line = bad.splitlines().index("    call reemable(1, 100) from A") + 1
    assert errs[0].line == line
    assert "reemable" in errs[0].message


def test_parse_arity_mismatch_is_e002():
    bad = POOL_TARGET.replace(
        "call deposit(A, 1, ?value:uint256=10) from A", "call deposit(1, 2)"
    )
    errs = parse_pool(bad)
    assert [e.code for e in errs] == ["E002"]
    assert "deposit takes 3 args, got 2" in errs[0].message


def test_parse_type_mismatches_are_e003():
    doc = """\
target toy
fuzz:
    call f(true, true, 0xab, [1])
    call f(?a:uint16=1, true, 0xab, [1])
    call f(?b:uint8=1, true, 0xab, [1])
"""
    errs = parse_target(doc, TOY_ABI)
    assert [e.code for e in errs] == ["E003", "E003", "E003"]
    assert "not a uint8" in errs[0].message
    assert "marker says uint16" in errs[1].message
    assert "named 'a', marker says 'b'" in errs[2].message


def test_parse_unknown_alias_is_e004():
    doc = """\
target toy
fuzz:
    call g(bob)
    call g(0x0000000000000000000000000000000000001001) from carol
"""
    errs = parse_target(doc, TOY_ABI)
    assert [e.code for e in errs] == ["E004", "E004"]
    assert "bob" in errs[0].message and "carol" in errs[1].message


def test_parse_out_of_range_is_e005():
    doc = """\
target toy
fuzz:
    call f(256, true, 0x, [])
    call f(1, true, 0x, [1]) value 115792089237316195423570985008687907853269984665640564039457584007913129639936
"""
    errs = parse_target(doc, TOY_ABI)
    assert [e.code for e in errs] == ["E005", "E005"]
    assert "out of range for uint8" in errs[0].message


def test_parse_syntax_errors_are_e000():
    doc = """\
target toy
target again
setup:
    call f(?a:uint8=1, true, 0x, [])
order sideways
banana split
"""
    errs = parse_target(doc, TOY_ABI)
    codes = [e.code for e in errs]
    assert codes == ["E000"] * 4
    assert "duplicate target" in errs[0].message
    assert "mutable parameters only belong in fuzz" in errs[1].message
    assert "order must be fixed or shuffle" in errs[2].message
    assert "unknown directive" in errs[3].message


def test_parse_reports_every_error_sorted():
    doc = """\
target pool
fuzz:
    call reemable(1)
    call deposit(1, 2)
    call deposit(bob, 1, 2)
"""
    errs = parse_pool(doc)
    assert [(e.code, e.line) for e in errs] == [
        ("E001", 3),
        ("E002", 4),
        ("E004", 5),
    ]


def test_parse_missing_target_line():
    errs = parse_target("fuzz:\n    call g(0x01)\n", TOY_ABI)
    assert any(e.code == "E000" and "missing target" in e.message for e in errs)


def test_parse_literal_forms_and_call_options():
    doc = """\
target toy
alias who = 0xc0de

fuzz:
    call f(0xff, false, 0xdeadbeef, [1, 0x2, 3]) value 7 delay 3
    call g(who) from who
"""
    t = parse_target(doc, TOY_ABI)
    assert isinstance(t, FuzzTarget)
    c0, c1 = t.fuzz
    assert c0.args == (0xFF, False, bytes.fromhex("deadbeef"), (1, 2, 3))
    assert c0.value == 7 and c0.delay == 3
    assert c1.args == (0xC0DE,) and c1.sender == "who"


def test_compile_error_render():
    err = CompileError("E001", 4, 10, "unknown function reemable")
    assert err.render() == "E001 line 4 col 10: unknown function reemable"


def test_render_target_roundtrip():
    abi = pool_abi()
    t = parse_target(POOL_TARGET, abi)
    again = parse_target(render_target(t, abi), abi)
    assert again == t


# -- seed target -------------------------------------------------------------


def test_seed_initial_target_shape():
    abi = pool_abi()
    t = seed_initial_target(abi)
    assert t.order_mode == "shuffle"
    names = [c.function for c in t.fuzz]
    assert names == ["mintDyad", "redeemable", "deposit"]  # properties excluded
    for call, sig in zip(t.fuzz, [s for s in abi if not s.is_property]):
        assert call.mutable_params == sig.param_names
        assert call.args == tuple(
            tuple(p.default()) if p.kind == "array" else p.default()
            for p in sig.params
        )


def test_seed_initial_target_rejects_empty_abi():
    with pytest.raises(EmptyAbi):
        seed_initial_target([])
    props_only = [FunctionSig("prop_x", (), None, None, True)]
    with pytest.raises(EmptyAbi):
        seed_initial_target(props_only)


# -- mutation -----------------------------------------------------------------


def test_uint8_mutations_stay_in_domain_and_reach_boundaries():
    ty = AbiType.parse("uint8")
    rng = random.Random(7)
    seen = {mutate_value(5, ty, rng, ()) for _ in range(600)}
    assert all(0 <= v < 256 for v in seen)
    assert {0, 1, 255, 128, 4, 6} <= seen


def test_bool_address_bytes_array_mutations():
    rng = random.Random(11)
    assert mutate_value(True, AbiType.parse("bool"), rng, ()) is False
    pool = (0x1001, 0x1002, 0xC0DE)
    for _ in range(20):
        v = mutate_value(0x1001, AbiType.parse("address"), rng, pool)
        assert v in (0x1002, 0xC0DE)
    for _ in range(50):
        b = mutate_value(b"\x01\x02", AbiType.parse("bytes"), rng, ())
        assert isinstance(b, bytes) and len(b) in (1, 2, 3)
    for _ in range(50):
        arr = mutate_value((1, 2, 3), AbiType.parse("uint256[]"), rng, ())
        assert isinstance(arr, tuple) and len(arr) in (2, 3, 4)
        assert all(0 <= x < (1 << 256) for x in arr)


def test_mutation_only_touches_mutable_params():
    abi = pool_abi()
    t = parse_target(POOL_TARGET, abi)
    plan = mutation_plan(t, abi, (0x1001, 0x1002))
    rng = random.Random(3)
    cand = initial_candidate(t)
    for _ in range(10_000):
        cand = mutate(cand, plan, rng)
        assert cand.args[0][0] == 0x1001  # from: not mutable
        assert cand.args[0][1] == 1  # id: not mutable
        assert cand.order == (0,)


def test_mutation_is_deterministic():
    abi = pool_abi()
    t = parse_target(POOL_TARGET, abi)
    plan = mutation_plan(t, abi, (0x1001,))

    def run(seed):
        rng = random.Random(seed)
        cand = initial_candidate(t)
        return [
            (cand := mutate(cand, plan, rng)).args
            for _ in range(200)
        ]

    assert run(9) == run(9)
    assert run(9) != run(10)


def test_splice_swaps_whole_call_rows():
    abi = [
        FunctionSig("f", ("uint256",), None, None, False, ("x",)),
        FunctionSig("h", ("uint256",), None, None, False, ("y",)),
    ]
    t = FuzzTarget(
        "t",
        {},
        (),
        tuple(
            parse_target(
                "target t\nfuzz:\n    call f(1)\n    call h(2)\n", abi
            ).fuzz
        ),
        "fixed",
    )
    a = initial_candidate(t)
    b = a.__class__(((7,), (8,)), a.order)
    rng = random.Random(0)
    child = mutate(a, mutation_plan(t, abi), rng, other=b)
    assert child.args in (((1,), (8,)),)  # cut can only be 1
    assert child.order == a.order


def test_adjacent_swap_only_in_shuffle_mode():
    abi = [
        FunctionSig("f", ("uint256",), None, None, False, ("x",)),
        FunctionSig("h", ("uint256",), None, None, False, ("y",)),
    ]
    doc = "target t\nfuzz:\n    call f(1)\n    call h(2)\norder shuffle\n"
    t = parse_target(doc, abi)
    cand = initial_candidate(t)
    swapped = mutate(cand, mutation_plan(t, abi), random.Random(1))
    assert swapped.order == (1, 0) and swapped.args == cand.args

    fixed = parse_target(doc.replace("shuffle", "fixed"), abi)
    same = mutate(
        initial_candidate(fixed), mutation_plan(fixed, abi), random.Random(1)
    )
    assert same.order == (0, 1)  # nothing to do: no mutables, no shuffle


def test_list_valued_array_seed_mutates():
    call = FuzzCall("f", (7, True, bytearray(b"\x01"), [1, 2]), None, 0, 0,
                    ("a", "b", "c", "d"))
    assert call.args == (7, True, b"\x01", (1, 2))
    t = FuzzTarget("t", {}, (), (call,), "fixed")
    plan = mutation_plan(t, TOY_ABI)
    rng = random.Random(5)
    cand = initial_candidate(t)
    seen = {cand}
    for _ in range(50):
        cand = mutate(cand, plan, rng)
        seen.add(cand)  # candidates must hash
        assert isinstance(cand.args[0][3], tuple)
    assert len(seen) > 1


# -- test cases and corpus ----------------------------------------------------


def test_testcase_id_is_canonical():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    camp = Campaign(world, t, rng_seed=0)
    tc = FuzzCase(tuple(camp._setup_txs))
    assert tc.id == FuzzCase(tuple(camp._setup_txs)).id
    assert len(tc.id) == 32 and int(tc.id, 16) >= 0
    other = FuzzCase(tuple(camp._setup_txs[:1]))
    assert other.id != tc.id
    assert len(FuzzCase(()).id) == 32  # the empty case has one too


def _id_tx(**fields) -> Transaction:
    return Transaction(
        **{"function_call": "f", "args": (1,), "source": 0x1001,
           "destination": 0xC0DE, **fields}
    )


def _raw_tx(hex_data: str, **fields) -> Transaction:
    return _id_tx(function_call=None, args=None,
                  call_data=bytes.fromhex(hex_data), **fields)


@pytest.mark.parametrize(
    "one, other",
    [
        ((_raw_tx("deadbeef"),), (_raw_tx("12345678"),)),
        ((_id_tx(), _id_tx()), (_id_tx(), _id_tx(destination=0xB0B))),
        ((_id_tx(),), (_id_tx(gas=50_000),)),
        ((_id_tx(args=(True,)),), (_id_tx(args=(1,)),)),
        ((_id_tx(),), (_id_tx(value=1),)),
        ((_id_tx(),), (_id_tx(delay=1),)),
        ((_id_tx(),), (_id_tx(source=0x1002),)),
    ],
    ids=["call_data", "destination", "gas", "bool_vs_int", "value", "delay",
         "sender"],
)
def test_testcase_id_covers_every_field(one, other):
    assert FuzzCase(one).id != FuzzCase(other).id


@pytest.mark.parametrize(
    "arg",
    [1.5, 1.0, "7", None, [1.5], [True]],
    ids=["1.5", "1.0", "7", "None", "array_float", "array_bool"],
)
def test_an_arg_the_engine_refuses_is_refused_when_built(arg):
    # tx_doc wrote int(arg), so 1.5 and "7" took the ids of 1 and 7; an
    # array element was cut with int(x), so [1.5] and [True] ran as [1]
    match = f"argument 1 of f is a {type(arg).__name__}"
    with pytest.raises(TypeMismatch, match=match):
        _id_tx(args=(2, arg))
    with pytest.raises(TypeMismatch, match=match):
        _id_tx()._replace(args=(2, arg))


def test_testcase_id_implies_the_first_destination():
    # a case moved whole to another contract keeps its id: the id names
    # what the case does to its contract under test
    here = (_id_tx(), _id_tx(args=(2,)))
    there = tuple(tx._replace(destination=0xB0B) for tx in here)
    assert FuzzCase(here).id == FuzzCase(there).id
    assert FuzzCase(here).to_doc()["destination"] != FuzzCase(there).to_doc()[
        "destination"
    ]


def test_campaign_transactions_match_keyword_built_ones():
    # Campaign._tx builds Transactions positionally; delay and gas are
    # adjacent ints, so a field reorder would swap them without an error
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    doc = """\
target pinned
alias B = 0x0000000000000000000000000000000000001002
fuzz:
    call mintDyad(?id:uint256=1, ?amount:uint256=5) from B value 3 delay 7
"""
    camp = Campaign(world, parse_target(doc, bundle.resolved_abi), rng_seed=0)
    camp.run(1)
    (tx,) = camp.corpus.entries[0].txs
    assert tx == Transaction(
        function_call="mintDyad",
        args=(1, 5),
        delay=7,
        source=0x1002,
        destination=at,
        value=3,
    )
    assert tx.gas == DEFAULT_GAS


def test_testcase_id_is_cached_and_stable():
    bundle = load_bundle(FIXTURES / "pool")
    world, _ = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    _, corpus, _ = run_campaign(world, t, {"execs": 50}, rng_seed=3)
    assert len(corpus) >= 1
    for tc in corpus.entries:
        first = tc.id
        assert "id" in vars(tc)  # computed once, kept on the instance
        assert tc.id is first
        assert first == FuzzCase(tc.txs).id
        assert tc == FuzzCase(tc.txs) and hash(tc) == hash(FuzzCase(tc.txs))


def test_corpus_save_load_roundtrip(tmp_path):
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    _, corpus, _ = run_campaign(world, t, {"execs": 300}, rng_seed=42)
    assert len(corpus) >= 1
    # raw calldata, a gas limit and a second destination round-trip too
    raw = Transaction(None, call_data=bytes.fromhex("deadbeef"), source=0x1001,
                      destination=at, gas=50_000)
    call = Transaction("f", (1, b"\x01", (2, 3), True), source=0x1002,
                       destination=0xB0B, value=5, delay=7)
    corpus.add(FuzzCase((raw, call)), {"new_instructions": 1, "new_paths": 1})
    corpus.add(FuzzCase((call, raw)), {"new_instructions": 2, "new_paths": 0})
    corpus.save(tmp_path / "corpus")
    files = sorted((tmp_path / "corpus").glob("*.json"))
    assert len(files) == len(corpus)
    for i, (f, tc) in enumerate(zip(files, corpus.entries)):
        assert f.name == f"{i:04d}_{tc.id}.json"
    loaded = Corpus.load(tmp_path / "corpus", destination=0xF00)
    assert [e.id for e in loaded.entries] == [e.id for e in corpus.entries]
    assert [e.txs for e in loaded.entries] == [e.txs for e in corpus.entries]
    assert loaded.deltas == corpus.deltas
    # a file that records no destination falls back to load's argument
    # for every transaction that does not name its own
    doc = json.loads(files[-2].read_text())
    del doc["destination"]
    files[-2].write_text(json.dumps(doc))
    legacy = Corpus.load(tmp_path / "corpus", destination=0xF00).entries[-2]
    assert [tx.destination for tx in legacy.txs] == [0xF00, 0xB0B]


def test_corpus_save_replaces_an_earlier_save_and_load_orders_by_index(tmp_path):
    def corpus_of(*values):
        c = Corpus()
        for v in values:
            c.add(FuzzCase((Transaction("f", (v,), source=0x1001, destination=0xA),)),
                  {"new_instructions": v, "new_paths": 0})
        return c

    d = tmp_path / "corpus"
    corpus_of(0, 1, 2).save(d)
    (d / "notes.json").write_text("not an entry")
    corpus_of(9).save(d)
    loaded = Corpus.load(d, destination=0xF00)
    assert [tc.txs[0].args for tc in loaded.entries] == [(9,)]
    assert (d / "notes.json").read_text() == "not an entry"
    # from index 10,000 on, names no longer sort as their indices do
    corpus_of(1, 2).save(d)
    first, second = sorted(d.glob("0*.json"))
    first.rename(d / first.name.replace("0000_", "1000_"))
    second.rename(d / second.name.replace("0001_", "10000_"))
    loaded = Corpus.load(d, destination=0xF00)
    assert [tc.txs[0].args for tc in loaded.entries] == [(1,), (2,)]
    assert loaded.deltas == corpus_of(1, 2).deltas


# -- campaign -----------------------------------------------------------------


def test_gate_campaign_finds_assert_failure():
    bundle = gate_bundle()
    world, at = make_world(bundle)
    t = parse_target(GATE_TARGET, bundle.resolved_abi)
    cov, corpus, report = run_campaign(world, t, {"execs": 1000}, rng_seed=42)
    kinds = {f.kind for f in report.findings}
    assert kinds == {ASSERT_FAILURE}
    f = report.findings[0]
    assert f.function == "poke"
    assert cov.covered(at, f.pc)
    assert any(tc.id == f.testcase_id for tc in corpus.entries)


def test_campaign_is_deterministic():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)

    def run():
        cov, corpus, report = run_campaign(world, t, {"execs": 500}, rng_seed=7)
        return (
            cov.to_json(),
            [e.id for e in corpus.entries],
            corpus.deltas,
            report.to_json(),
        )

    assert run() == run()


class RescoringCampaign(Campaign):
    """The scheduler before weights were cached: rescore every entry on
    every pick."""

    def _pick(self):
        weights = [self._score(b) for b in self._blocks]
        r = self.rng.random() * sum(weights)
        acc = 0.0
        for cand, w in zip(self._cands, weights):
            acc += w
            if r < acc:
                return cand
        return self._cands[-1]


def test_cached_weights_pick_as_rescoring_does():
    bundle = load_bundle(FIXTURES / "bytekey")
    world, _ = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    runs = []
    for cls in (Campaign, RescoringCampaign):
        camp = cls(world, t, rng_seed=42)
        for _ in range(2):
            camp.run(1000)
        runs.append(
            (
                camp.coverage.to_json(),
                [e.id for e in camp.corpus.entries],
                camp.report.to_json(),
            )
        )
    assert len(runs[0][1]) > 2  # coverage grew, so the weights were rescored
    assert runs[0] == runs[1]


def test_replaced_or_edited_coverage_refreshes_weights(monkeypatch):
    bundle = load_bundle(FIXTURES / "bytekey")
    world, at = make_world(bundle)
    camp = Campaign(world, seed_initial_target(bundle.resolved_abi), rng_seed=42)
    camp.run(300)
    used = []
    pick = camp._pick

    def spy():
        cand = pick()
        used.append(list(camp._cum_weights))
        return cand

    monkeypatch.setattr(camp, "_pick", spy)
    camp.run(1)
    stale = used[-1]

    camp.coverage = CoverageMap()
    fresh = list(accumulate(camp._score(b) for b in camp._blocks))
    camp.run(1)
    assert used[-1] == fresh != stale

    camp.coverage.bits[at] = (1 << len(bundle.bytecode)) - 1
    entries = len(camp._blocks)
    camp.run(1)
    assert used[-1] == list(range(1, entries + 1))  # every score is 1


def _count_sequences(monkeypatch) -> list:
    """Record the length of every sequence the campaign module executes."""
    calls = []
    execute = campaign_mod.execute_sequence

    def counting(world, txs):
        calls.append(len(txs))
        return execute(world, txs)

    monkeypatch.setattr(campaign_mod, "execute_sequence", counting)
    return calls


def _record_mutated(monkeypatch, camps: list) -> list:
    """Record (candidate, execution index, inserted entries so far) for
    every candidate mutate hands the newest campaign in `camps`."""
    seen = []
    real = campaign_mod.mutate

    def recording(cand, plan, rng, other=None):
        out = real(cand, plan, rng, other)
        camp = camps[-1]
        seen.append((out, camp.executions, len(camp._cands)))
        return out

    monkeypatch.setattr(campaign_mod, "mutate", recording)
    return seen


def _rows(cand) -> list:
    return [(i, cand.args[i]) for i in cand.order]


def _stored_prefix(cand, inserted) -> int:
    """Calls of `cand` an inserted candidate already ran, in order."""
    rows, best = _rows(cand), 0
    for other in inserted:
        k = 0
        for a, b in zip(rows, _rows(other)):
            if a != b:
                break
            k += 1
        best = max(best, k)
    return best


def _bits_of(camp, cand) -> dict:
    """The instruction bits `cand` covers, found by running all its calls
    from the campaign's snapshot through the engine directly."""
    txs = []
    for i in cand.order:
        call = camp.target.fuzz[i]
        sender = camp.default_sender
        if call.sender:
            sender = camp.target.address_aliases[call.sender]
        txs.append(
            Transaction(
                call.function,
                args=cand.args[i],
                delay=call.delay,
                source=sender,
                destination=camp.destination,
                value=call.value,
            )
        )
    world, results = engine_execute_sequence(camp.snapshot, txs)
    cov = CoverageMap()
    for res in results:
        merge_result(cov, res, world)
    return cov.bits


def _expected_work(camp, seen, resets=()) -> tuple[int, int]:
    """(calls run, repeats skipped) for campaign `camp`, whose map was
    replaced by an empty map before each execution index in `resets`.
    A candidate in the model's repeat table runs nothing; the table
    empties at each reset and drops its older half when it holds the
    module's cap.  Any other candidate runs only the calls past its
    longest prefix an inserted candidate already ran (the first
    candidate meets an empty store)."""
    cap = campaign_mod._RAN_CAP
    first = initial_candidate(camp.target)
    ran: dict = {}
    calls = repeats = 0
    for cand, index, inserted in [(first, 0, 0), *seen]:
        if index in resets:
            ran.clear()
        if cand in ran:
            repeats += 1
            continue
        if len(ran) >= cap:
            ran = dict.fromkeys(list(ran)[len(ran) - cap // 2 :])
        ran[cand] = None
        calls += len(cand.order) - _stored_prefix(cand, camp._cands[:inserted])
    return calls, repeats


class _Forgetful(dict):
    """A repeat table whose lookup always misses."""

    def __contains__(self, key):
        return False


class NoMemoCampaign(Campaign):
    """The campaign without its repeat table: every candidate mutate
    hands back runs, also one that already ran."""

    def __post_init__(self):
        super().__post_init__()
        self._ran = _Forgetful()


@pytest.mark.parametrize("name", ["bytekey", "cubic"])
def test_skipped_repeats_leave_outputs_unchanged(name, monkeypatch):
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    calls = _count_sequences(monkeypatch)
    camps: list = []
    seen = _record_mutated(monkeypatch, camps)
    runs = []
    # repeats are campaign-wide, so the chunk size does not change them
    for cls, chunk in ((Campaign, 1000), (Campaign, 1), (NoMemoCampaign, 1000)):
        camp = cls(world, t, rng_seed=42)
        camps.append(camp)
        del calls[:], seen[:]
        stats = [camp.run(chunk) for _ in range(2000 // chunk)]
        executions = sum(s.executions for s in stats)
        repeats = sum(s.repeats for s in stats)
        assert executions == camp.executions == 2000
        if cls is Campaign:
            # the setup ran before counting began
            assert (sum(calls), repeats) == _expected_work(camp, seen)
        runs.append(
            (
                camp.coverage.to_json(),
                [e.id for e in camp.corpus.entries],
                camp.report.to_json(),
                repeats,
            )
        )
    (*chunked, skipped), (*single, single_skipped), (*ref, none_skipped) = runs
    assert skipped == single_skipped > 0 and none_skipped == 0
    assert chunked == single == ref


class _Unkept(dict):
    """A trie node whose lookup always misses."""

    def get(self, key, default=None):
        return default


class FullRerunCampaign(Campaign):
    """The campaign before prefixes were kept: the store's lookup always
    misses, so every candidate runs all its calls from the snapshot."""

    def __post_init__(self):
        super().__post_init__()
        self._trie = _Unkept()


@pytest.mark.parametrize("seed", [42, 77])
@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_resumed_prefixes_leave_outputs_unchanged(name, seed, monkeypatch):
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    calls = _count_sequences(monkeypatch)
    camps: list = []
    seen = _record_mutated(monkeypatch, camps)
    outputs, txs_run = [], []
    for cls in (Campaign, FullRerunCampaign):
        camp = cls(world, t, rng_seed=seed)
        camps.append(camp)
        del calls[:], seen[:]
        out = []
        for _ in range(2):
            camp.run(150)
            out.append(
                (
                    camp.coverage.to_json(),
                    [e.id for e in camp.corpus.entries],
                    camp.report.to_json(),
                )
            )
            # a fresh map must still see the stored prefixes' coverage
            camp.coverage = CoverageMap()
        outputs.append(out)
        txs_run.append(sum(calls))
        if cls is Campaign:
            expected = _expected_work(camp, seen, resets={150})
            assert sum(calls) == expected[0]
    assert outputs[0] == outputs[1]
    resumed, full = txs_run
    assert resumed <= full
    if name in ("feeswap", "pool"):  # multi-call targets with state
        assert resumed < full


def _clear_some(coverage: CoverageMap) -> None:
    """Edit a map in place: drop the lower half of every address's bits
    and every path."""
    for addr, bits in coverage.bits.items():
        coverage.bits[addr] = bits & ~((1 << (bits.bit_length() // 2)) - 1)
    coverage.path_set.clear()


@pytest.mark.parametrize("seed", [42, 77])
@pytest.mark.parametrize("name", BUNDLE_NAMES)
def test_repeats_skipped_across_runs_leave_outputs_unchanged(name, seed):
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    outputs, repeats = [], []
    for cls in (Campaign, NoMemoCampaign):
        camp = cls(world, t, rng_seed=seed)
        out, skipped = [], 0
        for k in range(4):
            stats = camp.run(300)
            skipped += stats.repeats
            out.append(
                (
                    camp.coverage.to_json(),
                    [e.id for e in camp.corpus.entries],
                    camp.report.to_json(),
                    replace(stats, repeats=0),
                )
            )
            if k == 1:
                camp.coverage = CoverageMap()
            elif k == 2:
                _clear_some(camp.coverage)
        outputs.append(out)
        repeats.append(skipped)
    assert outputs[0] == outputs[1]
    # both edits made the next run cover instructions again
    assert all(o[3].new_instructions > 0 for o in outputs[0][2:])
    assert repeats[0] > 0 == repeats[1]


def test_cross_run_repeats_run_nothing(monkeypatch):
    # pool: a multi-call target whose property is probed after every run
    bundle = load_bundle(FIXTURES / "pool")
    world, _ = make_world(bundle)
    camp = Campaign(world, seed_initial_target(bundle.resolved_abi), rng_seed=42)
    camp.run(300)
    ran = list(camp._ran)
    assert len(ran) > len(camp._cands)  # some that ran were not inserted
    pick = random.Random(1)
    monkeypatch.setattr(
        campaign_mod, "mutate", lambda cand, plan, rng, other=None: pick.choice(ran)
    )
    calls = _count_sequences(monkeypatch)
    probes = []
    execute_tx = campaign_mod.execute_tx

    def probing(world, tx):
        probes.append(tx)
        return execute_tx(world, tx)

    monkeypatch.setattr(campaign_mod, "execute_tx", probing)
    covered = camp.coverage.to_json()
    stats = camp.run(200)
    assert (stats.executions, stats.repeats, stats.new_paths) == (200, 200, 0)
    assert calls == [] and probes == []
    assert camp.coverage.to_json() == covered


# ROADMAP's hand-written pool target: it reaches prop_balanced in the
# first 1000 executions
POOL_DEFUSE_TARGET = """\
target pool_defuse
alias A = 0x0000000000000000000000000000000000001001
alias B = 0x0000000000000000000000000000000000001002
fuzz:
    call mintDyad(?id:uint256=1, ?amount:uint256=5) from A
    call redeemable(?id:uint256=1, ?value:uint256=5) from A
    call deposit(A, ?id:uint256=1, ?value:uint256=5) from B
order fixed
"""


class ProbeEveryRunCampaign(Campaign):
    """The campaign before probes were kept: every candidate that runs
    probes the world it ends on."""

    def _probe(self, world, held):
        return campaign_mod._probe_properties(
            world, self._props, self.default_sender, self.destination
        )


@pytest.mark.parametrize("seed", [42, 77])
def test_kept_probes_leave_outputs_unchanged(seed, monkeypatch):
    bundle = load_bundle(FIXTURES / "pool")
    world, _ = make_world(bundle)
    t = parse_target(POOL_DEFUSE_TARGET, bundle.resolved_abi)
    probed = []
    probe = campaign_mod._probe_properties

    def counting(world, *args):
        probed.append(world)
        return probe(world, *args)

    monkeypatch.setattr(campaign_mod, "_probe_properties", counting)
    outputs, probes = [], []
    for cls in (Campaign, ProbeEveryRunCampaign):
        del probed[:]
        camp = cls(world, t, rng_seed=seed)
        out = []
        for _ in range(2):
            camp.run(1000)
            out.append(
                (
                    camp.coverage.to_json(),
                    [e.id for e in camp.corpus.entries],
                    camp.report.to_json(),
                )
            )
        outputs.append(out)
        probes.append(len(probed))
    assert outputs[0] == outputs[1]
    assert (PROPERTY_VIOLATION, "prop_balanced") in {
        (f.kind, f.function) for f in camp.report.findings
    }
    kept, every = probes
    assert kept < every


def test_only_lost_coverage_reruns_repeats(monkeypatch):
    bundle = load_bundle(FIXTURES / "feeswap")
    world, at = make_world(bundle)
    camp = Campaign(world, seed_initial_target(bundle.resolved_abi), rng_seed=42)
    camp.run(300)
    cand = next(iter(camp._ran))
    monkeypatch.setattr(
        campaign_mod, "mutate", lambda c, plan, rng, other=None: cand
    )
    # a map that grew, in place or as a replacing copy, keeps the table
    camp.coverage.path_set.add(12345)
    camp.coverage = camp.coverage.copy()
    assert camp.run(2).repeats == 2
    covered = camp.coverage.to_json()
    # dropping bits in place empties it, so the candidate runs once more
    bits = _bits_of(camp, cand)[at]
    camp.coverage.bits[at] &= ~bits
    stats = camp.run(2)
    assert (stats.repeats, stats.new_instructions) == (1, bits.bit_count())
    assert camp.coverage.to_json() == covered
    # and so does dropping a path
    camp.coverage.path_set.discard(12345)
    assert camp.run(2).repeats == 1


@pytest.mark.parametrize("name", ["bytekey", "pool"])
def test_capped_repeat_table_leaves_outputs_unchanged(name, monkeypatch):
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    calls = _count_sequences(monkeypatch)
    camps: list = []
    seen = _record_mutated(monkeypatch, camps)
    outputs, repeats = [], []
    for cls, cap in ((Campaign, None), (Campaign, 8), (NoMemoCampaign, 8)):
        if cap is not None:
            monkeypatch.setattr(campaign_mod, "_RAN_CAP", cap)
        camp = cls(world, t, rng_seed=42)
        camps.append(camp)
        del calls[:], seen[:]
        stats = [camp.run(500) for _ in range(2)]
        if cls is Campaign:
            assert (sum(calls), sum(s.repeats for s in stats)) == _expected_work(
                camp, seen
            )
            if cap is not None:
                assert cap // 2 <= len(camp._ran) <= cap
        outputs.append(
            (
                camp.coverage.to_json(),
                [e.id for e in camp.corpus.entries],
                camp.report.to_json(),
                [replace(s, repeats=0) for s in stats],
            )
        )
        repeats.append(sum(s.repeats for s in stats))
    assert outputs[0] == outputs[1] == outputs[2]
    uncapped, capped, none_skipped = repeats
    assert uncapped > capped > 0 == none_skipped


def test_replaced_coverage_reruns_repeats(monkeypatch):
    bundle = gate_bundle()
    world, at = make_world(bundle)
    doc = "target gate\nfuzz:\n    call poke(5)\norder fixed\n"
    camp = Campaign(world, parse_target(doc, bundle.resolved_abi), rng_seed=1)
    calls = _count_sequences(monkeypatch)
    first = camp.run(10)  # nothing is mutable: one candidate, nine repeats
    assert (first.executions, first.repeats) == (10, 9)
    covered = camp.coverage.to_json()
    assert camp.run(5).repeats == 5  # across runs too
    assert calls == [1]

    camp.coverage = CoverageMap()
    again = camp.run(10)
    assert (again.executions, again.repeats) == (10, 9)
    assert again.new_instructions == first.new_instructions > 0
    assert camp.coverage.to_json() == covered
    assert calls == [1]  # the rerun resumes its whole stored sequence


def test_setup_only_target_runs_one_empty_candidate():
    bundle = gate_bundle()
    world, at = make_world(bundle)
    doc = "target gate\nsetup:\n    call poke(5)\norder fixed\n"
    camp = Campaign(world, parse_target(doc, bundle.resolved_abi), rng_seed=1)
    stats = camp.run(5)
    assert (stats.executions, stats.repeats) == (5, 4)
    assert [tc.txs for tc in camp.corpus.entries] == [tuple(camp._setup_txs)]


def test_campaign_seeds_differ():
    bundle = load_bundle(FIXTURES / "ballot")
    world, at = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    cov1, _, _ = run_campaign(world, t, {"execs": 300}, rng_seed=1)
    cov2, _, _ = run_campaign(world, t, {"execs": 300}, rng_seed=2)
    # same plateau either way, but the paths explored may differ
    assert cov1.bits.keys() == cov2.bits.keys()


def test_ballot_guard_resists_random_fuzzing():
    bundle = load_bundle(FIXTURES / "ballot")
    world, at = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    cov, corpus, report = run_campaign(world, t, {"execs": 2000}, rng_seed=42)
    assert report.findings == []
    gaps = extract_uncovered_functions(bundle, cov)
    assert [g.status for g in gaps if g.sig.startswith("castVote(")] == [
        PARTIALLY_COVERED
    ]


def test_pool_campaign_reports_property_violation():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    _, corpus, report = run_campaign(world, t, {"execs": 200}, rng_seed=42)
    assert [f.kind for f in report.findings] == [PROPERTY_VIOLATION]
    assert report.findings[0].function == "prop_balanced"
    assert "zero word" in report.findings[0].message


def test_property_holds_without_deposit():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    doc = """\
target pool
fuzz:
    call mintDyad(1, ?amount:uint256=5)
order fixed
"""
    t = parse_target(doc, bundle.resolved_abi)
    _, _, report = run_campaign(world, t, {"execs": 200}, rng_seed=42)
    assert report.findings == []


def test_chunked_run_matches_single_run():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    one = Campaign(world, t, rng_seed=5)
    one.run(400)
    two = Campaign(world, t, rng_seed=5)
    for _ in range(4):
        two.run(100)
    assert one.coverage.to_json() == two.coverage.to_json()
    assert [e.id for e in one.corpus.entries] == [
        e.id for e in two.corpus.entries
    ]


# -- bug detection -----------------------------------------------------------


def test_detect_bugs_rules():
    bundle = gate_bundle()
    world, at = make_world(bundle)
    from sctest.evm.engine import execute_sequence
    from sctest.evm.types import Transaction

    txs = [
        Transaction(function_call="poke", args=(11,), source=0x1001, destination=at)
    ]
    world_after, results = execute_sequence(world, txs)
    found = detect_bugs(results, world_after, bundle.resolved_abi, txs=txs)
    assert len(found) == 1
    kind, pc, fn, msg = found[0]
    assert kind == ASSERT_FAILURE and fn == "poke"
    assert f"0x{pc:x}" in msg

    txs_ok = [
        Transaction(function_call="poke", args=(10,), source=0x1001, destination=at)
    ]
    world_after, results = execute_sequence(world, txs_ok)
    assert detect_bugs(results, world_after, bundle.resolved_abi, txs=txs_ok) == []


def test_detect_bugs_property_probe():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    from sctest.evm.engine import execute_sequence
    from sctest.evm.types import Transaction

    txs = [
        Transaction(function_call="mintDyad", args=(1, 50), source=0x1001, destination=at),
        Transaction(function_call="redeemable", args=(1, 50), source=0x1001, destination=at),
        Transaction(function_call="deposit", args=(0x1001, 1, 50), source=0x1001, destination=at),
    ]
    world_after, results = execute_sequence(world, txs)
    found = detect_bugs(results, world_after, bundle.resolved_abi, txs=txs)
    assert [(k, fn) for k, _, fn, _ in found] == [
        (PROPERTY_VIOLATION, "prop_balanced")
    ]


# -- replay and minimization ---------------------------------------------------


def test_replay_reproduces_campaign():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    cov, corpus, report = run_campaign(world, t, {"execs": 500}, rng_seed=42)
    cov2, report2 = replay(world, corpus)
    assert cov2.bits == cov.bits
    assert {(f.kind, f.pc, f.function) for f in report2.findings} == {
        (f.kind, f.pc, f.function) for f in report.findings
    }


def test_replay_marks_stale_entries_nonfatally():
    pool = load_bundle(FIXTURES / "pool")
    world, at = make_world(pool)
    t = parse_target(POOL_TARGET, pool.resolved_abi)
    _, corpus, _ = run_campaign(world, t, {"execs": 100}, rng_seed=1)

    gate = gate_bundle()
    gate_world, _ = make_world(gate)
    cov, report = replay(gate_world, corpus)
    assert cov.bits == {} and report.findings == []
    assert all(d.get("stale") for d in corpus.deltas)

    # raw calldata runs whatever function name it carries
    raw = Transaction("notInTheAbi", call_data=encode_call(gate.abi[0], (11,)),
                      source=0x1001, destination=at)
    raw_corpus = Corpus([FuzzCase((raw,))], [{}])
    _, report = replay(gate_world, raw_corpus)
    assert raw_corpus.deltas == [{}]
    assert [(f.kind, f.function) for f in report.findings] == [(ASSERT_FAILURE, "poke")]


def test_replay_needs_a_single_contract_under_test():
    pool = load_bundle(FIXTURES / "pool")
    world, at = make_world(pool)
    tc = FuzzCase(
        (
            Transaction("mintDyad", (0, 7), source=0x1001, destination=at),
            Transaction("redeemable", (0, 7), source=0x1002, destination=at),
            Transaction("deposit", (0x1002, 0, 7), source=0x1001, destination=at),
        )
    )
    corpus = Corpus([tc], [{}])
    _, report = replay(world, corpus)
    assert [(f.kind, f.function) for f in report.findings] == [
        (PROPERTY_VIOLATION, "prop_balanced")
    ]
    assert contract_under_test(world) == at
    two = deploy(world, load_bundle(FIXTURES / "ballot"), 0xB0B)
    with pytest.raises(SctestError, match="found 2"):
        replay(two, corpus)
    with pytest.raises(SctestError, match="found 2"):
        minimize_corpus(two, corpus, report)
    with pytest.raises(SctestError, match="found 2"):
        Campaign(two, seed_initial_target(pool.resolved_abi), rng_seed=0)
    after, results = engine_execute_sequence(two, list(tc.txs))
    with pytest.raises(SctestError, match="found 2"):
        detect_bugs(results, after, pool.resolved_abi, list(tc.txs))
    # an explicit destination still probes that contract
    found = detect_bugs(results, after, pool.resolved_abi, list(tc.txs), at)
    assert [(k, fn) for k, _, fn, _ in found] == [(PROPERTY_VIOLATION, "prop_balanced")]
    assert corpus.deltas == [{}]  # nothing was marked stale


def test_minimize_drops_duplicate_entries():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    camp = Campaign(world, t, rng_seed=0)
    camp.run(50)
    doubled = Corpus()
    for e, d in zip(camp.corpus.entries, camp.corpus.deltas):
        doubled.add(e, dict(d))
        doubled.add(e, dict(d))
    slim = minimize_corpus(world, doubled, BugReport())
    assert len(slim) < len(doubled)
    full_bits = replay(world, doubled)[0].bits
    assert replay(world, slim)[0].bits == full_bits


def reference_minimize(world, corpus: Corpus, report: BugReport) -> Corpus:
    """Minimisation before it replayed each entry once: a full corpus
    replay for the baseline and one for every greedy trial."""

    def signature(c):
        cov, rep = replay(world, c)
        return (
            tuple(sorted(cov.bits.items())),
            frozenset((f.kind, f.pc, f.function) for f in rep.findings),
        )

    protected = {f.testcase_id for f in report.findings}
    entries, deltas = list(corpus.entries), list(corpus.deltas)
    baseline = signature(corpus)
    keep = [True] * len(entries)
    for i in range(len(entries) - 1, -1, -1):
        if entries[i].id in protected:
            continue
        trial = Corpus(
            [e for j, e in enumerate(entries) if keep[j] and j != i],
            [d for j, d in enumerate(deltas) if keep[j] and j != i],
        )
        if signature(trial) == baseline:
            keep[i] = False
    out = Corpus()
    for j, (e, d) in enumerate(zip(entries, deltas)):
        if keep[j]:
            out.add(e, d)
    return out


def _mixed_corpus(name: str, target_doc: str | None, execs: int):
    """The unminimised corpora of three seeds' campaigns, which overlap,
    with every entry doubled and an entry naming a missing function or a
    missing contract (stale) before each pair; the report holds every
    campaign's findings."""
    bundle = load_bundle(FIXTURES / name)
    world, at = make_world(bundle)
    t = (
        parse_target(target_doc, bundle.resolved_abi)
        if target_doc
        else seed_initial_target(bundle.resolved_abi)
    )
    sender = next(iter(world.accounts))
    stale = [
        FuzzCase((Transaction("noSuchFunction", (), source=sender, destination=at),)),
        FuzzCase((Transaction("deposit", (1,), source=sender, destination=at + 1),)),
    ]
    mixed, report = Corpus(), BugReport()
    for seed in (1, 2, 42):
        camp = Campaign(world, t, rng_seed=seed)
        camp.run(execs)
        report.findings += camp.report.findings
        for e, d in zip(camp.corpus.entries, camp.corpus.deltas):
            mixed.add(stale[len(mixed) % 2], {"new_instructions": 0, "new_paths": 0})
            mixed.add(e, dict(d))
            mixed.add(e, dict(d))
    return world, mixed, report


def _copy(corpus: Corpus) -> Corpus:
    return Corpus(list(corpus.entries), [dict(d) for d in corpus.deltas])


@pytest.mark.parametrize(
    "name, target_doc, execs, finds",
    [
        ("pool", POOL_TARGET, 300, True),
        ("bytekey", None, 6000, True),
        ("lottery", None, 2000, False),
    ],
    ids=["pool", "bytekey", "lottery"],
)
def test_minimize_matches_full_replay_reference(
    name, target_doc, execs, finds, monkeypatch
):
    world, mixed, report = _mixed_corpus(name, target_doc, execs)
    assert bool(report.findings) == finds  # finding-protected entries
    assert len(mixed) >= 6

    want_in = _copy(mixed)
    want = reference_minimize(world, want_in, report)
    calls = _count_sequences(monkeypatch)
    got_in = _copy(mixed)
    got = minimize_corpus(world, got_in, report)

    assert [e.id for e in got.entries] == [e.id for e in want.entries]
    assert got.deltas == want.deltas
    assert got_in.deltas == want_in.deltas  # the same entries marked stale
    stale = sum(bool(d.get("stale")) for d in got_in.deltas)
    assert stale == len(mixed) // 3
    assert len(calls) == len(mixed) - stale  # every live entry runs once
    assert len(got) < len(mixed)


def test_minimized_corpus_entries_are_essential():
    bundle = load_bundle(FIXTURES / "pool")
    world, at = make_world(bundle)
    t = parse_target(POOL_TARGET, bundle.resolved_abi)
    cov, corpus, report = run_campaign(world, t, {"execs": 500}, rng_seed=42)
    protected = {f.testcase_id for f in report.findings}
    base_cov, base_rep = replay(world, corpus)
    base = (
        base_cov.bits,
        {(f.kind, f.pc, f.function) for f in base_rep.findings},
    )
    for i, entry in enumerate(corpus.entries):
        if entry.id in protected:
            continue
        trial = Corpus(
            [e for j, e in enumerate(corpus.entries) if j != i],
            [d for j, d in enumerate(corpus.deltas) if j != i],
        )
        cov_i, rep_i = replay(world, trial)
        got = (
            cov_i.bits,
            {(f.kind, f.pc, f.function) for f in rep_i.findings},
        )
        assert got != base, f"entry {i} is redundant"


# -- validator soundness --------------------------------------------------------


@pytest.mark.parametrize(
    "name", ["ballot", "bytekey", "pool", "feeswap", "cubic", "lottery"]
)
def test_seed_target_executes_cleanly(name):
    bundle = load_bundle(FIXTURES / name)
    world, _ = make_world(bundle)
    t = seed_initial_target(bundle.resolved_abi)
    camp = Campaign(world, t, rng_seed=13)
    camp.run(50)  # raising ArityMismatch/TypeMismatch here would fail the test
    assert camp.executions == 50
