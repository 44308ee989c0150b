"""Concolic engine: symbolic expressions, SMT export, the shadow
interpreter and error handling in drive."""

import importlib

import pytest

import sctest.concolic
import sctest.evm
from sctest._kernels import run_frame
from sctest.concolic import (
    Binop,
    Const,
    DriveBudget,
    Input,
    Keccak,
    Sload,
    SnapshotCache,
    drive,
    evaluate,
    shadow_run,
    simplify,
    to_smt,
)
from sctest.concolic.shadow import _shadow_frame
from sctest.coverage import CoverageMap
from sctest.errors import SctestError
from sctest.evm import CodeImage, Transaction, make_world
from sctest.fuzzing import Corpus, seed_initial_target

X = Input("x")
X8 = Input("x", bits=8)
A = Input("a")


@pytest.mark.parametrize(
    "expr,param,bits",
    [
        (Binop("SHR", Const(3), X), "x", 256),
        (Binop("SHR", Const(7), X8), "x", 8),
        (Binop("SHR", Const(3), Binop("MUL", A, A)), "a", 256),
    ],
    ids=["shr3-uint256", "shr7-uint8", "shr3-square"],
)
def test_shr_of_single_term_simplifies(expr, param, bits):
    # these once recursed until RecursionError
    out = simplify(expr)
    assert out == expr
    for v in (0, 1, 7, 8, 255, 2**200 + 12345):
        env = {param: v & ((1 << bits) - 1)}
        assert evaluate(out, env) == evaluate(expr, env)


def test_shr_still_folds_disjoint_terms():
    hi = Binop("SHL", Const(8), X8)
    assert simplify(Binop("SHR", Const(8), Binop("OR", hi, Input("y", bits=8)))) == X8
    assert simplify(Binop("SHR", Const(8), X8)) == Const(0)


def test_smt_logic_is_qf_bv_without_functions():
    text = to_smt([Binop("EQ", Binop("ADD", X, Const(1)), Const(5))])
    assert text.splitlines()[0] == "(set-logic QF_BV)"
    assert "declare-fun" not in text


@pytest.mark.parametrize(
    "pred",
    [
        Binop("EQ", Keccak((X,), 32), Const(5)),
        Binop("EQ", Sload(X), Const(5)),
        Binop("EQ", Binop("EXP", X, Const(2)), Const(9)),
    ],
    ids=["keccak", "sload", "exp"],
)
def test_smt_logic_is_qf_ufbv_with_functions(pred):
    text = to_smt([pred])
    assert text.splitlines()[0] == "(set-logic QF_UFBV)"
    assert "(declare-fun " in text


# -- shadow interpreter ------------------------------------------------------

ACCT_A = 0x1001
ACCT_B = 0x1002


def _pool_case(pool):
    world, at = make_world(pool)
    prefix = [
        Transaction(function_call="mintDyad", args=(1, 100), source=ACCT_A,
                    destination=at),
        Transaction(function_call="redeemable", args=(1, 100), source=ACCT_A,
                    destination=at),
    ]
    tx = Transaction(function_call="deposit", args=(ACCT_A, 1, 10),
                     source=ACCT_B, destination=at)
    return world, prefix, tx


def test_snapshot_cache_is_the_evm_class():
    assert sctest.concolic.SnapshotCache is sctest.evm.SnapshotCache


def test_shadow_run_with_cache_matches_uncached(pool):
    world, prefix, tx = _pool_case(pool)
    plain = shadow_run(world, prefix, tx)
    cache = SnapshotCache()
    first = shadow_run(world, prefix, tx, cache=cache)
    again = shadow_run(world, prefix, tx, cache=cache)
    assert plain.constraints  # deposit branches on its symbolic arguments
    assert plain.storage  # the prefix wrote storage the shadow starts from
    for run in (first, again):
        assert run.trace == plain.trace
        assert run.constraints == plain.constraints
        assert run.storage == plain.storage
    assert (cache.hits, cache.misses) == (1, 1)


def test_shadow_run_with_empty_prefix_skips_the_cache(pool):
    world, _, tx = _pool_case(pool)
    cache = SnapshotCache()
    shadow_run(world, [], tx, cache=cache)
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def test_shadow_and_kernel_agree_on_selfdestruct():
    # PUSH1 0xAA, SELFDESTRUCT
    image = CodeImage.from_bytecode(bytes.fromhex("60aaff"))
    run = _shadow_frame(image, b"", None, {}, {}, 0xC0DE, 0x1001, 0, 1, 1, 10_000)
    trace: list = []
    kernel = run_frame(
        image.code, image.imm, image.nxt, image.is_jumpdest, len(image.code),
        b"", {}, {}, 0xC0DE, 0x1001, 0, 1, 1, 10_000, False, trace, [], [], [],
    )
    _, kind, data, gas_left = kernel
    assert run.halt == kind == "selfdestruct"
    assert run.return_data == data
    assert run.gas_used == 10_000 - gas_left
    assert list(run.trace) == trace


# -- error handling in drive -------------------------------------------------


def _drive_with_shadow_raising(monkeypatch, bundle, exc):
    def raising(*args, **kwargs):
        raise exc

    # the package re-exports the drive function under the module's name
    module = importlib.import_module("sctest.concolic.drive")
    monkeypatch.setattr(module, "shadow_run", raising)
    return drive(bundle, Corpus(), CoverageMap(), DriveBudget(iterations=2))


def test_drive_skips_a_shadow_run_that_raises_a_package_error(monkeypatch, pool):
    emitted = _drive_with_shadow_raising(monkeypatch, pool, SctestError("no"))
    # only the default seeds survive: no shadow run, so nothing to flip
    assert [tc.txs[0].function_call for tc in emitted] == [
        call.function for call in seed_initial_target(pool.resolved_abi).fuzz
    ]


def test_drive_propagates_an_engine_bug(monkeypatch, pool):
    with pytest.raises(RuntimeError):
        _drive_with_shadow_raising(monkeypatch, pool, RuntimeError("bug"))
