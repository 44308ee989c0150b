"""Symbolic expressions and SMT export: regression tests."""

import pytest

from sctest.concolic import (
    Binop,
    Const,
    Input,
    Keccak,
    Sload,
    evaluate,
    simplify,
    to_smt,
)

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
