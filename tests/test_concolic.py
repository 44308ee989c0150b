"""Concolic engine: symbolic expressions, the solver against brute force,
the shadow interpreter, drive's constraint weakening, error handling in
drive and the fixture asserts drive reaches."""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sctest.concolic
import sctest.evm
from sctest._kernels import keccak256, run_frame
from sctest._kernels.interp_py import MEM_LIMIT
from sctest.bytecode.abi import FunctionSig, encode_call
from sctest.bytecode.cfg import build_cfg
from sctest.bytecode.opcodes import BINOP, CALL_CLASS, OPCODES, by_name
from sctest.concolic import (
    Binop,
    Const,
    DriveBudget,
    Input,
    Keccak,
    Sat,
    SnapshotCache,
    Unknown,
    Unsat,
    Unop,
    drive,
    evaluate,
    evaluate_atoms,
    format_expr,
    inputs_of,
    shadow_run,
    simplify,
    solve,
)
from sctest.concolic.drive import pin_all_but_one, resize_dynamic, rewrite_hashes
from sctest.concolic.symexpr import (
    UNOPS,
    PathConstraint,
    _shr_over_disjoint,
    assign_atoms,
    atom_value,
    conjuncts,
)
from sctest.concolic.shadow import ArgLayout, _shadow_frame
from sctest.coverage import CoverageMap, merge_result
from sctest.errors import InsufficientBalance, MalformedCalldata, SctestError
from sctest.evm import CodeImage, Transaction, execute_sequence, execute_tx, make_world
from sctest.fuzzing import (
    ASSERT_FAILURE,
    Corpus,
    replay,
    run_campaign,
    seed_initial_target,
)
from sctest.fuzzing import TestCase as FuzzCase

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


def test_shr_does_not_fold_terms_that_share_one_bit():
    # x's bit 7 and b's bit 0 land on the same bit, so a carry out of it
    # reaches bit 8: 0x80 + (1 << 7) >> 8 is 1, not (0x80 >> 8) + (1 >> 1)
    inner = Binop("ADD", X8, Binop("SHL", Const(7), Input("b", bits=4)))
    assert _shr_over_disjoint(8, inner) is None
    expr = Binop("SHR", Const(8), inner)
    env = {"x": 0x80, "b": 1}
    assert evaluate(simplify(expr), env) == evaluate(expr, env) == 1


# -- properties of simplify and format_expr ----------------------------------

# narrow atoms keep the bit-range rules of simplify (disjoint shifted
# terms, upper bounds) in play; env values stay inside each atom's width
SMALL_ATOMS = (Input("a", bits=1), Input("b", bits=4), Input("c", bits=8))
WORDS = st.one_of(
    st.integers(0, 16),
    st.sampled_from((31, 32, 224, 248, 255, 256, 2**255, 2**256 - 1)),
    st.integers(0, 2**256 - 1),
)


@st.composite
def packed_shifts(draw):
    """SHR(k, atoms shifted apart and added or ORed): the byte-assembled
    calldata shape simplify's SHR rule takes apart, with k often at a
    term's lowest or highest bit."""
    acc, edges = None, []
    for atom in draw(st.lists(st.sampled_from(SMALL_ATOMS), min_size=1, max_size=3)):
        s = draw(st.integers(0, 24))
        edges += [s, s + atom.bits - 1, s + atom.bits]
        t = Binop("SHL", Const(s), atom) if s else atom
        acc = t if acc is None else Binop(draw(st.sampled_from(("ADD", "OR"))), acc, t)
    k = draw(st.one_of(st.sampled_from(edges), st.integers(0, 32)))
    return Binop("SHR", Const(k), acc)


ARITH = st.recursive(
    st.one_of(st.builds(Const, WORDS), st.sampled_from(SMALL_ATOMS), packed_shifts()),
    lambda kids: st.one_of(
        st.builds(Binop, st.sampled_from(sorted(BINOP)), kids, kids),
        st.builds(Unop, st.sampled_from(UNOPS), kids),
    ),
    max_leaves=10,
)
ENVS = st.fixed_dictionaries({a.param: st.integers(0, 2**a.bits - 1) for a in SMALL_ATOMS})


@settings(max_examples=300, deadline=None)
@given(ARITH, ENVS)
def test_simplify_keeps_the_value(expr, env):
    assert evaluate(simplify(expr), env) == evaluate(expr, env)


ANY_TREE = st.recursive(
    st.one_of(
        st.builds(Const, WORDS),
        st.sampled_from(SMALL_ATOMS),
        st.builds(Input, st.just("arr"), st.sampled_from((0, 32, 64)), st.just("elem")),
        st.builds(Input, st.just("data"), st.integers(0, 40), st.just("byte"), st.just(8)),
        st.builds(Input, st.just("data"), st.just(0), st.just("length")),
    ),
    lambda kids: st.one_of(
        st.builds(Binop, st.sampled_from(sorted(BINOP)), kids, kids),
        st.builds(Unop, st.sampled_from(UNOPS), kids),
        st.builds(Keccak, st.lists(kids, min_size=1, max_size=3).map(tuple), st.just(64)),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(ANY_TREE)
def test_format_expr_renders_every_tree(expr):
    text = format_expr(expr)
    assert isinstance(text, str) and text


def test_array_elements_render_with_their_index(feeswap):
    sig = feeswap.by_name["velocore_execute"]
    args = ((123, 5),)
    layout, calldata = ArgLayout(sig, args), encode_call(sig, args)
    atoms = [layout.word_at(p, calldata) for p in (36, 68, 100)]
    # element 0 once rendered as the bare name, like a static argument
    assert [format_expr(a) for a in atoms] == ["tokens.length", "tokens[0]", "tokens[1]"]
    assert [atom_value(a, {"tokens": args[0]}) for a in atoms] == [2, 123, 5]
    fee = feeswap.by_name["set_fee1e9"]
    static = ArgLayout(fee, (7,)).word_at(4, encode_call(fee, (7,)))
    assert format_expr(static) == fee.param_names[0]


# -- solve against brute force over the atom's whole domain -----------------


def _check_against_brute_force(preds, atom):
    """Wherever solve answers, it is right: a Sat model holds under
    evaluate, and Unsat comes only when no value of the atom's domain
    satisfies every predicate.  Unknown is always allowed."""
    domain = range(1 << atom.bits)

    def holds(v):
        return all(evaluate(p, {atom.param: v}) for p in preds)

    verdict = solve(preds)
    if isinstance(verdict, Sat):
        if atom in verdict.model:
            v = verdict.model[atom]
            assert v in domain and holds(v), (v, [format_expr(p) for p in preds])
        else:  # every predicate simplified to a nonzero constant
            assert all(holds(v) for v in domain)
    elif isinstance(verdict, Unsat):
        witness = next((v for v in domain if holds(v)), None)
        assert witness is None, (witness, [format_expr(p) for p in preds])
    else:
        assert isinstance(verdict, Unknown)
    return verdict


def _conjunctions_over(atom):
    tree = st.recursive(
        st.one_of(st.just(atom), st.builds(Const, st.integers(0, 300))),
        lambda kids: st.builds(Binop, st.sampled_from(sorted(BINOP)), kids, kids),
        max_leaves=4,
    )
    compare = st.builds(Binop, st.sampled_from(("LT", "GT", "EQ")), tree, tree)
    pred = st.one_of(tree, compare, st.builds(Unop, st.just("ISZERO"), compare))
    return st.tuples(st.just(atom), st.lists(pred, min_size=1, max_size=3))


NARROW_CONJUNCTIONS = st.one_of(
    [_conjunctions_over(Input("x", bits=bits)) for bits in range(1, 9)]
)


@settings(max_examples=150, deadline=None)
@given(NARROW_CONJUNCTIONS)
def test_solve_agrees_with_brute_force_on_narrow_atoms(case):
    atom, preds = case
    _check_against_brute_force(preds, atom)


X16 = Input("x", bits=16)


@pytest.mark.parametrize(
    "preds,want",
    [
        ([Binop("EQ", Binop("ADD", X16, Const(7)), Const(0x1234))], Sat),
        ([Binop("GT", X16, Const(1000)), Binop("LT", X16, Const(1002))], Sat),
        # the only in-range value is the domain's top
        ([Unop("ISZERO", Binop("LT", X16, Const(0xFFFF)))], Sat),
        (
            [
                Binop("EQ", Binop("AND", X16, Const(0xFF00)), Const(0x1200)),
                Binop("EQ", Binop("MOD", X16, Const(7)), Const(3)),
            ],
            Sat,
        ),
        # an equality's solution on an interval's edge: x < 1002, x >= 1000
        ([Binop("EQ", X16, Const(1001)), Binop("LT", X16, Const(1002))], Sat),
        ([Binop("EQ", X16, Const(1000)), Unop("ISZERO", Binop("LT", X16, Const(1000)))], Sat),
        # x * x == 2^32 needs x = 65536, one past the 16-bit domain
        ([Binop("EQ", Binop("MUL", X16, X16), Const(1 << 32))], Unsat),
    ],
)
def test_solve_agrees_with_brute_force_on_16_bit_atoms(preds, want):
    assert isinstance(_check_against_brute_force(preds, X16), want)


@pytest.mark.parametrize(
    "c,want",
    [
        ((2**85 + 3) ** 3, Sat),
        # not a cube over the integers; x*x*x == c does have a solution
        # mod 2^256 (c is odd), which root extraction does not look for
        ((1 << 255) + 12345, Unknown),
    ],
)
def test_solve_takes_the_cube_root_of_a_wide_constant(c, want):
    # the cube root of a 256-bit constant is near 2^85: a root search
    # that steps by one does not end
    pred = Binop("EQ", Binop("MUL", Binop("MUL", X, X), X), Const(c))
    result = solve([pred])
    assert isinstance(result, want)
    if isinstance(result, Sat):
        assert evaluate_atoms(pred, result.model) == 1


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


def test_shadow_run_leaves_the_world_it_ran_from_alone(pool):
    # the world after a prefix of undelayed transactions shares the input
    # world's BlockCtx, so a delayed shadowed call must not move it
    world, prefix, tx = _pool_case(pool)
    block = (world.block.timestamp, world.block.number)
    for pre in (prefix, []):
        run = shadow_run(world, pre, tx._replace(delay=5))
        assert run.trace
        assert (world.block.timestamp, world.block.number) == block


def test_delayed_shadow_runs_leave_the_cached_world_alone(pool):
    # the shadow starts from the cached world itself, so a delayed call
    # must move neither its block nor its storage
    world, prefix, tx = _pool_case(pool)
    cache = SnapshotCache()
    cached = cache.get_or_build(world, prefix)
    block = (cached.block.timestamp, cached.block.number)
    storage = cached.storage_view()
    for _ in range(2):
        run = shadow_run(world, prefix, tx._replace(delay=5), cache=cache)
        assert run.trace
        assert (cached.block.timestamp, cached.block.number) == block
        assert cached.storage_view() == storage
    assert (cache.hits, cache.misses) == (2, 1)


def test_shadow_run_refuses_a_value_the_sender_cannot_pay(pool):
    # the shadow starts its transaction as the engine does, so neither
    # runs a call whose sender holds less than the value it sends
    world, at = make_world(pool)
    tx = Transaction(function_call="mintDyad", args=(0, 0), source=ACCT_A,
                     destination=at, value=world.balance(ACCT_A) + 1)
    with pytest.raises(InsufficientBalance):
        execute_tx(world, tx)
    with pytest.raises(InsufficientBalance):
        shadow_run(world, [], tx)


def test_shadow_run_with_empty_prefix_skips_the_cache(pool):
    world, _, tx = _pool_case(pool)
    cache = SnapshotCache()
    shadow_run(world, [], tx, cache=cache)
    assert (cache.hits, cache.misses, cache.trie(world)) == (0, 0, {})


def test_shadow_run_runs_raw_calldata_as_the_engine_does(pool):
    # raw calldata wins over the args beside it, and its label need not
    # name an ABI function; the shadow sees the bytes the engine runs
    world, at = make_world(pool)
    mint = pool.by_name["mintDyad"]
    storages = []
    for tx in (
        Transaction("mintDyad", (1, 5), call_data=encode_call(mint, (2, 9))),
        Transaction("notInAbi", call_data=encode_call(mint, (2, 9))),
        Transaction("notInAbi", call_data=bytes.fromhex("deadbeef")),
    ):
        tx = tx._replace(source=ACCT_A, destination=at)
        after, res = execute_tx(world, tx)
        run = shadow_run(world, [], tx)
        assert run.halt.upper() == res.halt
        assert ((at, run.trace),) == res.trace
        assert run.storage == after.storage.get(at, {})
        assert not run.constraints  # raw bytes carry no Input atoms
        storages.append(run.storage)
    assert set(storages[0].values()) == {9}  # mintDyad(2, 9), not (1, 5)
    short = Transaction("notInAbi", call_data=b"\x01", source=ACCT_A, destination=at)
    with pytest.raises(MalformedCalldata):
        shadow_run(world, [], short)


def test_shadow_and_kernel_agree_on_selfdestruct():
    # PUSH1 0xAA, SELFDESTRUCT
    image = CodeImage.from_bytecode(bytes.fromhex("60aaff"))
    run = _shadow_frame(image, b"", None, {}, {}, 0xC0DE, 0x1001, 0, 1, 1, 10_000)
    trace: list = []
    kernel = run_frame(
        image, b"", {}, {}, 0xC0DE, 0x1001, 0, 1, 1, 10_000, False, trace, [],
    )
    _, kind, data, gas_left = kernel
    assert run.halt == kind == "selfdestruct"
    assert run.return_data == data
    assert run.gas_used == 10_000 - gas_left
    assert list(run.trace) == trace


# -- kernel/shadow differential ----------------------------------------------

# every opcode that runs without pausing the frame (PUSH is its own item),
# and those of them that compute, read or write without leaving the
# program's straight line (no stack shuffles, jumps or halts)
STEP_OPS = sorted(
    code for code, o in OPCODES.items() if code not in CALL_CLASS and not o.immediate_len
)
APPLY_OPS = [
    c for c in STEP_OPS
    if OPCODES[c].kind not in ("halt", "ctrl") and not 0x80 <= c <= 0x9F
]
DIFF_SIG = FunctionSig("f", ("uint256", "uint8[]", "bytes"), param_names=("a", "xs", "data"))
SELF, CALLER = 0xC0DE, 0x1001

# small words, so operands collide and offsets land on the memory,
# calldata (DIFF_SIG's head and tail words) and storage a program
# touches; edge words; sometimes any word
DIFF_WORDS = st.one_of(
    st.integers(0, 3),
    st.sampled_from((4, 31, 32, 36, 68, 100, 132, 255, 256, 2**255, 2**256 - 1)),
    st.integers(0, 2**256 - 1),
)


# item kinds, an apply four times as often as the others
KINDS = st.sampled_from(
    ("apply", "apply", "apply", "apply", "op", "push", "jump", "dest", "mem")
)
MEM_STORES = st.sampled_from((by_name("MSTORE").code, by_name("MSTORE8").code))
PICK = [None] + [st.integers(0, n - 1) for n in range(1, len(STEP_OPS) + 1)]  # index < n


@st.composite
def programs(draw):
    """Program items over a few opcodes and operand words drawn per
    program (swarm testing), so each opcode meets equal, zero and edge
    operands.  Items: apply (one of those opcodes on operands it
    pushes), op (any opcode on whatever the stack holds), push, jump,
    dest (a JUMPDEST) and mem (an MSTORE or MSTORE8 and then an MLOAD at
    one offset, two applies, so what memory holds is read back)."""
    ops = draw(st.lists(st.sampled_from(APPLY_OPS), min_size=1, max_size=4, unique=True))
    words = draw(st.lists(DIFF_WORDS, min_size=1, max_size=3))

    def word():
        return words[draw(PICK[len(words)])]

    items = []
    for _ in range(draw(st.integers(8, 24))):
        kind = draw(KINDS)
        if kind == "apply":
            code = ops[draw(PICK[len(ops)])]
            items.append((kind, code, [word() for _ in range(OPCODES[code].pops)]))
        elif kind == "op":
            items.append((kind, STEP_OPS[draw(PICK[len(STEP_OPS)])]))
        elif kind == "push":
            items.append((kind, word()))
        elif kind == "jump":
            items.append((kind, draw(PICK[8]), word()))
        elif kind == "mem":
            off = draw(st.integers(0, 64))
            items.append(("apply", draw(MEM_STORES), [off, word()]))
            items.append(("apply", by_name("MLOAD").code, [off]))
        else:
            items.append((kind,))
    return items


def _push(v: int) -> bytes:
    n = max(1, (v.bit_length() + 7) // 8)
    return bytes([0x5F + n]) + v.to_bytes(n, "big")


def _encode(item, dests: list[int], slot: int) -> bytes:
    kind = item[0]
    if kind == "apply":  # the first operand ends on top
        code = item[1]
        out = b"".join(_push(v) for v in reversed(item[2])) + bytes([code])
        if OPCODES[code].pushes == 1:  # record the result in storage
            out += b"\x80" + _push(slot) + b"\x55"
        return out
    if kind == "op":  # runs on whatever the stack holds
        return bytes([item[1]])
    if kind == "push":
        return _push(item[1])
    if kind == "jump":  # JUMPI to a JUMPDEST, or to offset 6 or 7 (rarely one)
        k = item[1]
        dest = dests[k % len(dests)] if dests and k < 6 else k
        return _push(item[2]) + b"\x61" + dest.to_bytes(2, "big") + b"\x57"
    return b"\x5b"


# stores the top four stack words in slots 0x100.. at the end
SINK = b"".join(_push(0x100 + i) + b"\x55" for i in range(4))


def _assemble(items) -> bytes:
    """Bytecode for program items.  An apply item stores the word it
    computes in a slot of its own (0x200 + its index), and the program
    ends by storing its top stack words, so a word the two interpreters
    disagree on shows in the storage they are compared on."""
    # an item's size does not depend on its jump target
    dests, at = [], 0
    for i, item in enumerate(items):
        if item[0] == "dest":
            dests.append(at)
        at += len(_encode(item, [0], 0x200 + i))
    return b"".join(_encode(item, dests, 0x200 + i) for i, item in enumerate(items)) + SINK


CALLS = st.one_of(
    st.tuples(
        st.integers(0, 80).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
        st.none(),
    ),
    st.tuples(
        st.integers(0, 2**256 - 1),
        st.lists(st.integers(0, 255), max_size=3).map(tuple),
        st.binary(max_size=40),
    ).map(lambda args: (encode_call(DIFF_SIG, args), ArgLayout(DIFF_SIG, args))),
)


def _check_agree(items, call, storage, gas, value):
    image = CodeImage.from_bytecode(_assemble(items))
    calldata, layout = call
    balances = {SELF: 7, CALLER: 1000}
    run = _shadow_frame(
        image, calldata, layout, dict(storage), dict(balances),
        SELF, CALLER, value, 1, 1, gas,
    )
    kernel_storage, trace, sha = dict(storage), [], []
    kernel = run_frame(
        image, calldata, kernel_storage, dict(balances), SELF, CALLER, value, 1, 1,
        gas, False, trace, sha,
    )
    assert kernel[0] == "halt"  # no pausing opcode was generated
    _, kind, data, gas_left = kernel
    assert run.halt == kind
    assert run.return_data == data
    assert run.gas_used == gas - gas_left
    assert list(run.trace) == trace
    assert run.storage == kernel_storage
    assert list(run.sha_preimages) == sha
    return run


@settings(max_examples=250, deadline=None)
@given(
    programs(),
    CALLS,
    st.dictionaries(st.integers(0, 8), st.integers(1, 2**256 - 1), max_size=3),
    st.one_of(st.integers(2000, 20000), st.integers(0, 12)),
    st.integers(0, 5),
)
def test_shadow_and_kernel_agree_on_generated_programs(items, call, storage, gas, value):
    _check_agree(items, call, storage, gas, value)


ISZERO, POP, CALLDATALOAD, ADD, MUL, MSTORE, MSTORE8, MLOAD, SHA3, DUP1 = (
    by_name(n).code
    for n in (
        "ISZERO", "POP", "CALLDATALOAD", "ADD", "MUL", "MSTORE", "MSTORE8", "MLOAD",
        "SHA3", "DUP1",
    )
)
CREATE, CALL, STATICCALL = (by_name(n).code for n in ("CREATE", "CALL", "STATICCALL"))
NOT, JUMP, RETURN, REVERT = (by_name(n).code for n in ("NOT", "JUMP", "RETURN", "REVERT"))
LOG0, LOG1, LOG4 = (by_name(n).code for n in ("LOG0", "LOG1", "LOG4"))
ABI_ARGS = (7, (1, 2), b"xyz")
ABI_CALL = (encode_call(DIFF_SIG, ABI_ARGS), ArgLayout(DIFF_SIG, ABI_ARGS))
NO_CALL = (b"", None)
# three words under what a program computes, so SINK finds four words
BASE = [("push", w) for w in (5, 6, 7)]
# 1022 words, then a JUMPI not taken: the next run starts at depth 1022
AT_1022 = [("push", 0)] * 1022 + [("jump", 7, 0)]
# a word with a distinct byte at each position, so a read-back at the
# wrong offset or length stores a different word
WORD = int.from_bytes(bytes(range(1, 33)), "big")
# a sentinel on BASE, then a LOG over written memory: SINK stores the
# sentinel first only if the LOG popped all its operands and no more
LOGGED = [*BASE, ("push", 0x55), ("apply", MSTORE, [0, WORD])]


@pytest.mark.parametrize(
    "items,call,halt",
    [
        ([("op", ISZERO)], NO_CALL, "invalid"),
        ([("push", 0), ("op", ISZERO), ("op", POP), ("op", ISZERO)], NO_CALL, "invalid"),
        # the last word of the calldata is shorter than 32 bytes
        ([("apply", CALLDATALOAD, [0]), ("apply", CALLDATALOAD, [3])],
         (bytes(range(1, 6)), None), "invalid"),
        ([("apply", CALLDATALOAD, [len(ABI_CALL[0]) - 31])], ABI_CALL, "invalid"),
        # the fourth ADD finds one word, in the middle of the program's run
        ([*BASE, ("push", 1)] + [("op", ADD)] * 4 + [("push", 2)], NO_CALL, "invalid"),
        # a PUSH or DUP on a full stack inside a run
        ([("push", 0)] * 1024 + [("push", 1), ("push", 2)], NO_CALL, "invalid"),
        ([("push", 0)] * 1024 + [("op", DUP1), ("push", 2)], NO_CALL, "invalid"),
        # a run that rises to exactly 1024 words, and one that would pass it
        (AT_1022 + [("push", 1), ("push", 2), ("op", POP), ("op", POP)], NO_CALL, "stop"),
        (AT_1022 + [("push", 1), ("push", 2), ("push", 3)], NO_CALL, "invalid"),
        # the memory cap halts an MSTORE with more of its run still to go
        ([*BASE, ("apply", MSTORE, [MEM_LIMIT, 1]), ("push", 1)], NO_CALL, "out_of_gas"),
        # a taken JUMPI to a JUMPDEST in the middle of a straight-line run
        ([*BASE, ("push", 9), ("jump", 0, 1), ("push", 8), ("dest",), ("push", 4)],
         NO_CALL, "stop"),
        # a call or create short of its operands halts before it would pause
        ([("push", 0), ("op", CALL)], NO_CALL, "invalid"),
        ([("push", 0), ("op", CREATE)], NO_CALL, "invalid"),
        ([("push", 0), ("op", STATICCALL)], NO_CALL, "invalid"),
        # memory read back: the loaded word is stored in its item's slot
        ([*BASE, ("apply", MSTORE, [64, WORD]), ("apply", MLOAD, [64])], NO_CALL, "stop"),
        ([*BASE, ("apply", MSTORE8, [3, 0xAB]), ("apply", MLOAD, [0])], NO_CALL, "stop"),
        ([*BASE, ("apply", MSTORE, [0, WORD]), ("apply", MLOAD, [16])], NO_CALL, "stop"),
        # a LOG pops its offset, size and topics and leaves the rest
        ([*LOGGED, ("apply", LOG0, [3, 40])], NO_CALL, "stop"),
        ([*LOGGED, ("apply", LOG4, [3, 40, 1, 2, 3, 4])], NO_CALL, "stop"),
        ([*BASE, ("apply", LOG1, [MEM_LIMIT, 1, 9]), ("push", 1)], NO_CALL, "out_of_gas"),
        # a LOG1 on two words halts before the words SINK stores are pushed
        ([("push", 0), ("push", 0), ("op", LOG1), *BASE, ("push", 1)], NO_CALL, "invalid"),
    ],
    ids=[
        "iszero-empty", "iszero-emptied", "calldataload-short", "calldataload-short-abi",
        "underflow-mid-run", "push-at-1024", "dup-at-1024", "run-up-to-1024",
        "run-past-1024", "mstore-past-mem-limit-mid-run", "jump-into-a-run",
        "call-short-stack", "create-short-stack", "staticcall-short-stack",
        "mstore-mload", "mstore8-mload", "mload-unaligned",
        "log0-memory", "log4-memory", "log-past-mem-limit-mid-run", "log1-short-stack",
    ],
)
def test_shadow_and_kernel_agree_on_edge_programs(items, call, halt):
    assert _check_agree(items, call, {}, 20000, 0).halt == halt


def _gas_sweep(items) -> list:
    """The agreed run at every gas budget from 0 to one past what the
    program uses, in budget order."""
    used = _check_agree(items, NO_CALL, {}, 20000, 0).gas_used
    return [_check_agree(items, NO_CALL, {}, gas, 0) for gas in range(used + 2)]


def test_shadow_and_kernel_agree_when_gas_runs_out_anywhere_in_a_run():
    # one run from offset 0 to the end of the code
    runs = _gas_sweep([*BASE, ("push", 1), ("push", 2), ("op", ADD), ("push", 3), ("op", MUL)])
    assert runs[-1].halt == runs[-2].halt == "stop"
    starved = [r for r in runs if r.halt == "out_of_gas"]
    assert len(starved) == len(runs) - 2
    # gas ran out before each instruction in turn
    assert {len(r.trace) for r in starved} == set(range(len(runs[-1].trace)))


def test_shadow_and_kernel_agree_when_gas_runs_out_on_sha3_words():
    items = [*BASE, ("apply", MSTORE, [0, 7]), ("apply", SHA3, [0, 64])]
    instrs = build_cfg(_assemble(items)).instrs
    before, sha_at = next((k, i.offset) for k, i in enumerate(instrs) if i.code == SHA3)
    runs = _gas_sweep(items)
    assert runs[-1].halt == "stop"
    stuck = [r for r in runs if r.halt == "out_of_gas" and len(r.trace) == before]
    # 30 budgets short of SHA3's static gas, then 12 short of its 2 words
    assert len(stuck) == 30 + 12
    assert all(sha_at not in r.trace for r in stuck)


def test_shadow_and_kernel_agree_when_gas_runs_out_stepping():
    # the run needs a word it never has, so the kernel steps it throughout
    runs = _gas_sweep([*BASE, ("push", 1)] + [("op", ADD)] * 4)
    assert runs[-1].halt == "invalid"
    assert {len(r.trace) for r in runs if r.halt == "out_of_gas"} == set(
        range(len(runs[-1].trace))
    )


def _shadow_and_kernel(code: bytes, call=NO_CALL, gas=20000):
    """The shadow's run of code and the kernel's (its result and trace),
    from the same inputs."""
    image = CodeImage.from_bytecode(code)
    calldata, layout = call
    balances = {SELF: 7, CALLER: 1000}
    run = _shadow_frame(
        image, calldata, layout, {}, dict(balances), SELF, CALLER, 0, 1, 1, gas
    )
    trace: list[int] = []
    kernel = run_frame(
        image, calldata, {}, dict(balances), SELF, CALLER, 0, 1, 1,
        gas, False, trace, [],
    )
    return run, kernel, trace


# WORD stored at 0, then its bytes 3..42 (the last 11 past the word) returned
_RETURNED = WORD.to_bytes(32, "big")[3:] + bytes(11)


@pytest.mark.parametrize(
    "code,halt,data",
    [
        (_push(WORD) + _push(0) + bytes([MSTORE]) + _push(40) + _push(3)
         + bytes([RETURN]), "return", _RETURNED),
        (_push(WORD) + _push(0) + bytes([MSTORE]) + _push(40) + _push(3)
         + bytes([REVERT]), "revert", _RETURNED),
        # offset 0 holds the PUSH, not a JUMPDEST
        (_push(0) + bytes([JUMP]), "invalid", b""),
        (_push(2**256 - 1) + bytes([JUMP]), "invalid", b""),
    ],
    ids=["return-memory", "revert-memory", "jump-to-a-push", "jump-past-the-code"],
)
def test_shadow_halts_as_the_kernel_does(code, halt, data):
    run, kernel, trace = _shadow_and_kernel(code)
    assert kernel[:3] == ("halt", halt, data)
    assert (run.halt, run.return_data) == (halt, data)
    assert run.gas_used == 20000 - kernel[3]
    assert list(run.trace) == trace


def test_shadow_stops_at_a_call_where_the_kernel_pauses():
    run, kernel, trace = _shadow_and_kernel(_push(0) * 7 + bytes([CALL]))
    assert kernel[:2] == ("call", "call")
    assert run.halt == "external_call"
    assert run.gas_used == 20000 - kernel[5] == 521
    assert list(run.trace) == trace == [0, 2, 4, 6, 8, 10, 12, 14]


def test_a_branch_on_not_of_an_argument_records_its_complement():
    # CALLDATALOAD 4, NOT, then a JUMPI on it at offset 6 (taken: a is 7)
    run, kernel, trace = _shadow_and_kernel(_branch_on("60043519").code, ABI_CALL)
    assert kernel[:2] == ("halt", "stop")
    assert run.halt == "stop" and run.gas_used == 20000 - kernel[3]
    assert list(run.trace) == trace
    assert run.constraints == (PathConstraint(Unop("NOT", A), 6, True),)
    assert format_expr(run.constraints[0].predicate) == "~a"


# -- the atom map -------------------------------------------------------------

FLAGS_SIG = FunctionSig("g", ("bool", "address", "uint8"), param_names=("b", "who", "n"))
ATOM_ARGS = {
    DIFF_SIG: st.tuples(
        st.integers(0, 2**256 - 1),
        st.lists(st.integers(0, 255), max_size=3).map(tuple),
        st.binary(max_size=40),
    ),
    FLAGS_SIG: st.tuples(st.booleans(), st.integers(0, 2**160 - 1), st.integers(0, 255)),
}


def _layout_atoms(sig, args) -> list:
    """Every atom ArgLayout names in some calldata window of the call."""
    layout, calldata = ArgLayout(sig, args), encode_call(sig, args)
    atoms: dict = {}
    for p in range(4, len(calldata)):
        e = layout.word_at(p, calldata)
        if e is not None:
            atoms.update(dict.fromkeys(inputs_of(e)))
    return list(atoms)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_assign_atoms_writes_back_the_word_atom_value_reads(data):
    sig = data.draw(st.sampled_from((DIFF_SIG, FLAGS_SIG)))
    args = data.draw(ATOM_ARGS[sig])
    env = dict(zip(sig.param_names, args))
    kept = dict(env)
    model = {}
    atoms = _layout_atoms(sig, args)
    for a in atoms:
        w = model[a] = data.draw(st.integers(0, (1 << a.bits) - 1))
        got = assign_atoms(env, {a: w})
        if a.kind == "length":
            assert got == env
            continue
        assert atom_value(a, got) == w
        assert type(got[a.param]) is type(env[a.param])
        # every other atom, the length included, reads as before
        assert all(atom_value(b, got) == atom_value(b, env) for b in atoms if b != a)
        assert {k: v for k, v in got.items() if k != a.param} == {
            k: v for k, v in env.items() if k != a.param
        }
        # still a canonical argument of its ABI type
        values = tuple(got[n] for n in sig.param_names)
        assert Transaction(sig.name, values).args is values
        encode_call(sig, values)
    assert env == kept
    got = assign_atoms(env, model)
    assert all(atom_value(a, got) == w for a, w in model.items() if a.kind != "length")


# -- the slot record ----------------------------------------------------------


def _branch_on(code: str) -> CodeImage:
    """code (hex), then a JUMPI on the word it leaves on top to a final
    JUMPDEST; the JUMPI sits at len(code) + 2."""
    n = len(code) // 2
    tail = bytes([0x60, n + 4, 0x57, 0x00, 0x5B, 0x00])
    return CodeImage.from_bytecode(bytes.fromhex(code) + tail)


@pytest.mark.parametrize(
    "code,params,slots",
    [
        ("600554600052600051", (), {5}),  # SLOAD 5, MSTORE at 0, MLOAD at 0
        ("6005546006549050", (), {6}),  # SLOAD 5, SLOAD 6, SWAP1, POP
        ("60055460065401", (), {5, 6}),  # SLOAD 5 + SLOAD 6
        ("6005546000526020600020", (), {5}),  # SLOAD 5, MSTORE at 0, SHA3 of it
        ("600554600955600954", (), {5}),  # SLOAD 5 stored at 9, then SLOAD 9
        ("6001600555600554", (), set()),  # SLOAD 5 after the call wrote 1 there
        ("600435", ("a",), set()),  # CALLDATALOAD 4
        # a + SLOAD 5, stored at 9, then SLOAD 9
        ("60043560055401600955600954", ("a",), {5}),
        # a + SLOAD 5, MSTORE at 0, MSTORE8 at 5, MLOAD at 0
        ("600435600554016000526001600553600051", (), set()),
        # a + SLOAD 5, MSTORE at 0, MSTORE 0 at 16, MLOAD at 0
        ("600435600554016000526000601052600051", (), set()),
        # CALLDATACOPY of a to 0, MLOAD at 0
        ("60206004600037600051", ("a",), set()),
        # a + SLOAD 5, MSTORE at 0, SHA3 of it
        ("600435600554016000526020600020", ("a",), {5}),
    ],
    ids=[
        "mload", "swap", "add", "sha3", "sstore", "overwritten", "calldata",
        "sstore_sum", "mstore8_over_sum", "mstore_over_sum", "calldatacopy",
        "sha3_of_sum",
    ],
)
def test_slot_record_names_the_slots_a_condition_read(code, params, slots):
    calldata, layout = ABI_CALL
    run = _shadow_frame(
        _branch_on(code), calldata, layout, {5: 3, 6: 4, 9: 1}, {},
        SELF, CALLER, 0, 1, 1, 100_000,
    )
    at = len(code) // 2 + 2
    assert run.halt == "stop"
    assert run.reads.get(at, frozenset()) == slots
    # the parameters of the constraint recorded at the branch
    assert tuple(
        i.param for c in run.constraints if c.branch_offset == at
        for i in inputs_of(c.predicate)
    ) == params


def test_sha3_of_a_symbolic_word_is_a_keccak_over_its_shadow():
    # a + SLOAD 5 (3 in storage), MSTORE at 0, SHA3 of those 32 bytes
    calldata, layout = ABI_CALL
    run = _shadow_frame(
        _branch_on("600435600554016000526020600020"), calldata, layout, {5: 3}, {},
        SELF, CALLER, 0, 1, 1, 100_000,
    )
    (c,) = run.constraints
    assert c.predicate == Keccak((simplify(Binop("ADD", Const(3), Input("a"))),), 32)
    assert run.reads == {c.branch_offset: frozenset({5})}


def test_slot_record_sits_beside_a_symbolic_constraint():
    # CALLDATALOAD 4 (the argument a) + SLOAD 7
    calldata, layout = ABI_CALL
    run = _shadow_frame(
        _branch_on("60043560075401"), calldata, layout, {7: 1}, {},
        SELF, CALLER, 0, 1, 1, 100_000,
    )
    (c,) = run.constraints
    assert c.branch_offset == 9 and inputs_of(c.predicate) == (Input("a"),)
    assert run.reads == {9: frozenset({7})}


def test_slot_record_joins_a_branch_over_its_executions():
    # one JUMPI (at 24) reached twice through a subroutine at 0x15, on
    # SLOAD 5 and then on SLOAD 6; both words are 0, so it never jumps
    code = (
        "6005 54 6009 90 6015 56"  # SLOAD 5, return to 0x09, call 0x15
        "5b 6006 54 6013 90 6015 56"  # 0x09: SLOAD 6, return to 0x13, call 0x15
        "5b 00"  # 0x13: STOP
        "5b 6015 57 56"  # 0x15: JUMPI on the word, JUMP back
    )
    image = CodeImage.from_bytecode(bytes.fromhex(code.replace(" ", "")))
    run = _shadow_frame(image, b"", None, {}, {}, SELF, CALLER, 0, 1, 1, 100_000)
    assert run.halt == "stop"
    assert run.reads == {24: frozenset({5, 6})}


# -- drive's constraint weakening --------------------------------------------

B = Input("b")
C = Input("c")


def test_rewrite_hashes_equates_same_sized_buffers_word_by_word():
    pred = Binop("EQ", Keccak((X, A), 64), Keccak((B, C), 64))
    assert rewrite_hashes(pred, {}) == Binop(
        "AND", Binop("EQ", X, B), Binop("EQ", A, C)
    )


def test_rewrite_hashes_of_different_sizes_never_collide():
    pred = Binop("EQ", Keccak((X, A), 64), Keccak((B,), 32))
    assert rewrite_hashes(pred, {}) == Const(0)


def _digest(buf: bytes) -> int:
    return int.from_bytes(keccak256(buf), "big")


def test_rewrite_hashes_turns_an_observed_digest_into_its_preimage_words():
    buf = (7).to_bytes(32, "big") + (9).to_bytes(32, "big")
    pred = Binop("EQ", Keccak((X, A), 64), Const(_digest(buf)))
    want = Binop("AND", Binop("EQ", X, Const(7)), Binop("EQ", A, Const(9)))
    assert rewrite_hashes(pred, {_digest(buf): buf}) == want


def test_rewrite_hashes_leaves_an_unseen_digest_alone():
    pred = Binop("EQ", Keccak((X, A), 64), Const(_digest(b"\x01" * 64)))
    assert rewrite_hashes(pred, {_digest(b"\x02" * 64): b"\x02" * 64}) == pred


def test_solving_the_rewrite_of_a_planted_preimage_satisfies_the_hash():
    buf = bytes(range(64))
    pred = Binop("EQ", Const(_digest(buf)), Keccak((X, A), 64))
    result = solve(conjuncts(rewrite_hashes(pred, {_digest(buf): buf})))
    assert isinstance(result, Sat)
    assert evaluate_atoms(pred, result.model) == 1


def test_a_short_last_preimage_word_is_matched_at_the_top_of_its_part():
    # 33 bytes: the last part holds byte 33 at the top of its word, and
    # the hash reads only that byte of it
    buf = bytes(range(1, 34))
    pred = Binop("EQ", Keccak((X, A), 33), Const(_digest(buf)))
    result = solve(conjuncts(rewrite_hashes(pred, {_digest(buf): buf})))
    assert isinstance(result, Sat)
    assert result.model[A] >> 248 == 33
    assert evaluate_atoms(pred, result.model) == 1


def test_pin_all_but_one_keeps_each_unknown_of_cubic_in_turn():
    # cubic's guard, y*y == x*x*x + x*x + 2, as the shadow builds it
    y = Input("y")
    xx = Binop("MUL", X, X)
    cube = Binop("ADD", Binop("ADD", Binop("MUL", xx, X), xx), Const(2))
    pred = Binop("EQ", cube, Binop("MUL", y, y))
    env = {X: 3, y: 5}
    variants = pin_all_but_one(pred, env)
    assert [inputs_of(v) for v in variants] == [(X,), (y,)]
    assert [format_expr(v) for v in variants] == [
        "25 == x*x*x + x*x + 2",
        "38 == y*y",
    ]
    for v, keep in zip(variants, (X, y)):
        for value in (0, 1, 3, 5, 6):
            assert evaluate_atoms(v, {keep: value}) == evaluate_atoms(
                pred, {**env, keep: value}
            )


@pytest.mark.parametrize(
    "n,want",
    [
        (2, (b"ab", (1, 2), 7, True)),
        (5, (b"abc\x00\x00", (1, 2, 3, 0, 0), 7, True)),
    ],
)
def test_resize_dynamic_cuts_or_pads_bytes_and_arrays_only(n, want):
    assert resize_dynamic((b"abc", (1, 2, 3), 7, True), n) == want


def test_drive_escalates_a_dynamic_length_the_seed_left_empty(feeswap):
    # velocore_execute(()) never enters its loop, and the loop's exit
    # cannot be flipped at length 0: drive resizes the array, re-runs and
    # re-shadows it, then solves tokens[0] == 123 on the resized run
    world, at = make_world(feeswap)
    seed = FuzzCase((Transaction("velocore_execute", args=((),),
                                 source=next(iter(world.accounts)), destination=at),))
    emitted = drive(feeswap, Corpus([seed], [{}]), CoverageMap(), DriveBudget(iterations=2))
    assert [tc.txs[0].args for tc in emitted] == [((),), ((0, 0),), ((123, 0),)]
    covered = []
    for tc in emitted:
        after, results = execute_sequence(world, list(tc.txs))
        cov = CoverageMap()
        for res in results:
            merge_result(cov, res, after)
        covered.append(cov.bits[at])
    seed_bits, resized, solved = covered
    assert resized & ~seed_bits and solved & ~resized


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


def _drive_with_models(monkeypatch, bundle, model_of):
    """drive with every solve answering Sat(model_of(predicates)); the
    predicates asked and the sequences the engine ran come back too."""
    module = importlib.import_module("sctest.concolic.drive")
    asked, ran = [], []
    engine = module.execute_sequence

    def solving(preds):
        asked.append(preds)
        return Sat(model_of(preds))

    def running(world, txs):
        ran.append(tuple(txs))
        return engine(world, txs)

    monkeypatch.setattr(module, "solve", solving)
    monkeypatch.setattr(module, "execute_sequence", running)
    emitted = drive(bundle, Corpus(), CoverageMap(), DriveBudget(iterations=5))
    return emitted, asked, ran


@pytest.mark.parametrize(
    "model_of",
    [
        # each model rebuilds the seed call, which takes its recorded branch
        lambda preds: {},
        # a word no ABI type holds: the model's call cannot be encoded
        lambda preds: {a: 2**256 for p in preds for a in inputs_of(p)},
    ],
    ids=["seed-again", "unencodable"],
)
def test_drive_drops_a_model_whose_run_diverges(monkeypatch, ballot, model_of):
    seeds = [
        tc.txs for tc in drive(ballot, Corpus(), CoverageMap(), DriveBudget(iterations=0))
    ]
    assert len(drive(ballot, Corpus(), CoverageMap(), DriveBudget(iterations=5))) > 1
    emitted, asked, ran = _drive_with_models(monkeypatch, ballot, model_of)
    assert asked
    # nothing solved is emitted or run by the engine: only the seed
    assert [tc.txs for tc in emitted] == ran == seeds


# -- fixture gate: drive reaches the asserts a short campaign misses ---------


@pytest.mark.parametrize("seed", [42, 77])
@pytest.mark.parametrize(
    "name,function", [("ballot", "castVote"), ("feeswap", "velocore_execute")]
)
def test_drive_reaches_the_assert_a_campaign_misses(bundles, name, function, seed):
    # ballot's assert sits behind a Keccak equality, so this also runs the
    # compiled sponge end to end through the shadow's preimages
    bundle = bundles[name]
    world, _ = make_world(bundle)
    target = seed_initial_target(bundle.resolved_abi)
    coverage, corpus, report = run_campaign(world, target, {"execs": 500}, rng_seed=seed)
    want = (ASSERT_FAILURE, function)
    assert want not in {(f.kind, f.function) for f in report.findings}
    emitted = drive(
        bundle, corpus, coverage.copy(), DriveBudget(iterations=20), cache=SnapshotCache()
    )
    _, replayed = replay(world, Corpus(emitted, [{} for _ in emitted]))
    assert want in {(f.kind, f.function) for f in replayed.findings}
