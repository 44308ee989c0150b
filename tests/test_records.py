"""How sctest's record classes behave: construction by position and by
keyword with defaults, equality by field within one class, equal hashes
for equal frozen records, refused assignment to a frozen record's
fields, fresh default containers per instance, and the coercions of
Const, FunctionSig and ConcreteCall.

Each row names a class and two full sets of field values, A and B, that
differ in every field, plus the value each defaulted field takes."""

import pytest

from sctest.bytecode.abi import AbiType, FunctionSig
from sctest.bytecode.asm import AsmResult
from sctest.bytecode.cfg import BasicBlock, Cfg
from sctest.bytecode.decode import Instr
from sctest.bytecode.opcodes import Opcode
from sctest.concolic.drive import ConcolicState, DriveBudget
from sctest.concolic.shadow import ShadowRun, _Region
from sctest.concolic.solve import Sat, Unknown, Unsat, _Rel
from sctest.concolic.symexpr import Binop, Const, Input, Keccak, PathConstraint, Unop
from sctest.coverage.bottleneck import BranchConstraintInfo
from sctest.coverage.covmap import CoverageMap
from sctest.coverage.report import CoverageReport
from sctest.coverage.uncovered import UncoveredFunction
from sctest.evm.bundle import ContractBundle
from sctest.evm.image import CodeImage
from sctest.evm.types import BlockCtx, Transaction
from sctest.evm.world import EvmWorld, make_world
from sctest.fuzzing.campaign import Campaign, ChunkStats
from sctest.fuzzing.corpus import BugReport, Corpus, Finding
from sctest.fuzzing.corpus import TestCase as FuzzCase
from sctest.fuzzing.mutate import MutationPlan
from sctest.fuzzing.target import (
    CompileError,
    ConcreteCall,
    FuzzCall,
    FuzzTarget,
    seed_initial_target,
)

MASK256 = (1 << 256) - 1

U8, BOOL = AbiType("uint", 8), AbiType("bool", 8)
STOP, PUSH = Instr(0, 0x00, "STOP"), Instr(0, 0x60, "PUSH1", 1, 1)
PC_A, PC_B = PathConstraint(Input("a"), 7, True), PathConstraint(Input("b"), 9, False)
TX_A, TX_B = Transaction("f", (1,)), Transaction("g", (2,))
INFO_A = BranchConstraintInfo(7, "a", ("a",), {}, Input("a"))
INFO_B = BranchConstraintInfo(9, "b", ("b",), {}, None)


def row(cls, a, b, defaults=None):
    """A table row: a and b as {field: value} in field order; defaults
    {field: value when not passed} for the defaulted fields, which come
    last."""
    return pytest.param(cls, a, dict(zip(a, b)), defaults or {}, id=cls.__name__)


FROZEN = [
    row(AbiType, {"kind": "uint", "bits": 8}, ("array", 16), {"bits": 256}),
    row(
        FunctionSig,
        {
            "name": "f",
            "params": (U8,),
            "entry_offset": 4,
            "body_range": (4, 9),
            "is_property": True,
            "param_names": ("a",),
        },
        ("g", (BOOL,), 5, (5, 8), False, ("b",)),
        {
            "entry_offset": None,
            "body_range": None,
            "is_property": False,
            "param_names": ("arg0",),
        },
    ),
    row(
        BasicBlock,
        {"start": 0, "instrs": (STOP,), "succs": (), "unresolved_jump": True},
        (2, (PUSH,), (4,), False),
        {"unresolved_jump": False},
    ),
    row(
        Instr,
        {"offset": 0, "code": 0x60, "name": "PUSH1", "imm": 1, "imm_len": 1},
        (2, 0x61, "PUSH2", 2, 2),
        {"imm": None, "imm_len": 0},
    ),
    row(
        Opcode,
        {
            "mnemonic": "ADD",
            "code": 1,
            "pops": 2,
            "pushes": 1,
            "immediate_len": 0,
            "kind": "arith",
            "gas": 3,
        },
        ("PUSH1", 0x60, 0, 2, 1, "stack", 4),
    ),
    row(
        ConcolicState,
        {
            "input": (TX_A,),
            "phi_solved": (PC_A,),
            "phi_target": PC_A,
            "position": 1,
            "order": 2,
        },
        ((TX_B,), (PC_B,), PC_B, 3, 4),
        {"position": 0, "order": 0},
    ),
    row(
        _Region,
        {"start": 4, "size": 32, "param": "a", "kind": "word", "bits": 8},
        (36, 1, "b", "bytes", 256),
    ),
    row(Unsat, {}, ()),
    row(Unknown, {"reason": "x"}, ("y",), {"reason": ""}),
    row(Const, {"value": 5}, (6,)),
    row(
        Input,
        {"param": "a", "offset": 32, "kind": "elem", "bits": 8},
        ("b", 3, "byte", 16),
        {"offset": 0, "kind": "word", "bits": 256},
    ),
    row(Unop, {"op": "NOT", "x": Const(1)}, ("ISZERO", Const(2))),
    row(Binop, {"op": "ADD", "x": Const(1), "y": Input("a")}, ("SUB", Const(2), Input("b"))),
    row(Keccak, {"parts": (Const(1),), "size": 32}, ((Input("a"),), 64)),
    row(
        PathConstraint,
        {"predicate": Input("a"), "branch_offset": 7, "taken": True},
        (Input("b"), 9, False),
    ),
    row(
        BranchConstraintInfo,
        {
            "branch_offset": 7,
            "constraint_text": "a < 1",
            "inputs_involved": ("a",),
            "features": {"has_keccak": False},
            "predicate": Input("a"),
        },
        (9, "concrete", (), {}, None),
    ),
    row(CoverageReport, {"text": "COVERAGE v1 0/0\n", "summary": {"x": 1}}, ("", {})),
    row(
        UncoveredFunction,
        {
            "sig": "f()",
            "status": "fully_uncovered",
            "uncovered_offsets": (1,),
            "blocking": (INFO_A,),
        },
        ("g()", "partially_covered", (2,), (INFO_B,)),
        {"blocking": ()},
    ),
    row(
        CodeImage,
        {
            "code": b"\x00",
            "imm": (None,),
            "nxt": (1,),
            "is_jumpdest": b"\x00",
            "runs": (((0,), 3, 0, 0),),
        },
        (b"\x5b", (2,), (2,), b"\x01", ()),
    ),
    row(FuzzCase, {"txs": (TX_A,)}, ((TX_B,),)),
    row(
        Finding,
        {
            "kind": "assert_failure",
            "pc": 3,
            "function": "f",
            "testcase_id": "ab",
            "message": "m",
        },
        ("property_violation", 4, "g", "cd", "n"),
    ),
    row(
        MutationPlan,
        {"slots": ((0, 0, U8),), "pool": (1,), "ops": ("a",), "ops_splice": ("b",)},
        (((1, 0, BOOL),), (2,), ("c",), ("d",)),
    ),
    row(
        CompileError,
        {"code": "E000", "line": 1, "col": 2, "message": "m"},
        ("E001", 3, 4, "n"),
    ),
    row(
        ConcreteCall,
        {"function": "f", "args": (1,), "sender": "alice", "value": 3, "delay": 4},
        ("g", (b"\x01",), "bob", 5, 6),
        {"sender": None, "value": 0, "delay": 0},
    ),
    row(
        FuzzCall,
        {
            "function": "f",
            "args": (1,),
            "sender": "alice",
            "value": 3,
            "delay": 4,
            "mutable_params": ("a",),
        },
        ("g", ((1, 2),), "bob", 5, 6, ("b",)),
        {"sender": None, "value": 0, "delay": 0, "mutable_params": ()},
    ),
    row(
        FuzzTarget,
        {
            "name": "t",
            "address_aliases": {"alice": 1},
            "setup": (ConcreteCall("f", ()),),
            "fuzz": (FuzzCall("g", ()),),
            "order_mode": "shuffle",
        },
        ("u", {}, (), (FuzzCall("h", ()),), "fixed"),
        {"address_aliases": {}, "setup": (), "fuzz": (), "order_mode": "fixed"},
    ),
]

# mutable records that callers and tests compare by field
MUTABLE_EQ = [
    row(
        ChunkStats,
        {
            "executions": 1,
            "new_instructions": 2,
            "new_paths": 3,
            "new_findings": 4,
            "repeats": 5,
        },
        (6, 7, 8, 9, 10),
        dict.fromkeys(
            ("executions", "new_instructions", "new_paths", "new_findings", "repeats"),
            0,
        ),
    ),
    row(
        ShadowRun,
        {
            "halt": "stop",
            "return_data": b"",
            "gas_used": 3,
            "trace": (0,),
            "constraints": (PC_A,),
            "sha_preimages": (),
            "storage": {},
            "reads": {},
        },
        ("revert", b"\x01", 4, (0, 1), (), ((b"a", b"b"),), {1: {}}, {7: frozenset()}),
    ),
]

MUTABLE = MUTABLE_EQ + [
    row(
        AsmResult,
        {"bytecode": b"\x00", "linemap": {0: 1}, "functions": {}, "labels": {"l": 0}},
        (b"\x01", {}, {"f": (0, (0, 1))}, {}),
    ),
    row(
        Cfg,
        {
            "blocks": {},
            "order": [0],
            "preds": {},
            "block_of": {0: 0},
            "dispatch": {},
            "instrs": [STOP],
        },
        ({0: BasicBlock(0, (STOP,), ())}, [], {0: ()}, {}, {b"ab": 0}, []),
        {"instrs": []},
    ),
    row(DriveBudget, {"iterations": 3}, (4,), {"iterations": 10}),
    row(Sat, {"model": {Input("a"): 1}}, ({},)),
    row(
        _Rel,
        {"op": "LT", "x": Const(1), "y": Const(2), "positive": True},
        ("NZ", Input("a"), None, False),
    ),
    row(
        CoverageMap,
        {"bits": {1: 3}, "path_set": {5}},
        ({}, set()),
        {"bits": {}, "path_set": set()},
    ),
    row(
        ContractBundle,
        {
            "name": "c",
            "bytecode": b"\x00",
            "abi": [],
            "source": "x",
            "linemap": {0: 1},
            "world_config": {},
        },
        ("d", b"\x01", [FunctionSig("f", ())], None, None, None),
        {"source": None, "linemap": None, "world_config": None},
    ),
    row(
        EvmWorld,
        {"accounts": {1: 5}, "deployed": {}, "storage": {1: {}}, "block": BlockCtx(7, 2)},
        ({}, {}, {}, BlockCtx()),
        {"accounts": {}, "deployed": {}, "storage": {}, "block": BlockCtx()},
    ),
    row(BugReport, {"findings": [Finding("k", 1, "f", "id", "m")]}, ([],), {"findings": []}),
    row(
        Corpus,
        {"entries": [FuzzCase((TX_A,))], "deltas": [{}]},
        ([], []),
        {"entries": [], "deltas": []},
    ),
]

# they hold a dict, or (UncoveredFunction) records that do
UNHASHABLE = (BranchConstraintInfo, CoverageReport, FuzzTarget, UncoveredFunction)


def _fields(rec, names) -> dict:
    return {n: getattr(rec, n) for n in names}


@pytest.mark.parametrize("cls, a, b, defaults", FROZEN + MUTABLE)
def test_construction_by_position_and_keyword_with_defaults(cls, a, b, defaults):
    for values in (a, b):
        assert _fields(cls(*values.values()), values) == values
        assert _fields(cls(**values), values) == values
    required = {n: v for n, v in a.items() if n not in defaults}
    assert list(a) == [*required, *defaults]  # defaulted fields come last
    assert _fields(cls(*required.values()), a) == {**required, **defaults}
    assert _fields(cls(**required), a) == {**required, **defaults}


@pytest.mark.parametrize("cls, a, b, defaults", FROZEN + MUTABLE_EQ)
def test_equality_is_by_field_within_one_class(cls, a, b, defaults):
    rec = cls(**a)
    assert rec == cls(**a) and not rec != cls(**a)
    for name in a:
        other = cls(**{**a, name: b[name]})
        assert rec != other and not rec == other, name
    assert rec != tuple(a.values()) and rec != object()


@pytest.mark.parametrize("cls, a, b, defaults", FROZEN)
def test_equal_frozen_records_hash_equal(cls, a, b, defaults):
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(cls(**a))
        return
    assert hash(cls(**a)) == hash(cls(**a))
    assert len({cls(**a), cls(**a), cls(**b)}) == 1 + (a != b)


@pytest.mark.parametrize("cls, a, b, defaults", FROZEN)
def test_frozen_records_refuse_assignment(cls, a, b, defaults):
    rec = cls(**a)
    for name in a:
        with pytest.raises(AttributeError):
            setattr(rec, name, b[name])
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert _fields(rec, a) == a


@pytest.mark.parametrize("cls, a, b, defaults", FROZEN)
def test_frozen_records_repr_as_their_fields(cls, a, b, defaults):
    fields = ", ".join(f"{n}={v!r}" for n, v in a.items())
    assert repr(cls(**a)) == f"{cls.__qualname__}({fields})"


@pytest.mark.parametrize("cls, a, b, defaults", FROZEN + MUTABLE)
def test_records_are_not_sequences(cls, a, b, defaults):
    with pytest.raises(TypeError):
        iter(cls(**a))


@pytest.mark.parametrize("cls, a, b, defaults", MUTABLE)
def test_mutable_records_take_assignment(cls, a, b, defaults):
    rec = cls(**a)
    for name in a:
        setattr(rec, name, b[name])
    assert _fields(rec, a) == b


def test_a_fuzz_call_never_equals_a_concrete_call():
    assert FuzzCall("f", ()) != ConcreteCall("f", ())
    assert ConcreteCall("f", ()) != FuzzCall("f", ())
    assert FuzzCall("f", ()) == FuzzCall("f", ())
    assert isinstance(FuzzCall("f", ()), ConcreteCall)


@pytest.mark.parametrize(
    "make, names",
    [
        (EvmWorld, ("accounts", "deployed", "storage")),
        (Corpus, ("entries", "deltas")),
        (BugReport, ("findings",)),
        (CoverageMap, ("bits", "path_set")),
        (lambda: Cfg({}, [], {}, {}, {}), ("instrs",)),
        (lambda: FuzzTarget("t"), ("address_aliases",)),
    ],
    ids=["EvmWorld", "Corpus", "BugReport", "CoverageMap", "Cfg", "FuzzTarget"],
)
def test_no_two_instances_share_a_default_container(make, names):
    one, two = make(), make()
    for name in names:
        assert getattr(one, name) is not getattr(two, name), name


def test_campaign_construction_and_fresh_defaults(lottery):
    world, _ = make_world(lottery)
    target = seed_initial_target(lottery.resolved_abi)
    one = Campaign(world, target, 42)
    two = Campaign(world=world, target=target, rng_seed=42)
    for camp in (one, two):
        assert (camp.world, camp.target, camp.rng_seed) == (world, target, 42)
        assert isinstance(camp.coverage, CoverageMap)
        assert len(camp.corpus) == 0 and camp.report.findings == []
        assert camp.executions == 0
    for name in ("coverage", "corpus", "report"):
        assert getattr(one, name) is not getattr(two, name), name
    cov, corpus, report = CoverageMap(), Corpus(), BugReport()
    three = Campaign(world, target, 7, cov, corpus, report, 5)
    assert (three.coverage, three.corpus, three.report) == (cov, corpus, report)
    assert (three.rng_seed, three.executions) == (7, 5)


def test_const_masks_its_value():
    assert Const(-1).value == MASK256
    assert Const(1 << 256 | 5).value == 5
    assert Const(-1) == Const(MASK256)


def test_function_sig_parses_names_and_refuses_a_repeat():
    sig = FunctionSig("f", ("uint8", AbiType("bool", 8), "uint256[]"))
    assert sig.params == (U8, BOOL, AbiType("array", 256))
    assert sig.param_names == ("arg0", "arg1", "arg2")
    assert FunctionSig("f", ["uint8"]).params == (U8,)
    assert FunctionSig("g", ()).param_names == ()
    with pytest.raises(ValueError, match="repeats"):
        FunctionSig("f", ("uint8", "uint8"), param_names=("x", "x"))
    with pytest.raises(ValueError, match="1 names for 2 params"):
        FunctionSig("f", ("uint8", "uint8"), param_names=("x",))


@pytest.mark.parametrize("cls", [ConcreteCall, FuzzCall])
def test_concrete_call_normalizes_its_args(cls):
    call = cls("f", [[1, 2], bytearray(b"\x01"), True, 3])
    assert call.args == ((1, 2), b"\x01", True, 3)
    assert type(call.args) is tuple and type(call.args[1]) is bytes
    assert hash(call) == hash(cls("f", ((1, 2), b"\x01", True, 3)))
