"""Transaction execution: halts, state commits, tracing, inner calls."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sctest._kernels import keccak256, run_frame
from sctest._kernels.interp_py import MEM_LIMIT
from sctest.bytecode.abi import FunctionSig, parse_abi
from sctest.bytecode.asm import Asm, dispatcher
from sctest.bytecode.cfg import build_cfg
from sctest.bytecode.opcodes import BINOP, by_name, lookup
from sctest.coverage import CoverageMap, merge_result
from sctest.errors import (
    AddressInUse,
    DuplicateAddress,
    InsufficientBalance,
    MalformedCalldata,
    SchemaError,
    SctestError,
    TypeMismatch,
    UnknownDestination,
)
from sctest.evm import (
    CodeImage,
    ContractBundle,
    Transaction,
    deploy,
    execute_sequence,
    execute_tx,
    genesis_config,
    load_bundle,
    make_world,
    new_world,
)
from sctest.evm.image import RUN_ENDS
from sctest.evm.types import normalize_args

ACCT = 0x1001
AT = 0xC0DE
RAW4 = bytes(4)


def bundle_from_hex(hx: str, name: str = "t") -> ContractBundle:
    return ContractBundle(name, bytes.fromhex(hx), [])


def world_with(bundle: ContractBundle, at: int = AT, accounts=None):
    w = new_world(accounts or [(ACCT, 10**18)])
    return deploy(w, bundle, at)


def run_raw(hx: str, calldata: bytes = RAW4, gas: int = 10_000_000, value: int = 0,
            accounts=None):
    w = world_with(bundle_from_hex(hx), accounts=accounts)
    tx = Transaction(function_call="raw", call_data=calldata, gas=gas,
                     source=ACCT, destination=AT, value=value)
    return execute_tx(w, tx)


def returned_word(res) -> int:
    assert res.halt == "RETURN", res.halt
    return int.from_bytes(res.return_data, "big")


# -- basic halts and tracing -------------------------------------------------


def test_trace_covers_every_instruction():
    # PUSH1 2, PUSH1 3, ADD, STOP
    _, res = run_raw("6002600301" + "00")
    assert res.halt == "STOP"
    assert res.offsets() == [0, 2, 4, 5]
    assert res.gas_used == 12


def test_trace_nonempty_for_any_executed_code():
    _, res = run_raw("00")
    assert res.offsets() == [0]


def test_implicit_stop_off_code_end():
    _, res = run_raw("6001")  # PUSH1 1, then falls off
    assert res.halt == "STOP"


def test_invalid_halts_at_faulting_offset():
    _, res = run_raw("fe")
    assert res.halt == "INVALID"
    assert res.last_offset == (AT, 0)


def test_unknown_byte_executes_as_invalid():
    _, res = run_raw("0c")  # not in the instruction set
    assert res.halt == "INVALID"


def test_stack_underflow_is_invalid():
    _, res = run_raw("01")  # ADD on empty stack
    assert res.halt == "INVALID"


def test_jump_to_non_jumpdest_is_invalid():
    _, res = run_raw("600456")  # JUMP 4 -> offset 4 is not a JUMPDEST
    assert res.halt == "INVALID"


def test_revert_returns_data():
    # MSTORE8(0, 0x55); REVERT(0, 1)
    _, res = run_raw("60556000" + "53" + "60016000" + "fd")
    assert res.halt == "REVERT"
    assert res.return_data == b"\x55"
    assert res.failed


# -- arithmetic semantics ----------------------------------------------------


def test_div_and_mod_by_zero_yield_zero():
    # DIV: PUSH1 0, PUSH1 5, DIV -> 5 // 0 = 0
    _, res = run_raw("6000600504" + "600052" + "60206000f3")
    assert returned_word(res) == 0
    _, res = run_raw("6000600506" + "600052" + "60206000f3")
    assert returned_word(res) == 0


def test_add_wraps_mod_2_256():
    # PUSH32 (2^256-1), PUSH1 1, ADD -> 0
    hx = "7f" + "ff" * 32 + "600101" + "600052" + "60206000f3"
    _, res = run_raw(hx)
    assert returned_word(res) == 0


def test_sub_wraps():
    # PUSH1 1, PUSH1 0, SUB computes 0 - 1
    _, res = run_raw("6001600003" + "600052" + "60206000f3")
    assert returned_word(res) == (1 << 256) - 1


def test_exp():
    # PUSH1 10, PUSH1 2, EXP computes 2**10
    _, res = run_raw("600a60020a" + "600052" + "60206000f3")
    assert returned_word(res) == 1024


def test_shift_by_256_clears():
    _, res = run_raw("6001" + "610100" + "1b" + "600052" + "60206000f3")
    assert returned_word(res) == 0


_BINOPS = {
    "01": lambda a, b: (a + b) % (1 << 256),
    "02": lambda a, b: (a * b) % (1 << 256),
    "03": lambda a, b: (a - b) % (1 << 256),
    "04": lambda a, b: a // b if b else 0,
    "06": lambda a, b: a % b if b else 0,
    "10": lambda a, b: int(a < b),
    "11": lambda a, b: int(a > b),
    "14": lambda a, b: int(a == b),
    "16": lambda a, b: a & b,
    "17": lambda a, b: a | b,
    "18": lambda a, b: a ^ b,
}


@settings(max_examples=60, deadline=None)
@given(
    a=st.integers(0, (1 << 256) - 1),
    b=st.integers(0, (1 << 256) - 1),
    op=st.sampled_from(sorted(_BINOPS)),
)
def test_binop_agrees_with_bigint_oracle(a, b, op):
    # stack [b, a] with a on top: op computes a OP b
    hx = (
        "7f" + b.to_bytes(32, "big").hex()
        + "7f" + a.to_bytes(32, "big").hex()
        + op + "600052" + "60206000f3"
    )
    _, res = run_raw(hx)
    assert returned_word(res) == _BINOPS[op](a, b)


_EDGE_WORDS = (0, 1, 255, 256, 1 << 255, (1 << 256) - 1)
_WORDS = st.one_of(st.sampled_from(_EDGE_WORDS), st.integers(0, (1 << 256) - 1))


def kernel_binop(name: str, x: int, y: int) -> int:
    """The word run_frame returns for PUSH32 y, PUSH32 x, <name>."""
    code = bytes.fromhex(
        "7f" + y.to_bytes(32, "big").hex()
        + "7f" + x.to_bytes(32, "big").hex()
        + f"{by_name(name).code:02x}" + "600052" + "60206000f3"
    )
    image = CodeImage.from_bytecode(code)
    halt, kind, data, _ = run_frame(
        image, b"", {}, {}, AT, ACCT, 0, 1, 1, 10_000, False, [], [],
    )
    assert (halt, kind) == ("halt", "return")
    return int.from_bytes(data, "big")


@pytest.mark.parametrize("name", sorted(BINOP))
def test_kernel_binop_matches_table_on_edge_words(name):
    for x in _EDGE_WORDS:
        for y in _EDGE_WORDS:
            assert kernel_binop(name, x, y) == BINOP[name](x, y), (x, y)


@pytest.mark.parametrize("name", sorted(BINOP))
@settings(max_examples=40, deadline=None)
@given(x=_WORDS, y=_WORDS)
def test_kernel_binop_matches_table(name, x, y):
    # the kernel inlines its arithmetic; the table is what the shadow,
    # symexpr and the bottleneck replay compute with
    assert kernel_binop(name, x, y) == BINOP[name](x, y)


# -- the run table ---------------------------------------------------------------


def fold_run(image: CodeImage, pc: int) -> tuple:
    """(offsets, gas, need, rise) of the run from pc, one instruction at
    a time: walk to the first run end or the end of the code, tracking
    the stack depth relative to the run's start."""
    offsets, gas, need, depth, rise = [], 0, 0, 0, 0
    while pc < len(image.code):
        op = image.code[pc]
        info = lookup(op)
        offsets.append(pc)
        gas += info.gas
        need = max(need, info.pops - depth)
        depth += info.pushes - info.pops
        rise = max(rise, depth)
        if op in RUN_ENDS:
            break
        pc = image.nxt[pc]
    return tuple(offsets), gas, need, rise


def test_run_table_matches_a_per_instruction_fold(bundles):
    codes = [b.bytecode for b in bundles.values()] + [
        TOY.bytecode,
        bytes.fromhex(_caller_hex("f1", 9)),
        bytes.fromhex("5b" * 3 + "6001" + "80" * 5 + "9a" + "50" * 7 + "60ef"),  # to code end
        bytes.fromhex("01" + "0c" + "a2" + "f5" + "5a" + "01" + "20" + "02" + "7f" + "11" * 32),
    ]
    for code in codes:
        image = CodeImage.from_bytecode(code)
        starts = {i.offset for i in build_cfg(code).instrs}
        for pc in range(len(code)):
            if pc in starts:
                assert image.runs[pc] == fold_run(image, pc), (code.hex(), pc)
            else:  # inside a PUSH immediate: never run whole
                assert image.runs[pc][1] == float("inf")
    for op in range(256):  # each opcode alone, with its immediate
        alone = CodeImage.from_bytecode(bytes([op]) + bytes(lookup(op).immediate_len))
        assert alone.steps[op] == fold_run(alone, 0)[1:]


def test_step_table_charges_the_flat_gas_schedule():
    # the run table and fold_run both read Opcode.gas, so the schedule is
    # pinned here by value: 3 unless listed, bytes outside the table too
    want = [3] * 256
    for names, gas in [
        (("CALLDATACOPY", "MLOAD", "MSTORE", "MSTORE8"), 20),
        (("SLOAD",), 100),
        (("SSTORE",), 200),
        (("SHA3",), 30),
        (("CREATE", "CALL", "DELEGATECALL", "CREATE2", "STATICCALL", "SELFDESTRUCT"), 500),
    ]:
        for name in names:
            want[by_name(name).code] = gas
    assert [gas for gas, _, _ in CodeImage.steps] == want


# -- environment opcodes -----------------------------------------------------


def test_caller_address_callvalue():
    # CALLER ADDRESS CALLVALUE -> return all three
    hx = ("33600052" + "30602052" + "34604052" + "60606000f3")
    _, res = run_raw(hx, value=777)
    words = [int.from_bytes(res.return_data[i:i + 32], "big") for i in (0, 32, 64)]
    assert words == [ACCT, AT, 777]


def test_calldataload_zero_pads_past_end():
    # CALLDATALOAD(2) on 4-byte data
    _, res = run_raw("6002" + "35" + "600052" + "60206000f3",
                     calldata=bytes.fromhex("aabbccdd"))
    assert returned_word(res) == int.from_bytes(
        bytes.fromhex("ccdd") + bytes(30), "big"
    )


def test_calldatasize_and_copy():
    # CALLDATACOPY(mem 0, data 0, size CALLDATASIZE); RETURN(0, 32)
    _, res = run_raw("36600060003760206000f3", calldata=bytes.fromhex("deadbeef"))
    assert res.return_data[:4] == bytes.fromhex("deadbeef")


def test_balance_opcode():
    # BALANCE(ADDRESS)
    w = world_with(bundle_from_hex("3031" + "600052" + "60206000f3"),
                   accounts=[(ACCT, 10**18), (AT, 4321)])
    _, res = execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                       source=ACCT, destination=AT))
    assert returned_word(res) == 4321


def test_sha3_opcode_and_preimage_capture():
    # MSTORE(0, 7); SHA3(0, 32)
    _, res = run_raw("6007600052" + "60206000" + "20" + "600052" + "60206000f3")
    want = keccak256((7).to_bytes(32, "big"))
    assert res.return_data == want
    assert ((7).to_bytes(32, "big"), want) in res.sha_preimages


# -- block context and delay -------------------------------------------------


def test_delay_advances_timestamp_before_execution():
    b = bundle_from_hex("42600052" + "60206000f3")
    w = deploy(new_world([(ACCT, 10**18)], timestamp=500), b, AT)
    w2, res = execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                        delay=7, source=ACCT, destination=AT))
    assert returned_word(res) == 507
    assert w2.block.timestamp == 507
    assert w.block.timestamp == 500  # input world untouched


def test_block_number_stays_one():
    b = bundle_from_hex("43600052" + "60206000f3")
    w = deploy(new_world([(ACCT, 10**18)]), b, AT)
    for _ in range(3):
        w, res = execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                           source=ACCT, destination=AT))
        assert returned_word(res) == 1


def test_delay_zero_shares_block_timestamp():
    b = bundle_from_hex("42600052" + "60206000f3")
    w = deploy(new_world([(ACCT, 10**18)], timestamp=900), b, AT)
    txs = [
        Transaction(function_call="raw", call_data=RAW4, source=ACCT, destination=AT),
        Transaction(function_call="raw", call_data=RAW4, source=ACCT, destination=AT),
    ]
    _, results = execute_sequence(w, txs)
    assert [returned_word(r) for r in results] == [900, 900]


# -- gas ----------------------------------------------------------------------


def test_gas_used_never_exceeds_budget():
    _, res = run_raw("6002600301" + "00", gas=50)
    assert res.gas_used <= 50


def test_out_of_gas_consumes_entire_budget():
    # SSTORE(0, 1), then loop forever
    hx = "6001600055" + "5b" + "610005" + "56"
    _, res = run_raw(hx, gas=3000)
    assert res.halt == "OUT_OF_GAS"
    assert res.gas_used == 3000


def test_gas_opcode_reports_remaining():
    _, res = run_raw("5a600052" + "60206000f3", gas=1000)
    # GAS itself cost 3 by the time the value is observed
    assert returned_word(res) == 997


def test_sstore_sload_costs():
    # PUSH1 1 (3) PUSH1 0 (3) SSTORE (200) PUSH1 0 (3) SLOAD (100) POP (3) STOP (3)
    _, res = run_raw("6001600055" + "600054" + "50" + "00")
    assert res.gas_used == 3 + 3 + 200 + 3 + 100 + 3 + 3


def test_sha3_gas_scales_with_words():
    # SHA3(0, 64) = 30 + 6*2; plus PUSH,PUSH (6), MSTORE path to size memory
    _, r64 = run_raw("60406000" + "20" + "00")
    _, r32 = run_raw("60206000" + "20" + "00")
    assert r64.gas_used - r32.gas_used == 6


# -- state commit rules --------------------------------------------------------


def test_sstore_persists_on_stop():
    w, res = run_raw("6005600055" + "00")
    assert res.halt == "STOP"
    assert w.storage[AT] == {0: 5}


def test_sstore_persists_on_revert():
    w, res = run_raw("6005600055" + "60006000fd")
    assert res.halt == "REVERT"
    assert w.storage[AT] == {0: 5}


def test_sstore_persists_on_invalid():
    w, res = run_raw("6005600055" + "fe")
    assert res.halt == "INVALID"
    assert w.storage[AT] == {0: 5}


def test_out_of_gas_rolls_back_storage():
    hx = "6001600055" + "5b" + "610005" + "56"
    w, res = run_raw(hx, gas=3000)
    assert res.halt == "OUT_OF_GAS"
    assert w.storage[AT] == {}


def test_out_of_gas_rolls_back_balances():
    # tx.value 50 in, CALL(gas 0, to 0x2222, value 100, ...), then loop
    # forever: the rollback returns the input world, untouched
    hx = ("6000" * 2 + "6000" * 2 + "6064" + "612222" + "6000" + "f1" + "50"
          + "5b" + "610011" + "56")
    w = world_with(bundle_from_hex(hx), accounts=[(ACCT, 10**18), (AT, 500)])
    before = dict(w.accounts)
    w2, res = execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                        value=50, gas=4000, source=ACCT,
                                        destination=AT))
    assert res.halt == "OUT_OF_GAS"
    assert w2 is w
    assert w.accounts == before
    assert w2.balance(AT) == 500
    assert w2.balance(0x2222) == 0


def test_sstore_zero_clears_slot():
    w, res = run_raw("6005600055" + "6000600055" + "00")
    assert res.halt == "STOP"
    assert w.storage[AT] == {}


def test_committed_storage_is_independent_of_input_and_other_runs():
    # SLOAD slot 0, add 5, SSTORE slot 0: each run writes input + 5
    w = world_with(bundle_from_hex("600054" + "6005" + "01" + "600055" + "00"))
    w.storage[AT] = {0: 1}
    tx = Transaction(function_call="raw", call_data=RAW4, source=ACCT,
                     destination=AT)
    first, _ = execute_tx(w, tx)
    second, _ = execute_tx(w, tx)
    assert first.storage[AT] == second.storage[AT] == {0: 6}
    assert first.storage[AT] is not second.storage[AT]
    assert w.storage[AT] == {0: 1}

    first.storage[AT][0] = 99
    first.storage[AT][7] = 1
    assert w.storage[AT] == {0: 1}
    assert second.storage[AT] == {0: 6}
    third, _ = execute_tx(w, tx)
    assert third.storage[AT] == {0: 6}

    # running on top of a committed world leaves that world as it was
    fourth, _ = execute_tx(second, tx)
    assert fourth.storage[AT] == {0: 11}
    assert second.storage[AT] == {0: 6}


def test_value_transfer_moves_balance():
    # into a new accounts dict of int balances; the input's stays as it was
    w = world_with(bundle_from_hex("00"), accounts=[(ACCT, 1000)])
    before = dict(w.accounts)
    w2, _ = execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                      value=250, source=ACCT, destination=AT))
    assert w2.accounts == {ACCT: 750, AT: 250}
    assert all(type(b) is int for b in w2.accounts.values())
    assert w2.accounts is not w.accounts
    assert w.accounts == before


def test_balance_is_conserved():
    w, _ = run_raw("00", value=250, accounts=[(ACCT, 1000), (0x1002, 77)])
    assert sum(w.accounts.values()) == 1077


# -- errors --------------------------------------------------------------------


def test_unknown_destination():
    w = new_world([(ACCT, 10**18)])
    with pytest.raises(UnknownDestination):
        execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                  source=ACCT, destination=0xDEAD))


def test_malformed_calldata_under_four_bytes():
    w = world_with(bundle_from_hex("00"))
    with pytest.raises(MalformedCalldata):
        execute_tx(w, Transaction(function_call="raw", call_data=b"\x01\x02",
                                  source=ACCT, destination=AT))


def test_insufficient_balance():
    w = world_with(bundle_from_hex("00"), accounts=[(ACCT, 10)])
    with pytest.raises(InsufficientBalance):
        execute_tx(w, Transaction(function_call="raw", call_data=RAW4, value=11,
                                  source=ACCT, destination=AT))


def test_unknown_function_name():
    w = world_with(bundle_from_hex("00"))
    with pytest.raises(SctestError):
        execute_tx(w, Transaction(function_call="nope", args=(),
                                  source=ACCT, destination=AT))


def test_deploy_address_in_use():
    b = bundle_from_hex("00")
    w = world_with(b)
    with pytest.raises(AddressInUse):
        deploy(w, b, AT)


def test_duplicate_genesis_account():
    with pytest.raises(DuplicateAddress):
        new_world([(ACCT, 1), (ACCT, 2)])


def test_empty_genesis_rejected():
    with pytest.raises(ValueError):
        new_world([])


def _bundle_dir(tmp_path, world_json: str):
    (tmp_path / "contract.hex").write_text("00")
    (tmp_path / "abi.json").write_text('{"functions": []}')
    (tmp_path / "world.json").write_text(world_json)
    return tmp_path


@pytest.mark.parametrize(
    "world_json,path",
    [
        ('{"accounts": [{"balance": 1}]}', "$.accounts[0].address"),
        ('{"accounts": [{"address": "0x1001"}]}', "$.accounts[0].balance"),
        ('{"accounts": [{"address": "0x1001", "balance": "lots"}]}', "$.accounts[0].balance"),
        ('{"accounts": [{"address": "nowhere", "balance": 1}]}', "$.accounts[0].address"),
        ('{"accounts": ["0x1001"]}', "$.accounts[0]"),
        ('{"accounts": "0x1001"}', "$.accounts"),
        ('{"deploy_at": 1.5}', "$.deploy_at"),
        ('{"timestamp": "soon"}', "$.timestamp"),
        ('{"number": [1]}', "$.number"),
        ("[1]", "$"),
        ('{"accounts": [', "$"),
    ],
)
def test_a_malformed_world_json_is_a_schema_error_naming_the_field(
    tmp_path, world_json, path
):
    with pytest.raises(SchemaError) as e:
        load_bundle(_bundle_dir(tmp_path, world_json))
    assert e.value.path == path


def test_make_world_raises_a_schema_error_for_a_malformed_world_config():
    bundle = ContractBundle("t", b"\x00", [], world_config={"timestamp": "soon"})
    with pytest.raises(SchemaError) as e:
        make_world(bundle)
    assert e.value.path == "$.timestamp"


@pytest.mark.parametrize(
    "world_json,want",
    [
        ("{}", ([(0x1001, 10**18), (0x1002, 10**18)], 0xC0DE, 1_000_000, 1)),
        ('{"accounts": []}', ([(0x1001, 10**18), (0x1002, 10**18)], 0xC0DE, 1_000_000, 1)),
        (
            '{"accounts": [{"address": 4097, "balance": "7"}], "deploy_at": "0xbeef",'
            ' "timestamp": "5", "number": 2.0}',
            ([(0x1001, 7)], 0xBEEF, 5, 2),
        ),
    ],
)
def test_a_well_formed_world_json_gives_its_genesis(tmp_path, world_json, want):
    cfg = genesis_config(load_bundle(_bundle_dir(tmp_path, world_json)))
    assert (cfg["accounts"], cfg["deploy_at"], cfg["timestamp"], cfg["number"]) == want


# -- world values ------------------------------------------------------------


def test_deploy_leaves_its_input_and_shares_what_it_keeps():
    w, _ = run_raw("6005600055" + "00")  # a world whose storage at AT is {0: 5}
    accounts, deployed = dict(w.accounts), dict(w.deployed)
    storage = {a: dict(s) for a, s in w.storage.items()}
    other = bundle_from_hex("00", "other")
    w2 = deploy(w, other, 0xB0B)
    assert w.accounts == accounts and w.deployed == deployed
    assert w.storage == storage
    assert w2.storage[AT] is w.storage[AT]
    assert w2.deployed[AT] is w.deployed[AT]
    assert w2.block is w.block
    assert w2.storage[0xB0B] == {} and w2.deployed[0xB0B] is other
    assert list(w2.accounts.items()) == [*accounts.items(), (0xB0B, 0)]


def test_block_ctx_is_immutable():
    w = world_with(bundle_from_hex("00"))
    with pytest.raises(AttributeError):
        w.block.timestamp = 5


# -- dispatcher, ABI args, fallback -------------------------------------------


def _box_bundle() -> ContractBundle:
    a = Asm()
    store = FunctionSig("store", ("uint256",))
    load = FunctionSig("load", ())
    dispatcher(a, [(store.selector, "store"), (load.selector, "load")])
    a.func("store").op("JUMPDEST")
    a.push(4).op("CALLDATALOAD").push(0).op("SSTORE").op("STOP")
    a.end_func("store")
    a.func("load").op("JUMPDEST")
    a.push(0).op("SLOAD").push(0).op("MSTORE")
    a.push(32).push(0).op("RETURN")
    a.end_func("load")
    out = a.assemble()
    abi = parse_abi({"functions": [
        {"name": "store", "params": ["uint256"]},
        {"name": "load", "params": []},
    ]})
    return ContractBundle("box", out.bytecode, abi)


def test_dispatch_and_abi_encoding_round_trip():
    w = world_with(_box_bundle())
    w, res = execute_tx(w, Transaction(function_call="store", args=(1234,),
                                       source=ACCT, destination=AT))
    assert res.halt == "STOP"
    assert w.storage[AT] == {0: 1234}
    _, res = execute_tx(w, Transaction(function_call="load", args=(),
                                       source=ACCT, destination=AT))
    assert returned_word(res) == 1234


def test_unmatched_selector_without_fallback_is_empty_success():
    w = world_with(_box_bundle())
    _, res = execute_tx(w, Transaction(function_call="raw",
                                       call_data=bytes.fromhex("12345678"),
                                       source=ACCT, destination=AT))
    assert res.halt == "STOP"
    assert res.return_data == b""


def _fallback_bundle() -> ContractBundle:
    a = Asm()
    ping = FunctionSig("ping", ())
    dispatcher(a, [(ping.selector, "ping")])
    a.func("ping").op("JUMPDEST")
    a.push(1).push(0).op("SSTORE").op("STOP")
    a.end_func("ping")
    a.func("fallback").op("JUMPDEST")
    a.push(2).push(0).op("SSTORE").op("STOP")
    a.end_func("fallback")
    out = a.assemble()
    entry = out.functions["fallback"][0]
    abi = parse_abi({"functions": [
        {"name": "ping", "params": []},
        {"name": "fallback", "params": [], "entry_offset": entry},
    ]})
    return ContractBundle("fb", out.bytecode, abi)


def test_unmatched_selector_routes_to_fallback():
    w = world_with(_fallback_bundle())
    w2, res = execute_tx(w, Transaction(function_call="raw",
                                        call_data=bytes.fromhex("12345678"),
                                        source=ACCT, destination=AT))
    assert res.halt == "STOP"
    assert w2.storage[AT] == {0: 2}  # fallback body ran, not the dispatcher


def test_matched_selector_skips_fallback():
    w = world_with(_fallback_bundle())
    w2, _ = execute_tx(w, Transaction(function_call="ping", args=(),
                                      source=ACCT, destination=AT))
    assert w2.storage[AT] == {0: 1}


# -- inner calls ---------------------------------------------------------------


CALLEE_AT = 0xCA11


def _callee_bundle() -> ContractBundle:
    # any call: SSTORE(1, CALLER); return CALLVALUE word
    hx = "336001" + "55" + "34600052" + "60206000f3"
    return bundle_from_hex(hx, "callee")


def _caller_hex(kind: str, value: int = 0) -> str:
    # kind CALL: f1 pops gas,to,value,in_off,in_size,out_off,out_size
    push_args = "6000" + "6020"  # out_size=32... pushed in reverse below
    if kind == "f1":
        body = ("6020" + "6000"            # out_size 32, out_off 0
                + "6000" + "6000"          # in_size 0, in_off 0
                + f"60{value:02x}"         # value
                + "61ca11" + "6000" + "f1")  # to, gas, CALL
    else:
        body = ("6020" + "6000" + "6000" + "6000"
                + "61ca11" + "6000" + kind)
    # return (success, returned word) as two words
    return body + "602052" + "60406000f3"


def _call_world(kind: str, value: int = 0, static_inner=False):
    caller = bundle_from_hex(_caller_hex(kind, value), "caller")
    w = new_world([(ACCT, 10**18), (AT, 1000)])
    w = deploy(w, caller, AT)
    w = deploy(w, _callee_bundle(), CALLEE_AT)
    return execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                     source=ACCT, destination=AT))


def test_call_runs_callee_and_returns_success():
    w, res = _call_world("f1", value=9)
    assert res.halt == "RETURN"
    ret_word = int.from_bytes(res.return_data[0:32], "big")
    success = int.from_bytes(res.return_data[32:64], "big")
    assert success == 1
    assert ret_word == 9  # callee saw CALLVALUE 9
    assert w.storage[CALLEE_AT] == {1: AT}  # callee saw CALLER == caller contract
    assert w.balance(CALLEE_AT) == 9 and w.balance(AT) == 991


def test_call_trace_segments_interleave():
    _, res = _call_world("f1")
    addrs = [a for a, _ in res.trace]
    assert addrs == [AT, CALLEE_AT, AT]
    assert res.offsets(CALLEE_AT)[0] == 0


def test_delegatecall_keeps_storage_caller_value():
    w, res = _call_world("f4")
    ret_word = int.from_bytes(res.return_data[0:32], "big")
    success = int.from_bytes(res.return_data[32:64], "big")
    assert success == 1
    assert ret_word == 0  # outer callvalue propagated (0 here)
    # callee code wrote into the CALLER's storage, and saw the original sender
    assert w.storage[AT] == {1: ACCT}
    assert w.storage.get(CALLEE_AT, {}) == {}


def test_delegatecall_trace_and_coverage_go_to_the_callee_code():
    # A: PUSH1 0 x4, PUSH2 0x0b0b, PUSH1 0, DELEGATECALL, POP, STOP
    a = bundle_from_hex("6000" * 4 + "610b0b" + "6000" + "f4" + "50" + "00", "A")
    # B: eight JUMPDESTs, then SSTORE(0, 1) and STOP (offsets 0-13)
    b = bundle_from_hex("5b" * 8 + "6001" + "6000" + "55" + "00", "B")
    a_at, b_at = 0xA0A, 0xB0B
    w = deploy(deploy(new_world([(ACCT, 10**18)]), a, a_at), b, b_at)
    w2, res = execute_tx(w, Transaction(function_call="raw", call_data=RAW4,
                                        source=ACCT, destination=a_at))
    assert res.halt == "STOP"
    assert [addr for addr, _ in res.trace] == [a_at, b_at, a_at]
    b_starts = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 13]
    assert res.offsets(b_at) == b_starts
    # the callee's write and everything else stays with the caller
    assert w2.storage[a_at] == {0: 1} and w2.storage.get(b_at, {}) == {}
    cov = CoverageMap()
    merge_result(cov, res, w2)
    a_starts = {0, 2, 4, 6, 8, 11, 13, 14, 15}
    assert {o for o in range(16) if cov.covered(a_at, o)} == a_starts
    assert {o for o in range(14) if cov.covered(b_at, o)} == set(b_starts)
    assert cov.count(b_at) == len(b_starts)


def test_staticcall_forbids_writes():
    w, res = _call_world("fa")
    success = int.from_bytes(res.return_data[32:64], "big")
    assert success == 0  # callee SSTORE faulted under the static flag
    assert w.storage.get(CALLEE_AT, {}) == {}


def test_static_write_in_the_middle_of_a_run_charges_and_traces_up_to_it():
    # the callee's one run is CALLER PUSH1 SSTORE ... RETURN; its SSTORE
    # halts invalid, so the rest of the run is neither charged nor traced
    _, res = _call_world("fa")
    caller_code = bytes.fromhex(_caller_hex("fa"))
    callee_code = _callee_bundle().bytecode
    assert res.trace == (
        (AT, (0, 2, 4, 6, 8, 11, 13)),
        (CALLEE_AT, (0, 1, 3)),
        (AT, (14, 16, 17, 19, 21)),
    )
    code = {AT: caller_code, CALLEE_AT: callee_code}
    assert res.gas_used == sum(lookup(code[a][pc]).gas for a, seg in res.trace for pc in seg)
    assert res.gas_used == 756


def test_call_to_unknown_address_succeeds_empty():
    # CALL to 0xDEAD, no value
    hx = ("6000" + "6000" + "6000" + "6000" + "6000" + "61dead" + "6000" + "f1"
          + "600052" + "60206000f3")
    w, res = run_raw(hx)
    assert returned_word(res) == 1


def test_recursive_call_depth_capped():
    # contract calls itself; success word of the innermost frame is 0
    hx = ("6020" + "6000" + "6000" + "6000" + "6000" + "61c0de" + "6000" + "f1"
          + "600052" + "60206000f3")
    w, res = run_raw(hx)
    assert res.halt == "RETURN"
    # the outer frame and seven inner ones enter at offset 0; the call
    # past the cap runs no frame
    assert sum(seg[0] == 0 for _, seg in res.trace) == 8


def test_create_records_and_pushes_zero():
    # CREATE(value 0, off 0, size 0) -> push 0
    _, res = run_raw("600060006000f0" + "600052" + "60206000f3")
    assert returned_word(res) == 0


def test_create2_pops_four_words_and_pushes_zero():
    # 0x55; CREATE2(value 0, off 0, size 0, salt 7); return the pushed
    # word and the sentinel beneath CREATE2's operands
    _, res = run_raw("6055" + "6007600060006000f5" + "600052" + "602052"
                     + "60406000f3")
    assert res.return_data == (0).to_bytes(32, "big") + (0x55).to_bytes(32, "big")


def test_create_past_the_memory_cap_halts_out_of_gas():
    # CREATE(value 0, off MEM_LIMIT, size 1), then SSTORE(0, 1), cut off
    _, res = run_raw("6001" + "62" + MEM_LIMIT.to_bytes(3, "big").hex() + "6000f0"
                     + "6001600055" + "00")
    assert res.halt == "OUT_OF_GAS"
    assert res.offsets() == [0, 2, 6, 8]
    assert res.gas_used == 3 + 3 + 3 + 500  # the SSTORE's run gas came back


def test_log_under_a_static_context_halts_invalid_and_gives_back_the_rest_of_its_run():
    # PUSH1 0, PUSH1 0, LOG0, STOP, in one run: the STOP's 3 gas come back
    image = CodeImage.from_bytecode(bytes.fromhex("60006000a000"))
    trace: list = []
    halt = run_frame(image, b"", {}, {}, AT, ACCT, 0, 1, 1, 100, True, trace, [])
    assert halt == ("halt", "invalid", b"", 91)
    assert trace == [0, 2, 4]


def test_selfdestruct_records_and_stops():
    w, res = run_raw("6005600055" + "61beef" + "ff")
    assert res.halt == "STOP"
    assert w.storage[AT] == {0: 5}  # clean halt commits


# -- sequences and determinism -------------------------------------------------


def test_execute_sequence_folds_an_explicit_list():
    w = world_with(_box_bundle())
    txs = [
        Transaction(function_call="store", args=(3,), source=ACCT, destination=AT),
        Transaction(function_call="store", args=(8,), source=ACCT, destination=AT),
    ]
    w2, results = execute_sequence(w, txs)
    assert len(results) == 2
    assert w2.storage[AT] == {0: 8}
    assert w.storage[AT] == {}  # input world untouched


def test_sequence_error_propagates():
    w = world_with(_box_bundle())
    txs = [
        Transaction(function_call="store", args=(3,), source=ACCT, destination=AT),
        Transaction(function_call="raw", call_data=RAW4, source=ACCT,
                    destination=0xDEAD),
    ]
    with pytest.raises(UnknownDestination):
        execute_sequence(w, txs)


def test_execution_is_deterministic():
    txs = [
        Transaction(function_call="store", args=(41,), source=ACCT, destination=AT),
        Transaction(function_call="load", args=(), delay=5, source=ACCT,
                    destination=AT),
    ]
    outs = []
    for _ in range(2):
        w = world_with(_box_bundle())
        w2, results = execute_sequence(w, txs)
        outs.append((w2.storage_view(), w2.block.timestamp,
                     [(r.halt, r.return_data, r.gas_used, r.trace)
                      for r in results]))
    assert outs[0] == outs[1]


@settings(max_examples=25, deadline=None)
@given(vals=st.lists(st.integers(0, (1 << 256) - 1), min_size=1, max_size=5))
def test_last_store_wins(vals):
    w = world_with(_box_bundle())
    txs = [Transaction(function_call="store", args=(v,), source=ACCT,
                       destination=AT) for v in vals]
    w2, results = execute_sequence(w, txs)
    assert all(r.halt == "STOP" for r in results)
    expect = {0: vals[-1]} if vals[-1] else {}
    assert w2.storage[AT] == expect


# -- worlds are values ----------------------------------------------------------


PAYEE = 0x2002


def _toy_bundle() -> ContractBundle:
    """store(x) writes slot 0, load() returns it, send(to, amt) pays amt
    out of the contract's balance, spin() writes slot 1 and loops until
    it runs out of gas."""
    a = Asm()
    sigs = {
        "store": FunctionSig("store", ("uint256",)),
        "load": FunctionSig("load", ()),
        "send": FunctionSig("send", ("address", "uint256")),
        "spin": FunctionSig("spin", ()),
    }
    dispatcher(a, [(s.selector, name) for name, s in sigs.items()])
    a.func("store").op("JUMPDEST")
    a.push(4).op("CALLDATALOAD").push(0).op("SSTORE").op("STOP")
    a.end_func("store")
    a.func("load").op("JUMPDEST")
    a.push(0).op("SLOAD").push(0).op("MSTORE")
    a.push(32).push(0).op("RETURN")
    a.end_func("load")
    a.func("send").op("JUMPDEST")
    # CALL(gas 0, to, amt, in 0/0, out 0/0), then drop the success flag
    a.push(0).push(0).push(0).push(0)
    a.push(36).op("CALLDATALOAD").push(4).op("CALLDATALOAD").push(0)
    a.op("CALL").op("POP").op("STOP")
    a.end_func("send")
    a.func("spin").op("JUMPDEST")
    a.push(1).push(1).op("SSTORE")
    a.label("spin_loop").op("JUMPDEST").jump("spin_loop")
    a.end_func("spin")
    out = a.assemble()
    abi = parse_abi({"functions": [
        {"name": name, "params": [p.canonical() for p in s.params]}
        for name, s in sigs.items()
    ]})
    return ContractBundle("toy", out.bytecode, abi)


TOY = _toy_bundle()

# (function, args, value, gas), delay, source
TOY_TX = st.tuples(
    st.one_of(
        st.builds(lambda v, value: ("store", (v,), value, 10_000_000),
                  st.integers(0, (1 << 256) - 1), st.sampled_from([0, 0, 3])),
        st.just(("load", (), 0, 10_000_000)),
        st.builds(lambda to, amt: ("send", (to, amt), 0, 10_000_000),
                  st.sampled_from([PAYEE, ACCT, 0xDEAD]), st.integers(0, 400)),
        st.just(("spin", (), 0, 3000)),  # OUT_OF_GAS: rolled back
    ),
    st.integers(0, 3),
    st.sampled_from([ACCT, PAYEE]),
)


def _toy_tx(spec) -> Transaction:
    (fn, args, value, gas), delay, source = spec
    return Transaction(function_call=fn, args=args, value=value, gas=gas,
                       delay=delay, source=source, destination=AT)


def _toy_world():
    return world_with(TOY, accounts=[(ACCT, 1000), (PAYEE, 50), (AT, 500)])


def _world_state(w):
    return (
        w.storage_view(),
        dict(w.accounts),
        (w.block.timestamp, w.block.number),
    )


def _outcome(res):
    return (res.halt, res.return_data, res.gas_used, res.trace)


@settings(max_examples=40, deadline=None)
@given(specs=st.lists(TOY_TX, min_size=1, max_size=6))
def test_execute_tx_never_changes_the_world_it_ran_from(specs):
    worlds = [_toy_world()]
    states = [_world_state(worlds[0])]
    for spec in specs:
        tx = _toy_tx(spec)
        world = worlds[-1]
        before = _world_state(world)
        after, res = execute_tx(world, tx)
        again, res_again = execute_tx(world, tx)
        # the input world is as it was, and a second run from it agrees
        assert _world_state(world) == before
        assert _world_state(again) == _world_state(after)
        assert _outcome(res_again) == _outcome(res)
        if res.halt == "OUT_OF_GAS":
            assert after.storage_view() == before[0]
        # what the result world shares with its input; with nothing
        # changed, it is the input world itself
        assert (after.block is world.block) == (tx.delay == 0)
        unchanged = _world_state(after)[:2] == before[:2]
        assert (after is world) == (unchanged and tx.delay == 0)
        if tx.value == 0 and tx.function_call != "send":
            assert after.accounts is world.accounts
        elif tx.value and res.halt != "OUT_OF_GAS":
            assert after.accounts is not world.accounts
        worlds.append(after)
        states.append(_world_state(after))
    # running on from each result world left every earlier world alone
    assert [_world_state(w) for w in worlds] == states


def test_a_call_that_changes_nothing_returns_the_world_it_ran_from():
    def call(w, fn, *args, delay=0):
        return execute_tx(w, Transaction(function_call=fn, args=args, delay=delay,
                                         source=ACCT, destination=AT))

    stored, _ = call(_toy_world(), "store", 7)
    after, res = call(stored, "load")
    assert returned_word(res) == 7
    assert after is stored
    assert after.storage[AT] is stored.storage[AT]
    # writing a slot's own value back changes nothing either
    assert call(stored, "store", 7)[0] is stored
    # a delay gives a new world with a new block, sharing the storage
    later, _ = call(stored, "load", delay=3)
    assert later is not stored and later.block is not stored.block
    assert later.storage is stored.storage
    # a write gives a new storage dict and a new map
    changed, _ = call(stored, "store", 8)
    assert changed.storage is not stored.storage
    assert changed.storage[AT] == {0: 8} and stored.storage[AT] == {0: 7}


# -- argument normalisation ----------------------------------------------------


def reference_normalize_args(args) -> tuple:
    """normalize_args as it always builds a new tuple: an int (a bool
    kept, another int subclass as its int), bytes, a bytearray, or a list
    or tuple of ints that are not bools; anything else is refused."""
    out = []
    for a in args:
        if isinstance(a, (list, tuple)):
            if any(isinstance(x, bool) or not isinstance(x, int) for x in a):
                raise TypeMismatch("an array element no ABI type encodes")
            out.append(tuple(int(x) for x in a))
        elif isinstance(a, (bytes, bytearray)):
            out.append(bytes(a))
        elif isinstance(a, int):
            out.append(a if isinstance(a, bool) else int(a))
        else:
            raise TypeMismatch("an argument no ABI type encodes")
    return tuple(out)


def _shape(v):
    """A value with the type of every part, so 1 and True differ."""
    if isinstance(v, (list, tuple)):
        return type(v), tuple(_shape(x) for x in v)
    return type(v), v


def _normalized(normalize, args):
    """The shape of normalize(args), or the class of what it raised."""
    try:
        return _shape(normalize(args))
    except Exception as e:  # the class is what must agree
        return type(e)


class _Word(int):
    """An int subclass: normalized to its plain int value."""


_refused = st.floats(allow_nan=False) | st.text(max_size=2) | st.none()
_scalars = (
    st.integers(0, 2**256 - 1)
    | st.booleans()
    | st.binary(max_size=4)
    | st.integers(0, 9).map(_Word)
)
_arrays = st.lists(
    st.integers(0, 2**256 - 1) | st.booleans() | st.integers(0, 9).map(_Word)
    | _refused,
    max_size=3,
)
_args = st.lists(
    _scalars
    | st.binary(max_size=4).map(bytearray)
    | _arrays
    | _arrays.map(tuple)
    | _refused,
    max_size=4,
)


@settings(max_examples=300, deadline=None)
@given(_args, st.booleans())
def test_normalize_args_matches_reference_and_keeps_canonical_tuples(args, as_tuple):
    if as_tuple:
        args = tuple(args)
    ref = _normalized(reference_normalize_args, args)
    assert _normalized(lambda a: normalize_args(a, "f"), args) == ref
    if ref is TypeMismatch:
        return
    out = normalize_args(args, "f")
    if _shape(args) == ref:  # canonical already: the same object
        assert out is args
    assert normalize_args(out, "f") is out


def test_transaction_normalises_args_when_built_and_replaced():
    tx = Transaction("f", [1, [2, 3], bytearray(b"ab")], destination=AT)
    assert tx.args == (1, (2, 3), b"ab")
    moved = tx._replace(args=[[4], 5], value=9)
    assert type(moved) is Transaction
    assert moved.args == ((4,), 5)
    assert (moved.function_call, moved.destination, moved.value) == ("f", AT, 9)
    assert tx._replace(args=None).args is None
    with pytest.raises(ValueError):
        tx._replace(nonsense=1)


def test_transaction_make_passes_the_argument_gate():
    with pytest.raises(TypeMismatch):
        Transaction._make(("f", (1.5,), None, 0, 0, 0, 0, 0))
    tx = Transaction("f", (1, (2, 3), b"ab"), destination=AT, value=9)
    made = Transaction._make(tuple(tx))
    assert type(made) is Transaction
    assert made == tx
