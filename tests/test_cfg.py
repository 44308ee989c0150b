"""CFG recovery: blocks, edges, dispatch and body ranges, and the block
ends the frame kernel's runs share."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sctest.bytecode import build_cfg, parse_abi
from sctest.bytecode.asm import Asm, dispatcher
from sctest.bytecode.cfg import resolve_entries
from sctest.bytecode.opcodes import OPCODES, TERMINATORS, by_name
from sctest.evm.image import RUN_ENDS, CodeImage


def test_straight_line_single_block():
    cfg = build_cfg(bytes.fromhex("6002600301 00".replace(" ", "")))
    assert len(cfg.blocks) == 1
    blk = cfg.blocks[0]
    assert blk.terminator == "STOP"
    assert blk.succs == ()


def test_jumpi_two_successors():
    a = Asm()
    a.push(1).jumpi("yes").op("STOP")
    a.label("yes").op("JUMPDEST").op("STOP")
    cfg = build_cfg(a.assemble().bytecode)
    first = cfg.blocks[0]
    assert len(first.succs) == 2
    assert not first.unresolved_jump


def test_unresolved_jump_marked():
    # jump target comes from calldata: not resolvable statically
    code = bytes.fromhex("600035565b00")  # PUSH1 0; CALLDATALOAD; JUMP; JUMPDEST; STOP
    cfg = build_cfg(code)
    assert cfg.blocks[0].unresolved_jump
    assert cfg.blocks[0].succs == ()


def test_block_partition_properties():
    a = Asm()
    a.push(1).jumpi("a").op("STOP")
    a.label("a").op("JUMPDEST").push(0).jumpi("b").op("STOP")
    a.label("b").op("JUMPDEST").op("STOP")
    cfg = build_cfg(a.assemble().bytecode)
    seen = {}
    for start in cfg.order:
        for ins in cfg.blocks[start].instrs:
            assert ins.offset not in seen
            seen[ins.offset] = start
    assert set(seen) == {i.offset for i in cfg.instrs}
    for start in cfg.order:
        blk = cfg.blocks[start]
        if blk.terminator in ("STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"):
            assert blk.succs == ()
        assert len(blk.succs) <= 2


def test_a_byte_outside_the_table_ends_its_block_as_invalid_does():
    # PUSH1 1; <byte>; PUSH1 2; STOP: the kernel halts at the byte
    def shape(mid):
        cfg = build_cfg(bytes([0x60, 1, mid, 0x60, 2, 0x00]))
        return [
            (start, [i.offset for i in blk.instrs], blk.succs)
            for start, blk in cfg.blocks.items()
        ]

    assert shape(0x0C) == shape(by_name("INVALID").code) == [
        (0, [0, 2], ()),
        (3, [3, 5], ()),
    ]


# spelled out here, not read from TERMINATORS, which the test checks
_LEAVES = {
    by_name(n).code
    for n in ("JUMP", "JUMPI", "STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT")
}
_OUTSIDE = sorted(set(range(256)).difference(OPCODES))


def _leaves(code: int) -> bool:
    """The instruction jumps or ends the frame, so nothing runs after it
    in the same straight line."""
    return code in _LEAVES or code not in OPCODES


def _one_byte(names) -> st.SearchStrategy:
    return st.sampled_from([bytes([by_name(n).code]) for n in names])


_PIECES = st.one_of(
    _one_byte(["JUMP", "JUMPI", "JUMPDEST"]),
    st.integers(0, 48).map(lambda v: bytes([0x60, v])),  # PUSH1, often a target
    st.integers(0, 0xFFFF).map(lambda v: b"\x61" + v.to_bytes(2, "big")),
    _one_byte(["STOP", "RETURN", "REVERT", "INVALID", "SELFDESTRUCT"]),
    _one_byte(["CALL", "DELEGATECALL", "STATICCALL", "CREATE", "CREATE2"]),
    st.sampled_from([bytes([c]) for c in _OUTSIDE]),
    _one_byte(["ADD", "SHA3", "GAS", "DUP1", "SWAP1"]),
)


@settings(max_examples=200, deadline=None)
@given(code=st.lists(_PIECES, max_size=24).map(b"".join))
def test_blocks_and_kernel_runs_end_at_the_same_bytes(code):
    cfg = build_cfg(code)
    image = CodeImage.from_bytecode(code)
    for blk in cfg.blocks.values():
        assert not any(_leaves(i.code) for i in blk.instrs[:-1]), code.hex()
        last = blk.instrs[-1]
        if _leaves(last.code):
            assert image.runs[last.offset][0] == (last.offset,), code.hex()
    for ins in cfg.instrs:
        run = image.runs[ins.offset][0]
        assert not any(_leaves(code[o]) for o in run[:-1]), code.hex()
    for c in _OUTSIDE:  # a byte outside the table executes as INVALID
        assert c in TERMINATORS and c in RUN_ENDS


def three_fn_bundle():
    abi = parse_abi(
        {
            "functions": [
                {"name": "alpha", "params": ["uint256"]},
                {"name": "beta", "params": []},
                {"name": "gamma", "params": ["address"]},
            ]
        }
    )
    a = Asm()
    dispatcher(a, [(s.selector, s.name) for s in abi])
    for s in abi:
        a.func(s.name)
        a.op("JUMPDEST").push(0).op("POP").op("STOP")
        a.end_func(s.name)
    return a.assemble(), abi


def test_dispatcher_recovery():
    res, abi = three_fn_bundle()
    cfg = build_cfg(res.bytecode)
    assert set(cfg.dispatch) == {s.selector for s in abi}


def test_body_range_inference():
    res, abi = three_fn_bundle()
    cfg = build_cfg(res.bytecode)
    resolved = resolve_entries(cfg, abi)
    for sig in resolved:
        entry, declared = res.functions[sig.name]
        assert sig.entry_offset == entry
        lo, hi = sig.body_range
        assert (lo, hi) == declared
