from sctest.bytecode import build_cfg, parse_abi
from sctest.bytecode.asm import Asm, dispatcher
from sctest.bytecode.cfg import resolve_entries


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
