import pytest
from hypothesis import given, strategies as st

from sctest.bytecode import decode, encode
from sctest.coverage import disassembly_lines
from sctest.errors import TruncatedImmediate
from sctest.evm import ContractBundle


def test_push_add_sequence():
    instrs = decode(bytes.fromhex("6001600101"))
    assert [(i.offset, i.name, i.imm) for i in instrs] == [
        (0, "PUSH1", 1),
        (2, "PUSH1", 1),
        (4, "ADD", None),
    ]


def test_empty():
    assert decode(b"") == []


def test_truncated_immediate():
    with pytest.raises(TruncatedImmediate) as e:
        decode(bytes.fromhex("62ff"))
    assert e.value.offset == 0 and e.value.want == 3 and e.value.have == 1


def test_unknown_byte_decodes_invalid():
    instrs = decode(bytes.fromhex("60010b00"))  # 0x0b unused in the subset
    assert instrs[1].name == "INVALID"
    assert instrs[1].size == 1
    assert instrs[2].name == "STOP"


def test_push32():
    code = bytes([0x7F]) + b"\xab" * 32 + b"\x00"
    instrs = decode(code)
    assert instrs[0].name == "PUSH32"
    assert instrs[0].imm == int.from_bytes(b"\xab" * 32, "big")
    assert instrs[1].offset == 33


@given(st.binary(max_size=300))
def test_totality_and_roundtrip(data):
    try:
        instrs = decode(data)
    except TruncatedImmediate:
        return
    assert sum(i.size for i in instrs) == len(data)
    offs = [i.offset for i in instrs]
    assert offs == sorted(offs)
    assert encode(instrs) == data


def test_disassembly_format():
    bundle = ContractBundle("bare", bytes.fromhex("600a565b00"), [])
    assert disassembly_lines(bundle) == [
        (0, "0x0000 PUSH1 0xa"),
        (2, "0x0002 JUMP"),
        (3, "0x0003 JUMPDEST"),
        (4, "0x0004 STOP"),
    ]
