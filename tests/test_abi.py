import pytest
from hypothesis import given, settings, strategies as st

from sctest.bytecode import keccak256, parse_abi
from sctest.bytecode.abi import AbiType, FunctionSig, encode_args, encode_call
from sctest.errors import ArityMismatch, SchemaError, TypeMismatch, ValueOutOfRange


def sig(name, *params, **kw):
    return FunctionSig(name, tuple(AbiType.parse(p) for p in params), **kw)


def test_parse_abi_selector():
    sigs = parse_abi(
        {"functions": [{"name": "deposit", "params": ["address", "uint256", "uint256"]}]}
    )
    assert sigs[0].selector == keccak256(b"deposit(address,uint256,uint256)")[:4]


def test_parse_abi_empty():
    assert parse_abi({"functions": []}) == []


def test_parse_abi_unknown_type():
    with pytest.raises(SchemaError) as e:
        parse_abi({"functions": [{"name": "f", "params": ["uint13"]}]})
    assert "params[0]" in str(e.value)


def test_parse_abi_duplicate():
    fn = {"name": "f", "params": ["uint256"]}
    with pytest.raises(SchemaError):
        parse_abi({"functions": [fn, dict(fn)]})


def test_parse_abi_repeated_param_name():
    fn = {"name": "f", "params": ["uint8", "uint256"], "param_names": ["x", "x"]}
    with pytest.raises(SchemaError) as e:
        parse_abi({"functions": [{"name": "g", "params": []}, fn]})
    assert "$.functions[1].param_names" in str(e.value)
    assert "'x'" in str(e.value)


def test_function_sig_repeated_param_name():
    with pytest.raises(ValueError, match="'a' repeats"):
        FunctionSig("g", ("uint8", "uint8"), param_names=("a", "a"))


def test_function_sig_keeps_param_names_as_a_tuple():
    names = ["a"]
    s = FunctionSig("f", ("uint8",), param_names=names)
    names[0] = "b"
    assert s.param_names == ("a",)
    assert hash(s) == hash(FunctionSig("f", ("uint8",), param_names=("a",)))


def test_property_prefix_rule():
    sigs = parse_abi(
        {
            "functions": [
                {"name": "prop_solvent", "params": []},
                {"name": "deposit", "params": []},
                {"name": "check", "params": [], "is_property": True},
            ]
        }
    )
    assert [s.is_property for s in sigs] == [True, False, True]


def test_encode_single_word():
    f = sig("f", "uint256")
    data = encode_call(f, [1])
    assert data[:4] == f.selector
    assert data[4:] == (1).to_bytes(32, "big")
    assert len(data) == 36


def test_encode_checkbalance_head_tail():
    # checkBalance(uint256[],uint256) with ([8,1,1], 2)
    f = sig("checkBalance", "uint256[]", "uint256")
    body = encode_args(f.params, ([8, 1, 1], 2))
    words = [body[i : i + 32] for i in range(0, len(body), 32)]
    assert int.from_bytes(words[0], "big") == 0x40  # offset of the tail
    assert int.from_bytes(words[1], "big") == 2
    assert [int.from_bytes(w, "big") for w in words[2:]] == [3, 8, 1, 1]


def test_encode_bytes_padding():
    f = sig("g", "bytes")
    body = encode_args(f.params, (b"\x03\x04",))
    assert int.from_bytes(body[0:32], "big") == 0x20
    assert int.from_bytes(body[32:64], "big") == 2
    assert body[64:66] == b"\x03\x04"
    assert body[66:96] == bytes(30)
    assert len(body) == 96


def test_encode_bool_and_address():
    f = sig("h", "bool", "address")
    body = encode_args(f.params, (True, 0xDEAD))
    assert int.from_bytes(body[0:32], "big") == 1
    assert int.from_bytes(body[32:64], "big") == 0xDEAD


def test_value_out_of_range():
    with pytest.raises(ValueOutOfRange):
        encode_args((AbiType.parse("uint8"),), (256,))


def test_arity_and_type_mismatch():
    with pytest.raises(ArityMismatch):
        encode_args((AbiType.parse("uint256"),), (1, 2))
    with pytest.raises(TypeMismatch):
        encode_args((AbiType.parse("uint256"),), ("nope",))
    with pytest.raises(TypeMismatch):
        encode_args((AbiType.parse("bytes"),), (7,))


def test_canonical_names():
    for t in ("uint8", "uint256", "address", "bool", "bytes", "uint64[]"):
        assert AbiType.parse(t).canonical() == t
    with pytest.raises(ValueError):
        AbiType.parse("int256")
    with pytest.raises(ValueError):
        AbiType.parse("bytes[]")


@given(
    st.lists(st.integers(0, 2**256 - 1), max_size=5),
    st.integers(0, 2**256 - 1),
)
def test_dynamic_layout_structure(arr, x):
    f = sig("p", "uint256[]", "uint256")
    body = encode_args(f.params, (arr, x))
    assert len(body) == 64 + 32 + 32 * len(arr)
    assert int.from_bytes(body[64:96], "big") == len(arr)


# -- encoder differential ------------------------------------------------------


def _reference_validate(t, value):
    """AbiType.validate as a walk that checks array elements through an
    element AbiType of their own."""
    k = t.kind
    if k == "uint" or k == "address":
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeMismatch(f"{t.canonical()} needs an integer")
        limit = 1 << (160 if k == "address" else t.bits)
        if not 0 <= value < limit:
            raise ValueOutOfRange(f"{value} out of range for {t.canonical()}")
    elif k == "bool":
        if not isinstance(value, int) or value not in (0, 1):
            raise TypeMismatch("bool needs true/false")
    elif k == "bytes":
        if not isinstance(value, (bytes, bytearray)):
            raise TypeMismatch("bytes needs a byte-string")
    else:
        if not isinstance(value, (list, tuple)):
            raise TypeMismatch(f"{t.canonical()} needs a list")
        for v in value:
            _reference_validate(AbiType("uint", t.bits), v)


def reference_encode_args(params, args) -> bytes:
    """Head/tail ABI encoding in two passes: validate every argument,
    build heads with placeholders for the dynamic ones, then patch in
    each tail's offset."""
    word = lambda v: v.to_bytes(32, "big")  # noqa: E731
    args = tuple(args)
    if len(args) != len(params):
        raise ArityMismatch(f"expected {len(params)} args, got {len(args)}")
    for t, v in zip(params, args):
        _reference_validate(t, v)
    heads, tails = [], []
    for t, v in zip(params, args):
        if not t.is_dynamic:
            heads.append(word(1 if v else 0) if t.kind == "bool" else word(int(v)))
            tails.append(b"")
        else:
            heads.append(None)
            if t.kind == "bytes":
                payload = bytes(v)
                padded = payload.ljust((len(payload) + 31) // 32 * 32, b"\x00")
                tails.append(word(len(payload)) + padded)
            else:
                tails.append(word(len(v)) + b"".join(word(int(x)) for x in v))
    head_size = 32 * len(params)
    out_heads, out_tail = bytearray(), bytearray()
    for h, t in zip(heads, tails):
        if h is None:
            out_heads.extend(word(head_size + len(out_tail)))
            out_tail.extend(t)
        else:
            out_heads.extend(h)
    return bytes(out_heads + out_tail)


TYPE_NAMES = (
    [f"uint{n}" for n in (8, 16, 32, 64, 128, 256)]
    + ["address", "bool", "bytes"]
    + [f"uint{n}[]" for n in (8, 16, 32, 64, 128, 256)]
)


def _valid_value(t: AbiType):
    if t.kind in ("uint", "address"):
        return st.integers(0, (1 << t.bits) - 1)
    if t.kind == "bool":
        return st.booleans() | st.sampled_from([0, 1])
    if t.kind == "bytes":
        return st.binary(max_size=70) | st.binary(max_size=40).map(bytearray)
    elems = st.lists(st.integers(0, (1 << t.bits) - 1), max_size=4)
    return elems | elems.map(tuple)


def _near_miss(t: AbiType):
    """Values just outside t: one past either end, a bool for a number,
    and arrays holding one such element among valid ones."""
    edge = st.sampled_from([-1, 1 << t.bits, True, False])
    if t.kind != "array":
        return edge
    return st.builds(
        lambda xs, bad, i: xs[:i] + [bad] + xs[i:],
        st.lists(st.integers(0, (1 << t.bits) - 1), max_size=3),
        edge,
        st.integers(0, 3),
    )


ANY_VALUE = st.one_of(
    st.integers(-2, 1 << 257),
    st.booleans(),
    st.binary(max_size=3),
    st.text(max_size=2),
    st.none(),
    st.lists(st.one_of(st.integers(-1, 1 << 257), st.booleans()), max_size=3),
)


FAULTS = ("none", "near", "any", "drop", "extra")


@st.composite
def encodings(draw, fault):
    """A parameter list with valid arguments and then the given fault:
    none, one argument just outside its type ("near") or of any value,
    or one argument too few or too many."""
    params = tuple(
        AbiType.parse(n)
        for n in draw(st.lists(st.sampled_from(TYPE_NAMES), min_size=1, max_size=4))
    )
    args = [draw(_valid_value(t)) for t in params]
    i = draw(st.integers(0, len(params) - 1))
    if fault == "near":
        args[i] = draw(_near_miss(params[i]))
    elif fault == "any":
        args[i] = draw(ANY_VALUE)
    elif fault == "drop":
        args.pop()
    elif fault == "extra":
        args.append(draw(ANY_VALUE))
    return params, args


def _outcome(encode, params, args):
    try:
        return encode(params, args)
    except Exception as e:  # the class is what must agree
        return type(e)


@pytest.mark.parametrize("fault", FAULTS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_encode_args_matches_the_two_pass_reference(fault, data):
    params, args = data.draw(encodings(fault))
    assert _outcome(encode_args, params, args) == _outcome(
        reference_encode_args, params, args
    )


@pytest.mark.parametrize(
    "types, args, error",
    [
        (("uint256",), (1, 2), ArityMismatch),
        (("uint8[]", "bytes"), ([1],), ArityMismatch),
        (("bytes", "uint256"), (b"", "7"), TypeMismatch),
        (("uint256[]",), (5,), TypeMismatch),
        (("uint8[]",), ([1, 256],), ValueOutOfRange),
        (("uint16[]",), ([-1],), ValueOutOfRange),
        (("uint8[]",), ([1, True],), TypeMismatch),
        (("bool",), (2,), TypeMismatch),
        (("bool",), (1.0,), TypeMismatch),
    ],
)
def test_encode_args_errors_match_the_reference(types, args, error):
    params = tuple(AbiType.parse(t) for t in types)
    assert _outcome(reference_encode_args, params, args) is error
    assert _outcome(encode_args, params, args) is error
