"""Keccak-256 oracle tests.

Expected digests are the published Keccak test vectors (pre-SHA3
padding), frozen here before the implementation was written.  The
unrolled keccak-f[1600] is checked against the loop-form reference
below, and the single-block memo against the uncached sponge.
"""

import pytest
from hypothesis import example, given, strategies as st

from sctest._kernels import keccak_py
from sctest.bytecode.hashing import keccak256, selector

# published vectors: empty message, "abc", and the 448-bit message
VECTORS = [
    (b"", "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"),
    (b"abc", "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "45d3b367a6904e6e8d502ee04999a7c27647f91fa845d456525fd352ae3d7371",
    ),
]


@pytest.mark.parametrize("message,digest", VECTORS)
def test_published_vectors(message, digest):
    assert keccak256(message).hex() == digest


def test_selector_transfer():
    assert selector("transfer(address,uint256)").hex() == "a9059cbb"


def test_selector_is_prefix_of_digest():
    sig = "deposit(address,uint256,uint256)"
    assert selector(sig) == keccak256(sig.encode())[:4]


@given(st.binary(max_size=500))
def test_digest_shape(data):
    d = keccak256(data)
    assert isinstance(d, bytes) and len(d) == 32
    assert keccak256(data) == d


def test_rate_boundaries():
    # single-byte pad (len % 136 == 135) and full-block inputs both work
    for n in (0, 1, 135, 136, 137, 271, 272, 400):
        a = keccak256(b"\x00" * n)
        b = keccak256(b"\x01" + b"\x00" * (n - 1)) if n else None
        assert len(a) == 32
        if b is not None:
            assert a != b


# -- the unrolled permutation and the single-block memo ---------------------

_LANE = (1 << 64) - 1


def _reference_tables() -> tuple[tuple[int, ...], tuple[int, ...]]:
    # rho rotation offsets and pi lane targets, lane index x + 5y
    rot = [0] * 25
    x, y = 1, 0
    for t in range(24):
        rot[x + 5 * y] = ((t + 1) * (t + 2) // 2) % 64
        x, y = y, (2 * x + 3 * y) % 5
    pi = [0] * 25
    for xx in range(5):
        for yy in range(5):
            pi[xx + 5 * yy] = yy + 5 * ((2 * xx + 3 * yy) % 5)
    return tuple(rot), tuple(pi)


_REF_ROT, _REF_PI = _reference_tables()


def f1600_reference(lanes: list[int]) -> None:
    """keccak-f[1600] as a loop over the step mappings, in place."""
    for rc in keccak_py._RC:
        # theta
        c = [
            lanes[i] ^ lanes[i + 5] ^ lanes[i + 10] ^ lanes[i + 15] ^ lanes[i + 20]
            for i in range(5)
        ]
        for i in range(5):
            t = c[(i + 4) % 5] ^ (
                ((c[(i + 1) % 5] << 1) | (c[(i + 1) % 5] >> 63)) & _LANE
            )
            for j in range(i, 25, 5):
                lanes[j] ^= t
        # rho + pi
        b = [0] * 25
        for i in range(25):
            r = _REF_ROT[i]
            v = lanes[i]
            b[_REF_PI[i]] = ((v << r) | (v >> (64 - r))) & _LANE if r else v
        # chi
        for yy in range(0, 25, 5):
            row = b[yy : yy + 5]
            for xx in range(5):
                lanes[yy + xx] = row[xx] ^ (
                    (row[(xx + 1) % 5] ^ _LANE) & row[(xx + 2) % 5]
                )
        # iota
        lanes[0] ^= rc


@given(st.lists(st.integers(0, _LANE), min_size=25, max_size=25))
@example([0] * 25)
@example([_LANE] * 25)
@example([1 << 63] * 25)
@example(list(range(25)))
def test_unrolled_round_matches_reference(state):
    fast, ref = list(state), list(state)
    keccak_py._f1600(fast)
    f1600_reference(ref)
    assert fast == ref


@given(st.binary(max_size=300))
def test_memo_matches_uncached_sponge(data):
    want = keccak_py._sponge(data)
    assert keccak_py.keccak256(data) == want
    assert keccak_py.keccak256(data) == want  # second call may be a memo hit
    assert keccak_py.keccak256(bytearray(data)) == want
    assert keccak_py.keccak256(memoryview(data)) == want


def test_memo_covers_only_inputs_under_one_block(monkeypatch):
    monkeypatch.setattr(keccak_py, "_MEMO", {})
    rate = keccak_py._RATE
    for n in (0, 1, rate - 2, rate - 1, rate, rate + 1, 2 * rate):
        data = bytes(i % 256 for i in range(n))
        assert keccak_py.keccak256(data) == keccak_py._sponge(data)
        assert (data in keccak_py._MEMO) == (n < rate)


def test_memo_key_is_a_copy_of_mutable_input(monkeypatch):
    monkeypatch.setattr(keccak_py, "_MEMO", {})
    buf = bytearray(b"abc")
    first = keccak_py.keccak256(buf)
    buf[0] ^= 1
    assert keccak_py.keccak256(buf) == keccak_py._sponge(bytes(buf)) != first
    assert keccak_py.keccak256(b"abc") == first


def test_memo_is_bounded_and_drops_oldest_first(monkeypatch):
    monkeypatch.setattr(keccak_py, "_MEMO", {})
    cap = keccak_py._MEMO_CAP
    assert cap == 4096
    inputs = [i.to_bytes(4, "big") for i in range(cap + 100)]
    for data in inputs:
        keccak_py.keccak256(data)
        assert len(keccak_py._MEMO) <= cap
    assert len(keccak_py._MEMO) == cap
    assert inputs[0] not in keccak_py._MEMO and inputs[99] not in keccak_py._MEMO
    assert inputs[100] in keccak_py._MEMO and inputs[-1] in keccak_py._MEMO
    # an evicted input still hashes to its digest
    assert keccak_py.keccak256(inputs[0]) == keccak_py._sponge(inputs[0])
