"""Keccak-256 oracle tests.

Expected digests are the published Keccak test vectors (pre-SHA3
padding), frozen here before the implementation was written.  The
compiled sponge (sctest._kernels.keccak) is held by a hypothesis
differential to a reference sponge written here over the loop form of
keccak-f[1600], whose round constants come from the specification's
LFSR rather than from a table.
"""

import re
import shlex
import struct
import sys

import pytest
from hypothesis import example, given, strategies as st

from sctest._kernels import keccak
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


# -- reference sponge over the loop-form permutation ------------------------

_LANE = (1 << 64) - 1
_RATE = 136  # bytes absorbed per permutation, for a 256-bit digest


def _lfsr_bit(t: int) -> int:
    # rc(t) of the Keccak reference: x^8 + x^6 + x^5 + x^4 + 1 from R = 1
    r = 1
    for _ in range(t % 255):
        r <<= 1
        if r & 0x100:
            r ^= 0x171
    return r & 1


def _round_constants() -> tuple[int, ...]:
    return tuple(
        sum(_lfsr_bit(j + 7 * i) << ((1 << j) - 1) for j in range(7))
        for i in range(24)
    )


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


_REF_RC = _round_constants()
_REF_ROT, _REF_PI = _reference_tables()


def f1600_reference(lanes: list[int]) -> None:
    """keccak-f[1600] as a loop over the step mappings, in place."""
    for rc in _REF_RC:
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


def sponge_reference(data: bytes) -> bytes:
    """Keccak-256 with the legacy 0x01 padding, over f1600_reference."""
    pad = _RATE - len(data) % _RATE
    padded = bytearray(data) + bytes(pad)
    padded[len(data)] ^= 0x01
    padded[-1] ^= 0x80
    lanes = [0] * 25
    for pos in range(0, len(padded), _RATE):
        for j, w in enumerate(struct.unpack_from("<17Q", padded, pos)):
            lanes[j] ^= w
        f1600_reference(lanes)
    return struct.pack("<4Q", *lanes[:4])


def test_lfsr_round_constants_start_as_published():
    assert _REF_RC[:3] == (0x1, 0x8082, 0x800000000000808A)
    assert _REF_RC[-1] == 0x8000000080008008


@pytest.mark.parametrize("message,digest", VECTORS)
def test_reference_sponge_meets_published_vectors(message, digest):
    assert sponge_reference(message).hex() == digest


_FORCED = (135, 136, 137, 271, 272)


@given(
    st.one_of(st.integers(0, 3 * _RATE), st.sampled_from(_FORCED)).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    st.sampled_from([bytes, bytearray, memoryview]),
)
@example(b"", bytes)
@example(b"\xff" * (3 * _RATE), memoryview)
@example(bytes(range(135)), bytearray)
@example(bytes(range(136)), memoryview)
@example(bytes(range(137)), bytes)
@example(bytes(i % 251 for i in range(271)), bytearray)
@example(bytes(i % 251 for i in range(272)), memoryview)
def test_compiled_sponge_matches_reference(data, kind):
    assert keccak256(kind(data)) == sponge_reference(data)


# -- input types and the build step ------------------------------------------


def test_mutable_input_is_read_on_every_call():
    buf = bytearray(b"abc")
    first = keccak256(buf)
    buf[0] ^= 1
    assert keccak256(buf) == sponge_reference(bytes(buf)) != first
    assert keccak256(b"abc") == first


def test_memoryview_slices_and_typed_views():
    data = bytes(range(200))
    assert keccak256(memoryview(data)[3:150]) == sponge_reference(data[3:150])
    words = memoryview(bytearray(data[:64])).cast("Q")  # 8-byte items
    assert keccak256(words) == sponge_reference(data[:64])


def test_rejects_text_and_non_contiguous_buffers():
    with pytest.raises(TypeError):
        keccak256("abc")
    with pytest.raises(BufferError):
        keccak256(memoryview(b"abcdef")[::2])


def test_build_with_an_unusable_compiler_raises_import_error(tmp_path):
    with pytest.raises(ImportError, match="no-such-cc"):
        keccak.build(tmp_path, cc=str(tmp_path / "no-such-cc"))
    # a compiler that runs and fails: the command and its stderr are named
    failing = f"{shlex.quote(sys.executable)} -c 'import sys; sys.exit(\"no Python.h here\")'"
    with pytest.raises(ImportError, match="(?s)exited 1.*no Python.h here"):
        keccak.build(tmp_path, cc=failing)
    assert list(tmp_path.iterdir()) == []  # no temporary file left behind


def test_build_with_an_unwritable_cache_raises_import_error(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_bytes(b"")
    with pytest.raises(ImportError, match=f"cannot create {re.escape(str(blocker))}"):
        keccak.build(blocker / "cache")
    # an existing directory without write permission (root ignores the
    # mode bits, so the check is stubbed to answer as for another user)
    monkeypatch.setattr(keccak.os, "access", lambda path, mode: False)
    with pytest.raises(ImportError, match=f"{re.escape(str(tmp_path))} is not writable"):
        keccak.build(tmp_path)


def test_build_is_keyed_renamed_into_place_and_reused(tmp_path, monkeypatch):
    # a build of an older source for this suffix, and one for another ABI
    stale = tmp_path / f"keccak-0000000000000000{keccak.SUFFIX}"
    other_abi = tmp_path / "keccak-0000000000000000.other-abi.so"
    stale.write_bytes(b"")
    other_abi.write_bytes(b"")
    built = keccak.build(tmp_path)
    # the older key's build is deleted; another suffix's is not touched
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([built.name, other_abi.name])
    other_abi.unlink()
    assert built.name.startswith("keccak-") and built.name.endswith(keccak.SUFFIX)
    stamp = built.stat().st_mtime_ns
    # found by its key, not rebuilt, and without the compiler machinery
    for name in ("shlex", "subprocess", "sysconfig"):
        monkeypatch.setitem(sys.modules, name, None)  # importing it raises
    assert keccak.build(tmp_path) == built
    assert built.stat().st_mtime_ns == stamp
