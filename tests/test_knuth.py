"""Knuth scheme tests: the ``Scheme.KNUTH`` packet, its examples and exhaustive roundtrips.

A Knuth codeword is ``encode_packet(x, Scheme.KNUTH)`` from ``balpack.words``:
the ceil(log2 k)-bit inversion-index prefix, then the balanced payload.
"""

import itertools

import pytest

from balpack.errors import CorruptPacketError
from balpack.subsets import Scheme, ceil_log2
from balpack.words import decode_packet, encode_packet, is_balanced

KNUTH = Scheme.KNUTH


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 128, 129)] == [
        0, 1, 2, 2, 3, 3, 4, 7, 8,
    ]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_encode_examples():
    assert encode_packet("1011", KNUTH) == "00" + "0011"
    assert encode_packet("1100", KNUTH) == "11" + "0011"
    assert encode_packet("0011", KNUTH) == "11" + "1100"


def test_decode_examples():
    assert decode_packet("00" + "0011", 4, KNUTH) == "1011"
    assert decode_packet("11" + "0011", 4, KNUTH) == "1100"


def test_decode_rejects_unbalanced_payload():
    with pytest.raises(CorruptPacketError):
        decode_packet("11" + "1011", 4, KNUTH)


def test_decode_rejects_index_beyond_k():
    # k = 6 uses a 3-bit prefix; indexes 6 and 7 do not name a position
    for prefix in ("110", "111"):
        with pytest.raises(CorruptPacketError):
            decode_packet(prefix + "010101", 6, KNUTH)


def test_encode_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        encode_packet("101", KNUTH)
    with pytest.raises(ValueError):
        encode_packet("1", KNUTH)


def test_decode_rejects_malformed_fields():
    # an odd block length, an empty packet and a non-binary packet are caller errors
    with pytest.raises(ValueError):
        decode_packet("0" + "101", 3, KNUTH)
    for bits in ("", "000a11"):
        with pytest.raises(ValueError):
            decode_packet(bits, 4, KNUTH)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
def test_roundtrip_exhaustive(k):
    nbits = ceil_log2(k)
    for bits in itertools.product("01", repeat=k):
        x = "".join(bits)
        packet = encode_packet(x, KNUTH)
        assert len(packet) == nbits + k  # the prefix is always ceil(log2 k) bits
        assert is_balanced(packet[nbits:])
        assert decode_packet(packet, k, KNUTH) == x


def test_decode_rejects_prefix_of_wrong_length():
    assert decode_packet("00" + "0011", 4, KNUTH) == "1011"
    for prefix in ("0", "000"):
        with pytest.raises(CorruptPacketError):
            decode_packet(prefix + "0011", 4, KNUTH)
