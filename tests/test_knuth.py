"""Knuth codec tests: worked examples and exhaustive roundtrips."""

import itertools

import pytest

from balpack.errors import CorruptCodewordError
from balpack.knuth import KnuthCodeword, ka_decode, ka_encode
from balpack.subsets import ceil_log2
from balpack.words import is_balanced


def test_ceil_log2():
    assert [ceil_log2(n) for n in (1, 2, 3, 4, 5, 8, 9, 128, 129)] == [
        0, 1, 2, 2, 3, 3, 4, 7, 8,
    ]
    with pytest.raises(ValueError):
        ceil_log2(0)


def test_encode_examples():
    assert ka_encode("1011") == KnuthCodeword("00", "0011")
    assert ka_encode("1100") == KnuthCodeword("11", "0011")
    assert ka_encode("0011") == KnuthCodeword("11", "1100")


def test_decode_examples():
    assert ka_decode(KnuthCodeword("00", "0011")) == "1011"
    assert ka_decode(KnuthCodeword("11", "0011")) == "1100"


def test_decode_rejects_unbalanced_payload():
    with pytest.raises(CorruptCodewordError):
        ka_decode(KnuthCodeword("11", "1011"))


def test_decode_rejects_index_beyond_k():
    # k = 6 uses a 3-bit prefix; indexes 6 and 7 do not name a position
    with pytest.raises(CorruptCodewordError):
        ka_decode(KnuthCodeword("110", "010101"))
    with pytest.raises(CorruptCodewordError):
        ka_decode(KnuthCodeword("111", "010101"))


def test_encode_rejects_odd_or_tiny():
    with pytest.raises(ValueError):
        ka_encode("101")
    with pytest.raises(ValueError):
        ka_encode("1")


def test_decode_rejects_malformed_fields():
    # an odd payload, an empty prefix and a non-binary payload are caller errors
    for cw in (KnuthCodeword("0", "101"), KnuthCodeword("", "0011"),
               KnuthCodeword("00", "0a11")):
        with pytest.raises(ValueError):
            ka_decode(cw)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
def test_roundtrip_exhaustive(k):
    nbits = ceil_log2(k)
    for bits in itertools.product("01", repeat=k):
        x = "".join(bits)
        cw = ka_encode(x)
        assert len(cw.prefix) == nbits
        assert is_balanced(cw.payload)
        assert ka_decode(cw) == x


@pytest.mark.parametrize("k", [4, 6, 8])
def test_decode_accepts_exactly_the_encoder_image(k):
    # every prefix and payload: an index that is not the first balancing
    # index of the decoded word is refused, so each word decodes from one
    # codeword only
    accepted = 0
    for prefix in itertools.product("01", repeat=ceil_log2(k)):
        for payload in itertools.product("01", repeat=k):
            cw = KnuthCodeword("".join(prefix), "".join(payload))
            try:
                x = ka_decode(cw)
            except CorruptCodewordError:
                continue
            accepted += 1
            assert ka_encode(x) == cw
    assert accepted == 2**k


def test_decode_rejects_prefix_of_wrong_length():
    assert ka_decode(KnuthCodeword("00", "0011")) == "1011"
    for prefix in ("0", "000"):
        with pytest.raises(CorruptCodewordError):
            ka_decode(KnuthCodeword(prefix, "0011"))
