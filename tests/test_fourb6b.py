"""4B6B code tests: the sixteen-codeword table, invalid sextets, full balancing."""

import itertools

import pytest

from balpack.errors import BalpackError, CorruptPacketError, InvalidSextetError
from balpack.fourb6b import (
    balance_prefix,
    balance_rank,
    decode_sextet,
    encode_nibble,
    unbalance_prefix,
    unbalance_rank,
)
from balpack.subsets import Packet, Scheme, decode_packet, encode_packet, prefix_length
from balpack.words import is_balanced

FULL = Scheme.PROPOSED_FULL

# Reference 4B6B table the smallest-index rule must reproduce bit for bit.
SEXTET_TABLE = {
    "0000": "110010", "0001": "100101", "0010": "101001", "0011": "110100",
    "0100": "110001", "0101": "100110", "0110": "101010", "0111": "100011",
    "1000": "011100", "1001": "010110", "1010": "011010", "1011": "001101",
    "1100": "001011", "1101": "010101", "1110": "011001", "1111": "001110",
}


def test_encode_nibble_reproduces_table():
    assert {n: encode_nibble(n) for n in SEXTET_TABLE} == SEXTET_TABLE


def test_sextets_distinct_weight3():
    sextets = set(SEXTET_TABLE.values())
    assert len(sextets) == 16
    assert all(s.count("1") == 3 for s in sextets)


def test_decode_sextet_roundtrip_all_16():
    for nibble, sextet in SEXTET_TABLE.items():
        assert decode_sextet(sextet) == nibble


def test_decode_sextet_examples():
    assert decode_sextet("110010") == "0000"
    assert decode_sextet("001101") == "1011"


def test_decode_sextet_rejects_wrong_weight():
    with pytest.raises(InvalidSextetError):
        decode_sextet("111100")
    with pytest.raises(InvalidSextetError):
        decode_sextet("000000")


def test_decode_sextet_rejects_non_codeword():
    # weight 3 but not in the table: rule-decode then re-encode mismatches
    with pytest.raises(InvalidSextetError):
        decode_sextet("111000")


def test_decode_sextet_rejects_every_non_codeword():
    codewords = set(SEXTET_TABLE.values())
    for bits in itertools.product("01", repeat=6):
        s = "".join(bits)
        if s in codewords:
            assert encode_nibble(decode_sextet(s)) == s
        else:
            with pytest.raises(InvalidSextetError):
                decode_sextet(s)


def test_nibble_length_validation():
    with pytest.raises(ValueError):
        encode_nibble("010")
    with pytest.raises(ValueError):
        decode_sextet("01010")


def test_balance_prefix_examples():
    assert balance_prefix("1") == "011100"
    assert balance_prefix("0") == "110010"
    assert balance_prefix("10") == "011100"
    assert balance_prefix("10111011") == encode_nibble("1011") * 2


def test_balance_prefix_rejects_empty():
    with pytest.raises(ValueError):
        balance_prefix("")


def test_balance_prefix_output_balanced():
    for r in range(1, 9):
        for bits in itertools.product("01", repeat=r):
            out = balance_prefix("".join(bits))
            assert len(out) == 6 * ((r + 3) // 4)
            assert is_balanced(out)


def test_full_encode_examples():
    assert encode_packet("1111", FULL).bits == "011100" + "0011"
    assert encode_packet("0101", FULL).bits == "0101"
    assert decode_packet(Packet("0111000011"), 4, FULL) == "1111"


def test_full_packet_is_fl_packet_with_balanced_prefix():
    for k in (4, 6, 8, 10):
        r = prefix_length(k, Scheme.PROPOSED_FL)
        for bits in itertools.product("01", repeat=k):
            x = "".join(bits)
            fl = encode_packet(x, Scheme.PROPOSED_FL).bits
            expect = x if is_balanced(x) else balance_prefix(fl[:r]) + fl[r:]
            assert encode_packet(x, FULL).bits == expect


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_full_roundtrip_and_balance_exhaustive(k):
    nbits = prefix_length(k, FULL)
    for bits in itertools.product("01", repeat=k):
        x = "".join(bits)
        packet = encode_packet(x, FULL)
        assert is_balanced(packet.bits)
        assert packet.bit_length in (k, k + nbits)
        assert decode_packet(packet, k, FULL) == x


def test_full_decode_errors():
    with pytest.raises(CorruptPacketError):
        decode_packet(Packet("0111"), 4, FULL)  # k bits but unbalanced
    with pytest.raises(CorruptPacketError):
        decode_packet(Packet("01110000110"), 4, FULL)  # 11 bits: no valid split
    with pytest.raises(InvalidSextetError):
        decode_packet(Packet("1110000011"), 4, FULL)  # prefix is not a codeword
    with pytest.raises(ValueError):
        decode_packet(Packet("0101"), 3, FULL)


def test_full_decode_rejects_nonzero_padding():
    # r = 1 at k = 4, so three pad bits follow the rank bit; "1100" instead
    # of "1000" decodes to a valid sextet whose padding is not all zero
    packet = Packet(encode_nibble("1100") + "0011")
    with pytest.raises(CorruptPacketError):
        decode_packet(packet, 4, FULL)


def outcome(fn, *args):
    try:
        return fn(*args)
    except BalpackError as exc:
        return type(exc)


TABLE_INVERSE = {int(s, 2): int(n, 2) for n, s in SEXTET_TABLE.items()}


def table_unbalance(value, r):
    # the reference table's inverse, sextet by sextet, then the zero pad
    n = (r + 3) // 4
    padded = 0
    for i in reversed(range(n)):
        sextet = value >> 6 * i & 0x3F
        if sextet not in TABLE_INVERSE:
            return InvalidSextetError
        padded = padded << 4 | TABLE_INVERSE[sextet]
    if padded & ((1 << (4 * n - r)) - 1):
        return CorruptPacketError
    return padded >> (4 * n - r)


@pytest.mark.parametrize("r", range(1, 9))
def test_int_rank_steps_match_table_and_string_path(r):
    # r = 4 covers all 16 nibbles and all 64 sextets; other r add the zero pad
    n, width = (r + 3) // 4, 6 * ((r + 3) // 4)
    for rank in range(2**r):
        padded = format(rank << (4 * n - r), f"0{4 * n}b")
        expect = "".join(SEXTET_TABLE[padded[i : i + 4]] for i in range(0, 4 * n, 4))
        encoded = balance_rank(rank, r)
        assert format(encoded, f"0{width}b") == balance_prefix(format(rank, f"0{r}b")) == expect
    for value in range(2**width):
        expect = table_unbalance(value, r)
        assert outcome(unbalance_rank, value, r) == expect
        got = outcome(unbalance_prefix, format(value, f"0{width}b"), r)
        assert got == (expect if isinstance(expect, type) else format(expect, f"0{r}b"))
