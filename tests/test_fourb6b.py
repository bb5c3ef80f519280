"""4B6B code tests: the sixteen-codeword table, invalid sextets, full balancing."""

import itertools
import random

import pytest

from balpack import fourb6b
from balpack.errors import BalpackError, CorruptPacketError, InvalidSextetError
from balpack.fourb6b import balance_rank, unbalance_rank
from balpack.subsets import Scheme, prefix_length
from balpack.words import decode_packet, encode_nibble, encode_packet, is_balanced

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


# A sextet decodes through the rank step of one nibble, unbalance_rank(v, 4).
def test_decode_sextet_roundtrip_all_16():
    for nibble, sextet in SEXTET_TABLE.items():
        assert unbalance_rank(int(sextet, 2), 4) == int(nibble, 2)


def test_decode_sextet_examples():
    assert unbalance_rank(0b110010, 4) == 0b0000
    assert unbalance_rank(0b001101, 4) == 0b1011


def test_decode_sextet_rejects_wrong_weight():
    with pytest.raises(InvalidSextetError):
        unbalance_rank(0b111100, 4)
    with pytest.raises(InvalidSextetError):
        unbalance_rank(0b000000, 4)


def test_decode_sextet_rejects_non_codeword():
    # weight 3 but not in the table: rule-decode then re-encode mismatches
    with pytest.raises(InvalidSextetError):
        unbalance_rank(0b111000, 4)


def test_decode_sextet_rejects_every_non_codeword():
    codewords = {int(s, 2) for s in SEXTET_TABLE.values()}
    for v in range(64):
        if v in codewords:
            assert balance_rank(unbalance_rank(v, 4), 4) == v
        else:
            with pytest.raises(InvalidSextetError):
                unbalance_rank(v, 4)


def test_lookups_are_the_rule_and_its_inverse():
    # the codec indexes the rule's sixteen outputs and a 64-entry inverse
    assert fourb6b._SEXTETS == tuple(fourb6b._sextet(n) for n in range(16))
    assert fourb6b._SEXTETS == tuple(int(SEXTET_TABLE[format(n, "04b")], 2) for n in range(16))
    assert len(fourb6b._NIBBLES) == 64
    for v, nibble in enumerate(fourb6b._NIBBLES):
        if v in fourb6b._SEXTETS:
            assert fourb6b._SEXTETS[nibble] == v
        else:
            assert nibble is None
    assert fourb6b._NIBBLES.count(None) == 48


def test_non_codeword_messages():
    for v in range(64):
        if v in fourb6b._SEXTETS:
            continue
        reason = "does not have weight 3" if v.bit_count() != 3 else "is not a 4B6B codeword"
        with pytest.raises(InvalidSextetError, match=f"^'{v:06b}' {reason}$"):
            unbalance_rank(v, 4)


def test_nibble_length_validation():
    for nibble in ("010", "01010"):
        with pytest.raises(ValueError):
            encode_nibble(nibble)


def test_balance_prefix_examples():
    # the rank is zero-filled on the right to whole nibbles
    assert balance_rank(0b1, 1) == 0b011100
    assert balance_rank(0b0, 1) == 0b110010
    assert balance_rank(0b10, 2) == 0b011100
    assert format(balance_rank(0b10111011, 8), "012b") == encode_nibble("1011") * 2


def test_balance_prefix_rejects_empty():
    # at k = 2 the rank would have zero bits, so there is no prefix to balance
    with pytest.raises(ValueError):
        encode_packet("10", FULL)
    with pytest.raises(ValueError):
        decode_packet("10", 2, FULL)


def test_balance_prefix_output_balanced():
    for r in range(1, 9):
        width = 6 * ((r + 3) // 4)
        for rank in range(2**r):
            out = balance_rank(rank, r)
            assert out < 1 << width
            assert is_balanced(format(out, f"0{width}b"))


def test_full_encode_examples():
    assert encode_packet("1111", FULL) == "011100" + "0011"
    assert encode_packet("0101", FULL) == "0101"
    assert decode_packet("0111000011", 4, FULL) == "1111"


def test_full_packet_is_fl_packet_with_balanced_prefix():
    for k in (4, 6, 8, 10):
        r = prefix_length(k, Scheme.PROPOSED_FL)
        for bits in itertools.product("01", repeat=k):
            x = "".join(bits)
            fl = encode_packet(x, Scheme.PROPOSED_FL)
            width = 6 * ((r + 3) // 4)
            prefix = format(balance_rank(int(fl[:r], 2), r), f"0{width}b")
            expect = x if is_balanced(x) else prefix + fl[r:]
            assert encode_packet(x, FULL) == expect


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_full_roundtrip_and_balance_exhaustive(k):
    nbits = prefix_length(k, FULL)
    for bits in itertools.product("01", repeat=k):
        x = "".join(bits)
        packet = encode_packet(x, FULL)
        assert is_balanced(packet)
        assert len(packet) in (k, k + nbits)
        assert decode_packet(packet, k, FULL) == x


def test_full_decode_errors():
    with pytest.raises(CorruptPacketError):
        decode_packet("0111", 4, FULL)  # k bits but unbalanced
    with pytest.raises(CorruptPacketError):
        decode_packet("01110000110", 4, FULL)  # 11 bits: no valid split
    with pytest.raises(InvalidSextetError):
        decode_packet("1110000011", 4, FULL)  # prefix is not a codeword
    with pytest.raises(ValueError):
        decode_packet("0101", 3, FULL)


def test_full_decode_rejects_nonzero_padding():
    # r = 1 at k = 4, so three pad bits follow the rank bit; "1100" instead
    # of "1000" decodes to a valid sextet whose padding is not all zero
    packet = encode_nibble("1100") + "0011"
    with pytest.raises(CorruptPacketError):
        decode_packet(packet, 4, FULL)


def outcome(fn, *args):
    try:
        return fn(*args)
    except BalpackError as exc:
        return type(exc)


TABLE_INVERSE = {int(s, 2): int(n, 2) for n, s in SEXTET_TABLE.items()}
CODEWORDS = sorted(TABLE_INVERSE)


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


@pytest.mark.parametrize("r", range(1, 13))
def test_int_rank_steps_match_table_and_string_path(r):
    # r = 4 covers all 16 nibbles and all 64 sextets; other r add the zero pad;
    # from r = 9 (k = 1024's width) on, ranks and values are sampled
    n, width = (r + 3) // 4, 6 * ((r + 3) // 4)
    rng = random.Random(r)
    ranks = range(2**r) if r <= 8 else rng.sample(range(2**r), 256)
    # a sample of all values is nearly all non-codewords, so add values made of codewords
    values = range(2**width) if r <= 8 else [
        *rng.sample(range(2**width), 4096),
        *(sum(rng.choice(CODEWORDS) << 6 * i for i in range(n)) for _ in range(4096))]
    for rank in ranks:
        padded = format(rank << (4 * n - r), f"0{4 * n}b")
        nibbles = [padded[i : i + 4] for i in range(0, 4 * n, 4)]
        expect = "".join(SEXTET_TABLE[nibble] for nibble in nibbles)
        assert format(balance_rank(rank, r), f"0{width}b") == expect
        assert "".join(map(encode_nibble, nibbles)) == expect
    for value in values:
        assert outcome(unbalance_rank, value, r) == table_unbalance(value, r)
