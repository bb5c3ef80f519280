"""Subset-ranking codec tests: worked k=4 example, packets, partitions."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpack import subsets
from balpack.errors import BalpackError, CorruptPacketError
from balpack.fourb6b import balance_rank
from balpack.subsets import (
    BlockCodec,
    Scheme,
    ceil_log2,
    level_index,
    prefix_length,
)
from balpack.words import (
    decode_packet,
    encode_packet,
    first_balancing_index,
    invert_prefix,
    is_balanced,
    member_order,
    subset_members,
    subset_size_rds,
)

RANKED_SCHEMES = [
    Scheme.BASELINE_FL, Scheme.PROPOSED_FL, Scheme.PROPOSED_VL, Scheme.PROPOSED_FULL
]

# The six-column worked example for k = 4, frozen from an independent
# brute-force construction (invert each prefix of y, keep candidates whose
# first balancing index points back at y).
K4_BASELINE = {
    "0011": ("1011", "1111", "1100"),
    "0101": ("1101", "1001"),
    "0110": ("1000", "1110", "1010"),
    "1001": ("0001", "0111", "0101"),
    "1010": ("0010", "0110"),
    "1100": ("0000", "0100", "0011"),
}


def all_words(k):
    return ("".join(bits) for bits in itertools.product("01", repeat=k))


def balanced_words(k):
    return (w for w in all_words(k) if is_balanced(w))


def test_k4_baseline_listings():
    for y, expect in K4_BASELINE.items():
        assert subset_members(y, includes_balanced=True) == expect


def test_k4_proposed_listings():
    for y, expect in K4_BASELINE.items():
        assert subset_members(y, includes_balanced=False) == expect[:-1]


def test_subset_members_rejects_unbalanced():
    with pytest.raises(ValueError):
        subset_members("1011", includes_balanced=False)


def test_subset_size_rds_examples():
    assert subset_size_rds("0011") == 2
    assert subset_size_rds("0101") == 1
    assert subset_size_rds("010101") == 1
    with pytest.raises(ValueError):
        subset_size_rds("1110")


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_subset_size_rds_matches_listing(k):
    for y in balanced_words(k):
        size = len(subset_members(y, includes_balanced=False))
        d = list(itertools.accumulate(1 if c == "1" else -1 for c in y))
        assert subset_size_rds(y) == size == max(d) - min(d)  # the span of the running sums


def test_prefix_length_examples():
    assert prefix_length(256, Scheme.KNUTH) == 8
    assert prefix_length(256, Scheme.PROPOSED_FL) == 7
    assert prefix_length(256, Scheme.BASELINE_FL) == 8
    assert prefix_length(4, Scheme.PROPOSED_FULL) == 6
    assert prefix_length(64, Scheme.PROPOSED_VL, lam=1) == 1
    assert prefix_length(64, Scheme.PROPOSED_VL, lam=5) == 3
    k = 2048
    for lam in range(1, k // 2 + 1):  # the rule: ceil(log2 lambda) with a 1-bit floor
        assert prefix_length(k, Scheme.PROPOSED_VL, lam=lam) == max(1, ceil_log2(lam))
    for k in range(2, 2049, 2):  # every scheme's rank and prefix widths, written out
        r = ceil_log2(k // 2)  # the compressed listing holds at most k/2 members
        widths = {  # scheme: (rank bits, largest prefix)
            Scheme.KNUTH: (ceil_log2(k), ceil_log2(k)),
            Scheme.BASELINE_FL: (ceil_log2(k // 2 + 1), ceil_log2(k // 2 + 1)),
            Scheme.PROPOSED_FL: (r, r),
            Scheme.PROPOSED_VL: (r, max(1, r)),
            Scheme.PROPOSED_FULL: (r, 6 * ((r + 3) // 4)),
        }
        for scheme, (rank_bits, max_prefix) in widths.items():
            if k == 2 and scheme in (Scheme.PROPOSED_FL, Scheme.PROPOSED_FULL):
                # a zero-bit rank prefix would read as the prefix-less balanced case
                for call in (lambda: BlockCodec(k, scheme), lambda: prefix_length(k, scheme)):
                    with pytest.raises(ValueError, match="needs k >= 4"):
                        call()
                continue
            codec = BlockCodec(k, scheme)
            assert (codec.rank_bits, codec.max_prefix) == (rank_bits, max_prefix), (k, scheme)
            lam = k // 2 if scheme is Scheme.PROPOSED_VL else None
            assert prefix_length(k, scheme, lam) == max_prefix


def test_prefix_length_bad_arguments():
    with pytest.raises(ValueError):
        prefix_length(5, Scheme.KNUTH)
    with pytest.raises(ValueError):
        prefix_length(2, Scheme.PROPOSED_FL)
    with pytest.raises(ValueError):
        prefix_length(8, Scheme.PROPOSED_VL)  # subset size missing
    with pytest.raises(ValueError):
        prefix_length(8, Scheme.PROPOSED_VL, lam=9)
    with pytest.raises(ValueError):
        prefix_length(8, Scheme.KNUTH, lam=2)


def test_encode_packet_examples():
    assert encode_packet("1111", Scheme.PROPOSED_FL) == "10011"
    assert encode_packet("0101", Scheme.PROPOSED_FL) == "0101"
    assert encode_packet("1100", Scheme.BASELINE_FL) == "100011"


def test_encode_packet_knuth_matches_codec():
    assert encode_packet("1011", Scheme.KNUTH) == "000011"
    assert decode_packet("000011", 4, Scheme.KNUTH) == "1011"


def test_encode_packet_balanced_word_gets_baseline_prefix():
    # balanced words are ranked last in their own uncompressed subset
    assert encode_packet("0011", Scheme.BASELINE_FL) == "10" + "1100"


def test_vl_prefix_has_one_bit_floor():
    # 1101 is the lone compressed member under 0101: rank 0 still costs a bit
    packet = encode_packet("1101", Scheme.PROPOSED_VL)
    assert packet == "0" + "0101"
    assert decode_packet(packet, 4, Scheme.PROPOSED_VL) == "1101"


def test_decode_packet_examples():
    assert decode_packet("10011", 4, Scheme.PROPOSED_FL) == "1111"
    assert decode_packet("0101", 4, Scheme.PROPOSED_VL) == "0101"


def test_decode_packet_rank_out_of_range():
    with pytest.raises(CorruptPacketError):
        decode_packet("110011", 4, Scheme.BASELINE_FL)


def test_decode_packet_unbalanced_payload():
    with pytest.raises(CorruptPacketError):
        decode_packet("11011", 4, Scheme.PROPOSED_FL)
    with pytest.raises(CorruptPacketError):
        decode_packet("0111", 4, Scheme.PROPOSED_VL)


def test_decode_packet_vl_length_mismatch():
    # two prefix bits over a subset of size one cannot come from the encoder
    with pytest.raises(CorruptPacketError):
        decode_packet("00" + "0101", 4, Scheme.PROPOSED_VL)


def test_decode_packet_wrong_total_length():
    with pytest.raises(CorruptPacketError):
        decode_packet("110011", 4, Scheme.PROPOSED_FL)


def test_encode_packet_domain_errors():
    with pytest.raises(ValueError):
        encode_packet("101", Scheme.KNUTH)
    with pytest.raises(ValueError):
        encode_packet("01", Scheme.PROPOSED_FL)
    with pytest.raises(ValueError):
        encode_packet("01", Scheme.PROPOSED_FULL)


def test_non_binary_word_error_names_the_symbol_not_the_word():
    x = "0" * 100_000 + "x" + "1" * 99_999
    with pytest.raises(ValueError) as err:
        encode_packet(x, Scheme.KNUTH)
    assert str(err.value) == "word has non-binary symbol 'x' at index 100000"
    assert len(str(err.value)) < 200


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("k", [4, 6, 8])
def test_roundtrip_exhaustive_small(k, scheme):
    for x in all_words(k):
        packet = encode_packet(x, scheme)
        assert decode_packet(packet, k, scheme) == x


@pytest.mark.parametrize(
    "scheme", [Scheme.KNUTH, Scheme.BASELINE_FL, Scheme.PROPOSED_VL]
)
def test_roundtrip_k2(scheme):
    # minimal block length; the fixed-length compressed schemes need k >= 4
    for x in all_words(2):
        packet = encode_packet(x, scheme)
        assert decode_packet(packet, 2, scheme) == x


@pytest.mark.parametrize("scheme", list(Scheme))
@given(st.data())
def test_roundtrip_random_larger(scheme, data):
    k = data.draw(st.sampled_from([10, 12, 14, 16]))
    x = data.draw(st.text(alphabet="01", min_size=k, max_size=k))
    packet = encode_packet(x, scheme)
    assert decode_packet(packet, k, scheme) == x


@pytest.mark.parametrize("k", [4, 6, 8, 10])
def test_partition_properties(k):
    proposed_seen = []
    baseline_seen = []
    for y in balanced_words(k):
        proposed = subset_members(y, includes_balanced=False)
        baseline = subset_members(y, includes_balanced=True)
        assert 1 <= len(proposed) <= k // 2
        assert not any(is_balanced(m) for m in proposed)
        assert is_balanced(baseline[-1]) and baseline[:-1] == proposed
        proposed_seen.extend(proposed)
        baseline_seen.extend(baseline)
    unbalanced = [w for w in all_words(k) if not is_balanced(w)]
    assert sorted(proposed_seen) == sorted(unbalanced)
    assert sorted(baseline_seen) == sorted(all_words(k))


def test_packet_length_property():
    for k in (4, 6, 8):
        for x in all_words(k):
            n = len(encode_packet(x, Scheme.PROPOSED_VL))
            assert n == k or k + 1 <= n <= k + prefix_length(k, Scheme.PROPOSED_FL)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
def test_member_order_matches_listing_oracle(k):
    for y in balanced_words(k):
        members = tuple(invert_prefix(y, j) for j in member_order(int(y, 2), k))
        assert members == subset_members(y, includes_balanced=False)
        # BASELINE_FL's balanced member inverts up to y's first return to zero
        balanced = invert_prefix(y, first_balancing_index(y))
        assert (*members, balanced) == subset_members(y, includes_balanced=True)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14])
def test_level_index_matches_per_bit_first_balancing_index_exhaustive(k):
    # a balanced word's level is 0, its first return to 0, which the search
    # finds as the first reach of 2 - 4 * bit 1 with bit 1 flipped
    for v in range(1 << k):
        w = format(v, f"0{k}b")
        assert level_index(v, k, w.count("1") - k // 2) == first_balancing_index(w), w


@settings(deadline=None)
@given(st.data())
def test_byte_walk_matches_listing_oracle(data):
    # k % 8 != 0 ends y in a partial byte whose zero fill walks down from 0;
    # a y whose sums never go below 0 (rotated to start at its lowest sum) is
    # where that fill would reach a new level first
    k = data.draw(st.sampled_from([16, 62, 64, 66, 130, 1002, 1024, 1026]))
    x = data.draw(st.integers(0, 2**k - 1))
    e = level_index(x, k, x.bit_count() - k // 2)
    y = x ^ (((1 << e) - 1) << (k - e))
    if data.draw(st.booleans()):
        sums = list(itertools.accumulate(1 if c == "1" else -1 for c in format(y, f"0{k}b")))
        m = sums.index(min(sums)) + 1
        y = (y << m | y >> (k - m)) & ((1 << k) - 1)
    assert e == first_balancing_index(format(x, f"0{k}b"))
    word = format(y, f"0{k}b")
    assert level_index(y, k, 0) == first_balancing_index(word)
    order = member_order(y, k)
    members = tuple(format(y ^ (((1 << j) - 1) << (k - j)), f"0{k}b") for j in order)
    assert members == subset_members(word, includes_balanced=False)
    # the decode walk names each listing entry, and none past the end
    for rank in range(len(order) + 2):
        e = order[rank] if rank < len(order) else None
        assert subsets._decode_rank(y, k, rank, True) == (e, len(order))
        assert subsets._decode_rank(y, k, rank, False)[0] == e


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12, 14])
def test_unrank_matches_listing_oracle(k):
    # Every rank the prefix can carry up to size + 1: members decode to the
    # oracle's entry, ranks past the end of the listing are corrupt.
    for y in balanced_words(k):
        for scheme in (Scheme.BASELINE_FL, Scheme.PROPOSED_FL, Scheme.PROPOSED_VL):
            members = subset_members(y, scheme is Scheme.BASELINE_FL)
            lam = len(members) if scheme is Scheme.PROPOSED_VL else None
            nbits = prefix_length(k, scheme, lam)
            for rank in range(min(len(members) + 2, 1 << nbits)):
                packet = format(rank, f"0{nbits}b") + y
                if rank < len(members):
                    assert decode_packet(packet, k, scheme) == members[rank]
                else:
                    with pytest.raises(CorruptPacketError, match="outside subset"):
                        decode_packet(packet, k, scheme)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14, 16])
def test_decode_rank_walk_matches_listing_exhaustive(k):
    # one walk over y gives member rank's e and lambda; below k = 8 and at
    # 10, 12 and 14 y ends in a partial byte, whose fill must add no member
    for y in range(1 << k):
        if y.bit_count() != k // 2:
            continue
        order = member_order(y, k)
        lam = len(order)
        zeros = sum(not y >> k - 1 - j & 1 for j in order)  # members y follows by a 0
        for rank in range(lam + 2):
            e = order[rank] if rank < lam else None
            assert subsets._decode_rank(y, k, rank, True) == (e, lam)
            # lambda is read only when the walk gets past the members followed by a 0
            assert subsets._decode_rank(y, k, rank, False) == (e, lam if rank >= zeros else None)


def two_walk_encode(codec, scheme, xi):
    """The ranked encode as two walks: find e on x, then list y's subset.

    The specification of :meth:`BlockCodec.encode` for the ranked schemes.
    """
    k = codec.k
    t = xi.bit_count() - k // 2
    if not t and codec.prefix_less:
        return xi, 0
    e = level_index(xi, k, t)
    y = xi ^ (((1 << e) - 1) << (k - e))
    order = member_order(y, k)
    rank = order.index(e) if t else len(order)
    if scheme is Scheme.PROPOSED_VL:
        return rank << k | y, prefix_length(k, scheme, len(order))
    if scheme is Scheme.PROPOSED_FULL:
        rank = balance_rank(rank, codec.rank_bits)
    return rank << k | y, codec.max_prefix


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12, 14, 16])
def test_fused_rank_walk_matches_two_walks_exhaustive(k):
    # one walk over x gives e, e's rank in member_order(y) and lambda; below
    # k = 8 and at 10, 12 and 14 the tail after e ends in a zero fill
    codecs = [(scheme, BlockCodec(k, scheme)) for scheme in RANKED_SCHEMES
              if k > 2 or scheme in (Scheme.BASELINE_FL, Scheme.PROPOSED_VL)]
    for x in range(1 << k):
        t = x.bit_count() - k // 2
        if t:
            e = level_index(x, k, t)
            order = member_order(x ^ (((1 << e) - 1) << (k - e)), k)
            assert subsets._encode_rank(x, k, t, True) == (e, order.index(e), len(order))
            # lambda is read only when x's bit e + 1 is 1 and the rank needs it
            lam = len(order) if x >> k - e - 1 & 1 else None
            assert subsets._encode_rank(x, k, t, False) == (e, order.index(e), lam)
        for scheme, codec in codecs:
            assert codec.encode(x) == two_walk_encode(codec, scheme, x)


@settings(deadline=None)
@given(st.data())
def test_encode_rank_matches_listing_oracle(data):
    # k % 8 != 0 ends each block in a partial byte, whose zero fill the fused
    # walk must not read as part of the tail after e
    k = data.draw(st.sampled_from([16, 18, 32, 62, 64, 66, 128, 130, 256, 1002, 1026]))
    x = format(data.draw(st.integers(0, 2**k - 1)), f"0{k}b")
    nbits = prefix_length(k, Scheme.BASELINE_FL)
    packet = encode_packet(x, Scheme.BASELINE_FL)
    rank, y = int(packet[:nbits], 2), packet[nbits:]
    assert rank == subset_members(y, includes_balanced=True).index(x)
    assert decode_packet(packet, k, Scheme.BASELINE_FL) == x
    # every ranked prefix of an unbalanced x, then every rank below each
    # scheme's subset size decodes to that listing entry
    members = subset_members(y, includes_balanced=True)
    lam = len(members) - 1
    vl = encode_packet(x, Scheme.PROPOSED_VL)
    if is_balanced(x):
        assert vl == x
    else:
        index = members.index(x)
        p = len(vl) - k
        assert p == prefix_length(k, Scheme.PROPOSED_VL, lam)
        assert (int(vl[:p], 2), vl[p:]) == (index, y)
        fl_bits = prefix_length(k, Scheme.PROPOSED_FL)
        fl = encode_packet(x, Scheme.PROPOSED_FL)
        assert (int(fl[:fl_bits], 2), fl[fl_bits:]) == (index, y)
        full_bits = prefix_length(k, Scheme.PROPOSED_FULL)
        full = encode_packet(x, Scheme.PROPOSED_FULL)
        assert (int(full[:full_bits], 2), full[full_bits:]) == (balance_rank(index, fl_bits), y)
    for scheme in (Scheme.BASELINE_FL, Scheme.PROPOSED_FL, Scheme.PROPOSED_VL):
        size = lam + (scheme is Scheme.BASELINE_FL)
        nbits = prefix_length(k, scheme, lam if scheme is Scheme.PROPOSED_VL else None)
        for rank in range(size):
            packet = format(rank, f"0{nbits}b") + y
            assert decode_packet(packet, k, scheme) == members[rank]


@pytest.mark.parametrize("scheme", RANKED_SCHEMES)
@pytest.mark.parametrize("k", [4, 16, 1024])
def test_balanced_block_ranks_last_or_travels_bare(k, scheme):
    # t = 0: BASELINE_FL ranks a balanced x last, at the compressed size
    # lambda of its balanced word; the prefix-less schemes send it bare
    rng = random.Random(k)
    shuffled = list("01" * (k // 2))
    rng.shuffle(shuffled)
    half = "0" * (k // 2)
    for x in ("01" * (k // 2), "10" * (k // 2), half + half.replace("0", "1"),
              "".join(shuffled)):
        packet = encode_packet(x, scheme)
        if scheme is Scheme.BASELINE_FL:
            nbits = prefix_length(k, scheme)
            rank, y = int(packet[:nbits], 2), packet[nbits:]
            assert rank == subset_size_rds(y)
            assert subset_members(y, includes_balanced=True)[rank] == x
        else:
            assert packet == x
        assert decode_packet(packet, k, scheme) == x


@pytest.mark.parametrize("scheme", RANKED_SCHEMES)
def test_codec_path_never_lists(scheme):
    # a round trip only: the listings live in balpack.words, which no codec
    # module imports; test_stream.py::test_codec_path_never_imports_the_oracles
    # runs ranked round trips at this k in a process that must never load it
    k = 1024
    rng = random.Random(1024)
    blocks = ["01" * (k // 2), "1" * k, "0" * k]
    blocks += [format(rng.getrandbits(k), f"0{k}b") for _ in range(8)]
    for x in blocks:
        assert decode_packet(encode_packet(x, scheme), k, scheme) == x


@pytest.mark.parametrize("scheme", list(Scheme))
@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_ranked_decoders_accept_exactly_the_encoder_image(k, scheme):
    # every packet value at every prefix length the scheme can emit goes
    # through the int kernel; each accepted packet is canonical (Knuth's
    # too: an inversion index that is not the first balancing index of the
    # decoded word is refused)
    codec = BlockCodec(k, scheme)
    accepted = 0
    for p in range(codec.max_prefix + 1):
        for v in range(1 << (k + p)):
            try:
                x = codec.decode(v, p)
            except BalpackError:
                continue
            accepted += 1
            assert codec.encode(x) == (v, p)
    assert accepted == 2**k


def unidirectional_misses(k, scheme):
    """(undetected, total) over every non-empty unidirectional error of every packet at ``k``.

    A unidirectional error flips some of a packet's ones to zeros, or some of
    its zeros to ones, never both.  The packet channel delivers the packet's
    bit length, so each corrupted packet is decoded at the prefix length sent.
    """
    codec = BlockCodec(k, scheme)
    undetected = total = 0
    for x in range(1 << k):
        v, p = codec.encode(x)
        for bits in (v, ~v & ((1 << (k + p)) - 1)):
            flips = bits
            while flips:  # every non-empty subset of bits
                total += 1
                try:
                    codec.decode(v ^ flips, p)
                    undetected += 1
                except BalpackError:
                    pass
                flips = (flips - 1) & bits
    return undetected, total


@pytest.mark.parametrize("k, total", [(4, 656), (6, 5824), (8, 49344)])
def test_full_balancing_detects_every_unidirectional_error(k, total):
    # the payload must weigh k/2 and each sextet 3, and a unidirectional
    # error changes the weight of at least one of them
    assert unidirectional_misses(k, Scheme.PROPOSED_FULL) == (0, total)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_full_balancing_detects_random_unidirectional_errors_up_to_k_1024(data):
    k = 2 * data.draw(st.integers(2, 512))
    codec = BlockCodec(k, Scheme.PROPOSED_FULL)
    v, p = codec.encode(data.draw(st.integers(0, (1 << k) - 1)))
    bits = data.draw(st.sampled_from([v, ~v & ((1 << (k + p)) - 1)]))  # its ones, or its zeros
    flips = data.draw(st.integers(0, (1 << (k + p)) - 1)) & bits or bits & -bits
    with pytest.raises(BalpackError):
        codec.decode(v ^ flips, p)


@pytest.mark.parametrize("k, scheme, counts", [
    (6, Scheme.KNUTH, (116, 3424)), (6, Scheme.BASELINE_FL, (112, 2128)),
    (6, Scheme.PROPOSED_FL, (48, 1760)), (6, Scheme.PROPOSED_VL, (48, 1440)),
    (8, Scheme.KNUTH, (540, 27904)), (8, Scheme.BASELINE_FL, (532, 27424)),
    (8, Scheme.PROPOSED_FL, (264, 14880)), (8, Scheme.PROPOSED_VL, (264, 13472)),
])
def test_unbalanced_prefixes_miss_some_unidirectional_errors(k, scheme, counts):
    # an error inside an unbalanced prefix can name another member of the subset
    assert unidirectional_misses(k, scheme) == counts
