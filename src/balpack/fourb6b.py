"""Table-free 4B6B balanced line code and whole-packet balancing.

Each nibble is balanced the Knuth way: invert the first e bits, then append
a 2-bit suffix naming e.  Choosing the smallest e in 1..4 that makes the
six bits weight-3 reproduces the sixteen-codeword table exactly, so neither
side stores the table.  Re-encoding a rank prefix this way makes the whole
packet (prefix plus payload) balanced, at six output bits per four prefix
bits.
"""

from __future__ import annotations

from .errors import CorruptPacketError, InvalidSextetError
from .subsets import Packet, Scheme, decode_packet, encode_packet, prefix_length
from .words import check_word, invert_prefix, is_balanced

#: Suffix naming the inversion index, keyed by the nibble's first bit.
#: The two maps differ only at e in {3, 4}; each is injective, which is
#: what makes the suffix decodable.
_SUFFIX_BY_START = {
    "0": {1: "01", 2: "10", 3: "00", 4: "11"},
    "1": {1: "01", 2: "10", 3: "11", 4: "00"},
}
_INDEX_BY_START = {
    start: {suffix: e for e, suffix in table.items()}
    for start, table in _SUFFIX_BY_START.items()
}


def encode_nibble(nibble: str) -> str:
    """Map a 4-bit word to its weight-3 sextet."""
    check_word(nibble)
    if len(nibble) != 4:
        raise ValueError(f"nibble must be 4 bits, got {len(nibble)}")
    suffixes = _SUFFIX_BY_START[nibble[0]]
    for e in range(1, 5):
        body = invert_prefix(nibble, e)
        suffix = suffixes[e]
        if body.count("1") + suffix.count("1") == 3:
            return body + suffix
    raise AssertionError(f"no balancing index for nibble {nibble!r}")


def decode_sextet(sextet: str) -> str:
    """Invert :func:`encode_nibble`; rejects the 48 non-codeword sextets."""
    check_word(sextet)
    if len(sextet) != 6:
        raise ValueError(f"sextet must be 6 bits, got {len(sextet)}")
    if sextet.count("1") != 3:
        raise InvalidSextetError(f"{sextet!r} does not have weight 3")
    body, suffix = sextet[:4], sextet[4:]
    # e >= 1 always inverts the first bit, so the original start bit is
    # the complement of the body's first bit.
    start = "1" if body[0] == "0" else "0"
    nibble = invert_prefix(body, _INDEX_BY_START[start][suffix])
    if encode_nibble(nibble) != sextet:
        raise InvalidSextetError(f"{sextet!r} is not a 4B6B codeword")
    return nibble


def balance_prefix(prefix: str) -> str:
    """Re-encode a rank prefix into balanced sextets.

    The prefix is zero-filled on the right up to a nibble boundary, then
    each nibble becomes one sextet; the result has weight exactly half its
    length.
    """
    check_word(prefix)
    r = len(prefix)
    padded = prefix + "0" * (-r % 4)
    return "".join(
        encode_nibble(padded[i : i + 4]) for i in range(0, len(padded), 4)
    )


def encoded_prefix_bits(k: int) -> int:
    """Bits the balanced prefix occupies for block length ``k``."""
    return prefix_length(k, Scheme.PROPOSED_FULL)


def full_encode(x: str) -> Packet:
    """Fixed-length rank encoding with an overall balanced packet.

    Balanced inputs still go out prefix-less; everything else carries a
    balanced sextet prefix in front of the balanced payload, so the whole
    codeword is balanced by construction.
    """
    ranked = encode_packet(x, Scheme.PROPOSED_FL)
    k = len(x)
    if ranked.bit_length == k:
        return ranked
    r = prefix_length(k, Scheme.PROPOSED_FL)
    return Packet(balance_prefix(ranked.bits[:r]) + ranked.bits[r:])


def full_decode(p: Packet, k: int) -> str:
    """Invert :func:`full_encode` for block length ``k``."""
    nbits = encoded_prefix_bits(k)
    if p.bit_length == k:
        if not is_balanced(p.bits):
            raise CorruptPacketError(f"prefix-less payload {p.bits!r} is not balanced")
        return p.bits
    if p.bit_length != nbits + k:
        raise CorruptPacketError(
            f"expected {nbits + k} bits ({nbits}-bit balanced prefix + {k}), "
            f"got {p.bit_length}"
        )
    encoded, y = p.bits[:nbits], p.bits[nbits:]
    padded = "".join(decode_sextet(encoded[i : i + 6]) for i in range(0, nbits, 6))
    r = prefix_length(k, Scheme.PROPOSED_FL)
    prefix, pad = padded[:r], padded[r:]
    if pad.strip("0"):
        raise CorruptPacketError(f"prefix padding bits are not zero: {pad!r}")
    return decode_packet(Packet(prefix + y), k, Scheme.PROPOSED_FL)
