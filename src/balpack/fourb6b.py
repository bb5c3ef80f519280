"""Table-free 4B6B balanced line code for rank prefixes.

Each nibble is balanced the Knuth way: invert the first e bits, then append
a 2-bit suffix naming e.  Choosing the smallest e in 1..4 that makes the
six bits weight-3 reproduces the sixteen-codeword table exactly, so neither
side stores the table.  Full balancing (``Scheme.PROPOSED_FULL`` in
:mod:`balpack.subsets`) is the PROPOSED_FL packet with its rank passed
through :func:`balance_rank`, which makes the whole packet (prefix plus
payload) balanced at six output bits per four prefix bits;
:func:`unbalance_rank` is the decoder's inverse step.  The rule works on
integers; the string functions are its checking adapters.
"""

from __future__ import annotations

from .errors import CorruptPacketError, InvalidSextetError
from .words import check_word

#: Suffix naming the inversion index e = 1..4 (entry e - 1), by the nibble's
#: first bit.  The two differ only at e in {3, 4}; each is a permutation,
#: which is what makes the suffix decodable.
_SUFFIXES = ((0b01, 0b10, 0b00, 0b11), (0b01, 0b10, 0b11, 0b00))


def _sextet(nibble: int) -> int:
    """The weight-3 sextet of a nibble value 0..15 (unchecked)."""
    for e, suffix in enumerate(_SUFFIXES[nibble >> 3], start=1):
        body = nibble ^ (0xF0 >> e & 0xF)  # the first e of the four bits inverted
        if body.bit_count() + suffix.bit_count() == 3:
            return body << 2 | suffix
    raise AssertionError(f"no balancing index for nibble {nibble:04b}")


def _nibble(sextet: int) -> int:
    """Invert :func:`_sextet` on a value 0..63; rejects the 48 non-codewords."""
    if sextet.bit_count() != 3:
        raise InvalidSextetError(f"'{sextet:06b}' does not have weight 3")
    body = sextet >> 2
    # e >= 1 always inverts the first bit, so the original start bit is
    # the complement of the body's first bit.
    e = _SUFFIXES[1 - (body >> 3)].index(sextet & 0b11) + 1
    nibble = body ^ (0xF0 >> e & 0xF)
    if _sextet(nibble) != sextet:
        raise InvalidSextetError(f"'{sextet:06b}' is not a 4B6B codeword")
    return nibble


def balance_rank(rank: int, r: int) -> int:
    """The ``r``-bit ``rank`` zero-filled on the right to whole nibbles, each one a sextet."""
    n = (r + 3) // 4
    padded, out = rank << (4 * n - r), 0
    for shift in range(4 * n - 4, -4, -4):
        out = out << 6 | _sextet(padded >> shift & 0xF)
    return out


def unbalance_rank(value: int, r: int) -> int:
    """Invert :func:`balance_rank` on a value of 6 * ceil(r / 4) bits; the pad must be zero."""
    n = (r + 3) // 4
    padded, fill = 0, 4 * n - r
    for shift in range(6 * n - 6, -6, -6):
        padded = padded << 4 | _nibble(value >> shift & 0x3F)
    if padded & ((1 << fill) - 1):
        raise CorruptPacketError(f"prefix padding bits are not zero: {padded:0{4 * n}b}")
    return padded >> fill


def encode_nibble(nibble: str) -> str:
    """Map a 4-bit word to its weight-3 sextet."""
    check_word(nibble)
    if len(nibble) != 4:
        raise ValueError(f"nibble must be 4 bits, got {len(nibble)}")
    return format(_sextet(int(nibble, 2)), "06b")


def decode_sextet(sextet: str) -> str:
    """Invert :func:`encode_nibble`; rejects the 48 non-codeword sextets."""
    check_word(sextet)
    if len(sextet) != 6:
        raise ValueError(f"sextet must be 6 bits, got {len(sextet)}")
    return format(_nibble(int(sextet, 2)), "04b")


def balance_prefix(prefix: str) -> str:
    """Re-encode a rank prefix into balanced sextets.

    The prefix is zero-filled on the right up to a nibble boundary, then
    each nibble becomes one sextet; the result has weight exactly half its
    length.
    """
    check_word(prefix)
    r = len(prefix)
    return format(balance_rank(int(prefix, 2), r), f"0{6 * ((r + 3) // 4)}b")


def unbalance_prefix(encoded: str, r: int) -> str:
    """Invert :func:`balance_prefix` for an ``r``-bit prefix; the pad must be zero."""
    if r < 1 or len(encoded) != 6 * ((r + 3) // 4):
        raise ValueError(f"{len(encoded)} bits cannot hold a balanced {r}-bit prefix")
    check_word(encoded)
    return format(unbalance_rank(int(encoded, 2), r), f"0{r}b")
