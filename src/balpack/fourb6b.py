"""Table-free 4B6B balanced line code for rank prefixes.

Each nibble is balanced the Knuth way: invert the first e bits, then append
a 2-bit suffix naming e.  Choosing the smallest e in 1..4 that makes the
six bits weight-3 reproduces the sixteen-codeword table exactly, so the
table is written nowhere: :func:`_sextet` is the rule, and the codec only
indexes its sixteen outputs and their inverse, computed at import.  Full
balancing (``Scheme.PROPOSED_FULL`` in :mod:`balpack.subsets`) is the
PROPOSED_FL packet with its rank passed through :func:`balance_rank`, which
makes the whole packet (prefix plus payload) balanced at six output bits per
four prefix bits; :func:`unbalance_rank` is the decoder's inverse step.  The
rule works on integers; its one string form, for the self-check, is
:func:`balpack.words.encode_nibble`.
"""

from .errors import CorruptPacketError, InvalidSextetError

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


#: The rule's sixteen outputs, by nibble, and their inverse over all 64 sextet
#: values, None marking the 48 non-codewords; the codec only indexes these.
_SEXTETS = tuple(_sextet(nibble) for nibble in range(16))
_NIBBLES = tuple(map({s: nibble for nibble, s in enumerate(_SEXTETS)}.get, range(64)))


def balance_rank(rank: int, r: int) -> int:
    """The ``r``-bit ``rank`` zero-filled on the right to whole nibbles, each one a sextet."""
    n = (r + 3) // 4
    padded, out = rank << (4 * n - r), 0
    for shift in range(4 * n - 4, -4, -4):
        out = out << 6 | _SEXTETS[padded >> shift & 0xF]
    return out


def unbalance_rank(value: int, r: int) -> int:
    """Invert :func:`balance_rank` on a value of 6 * ceil(r / 4) bits; the pad must be zero."""
    n = (r + 3) // 4
    padded, fill = 0, 4 * n - r
    for shift in range(6 * n - 6, -6, -6):
        sextet = value >> shift & 0x3F
        nibble = _NIBBLES[sextet]
        if nibble is None:
            raise InvalidSextetError(f"'{sextet:06b}' does not have weight 3"
                                     if sextet.bit_count() != 3 else
                                     f"'{sextet:06b}' is not a 4B6B codeword")
        padded = padded << 4 | nibble
    if padded & ((1 << fill) - 1):
        raise CorruptPacketError(f"prefix padding bits are not zero: {padded:0{4 * n}b}")
    return padded >> fill

