"""Table-free 4B6B balanced line code for rank prefixes.

Each nibble is balanced the Knuth way: invert the first e bits, then append
a 2-bit suffix naming e.  Choosing the smallest e in 1..4 that makes the
six bits weight-3 reproduces the sixteen-codeword table exactly, so neither
side stores the table.  Full balancing (``Scheme.PROPOSED_FULL`` in
:mod:`balpack.subsets`) is the PROPOSED_FL packet with its rank prefix
passed through :func:`balance_prefix`, which makes the whole packet (prefix
plus payload) balanced at six output bits per four prefix bits;
:func:`unbalance_prefix` is the decoder's inverse step.
"""

from __future__ import annotations

from .errors import CorruptPacketError, InvalidSextetError
from .words import check_word, invert_prefix

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


def unbalance_prefix(encoded: str, r: int) -> str:
    """Invert :func:`balance_prefix` for an ``r``-bit prefix; the pad must be zero."""
    if r < 1 or len(encoded) != 6 * ((r + 3) // 4):
        raise ValueError(f"{len(encoded)} bits cannot hold a balanced {r}-bit prefix")
    padded = "".join(decode_sextet(encoded[i : i + 6]) for i in range(0, len(encoded), 6))
    prefix, pad = padded[:r], padded[r:]
    if pad.strip("0"):
        raise CorruptPacketError(f"prefix padding bits are not zero: {pad!r}")
    return prefix
