"""The classic Knuth balancing codec.

Encoding inverts the first e bits of the information word, where e is the
first balancing index, and records e in a fixed prefix of ceil(log2 k)
bits.  Decoding inverts those bits back.  No lookup tables, any even k.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CorruptCodewordError
from .words import check_word, first_balancing_index, invert_prefix, is_balanced


def ceil_log2(n: int) -> int:
    """Smallest r with 2**r >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


class KnuthCodeword(NamedTuple):
    """Inversion-index prefix plus balanced payload."""

    prefix: str
    payload: str

    @property
    def bits(self) -> str:
        return self.prefix + self.payload


def ka_encode(x: str) -> KnuthCodeword:
    """Balance ``x`` by first-index prefix inversion.

    The prefix stores e - 1 (zero-based, most significant bit first) so
    that e = k still fits in ceil(log2 k) bits when k is a power of two.
    """
    check_word(x)
    k = len(x)
    if k % 2 or k < 2:
        raise ValueError(f"information word length must be even >= 2, got {k}")
    e = first_balancing_index(x)
    prefix = format(e - 1, f"0{ceil_log2(k)}b")
    return KnuthCodeword(prefix=prefix, payload=invert_prefix(x, e))


def ka_decode(cw: KnuthCodeword) -> str:
    """Recover the information word from a codeword that :func:`ka_encode` emits."""
    check_word(cw.prefix)
    check_word(cw.payload)
    k = len(cw.payload)
    if k % 2 or k < 2:
        raise ValueError(f"payload length must be even >= 2, got {k}")
    if not is_balanced(cw.payload):
        raise CorruptCodewordError(f"payload {cw.payload!r} is not balanced")
    if len(cw.prefix) != ceil_log2(k):
        raise CorruptCodewordError(f"expected a {ceil_log2(k)}-bit prefix at k={k}, "
                                   f"got {len(cw.prefix)} bits")
    e = int(cw.prefix, 2) + 1
    if e > k:
        raise CorruptCodewordError(f"decoded inversion index {e} exceeds k={k}")
    x = invert_prefix(cw.payload, e)
    if first_balancing_index(x) != e:
        raise CorruptCodewordError(f"{e} is not the first balancing index of {x!r}")
    return x
