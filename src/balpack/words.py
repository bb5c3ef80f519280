"""Bit-word primitives: disparity, running digital sum, prefix inversion.

Words are plain strings over ``{'0', '1'}``, first bit leftmost, which is
also the literal format used by the CLI and the test fixtures.  All numeric
quantities use the bipolar convention 0 -> -1, 1 -> +1, so a word is
balanced exactly when its disparity is zero.  Index arguments count bits
from 1; index 0 is legal only where it means "invert nothing".

The codec walks blocks as integers, a byte at a time, in
:mod:`balpack.subsets`; :func:`first_balancing_index` here is the per-bit
specification its level search is tested against.
"""

from __future__ import annotations

_FLIP = str.maketrans("01", "10")


def check_word(w: str, *, allow_empty: bool = False) -> str:
    """Validate a bit literal and return it unchanged."""
    if not isinstance(w, str):
        raise ValueError(f"word must be a str of 0/1, got {type(w).__name__}")
    if not w and not allow_empty:
        raise ValueError("word must be non-empty")
    if w.strip("01"):
        raise ValueError(f"word contains non-binary symbols: {w!r}")
    return w


def disparity(w: str) -> int:
    """Bipolar digit sum of ``w``: (#ones - #zeros). Zero iff balanced."""
    check_word(w)
    return 2 * w.count("1") - len(w)


def invert_prefix(w: str, j: int) -> str:
    """Complement bits 1..j of ``w``; ``j = 0`` is the identity."""
    check_word(w, allow_empty=True)
    if not 0 <= j <= len(w):
        raise ValueError(f"inversion index {j} outside 0..{len(w)}")
    return w[:j].translate(_FLIP) + w[j:]


def is_balanced(w: str) -> bool:
    """True iff ``w`` has equally many ones and zeros (always false for odd length)."""
    check_word(w, allow_empty=True)
    return len(w) % 2 == 0 and 2 * w.count("1") == len(w)


def first_balancing_index(w: str) -> int:
    """Smallest e in 1..k such that inverting the first e bits balances ``w``.

    Inverting a prefix of length j changes the disparity by -2 d_j, so the
    balancing indexes are exactly the j with d_j = disparity(w)/2.  Such an
    index always exists for even length: the prefix disparity walks in unit
    steps from +-1 to disparity(w) and must pass through its half.  An
    already balanced word still reports e >= 1 (its sums return to zero no
    later than j = k).
    """
    check_word(w)
    k = len(w)
    if k % 2:
        raise ValueError(f"no balancing index exists for odd length {k}")
    run, half = 0, w.count("1") - k // 2
    for j, c in enumerate(w[:-1], 1):
        run += 1 if c == "1" else -1
        if run == half:
            return j
    return k  # the sums reach half by j = k at the latest
