"""Bit-word primitives: disparity, running digital sum, prefix inversion.

Words are plain strings over ``{'0', '1'}``, first bit leftmost, which is
also the literal format used by the CLI and the test fixtures.  All numeric
quantities use the bipolar convention 0 -> -1, 1 -> +1, so a word is
balanced exactly when its disparity is zero.  Index arguments count bits
from 1; index 0 is legal only where it means "invert nothing".

The one exception is :func:`level_index`, the codec's inner search, which
takes a block as its integer value ``v`` and its bit count ``k`` (the first
bit is the most significant) and walks it a byte at a time.
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
    v = int(w, 2)
    return level_index(v, k, v.bit_count() - k // 2)


#: Per byte value: its net bipolar sum, and per level -8..8 the first bit
#: (1..8, 0 for none) at which its running sum reaches that level, stored at
#: the level as a Python index, so row[-3] is level -3.  Built on first use.
_BYTE_WALK: tuple[list[int], list[bytes]] | None = None


def _build_byte_walk() -> tuple[list[int], list[bytes]]:
    global _BYTE_WALK
    nets, rows = [0], [bytearray(17)]  # the empty prefix
    for j in range(1, 9):  # extend every j - 1 bit prefix by a 0, then by a 1
        grown_nets, grown_rows = [], []
        for run, row in zip(nets, rows):
            for level in (run - 1, run + 1):
                grown = row[:]
                grown[level] = grown[level] or j
                grown_nets.append(level)
                grown_rows.append(grown)
        nets, rows = grown_nets, grown_rows
    _BYTE_WALK = nets, [bytes(row) for row in rows]
    return _BYTE_WALK


def level_index(v: int, k: int, level: int) -> int:
    """Smallest j >= 1 with d_j = ``level`` in the ``k``-bit word of value ``v``.

    Raises ``ValueError`` if no j <= k exists.  The walk steps one byte at a
    time and looks a byte up only while the level is within its reach; the
    zero fill of a partial last byte can never yield an index past ``k``.
    """
    nets, rows = _BYTE_WALK or _build_byte_walk()
    todo, done = level, 0  # the level less the sum so far; bits walked
    for b in (v << (-k % 8)).to_bytes((k + 7) // 8, "big"):
        if -9 < todo < 9 and (j := rows[b][todo]):
            if done + j > k:
                break
            return done + j
        todo -= nets[b]
        done += 8
    raise ValueError(f"the running sums of {format(v, f'0{k}b')!r} never reach {level}")
