"""The specification: bit-word primitives, explicit subset listings and packet adapters.

Words are plain strings over ``{'0', '1'}``, first bit leftmost, the
format of the test fixtures; the CLI reads and writes bytes.  All numeric
quantities use the bipolar convention 0 -> -1, 1 -> +1, so a word is
balanced exactly when its disparity is zero.  Index arguments count bits
from 1; index 0 is legal only where it means "invert nothing".

No codec module imports this one; the tests, the self-check and the
brute-force count do.  The codec walks blocks as integers, a byte at a time,
in :mod:`balpack.subsets`; the per-bit :func:`first_balancing_index` and
:func:`member_order` and the O(k^2) :func:`subset_members` specify its walks,
and :func:`encode_nibble` the 4B6B rule of :mod:`balpack.fourb6b`.
:func:`encode_packet` and :func:`decode_packet` check a word and run one
block of it through the integer kernel, :class:`balpack.subsets.BlockCodec`.
Nothing here is cached: each call builds its listing afresh.
"""

from .fourb6b import _sextet
from .subsets import BlockCodec, Scheme, _decode_rank, level_index

_FLIP = str.maketrans("01", "10")


def check_word(w: str, *, allow_empty: bool = False) -> None:
    """Raise ``ValueError`` unless ``w`` is a bit literal."""
    if not isinstance(w, str):
        raise ValueError(f"word must be a str of 0/1, got {type(w).__name__}")
    if not w and not allow_empty:
        raise ValueError("word must be non-empty")
    rest = w.lstrip("01")
    if rest:
        raise ValueError(f"word has non-binary symbol {rest[0]!r} at index {len(w) - len(rest)}")


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


def subset_members(y: str, includes_balanced: bool) -> tuple[str, ...]:
    """All words whose first-index balancing lands on ``y``, in prefix order.

    Unbalanced members come first in ascending lexicographic order; the
    unique balanced member is appended last when ``includes_balanced`` is
    set (the uncompressed baseline listing) and omitted otherwise.
    """
    check_word(y)
    if not is_balanced(y):
        raise ValueError(f"subset listings exist only for balanced words, got {y!r}")
    k, v = len(y), int(y, 2)
    unbalanced, balanced = [], None
    for j in range(1, k + 1):
        cand = v ^ (((1 << j) - 1) << (k - j))  # invert_prefix(y, j)
        t = cand.bit_count() - k // 2
        if level_index(cand, k, t) != j:  # j is not the first balancing index
            continue
        if not t:
            # invariant: each subset holds exactly one balanced word
            assert balanced is None, f"two balanced members under {y!r}"
            balanced = cand
        else:
            unbalanced.append(cand)
    assert balanced is not None, f"no balanced member under {y!r}"
    unbalanced.sort()  # equal-length words sort as their values
    members = (*unbalanced, balanced) if includes_balanced else unbalanced
    return tuple(format(m, f"0{k}b") for m in members)


def subset_size_rds(y: str) -> int:
    """Compressed-subset size of ``y``: the span of its running sums.

    Each new level the sums reach is one member.  It is read off the decode
    walk, as BASELINE_FL ranks a balanced block, so checking it against the
    listing tests the walk the codec ships.
    """
    check_word(y)
    if not is_balanced(y):
        raise ValueError(f"running-sum size rule needs a balanced word, got {y!r}")
    k = len(y)
    return _decode_rank(int(y, 2), k, k // 2, False)[1]  # rank k/2 is past every member


def member_order(y: int, k: int) -> list[int]:
    """Inversion lengths of the compressed subset of the balanced ``k``-bit ``y``, in order.

    Inverting y's first ``member_order(y, k)[r]`` bits gives member r.  A new
    maximum or minimum of y's sums at j is a member, listed ascending if y's
    bit j + 1 is 0, then descending if it is 1.
    """
    run = hi = lo = 0
    zeros, ones = [], []
    for j in range(1, k):  # d_k = 0 is no new level
        run += 1 if y >> k - j & 1 else -1
        if lo <= run <= hi:
            continue
        hi, lo = max(hi, run), min(lo, run)
        (ones if y >> k - 1 - j & 1 else zeros).append(j)
    return zeros + ones[::-1]


def encode_nibble(nibble: str) -> str:
    """Map a 4-bit word to its weight-3 sextet."""
    check_word(nibble)
    if len(nibble) != 4:
        raise ValueError(f"nibble must be 4 bits, got {len(nibble)}")
    return format(_sextet(int(nibble, 2)), "06b")


def encode_packet(x: str, scheme: Scheme) -> str:
    """Encode one information word into a self-contained packet."""
    check_word(x)
    value, p = BlockCodec(len(x), scheme).encode(int(x, 2))
    return format(value, f"0{len(x) + p}b")


def decode_packet(packet: str, k: int, scheme: Scheme) -> str:
    """Decode one packet back to its information word.

    The packet's length stands in for the end-of-packet marker, so the
    variable-length prefix is ``len(packet) - k`` bits, and at least one.
    """
    check_word(packet)
    return format(BlockCodec(k, scheme).decode(int(packet, 2), len(packet) - k), f"0{k}b")
