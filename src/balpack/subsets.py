"""Compressed-subset prefix-ranking codec for packet channels.

Every information word x is tied to the balanced word y it Knuth-balances
to.  The words tied to a given y form its subset; ranking x inside that
subset needs a shorter prefix than Knuth's inversion index.  On a packet
channel (explicit end-of-packet), already balanced words travel with no
prefix at all and the balanced member can be dropped from every subset,
which caps the subset size at k/2 instead of k/2 + 1.

Rank and unrank make the same left-to-right pass over y, with no cache.
With d_1..d_k the running sums of x and e the first j with d_j = d_k / 2,
y = invert_prefix(x, e).  invert_prefix(y, j) is a member of y's subset
exactly when j is a first visit of y's sums (the first index at its level):
new maxima and minima give the unbalanced members, the first return to zero
the balanced one, so lambda is the span of y's sums.  Of two members, the
one with the smaller j sorts first exactly when y's bit j + 1 is 0, so the
compressed listing is the first visits followed by a 0, ascending, then
those followed by a 1, descending (:func:`member_order`).  The rank is e's
position in y's listing; the balanced member ranks lambda, last.  The
explicit O(k^2) listings of :func:`subset_members` are the specification
for tests and self-checks.

Schemes
-------
KNUTH         inversion-index prefix, ceil(log2 k) bits
BASELINE_FL   rank in the uncompressed subset, ceil(log2 (k/2+1)) bits
PROPOSED_FL   rank in the compressed subset, ceil(log2 (k/2)) bits
PROPOSED_VL   rank in max(1, ceil(log2 lambda)) bits, lambda = subset size
PROPOSED_FULL PROPOSED_FL with the prefix re-encoded into balanced sextets

One kernel, :class:`BlockCodec`, serves all five; full balancing is its
single extra step, :func:`balpack.fourb6b.balance_rank` on the rank.
It takes and returns blocks as integers, first bit most significant; only
the ranked passes format a block, once.  It works out the scheme's widths
and its smallest k once, from the largest listing the scheme ranks into,
and checks no block: streams are checked once per stream, and
:func:`encode_packet` / :func:`decode_packet` are its checking string
adapters.
"""

from __future__ import annotations

import enum
from functools import lru_cache
from typing import NamedTuple

from .errors import CorruptPacketError
from .fourb6b import balance_rank, unbalance_rank
from .words import check_word, is_balanced, level_index


class Scheme(enum.Enum):
    KNUTH = 0
    BASELINE_FL = 1
    PROPOSED_FL = 2
    PROPOSED_VL = 3
    PROPOSED_FULL = 4


class SubsetListing(NamedTuple):
    """Ordered candidate list for one balanced word; ``len`` counts its members, not its fields."""

    y: str
    members: tuple[str, ...]
    includes_balanced: bool

    def __len__(self) -> int:
        return len(self.members)


class _PacketFields(NamedTuple):
    bits: str


class Packet(_PacketFields):
    """One transmitted codeword; its length is the end-of-packet information."""

    __slots__ = ()

    def __new__(cls, bits: str) -> Packet:
        return super().__new__(cls, check_word(bits))

    @property
    def bit_length(self) -> int:
        return len(self.bits)


@lru_cache(maxsize=65536)
def _members(y: str) -> tuple[str, ...]:
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
    return tuple(format(m, f"0{k}b") for m in (*unbalanced, balanced))


def subset_members(y: str, includes_balanced: bool) -> SubsetListing:
    """All words whose first-index balancing lands on ``y``, in prefix order.

    Unbalanced members come first in ascending lexicographic order; the
    unique balanced member is appended last when ``includes_balanced`` is
    set (the uncompressed baseline listing) and omitted otherwise.
    """
    check_word(y)
    if not is_balanced(y):
        raise ValueError(f"subset listings exist only for balanced words, got {y!r}")
    members = _members(y)  # one cached listing serves both forms
    return SubsetListing(y=y, members=members if includes_balanced else members[:-1],
                         includes_balanced=includes_balanced)


def subset_size_rds(y: str) -> int:
    """Compressed-subset size of ``y``: the span of its running sums.

    Each new level the sums reach is one member, so the size is the length
    of :func:`member_order`, the pass the codec makes.  Equality with the
    enumerated listing is asserted exhaustively in the test suite.
    """
    check_word(y)
    if not is_balanced(y):
        raise ValueError(f"running-sum size rule needs a balanced word, got {y!r}")
    return len(member_order(y))


def member_order(y: str) -> list[int]:
    """Inversion lengths of the balanced word ``y``'s compressed subset, in listing order.

    ``invert_prefix(y, member_order(y)[r])`` is member ``r`` of the
    compressed listing.  Encode and decode both make this one pass; the
    balanced member, BASELINE_FL's last, inverts up to y's first return to 0.
    """
    run = hi = lo = 0
    zeros: list[int] = []
    ones: list[int] = []
    for j, c in enumerate(y, start=1):
        if c == "1":
            run += 1
            if run <= hi:
                continue
            hi = run
        else:
            run -= 1
            if run >= lo:
                continue
            lo = run
        (ones if y[j] == "1" else zeros).append(j)  # j < k: d_k = 0 is no new level
    return zeros + ones[::-1]


def ceil_log2(n: int) -> int:
    """Smallest r with 2**r >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def prefix_length(k: int, scheme: Scheme, lam: int | None = None) -> int:
    """Prefix bit count for a scheme at block length ``k``: the codec's ``max_prefix``.

    ``lam`` (the compressed-subset size) is required for PROPOSED_VL only.
    The variable-length rule keeps a 1-bit floor for unbalanced words so a
    rank prefix can never be confused with the prefix-less balanced case.
    """
    codec = BlockCodec(k, scheme)
    if (lam is None) == codec.vl:
        raise ValueError(f"the subset size is needed for PROPOSED_VL and only there, "
                         f"got {lam} for {scheme.name}")
    if lam is None:
        return codec.max_prefix
    if not 1 <= lam <= k // 2:
        raise ValueError(f"subset size {lam} outside 1..{k // 2}")
    return _vl_prefix(lam)


def _vl_prefix(lam: int) -> int:
    return (lam - 1).bit_length() or 1  # ceil_log2(lam), with prefix_length's 1-bit floor


class BlockCodec:
    """The unchecked per-block kernel of one scheme at one block length.

    Blocks and packets are integers, a packet being ``prefix << k | payload``:
    balanced means a bit count of k/2, and a prefix inversion is an XOR.
    """

    def __init__(self, k: int, scheme: Scheme) -> None:
        if k % 2 or k < 2:
            raise ValueError(f"block length must be even >= 2, got {k}")
        self.k, self.half, self.fmt = k, k // 2, f"0{k}b"
        self.lead = 1 << k  # bin(v | lead)[3:] is v's k bits, in half the time of format
        self.mask = self.lead - 1
        self.knuth = scheme is Scheme.KNUTH
        self.vl = scheme is Scheme.PROPOSED_VL
        self.full = scheme is Scheme.PROPOSED_FULL
        self.prefix_less = scheme not in (Scheme.KNUTH, Scheme.BASELINE_FL)
        # the rank spans the largest listing: k indexes, k/2 members, or those and the balanced one
        listing = k if self.knuth else k // 2 if self.prefix_less else k // 2 + 1
        self.rank_bits = ceil_log2(listing)
        self.max_prefix = (_vl_prefix(k // 2) if self.vl  # VL's largest subset, longest prefix
                           else 6 * ((self.rank_bits + 3) // 4) if self.full else self.rank_bits)
        if self.prefix_less and not self.max_prefix:
            raise ValueError(f"{scheme.name} needs k >= 4 (a zero-bit rank prefix at k={k} "
                             "would collide with the prefix-less balanced case)")

    def encode(self, xi: int) -> tuple[int, int]:
        """Packet value and prefix bit count of the block of value ``xi``."""
        k = self.k
        t = xi.bit_count() - self.half
        if not t and self.prefix_less:
            return xi, 0
        e = level_index(xi, k, t)  # the first balancing index
        y = xi ^ (((1 << e) - 1) << (k - e))
        if self.knuth:  # the rank is e - 1
            return (e - 1) << k | y, self.max_prefix
        order = member_order(bin(y | self.lead)[3:])
        rank = order.index(e) if t else len(order)  # BASELINE_FL lists a balanced x last
        if self.vl:
            return rank << k | y, _vl_prefix(len(order))
        if self.full:
            rank = balance_rank(rank, self.rank_bits)
        return rank << k | y, self.max_prefix

    def decode(self, v: int, p: int) -> int:
        """Block of packet ``v`` (``p`` prefix bits); BalpackError if no block encodes to it."""
        k, half, y = self.k, self.half, v & self.mask
        nbits = max(1, p) if self.vl else self.max_prefix
        if p != nbits and not (p == 0 and self.prefix_less):
            raise CorruptPacketError(f"expected {nbits + k} bits ({nbits}-bit prefix + {k}), "
                                     f"got {p + k}")
        rank = v >> k
        if self.full and p:
            rank = unbalance_rank(rank, self.rank_bits)
        if y.bit_count() != half:
            raise CorruptPacketError(f"payload {format(y, self.fmt)!r} is not balanced")
        if not p:
            return y
        if self.knuth:  # the inversion index e = rank + 1 is any of 1..k
            size = k
        else:
            order = member_order(bin(y | self.lead)[3:])
            lam = len(order)
            if self.vl and p != _vl_prefix(lam):
                raise CorruptPacketError(f"{p}-bit prefix inconsistent with subset size {lam}")
            # prefix-less schemes drop the balanced member, ranked last
            size = lam if self.prefix_less else lam + 1
        if rank >= size:
            raise CorruptPacketError(f"rank {rank} outside subset of size {size}")
        if self.knuth:
            e = rank + 1
        elif rank < lam:
            e = order[rank]
        else:  # BASELINE_FL's balanced member
            e = level_index(y, k, 0)
        x = y ^ (((1 << e) - 1) << (k - e))
        # the ranked pass yields first balancing indexes only; Knuth's prefix does not
        if self.knuth and level_index(x, k, x.bit_count() - half) != e:
            raise CorruptPacketError(f"{e} is not the first balancing index of "
                                     f"{format(x, self.fmt)!r}")
        return x


def encode_packet(x: str, scheme: Scheme) -> Packet:
    """Encode one information word into a self-contained packet."""
    check_word(x)
    value, p = BlockCodec(len(x), scheme).encode(int(x, 2))
    return Packet(format(value, f"0{len(x) + p}b"))


def decode_packet(p: Packet, k: int, scheme: Scheme) -> str:
    """Decode one packet back to its information word.

    The packet's bit length stands in for the end-of-packet marker, so the
    variable-length prefix is ``bit_length - k`` bits, and at least one.
    """
    return format(BlockCodec(k, scheme).decode(int(p.bits, 2), p.bit_length - k), f"0{k}b")
