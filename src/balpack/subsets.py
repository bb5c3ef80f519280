"""Compressed-subset prefix-ranking codec for packet channels.

Every information word x is tied to the balanced word y it Knuth-balances
to.  The words tied to a given y form its subset; ranking x inside that
subset needs a shorter prefix than Knuth's inversion index.  On a packet
channel (explicit end-of-packet), already balanced words travel with no
prefix at all and the balanced member can be dropped from every subset,
which caps the subset size at k/2 instead of k/2 + 1.

With d_1..d_k the running sums of x and e the first j with d_j = d_k / 2,
y = invert_prefix(x, e).  invert_prefix(y, j) is a member of y's subset
exactly when j is a first visit of y's sums (the first index at its level):
new maxima and minima give the unbalanced members, the first return to zero
the balanced one, so lambda is the span of y's sums.  Of two members, the
one with the smaller j sorts first exactly when y's bit j + 1 is 0, so the
compressed listing is the first visits followed by a 0, ascending, then
those followed by a 1, descending (:func:`member_order`).  The rank is e's
position in y's listing; the balanced member ranks lambda, last.  Decode
walks y once and takes the entry its rank names.  Encode walks x once
(:func:`_encode_rank`): up to e, y's first visits are x's, so it counts e's
rank there and reads lambda off the sums after e, listing nothing.  No walk
keeps a cache.  The explicit O(k^2) listings of :func:`subset_members` are
the specification for tests and self-checks.

Each walk goes a byte at a time.  A first visit is a record of its byte:
its running sum, counted from the byte's start, goes above or below every
earlier one.  One lazily built 256-entry table gives each byte value its
net sum, its highest and lowest running sums, and those records, so a byte
whose sums stay within the levels already reached costs one addition, and
any other byte is read off its records, not bit by bit.

Schemes
-------
KNUTH         inversion-index prefix, ceil(log2 k) bits
BASELINE_FL   rank in the uncompressed subset, ceil(log2 (k/2+1)) bits
PROPOSED_FL   rank in the compressed subset, ceil(log2 (k/2)) bits
PROPOSED_VL   rank in max(1, ceil(log2 lambda)) bits, lambda = subset size
PROPOSED_FULL PROPOSED_FL with the prefix re-encoded into balanced sextets

One kernel, :class:`BlockCodec`, serves all five; full balancing is its
single extra step, :func:`balpack.fourb6b.balance_rank` on the rank.
It takes and returns blocks as integers, first bit most significant, and
formats none.  It works out the scheme's widths and its smallest k once,
from the largest listing the scheme ranks into, and checks no block:
streams are checked once per stream, and :func:`encode_packet` /
:func:`decode_packet` are its checking string adapters.
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
    of :func:`member_order`, the pass the decoder makes.  Equality with the
    enumerated listing is asserted exhaustively in the test suite.
    """
    check_word(y)
    if not is_balanced(y):
        raise ValueError(f"running-sum size rule needs a balanced word, got {y!r}")
    return len(member_order(int(y, 2), len(y)))


#: Per byte value: its net bipolar sum, the highest and lowest of its running
#: sums (the empty prefix's 0 included), and its records, (bit, sum) for each
#: bit 1..8 at which its running sum goes above or below every earlier one.
#: Built on first use.
_BYTE_SPAN: list[tuple[int, int, int, tuple[tuple[int, int], ...]]] | None = None


def _build_byte_span() -> list[tuple[int, int, int, tuple[tuple[int, int], ...]]]:
    global _BYTE_SPAN
    spans = [(0, 0, 0, ())]  # the empty prefix
    for j in range(1, 9):  # extend every j - 1 bit prefix by a 0, then by a 1
        grown = []
        for net, high, low, records in spans:
            down, up = net - 1, net + 1  # past the lowest or highest sum so far: a record
            grown.append((down, high, down, (*records, (j, down))) if net == low
                         else (down, high, low, records))
            grown.append((up, up, low, (*records, (j, up))) if net == high
                         else (up, high, low, records))
        spans = grown
    _BYTE_SPAN = spans
    return spans


def _span_reach(v: int, k: int, level: int) -> int:
    """:func:`balpack.words.level_index` for a ``level`` the ``k``-bit word ``v`` reaches.

    Read off the span table, so ranked processes never build the level rows.
    A level other than 0 is first reached at a record of its byte; the first
    return to 0 is the first reach, after bit 1, of the level bit 1 left.
    """
    if not level:
        top = v >> k - 1
        return 1 + _span_reach(v ^ top << k - 1, k - 1, 1 - 2 * top)
    spans = _BYTE_SPAN or _build_byte_span()
    done = 0
    for b in (v << -k % 8).to_bytes((k + 7) // 8, "big"):
        net, high, low, records = spans[b]
        if low <= level <= high:
            for i, d in records:
                if d == level:
                    return done + i
        level -= net
        done += 8
    raise ValueError(f"the running sums of {format(v, f'0{k}b')!r} never reach the level")


def _encode_rank(v: int, k: int, t: int, need_lam: bool) -> tuple[int, int, int | None]:
    """First balancing index e of the ``k``-bit block ``v`` (t != 0), e's rank, and lambda.

    One walk over v lists nothing: before e, v's first visits are y's, with the
    inverse next bit.  With c those that v follows by a 1, e ranks c in
    :func:`member_order` if v's bit e + 1 is 0, else c + lambda - (hi - lo), v's
    span up to e.  Lambda (y's sums after e: v's less 2t) is None unless needed.
    """
    spans = _BYTE_SPAN or _build_byte_span()
    # past bit k, y's sums go 0, ±1, 0, ... (±1 as y's first bit), then a 0 byte for w's window
    pad = -k % 8
    data = ((v << pad | 0xAA >> (v >> k - 1) + 8 - pad) << 8).to_bytes((k + 15) // 8, "big")
    run = hi = lo = c = 0
    for n, b in enumerate(data):
        net, high, low, records = spans[b]
        if run + high > hi or run + low < lo:  # the byte reaches a new level
            w = b << 8 | data[n + 1]
            for i, d in records:
                level = run + d
                if level > hi:
                    hi = level
                elif level < lo:
                    lo = level
                else:
                    continue
                if level == t:
                    break
                c += w >> 15 - i & 1
            if lo <= t <= hi:  # t lies beyond every level until e reaches it
                break
        run += net
    e, up = 8 * n + i, w >> 15 - i & 1  # up: v's bit e + 1
    if not (up or need_lam):
        return e, c, None
    rest = b << i & 0xFF  # v's sums after e: its high with a 0 fill, its low with 1s
    top, bot = t + spans[rest][1], t + spans[rest | (1 << i) - 1][2]
    for b in data[n + 1 : -1]:
        run += net
        net, high, low, _ = spans[b]
        if run + high > top:
            top = run + high
        if run + low < bot:
            bot = run + low
    top, bot = top - 2 * t, bot - 2 * t  # y's sums after e
    lam = (top if top > -lo else -lo) - (bot if bot < -hi else -hi)
    return e, c + lam - (hi - lo) if up else c, lam


def member_order(y: int, k: int) -> list[int]:
    """Inversion lengths of the compressed subset of ``y``, in listing order.

    ``y`` is a balanced ``k``-bit block; inverting its first
    ``member_order(y, k)[r]`` bits gives member ``r``.  Decode makes this
    pass; the balanced member, BASELINE_FL's last, inverts up to y's first
    return to 0.
    """
    spans = _BYTE_SPAN or _build_byte_span()
    run = hi = lo = done = 0
    zeros: list[int] = []
    ones: list[int] = []
    v = y << -k % 8
    last = k - 1 + -k % 8  # y's bit j + 1 is bit (last - j) of v
    for b in v.to_bytes((k + 7) // 8, "big"):
        net, high, low, records = spans[b]
        if run + high > hi or run + low < lo:  # the byte reaches a new level
            for i, d in records:
                level = run + d
                if level > hi:
                    hi = level
                elif level < lo:
                    lo = level
                else:
                    continue
                j = done + i
                if j >= k:  # d_k = 0 is no new level; the zero fill after it is no member
                    break
                (ones if v >> last - j & 1 else zeros).append(j)
        run += net
        done += 8
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
        self.mask = (1 << k) - 1
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
        if self.knuth:  # the rank is e - 1
            e = level_index(xi, k, t)
            return (e - 1) << k | xi ^ (((1 << e) - 1) << (k - e)), self.max_prefix
        if t:
            e, rank, lam = _encode_rank(xi, k, t, self.vl)
        elif self.prefix_less:
            return xi, 0
        else:  # BASELINE_FL lists a balanced x last
            e = _span_reach(xi, k, 0)
            rank = len(member_order(xi ^ (((1 << e) - 1) << (k - e)), k))
        y = xi ^ (((1 << e) - 1) << (k - e))
        if self.vl:
            return rank << k | y, _vl_prefix(lam)
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
            order = member_order(y, k)
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
            e = _span_reach(y, k, 0)
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
