"""Compressed-subset prefix-ranking codec for packet channels.

Every information word x is tied to the balanced word y it Knuth-balances
to.  The words tied to a given y form its subset; ranking x inside that
subset needs a shorter prefix than Knuth's inversion index.  On a packet
channel (explicit end-of-packet), already balanced words travel with no
prefix at all and the balanced member can be dropped from every subset,
which caps the subset size at k/2 instead of k/2 + 1.

Rank and unrank read y's running sums d_1..d_k in one O(k) pass, with no
cache.  x_j = invert_prefix(y, j) has partial sums -d_1..-d_j and balancing
target -d_j, so it is a member exactly when j is the first index at which d
reaches the level d_j: the strict new maxima and minima of d give the
unbalanced members, the first return to zero the balanced one.  Members
x_j1, x_j2 with j1 < j2 first differ at bit j1 + 1, so x_j1 sorts first
exactly when that bit of y is 0.  The explicit O(k^2) listings of
:func:`subset_members` are the specification for tests and self-checks.

Schemes
-------
KNUTH         inversion-index prefix, ceil(log2 k) bits
BASELINE_FL   rank in the uncompressed subset, ceil(log2 (k/2+1)) bits
PROPOSED_FL   rank in the compressed subset, ceil(log2 (k/2)) bits
PROPOSED_VL   rank in max(1, ceil(log2 lambda)) bits, lambda = subset size
PROPOSED_FULL PROPOSED_FL with the prefix re-encoded into balanced sextets

One encoder and one decoder serve all five; full balancing is their single
extra step, :func:`balpack.fourb6b.balance_prefix` on the rank prefix.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import CorruptPacketError
from .fourb6b import balance_prefix, unbalance_prefix
from .knuth import ceil_log2, ka_encode
from .words import (
    check_word,
    first_balancing_index,
    invert_prefix,
    is_balanced,
    rds_extrema,
)


class Scheme(enum.Enum):
    KNUTH = 0
    BASELINE_FL = 1
    PROPOSED_FL = 2
    PROPOSED_VL = 3
    PROPOSED_FULL = 4


#: Schemes that send already balanced words prefix-less.
PREFIX_LESS_SCHEMES = frozenset(
    {Scheme.PROPOSED_FL, Scheme.PROPOSED_VL, Scheme.PROPOSED_FULL}
)


@dataclass(frozen=True)
class SubsetListing:
    """Ordered candidate list for one balanced word."""

    y: str
    members: tuple[str, ...]
    includes_balanced: bool

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class Packet:
    """One transmitted codeword; its length is the end-of-packet information."""

    bits: str

    def __post_init__(self) -> None:
        check_word(self.bits)

    @property
    def bit_length(self) -> int:
        return len(self.bits)


@lru_cache(maxsize=65536)
def _members(y: str, includes_balanced: bool) -> tuple[str, ...]:
    k = len(y)
    unbalanced = []
    balanced = None
    for j in range(1, k + 1):
        cand = invert_prefix(y, j)
        if first_balancing_index(cand) != j:
            continue
        if is_balanced(cand):
            # invariant: each subset holds exactly one balanced word
            assert balanced is None, f"two balanced members under {y!r}"
            balanced = cand
        else:
            unbalanced.append(cand)
    assert balanced is not None, f"no balanced member under {y!r}"
    unbalanced.sort()
    if includes_balanced:
        unbalanced.append(balanced)
    return tuple(unbalanced)


def subset_members(y: str, includes_balanced: bool) -> SubsetListing:
    """All words whose first-index balancing lands on ``y``, in prefix order.

    Unbalanced members come first in ascending lexicographic order; the
    unique balanced member is appended last when ``includes_balanced`` is
    set (the uncompressed baseline listing) and omitted otherwise.
    """
    check_word(y)
    if len(y) % 2 or not is_balanced(y):
        raise ValueError(f"subset listings exist only for balanced words, got {y!r}")
    return SubsetListing(
        y=y, members=_members(y, includes_balanced), includes_balanced=includes_balanced
    )


def subset_size_rds(y: str) -> int:
    """Compressed-subset size of ``y`` straight from its running-sum span.

    The size equals the number of distinct running-sum levels ``y`` visits
    minus one, i.e. max - min of the unit-step partial sums.  Equality with
    the enumerated listing is asserted exhaustively in the test suite.
    """
    check_word(y)
    if len(y) % 2 or not is_balanced(y):
        raise ValueError(f"running-sum size rule needs a balanced word, got {y!r}")
    hi, lo = rds_extrema(y)
    return hi - lo


def member_order(y: str) -> list[int]:
    """Inversion lengths of the balanced word ``y``'s subset, in listing order.

    ``invert_prefix(y, member_order(y)[r])`` is member ``r`` of the
    uncompressed listing.  Its last entry is the balanced member; without
    it the list is the compressed listing, so lambda is one less than its
    length.
    """
    d = list(accumulate(map({"0": -1, "1": 1}.__getitem__, y), initial=0))
    visits = []
    for levels in (range(1, max(d) + 1), range(-1, min(d) - 1, -1)):
        j = 0
        for level in levels:  # unit steps reach each new level after the last
            j = d.index(level, j)
            visits.append(j)
    visits.sort()
    # x_j sorts before every later member exactly when y[j] (bit j+1) is 0
    return (
        [j for j in visits if y[j] == "0"]
        + [j for j in reversed(visits) if y[j] == "1"]
        + [d.index(0, 1)]
    )


def check_block_length(k: int, scheme: Scheme) -> None:
    """Raise ``ValueError`` unless ``scheme`` can code blocks of ``k`` bits."""
    if k % 2 or k < 2:
        raise ValueError(f"block length must be even >= 2, got {k}")
    if k < 4 and scheme in (Scheme.PROPOSED_FL, Scheme.PROPOSED_FULL):
        raise ValueError(f"{scheme.name} needs k >= 4 (a zero-bit rank prefix at k={k} "
                         "would collide with the prefix-less balanced case)")


def prefix_length(k: int, scheme: Scheme, lam: int | None = None) -> int:
    """Prefix bit count for a scheme at block length ``k``.

    ``lam`` (the compressed-subset size) is required for PROPOSED_VL only.
    The variable-length rule keeps a 1-bit floor for unbalanced words so a
    rank prefix can never be confused with the prefix-less balanced case.
    """
    check_block_length(k, scheme)
    if scheme is Scheme.PROPOSED_VL:
        if lam is None:
            raise ValueError("PROPOSED_VL prefix length needs the subset size")
        if not 1 <= lam <= k // 2:
            raise ValueError(f"subset size {lam} outside 1..{k // 2}")
        return max(1, ceil_log2(lam))
    if lam is not None:
        raise ValueError(f"subset size is meaningful only for PROPOSED_VL, not {scheme.name}")
    if scheme is Scheme.KNUTH:
        return ceil_log2(k)
    if scheme is Scheme.BASELINE_FL:
        return ceil_log2(k // 2 + 1)
    if scheme is Scheme.PROPOSED_FL:
        return ceil_log2(k // 2)
    if scheme is Scheme.PROPOSED_FULL:
        return 6 * ((ceil_log2(k // 2) + 3) // 4)
    raise ValueError(f"unknown scheme {scheme!r}")


def encode_packet(x: str, scheme: Scheme) -> Packet:
    """Encode one information word into a self-contained packet."""
    check_word(x)
    k = len(x)
    check_block_length(k, scheme)
    if scheme is Scheme.KNUTH:  # the rank is e - 1
        return Packet(ka_encode(x).bits)
    if scheme in PREFIX_LESS_SCHEMES and is_balanced(x):
        return Packet(x)
    e = first_balancing_index(x)
    y = invert_prefix(x, e)
    order = member_order(y)
    rank = order.index(e)
    lam = len(order) - 1 if scheme is Scheme.PROPOSED_VL else None
    full = scheme is Scheme.PROPOSED_FULL
    nbits = prefix_length(k, Scheme.PROPOSED_FL if full else scheme, lam)
    assert rank < (1 << nbits), "rank cannot exceed its prefix space"
    prefix = format(rank, f"0{nbits}b")
    return Packet((balance_prefix(prefix) if full else prefix) + y)


def decode_packet(p: Packet, k: int, scheme: Scheme) -> str:
    """Decode one packet back to its information word.

    The packet's bit length stands in for the end-of-packet marker, so the
    variable-length prefix is ``bit_length - k`` bits, and at least one.
    """
    check_block_length(k, scheme)
    if p.bit_length == k and scheme in PREFIX_LESS_SCHEMES:
        if not is_balanced(p.bits):
            raise CorruptPacketError(f"prefix-less payload {p.bits!r} is not balanced")
        return p.bits
    nbits = max(1, p.bit_length - k) if scheme is Scheme.PROPOSED_VL else prefix_length(k, scheme)
    if p.bit_length != nbits + k:
        raise CorruptPacketError(
            f"expected {nbits + k} bits ({nbits}-bit prefix + {k}), got {p.bit_length}"
        )
    prefix, y = p.bits[:nbits], p.bits[nbits:]
    if scheme is Scheme.PROPOSED_FULL:
        prefix = unbalance_prefix(prefix, prefix_length(k, Scheme.PROPOSED_FL))
    if not is_balanced(y):
        raise CorruptPacketError(f"payload {y!r} is not balanced")
    rank = int(prefix, 2)
    if scheme is Scheme.KNUTH:  # the inversion index e = rank + 1 is any of 1..k
        order, size = range(1, k + 1), k
    else:
        order = member_order(y)
        lam = len(order) - 1
        if scheme is Scheme.PROPOSED_VL and nbits != prefix_length(k, scheme, lam):
            raise CorruptPacketError(
                f"{nbits}-bit prefix inconsistent with subset size {lam} of {y!r}"
            )
        # prefix-less schemes drop the balanced member, the last in the order
        size = lam if scheme in PREFIX_LESS_SCHEMES else len(order)
    if rank >= size:
        raise CorruptPacketError(f"rank {rank} outside subset of size {size} for {y!r}")
    return invert_prefix(y, order[rank])
