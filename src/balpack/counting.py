"""Exact enumeration of balanced words by compressed-subset size.

The running digital sum of a balanced word is a closed +-1 walk, so the
number of balanced words confined to a window of B sum levels is the trace
of the k-th power of the B x B tridiagonal path-adjacency matrix.  Words
whose subset size is exactly ``size`` sit in a window of size + 1 levels
but not in any smaller one, giving the second difference of traces.

Traces are evaluated exactly in big integers through the reflection
(method of images) identity for walks confined to a strip, which collapses
to a single congruence-filtered binomial sum:

    trace(M_B ** k) = (B+1) * sum_{j == k/2 (mod B+1)} C(k, j)  -  2**k

Each class j == k/2 (mod B+1) is symmetric about k/2, as C(k, .) is, so its
sum is twice its sum over j <= k/2 less C(k, k/2): half the row gives the traces.

A cosine closed form of the same trace exists; it is evaluated in
extended precision because its three nearly equal terms cancel down by a
factor of about 2**k.
"""

import itertools
import math
from functools import lru_cache
from operator import itemgetter

from .words import subset_members

#: Brute-force enumeration walks all C(k, k/2) balanced words; above this
#: block length that stops being a desk-scale computation.
BRUTEFORCE_MAX_K = 20


class CountTable(tuple):
    """Counts of balanced length-k words per compressed-subset size: an immutable (k, counts)."""

    __slots__ = ()
    k, counts = (property(itemgetter(i)) for i in range(2))

    def __new__(cls, k: int, counts: dict[int, int]):
        return tuple.__new__(cls, (k, counts))

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with both fields
        return tuple(self)

    def total(self) -> int:
        return sum(self.counts.values())

    def weighted_total(self) -> int:
        return sum(size * n for size, n in self.counts.items())

    def validate(self) -> None:
        """Check both sum identities against the binomial totals."""
        full = math.comb(self.k, self.k // 2)
        for what, got, expect in (("counts", self.total(), full),
                                  ("weighted counts", self.weighted_total(), 2**self.k - full)):
            if got != expect:
                raise AssertionError(f"{what} sum to {got}, expected {expect}")


def connection_matrix(states: int) -> list[list[int]]:
    """Tridiagonal 0/1 adjacency matrix of the running-sum walk on ``states`` levels."""
    if states < 0:
        raise ValueError(f"state count must be >= 0, got {states}")
    return [[1 if abs(i - j) == 1 else 0 for j in range(states)] for i in range(states)]


def _strip_traces(widths, steps: int) -> list[int]:
    """trace(M_B ** steps) for each strip width B in ``widths``, from half a binomial row."""
    half = steps // 2
    row = [1]  # C(steps, 0..half)
    for j in range(half):
        row.append(row[-1] * (steps - j) // (j + 1))
    middle, walks = row[half], 1 << steps
    return [(b + 1) * (2 * sum(row[half % (b + 1)::b + 1]) - middle) - walks for b in widths]


def trace_closed_walks(states: int, steps: int) -> int:
    """Number of closed walks of length ``steps`` on the path with ``states`` vertices.

    Exact for any size, in O(steps) big-integer operations; zero states give 0.
    """
    if states < 0:
        raise ValueError(f"state count must be >= 0, got {states}")
    if steps < 0 or steps % 2:
        raise ValueError(f"step count must be even >= 0, got {steps}")
    return _strip_traces((states,), steps)[0]


def _check_size_args(size: int, k: int) -> None:
    if k % 2 or k < 2:
        raise ValueError(f"word length must be even >= 2, got {k}")
    if not 1 <= size <= k // 2:
        raise ValueError(f"subset size {size} outside 1..{k // 2}")


def subset_size_count(size: int, k: int) -> int:
    """Exact number of balanced length-k words with compressed-subset size ``size``."""
    _check_size_args(size, k)
    return count_table(k).counts[size]


def subset_size_count_cosine(size: int, k: int) -> float:
    """Cosine closed form of :func:`subset_size_count`, returned as a float.

    Each trace is 2**k times a sum of cos**k terms; the working precision
    scales with k because the second difference cancels almost all of the
    2**k magnitude.  Raises OverflowError when the true value does not fit
    a double.
    """
    import mpmath  # the only user; codec and table paths never load it
    _check_size_args(size, k)
    with mpmath.workprec(k + 64):

        def cosine_trace(states: int) -> mpmath.mpf:
            return mpmath.fsum(mpmath.cos(mpmath.pi * i / (states + 1)) ** k
                               for i in range(1, states + 1))

        value = mpmath.mpf(2) ** k * (cosine_trace(size + 1) - 2 * cosine_trace(size)
                                      + cosine_trace(size - 1))
        out = float(value)
        if math.isinf(out) and mpmath.isfinite(value):
            raise OverflowError(f"subset-size count for size={size}, k={k} exceeds float range")
    return out


def balanced_words(k: int):
    """Every balanced word of length ``k``, in lexicographic order of its ones' positions."""
    for ones in itertools.combinations(range(k), k // 2):
        yield "".join("1" if i in ones else "0" for i in range(k))


@lru_cache(maxsize=8)
def _bruteforce_table(k: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for y in balanced_words(k):
        size = len(subset_members(y, includes_balanced=False))
        counts[size] = counts.get(size, 0) + 1
    return counts


def subset_size_count_bruteforce(size: int, k: int) -> int:
    """Oracle count by building every subset listing outright; k <= 20."""
    _check_size_args(size, k)
    if k > BRUTEFORCE_MAX_K:
        raise ValueError(
            f"brute force enumerates C(k, k/2) balanced words; k={k} exceeds "
            f"the cap of {BRUTEFORCE_MAX_K}"
        )
    return _bruteforce_table(k).get(size, 0)


def count_table(k: int) -> CountTable:
    """Full table of counts for one block length, validated on the way out."""
    if k % 2 or k < 2:
        raise ValueError(f"word length must be even >= 2, got {k}")
    t = _strip_traces(range(k // 2 + 2), k)
    counts = {s: t[s + 1] - 2 * t[s] + t[s - 1] for s in range(1, k // 2 + 1)}
    table = CountTable(k=k, counts=counts)
    table.validate()
    return table
