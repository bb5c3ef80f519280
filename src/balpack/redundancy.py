"""Average prefix-length metrics and the comparison tables built from them.

Every ratio of big integers is one int true division, which CPython rounds
correctly: the same double as ``float(Fraction(n, d))``, the tests' oracle,
without the gcd.  At k = 1024 both numerators and denominators overflow a
double on their own, while every ratio is a tame number in [0, 1].
"""

from __future__ import annotations

import csv
import math
from typing import Callable, Iterable, NamedTuple, TextIO

from .counting import count_table
from .subsets import Scheme, ceil_log2, prefix_length


class RedundancyRow(NamedTuple):
    """One comparison-table row of average prefix bits."""

    k: int
    h0: float
    h: float
    h1: float
    h2: float


def _averages(k: int, bits_for: Callable[[int], float]) -> tuple[float, float]:
    """Compressed and baseline averages of ``bits_for(ranks)`` from one count table.

    The s * N(s) unbalanced words whose compressed subset has s members
    choose their prefix out of s ranks.  Adding the balanced word gives the
    uncompressed subset of s + 1 members, and every one of the 2**k words
    lands in exactly one such subset.
    """
    _check_k(k)
    counts = count_table(k).counts
    norm = 2**k - math.comb(k, k // 2)
    # Each term is (s * n) / norm * bits, summed in ascending s; the digits depend on it.
    compressed = sum(s * n / norm * bits_for(s) for s, n in counts.items())
    baseline = sum((s + 1) * n / 2**k * bits_for(s + 1) for s, n in counts.items())
    return compressed, baseline


def _check_k(k: int) -> None:
    if k % 2 or k < 4:
        raise ValueError(f"metrics are defined for even k >= 4, got {k}")


def h0_exact(k: int) -> float:
    """Redundancy of the full balanced code: k - log2 C(k, k/2)."""
    if k % 2 or k < 2:
        raise ValueError(f"even k >= 2 required, got {k}")
    return k - math.log2(math.comb(k, k // 2))


def h0_approx(k: int) -> float:
    """Large-k approximation of :func:`h0_exact`."""
    if k < 1:
        raise ValueError(f"positive k required, got {k}")
    return 0.5 * math.log2(k) + 0.326


def h_avg(k: int) -> float:
    """Average ideal prefix bits of the compressed-subset scheme."""
    return _averages(k, math.log2)[0]


def h1_avg(k: int) -> float:
    """Average ideal prefix bits of the uncompressed baseline."""
    return _averages(k, math.log2)[1]


def h2_avg(k: int) -> float:
    """Average prefix bits of the bit-recycling balancing method.

    Conditions on the number of balancing indexes c; ``share`` is the
    probability of seeing exactly c of them and ``avg_bits`` the average
    code length of a c-ary index split across the two nearest powers of
    two.
    """
    _check_k(k)
    total, ways = 0.0, math.comb(k - 2, k // 2 - 1)
    for c in range(1, k // 2 + 1):
        share = ways / (1 << (k - 1 - c))  # ways = C(k-1-c, k/2-c)
        ways = ways * (k // 2 - c) // (k - 1 - c)  # C(n-1, m-1) = C(n, m) * m // n
        low = c.bit_length() - 1  # floor(log2 c)
        high = ceil_log2(c)
        d = c - 2**low
        avg_bits = (c - 2 * d) * low * 2.0**-low + 2 * d * high * 2.0**-high
        total += share * avg_bits
    return total


def delta_lambda(lam: int) -> int:
    """Smallest even length whose full balanced code has at least ``lam`` words."""
    if lam < 1:
        raise ValueError(f"positive subset size required, got {lam}")
    m = 0
    while math.comb(m, m // 2) < lam:
        m += 2
    return m


def h_prime(k: int) -> float:
    """Compressed-scheme average when each rank prefix must itself be balanced."""
    return _averages(k, delta_lambda)[0]


def h1_prime(k: int) -> float:
    """Baseline average with balanced rank prefixes."""
    return _averages(k, delta_lambda)[1]


def redundancy_row(k: int) -> RedundancyRow:
    h, h1 = _averages(k, math.log2)
    return RedundancyRow(k=k, h0=h0_exact(k), h=h, h1=h1, h2=h2_avg(k))


def comparison_rows(k_list: Iterable[int]) -> list[RedundancyRow]:
    """Average-prefix-bits comparison across schemes, one row per k."""
    return [redundancy_row(k) for k in k_list]


def balanced_prefix_rows(k_list: Iterable[int]) -> list[tuple[int, float, float, float, int]]:
    """Balanced-prefix averages next to the Knuth redundancy curve."""
    return [
        (k, *_averages(k, delta_lambda), math.log2(k), ceil_log2(k)) for k in k_list
    ]


def integer_prefix_rows(k_list: Iterable[int]) -> list[tuple[int, int, int, int]]:
    """Rounded-up fixed prefix lengths: Knuth, baseline, compressed."""
    schemes = (Scheme.KNUTH, Scheme.BASELINE_FL, Scheme.PROPOSED_FL)
    return [(k, *(prefix_length(k, s) for s in schemes)) for k in k_list]


def count_rows(k_list: Iterable[int]) -> list[tuple[int, int, int]]:
    """(k, size, count) triples of the exact enumeration."""
    return [(k, s, n) for k in k_list for s, n in count_table(k).counts.items()]


def emit_tables(what: str, k_list: Iterable[int], out: TextIO) -> None:
    """Write one of the analytics tables as CSV with 4-decimal H columns."""
    writer = csv.writer(out)
    if what == "table1":
        writer.writerow(["k", "H0", "H", "H1", "H2"])
        for row in comparison_rows(k_list):
            writer.writerow(
                [row.k, f"{row.h0:.4f}", f"{row.h:.4f}", f"{row.h1:.4f}", f"{row.h2:.4f}"]
            )
    elif what == "nlambda":
        writer.writerow(["k", "lambda", "N"])
        for k, s, n in count_rows(k_list):
            writer.writerow([k, s, n])
    elif what == "fig2":
        writer.writerow(["k", "H_prime", "H1_prime", "log2k", "ceil_log2k"])
        for k, hp, h1p, lg, clg in balanced_prefix_rows(k_list):
            writer.writerow([k, f"{hp:.4f}", f"{h1p:.4f}", f"{lg:.4f}", clg])
    elif what == "fig3":
        writer.writerow(["k", "knuth_bits", "baseline_fl_bits", "proposed_fl_bits"])
        for row in integer_prefix_rows(k_list):
            writer.writerow(row)
    else:
        raise ValueError(f"unknown table {what!r}")
