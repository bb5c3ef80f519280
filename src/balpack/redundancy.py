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

from .counting import subset_size_count
from .subsets import Scheme, ceil_log2, prefix_length


class RedundancyRow(NamedTuple):
    """One comparison-table row of average prefix bits."""

    k: int
    h0: float
    h: float
    h1: float
    h2: float


class PrefixWeights(NamedTuple):
    """Weighted subset-size distribution behind one average-length metric.

    ``weights[size]`` is the number of information words carrying a prefix
    chosen out of ``size`` ranks; ``normalizer`` is the word count the
    average is taken over.
    """

    k: int
    weights: dict[int, int]
    normalizer: int

    def average(self, bits_for: Callable[[int], float]) -> float:
        return sum(
            n / self.normalizer * bits_for(size)
            for size, n in self.weights.items()
        )


def _compressed_weights(k: int) -> PrefixWeights:
    _check_k(k)
    counts = {s: subset_size_count(s, k) for s in range(1, k // 2 + 1)}
    weights = {s: s * n for s, n in counts.items()}
    norm = 2**k - math.comb(k, k // 2)
    assert sum(weights.values()) == norm
    return PrefixWeights(k=k, weights=weights, normalizer=norm)


def _baseline_weights(k: int) -> PrefixWeights:
    # The uncompressed subset of size s' holds the s' - 1 unbalanced words
    # plus the balanced one, and every one of the 2**k words lands in
    # exactly one subset.
    _check_k(k)
    weights = {
        s + 1: (s + 1) * subset_size_count(s, k) for s in range(1, k // 2 + 1)
    }
    assert sum(weights.values()) == 2**k
    return PrefixWeights(k=k, weights=weights, normalizer=2**k)


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
    return _compressed_weights(k).average(math.log2)


def h1_avg(k: int) -> float:
    """Average ideal prefix bits of the uncompressed baseline."""
    return _baseline_weights(k).average(math.log2)


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
    return _compressed_weights(k).average(lambda s: float(delta_lambda(s)))


def h1_prime(k: int) -> float:
    """Baseline average with balanced rank prefixes."""
    return _baseline_weights(k).average(lambda s: float(delta_lambda(s)))


def redundancy_row(k: int) -> RedundancyRow:
    return RedundancyRow(k=k, h0=h0_exact(k), h=h_avg(k), h1=h1_avg(k), h2=h2_avg(k))


def comparison_rows(k_list: Iterable[int]) -> list[RedundancyRow]:
    """Average-prefix-bits comparison across schemes, one row per k."""
    return [redundancy_row(k) for k in k_list]


def balanced_prefix_rows(k_list: Iterable[int]) -> list[tuple[int, float, float, float, int]]:
    """Balanced-prefix averages next to the Knuth redundancy curve."""
    return [
        (k, h_prime(k), h1_prime(k), math.log2(k), ceil_log2(k)) for k in k_list
    ]


def integer_prefix_rows(k_list: Iterable[int]) -> list[tuple[int, int, int, int]]:
    """Rounded-up fixed prefix lengths: Knuth, baseline, compressed."""
    schemes = (Scheme.KNUTH, Scheme.BASELINE_FL, Scheme.PROPOSED_FL)
    return [(k, *(prefix_length(k, s) for s in schemes)) for k in k_list]


def count_rows(k_list: Iterable[int]) -> list[tuple[int, int, int]]:
    """(k, size, count) triples of the exact enumeration."""
    return [(k, s, subset_size_count(s, k)) for k in k_list for s in range(1, k // 2 + 1)]


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
