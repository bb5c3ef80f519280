"""Average prefix-length metrics and the comparison tables built from them.

Every ratio of big integers is one int true division, which CPython rounds
correctly: the same double as ``float(Fraction(n, d))``, the tests' oracle,
without the gcd.  At k = 1024 both numerators and denominators overflow a
double on their own, while every ratio is a tame number in [0, 1].

A table is written as plain lines, its fields joined by commas and ended by
CRLF: every field is a number or a fixed column name, so nothing needs
quoting, and CRLF ends the lines of ``csv``'s default dialect.  The bytes are
those ``csv.writer`` writes, without its scan of each ~600-digit count.
"""

import math
from operator import itemgetter

from .counting import count_table
from .subsets import Scheme, ceil_log2, prefix_length


class RedundancyRow(tuple):
    """One comparison-table row of average prefix bits: an immutable (k, h0, h, h1, h2)."""

    __slots__ = ()
    k, h0, h, h1, h2 = (property(itemgetter(i)) for i in range(5))

    def __new__(cls, k: int, h0: float, h: float, h1: float, h2: float):
        return tuple.__new__(cls, (k, h0, h, h1, h2))

    def __getnewargs__(self) -> tuple:  # copy and pickle call __new__ with the five fields
        return tuple(self)


def _averages(k: int, bits_for) -> tuple[float, float]:
    """Compressed and baseline averages of ``bits_for(ranks)`` from one count table.

    The s * N(s) unbalanced words whose compressed subset has s members
    choose their prefix out of s ranks.  Adding the balanced word gives the
    uncompressed subset of s + 1 members, and every one of the 2**k words
    lands in exactly one such subset.
    """
    _check_k(k)
    counts = count_table(k).counts
    words = 2**k
    norm = words - math.comb(k, k // 2)
    # Each term is (s * n) / norm * bits, summed in ascending s; the digits depend on it.
    compressed = sum(s * n / norm * bits_for(s) for s, n in counts.items())
    baseline = sum((s + 1) * n / words * bits_for(s + 1) for s, n in counts.items())
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
    m = (lam - 1).bit_length()  # ceil(log2 lam): C(m, m/2) <= 2**m, so no shorter m will do
    m += m % 2
    while math.comb(m, m // 2) < lam:
        m += 2
    return m


def h_prime(k: int) -> float:
    """Compressed-scheme average when each rank prefix must itself be balanced."""
    return _averages(k, delta_lambda)[0]


def h1_prime(k: int) -> float:
    """Baseline average with balanced rank prefixes."""
    return _averages(k, delta_lambda)[1]


def comparison_rows(k_list) -> list[RedundancyRow]:
    """Average-prefix-bits comparison across schemes, one row per k."""
    return [RedundancyRow(k, h0_exact(k), *_averages(k, math.log2), h2_avg(k)) for k in k_list]


def balanced_prefix_rows(k_list) -> list[tuple[int, float, float, float, int]]:
    """Balanced-prefix averages next to the Knuth redundancy curve."""
    return [(k, *_averages(k, delta_lambda), math.log2(k), ceil_log2(k)) for k in k_list]


def integer_prefix_rows(k_list) -> list[tuple[int, int, int, int]]:
    """Rounded-up fixed prefix lengths: Knuth, baseline, compressed."""
    schemes = (Scheme.KNUTH, Scheme.BASELINE_FL, Scheme.PROPOSED_FL)
    return [(k, *(prefix_length(k, s) for s in schemes)) for k in k_list]


def count_rows(k_list) -> list[tuple[int, int, int]]:
    """(k, size, count) triples of the exact enumeration."""
    return [(k, s, n) for k in k_list for s, n in count_table(k).counts.items()]


#: Each table's CSV header and the function that builds its rows from a k list.
_TABLES = {
    "table1": ("k,H0,H,H1,H2", comparison_rows),
    "nlambda": ("k,lambda,N", count_rows),
    "fig2": ("k,H_prime,H1_prime,log2k,ceil_log2k", balanced_prefix_rows),
    "fig3": ("k,knuth_bits,baseline_fl_bits,proposed_fl_bits", integer_prefix_rows),
}


def emit_tables(what: str, k_list, out) -> None:
    """Write one of the analytics tables to the text stream ``out`` as CSV, floats at 4 decimals.

    Every row is built before the first line is written, so a bad k writes nothing.
    """
    if what not in _TABLES:
        raise ValueError(f"unknown table {what!r}")
    header, rows_for = _TABLES[what]
    lines = [header] + [",".join([f"{v:.4f}" if isinstance(v, float) else str(v) for v in row])
                        for row in rows_for(k_list)]
    out.write("\r\n".join(lines) + "\r\n")
