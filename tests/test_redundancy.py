"""Redundancy metric tests against the reference comparison table."""

import io
import math
from fractions import Fraction

import pytest

from balpack import counting
from balpack.counting import count_table
from balpack.redundancy import (
    balanced_prefix_rows,
    comparison_rows,
    count_rows,
    delta_lambda,
    emit_tables,
    h0_approx,
    h0_exact,
    h1_avg,
    h1_prime,
    h2_avg,
    h_avg,
    h_prime,
    integer_prefix_rows,
)
from balpack.subsets import ceil_log2

# Reference average-prefix-bits comparison, four decimals each.
TABLE1 = {
    4:    (1.4150, 0.8000, 1.4387, 0.5000),
    8:    (1.8707, 1.4632, 1.8985, 0.9375),
    16:   (2.3483, 2.0806, 2.3790, 1.3706),
    32:   (2.8370, 2.6629, 2.8691, 1.8082),
    64:   (3.3314, 3.2207, 3.3641, 2.2516),
    128:  (3.8286, 3.7615, 3.8616, 2.7039),
    256:  (4.3272, 4.2902, 4.3603, 3.1647),
    512:  (4.8265, 4.8104, 4.8597, 3.6330),
    1024: (5.3261, 5.3246, 5.3594, 4.1082),
}


def test_k4_rows_match_hand_computation():
    assert h0_exact(4) == pytest.approx(1.4150, abs=5e-5)
    assert h_avg(4) == pytest.approx(0.8000, abs=5e-5)
    assert h1_avg(4) == pytest.approx(1.4387, abs=5e-5)
    assert h2_avg(4) == pytest.approx(0.5000, abs=5e-5)
    # closed forms behind those numbers
    assert h_avg(4) == pytest.approx((2 * 4 * 1.0) / 10)
    assert h1_avg(4) == pytest.approx((2 * 2 + 3 * 4 * math.log2(3)) / 16)


@pytest.mark.parametrize("k", sorted(TABLE1))
def test_table1_reproduced(k):
    h0, h, h1, h2 = TABLE1[k]
    assert h0_exact(k) == pytest.approx(h0, abs=2e-3)
    assert h_avg(k) == pytest.approx(h, abs=2e-3)
    assert h1_avg(k) == pytest.approx(h1, abs=2e-3)
    assert h2_avg(k) == pytest.approx(h2, abs=2e-3)


@pytest.mark.parametrize("k", [4, 16, 256, 2048])
def test_int_true_division_matches_the_fraction_oracle(k):
    """Each ratio is one correctly rounded division, the same double Fraction gives."""
    counts = count_table(k).counts
    compressed = [(s, s * n, 2**k - math.comb(k, k // 2)) for s, n in counts.items()]
    baseline = [(s + 1, (s + 1) * n, 2**k) for s, n in counts.items()]
    for average, terms in ((h_avg, compressed), (h1_avg, baseline)):
        for _, n, d in terms:
            assert n / d == float(Fraction(n, d))
        assert average(k) == sum(float(Fraction(n, d)) * math.log2(s) for s, n, d in terms)
    oracle = 0.0
    for c in range(1, k // 2 + 1):
        n, d = math.comb(k - 1 - c, k // 2 - c), 2 ** (k - 1 - c)
        assert n / d == float(Fraction(n, d))
        low, high = c.bit_length() - 1, ceil_log2(c)
        spread = c - 2**low
        oracle += float(Fraction(n, d)) * (
            (c - 2 * spread) * low * 2.0**-low + 2 * spread * high * 2.0**-high)
    assert h2_avg(k) == oracle


def test_rows_build_one_binomial_row_per_k(monkeypatch):
    rows_built = []
    strip_traces = counting._strip_traces

    def counted(widths, steps):
        rows_built.append(steps)
        return strip_traces(widths, steps)

    monkeypatch.setattr(counting, "_strip_traces", counted)
    k_list = [4 << i for i in range(10)]  # 4, 8, ..., 2048
    assert [row.k for row in comparison_rows(k_list)] == k_list
    assert rows_built == k_list
    rows_built.clear()
    assert [row[0] for row in balanced_prefix_rows(k_list)] == k_list
    assert rows_built == k_list


def test_h0_approx():
    assert h0_approx(1024) == pytest.approx(5.3260, abs=1e-4)
    assert abs(h0_approx(1024) - h0_exact(1024)) < 1e-3


def test_h2_hand_values():
    # k=8 conditional decomposition: shares 20/64, 10/32, 4/16, 1/8 with
    # average index costs 0, 1, 1.5, 2
    assert h2_avg(8) == pytest.approx(0.3125 + 0.375 + 0.25, abs=1e-12)
    assert h2_avg(512) == pytest.approx(3.6330, abs=2e-3)


def test_delta_lambda_values():
    assert delta_lambda(1) == 0
    assert delta_lambda(2) == 2
    assert delta_lambda(7) == 6
    assert [delta_lambda(n) for n in (3, 6, 20, 21, 70)] == [4, 4, 6, 8, 8]
    with pytest.raises(ValueError):
        delta_lambda(0)


def test_h_prime_hand_value():
    assert h_prime(4) == pytest.approx(1.6, abs=1e-12)
    assert h1_prime(4) == pytest.approx(3.5, abs=1e-12)


@pytest.mark.parametrize("k", [4, 8, 16, 32, 64])
def test_balanced_prefixes_cost_at_least_ideal(k):
    assert h_prime(k) >= h_avg(k) - 1e-12
    assert h1_prime(k) >= h1_avg(k) - 1e-12


def test_h_ordering_observed():
    for k in sorted(TABLE1):
        assert h_avg(k) <= h1_avg(k)


def test_balanced_prefix_crossover():
    # balanced-prefix averages drop below the Knuth curve from k = 32 on
    assert h_prime(32) < 5
    assert h_prime(16) >= 4


def test_integer_prefix_rows():
    assert integer_prefix_rows([256, 1024]) == [(256, 8, 8, 7), (1024, 10, 10, 9)]


def test_rows_helpers():
    (row,) = comparison_rows([4])
    assert (row.k, round(row.h, 4)) == (4, 0.8)
    (fig2_row,) = balanced_prefix_rows([4])
    assert fig2_row == (4, pytest.approx(1.6), pytest.approx(3.5), 2.0, 2)
    assert count_rows([4]) == [(4, 1, 2), (4, 2, 4)]


def test_emit_table1_csv():
    out = io.StringIO()
    emit_tables("table1", [4], out)
    assert out.getvalue().splitlines() == [
        "k,H0,H,H1,H2",
        "4,1.4150,0.8000,1.4387,0.5000",
    ]


def test_emit_nlambda_csv():
    out = io.StringIO()
    emit_tables("nlambda", [6], out)
    assert out.getvalue().splitlines() == [
        "k,lambda,N",
        "6,1,2",
        "6,2,12",
        "6,3,6",
    ]


def test_emit_fig_tables():
    out = io.StringIO()
    emit_tables("fig3", [256], out)
    assert out.getvalue().splitlines()[1] == "256,8,8,7"
    out = io.StringIO()
    emit_tables("fig2", [4], out)
    assert out.getvalue().splitlines() == [
        "k,H_prime,H1_prime,log2k,ceil_log2k",
        "4,1.6000,3.5000,2.0000,2",
    ]
    with pytest.raises(ValueError):
        emit_tables("bogus", [4], io.StringIO())


def test_domain_errors():
    with pytest.raises(ValueError):
        h_avg(7)
    with pytest.raises(ValueError):
        h_avg(2)
    with pytest.raises(ValueError):
        h0_exact(3)
    with pytest.raises(ValueError):
        count_rows([1])