"""Enumeration tests: trace oracle, count identities, closed form."""

import itertools
import math

import pytest

from balpack import counting
from balpack.counting import (
    connection_matrix,
    count_table,
    subset_size_count,
    subset_size_count_bruteforce,
    subset_size_count_cosine,
    trace_closed_walks,
)
from balpack.words import subset_members


def matrix_power_trace(states: int, steps: int) -> int:
    """Independent oracle: exact integer power of the adjacency matrix."""
    if states == 0:
        return 0
    m = connection_matrix(states)
    power = [[int(i == j) for j in range(states)] for i in range(states)]
    for _ in range(steps):
        power = [
            [sum(power[i][t] * m[t][j] for t in range(states)) for j in range(states)]
            for i in range(states)
        ]
    return sum(power[i][i] for i in range(states))


def test_connection_matrix_shape():
    assert connection_matrix(0) == []
    assert connection_matrix(3) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


def test_trace_examples():
    assert trace_closed_walks(1, 6) == 0
    assert trace_closed_walks(2, 6) == 2
    assert trace_closed_walks(3, 6) == 16
    assert trace_closed_walks(0, 8) == 0
    assert trace_closed_walks(5, 0) == 5  # identity matrix
    # B + 1 > steps leaves only j = steps/2 in the congruence filter: O(steps) at any width
    assert trace_closed_walks(10**9, 8) == (10**9 + 1) * 70 - 256


def test_trace_rejects_bad_arguments():
    with pytest.raises(ValueError):
        trace_closed_walks(-1, 4)
    with pytest.raises(ValueError):
        trace_closed_walks(3, 5)


@pytest.mark.parametrize("states", range(0, 8))
def test_trace_matches_matrix_power(states):
    for steps in range(0, 14, 2):
        assert trace_closed_walks(states, steps) == matrix_power_trace(states, steps)


def test_count_examples():
    assert subset_size_count(1, 4) == 2
    assert subset_size_count(2, 4) == 4
    assert subset_size_count(2, 6) == 12
    assert subset_size_count(2, 8) == 28
    assert subset_size_count(3, 8) == 32


def test_count_rejects_out_of_range():
    with pytest.raises(ValueError):
        subset_size_count(0, 8)
    with pytest.raises(ValueError):
        subset_size_count(5, 8)
    with pytest.raises(ValueError):
        subset_size_count(1, 7)


@pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
def test_exact_matches_bruteforce(k):
    for size in range(1, k // 2 + 1):
        assert subset_size_count(size, k) == subset_size_count_bruteforce(size, k)


def test_bruteforce_cap():
    with pytest.raises(ValueError):
        subset_size_count_bruteforce(1, 22)


def test_identities_hold_exactly_up_to_64():
    for k in range(2, 66, 2):
        table = count_table(k)  # validate() checks both identities
        assert table.total() == math.comb(k, k // 2)
        assert table.weighted_total() == 2**k - math.comb(k, k // 2)
        for s, n in table.counts.items():
            assert n == (trace_closed_walks(s + 1, k) - 2 * trace_closed_walks(s, k)
                         + trace_closed_walks(s - 1, k))


@pytest.mark.parametrize("k", [*range(0, 132, 2), 1022, 1024, 2048])
def test_half_row_traces_equal_the_full_row_sum(k):
    """Each trace is the same integer as the congruence-filtered sum over the whole row."""
    row = [math.comb(k, j) for j in range(k + 1)]
    widths = [*range(k // 2 + 2), k, k + 1, 3 * k + 7, 10**9]
    assert counting._strip_traces(widths, k) == [
        (b + 1) * sum(row[k // 2 % (b + 1)::b + 1]) - 2**k for b in widths]


def test_baseline_counts_are_shifted():
    # the uncompressed listing of a word is its compressed listing plus one
    for k in (4, 6, 8):
        brute_baseline: dict[int, int] = {}
        for ones in itertools.combinations(range(k), k // 2):
            y = "".join("1" if i in ones else "0" for i in range(k))
            size = len(subset_members(y, includes_balanced=True))
            brute_baseline[size] = brute_baseline.get(size, 0) + 1
        for size_prime, count in brute_baseline.items():
            assert count == subset_size_count(size_prime - 1, k)


def test_cosine_examples():
    assert subset_size_count_cosine(1, 4) == pytest.approx(2, rel=1e-6)
    assert subset_size_count_cosine(2, 6) == pytest.approx(12, rel=1e-6)
    assert subset_size_count_cosine(4, 8) == pytest.approx(8, rel=1e-6)


def test_cosine_matches_exact_up_to_64():
    worst = 0.0
    for k in range(4, 66, 2):
        for size in range(1, k // 2 + 1):
            exact = subset_size_count(size, k)
            approx = subset_size_count_cosine(size, k)
            worst = max(worst, abs(approx - exact) / exact)
    assert worst < 1e-6


def test_cosine_overflow_raises():
    # the exact count exceeds the double range here
    assert subset_size_count(33, 1100) > 2.0**1023
    with pytest.raises(OverflowError):
        subset_size_count_cosine(33, 1100)
