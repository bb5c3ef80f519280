"""Word primitive tests against independent inline oracles."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balpack.words import (
    disparity,
    first_balancing_index,
    invert_prefix,
    is_balanced,
    level_index,
)

words = st.text(alphabet="01", min_size=1, max_size=64)
even_words = st.integers(min_value=1, max_value=8).flatmap(
    lambda half: st.text(alphabet="01", min_size=2 * half, max_size=2 * half)
)


def oracle_invert(w: str, j: int) -> str:
    return "".join("1" if c == "0" else "0" for c in w[:j]) + w[j:]


def oracle_level_index(w: str, level: int) -> int | None:
    """The per-bit walk: smallest j >= 1 with d_j = level, None if there is none."""
    run = 0
    for j, c in enumerate(w, start=1):
        run += 1 if c == "1" else -1
        if run == level:
            return j
    return None


def walk_or_none(v: int, k: int, level: int) -> int | None:
    try:
        return level_index(v, k, level)
    except ValueError:
        return None


def oracle_sums(w: str) -> list[int]:
    out, run = [], 0
    for c in w:
        run += 1 if c == "1" else -1
        out.append(run)
    return out


def test_disparity_examples():
    assert disparity("0011") == 0
    assert disparity("1111") == 4
    assert disparity("1000") == -2


def test_disparity_rejects_empty_and_junk():
    with pytest.raises(ValueError):
        disparity("")
    with pytest.raises(ValueError):
        disparity("01a1")


def test_invert_prefix_examples():
    assert invert_prefix("1111", 2) == "0011"
    assert invert_prefix("1011", 0) == "1011"


def test_invert_prefix_range_error():
    with pytest.raises(ValueError):
        invert_prefix("1011", 5)
    with pytest.raises(ValueError):
        invert_prefix("1011", -1)


@given(words, st.data())
def test_invert_prefix_involution(w, data):
    j = data.draw(st.integers(min_value=0, max_value=len(w)))
    assert invert_prefix(invert_prefix(w, j), j) == w
    assert invert_prefix(w, j) == oracle_invert(w, j)


@given(words)
def test_full_complement_negates_disparity(w):
    assert disparity(invert_prefix(w, len(w))) == -disparity(w)


def test_is_balanced():
    assert is_balanced("0011")
    assert not is_balanced("1011")
    assert not is_balanced("010")


def test_first_balancing_index_examples():
    assert first_balancing_index("1011") == 1
    assert first_balancing_index("1100") == 4
    assert first_balancing_index("0101") == 2


def test_first_balancing_index_rejects_odd():
    with pytest.raises(ValueError):
        first_balancing_index("010")


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
def test_first_balancing_index_minimal_exhaustive(k):
    for bits in itertools.product("01", repeat=k):
        w = "".join(bits)
        e = first_balancing_index(w)
        assert 1 <= e <= k
        assert is_balanced(oracle_invert(w, e))
        assert all(not is_balanced(oracle_invert(w, j)) for j in range(1, e))


@given(even_words)
def test_first_balancing_index_minimal_random(w):
    e = first_balancing_index(w)
    assert is_balanced(oracle_invert(w, e))
    assert all(not is_balanced(oracle_invert(w, j)) for j in range(1, e))


def test_balanced_words_balance_to_balanced_words_k16():
    # already balanced words must still report e >= 1 and land on balance
    k = 16
    for ones in itertools.combinations(range(k), k // 2):
        y = "".join("1" if i in ones else "0" for i in range(k))
        e = first_balancing_index(y)
        assert e >= 1
        assert is_balanced(invert_prefix(y, e))


def test_level_index_matches_per_bit_oracle_exhaustive():
    # every word of every length up to 12 bits, so each fill width 0..7 occurs
    for k in range(1, 13):
        for v in range(1 << k):
            w = format(v, f"0{k}b")
            for level in range(-k - 1, k + 2):
                assert walk_or_none(v, k, level) == oracle_level_index(w, level), (w, level)


@pytest.mark.parametrize("residue", [0, 2, 4, 6])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_level_index_matches_per_bit_oracle_long_words(residue, data):
    k = 8 * data.draw(st.integers(0 if residue else 1, (1026 - residue) // 8)) + residue
    w = data.draw(st.text(alphabet="01", min_size=k, max_size=k))
    sums = oracle_sums(w)
    level = data.draw(st.sampled_from(sums) | st.integers(min_value=-k - 1, max_value=k + 1))
    assert walk_or_none(int(w, 2), k, level) == oracle_level_index(w, level)
    t = sums[-1] // 2  # the level of the first balancing index, for even k
    assert walk_or_none(int(w, 2), k, t) == oracle_level_index(w, t)


def test_level_index_unreachable_levels_raise():
    # each level is reached only in the zero fill of the last byte, or never
    for v, k, level in [(0b10, 2, -1), (0b1010, 4, -1), (0b11, 2, 3), (0b11, 2, -1),
                        (int("10" * 513, 2), 1026, -1), (0, 1024, 1), (0, 1024, -1025)]:
        with pytest.raises(ValueError):
            level_index(v, k, level)
    assert level_index(0b10, 2, 0) == 2
    assert level_index(0, 1024, -1024) == 1024
