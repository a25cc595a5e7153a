"""Scalar modes, comparison policy, geometric sums."""

from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bapkit import ModeError
from bapkit.scalars import (
    EQ,
    RANK,
    all_approx_equal,
    approx_equal,
    as_scalar,
    check_mode,
    geometric_sum,
    leq,
    one,
    rank_tol,
    sum_products,
    zero,
)


def test_check_mode_rejects_unknown():
    with pytest.raises(ModeError):
        check_mode("decimal")


def test_as_scalar_rational_accepts_int_and_fraction():
    assert as_scalar(3, "rational") == Fraction(3)
    assert as_scalar(Fraction(2, 7), "rational") == Fraction(2, 7)
    assert isinstance(as_scalar(3, "rational"), Fraction)


def test_as_scalar_rational_rejects_floats_and_bools():
    # a float in rational mode is almost always a typo, so it must not coerce
    with pytest.raises(ModeError):
        as_scalar(0.5, "rational")
    with pytest.raises(ModeError):
        as_scalar(True, "rational")


def test_as_scalar_float_coerces():
    assert as_scalar(Fraction(1, 4), "float") == 0.25
    assert as_scalar(2, "float") == 2.0
    with pytest.raises(ModeError):
        as_scalar("2", "float")
    with pytest.raises(ModeError):
        as_scalar(False, "float")


def test_typed_zero_and_one():
    assert zero("rational") == Fraction(0) and isinstance(zero("rational"), Fraction)
    assert one("float") == 1.0 and isinstance(one("float"), float)


def test_approx_equal_exact_in_rational_mode():
    assert approx_equal(Fraction(1, 3), Fraction(1, 3), "rational")
    assert not approx_equal(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30), "rational")


def test_approx_equal_relative_in_float_mode():
    assert approx_equal(1e6, 1e6 * (1 + 1e-13), "float")
    assert not approx_equal(1.0, 1.001, "float")


def test_leq_exact_in_rational_mode():
    assert leq(Fraction(1, 3), Fraction(1, 3), "rational")
    assert not leq(Fraction(1, 3) + Fraction(1, 10**30), Fraction(1, 3), "rational")


@pytest.mark.parametrize(
    "b",
    [
        0.25,  # |a|, |b| < 1: absolute slack EQ
        -0.25,
        0.5,
        4096.0,  # relative slack EQ * max(|a|, |b|)
        -4096.0,
        1e6,
    ],
)
def test_leq_slack_boundary_in_float_mode(b):
    slack = EQ * max(1.0, abs(b))
    assert leq(b + 0.9 * slack, b, "float")
    assert not leq(b + 1.1 * slack, b, "float")
    assert leq(b - slack, b, "float")



def test_all_approx_equal_scales_with_the_largest_value_of_the_object():
    assert all_approx_equal([(Fraction(1, 3), Fraction(1, 3)), (Fraction(2), Fraction(2))], "rational")
    assert not all_approx_equal([(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10**30))], "rational")
    # a small coordinate may be off by EQ times the object's largest value
    assert all_approx_equal([(0.0, 0.9 * 1000 * EQ), (1000.0, 1000.0)], "float")
    assert not all_approx_equal([(0.0, 1.1 * 1000 * EQ), (1000.0, 1000.0)], "float")
    assert not all_approx_equal([(0.0, 1.1 * EQ)], "float")
    assert all_approx_equal([], "float")

def test_rank_tol_per_mode():
    assert rank_tol("rational") is None
    assert rank_tol("float") == RANK


wide_fractions = st.fractions(
    min_value=Fraction(-(10**9)), max_value=Fraction(10**9), max_denominator=10**6
)


@given(wide_fractions, wide_fractions)
def test_leq_rational_is_exact_and_float_never_rejects_ordered_pairs(a, b):
    assert leq(a, b, "rational") == (a <= b)
    fa, fb = float(a), float(b)
    if fa <= fb:
        assert leq(fa, fb, "float")


def test_geometric_sum_small_oracles():
    assert geometric_sum(Fraction(1, 2), 1, 3) == Fraction(7, 8)
    assert geometric_sum(Fraction(3, 4), 4, 5) == Fraction(81, 256) + Fraction(243, 1024)
    assert geometric_sum(Fraction(1, 2), 5, 4) == 0  # empty range
    assert geometric_sum(Fraction(1), 2, 6) == 5  # ratio 1 counts terms


small_fractions = st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=8
)


@given(small_fractions, st.integers(0, 6), st.integers(-1, 8))
def test_geometric_sum_matches_term_by_term(ratio, first, length):
    last = first + length
    expected = sum((ratio**n for n in range(first, last + 1)), Fraction(0))
    assert geometric_sum(ratio, first, last) == expected


@pytest.mark.parametrize(
    "value",
    [
        float("nan"), float("inf"), float("-inf"),
        # beyond the float range: float() raises OverflowError, which must not escape
        pytest.param(10**400, id="int-10**400"),
        pytest.param(Fraction(10**400), id="Fraction-10**400"),
    ],
)
def test_as_scalar_float_rejects_non_finite(value):
    with pytest.raises(ModeError):
        as_scalar(value, "float")


def test_float_vectors_reject_nan_coordinates():
    from bapkit import SingleBox, vector_from_dense

    with pytest.raises(ModeError):
        vector_from_dense(SingleBox(2), "float", [float("nan"), 1.0])


def loop_sum(pairs, mode):
    """sum_products as a loop that adds one product at a time."""
    total = zero(mode)
    for a, b in pairs:
        total += a * b
    return total


def magnitudes(pairs):
    """The pairs (a, |b|), as a caller that sums a * |b| passes them."""
    return [(a, abs(b)) for a, b in pairs]


# denominators up to 12 make every branch of the integer accumulation run:
# equal, dividing, divisible and coprime denominators
term_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)
term_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
term_ints = st.integers(-9, 9)
rational_terms = st.tuples(st.one_of(term_fractions, term_ints), term_fractions)
float_terms = st.tuples(st.one_of(term_floats, term_fractions, term_ints), term_floats)


@given(st.lists(rational_terms), st.booleans())
def test_sum_products_is_exact_in_rational_mode(pairs, absolute):
    pairs = magnitudes(pairs) if absolute else pairs
    got = sum_products(pairs, "rational")
    assert type(got) is Fraction
    assert got == loop_sum(pairs, "rational")


@given(st.lists(float_terms), st.booleans())
def test_sum_products_is_bit_equal_to_the_loop_in_float_mode(pairs, absolute):
    pairs = magnitudes(pairs) if absolute else pairs
    got = sum_products(pairs, "float")
    expected = loop_sum(pairs, "float")
    assert type(got) is float and got.hex() == expected.hex()


def test_sum_products_of_nothing_is_the_typed_zero():
    assert sum_products([], "rational") == 0 and type(sum_products([], "rational")) is Fraction
    assert sum_products([], "float").hex() == (0.0).hex()


# unnormalised ratios: the common factor f stays in, numerators run through 0
Ratio = namedtuple("Ratio", "numerator denominator")
ratio_terms = st.builds(
    lambda n, d, f: Ratio(n * f, d * f), st.integers(-20, 20), st.integers(1, 12), st.integers(1, 6)
)


@given(st.lists(st.tuples(st.one_of(term_fractions, term_ints), ratio_terms)), st.booleans())
def test_sum_products_adds_ratio_pairs_exactly(pairs, absolute):
    pairs = [(a, Ratio(abs(b.numerator), b.denominator)) for a, b in pairs] if absolute else pairs
    got = sum_products(pairs, "rational")
    as_fractions = [(a, Fraction(b.numerator, b.denominator)) for a, b in pairs]
    assert type(got) is Fraction
    assert got == loop_sum(as_fractions, "rational")


def test_sum_products_of_ratio_pairs_with_a_zero_numerator():
    pairs = [(3, Ratio(0, 35)), (Fraction(1, 2), Ratio(-6, 14)), (4, Ratio(10, 4)), (1, Ratio(0, 1))]
    assert sum_products(pairs, "rational") == Fraction(-3, 14) + 10
    positive = [(a, Ratio(abs(b.numerator), b.denominator)) for a, b in pairs]
    assert sum_products(positive, "rational") == Fraction(3, 14) + 10
    assert sum_products([(5, Ratio(0, 9))], "rational") == 0
