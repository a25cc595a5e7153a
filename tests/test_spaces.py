"""Truncation boxes and sparse vectors."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bapkit import (
    DomainError,
    ModeError,
    SingleBox,
    TripleBox,
    TruncatedVector,
    unit_vector,
    vector_from_dense,
    zero_vector,
)


def test_triple_box_dimension_and_membership():
    box = TripleBox(2, 3, 4)
    assert box.dimension == 24
    assert box.contains((1, 1, 1)) and box.contains((2, 3, 4))
    assert not box.contains((3, 1, 1))
    assert not box.contains((0, 1, 1))
    assert not box.contains((1, 1))  # wrong arity
    assert not box.contains(5)


def test_triple_box_positions_follow_enumeration_order():
    box = TripleBox(2, 2, 3)
    listed = list(box.indices())
    assert len(listed) == box.dimension
    assert [box.position(idx) for idx in listed] == list(range(box.dimension))


def test_box_bounds_must_be_positive():
    with pytest.raises(DomainError):
        TripleBox(0, 1, 1)
    with pytest.raises(DomainError):
        SingleBox(0)


def test_single_box_membership_rejects_bool():
    box = SingleBox(3)
    assert box.contains(2)
    assert not box.contains(True)  # bool is not an index
    assert not box.contains(4)
    assert list(box.indices()) == [1, 2, 3]


def test_create_merges_duplicates_and_drops_zeros():
    box = SingleBox(4)
    v = TruncatedVector.create(box, "rational", [(2, 1), (2, -1), (3, 5), (1, 0)])
    assert v.entries == ((3, Fraction(5)),)
    assert v.support == (3,)


def test_create_rejects_out_of_box_indices():
    with pytest.raises(DomainError):
        TruncatedVector.create(SingleBox(2), "rational", [(3, 1)])


def test_entries_are_sorted_by_position():
    box = TripleBox(2, 2, 2)
    v = TruncatedVector.create(box, "rational", [((2, 1, 1), 7), ((1, 1, 2), 3)])
    assert v.support == ((1, 1, 2), (2, 1, 1))


def test_scale_drops_products_that_underflow_to_zero():
    v = vector_from_dense(SingleBox(2), "float", [1.0, 5e-324])
    assert v.scale(0.5).entries == ((1, 0.5),)
    assert v.scale(0).is_zero()


def test_get_checks_the_box():
    v = unit_vector(SingleBox(2), "rational", 1)
    assert v.get(2) == 0
    with pytest.raises(DomainError):
        v.get(3)


def test_vector_algebra_cancellation():
    box = SingleBox(3)
    a = TruncatedVector.create(box, "rational", [(1, 2), (2, 1)])
    b = TruncatedVector.create(box, "rational", [(1, 2), (3, 4)])
    assert (a - b).entries == ((2, Fraction(1)), (3, Fraction(-4)))
    assert (a - a).is_zero()
    assert (-a).get(1) == -2
    assert a.scale(0).is_zero()


def test_peer_checks():
    a = unit_vector(SingleBox(2), "rational", 1)
    with pytest.raises(DomainError):
        a + unit_vector(SingleBox(3), "rational", 1)
    with pytest.raises(ModeError):
        a + unit_vector(SingleBox(2), "float", 1)


def test_dense_round_trip():
    box = TripleBox(2, 1, 2)
    v = TruncatedVector.create(box, "rational", [((1, 1, 2), Fraction(1, 3)), ((2, 1, 1), -2)])
    assert vector_from_dense(box, "rational", v.dense()) == v
    with pytest.raises(DomainError):
        vector_from_dense(box, "rational", [1, 2, 3])  # wrong length


coords = st.lists(
    st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=6),
    min_size=4,
    max_size=4,
)


@given(coords, coords)
def test_dot_matches_dense_arithmetic(xs, ys):
    box = SingleBox(4)
    a = vector_from_dense(box, "rational", xs)
    b = vector_from_dense(box, "rational", ys)
    assert a.dot(b) == sum(x * y for x, y in zip(xs, ys))
    assert a.dot(b) == b.dot(a)


@given(coords, coords)
def test_addition_is_coordinatewise(xs, ys):
    box = SingleBox(4)
    a = vector_from_dense(box, "rational", xs)
    b = vector_from_dense(box, "rational", ys)
    assert (a + b).dense() == [x + y for x, y in zip(xs, ys)]


def test_float_mode_approx_equal():
    box = SingleBox(2)
    a = vector_from_dense(box, "float", [1.0, 0.5])
    b = vector_from_dense(box, "float", [1.0 + 1e-14, 0.5])
    assert a.approx_equal(b)
    assert not a.approx_equal(vector_from_dense(box, "float", [1.1, 0.5]))


def test_zero_vector():
    z = zero_vector(SingleBox(3), "rational")
    assert z.is_zero() and z.entries == ()
