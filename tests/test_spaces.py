"""Truncation boxes and sparse vectors."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit import (
    DomainError,
    InputError,
    ModeError,
    SingleBox,
    TripleBox,
    TruncatedVector,
    unit_vector,
    vector_from_dense,
    zero_vector,
)
from bapkit.spaces import _canonical


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


@pytest.mark.parametrize(
    "box",
    [SingleBox(1), SingleBox(7), TripleBox(1, 1, 1), TripleBox(2, 2, 3), TripleBox(3, 4, 2)],
    ids=str,
)
def test_box_order_is_the_natural_order_of_the_indices(box):
    # vectors sort and merge their entries by comparing indices directly
    listed = list(box.indices())
    assert listed == sorted(listed)
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


# entries the public constructor refuses: it takes canonical form only, so two vectors
# are equal exactly when their coordinates are
MALFORMED_ENTRIES = [
    # the stored zero would overwrite x_1 in dense(), which read [0, 1]
    ("unsorted-with-a-zero", SingleBox(2), ((2, 1), (1, 1), (1, 0)), InputError),
    ("unsorted", SingleBox(2), ((2, 1), (1, 1)), InputError),
    ("repeated-index", SingleBox(2), ((1, 1), (1, 2)), InputError),
    ("repeated-triple-index", TripleBox(2, 2, 2), (((1, 2, 1), 1), ((1, 2, 1), 1)), InputError),
    ("zero-value", SingleBox(2), ((1, Fraction(0)),), InputError),
    ("index-outside-the-box", SingleBox(2), ((1, 1), (3, 1)), DomainError),
    ("triple-index-outside-the-box", TripleBox(2, 2, 2), (((1, 1, 3), 1),), DomainError),
    ("boolean-index", SingleBox(2), ((True, 1),), DomainError),
]


@pytest.mark.parametrize(
    "box, entries, error", [m[1:] for m in MALFORMED_ENTRIES], ids=[m[0] for m in MALFORMED_ENTRIES]
)
def test_the_constructor_rejects_entries_out_of_canonical_form(box, entries, error):
    with pytest.raises(error) as info:
        TruncatedVector(box, "rational", entries)
    assert type(info.value) is error


def test_the_constructor_accepts_canonical_entries():
    box = TripleBox(2, 2, 2)
    entries = (((1, 1, 2), Fraction(1, 3)), ((1, 2, 1), Fraction(-2)), ((2, 1, 1), Fraction(1, 2)))
    v = TruncatedVector(box, "rational", entries)
    assert v.entries == entries
    assert v == TruncatedVector.create(box, "rational", reversed(entries))
    # create puts pairs in canonical form: it sorts, sums a repeated index and drops zeros
    found = TruncatedVector.create(SingleBox(2), "rational", ((2, 1), (1, 1), (1, 0)))
    assert found.entries == ((1, 1), (2, 1)) and found.dense() == [1, 1]


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
    for combine in (operator.add, operator.sub):
        with pytest.raises(DomainError):
            combine(a, unit_vector(SingleBox(3), "rational", 1))
        with pytest.raises(ModeError):
            combine(a, unit_vector(SingleBox(2), "float", 1))


def test_dense_round_trip():
    box = TripleBox(2, 1, 2)
    v = TruncatedVector.create(box, "rational", [((1, 1, 2), Fraction(1, 3)), ((2, 1, 1), -2)])
    assert vector_from_dense(box, "rational", v.dense()) == v
    with pytest.raises(DomainError):
        vector_from_dense(box, "rational", [1, 2, 3])  # wrong length


@pytest.mark.parametrize(
    "mode, bad",
    [
        ("rational", 0.0),  # a float zero is still a float
        ("rational", True),
        ("rational", False),
        ("float", float("nan")),
        ("float", float("inf")),
        ("float", -float("inf")),
        ("float", True),
    ],
)
def test_vector_from_dense_coerces_every_coordinate(mode, bad):
    # the mode is checked once, but each coordinate, zeros included, is still coerced
    box = SingleBox(3)
    with pytest.raises(ModeError):
        vector_from_dense(box, mode, [1, bad, 0])
    with pytest.raises(ModeError):
        vector_from_dense(box, "decimal", [1, 0, 0])


def test_vector_from_dense_keeps_the_mode_types():
    box = SingleBox(3)
    exact = vector_from_dense(box, "rational", [2, 0, Fraction(1, 3)])
    assert exact.entries == ((1, Fraction(2)), (3, Fraction(1, 3)))
    assert all(type(v) is Fraction for _, v in exact.entries)
    approx = vector_from_dense(box, "float", [2, 0.0, Fraction(1, 4)])
    assert approx.entries == ((1, 2.0), (3, 0.25))
    assert all(type(v) is float for _, v in approx.entries)


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


# ---------------------------------------------------------------------------
# the one-pass merge and the summed dot product against the paths they replaced


def scalar_bits(value):
    """A scalar with its type, and a float spelled out bit for bit."""
    return type(value), value.hex() if isinstance(value, float) else value


def bits(entries):
    return tuple((idx, *scalar_bits(v)) for idx, v in entries)


def scalars(mode):
    if mode == "rational":
        return st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=7)
    return st.one_of(
        st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.1, 0.2, 0.3, 1e-300, -5e-324, 2.0**53]),
    )


@st.composite
def vector_pairs(draw):
    """Two vectors in one mode on a single or triple box.

    Each index of a's support is shared with b at the same value (a - b
    cancels there), at the negated value (a + b cancels), at another value,
    or left out of b; b may add indices of its own, so the supports overlap,
    are disjoint or cancel.
    """
    mode = draw(st.sampled_from(["rational", "float"]))
    box = draw(st.sampled_from([SingleBox(1), SingleBox(6), TripleBox(2, 2, 3)]))
    indices = list(box.indices())
    values = scalars(mode)
    left = draw(st.dictionaries(st.sampled_from(indices), values, max_size=len(indices)))
    right = {}
    for idx, val in left.items():
        how = draw(st.sampled_from(["same", "negated", "other", "absent"]))
        if how == "same":
            right[idx] = val
        elif how == "negated":
            right[idx] = -val
        elif how == "other":
            right[idx] = draw(values)
    extra = draw(st.dictionaries(st.sampled_from(indices), values, max_size=4))
    for idx, val in extra.items():
        right.setdefault(idx, val)
    a = TruncatedVector.create(box, mode, left)
    b = TruncatedVector.create(box, mode, right)
    return a, b


@settings(max_examples=150, deadline=None)
@given(vector_pairs())
def test_merge_equals_concatenate_and_sort(pair):
    a, b = pair
    box, mode = a.box, a.mode
    added = _canonical(box, mode, a.entries + b.entries)
    subtracted = _canonical(box, mode, a.entries + b.scale(-1).entries)
    assert bits((a + b).entries) == bits(added.entries)
    assert bits((a - b).entries) == bits(subtracted.entries)
    assert a + b == added and a - b == subtracted
    assert (a - a).is_zero() and (a + (-a)).is_zero()


def loop_dot(a, b):
    """TruncatedVector.dot as a loop that adds one product at a time."""
    small, big = (a, b) if len(a.entries) <= len(b.entries) else (b, a)
    lookup = dict(big.entries)
    total = Fraction(0) if a.mode == "rational" else 0.0
    for idx, val in small.entries:
        total += val * lookup.get(idx, Fraction(0) if a.mode == "rational" else 0.0)
    return total


@settings(max_examples=150, deadline=None)
@given(vector_pairs())
def test_dot_equals_the_termwise_loop(pair):
    a, b = pair
    assert scalar_bits(a.dot(b)) == scalar_bits(loop_dot(a, b))
