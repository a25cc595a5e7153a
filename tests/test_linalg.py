"""Exact elimination: echelon form, rank, nullspace, solve, invert."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit.linalg import (
    column_space_basis,
    dense_rows,
    in_span,
    independent,
    invert,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    row_echelon,
    solve,
    sparse_rank,
    transpose,
)
from bapkit.scalars import DEFAULT_TOLERANCES, negligible

F = Fraction


def test_row_echelon_identity_is_fixed():
    eye = [[F(1), F(0)], [F(0), F(1)]]
    ech, pivots = row_echelon(eye)
    assert ech == eye and pivots == [0, 1]


def test_rank_oracles():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(2)], [F(0), F(1)]]) == 2
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0


def test_nullspace_line():
    basis = nullspace([[F(1), F(1), F(0)]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(a * b for a, b in zip([F(1), F(1), F(0)], v)) == 0
    # empty row list spans everything
    assert len(nullspace([], 3)) == 3


def test_solve_consistent_and_inconsistent():
    rows = [[F(1), F(1)], [F(0), F(1)]]
    sol = solve(rows, [F(3), F(1)])
    assert mat_vec(rows, sol) == [F(3), F(1)]
    assert solve([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None


def test_solve_underdetermined_zeroes_free_variables():
    sol = solve([[F(1), F(0), F(2)]], [F(5)])
    assert sol == [F(5), F(0), F(0)]


def test_invert_oracle_and_singular():
    m = [[F(1), F(1)], [F(0), F(2)]]
    minv = invert(m)
    assert minv == [[F(1), F(-1, 2)], [F(0), F(1, 2)]]
    assert invert([[F(1), F(2)], [F(2), F(4)]]) is None


entry = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=4)


@given(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3))
def test_invert_gives_two_sided_inverse(rows):
    minv = invert(rows)
    eye = [[F(int(i == j)) for j in range(3)] for i in range(3)]
    if minv is None:
        assert rank(rows) < 3
    else:
        assert mat_mul(rows, minv) == eye
        assert mat_mul(minv, rows) == eye


float_entry = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 2.0, 1e-10, -2e-9, 1.5e-9]), st.floats(-4, 4)
)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(
        st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n),
        st.lists(st.lists(float_entry, min_size=n, max_size=n), min_size=n, max_size=n),
    )
))
def test_solve_solves_every_sign_pattern_of_square_rows_of_full_rank(matrices):
    # polyhedral's max-ball vertices solve such rows against each sign pattern, unchecked:
    # solve eliminates the same columns that rank does, so it finds every pivot again
    for rows, tol in zip(matrices, (None, DEFAULT_TOLERANCES.rank)):
        if rank(rows, tol) == len(rows):
            for tail in itertools.product((1, -1), repeat=len(rows) - 1):
                assert solve(rows, [1, *tail], tol) is not None


def test_in_span():
    vecs = [[F(1), F(0), F(1)], [F(0), F(1), F(0)]]
    assert in_span(vecs, [F(2), F(3), F(2)])
    assert not in_span(vecs, [F(0), F(0), F(1)])
    assert in_span([], [F(0), F(0)])  # zero is in the empty span
    assert not in_span([], [F(1), F(0)])


def test_independent():
    assert independent([[F(1), F(0)], [F(1), F(1)]])
    assert not independent([[F(1), F(2)], [F(2), F(4)]])
    assert independent([])


def test_column_space_basis_picks_pivot_columns():
    rows = [[F(1), F(2), F(0)], [F(2), F(4), F(1)]]
    assert column_space_basis(rows) == [0, 2]


def test_transpose():
    assert transpose([[F(1), F(2)], [F(3), F(4)]]) == [[F(1), F(3)], [F(2), F(4)]]


def test_float_tolerance_treats_noise_as_zero():
    rows = [[1.0, 2.0], [2.0, 4.0 + 1e-13]]
    assert rank(rows, 1e-9) == 1
    assert rank(rows, None) == 2


# ---------------------------------------------------------------------------
# sparse rank against the dense oracle


def sparse(rows):
    return [{j: v for j, v in enumerate(r) if v != 0} for r in rows]


@st.composite
def matrices(draw, values):
    """Wide, tall and square shapes, with zero rows and repeated rows mixed in."""
    ncols = draw(st.integers(1, 7))
    base = draw(
        st.lists(st.lists(values, min_size=ncols, max_size=ncols), min_size=1, max_size=7)
    )
    zero_row = [v - v for v in base[0]]
    extra = draw(st.lists(st.sampled_from([zero_row] + base), max_size=3))
    return draw(st.permutations(base + [list(r) for r in extra]))


small_fractions = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=3)
sparse_fractions = st.one_of(st.just(F(0)), small_fractions)


@settings(max_examples=200, deadline=None)
@given(matrices(sparse_fractions))
def test_sparse_rank_matches_dense_rank_exactly(rows):
    assert sparse_rank(sparse(rows)) == rank(rows)


@settings(max_examples=200, deadline=None)
@given(matrices(st.integers(-3, 3).map(float)))
def test_sparse_rank_matches_dense_rank_on_integer_floats(rows):
    tol = DEFAULT_TOLERANCES.rank
    assert sparse_rank(sparse(rows), tol) == rank(rows, tol)


def test_sparse_rank_oracles():
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {3: F(0)}]) == 0
    assert sparse_rank([{0: F(1), 5: F(2)}, {0: F(2), 5: F(4)}]) == 1
    # a cascade of damped differences closed by a plain term is full rank
    chain = [{j: F(1, 2), j + 1: F(-1)} for j in range(5)] + [{5: F(3)}]
    assert sparse_rank(chain) == 6
    rows = [{0: F(1), 1: F(1)}]
    sparse_rank(rows)
    assert rows == [{0: F(1), 1: F(1)}]  # input rows are left alone


def loop_sparse_rank(rows, tol=None):
    """sparse_rank as it was: each pivot row stored divided by its lead, every
    entry passed through negligible, in both modes."""
    pivots = {}
    for row in rows:
        live = {c: v for c, v in row.items() if not negligible(v, tol)}
        while live:
            col = min(live)
            factor = live.pop(col)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = {c: v / factor for c, v in live.items()}
                break
            for c, v in pivot.items():
                value = live[c] - factor * v if c in live else -factor * v
                if negligible(value, tol):
                    live.pop(c, None)
                else:
                    live[c] = value
    return len(pivots)


def random_sparse_rows(rng, value):
    """Up to 9 rows over up to 8 columns, each with up to 4 entries, so rows meet
    their pivots and fill in; repeated and zero rows mixed in."""
    ncols = rng.randint(1, 8)
    rows = [
        {c: value() for c in sorted(rng.sample(range(ncols), rng.randint(0, min(4, ncols))))}
        for _ in range(rng.randint(1, 9))
    ]
    return rows + [dict(rng.choice(rows)) for _ in range(rng.randint(0, 2))], ncols


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_sparse_rank_equals_the_dense_rank_and_the_normalising_loop(seed):
    rng = random.Random(seed)
    exact, ncols = random_sparse_rows(rng, lambda: F(rng.randint(-3, 3), rng.randint(1, 3)))
    assert sparse_rank(exact) == loop_sparse_rank(exact)
    assert sparse_rank(exact) == rank(dense_rows(exact, ncols, "rational"))
    tol = DEFAULT_TOLERANCES.rank
    floats, ncols = random_sparse_rows(rng, lambda: float(rng.randint(-3, 3)))
    assert sparse_rank(floats, tol) == rank(dense_rows(floats, ncols, "float"), tol)
    noisy, _ = random_sparse_rows(rng, lambda: rng.choice((rng.gauss(0.0, 1.0), 1e-10, 0.0)))
    assert sparse_rank(noisy, tol) == loop_sparse_rank(noisy, tol)


class Undividable(Fraction):
    """A Fraction that fails the test when divided, or divides another."""

    def __truediv__(self, other):
        raise AssertionError("sparse_rank divided by a stored pivot")

    __rtruediv__ = __truediv__


def test_exact_rows_that_never_meet_a_pivot_make_no_division():
    # a cascade of damped differences closed by a plain term, as a Vogt level's rows are
    half, minus_one = Undividable(1, 2), Undividable(-1)
    chain = [{j: half, j + 1: minus_one} for j in range(5)] + [{5: Undividable(3)}]
    assert sparse_rank(chain) == 6
    with pytest.raises(AssertionError):
        sparse_rank(chain + [{0: Undividable(1)}])


def test_sparse_rank_float_tolerance_treats_noise_as_zero():
    rows = [{0: 1.0, 1: 2.0}, {0: 2.0, 1: 4.0 + 1e-13}]
    assert sparse_rank(rows, 1e-9) == 1
    assert sparse_rank(rows, None) == 2
    assert sparse_rank([{0: 1e-12}], 1e-9) == 0


@settings(max_examples=100, deadline=None)
@given(matrices(sparse_fractions))
def test_dense_rows_undo_the_sparse_form(rows):
    assert dense_rows(sparse(rows), len(rows[0]), "rational") == rows


def test_dense_rows_fill_typed_zeros():
    assert dense_rows([{1: F(2)}, {}], 3, "rational") == [[F(0), F(2), F(0)], [F(0)] * 3]
    got = dense_rows([{0: 1.5}], 2, "float")
    assert got == [[1.5, 0.0]] and type(got[0][1]) is float
