"""Exact elimination: echelon form, rank, nullspace, solve, invert."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit.linalg import (
    column_space_basis,
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
from bapkit.scalars import DEFAULT_TOLERANCES

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


def test_sparse_rank_float_tolerance_treats_noise_as_zero():
    rows = [{0: 1.0, 1: 2.0}, {0: 2.0, 1: 4.0 + 1e-13}]
    assert sparse_rank(rows, 1e-9) == 1
    assert sparse_rank(rows, None) == 2
    assert sparse_rank([{0: 1e-12}], 1e-9) == 0
