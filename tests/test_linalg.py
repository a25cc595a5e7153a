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
    echelon_inverse,
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
from bapkit.scalars import negligible, rank_tol

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
    for rows, mode in zip(matrices, ("rational", "float")):
        if rank(rows, mode) == len(rows):
            for tail in itertools.product((1, -1), repeat=len(rows) - 1):
                assert solve(rows, [1, *tail], mode) is not None


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
    assert rank(rows, "float") == 1
    assert rank(rows, "rational") == 2


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
    assert sparse_rank(sparse(rows), "float") == rank(rows, "float")


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


def loop_sparse_rank(rows, mode="rational"):
    """sparse_rank as it was: each pivot row stored divided by its lead, every
    entry passed through negligible, in both modes."""
    pivots = {}
    for row in rows:
        live = {c: v for c, v in row.items() if not negligible(v, mode)}
        while live:
            col = min(live)
            factor = live.pop(col)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = {c: v / factor for c, v in live.items()}
                break
            for c, v in pivot.items():
                value = live[c] - factor * v if c in live else -factor * v
                if negligible(value, mode):
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
    floats, ncols = random_sparse_rows(rng, lambda: float(rng.randint(-3, 3)))
    assert sparse_rank(floats, "float") == rank(dense_rows(floats, ncols, "float"), "float")
    noisy, _ = random_sparse_rows(rng, lambda: rng.choice((rng.gauss(0.0, 1.0), 1e-10, 0.0)))
    assert sparse_rank(noisy, "float") == loop_sparse_rank(noisy, "float")


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
    assert sparse_rank(rows, "float") == 1
    assert sparse_rank(rows, "rational") == 2
    assert sparse_rank([{0: 1e-12}], "float") == 0


@settings(max_examples=100, deadline=None)
@given(matrices(sparse_fractions))
def test_dense_rows_undo_the_sparse_form(rows):
    assert dense_rows(sparse(rows), len(rows[0]), "rational") == rows


def test_dense_rows_fill_typed_zeros():
    assert dense_rows([{1: F(2)}, {}], 3, "rational") == [[F(0), F(2), F(0)], [F(0)] * 3]
    got = dense_rows([{0: 1.5}], 2, "float")
    assert got == [[1.5, 0.0]] and type(got[0][1]) is float


def bits(m):
    """A matrix spelled out entry by entry, a float bit for bit (-0.0 included)."""
    return [[repr(x) for x in row] for row in m]


near_tolerance_floats = st.one_of(
    st.floats(-3.0, 3.0), st.sampled_from([0.0, 1e-10, -2e-9, 1e-9, 3.0000000001])
)


def eliminated_inverse(rows, mode):
    """invert as it was before echelon_inverse: row_echelon of [rows | I] with pivots in
    any column, the inverse read off when they are the first n."""
    n = len(rows)
    one, zero = (F(1), F(0)) if mode == "rational" else (1.0, 0.0)
    aug = [list(r) + [one if i == j else zero for j in range(n)] for i, r in enumerate(rows)]
    ech, pivots = row_echelon(aug, mode)
    return [row[n:] for row in ech[:n]] if pivots[:n] == list(range(n)) else None


@pytest.mark.parametrize("values, mode", [
    (sparse_fractions, "rational"), (near_tolerance_floats, "float")
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_echelon_inverse_is_row_echelon_then_invert(values, mode, data):
    # the one elimination of [G | I] against the two it replaces, value for value
    rows = data.draw(matrices(values))
    rows = rows[: len(rows[0])]  # no more rows than columns
    ech, pivots, inverse = echelon_inverse(rows, mode)
    expected_ech, expected_pivots = row_echelon(rows, mode)
    assert pivots == expected_pivots
    assert bits(ech) == bits(expected_ech)
    if len(pivots) < len(rows):
        assert inverse is None
    else:
        square = [[r[j] for j in pivots] for r in rows]
        assert bits(inverse) == bits(eliminated_inverse(square, mode)) == bits(invert(square, mode))


def test_echelon_inverse_of_no_rows():
    assert echelon_inverse([]) == ([], [], [])


@pytest.mark.parametrize("n", [1, 3, 10])
def test_echelon_inverse_builds_the_identity_block_from_two_fractions(monkeypatch, n):
    # [G | I] costs the elimination's own Fractions plus one 1 and one 0, not n * n entries
    rows = [[F(i + 1, j + 2) if i <= j else F(0) for j in range(n)] for i in range(n)]
    prebuilt = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    ech, pivots = row_echelon(prebuilt, "rational", n)
    elimination = len(built)
    assert echelon_inverse(rows)[2] == [row[n:] for row in ech]
    assert len(built) - 2 * elimination == 2


@pytest.mark.parametrize("values, mode", [
    (sparse_fractions, "rational"), (near_tolerance_floats, "float")
])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_row_meets_a_pivot_column(values, mode, data):
    # polyhedral_sup restricts G to its pivot columns and keeps every row: a row
    # negligible on all of them would reach its own column unchanged and pivot there
    rows = data.draw(matrices(values))
    _, pivots = row_echelon(rows, mode)
    for row in rows:
        if any(not negligible(x, mode) for x in row):
            assert any(not negligible(row[j], mode) for j in pivots)


# ---------------------------------------------------------------------------
# row_echelon skips the zero entries of its pivot row; the dense elimination is its oracle


def dense_row_echelon(rows, mode="rational", pivot_columns=None):
    """row_echelon as it was before it skipped zero entries: every entry of the pivot row
    divided by the pivot, the pivot itself included, every entry of a reduced row updated."""
    m = [list(r) for r in rows]
    if not m:
        return m, []
    tol = rank_tol(mode)
    ncols = len(m[0]) if pivot_columns is None else pivot_columns
    pivots = []
    lead = 0
    for col in range(ncols):
        if lead >= len(m):
            break
        pick = None
        if tol is None:
            for r in range(lead, len(m)):
                if m[r][col] != 0:
                    pick = r
                    break
        else:
            best = tol
            for r in range(lead, len(m)):
                if abs(m[r][col]) > best:
                    best = abs(m[r][col])
                    pick = r
        if pick is None:
            continue
        m[lead], m[pick] = m[pick], m[lead]
        inv = m[lead][col]
        m[lead] = [v / inv for v in m[lead]]
        for r in range(len(m)):
            if r != lead and not negligible(m[r][col], mode):
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
    return m, pivots


ZERO_HEAVY = {
    "rational": (st.one_of(st.just(F(0)), st.just(F(0)), small_fractions), F(0), F(1)),
    "float": (
        st.one_of(st.just(0.0), st.just(-0.0), st.integers(-3, 3).map(float), st.floats(-3, 3)),
        0.0, 1.0,
    ),
}


@st.composite
def zero_heavy_eliminations(draw, mode):
    """(rows, pivot_columns): mostly zero entries, a dependent row appended, and as often
    [G | I] with its pivots confined to G's columns, as echelon_inverse eliminates it."""
    values, zero, one = ZERO_HEAVY[mode]
    rows = draw(matrices(values))
    a, b, c = draw(st.sampled_from(rows)), draw(st.sampled_from(rows)), draw(values)
    rows.append([x + c * y for x, y in zip(a, b)])
    if draw(st.booleans()):
        return rows, None
    ncols, n = len(rows[0]), len(rows)
    eye = [[one if i == j else zero for j in range(n)] for i in range(n)]
    return [r + e for r, e in zip(rows, eye)], ncols


@pytest.mark.parametrize("mode", sorted(ZERO_HEAVY))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_row_echelon_equals_the_dense_elimination_on_zero_heavy_rows(mode, data):
    rows, pivot_columns = data.draw(zero_heavy_eliminations(mode))
    ech, pivots = row_echelon(rows, mode, pivot_columns)
    expected, expected_pivots = dense_row_echelon(rows, mode, pivot_columns)
    assert pivots == expected_pivots
    assert ech == expected
