"""Exact polytope suprema and the graded operator norms built on them."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit import (
    BapkitError,
    ComputationCapError,
    CustomLevel,
    CustomSeminorms,
    DomainError,
    FiniteRankOperator,
    InputError,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    ModeError,
    SingleBox,
    SupPartialSumSeminorms,
    TruncatedVector,
    UnboundedSeminormError,
    graded_operator_norm,
    polyhedral,
    polyhedral_sup,
    rank_one_family_constant,
    vector_from_dense,
)
from bapkit.linalg import invert, mat_mul, mat_vec, nullspace, rank, solve, transpose
from bapkit.polyhedral import _by_column, _objective, comparison_level
from bapkit.scalars import approx_equal, as_scalar, negligible, random_scalar, rank_tol, zero
from bapkit.seminorms import level_matrix
from bapkit.spaces import unit_vector

F = Fraction


def sparse(dense):
    """Dense rows as linalg's sparse rows {column: value}, zeros left out."""
    return [{j: x for j, x in enumerate(r) if x != 0} for r in dense]


def sparse_pieces(pieces):
    return [(sparse(rs), combiner) for rs, combiner in pieces]


def rows(*rs):
    return sparse([[F(v) for v in r] for r in rs])


def test_hexagon_ball_oracle():
    # {|x| + |y| + |x - y| <= 1} has vertices at coordinate 1/2
    sup = polyhedral_sup(
        2, rows((1, 0), (0, 1), (1, -1)), "sum", [(rows((1, 0)), "sum")], "rational"
    )
    assert sup == F(1, 2)


def test_l1_ball_oracle():
    sup = polyhedral_sup(
        2, rows((1, 0), (0, 1)), "sum", [(rows((1, 1)), "sum")], "rational"
    )
    assert sup == 1


def test_max_ball_oracle():
    # unit square under the max combiner; |x + y| peaks at a corner
    sup = polyhedral_sup(
        2, rows((1, 0), (0, 1)), "max", [(rows((1, 1)), "sum")], "rational"
    )
    assert sup == 2


def test_kernel_quotient():
    # constraint sees only x, objective 2x vanishes on the kernel line
    sup = polyhedral_sup(
        2, rows((1, 0)), "sum", [(rows((2, 0)), "sum")], "rational"
    )
    assert sup == 2


def test_unbounded_objective_raises():
    with pytest.raises(UnboundedSeminormError):
        polyhedral_sup(
            2, rows((1, 0)), "sum", [(rows((0, 1)), "sum")], "rational"
        )


def test_zero_constraints_with_zero_objective():
    sup = polyhedral_sup(2, [], "sum", [(rows((0, 0)), "sum")], "rational")
    assert sup == 0


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_cap_guards_the_enumeration(monkeypatch, mode):
    # one policy in both modes: above the cap no bound stands in for the sup
    monkeypatch.setattr(polyhedral, "CAP", 3)
    g = sparse(typed_rows([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)], mode))
    with pytest.raises(ComputationCapError, match=f"exceed cap 3 in {mode} mode"):
        polyhedral_sup(2, g, "max", [(sparse(typed_rows([(1, 1)], mode)), "sum")], mode)


def test_graded_operator_norm_between_koethe_levels():
    box = SingleBox(2)
    system = KoetheSeminorms(((1, 1), (2, 2)), box, "rational")
    eye = FiniteRankOperator.identity(box, "rational")
    assert graded_operator_norm(system, 1, 2, eye) == F(1, 2)
    assert graded_operator_norm(system, 2, 1, eye) == 2
    assert graded_operator_norm(system, 1, 1, eye) == 1


def test_graded_operator_norm_detects_uncontrolled_kernels():
    box = SingleBox(2)
    system = KoetheSeminorms(((0, 1), (1, 1)), box, "rational")
    eye = FiniteRankOperator.identity(box, "rational")
    # level 1 kills e1 but level 2 does not, so no finite norm exists
    with pytest.raises(UnboundedSeminormError):
        graded_operator_norm(system, 2, 1, eye)
    assert graded_operator_norm(system, 1, 2, eye) == 1


def test_graded_operator_norm_restricted_domain():
    box = SingleBox(2)
    system = KoetheSeminorms(((0, 1), (1, 1)), box, "rational")
    eye = FiniteRankOperator.identity(box, "rational")
    e2 = vector_from_dense(box, "rational", [F(0), F(1)])
    # on span(e2) level 1 is already a norm, the quotient removes nothing
    assert graded_operator_norm(system, 2, 1, eye, domain_basis=[e2]) == 1


def test_rank_one_family_constant_for_coordinate_projections():
    box = SingleBox(2)
    system = KoetheSeminorms(((1, 1),), box, "rational")
    e1 = vector_from_dense(box, "rational", [F(1), F(0)])
    e2 = vector_from_dense(box, "rational", [F(0), F(1)])
    zero = vector_from_dense(box, "rational", [F(0), F(0)])
    constant = rank_one_family_constant(
        system, 1, [e1, e2], [[e1, zero], [zero, e2]]
    )
    assert constant == 1


def test_rank_one_family_constant_skewed_basis():
    # adapted basis (1,0), (1,2) under the plain absolute-sum level:
    # the second projection stretches (0,1) to (1,2)/2, giving 3/2
    box = SingleBox(2)
    system = KoetheSeminorms(((1, 1),), box, "rational")
    b1 = vector_from_dense(box, "rational", [F(1), F(0)])
    b2 = vector_from_dense(box, "rational", [F(1), F(2)])
    zero = vector_from_dense(box, "rational", [F(0), F(0)])
    constant = rank_one_family_constant(
        system, 1, [b1, b2], [[b1, zero], [zero, b2]]
    )
    assert constant == F(3, 2)


def test_rank_one_family_constant_degenerate_level_is_zero():
    # the level kills the whole span, so every projection is controlled by 0
    box = SingleBox(2)
    system = KoetheSeminorms(((0, 1), (1, 1)), box, "rational")
    e1 = vector_from_dense(box, "rational", [F(1), F(0)])
    constant = rank_one_family_constant(system, 1, [e1], [[e1]])
    assert constant == 0


def test_graded_operator_norm_prunes_a_1e_10_weight():
    # level 1 weighs e2 by 1e-10, under the rank threshold RANK = 1e-9
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1e-10), (1, 1)), box, "float")
    a1 = FiniteRankOperator.from_matrix(box, "float", [[1, 1], [0, 0]])
    with pytest.raises(UnboundedSeminormError):
        graded_operator_norm(base, 1, 1, a1)


def sup_partial(base):
    # partial sums: the first operator, then the identity
    ops = [
        FiniteRankOperator.from_matrix(base.box, "rational", m)
        for m in ([[1, 0, 0], [1, 0, 0], [0, 0, 0]], [[0, 0, 0], [-1, 1, 0], [0, 0, 1]])
    ]
    return SupPartialSumSeminorms(base, ops)


def test_sup_partial_level_over_a_sum_base_raises():
    # a max over partials of sums: the max over every functional of every
    # partial would give 1/2, but x = (-2, -2, 0) already reaches 4/6
    box = SingleBox(3)
    sup = sup_partial(KoetheSeminorms(((1, 1, 1), (1, 2, 3)), box, "rational"))
    x = vector_from_dense(box, "rational", [F(-2), F(-2), F(0)])
    assert sup.value(1, x) / sup.value(2, x) == F(2, 3)
    with pytest.raises(InputError):
        graded_operator_norm(sup, 1, 2, FiniteRankOperator.identity(box, "rational"))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_one_group_sup_partial_level_over_a_sum_base_is_exact(mode):
    # one operator, the identity: one partial sum, so each level is one sum group
    box = SingleBox(3)
    base = KoetheSeminorms(((1, 1, 1), (1, 2, 3)), box, mode)
    identity = FiniteRankOperator.identity(box, mode)
    sup = SupPartialSumSeminorms(base, [identity])
    op = FiniteRankOperator.from_matrix(box, mode, [[1, 0, 2], [0, -1, 0], [3, 0, 1]])
    for to_level, from_level in ((1, 2), (2, 2), (1, 1)):
        for operator in (identity, op):
            expected = graded_operator_norm(base, to_level, from_level, operator)
            assert graded_operator_norm(sup, to_level, from_level, operator) == expected


def test_sup_partial_level_over_a_max_base_is_exact():
    # level 1 is |x_1| and level 3 the max norm, for the base and the partials
    box = SingleBox(3)
    sup = sup_partial(MaxPrefixSeminorms(box, "rational", 3))
    assert graded_operator_norm(sup, 1, 3, FiniteRankOperator.identity(box, "rational")) == 1


# ---------------------------------------------------------------------------
# comparison_level against one graded_operator_norm per operator


def random_system(kind, mode, rng):
    box = SingleBox(3)
    if kind == "koethe":
        rows, row = [], [0, 0, 0]
        for _ in range(rng.randint(1, 3)):
            row = [w + rng.choice((0, 0, 1, 2)) for w in row]
            rows.append(tuple(row))
        # most draws end on a norm, so most families find a comparison level
        if rng.random() < 0.8:
            rows.append(tuple(w + 1 for w in row))
        return KoetheSeminorms(tuple(rows), box, mode)
    if kind == "max-prefix":
        return MaxPrefixSeminorms(box, mode, rng.randint(1, 4))
    levels = []
    for _ in range(rng.randint(1, 3)):
        functionals = [
            tuple((j, rng.randint(-2, 2)) for j in rng.sample((1, 2, 3), rng.randint(1, 2)))
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            functionals += [((j, 1),) for j in (1, 2, 3)]
        levels.append(CustomLevel(tuple(functionals), rng.choice(("sum", "max"))))
    return CustomSeminorms(tuple(levels), box, mode)


def random_family(mode, rng):
    return [
        FiniteRankOperator.from_matrix(
            SingleBox(3), mode, [[rng.randint(-2, 2) for _ in range(3)] for _ in range(3)]
        )
        for _ in range(rng.randint(1, 3))
    ]


def per_operator_comparison_level(system, level, ops):
    for l in range(level, system.level_count + 1):
        try:
            return l, max(graded_operator_norm(system, level, l, op) for op in ops)
        except UnboundedSeminormError:
            continue
    return None


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("kind", ["koethe", "max-prefix", "custom"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_comparison_level_matches_one_norm_per_operator(kind, mode, seed):
    rng = random.Random(seed)
    system = random_system(kind, mode, rng)
    ops = random_family(mode, rng)
    level = rng.randint(1, system.level_count)
    expected = per_operator_comparison_level(system, level, ops)
    if expected is None:
        with pytest.raises(UnboundedSeminormError):
            comparison_level(system, level, ops)
    else:
        assert comparison_level(system, level, ops) == expected


def graded_norm_outcome(system, to_level, from_level, op, domain_basis=None):
    """The norm as (type, repr), so float results compare bit for bit, or the error type."""
    try:
        norm = graded_operator_norm(system, to_level, from_level, op, domain_basis=domain_basis)
    except BapkitError as exc:
        return type(exc)
    return type(norm), repr(norm)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("kind", ["koethe", "max-prefix", "custom"])
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_unit_basis_default_matches_an_explicit_unit_basis(kind, mode, seed):
    # no basis reads the ball off the functionals and scores the operator's
    # columns; an explicit unit basis multiplies by 1 and applies the operator
    rng = random.Random(seed)
    system = random_system(kind, mode, rng)
    op = random_family(mode, rng)[0]
    to_level = rng.randint(1, system.level_count)
    from_level = rng.randint(1, system.level_count)
    basis = [unit_vector(system.box, mode, idx) for idx in system.box.indices()]
    assert graded_norm_outcome(system, to_level, from_level, op) == graded_norm_outcome(
        system, to_level, from_level, op, basis
    )


def test_unit_basis_sups_build_no_vector_and_apply_no_operator(monkeypatch):
    box = SingleBox(3)
    system = KoetheSeminorms(((1, 1, 1), (1, 2, 3)), box, "rational")
    ops = [
        FiniteRankOperator.from_matrix(box, "rational", m)
        for m in ([[1, 0, 2], [0, -1, 0], [3, 0, 1]], [[0, 1, 0], [1, 0, 0], [0, 0, 2]])
    ]
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        TruncatedVector, "create", staticmethod(counted("create", TruncatedVector.create))
    )
    monkeypatch.setattr(FiniteRankOperator, "apply", counted("apply", FiniteRankOperator.apply))
    # column 1 of the first operator has the largest l1 norm, 4, and weight 1 at both levels
    assert comparison_level(system, 1, ops) == (1, 4)
    assert graded_operator_norm(system, 1, 2, ops[0]) == 4
    assert calls == []


@pytest.mark.parametrize("explicit_basis", [False, True], ids=["unit-basis", "explicit-basis"])
def test_a_graded_sup_reads_each_level_once(monkeypatch, explicit_basis):
    # the ball's rows come from the groups that _graded_sup has read, not from a second read
    box = SingleBox(3)
    system = KoetheSeminorms(((1, 1, 1), (1, 2, 3)), box, "rational")
    op = FiniteRankOperator.from_matrix(box, "rational", [[1, 0, 2], [0, -1, 0], [3, 0, 1]])
    basis = [unit_vector(box, "rational", j) for j in box.indices()] if explicit_basis else None
    reads = []
    level_groups = KoetheSeminorms.level_groups
    monkeypatch.setattr(
        KoetheSeminorms, "level_groups", lambda self, k: reads.append(k) or level_groups(self, k)
    )
    assert graded_operator_norm(system, 1, 2, op, basis) == 4
    assert sorted(reads) == [1, 2]


# an operator on another box, and one in another mode, than a rational system on SingleBox(3)
OFF_THE_SYSTEM = {
    DomainError: FiniteRankOperator.identity(SingleBox(2), "rational"),
    ModeError: FiniteRankOperator.identity(SingleBox(3), "float"),
}


@pytest.mark.parametrize("error", [DomainError, ModeError], ids=["box", "mode"])
@pytest.mark.parametrize("entry_point", ["comparison_level", "graded_operator_norm"])
def test_operators_on_another_box_or_mode_are_refused(entry_point, error):
    box = SingleBox(3)
    system = KoetheSeminorms(((1, 1, 1),), box, "rational")
    eye = FiniteRankOperator.identity(box, "rational")
    with pytest.raises(error):
        if entry_point == "comparison_level":
            comparison_level(system, 1, [eye, OFF_THE_SYSTEM[error]])
        else:
            graded_operator_norm(system, 1, 1, OFF_THE_SYSTEM[error])


# ---------------------------------------------------------------------------
# polyhedral_sup against a reference through an arbitrary kernel complement


def typed_rows(rs, mode):
    return [[as_scalar(x, mode) for x in r] for r in rs]


def random_ball(mode, rng):
    """Constraint rows combining 1..dim random base rows (so kernels are often
    nonempty), maybe a zero row, and 1-3 objective pieces whose rows combine
    the same base rows (so they vanish on the kernel) unless the draw adds
    one free row to the last piece."""
    dim = rng.randint(1, 4)
    base = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(rng.randint(1, dim))]

    def combination():
        weights = [rng.randint(-2, 2) for _ in base]
        return [sum(w * b[j] for w, b in zip(weights, base)) for j in range(dim)]

    g = [combination() for _ in range(rng.randint(1, 4))] + [[0] * dim] * rng.randint(0, 1)
    pieces = [
        ([combination() for _ in range(rng.randint(1, 3))], rng.choice(("sum", "max")))
        for _ in range(rng.randint(1, 3))
    ]
    if rng.random() < 0.3:
        pieces[-1][0].append([rng.randint(-2, 2) for _ in range(dim)])
    combiner = rng.choice(("sum", "max"))
    return dim, typed_rows(g, mode), combiner, [(typed_rows(rs, mode), c) for rs, c in pieces]


def sup_through_complement(dim, g, combiner, pieces, mode, rng):
    """The sup parameterized by random integer vectors C completing the kernel:
    polyhedral_sup(len(C), G C, combiner, [(R C, c), ...])."""
    kernel = nullspace(g, dim, mode)
    for kv in kernel:
        for orows, _ in pieces:
            if any(not negligible(x, mode) for x in mat_vec(orows, kv)):
                raise UnboundedSeminormError("objective does not vanish on the kernel")
    for _ in range(100):
        comp = [
            [as_scalar(rng.randint(-3, 3), mode) for _ in range(dim)]
            for _ in range(dim - len(kernel))
        ]
        if rank(kernel + comp, mode) == dim:
            break
    else:
        pytest.fail("no random complement of the kernel found")
    cols = transpose(comp)
    return polyhedral_sup(
        len(comp),
        sparse(mat_mul(g, cols)),
        combiner,
        [(sparse(mat_mul(r, cols)), c) for r, c in pieces],
        mode,
    )


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_polyhedral_sup_does_not_depend_on_the_kernel_complement(mode, seed):
    rng = random.Random(seed)
    dim, g, combiner, pieces = random_ball(mode, rng)
    try:
        expected = sup_through_complement(dim, g, combiner, pieces, mode, rng)
    except UnboundedSeminormError:
        with pytest.raises(UnboundedSeminormError):
            polyhedral_sup(dim, sparse(g), combiner, sparse_pieces(pieces), mode)
        return
    actual = polyhedral_sup(dim, sparse(g), combiner, sparse_pieces(pieces), mode)
    if mode == "rational":
        assert actual == expected
    else:
        assert approx_equal(actual, expected, "float")


# ---------------------------------------------------------------------------
# the closed form for square sum balls and the sparse objective pieces
# against a test-local vertex enumeration over dense rows


def _objective_at(pieces, c):
    """The objective at c as scored before the rows were transposed: per piece,
    per row, one sum over the row's columns that are live in c."""
    live = {j: x for j, x in enumerate(c) if x}
    best = None
    for rows, combiner in pieces:
        values = [abs(sum(x * live[j] for j, x in row.items() if j in live)) for row in rows]
        v = (sum(values) if combiner == "sum" else max(values)) if values else 0
        best = v if best is None else max(best, v)
    return 0 if best is None else best


def scored_by_column(pieces, c):
    return _objective([comb for _, comb in pieces], _by_column(pieces), c)


def same_scalar(got, expected):
    """Equal, and bit-equal unless both are zero (a piece that a vertex misses is an int 0)."""
    return got == expected and (got == 0 or repr(got) == repr(expected))


def dense_objective(pieces, c):
    best = []
    for rows, combiner in pieces:
        values = [abs(x) for x in mat_vec(rows, c)]
        best.append(sum(values) if combiner == "sum" else max(values, default=0))
    return max(best)


def enumerated_sup(dim, g, combiner, pieces, mode):
    """The sup by vertex enumeration in the original coordinates, r = rank G.

    sum: one vertex per (r-1)-subset of rows whose common kernel is one line
    beyond ker G, scaled to |G c|_1 = 1; max: one candidate per r-subset of
    rank r and sign pattern, kept when every row stays within 1.  The
    objective vanishes on ker G, so any representative of a vertex will do.
    """
    kernel = nullspace(g, dim, mode)
    for kv in kernel:
        for orows, _ in pieces:
            if any(not negligible(x, mode) for x in mat_vec(orows, kv)):
                raise UnboundedSeminormError("objective does not vanish on the kernel")
    r = dim - len(kernel)
    candidates = []
    if combiner == "sum":
        for subset in itertools.combinations(range(len(g)), r - 1) if r else ():
            line = nullspace([g[i] for i in subset], dim, mode)
            if len(line) != len(kernel) + 1:
                continue
            for v in line:
                total = sum(abs(x) for x in mat_vec(g, v))
                if not negligible(total, mode):
                    candidates.append([x / total for x in v])
                    break
    else:
        slack = rank_tol(mode) or 0
        for subset in itertools.combinations(range(len(g)), r):
            sub = [g[i] for i in subset]
            if rank(sub, mode) < r:
                continue
            for signs in itertools.product((1, -1), repeat=r):
                c = solve(sub, [as_scalar(s, mode) for s in signs], mode)
                if c is not None and all(abs(x) <= 1 + slack for x in mat_vec(g, c)):
                    candidates.append(c)
    return max((dense_objective(pieces, c) for c in candidates), default=as_scalar(0, mode))


def assert_agrees(actual, expected, mode):
    if mode == "rational":
        assert actual == expected
    else:
        assert approx_equal(actual, expected, "float")


def random_rank_ball(mode, rng, square):
    """Ball rows of rank r on 1..5 coordinates, for either combiner, with 1..3
    objective pieces that vanish on its kernel.  square: exactly r rows,
    independent, so the ball is square once restricted to its pivot columns;
    otherwise 1..3 extra rows that combine the base rows, so the enumeration
    path runs."""
    dim = rng.randint(1, 5)
    while True:
        r = rng.randint(1, dim)
        base = [[rng.choice((0, 0, 1, -1, 2, -3)) for _ in range(dim)] for _ in range(r)]
        if rank(typed_rows(base, "rational")) == r:
            break

    def combination():
        weights = [rng.randint(-2, 2) for _ in base]
        return [sum(w * b[j] for w, b in zip(weights, base)) for j in range(dim)]

    g = base if square else base + [combination() for _ in range(rng.randint(1, 3))]
    rng.shuffle(g)
    pieces = [
        ([combination() for _ in range(rng.randint(1, 3))], rng.choice(("sum", "max")))
        for _ in range(rng.randint(1, 3))
    ]
    return dim, typed_rows(g, mode), [(typed_rows(rs, mode), c) for rs, c in pieces]


@pytest.mark.parametrize("square", [True, False], ids=["square", "non-square"])
@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_sum_ball_sup_matches_vertex_enumeration(square, mode, seed):
    dim, g, pieces = random_rank_ball(mode, random.Random(seed), square)
    actual = polyhedral_sup(dim, sparse(g), "sum", sparse_pieces(pieces), mode)
    assert_agrees(actual, enumerated_sup(dim, g, "sum", pieces, mode), mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("kind", ["koethe", "max-prefix", "custom"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_graded_operator_norm_matches_vertex_enumeration(kind, mode, seed):
    rng = random.Random(seed)
    system = random_system(kind, mode, rng)
    op = random_family(mode, rng)[0]
    to_level = rng.randint(1, system.level_count)
    from_level = rng.randint(1, system.level_count)
    basis = [unit_vector(system.box, mode, idx) for idx in system.box.indices()]
    images = [op.apply(v) for v in basis]
    g = level_matrix(system, from_level, basis)
    ((to_combiner, _),) = system.level_groups(to_level)
    ((from_combiner, _),) = system.level_groups(from_level)
    pieces = [(level_matrix(system, to_level, images), to_combiner)]
    try:
        expected = enumerated_sup(3, g, from_combiner, pieces, mode)
    except UnboundedSeminormError:
        with pytest.raises(UnboundedSeminormError):
            graded_operator_norm(system, to_level, from_level, op)
        return
    assert_agrees(graded_operator_norm(system, to_level, from_level, op), expected, mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_sparse_objective_matches_dense_rows(mode, seed):
    # bit-equal in float mode too: only exact zero terms are left out, and
    # the rest are summed in column order
    rng = random.Random(seed)
    dim = rng.randint(1, 6)

    def entry():
        return as_scalar(rng.choice((0, 0, 0, 1, -2, 3)), mode) / as_scalar(rng.randint(1, 7), mode)

    pieces = [
        ([[entry() for _ in range(dim)] for _ in range(rng.randint(1, 4))], rng.choice(("sum", "max")))
        for _ in range(rng.randint(1, 3))
    ]
    # zeros in c as well: vertices of square balls are often sparse
    c = [random_scalar(rng, mode) if rng.random() < 0.7 else as_scalar(0, mode) for _ in range(dim)]
    assert _objective_at(sparse_pieces(pieces), c) == dense_objective(pieces, c)
    assert same_scalar(scored_by_column(sparse_pieces(pieces), c), _objective_at(sparse_pieces(pieces), c))


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_column_scoring_matches_the_row_oracle_at_the_columns_of_an_inverse(mode, seed):
    # the vertices of a square sum ball, bit-equal in float
    rng = random.Random(seed)
    dim = rng.randint(1, 6)

    def entry():
        return as_scalar(rng.choice((0, 0, 1, -2, 3, 5)), mode) / as_scalar(rng.randint(1, 7), mode)

    g = [[entry() for _ in range(dim)] for _ in range(dim)]
    inverse = invert(g, mode)
    if inverse is None:
        return
    pieces = sparse_pieces([
        ([[entry() for _ in range(dim)] for _ in range(rng.randint(0, 4))], rng.choice(("sum", "max")))
        for _ in range(rng.randint(1, 3))
    ])
    columns, combiners = _by_column(pieces), [comb for _, comb in pieces]
    for c in zip(*inverse):
        assert same_scalar(_objective(combiners, columns, c), _objective_at(pieces, c))
