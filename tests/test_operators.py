"""Finite-rank operators and the schedule pipeline."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bapkit import (
    ConstructionSoundnessError,
    ContinuousNormError,
    DegenerateInputError,
    DomainError,
    FiniteRankOperator,
    InputError,
    KoetheSeminorms,
    LevelError,
    MaxPrefixSeminorms,
    ModeError,
    SingleBox,
    Tolerances,
    ZeroOperatorError,
    accumulate,
    build_schedule,
    flatten_schedule,
    kernel_filtration,
    rank_one_split,
    scale_and_replicate,
    select_complements,
    smallest_norm_level,
    telescope,
    unit_vector,
    vector_from_dense,
)
from bapkit import operators
from bapkit.linalg import column_space_basis, in_span, mat_mul, mat_vec, rank
from bapkit.operators import ComplementDecomposition
from bapkit.scalars import as_scalar, rank_tol

F = Fraction
BOX2 = SingleBox(2)


def op2(rows, label=""):
    return FiniteRankOperator.from_matrix(BOX2, "rational", rows, label)


def flat_system():
    return KoetheSeminorms(((1, 1),), BOX2, "rational")


def spans_the_column_space(op):
    """Oracle: the range basis is as long as the rank and spans exactly the columns."""
    ftol = rank_tol(op.mode)
    cols = [c.dense() for c in op.columns]
    basis = [v.dense() for v in op.range_basis]
    return (
        rank(cols, ftol) == len(basis)
        and all(in_span(basis, col, ftol) for col in cols)
        and all(in_span(cols, b, ftol) for b in basis)
    )


# ---------------------------------------------------------------------------
# operator basics


def test_from_matrix_shape_check():
    with pytest.raises(InputError):
        op2([[1, 2]])
    with pytest.raises(InputError):
        op2([[1], [2]])


def test_range_basis_from_pivot_columns():
    a = op2([[1, 2], [2, 4]])
    assert a.rank == 1
    assert a.range_basis[0].dense() == [F(1), F(2)]
    assert spans_the_column_space(a)
    b = op2([[1, 1], [0, 2]])
    assert b.rank == 2 and spans_the_column_space(b)


def test_identity_zero_and_apply():
    eye = FiniteRankOperator.identity(BOX2, "rational")
    z = op2([[0, 0], [0, 0]])
    x = vector_from_dense(BOX2, "rational", [F(3), F(-1)])
    assert eye.apply(x) == x
    assert z.apply(x).is_zero()
    assert z.is_zero() and z.rank == 0
    assert eye.rank == 2


def test_apply_oracle():
    a = op2([[1, 1], [0, 2]])
    x = vector_from_dense(BOX2, "rational", [F(1), F(2)])
    assert a.apply(x).dense() == [F(3), F(4)]
    with pytest.raises(DomainError):
        a.apply(unit_vector(SingleBox(3), "rational", 1))
    with pytest.raises(ModeError):
        a.apply(unit_vector(BOX2, "float", 1))


def test_compose_matches_matrix_product():
    a = op2([[1, 1], [0, 2]])
    b = op2([[0, 1], [1, 0]])
    assert a.compose(b).matrix == ((F(1), F(1)), (F(2), F(0)))


def test_algebra_and_equality():
    a = op2([[1, 0], [0, 1]])
    b = op2([[0, 1], [0, 0]])
    assert (a + b).matrix == ((F(1), F(1)), (F(0), F(1)))
    assert (a - a).is_zero()
    assert a.scale(3).matrix == ((F(3), F(0)), (F(0), F(3)))
    assert a.approx_equal(FiniteRankOperator.identity(BOX2, "rational"))


def test_rank_one_constructor():
    out = vector_from_dense(BOX2, "rational", [F(1), F(2)])
    p = FiniteRankOperator.rank_one(out, [F(1), F(0)])
    x = vector_from_dense(BOX2, "rational", [F(5), F(7)])
    assert p.apply(x) == out.scale(5)
    assert p.rank == 1
    with pytest.raises(InputError):
        FiniteRankOperator.rank_one(out, [F(1)])


# ---------------------------------------------------------------------------
# stored columns against the dense formulas


def _entries(mode):
    values = (
        st.fractions(min_value=F(-3), max_value=F(3), max_denominator=3)
        if mode == "rational"
        else st.floats(-8, 8, allow_nan=False, allow_infinity=False)
    )
    return st.one_of(st.just(0), values)


@st.composite
def dense_cases(draw):
    """Two square matrices, a coordinate list and a factor in one mode, dimension <= 4."""
    mode = draw(st.sampled_from(["rational", "float"]))
    d = draw(st.integers(1, 4))
    entry = _entries(mode)
    row = st.lists(entry, min_size=d, max_size=d)
    square = st.lists(row, min_size=d, max_size=d)
    return SingleBox(d), mode, draw(square), draw(square), draw(row), draw(entry)


def dense(op):
    return [list(r) for r in op.matrix]


# a column entry that underflows to zero under scale must not be stored
UNDERFLOW = (SingleBox(2), "float", [[1.0, 0], [5e-324, 0]], [[0, 0], [0, 0]], [0, 0], 0.5)


@settings(max_examples=200, deadline=None)
@given(dense_cases())
@example(UNDERFLOW)
def test_column_operations_equal_the_dense_formulas(case):
    box, mode, rows_a, rows_b, coords, factor = case
    a = FiniteRankOperator.from_matrix(box, mode, rows_a)
    b = FiniteRankOperator.from_matrix(box, mode, rows_b)
    x = vector_from_dense(box, mode, coords)
    ma, mb = dense(a), dense(b)
    assert ma == [[as_scalar(v, mode) for v in r] for r in rows_a]
    assert a.apply(x).dense() == mat_vec(ma, x.dense())
    assert dense(a.compose(b)) == mat_mul(ma, mb)
    assert dense(a + b) == [[u + v for u, v in zip(ra, rb)] for ra, rb in zip(ma, mb)]
    c = as_scalar(factor, mode)
    assert dense(a.scale(factor)) == [[c * v for v in r] for r in ma]
    g = x.dense()
    f = rows_b[0]
    one = FiniteRankOperator.rank_one(x, f)
    assert dense(one) == [[as_scalar(gr * fj, mode) for fj in f] for gr in g]
    for op in (a, b, a.compose(b), a + b, a.scale(factor), one):
        m = dense(op)
        pivots = column_space_basis(m, rank_tol(mode))
        assert op.range_basis == tuple(
            vector_from_dense(box, mode, [r[j] for r in m]) for j in pivots
        )


def column_bits(op):
    """Columns with each float spelled out bit for bit."""
    return [
        [(idx, type(v), v.hex() if isinstance(v, float) else v) for idx, v in col.entries]
        for col in op.columns
    ]


@settings(max_examples=200, deadline=None)
@given(dense_cases())
def test_subtraction_equals_adding_the_negated_operator(case):
    box, mode, rows_a, rows_b, _, _ = case
    a = FiniteRankOperator.from_matrix(box, mode, rows_a)
    b = FiniteRankOperator.from_matrix(box, mode, rows_b)
    for left, right in ((a, b), (b, a), (a, a)):
        expected = left + right.scale(-1)
        got = left - right
        assert column_bits(got) == column_bits(expected)
        assert got == expected


def test_subtraction_checks_its_peer_first():
    a = FiniteRankOperator.identity(SingleBox(2), "rational")
    with pytest.raises(DomainError):
        a - FiniteRankOperator.identity(SingleBox(3), "rational")
    with pytest.raises(ModeError):
        a - FiniteRankOperator.identity(SingleBox(2), "float")


# ---------------------------------------------------------------------------
# telescoping


def test_telescope_accumulate_roundtrip_oracle():
    a = op2([[1, 0], [0, 0]])
    b = op2([[1, 0], [0, 1]])
    diffs = telescope([a, b])
    assert diffs[0].approx_equal(a)
    assert diffs[1].matrix == ((F(0), F(0)), (F(0), F(1)))
    sums = accumulate(diffs)
    assert sums[0].approx_equal(a) and sums[1].approx_equal(b)


small_entries = st.integers(-3, 3)
matrices = st.lists(
    st.lists(small_entries, min_size=2, max_size=2), min_size=2, max_size=2
)


@settings(max_examples=40, deadline=None)
@given(st.lists(matrices, min_size=1, max_size=4))
def test_telescope_and_accumulate_are_inverse(mats):
    family = [op2(m) for m in mats]
    recovered = accumulate(telescope(family))
    assert all(x.approx_equal(y) for x, y in zip(recovered, family))
    recovered2 = telescope(accumulate(family))
    assert all(x.approx_equal(y) for x, y in zip(recovered2, family))


def test_empty_family_is_rejected():
    with pytest.raises(DegenerateInputError):
        telescope([])
    with pytest.raises(DegenerateInputError):
        accumulate([])


# ---------------------------------------------------------------------------
# norm levels, filtration, complements


def test_smallest_norm_level():
    system = KoetheSeminorms(((0, 1), (1, 1)), BOX2, "rational")
    eye = FiniteRankOperator.identity(BOX2, "rational")
    assert smallest_norm_level(eye, system) == 2
    proj2 = op2([[0, 0], [0, 1]])
    assert smallest_norm_level(proj2, system) == 1


def test_no_norm_level_raises():
    system = KoetheSeminorms(((0, 1),), BOX2, "rational")
    eye = FiniteRankOperator.identity(BOX2, "rational")
    with pytest.raises(ContinuousNormError):
        smallest_norm_level(eye, system)


def test_kernel_filtration_defaults_to_levels_below_the_norm_level():
    system = KoetheSeminorms(((0, 1), (1, 1)), BOX2, "rational")
    eye = FiniteRankOperator.identity(BOX2, "rational")
    spaces = kernel_filtration(eye, system)
    assert len(spaces) == 1
    assert [v.support for v in spaces[0]] == [(1,)]
    with pytest.raises(ZeroOperatorError):
        kernel_filtration(op2([[0, 0], [0, 0]]), system)


def test_select_complements_trivial_filtration_keeps_the_range():
    a = op2([[1, 1], [0, 2]])
    decomp = select_complements(a.range_basis, [])
    assert len(decomp.blocks) == 1
    assert decomp.blocks[0][0] == 0
    assert decomp.adapted_basis == a.range_basis


def test_select_complements_splits_along_a_kernel():
    box = SingleBox(3)
    e = [unit_vector(box, "rational", j) for j in (1, 2, 3)]
    decomp = select_complements((e[0], e[1]), [(e[1],)])
    assert [tag for tag, _ in decomp.blocks] == [0, 1]
    assert decomp.adapted_basis == (e[0], e[1])
    assert decomp.blocks == ((0, (e[0],)), (1, (e[1],)))


def test_select_complements_orthogonalizes_against_the_inner_space():
    box = SingleBox(2)
    mixed = vector_from_dense(box, "rational", [F(1), F(1)])
    e2 = unit_vector(box, "rational", 2)
    decomp = select_complements((mixed, e2), [(e2,)])
    # the head block must be orthogonal to e2, so only e1 survives
    assert decomp.blocks[0][1][0].dense() == [F(1), F(0)]


def test_select_complements_rejects_empty_range():
    with pytest.raises(ZeroOperatorError):
        select_complements((), [])


def test_select_complements_skips_zero_and_dependent_candidates():
    box = SingleBox(4)
    e = [unit_vector(box, "rational", j) for j in (1, 2, 3, 4)]
    # against span(e1, e2), e1 projects to zero and e2 + e3 onto the kept e3
    decomp = select_complements((e[0], e[2], e[1] + e[2], e[3]), [(e[0], e[1])])
    assert decomp.blocks == ((0, (e[2], e[3])), (1, (e[0], e[1])))


# rows: each input below reaches one postcondition of the filtration or the complements


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_levels_listed_against_the_grading_give_a_filtration_that_is_not_nested(mode):
    # level 2 is a norm on the plane and level 1 kills e2, so the kernels grow along [2, 1]
    system = KoetheSeminorms(((1, 0), (1, 1)), BOX2, mode)
    eye = FiniteRankOperator.identity(BOX2, mode)
    with pytest.raises(ConstructionSoundnessError, match="kernel filtration is not nested"):
        kernel_filtration(eye, system, levels=[2, 1])


# a filtration space larger than the range leaves no complement block; a dependent one
# passes the block counts and makes the adapted basis dependent
BAD_FILTRATIONS = {
    "larger-than-the-range": (lambda e1, e2: ((e1,), [(e1, e2)]), "dimension 0, expected -1"),
    "dependent": (lambda e1, e2: ((e1, e2), [(e1, e1.scale(2))]), "adapted basis is dependent"),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("bad", sorted(BAD_FILTRATIONS))
def test_a_bad_filtration_fails_a_postcondition_of_the_complements(mode, bad):
    build, message = BAD_FILTRATIONS[bad]
    with pytest.raises(ConstructionSoundnessError, match=message):
        select_complements(*build(*(unit_vector(BOX2, mode, j) for j in (1, 2))))


# ---------------------------------------------------------------------------
# the rank-one split


def test_rank_one_split_frozen_instance():
    """The 2x2 instance with a skewed range basis: every derived number."""
    a = op2([[1, 1], [0, 2]], label="a")
    split = rank_one_split(a, flat_system())
    assert split.norm_grading == (1,)
    assert split.control_constant == F(3, 2)
    assert split.level_constants == (F(3, 2),)
    assert split.piece_count == 2
    # biorthogonal functionals recovered from the Gram system
    assert split.pieces[0].matrix == ((F(1), F(-1, 2)), (F(0), F(0)))
    assert split.pieces[1].matrix == ((F(0), F(1, 2)), (F(0), F(1)))
    # pieces must resum to the identity on the range
    for v in a.range_basis:
        img = split.pieces[0].apply(v) + split.pieces[1].apply(v)
        assert img == v


def test_rank_one_split_rejects_zero_and_bad_levels():
    system = flat_system()
    with pytest.raises(ZeroOperatorError):
        rank_one_split(op2([[0, 0], [0, 0]]), system)
    a = op2([[1, 0], [0, 1]])
    with pytest.raises(LevelError):
        rank_one_split(a, system, control_levels=[])
    with pytest.raises(LevelError):
        rank_one_split(a, system, control_levels=[1, 1])
    with pytest.raises(LevelError):
        rank_one_split(a, system, control_levels=[2])


def test_rank_one_split_needs_a_norm_level():
    system = KoetheSeminorms(((0, 1), (1, 1)), BOX2, "rational")
    eye = FiniteRankOperator.identity(BOX2, "rational")
    with pytest.raises(ContinuousNormError):
        rank_one_split(eye, system, control_levels=[1])


def test_rank_one_split_box_mismatch():
    system = KoetheSeminorms(((1, 1, 1),), SingleBox(3), "rational")
    with pytest.raises(DomainError):
        rank_one_split(op2([[1, 0], [0, 1]]), system)


# ---------------------------------------------------------------------------
# damping, replication, flattening


def test_scale_and_replicate_frozen_instance():
    a = op2([[1, 1], [0, 2]], label="a")
    split = rank_one_split(a, flat_system())
    block = scale_and_replicate(split, flat_system())
    # N = ceil(2 * 3/2) = 3 copies of both pieces
    assert block.replication == 3
    assert len(block.operators) == 6
    assert block.operators[0].matrix == ((F(1, 3), F(-1, 6)), (F(0), F(0)))
    assert block.operators[0].approx_equal(block.operators[2])


def test_flatten_schedule_structure():
    a = op2([[1, 1], [0, 2]], label="a")
    split = rank_one_split(a, flat_system())
    block = scale_and_replicate(split, flat_system())
    schedule = flatten_schedule([block])
    assert len(schedule) == 6
    assert schedule.block_structure == tuple((1, i) for i in range(1, 7))
    assert schedule.replication_counts == ((1, 3),)
    assert schedule.working_levels == (1,)
    # the flattened operators resum to the source
    total = schedule.operators[0]
    for op in schedule.operators[1:]:
        total = total + op
    assert total.approx_equal(a)
    # generators are normalized to leading coordinate 1
    for gen in schedule.generators:
        assert gen.entries[0][1] == 1
    with pytest.raises(DegenerateInputError):
        flatten_schedule([])


def test_flatten_schedule_rejects_blocks_on_different_boxes():
    a = op2([[1, 1], [0, 2]], label="a")
    block = scale_and_replicate(rank_one_split(a, flat_system()), flat_system())
    box3 = SingleBox(3)
    system3 = KoetheSeminorms(((1, 1, 1),), box3, "rational")
    eye3 = FiniteRankOperator.identity(box3, "rational")
    other = scale_and_replicate(rank_one_split(eye3, system3), system3)
    with pytest.raises(DomainError):
        flatten_schedule([block, other])


def test_schedule_level_bookkeeping():
    a = op2([[1, 1], [0, 2]], label="a")
    split = rank_one_split(a, flat_system())
    schedule = flatten_schedule([scale_and_replicate(split, flat_system())])
    assert schedule.grading_depth == 1
    assert schedule.original_level(1) == 1
    with pytest.raises(LevelError):
        schedule.original_level(0)
    with pytest.raises(LevelError):
        schedule.original_level(2)


def test_build_schedule_renumbers_working_levels():
    box = SingleBox(3)
    system = MaxPrefixSeminorms(box, "rational", 3)
    family = []
    for p in range(3):
        rows = [[1 if (i == j == p) else 0 for j in range(3)] for i in range(3)]
        family.append(FiniteRankOperator.from_matrix(box, "rational", rows, f"p{p + 1}"))
    schedule = build_schedule(family, system, rng=random.Random(1), prefix_samples=10)
    # coordinate p only becomes visible at prefix length p
    assert schedule.working_levels == (1, 2, 3)
    assert len(schedule) == 3
    # the later splits carry degenerate control constants at the low levels
    assert schedule.splits[2].level_constants == (0, 0, 1)


def test_build_schedule_rejects_zero_members_and_exhausted_levels():
    system = flat_system()
    eye = FiniteRankOperator.identity(BOX2, "rational")
    with pytest.raises(ZeroOperatorError):
        build_schedule([op2([[0, 0], [0, 0]])], system)
    with pytest.raises(DegenerateInputError):
        build_schedule([], system)
    # the single level is spent on the first member
    with pytest.raises(ContinuousNormError):
        build_schedule([eye, eye], system)


def test_prefix_bound_check_runs():
    # the sampled prefix verification must accept an honest block
    a = op2([[1, 1], [0, 2]])
    split = rank_one_split(a, flat_system())
    block = scale_and_replicate(split, flat_system(), rng=random.Random(3), sample_count=40)
    assert block.replication == 3


def test_prefix_bound_check_rejects_an_undamped_block():
    # R = 6 calls for N = 12 copies; claiming R = 0 leaves one undamped copy
    split = rank_one_split(op2([[1, 5], [0, 1]]), flat_system())
    assert split.control_constant == 6
    undamped = dataclasses.replace(split, control_constant=0)
    with pytest.raises(ConstructionSoundnessError, match="level 1, copy 0, piece 1: 2 > 2 \\* 2/3"):
        scale_and_replicate(undamped, flat_system(), rng=random.Random(3), sample_count=40)


def test_prefix_bound_message_states_the_compared_values(monkeypatch):
    # seeded random level values: the message must report the values that were
    # compared, not a second measurement, so the inequality it states holds
    rng = random.Random(0)
    monkeypatch.setattr(KoetheSeminorms, "value", lambda self, k, x: rng.randint(-9, 9))
    box = SingleBox(4)
    system = KoetheSeminorms(tuple((k,) * 4 for k in range(1, 5)), box, "rational")
    family = [
        FiniteRankOperator.from_matrix(
            box, "rational", [[int(i == j == p) for j in range(4)] for i in range(4)]
        )
        for p in range(4)
    ]
    with pytest.raises(ConstructionSoundnessError, match="prefix bound failed") as raised:
        build_schedule(family, system, rng=random.Random(0), prefix_samples=25)
    value, e_value = re.search(r": (-?\d+) > 2 \* (-?\d+)$", str(raised.value)).groups()
    assert int(value) > 2 * int(e_value)


def test_tag_bookkeeping_of_decompositions():
    e1 = unit_vector(BOX2, "rational", 1)
    decomp = ComplementDecomposition(((0, (e1,)),))
    assert decomp.adapted_basis == (e1,)
    assert decomp.blocks[0][0] == 0


# ---------------------------------------------------------------------------
# a custom Tolerances reaches every kernel and constant decision of the pipeline

FINE = Tolerances(rank=1e-12)


def faint_system():
    # level 1 weighs e2 by 1e-10, under the default rank tolerance of 1e-9
    return KoetheSeminorms(((1, 1e-10), (1, 1)), BOX2, "float")


def test_smallest_norm_level_prunes_at_the_given_rank_tolerance():
    eye = FiniteRankOperator.identity(BOX2, "float")
    assert smallest_norm_level(eye, faint_system()) == 2
    assert smallest_norm_level(eye, faint_system(), tol=FINE) == 1


def test_kernel_filtration_prunes_at_the_given_rank_tolerance():
    eye = FiniteRankOperator.identity(BOX2, "float")
    assert [len(b) for b in kernel_filtration(eye, faint_system(), [1])] == [1]
    assert [len(b) for b in kernel_filtration(eye, faint_system(), [1], tol=FINE)] == [0]


def test_rank_one_split_prunes_at_the_given_rank_tolerance():
    eye = FiniteRankOperator.identity(BOX2, "float")
    assert rank_one_split(eye, faint_system()).norm_grading == (1, 2)
    split = rank_one_split(eye, faint_system(), tol=FINE)
    assert split.norm_grading == (1,)
    assert split.control_constant == pytest.approx(1.0)


def test_build_schedule_prunes_at_the_given_rank_tolerance():
    eye = FiniteRankOperator.identity(BOX2, "float")
    assert build_schedule([eye], faint_system()).working_levels == (2,)
    assert build_schedule([eye], faint_system(), tol=FINE).working_levels == (1,)


# ---------------------------------------------------------------------------
# rows: a linear-algebra name that operators imports, broken, reaches each postcondition
# that no input reaches

# the Gram inversion finds no inverse, or a wrong one, so the pieces do not resum
BROKEN_INVERSES = {
    "none": (lambda invert: lambda rows, tol: None, "Gram matrix is singular"),
    "doubled": (
        lambda invert: lambda rows, tol: [[2 * x for x in row] for row in invert(rows, tol)],
        "pieces do not sum to the identity",
    ),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("broken", sorted(BROKEN_INVERSES))
def test_a_broken_gram_inversion_fails_the_split(monkeypatch, mode, broken):
    patch, message = BROKEN_INVERSES[broken]
    monkeypatch.setattr(operators, "invert", patch(operators.invert))
    eye = FiniteRankOperator.identity(BOX2, mode)
    with pytest.raises(ConstructionSoundnessError, match=message):
        rank_one_split(eye, KoetheSeminorms(((1, 1),), BOX2, mode))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_a_range_basis_missing_a_pivot_fails_the_schedule_total(monkeypatch, mode):
    # the identity's range basis keeps e1 only, so its pieces resum e1's line, not the plane
    pivots = operators.column_space_basis
    monkeypatch.setattr(operators, "column_space_basis", lambda rows, tol: pivots(rows, tol)[:1])
    eye = FiniteRankOperator.identity(BOX2, mode)
    system = KoetheSeminorms(((1, 1),), BOX2, mode)
    with pytest.raises(ConstructionSoundnessError, match="schedule total differs"):
        build_schedule([eye], system, rng=random.Random(0), prefix_samples=5)
