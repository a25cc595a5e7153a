"""Graded systems: decay tables, the four built-in kinds, kernels."""

import math
import random
import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit import (
    CustomLevel,
    CustomSeminorms,
    DegenerateInputError,
    DomainError,
    FiniteRankOperator,
    InputError,
    KoetheSeminorms,
    LevelError,
    MaxPrefixSeminorms,
    ModeError,
    RhoTable,
    SingleBox,
    SupPartialSumSeminorms,
    TripleBox,
    TruncatedVector,
    VogtSeminorms,
    seminorm_kernel_basis,
    unit_vector,
    vector_from_dense,
)
from bapkit.linalg import independent, nullspace
from bapkit.jsonio import decode, encode
from bapkit.scalars import (
    RANK,
    approx_equal,
    as_scalar,
    scalar_coercer,
    sum_products,
    zero,
)
from bapkit.seminorms import SeminormSystem, apply_functional, level_matrix, level_rows

F = Fraction


# ---------------------------------------------------------------------------
# rho tables


def test_dyadic_rho_values():
    rho = RhoTable.dyadic()
    assert rho.value(1, 1, "rational") == F(1, 2)
    assert rho.value(3, 7, "rational") == F(1, 8)  # column plays no role
    assert rho.value(2, 1, "float") == 0.25


def test_rho_rejects_bad_indices():
    rho = RhoTable.dyadic()
    with pytest.raises(DomainError):
        rho.value(0, 1, "rational")
    table = RhoTable.from_grid({(1, 1): F(1, 2), (2, 1): F(1, 4)})
    with pytest.raises(DomainError):
        table.value(3, 1, "rational")


def test_rho_table_validation():
    with pytest.raises(InputError):
        RhoTable("gaussian")
    with pytest.raises(InputError):
        RhoTable("table", ((1, 1, F(2)),), 1, 1)  # value outside (0, 1]
    with pytest.raises(InputError):
        RhoTable("table", ((1, 1, F(1, 2)),), 2, 1)  # missing grid entry
    with pytest.raises(InputError):
        RhoTable("table", (), 0, 1)  # no grid
    with pytest.raises(InputError):
        RhoTable("table", ((1, 1, F(1, 2)), (2, 1, F(1, 2))), 1, 1)  # entry outside the grid


def test_decay_index_dyadic():
    rho = RhoTable.dyadic()
    # smallest mu with 2**-mu <= eps, uniformly in the column
    assert rho.decay_index(F(1, 4), 1) == 2
    assert rho.decay_index(F(1, 4), 9) == 2
    assert rho.decay_index(F(1, 5), 1) == 3
    assert rho.decay_index(F(1), 1) == 1
    with pytest.raises(InputError):
        rho.decay_index(F(0), 1)


def test_decay_index_table_is_a_high_water_mark():
    table = RhoTable.from_grid(
        {(1, 1): F(1, 2), (2, 1): F(1, 8), (3, 1): F(1, 4)}
    )
    # row 3 still exceeds 1/8, so the witness index must clear it
    assert table.decay_index(F(1, 8), 1) == 4
    assert table.decay_index(F(1, 2), 1) == 1


def test_decay_index_in_float_mode_reaches_any_epsilon():
    rho = RhoTable.dyadic()
    for eps, expected in ((2.0**-70, 70), (0.75 * 2.0**-70, 71), (5e-324, 1074)):
        mu0 = rho.decay_index(eps, 1, "float")
        assert mu0 == expected
        assert rho.value(mu0, 1, "float") <= eps < rho.value(mu0 - 1, 1, "float")


# ---------------------------------------------------------------------------
# vogt systems


def small_instance(level_count=3):
    return VogtSeminorms(RhoTable.dyadic(), TripleBox(3, 2, 3), "rational", level_count)


def test_vogt_unit_vector_oracles():
    system = VogtSeminorms(RhoTable.dyadic(), TripleBox(5, 3, 4), "rational", 3)
    e = unit_vector(system.box, "rational", (1, 2, 2))
    # level 2 sees the plain term with weight 2**(1+2+2)
    assert system.value(2, e) == 32
    # level 1 sees only the damped difference rho(2,2) * 1 - 0
    assert system.value(1, e) == F(1, 4)
    assert system.value(3, e) == 3**5


def test_vogt_difference_terms_couple_adjacent_rows():
    system = small_instance()
    x = TruncatedVector.create(
        system.box, "rational", {(1, 1, 3): 2, (2, 1, 3): 1}
    )
    # level 1, column 3: sites n=1,2 contribute |rho*2 - 1| and |rho*1 - 0|
    rho = F(1, 2)
    expected = abs(rho * 2 - 1) * 1 + abs(rho * 1) * 1
    assert system.value(1, x) == expected


def test_vogt_boundary_row_has_no_upper_neighbor():
    system = small_instance()
    top = unit_vector(system.box, "rational", (3, 1, 3))
    # leading site |rho * 1 - 0| * 1**7 plus the successor site |0 - 1| * 1**6;
    # the out-of-box neighbor above row 3 contributes nothing
    assert system.value(1, top) == F(1, 2) + 1


def test_primed_value_oracle():
    system = small_instance()
    e = unit_vector(system.box, "rational", (1, 1, 2))
    # threshold pushed to 2 turns the difference term into a plain one
    assert system.primed_values((1,), e) == ((F(1, 2),), (2 * 1**4,))
    assert system.value(1, e) == F(1, 2)


def test_vogt_needs_triple_box():
    with pytest.raises(InputError):
        VogtSeminorms(RhoTable.dyadic(), SingleBox(3), "rational", 2)


def test_vogt_table_grid_must_cover_the_box():
    table = RhoTable.from_grid({(1, 1): F(1, 2)})
    with pytest.raises(InputError):
        VogtSeminorms(table, TripleBox(2, 2, 2), "rational", 2)


def sparse_vectors(box, mode="rational", max_support=6):
    """Nonzero sparse vectors on box; float entries include tiny and inexact ones."""
    if mode == "rational":
        values = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6)
    else:
        values = st.floats(-9.0, 9.0) | st.sampled_from([0.1, -0.3, 1e-300])
    return st.lists(
        st.tuples(st.sampled_from(list(box.indices())), values),
        min_size=1,
        max_size=max_support,
    ).map(lambda pairs: TruncatedVector.create(box, mode, pairs))


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(TripleBox(3, 2, 3)))
def test_vogt_levels_are_monotone(x):
    system = small_instance()
    values = [system.value(k, x) for k in (1, 2, 3)]
    assert values[0] <= values[1] <= values[2]


@settings(max_examples=60, deadline=None)
@given(sparse_vectors(TripleBox(3, 2, 3)))
def test_primed_value_sits_between_adjacent_levels(x):
    system = small_instance()
    (v1, v2, v3), primed = system.primed_values((1, 2, 3), x)
    assert v1 <= primed[0] <= 2 * v2
    assert v2 <= primed[1] <= 2 * v3


# ---------------------------------------------------------------------------
# koethe, max-prefix, custom


def test_koethe_value_oracle():
    system = KoetheSeminorms(((1, 2), (3, 4)), SingleBox(2), "rational")
    x = vector_from_dense(SingleBox(2), "rational", [F(1), F(-2)])
    assert system.value(1, x) == 1 + 4
    assert system.value(2, x) == 3 + 8
    assert system.level_count == 2


def test_koethe_weight_validation():
    box = SingleBox(2)
    with pytest.raises(InputError):
        KoetheSeminorms(((1, -1),), box, "rational")
    with pytest.raises(InputError):
        KoetheSeminorms(((2, 2), (1, 2)), box, "rational")  # decreasing level
    with pytest.raises(InputError):
        KoetheSeminorms(((1, 2, 3),), box, "rational")  # row too long
    with pytest.raises(InputError):
        KoetheSeminorms((), box, "rational")


def test_max_prefix_value():
    system = MaxPrefixSeminorms(SingleBox(4), "rational", 4)
    x = vector_from_dense(SingleBox(4), "rational", [F(1), F(-3), F(2), F(10)])
    assert system.value(1, x) == 1
    assert system.value(2, x) == 3
    assert system.value(4, x) == 10


def test_custom_system_combiners():
    box = SingleBox(2)
    levels = (
        CustomLevel((((1, F(1)),), ((2, F(1)),)), "max"),
        CustomLevel((((1, F(1)), (2, F(1))),), "sum"),
    )
    system = CustomSeminorms(levels, box, "rational")
    x = vector_from_dense(box, "rational", [F(3), F(-4)])
    assert system.value(1, x) == 4  # max(|3|, |4|)
    assert system.value(2, x) == 1  # |3 - 4|
    assert system.level_groups(1) == (("max", (((1, F(1)),), ((2, F(1)),))),)
    with pytest.raises(TypeError):
        CustomSeminorms(levels, box, "rational", monotone_guaranteed=False)


SYSTEM_CONSTRUCTOR_CHECKS = {
    "vogt-without-levels": (
        lambda: VogtSeminorms(RhoTable.dyadic(), TripleBox(2, 2, 2), "rational", 0), LevelError
    ),
    "max-prefix-without-levels": (
        lambda: MaxPrefixSeminorms(SingleBox(2), "rational", 0), LevelError
    ),
    "custom-without-levels": (lambda: CustomSeminorms((), SingleBox(2), "rational"), LevelError),
    "koethe-on-a-triple-box": (
        lambda: KoetheSeminorms(((1,) * 8,), TripleBox(2, 2, 2), "rational"), InputError
    ),
    "max-prefix-on-a-triple-box": (
        lambda: MaxPrefixSeminorms(TripleBox(2, 2, 2), "rational", 1), InputError
    ),
}


@pytest.mark.parametrize("case", sorted(SYSTEM_CONSTRUCTOR_CHECKS))
def test_system_constructor_checks(case):
    build, error = SYSTEM_CONSTRUCTOR_CHECKS[case]
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error


def test_custom_level_validation():
    with pytest.raises(InputError):
        CustomLevel((), "median")
    with pytest.raises(DomainError):
        CustomSeminorms(
            (CustomLevel((((5, F(1)),),), "sum"),), SingleBox(2), "rational"
        )


# ---------------------------------------------------------------------------
# derived sup system


def prefix_projections(box, mode="rational"):
    d = box.d
    ops = []
    for p in range(d):
        rows = [[1 if (i == j == p) else 0 for j in range(d)] for i in range(d)]
        ops.append(FiniteRankOperator.from_matrix(box, mode, rows, label=f"p{p + 1}"))
    return ops


def test_sup_partial_value_is_max_over_prefixes():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1),), box, "rational")
    ops = prefix_projections(box)
    sup = SupPartialSumSeminorms(base, ops)
    x = vector_from_dense(box, "rational", [F(3), F(-1)])
    # prefixes are (3, 0) and (3, -1); base values 3 and 4
    assert sup.value(1, x) == 4
    y = vector_from_dense(box, "rational", [F(3), F(-3)])
    # the intermediate prefix (3, 0) loses to the full sum (3, -3)
    assert sup.value(1, y) == 6


def test_sup_partial_needs_operators():
    base = KoetheSeminorms(((1, 1),), SingleBox(2), "rational")
    with pytest.raises(DegenerateInputError):
        SupPartialSumSeminorms(base, [])


# (base box, base mode, operator box, operator mode, error); the first is a float operator
# on a d = 2 box under a rational base on a d = 3 box, whose box is checked first
MISPLACED_OPERATORS = {
    "another-box-and-mode": (3, "rational", 2, "float", DomainError),
    "another-box": (2, "rational", 3, "rational", DomainError),
    "another-mode": (2, "rational", 2, "float", ModeError),
    "another-mode-under-a-float-base": (2, "float", 2, "rational", ModeError),
}


@pytest.mark.parametrize("case", sorted(MISPLACED_OPERATORS))
def test_sup_partial_rejects_an_operator_on_another_box_or_mode(case):
    d, mode, op_d, op_mode, error = MISPLACED_OPERATORS[case]
    base = KoetheSeminorms((tuple(1 for _ in range(d)),), SingleBox(d), mode)
    good = prefix_projections(SingleBox(d), mode)
    bad = FiniteRankOperator.identity(SingleBox(op_d), op_mode)
    # at the end of the family as well as alone: every operator is checked
    for ops in ([bad], [*good, bad]):
        with pytest.raises(error) as info:
            SupPartialSumSeminorms(base, ops)
        assert type(info.value) is error
        record = {**encode(SupPartialSumSeminorms(base, good)), "operators": list(map(encode, ops))}
        with pytest.raises(error) as info:
            decode(record)
        assert type(info.value) is error


def test_sup_partial_kernel_is_exact():
    box = SingleBox(2)
    base = KoetheSeminorms(((0, 1),), box, "rational")
    ops = prefix_projections(box)
    sup = SupPartialSumSeminorms(base, ops)
    basis = [unit_vector(box, "rational", j) for j in (1, 2)]
    kernel = seminorm_kernel_basis(sup, 1, basis)
    # every prefix kills coordinate 1 at this level, nothing kills e2
    assert len(kernel) == 1
    assert kernel[0].support == (1,)


# ---------------------------------------------------------------------------
# shared operations


BUILTIN_SYSTEMS = {
    "vogt": small_instance,
    "koethe": lambda: KoetheSeminorms(((1, 2), (3, 4)), SingleBox(2), "rational"),
    "max-prefix": lambda: MaxPrefixSeminorms(SingleBox(2), "rational", 2),
    "custom": lambda: CustomSeminorms(
        (CustomLevel((((1, F(1)),), ((2, F(1)),)), "max"),), SingleBox(2), "rational"
    ),
    "sup-partial": lambda: SupPartialSumSeminorms(
        KoetheSeminorms(((1, 1),), SingleBox(2), "rational"), prefix_projections(SingleBox(2))
    ),
}


@pytest.mark.parametrize("kind", sorted(BUILTIN_SYSTEMS))
def test_value_input_checks(kind):
    system = BUILTIN_SYSTEMS[kind]()
    first = next(iter(system.box.indices()))
    x = unit_vector(system.box, "rational", first)
    foreign = TripleBox(2, 2, 3) if isinstance(system.box, TripleBox) else SingleBox(3)
    with pytest.raises(LevelError):
        system.value(0, x)
    with pytest.raises(LevelError):
        system.value(system.level_count + 1, x)
    with pytest.raises(DomainError):
        system.value(1, unit_vector(foreign, "rational", first))
    with pytest.raises(ModeError):
        system.value(1, unit_vector(system.box, "float", first))


def test_kernel_basis_koethe_oracle():
    box = SingleBox(3)
    system = KoetheSeminorms(((0, 1, 0), (1, 1, 1)), box, "rational")
    basis = [unit_vector(box, "rational", j) for j in (1, 2, 3)]
    k1 = seminorm_kernel_basis(system, 1, basis)
    assert sorted(v.support for v in k1) == [(1,), (3,)]
    assert seminorm_kernel_basis(system, 2, basis) == []


def test_kernel_basis_respects_the_subspace():
    box = SingleBox(3)
    system = KoetheSeminorms(((0, 1, 0),), box, "rational")
    sub = [vector_from_dense(box, "rational", [F(1), F(1), F(0)])]
    kernel = seminorm_kernel_basis(system, 1, sub)
    assert kernel == []  # the only kernel directions leave the span


def test_kernel_basis_rejects_dependent_subspace():
    box = SingleBox(2)
    system = KoetheSeminorms(((1, 1),), box, "rational")
    v = vector_from_dense(box, "rational", [F(1), F(2)])
    with pytest.raises(InputError):
        seminorm_kernel_basis(system, 1, [v, v.scale(2)])


def test_level_matrix_prunes_zero_rows():
    box = SingleBox(2)
    system = KoetheSeminorms(((0, 2),), box, "rational")
    rows = level_matrix(system, 1, [unit_vector(box, "rational", 2)])
    assert rows == [[F(2)]]


def test_empty_subspace_has_empty_kernel():
    system = small_instance()
    assert seminorm_kernel_basis(system, 1, []) == []


# ---------------------------------------------------------------------------
# sparse level rows against the per-cell construction


def per_cell_level_matrix(system, k, basis):
    """level_matrix as built before level_rows: one apply_functional per cell."""
    ftol = None if system.mode == "rational" else RANK
    rows = []
    for pairs in system.level_terms(k):
        row = [apply_functional(pairs, v) for v in basis]
        if any(c != 0 if ftol is None else abs(c) > ftol for c in row):
            rows.append(row)
    return rows


def oracle_systems(mode):
    table = RhoTable.from_grid(
        {(mu, nu): F(1, mu + nu) for mu in (1, 2) for nu in (1, 2, 3)}
    )
    single = SingleBox(4)
    custom_levels = (
        CustomLevel(
            (((1, F(1)), (2, F(-1))), ((3, 2),), ((4, F(1, 3)), (4, F(2, 3)), (1, 0))),
            "sum",
        ),
        CustomLevel((((2, F(1, 2)),), ((1, -1), (3, F(5, 2)), (4, 1))), "max"),
    )
    return [
        VogtSeminorms(RhoTable.dyadic(), TripleBox(3, 2, 3), mode, 3),
        VogtSeminorms(table, TripleBox(3, 2, 3), mode, 3),
        KoetheSeminorms(((0, 1, 0, 2), (1, 1, 0, 3), (1, 2, 1, 3)), single, mode),
        MaxPrefixSeminorms(single, mode, 4),
        CustomSeminorms(custom_levels, single, mode),
    ]


def random_basis(box, mode, rng):
    indices = list(box.indices())
    basis = []
    for _ in range(rng.randint(0, 6)):
        picked = rng.sample(indices, rng.randint(0, 3))
        if mode == "rational":
            values = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in picked]
        else:
            values = [rng.uniform(-4.0, 4.0) for _ in picked]
        basis.append(TruncatedVector.create(box, mode, zip(picked, values)))
    return basis


def types(rows):
    return [[type(c) for c in row] for row in rows]


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_level_matrix_matches_the_per_cell_construction(mode, seed):
    rng = random.Random(seed)
    for system in oracle_systems(mode):
        basis = random_basis(system.box, mode, rng)
        for k in range(1, system.level_count + 1):
            expected = per_cell_level_matrix(system, k, basis)
            got = level_matrix(system, k, basis)
            assert got == expected
            assert types(got) == types(expected)
            for row in level_rows(system, k, basis):
                assert row and all(c != 0 for c in row.values())



def per_cell_kernel_basis(system, k, basis):
    """seminorm_kernel_basis as built before it used level_matrix."""
    out = []
    for cs in nullspace(per_cell_level_matrix(system, k, basis), len(basis), system.mode):
        acc = None
        for c, v in zip(cs, basis):
            piece = v.scale(c)
            acc = piece if acc is None else acc + piece
        out.append(acc)
    return out


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_seminorm_kernel_basis_matches_the_per_cell_construction(mode, seed):
    rng = random.Random(seed)
    for system in oracle_systems(mode):
        basis = []
        for v in random_basis(system.box, mode, rng):
            if independent([w.dense() for w in basis + [v]], mode):
                basis.append(v)
        for k in range(1, system.level_count + 1):
            assert seminorm_kernel_basis(system, k, basis) == per_cell_kernel_basis(system, k, basis)


def test_level_rows_drop_cancelled_entries():
    box = SingleBox(3)
    level = CustomLevel((((1, F(1)), (2, F(-1))), ((3, F(1)),)), "sum")
    system = CustomSeminorms((level,), box, "rational")
    flat = vector_from_dense(box, "rational", [F(2), F(2), F(0)])
    tilted = vector_from_dense(box, "rational", [F(1), F(0), F(4)])
    assert level_rows(system, 1, [flat, tilted]) == [{1: F(1)}, {1: F(4)}]
    assert level_matrix(system, 1, [flat, tilted]) == [[F(0), F(1)], [F(0), F(4)]]
    # the first functional kills the flat vector, so alone it has no row
    assert level_rows(system, 1, [flat]) == []


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_level_rows_list_their_columns_in_increasing_order(mode, seed):
    # a two-pair functional over a permuted basis meets its columns out of
    # order; the sparse objective sums of polyhedral_sup run in column order
    rng = random.Random(seed)
    box = SingleBox(4)
    levels = tuple(
        CustomLevel(
            tuple(
                tuple((j, rng.choice((1, -1, 2, F(1, 3)))) for j in rng.sample((1, 2, 3, 4), 2))
                for _ in range(rng.randint(1, 3))
            ),
            rng.choice(("sum", "max")),
        )
        for _ in range(rng.randint(1, 3))
    )
    custom = CustomSeminorms(levels, box, mode)
    basis = [unit_vector(box, mode, idx) for idx in box.indices()]
    rng.shuffle(basis)
    cases = [(custom, basis), (custom, random_basis(box, mode, rng))]
    cases += [(system, random_basis(system.box, mode, rng)) for system in oracle_systems(mode)]
    for system, vectors in cases:
        for k in range(1, system.level_count + 1):
            for row in level_rows(system, k, vectors):
                assert list(row) == sorted(row)


def row_bits(rows):
    """Each row's (column, scalar_bits) pairs in order: keys, values and value types."""
    return [[(j, scalar_bits(v)) for j, v in row.items()] for row in rows]


def unit_basis(box, mode):
    return [unit_vector(box, mode, idx) for idx in box.indices()]


# plain int coefficients, an index repeated within one functional, and a functional
# that cancels: unit-basis rows must coerce, sum in functional order and prune
INT_LEVEL = CustomLevel((((1, 2), (3, -1), (1, 3)), ((2, 4), (2, -4)), ((4, 1),)), "sum")


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_unit_basis_rows_equal_the_rows_over_unit_vectors(mode):
    int_system = CustomSeminorms((INT_LEVEL,), SingleBox(4), mode)
    for system in oracle_systems(mode) + sup_partial_systems(mode) + [int_system]:
        basis = unit_basis(system.box, mode)
        for k in range(1, system.level_count + 1):
            assert row_bits(level_rows(system, k)) == row_bits(level_rows(system, k, basis))
    one = as_scalar(1, mode)
    assert row_bits(level_rows(int_system, 1)) == row_bits([{0: 5 * one, 2: -one}, {3: one}])


def test_unit_basis_rows_prune_a_negligible_float_row():
    level = CustomLevel((((1, 1e-12), (2, -3e-11)), ((3, 0.5),)), "max")
    system = CustomSeminorms((level,), SingleBox(3), "float")
    basis = unit_basis(system.box, "float")
    assert level_rows(system, 1) == level_rows(system, 1, basis) == [{2: 0.5}]


# ---------------------------------------------------------------------------
# integer-accumulated sums against the loops they replaced


def loop_koethe_value(system, k, x):
    """KoetheSeminorms.value as a loop that adds one weighted term at a time."""
    row = system.weights[k - 1]
    total = zero(system.mode)
    for j, val in x.entries:
        total += row[j - 1] * abs(val)
    return total


def loop_apply_functional(pairs, vec):
    total = zero(vec.mode)
    for idx, coeff in pairs:
        total += coeff * vec.get(idx)
    return total


def scalar_bits(value):
    """A scalar with its type, and a float spelled out bit for bit."""
    return type(value), value.hex() if isinstance(value, float) else value


def random_vector(box, mode, rng, max_support=6):
    picked = rng.sample(list(box.indices()), rng.randint(0, min(max_support, box.dimension)))
    if mode == "rational":
        values = [F(rng.randint(-9, 9), rng.randint(1, 12)) for _ in picked]
    else:
        values = [rng.choice((rng.uniform(-9.0, 9.0), 0.1, -0.3, 1e-300)) for _ in picked]
    return TruncatedVector.create(box, mode, zip(picked, values))


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_koethe_value_equals_the_termwise_loop(mode, seed):
    rng = random.Random(seed)
    d = rng.randint(1, 6)
    box = SingleBox(d)
    row = [F(rng.randint(0, 7), rng.randint(1, 5)) for _ in range(d)]
    rows = [row]
    for _ in range(rng.randint(0, 2)):
        row = [w + F(rng.randint(0, 3), rng.randint(1, 7)) for w in row]
        rows.append(row)
    if mode == "float":
        rows = [[float(w) for w in r] for r in rows]
    system = KoetheSeminorms(tuple(map(tuple, rows)), box, mode)
    for _ in range(5):
        x = random_vector(box, mode, rng)
        for k in range(1, system.level_count + 1):
            assert scalar_bits(system.value(k, x)) == scalar_bits(loop_koethe_value(system, k, x))


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_apply_functional_equals_the_termwise_loop(mode, seed):
    rng = random.Random(seed)
    box = rng.choice([SingleBox(5), TripleBox(2, 2, 2)])
    indices = list(box.indices())
    coefficients = [1, -2, F(1, 3), F(-5, 12)] + ([0.1, -2.5] if mode == "float" else [])
    pairs = [(rng.choice(indices), rng.choice(coefficients)) for _ in range(rng.randint(0, 8))]
    x = random_vector(box, mode, rng)
    assert scalar_bits(apply_functional(pairs, x)) == scalar_bits(loop_apply_functional(pairs, x))


def sup_partial_systems(mode):
    """Sup-partial systems over the Koethe, max-prefix and custom oracle systems."""
    box = SingleBox(4)
    matrices = (
        [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
        [[0, 0, 0, 0], [-1, 1, 0, 0], [0, 2, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 0, 0], [0, 0, 0, 0], [1, -1, 0, 0], [0, 0, 3, -1]],
    )
    ops = [FiniteRankOperator.from_matrix(box, mode, m) for m in matrices]
    return [SupPartialSumSeminorms(base, ops) for base in oracle_systems(mode)[2:]]


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_value_equals_the_combiner_over_the_level_terms(mode, seed):
    rng = random.Random(seed)
    for system in oracle_systems(mode) + sup_partial_systems(mode):
        for _ in range(3):
            x = random_vector(system.box, mode, rng)
            for k in range(1, system.level_count + 1):
                expected = zero(mode)
                for combiner, functionals in system.level_groups(k):
                    pieces = [abs(apply_functional(pairs, x)) for pairs in functionals]
                    if combiner == "sum":
                        expected = max(expected, sum(pieces, zero(mode)))
                    else:
                        expected = max([expected] + pieces)
                # float: the kinds sum in another order than their groups
                assert approx_equal(system.value(k, x), expected, mode)
                assert system.level_terms(k) == [
                    pairs for _, functionals in system.level_groups(k) for pairs in functionals
                ]


# ---------------------------------------------------------------------------
# values derived from the level groups against the loops they replaced


def koethe_value_loop(system, k, x):
    row = system.weights[k - 1]
    return sum_products(((row[j - 1], abs(val)) for j, val in x.entries), system.mode)


def max_prefix_value_loop(system, k, x):
    cut = min(k, system.box.d)
    best = zero(system.mode)
    for j, val in x.entries:
        if j <= cut and abs(val) > best:
            best = abs(val)
    return best


def custom_value_loop(system, k, x):
    lvl = system.levels[k - 1]
    pieces = [abs(apply_functional(pairs, x)) for pairs in lvl.functionals]
    if not pieces:
        return zero(system.mode)
    return sum(pieces, zero(system.mode)) if lvl.combiner == "sum" else max(pieces)


def random_custom_system(box, mode, rng):
    """Levels of one- and several-pair functionals, indices repeated, unit weights common."""
    indices = list(box.indices())
    coefficients = [1, 1, -1, 2, F(1, 3), F(-5, 2), 0]
    levels = tuple(
        CustomLevel(
            tuple(
                tuple((rng.choice(indices), rng.choice(coefficients))
                      for _ in range(rng.choice((1, 1, 2, 3))))
                for _ in range(rng.randint(0, 5))
            ),
            rng.choice(("sum", "max")),
        )
        for _ in range(rng.randint(1, 3))
    )
    return CustomSeminorms(levels, box, mode)


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_derived_value_equals_the_replaced_loops(mode, seed):
    rng = random.Random(seed)
    box = SingleBox(rng.randint(1, 6))
    rows, row = [], [0] * box.d
    for _ in range(rng.randint(1, 3)):
        row = [w + rng.choice((0, 0, 1, F(1, 3), F(7, 2))) for w in row]
        rows.append(tuple(as_scalar(w, mode) for w in row))
    koethe = KoetheSeminorms(tuple(rows), box, mode)
    max_prefix = MaxPrefixSeminorms(box, mode, rng.randint(1, box.d + 2))
    custom = random_custom_system(rng.choice([box, TripleBox(2, 2, 2)]), mode, rng)
    for _ in range(5):
        x, y = random_vector(box, mode, rng), random_vector(custom.box, mode, rng)
        for k in range(1, koethe.level_count + 1):
            assert scalar_bits(koethe.value(k, x)) == scalar_bits(koethe_value_loop(koethe, k, x))
        for k in range(1, max_prefix.level_count + 1):
            got, expected = max_prefix.value(k, x), max_prefix_value_loop(max_prefix, k, x)
            assert scalar_bits(got) == scalar_bits(expected)
        for k in range(1, custom.level_count + 1):
            got, expected = custom.value(k, y), custom_value_loop(custom, k, y)
            assert type(got) is type(expected) and approx_equal(got, expected, mode)


def termwise_split(system, x, base, threshold):
    """One split of VogtSeminorms.split_values as the term-by-term loop that it replaced."""
    mode = system.mode
    total = zero(mode)
    diff_sites = set()
    for (n, mu, nu), val in x.entries:
        if nu <= threshold:
            total += abs(val) * as_scalar(base ** (n + mu + nu), mode)
        else:
            diff_sites.add((n, mu, nu))
            if n > 1:
                diff_sites.add((n - 1, mu, nu))
    for n, mu, nu in sorted(diff_sites):
        here = x.get((n, mu, nu))
        above = x.get((n + 1, mu, nu)) if n + 1 <= system.box.n_max else zero(mode)
        term = abs(system.rho.value(mu, nu, mode) * here - above)
        total += term * as_scalar(base ** (n + mu + nu), mode)
    return total


def assert_split_values_equal_the_loop(system, x):
    # values reads (k, k), primed_values (p, p + 1), all of them here in one read
    splits = [(k, t) for k in range(1, system.level_count + 1) for t in (k, k + 1)]
    for split, got in zip(splits, system.split_values(x, splits)):
        assert scalar_bits(got) == scalar_bits(termwise_split(system, x, *split))


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_split_value_equals_the_termwise_loop(mode, data):
    # the dyadic and the table rho systems
    for system in oracle_systems(mode)[:2]:
        assert_split_values_equal_the_loop(system, data.draw(sparse_vectors(system.box, mode)))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_split_value_equals_the_termwise_loop_at_coprime_denominators(mode):
    # every difference site below has rho 2/3 or 5/7 and here and above both
    # nonzero, their three denominators pairwise coprime, so no rational term
    # reduces; (3, 2, 2) and (3, 2, 3) sit at n = n_max, where above is 0
    grid = {(1, 1): F(1, 2), (1, 2): F(2, 3), (1, 3): F(5, 7)}
    grid |= {(2, 1): F(1, 4), (2, 2): F(5, 7), (2, 3): F(2, 3)}
    system = VogtSeminorms(RhoTable.from_grid(grid), TripleBox(3, 2, 3), mode, 3)
    entries = {
        (1, 1, 2): F(-1, 4), (2, 1, 2): F(6, 5),  # rho 2/3
        (1, 1, 3): F(3, 11), (2, 1, 3): F(-4, 5),  # rho 5/7
        (2, 2, 2): F(9, 8), (3, 2, 2): F(2, 13),  # rho 5/7
        (2, 2, 3): F(-7, 5), (3, 2, 3): F(-6, 17),  # rho 2/3
    }
    assert_split_values_equal_the_loop(system, TruncatedVector.create(system.box, mode, entries))


# an unnormalised integer ratio, the form of a rational difference term in recomputing_split
Ratio = namedtuple("Ratio", "numerator denominator")


def recomputing_split(system, x, base, threshold):
    """One split of VogtSeminorms.split_values as it was before its splits shared
    their difference terms: each split recomputes every difference term, a
    rational one as one unnormalised Ratio, and sums the plain terms in entry
    order, then the difference sites in box order, through sum_products."""
    mode = system.mode
    z = zero(mode)
    lookup = dict(x.entries)
    terms, diff_sites = [], set()
    for (n, mu, nu), val in x.entries:
        if nu <= threshold:
            terms.append((base ** (n + mu + nu), abs(val)))
        else:
            diff_sites.add((n, mu, nu))
            if n > 1:
                diff_sites.add((n - 1, mu, nu))
    for n, mu, nu in sorted(diff_sites):
        r = system.rho.value(mu, nu, mode)
        here = lookup.get((n, mu, nu), z)
        above = lookup.get((n + 1, mu, nu), z)
        if mode == "rational":
            rd, hd, ad = r.denominator, here.denominator, above.denominator
            num = r.numerator * here.numerator * ad - above.numerator * rd * hd
            term = Ratio(abs(num), rd * hd * ad)
        else:
            term = abs(r * here - above)
        terms.append((base ** (n + mu + nu), term))
    return sum_products(terms, mode)


def assert_levels_equal_the_recomputing_loop(system, x):
    levels = range(1, system.level_count + 1)
    read, primed = system.primed_values(levels, x)
    for k in levels:
        expected = recomputing_split(system, x, k, k)
        assert scalar_bits(system.value(k, x)) == scalar_bits(expected)
        assert scalar_bits(read[k - 1]) == scalar_bits(expected)
        expected = 2 * recomputing_split(system, x, k, k + 1)
        assert scalar_bits(primed[k - 1]) == scalar_bits(expected)


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_vogt_levels_and_primed_values_equal_the_recomputing_loop(mode, seed):
    # interleaved vectors (x, y, x), repeated calls on one vector, and a vector equal to
    # an earlier one that is another object: no read depends on the one before it
    rng = random.Random(seed)
    for system in vogt_systems(mode):
        x, y = (random_vector(system.box, mode, rng, max_support=10) for _ in range(2))
        twin = TruncatedVector(x.box, x.mode, x.entries)
        assert twin == x and twin is not x
        for v in (x, y, x, x, twin, y, twin):
            assert_levels_equal_the_recomputing_loop(system, v)


def vogt_systems(mode):
    """The dyadic and the table rho systems, and one with difference sites at every level."""
    return oracle_systems(mode)[:2] + [VogtSeminorms(RhoTable.dyadic(), TripleBox(4, 3, 5), mode, 4)]


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_split_values_equal_the_one_split_reads(mode, seed):
    # any splits, in any order, repeats included, or none; weight bases past the level
    # count and thresholds past nu_max read as any other
    rng = random.Random(seed)
    for system in vogt_systems(mode):
        x = random_vector(system.box, mode, rng, max_support=10)
        top = system.level_count + 2
        splits = [(rng.randint(1, top), rng.randint(0, top)) for _ in range(rng.randint(0, 8))]
        got = system.split_values(x, splits)
        assert type(got) is tuple and len(got) == len(splits)
        for split, value in zip(splits, got):
            assert scalar_bits(value) == scalar_bits(system.split_values(x, [split])[0])
        assert system.split_values(x, ()) == ()


def held_objects(value, seen=None):
    """Every object that value holds, through dicts, lists, tuples and sets, value included."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return
    seen.add(id(value))
    yield value
    items = value.items() if isinstance(value, dict) else ()
    if isinstance(value, (list, tuple, set, frozenset)):
        items = value
    for item in items:
        yield from held_objects(item, seen)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_no_read_leaves_the_vector_on_the_system(mode):
    rng = random.Random(3)
    for system in vogt_systems(mode):
        x = random_vector(system.box, mode, rng, max_support=10)
        levels = range(1, system.level_count + 1)
        system.values(levels, x)
        system.primed_values(levels, x)
        system.split_values(x, [(2, 1), (1, 5)])
        system.value(1, x)
        held = list(held_objects(vars(system)))
        assert not any(obj is x or obj is x.entries for obj in held)


def test_a_float_split_adds_left_to_right():
    # the level-1 plain terms are 2**53, 1, 1 in entry order: each 1 rounds away, to even,
    # where a compensated sum (math.fsum, or Python 3.12's sum of floats) gives 2**53 + 2
    system = VogtSeminorms(RhoTable.dyadic(), TripleBox(3, 1, 1), "float", 2)
    entries = {(1, 1, 1): 2.0**53, (2, 1, 1): 1.0, (3, 1, 1): 1.0}
    x = TruncatedVector.create(system.box, "float", entries)
    assert system.value(1, x) == 2.0**53
    assert system.split_values(x, [(1, 1)]) == (2.0**53,)
    assert math.fsum([2.0**53, 1.0, 1.0]) == 2.0**53 + 2


def loop_vogt_level_groups(system, k):
    """VogtSeminorms.level_groups as the box loop that it was before split_groups."""
    coerce = scalar_coercer(system.mode)
    out = []
    for n, mu, nu in system.box.indices():
        w = coerce(k ** (n + mu + nu))
        if nu <= k:
            out.append((((n, mu, nu), w),))
        else:
            pairs = [((n, mu, nu), system.rho.value(mu, nu, system.mode) * w)]
            if n + 1 <= system.box.n_max:
                pairs.append((((n + 1, mu, nu)), -w))
            out.append(tuple(pairs))
    return (("sum", tuple(out)),)


def coefficient_bits(groups):
    return [
        [(idx, scalar_bits(c)) for idx, c in pairs]
        for _, functionals in groups
        for pairs in functionals
    ]


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_vogt_level_groups_equal_the_box_loop(mode):
    for system in vogt_systems(mode):
        for k in range(1, system.level_count + 1):
            expected = loop_vogt_level_groups(system, k)
            assert system.split_groups(k, k) == expected[0][1]
            assert system.level_groups(k) == expected
            assert coefficient_bits(system.level_groups(k)) == coefficient_bits(expected)


def loop_rho_value(table, mu, nu, mode):
    """RhoTable.value as the scan over the stored triples that it replaced."""
    if mu < 1 or nu < 1:
        raise DomainError(f"rho index ({mu},{nu}) out of range")
    if mu > table.mu_limit or nu > table.nu_limit:
        raise DomainError(f"rho index ({mu},{nu}) outside table grid")
    for m, n, val in table.values:
        if (m, n) == (mu, nu):
            return as_scalar(val, mode)
    raise DomainError(f"rho index ({mu},{nu}) missing")


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_rho_table_lookup_equals_the_scan(mode, seed):
    rng = random.Random(seed)
    mu_limit, nu_limit = rng.randint(1, 4), rng.randint(1, 4)
    grid = {
        (mu, nu): F(rng.randint(1, 9), 9) for mu in range(1, mu_limit + 1)
        for nu in range(1, nu_limit + 1)
    }
    table = RhoTable.from_grid(grid)
    fresh = RhoTable.from_grid(grid)
    for mu in range(0, mu_limit + 2):
        for nu in range(0, nu_limit + 2):
            try:
                expected = loop_rho_value(table, mu, nu, mode)
            except DomainError:
                with pytest.raises(DomainError):
                    table.value(mu, nu, mode)
                continue
            assert scalar_bits(table.value(mu, nu, mode)) == scalar_bits(expected)
    # the lookup map is a cache: equality, hashing and the codec ignore it
    assert table == fresh and hash(table) == hash(fresh)
    assert encode(table) == encode(fresh) and decode(encode(table)) == table


def test_rho_table_rejects_repeated_entries():
    with pytest.raises(InputError):
        RhoTable("table", ((1, 1, F(1, 2)), (1, 1, F(1, 3))), 1, 1)
    data = {
        "kind": "rho",
        "table_kind": "table",
        "values": [[1, 1, {"num": 1, "den": 2}], [1, 1, {"num": 1, "den": 3}]],
        "mu_limit": 1,
        "nu_limit": 1,
    }
    with pytest.raises(InputError):
        decode(data)


# ---------------------------------------------------------------------------
# values against the per-level walk that it replaced


def walked_value(system, k, x):
    """value(k, x) as each level read x before values: the level's groups walked over
    x's entries, a SUM group summed through sum_products, one level per walk."""
    mode = system.mode
    if isinstance(system, VogtSeminorms):
        return recomputing_split(system, x, k, k)
    if isinstance(system, SupPartialSumSeminorms):
        best = zero(mode)
        partial = None
        for op in system.operators:
            partial = op.apply(x) if partial is None else partial + op.apply(x)
            best = max(best, walked_value(system.base, k, partial))
        return best
    best = None
    for combiner, functionals in system.level_groups(k):
        weights, wide = {}, []
        for pairs in functionals:
            if len(pairs) == 1 and pairs[0][0] not in weights:
                weights[pairs[0][0]] = abs(as_scalar(pairs[0][1], mode))
            else:
                wide.append(pairs)
        if combiner == "sum":
            terms = [(weights[i], abs(v)) for i, v in x.entries if i in weights]
            terms += [(1, abs(apply_functional(f, x))) for f in wide]
            found = [sum_products(terms, mode)]
        else:
            found = [abs(apply_functional(f, x)) for f in wide]
            found += [weights[i] * abs(v) for i, v in x.entries if i in weights]
        for v in found:
            if best is None or v > best:
                best = v
    return zero(mode) if best is None else best


def fraction_weight_systems(mode, rng):
    """Koethe with Fraction weights, and a custom system with Fraction coefficients,
    repeated indices and wide functionals, in both combiners."""
    box = SingleBox(rng.randint(1, 6))
    rows, row = [], [0] * box.d
    for _ in range(rng.randint(1, 3)):
        row = [w + rng.choice((0, 1, F(1, 3), F(7, 2), F(5, 6))) for w in row]
        rows.append(tuple(as_scalar(w, mode) for w in row))
    custom = random_custom_system(rng.choice([box, TripleBox(2, 2, 2)]), mode, rng)
    return [KoetheSeminorms(tuple(rows), box, mode), custom]


@dataclass(frozen=True)
class GroupedSeminorms(SeminormSystem):
    """Levels given as their groups, several per level and of both combiners,
    read through the base class's values."""

    groups: tuple  # per level, a tuple of (combiner, functionals)
    box: object
    mode: str

    @property
    def level_count(self) -> int:
        return len(self.groups)

    def level_groups(self, k):
        self.check_level(k)
        return self.groups[k - 1]


def read_plan_systems(mode):
    """Systems whose plans take each path of values: a MAX group whose last weighted
    index comes before the box's last coordinate, on a single and on a triple box; a
    MAX group of several-pair functionals only; levels of MAX and SUM groups mixed, and
    a sup-partial system's groups over such a base, one MAX group after SUM groups."""
    coerce = scalar_coercer(mode)

    def group(combiner, *functionals):
        return combiner, tuple(tuple((i, coerce(c)) for i, c in f) for f in functionals)

    single = SingleBox(5)
    mixed = GroupedSeminorms(
        (
            # MAX, its last weight at 2
            (group("max", [(1, 1)], [(2, F(3, 2))]),),
            # MAX of several-pair functionals only
            (group("max", [(1, 1), (2, -1)], [(3, F(1, 2)), (5, 1)]),),
            # SUM and MAX; the MAX group's last weight at 4
            (
                group("sum", [(1, 2)], [(3, F(1, 3))], [(2, 1), (4, -2)]),
                group("max", [(2, 1)], [(4, 2)], [(1, 1), (5, 1)], [(2, 3)]),
            ),
            # two SUM groups, then MAX with one weight at 1
            (
                group("sum", [(5, F(5, 2))]),
                group("sum", [(1, 1)], [(2, 1)], [(3, 1)]),
                group("max", [(1, F(7, 3))]),
            ),
        ),
        single,
        mode,
    )
    ops = [
        FiniteRankOperator.from_matrix(single, mode, m)
        for m in (
            [[1, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 1]],
            [[0, 0, 0, 0, 0], [1, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 2, 1, 0], [0, 0, 0, 0, 0]],
        )
    ]
    sup = SupPartialSumSeminorms(mixed, ops)
    sup_groups = GroupedSeminorms(
        tuple(sup.level_groups(k) for k in range(1, sup.level_count + 1)), single, mode
    )
    triple = TripleBox(2, 2, 2)
    triple_levels = (
        CustomLevel(((((1, 1, 1), 1),), (((1, 2, 1), F(1, 3)),), (((1, 1, 2), 1),)), "max"),
        CustomLevel(((((1, 1, 2), 2),), (((2, 2, 2), F(1, 2)), ((1, 1, 1), -1))), "sum"),
    )
    return [
        mixed,
        sup_groups,
        CustomSeminorms(triple_levels, triple, mode),
        MaxPrefixSeminorms(single, mode, 3),
    ]


def full_vector(box, mode, rng):
    """A vector with every coordinate of its box nonzero, so that each MAX group whose
    last weight comes before the box's last coordinate stops early."""
    values = [F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)) for _ in box.indices()]
    return vector_from_dense(box, mode, values)


@pytest.mark.parametrize("mode", ["rational", "float"])
@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_values_equal_the_per_level_walk(mode, seed):
    # Koethe, max-prefix, custom, sup-partial and Vogt, and the read plans' paths;
    # floats bit for bit
    rng = random.Random(seed)
    systems = oracle_systems(mode) + sup_partial_systems(mode) + fraction_weight_systems(mode, rng)
    for system in systems + read_plan_systems(mode):
        for x in [random_vector(system.box, mode, rng) for _ in range(3)] + [
            full_vector(system.box, mode, rng)
        ]:
            # any levels, in any order, repeats included, or none
            levels = [rng.randint(1, system.level_count) for _ in range(rng.randint(0, 4))]
            got = system.values(levels, x)
            assert type(got) is tuple and len(got) == len(levels)
            for k, value in zip(levels, got):
                assert scalar_bits(value) == scalar_bits(walked_value(system, k, x))
                assert scalar_bits(system.value(k, x)) == scalar_bits(value)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_a_sum_level_after_max_levels_reads_the_walked_value(mode):
    # the first two levels hold MAX groups only, so the third builds x's magnitudes
    mixed = read_plan_systems(mode)[0]
    x = full_vector(mixed.box, mode, random.Random(1))
    for levels in ([1, 2, 4], [2, 1, 3, 4], [1, 1, 2, 3]):
        got = mixed.values(levels, x)
        assert [scalar_bits(v) for v in got] == [
            scalar_bits(walked_value(mixed, k, x)) for k in levels
        ]
    # an entry past level 1's last weight counts for nothing there, and fully at level 2
    y = vector_from_dense(mixed.box, mode, [0, 0, 0, 0, 1])
    assert mixed.values([1, 2], y) == (zero(mode), as_scalar(1, mode))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_values_check_every_level_and_the_vector(mode):
    box = SingleBox(3)
    for system in oracle_systems(mode) + sup_partial_systems(mode):
        x = random_vector(system.box, mode, random.Random(0))
        with pytest.raises(LevelError):
            system.values([1, system.level_count + 1], x)
        with pytest.raises(LevelError):
            system.values([0], x)
        other = "float" if mode == "rational" else "rational"
        with pytest.raises(ModeError):
            system.values([1], TruncatedVector.create(system.box, other, ()))
        if system.box != box:
            with pytest.raises(DomainError):
                system.values([1], TruncatedVector.create(box, mode, ()))
        assert system.values((), x) == ()
        # no levels asked still checks the vector
        with pytest.raises(ModeError):
            system.values((), TruncatedVector.create(system.box, other, ()))


class Level(int):
    """An int subclass, which check_level accepts as the int it is."""


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_values_refuse_a_level_that_is_no_int_as_check_level_does(mode):
    other = "float" if mode == "rational" else "rational"
    for system in oracle_systems(mode) + sup_partial_systems(mode) + read_plan_systems(mode):
        x = random_vector(system.box, mode, random.Random(2))
        stray = TruncatedVector.create(system.box, other, ())
        count = system.level_count
        for level in (1.0, Fraction(1), None, "1"):
            message = re.escape(f"level {level!r} outside 1..{count}")
            with pytest.raises(LevelError, match=message):
                system.values([1, level], x)
            # the levels are checked before the vector
            with pytest.raises(LevelError, match=message):
                system.values([level], stray)
        assert system.values([True], x) == system.values([1], x)
        assert system.values([Level(count), 1], x) == system.values([count, 1], x)
        with pytest.raises(LevelError, match=re.escape(f"level False outside 1..{count}")):
            system.values([False], x)
        with pytest.raises(ModeError):
            system.values([], stray)
