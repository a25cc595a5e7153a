"""Graded systems: decay tables, the four built-in kinds, kernels."""

import random
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
    eval_seminorm,
    eval_sup_seminorm,
    seminorm_kernel_basis,
    unit_vector,
    vector_from_dense,
)
from bapkit.scalars import DEFAULT_TOLERANCES
from bapkit.seminorms import apply_functional, level_matrix, level_rows

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


def test_verify_decay():
    assert RhoTable.dyadic().verify_decay(4, 2, [F(1, 2), F(1, 8)])
    assert not RhoTable.dyadic().verify_decay(2, 1, [F(1, 8)])  # needs mu_max 3


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
    assert system.primed_value(1, e) == 2 * 1**4
    assert system.value(1, e) == F(1, 2)


def test_vogt_needs_triple_box():
    with pytest.raises(InputError):
        VogtSeminorms(RhoTable.dyadic(), SingleBox(3), "rational", 2)


def test_vogt_table_grid_must_cover_the_box():
    table = RhoTable.from_grid({(1, 1): F(1, 2)})
    with pytest.raises(InputError):
        VogtSeminorms(table, TripleBox(2, 2, 2), "rational", 2)


def sparse_vectors(box, max_support=6):
    indices = list(box.indices())
    return st.lists(
        st.tuples(
            st.sampled_from(indices),
            st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6),
        ),
        min_size=1,
        max_size=max_support,
    ).map(lambda pairs: TruncatedVector.create(box, "rational", pairs))


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
    for p in (1, 2):
        assert system.value(p, x) <= system.primed_value(p, x)
        assert system.primed_value(p, x) <= 2 * system.value(p + 1, x)


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
    assert system.combiner(1) == "max"
    assert not system.monotone_guaranteed


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
    assert eval_sup_seminorm(base, 1, ops, x) == 4
    y = vector_from_dense(box, "rational", [F(3), F(-3)])
    # the intermediate prefix (3, 0) loses to the full sum (3, -3)
    assert sup.value(1, y) == 6


def test_sup_partial_needs_operators():
    base = KoetheSeminorms(((1, 1),), SingleBox(2), "rational")
    with pytest.raises(DegenerateInputError):
        SupPartialSumSeminorms(base, [])
    with pytest.raises(DegenerateInputError):
        eval_sup_seminorm(base, 1, [], vector_from_dense(SingleBox(2), "rational", [F(1), F(0)]))


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


def test_eval_seminorm_input_checks():
    system = small_instance()
    x = unit_vector(system.box, "rational", (1, 1, 1))
    with pytest.raises(LevelError):
        eval_seminorm(system, 0, x)
    with pytest.raises(LevelError):
        eval_seminorm(system, 4, x)
    with pytest.raises(DomainError):
        eval_seminorm(system, 1, unit_vector(TripleBox(2, 2, 3), "rational", (1, 1, 1)))
    with pytest.raises(ModeError):
        eval_seminorm(system, 1, unit_vector(system.box, "float", (1, 1, 1)))


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
    ftol = None if system.mode == "rational" else DEFAULT_TOLERANCES.rank
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
