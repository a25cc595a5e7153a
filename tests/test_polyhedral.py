"""Exact polytope suprema and the graded operator norms built on them."""

from fractions import Fraction

import pytest

from bapkit import (
    ComputationCapError,
    FiniteRankOperator,
    KoetheSeminorms,
    SingleBox,
    Tolerances,
    UnboundedSeminormError,
    graded_operator_norm,
    polyhedral_sup,
    rank_one_family_constant,
    vector_from_dense,
)

F = Fraction


def rows(*rs):
    return [[F(v) for v in r] for r in rs]


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


def test_cap_guards_rational_enumeration():
    g = rows((1, 0), (0, 1), (1, 1), (1, -1), (2, 1))
    with pytest.raises(ComputationCapError):
        polyhedral_sup(2, g, "max", [(rows((1, 1)), "sum")], "rational", cap=3)


def test_float_fallback_under_cap_stays_near_the_exact_value():
    g = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]]
    exact = polyhedral_sup(
        2, g, "max", [([[1.0, 1.0]], "sum")], "float"
    )
    sampled = polyhedral_sup(
        2, g, "max", [([[1.0, 1.0]], "sum")], "float", cap=3, samples=2000
    )
    assert 0 < sampled <= exact * (1 + 1e-5)


def test_float_fallback_inflates_by_the_given_safety_factor():
    g = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0], [2.0, 1.0]]
    objective = [([[1.0, 1.0]], "sum")]
    default = polyhedral_sup(2, g, "max", objective, "float", cap=3, samples=200)
    wide = polyhedral_sup(
        2, g, "max", objective, "float", tol=Tolerances(opnorm_safety=0.5), cap=3, samples=200
    )
    assert wide / default == pytest.approx(1.5 / (1 + 1e-6), rel=1e-12)


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
