"""Embedding, projection, and the certified two-sided comparison."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bapkit import (
    CertificateFailureError,
    DomainError,
    FiniteRankOperator,
    InputError,
    KoetheSeminorms,
    ModeError,
    SingleBox,
    basis_criterion_check,
    build_schedule,
    certify_equicontinuity,
    element_from_components,
    embed,
    project,
    vector_from_dense,
    verify_reconstruction,
)
from bapkit import embedding, jsonio
from bapkit.scalars import raw_of, scalars_of, zero
from bapkit.seminorms import SupPartialSumSeminorms, apply_functional
from bapkit.spaces import zero_vector
from test_jsonio import replace

F = Fraction
BOX2 = SingleBox(2)


def e0_values(system, element):
    """The graded value at every working-level position, as scalars of the element's mode:
    the raw maxima that the equicontinuity and basis checks compare, turned into scalars."""
    return scalars_of(embedding._e0_raw_values(system, element), element.schedule.mode)


def flat_system():
    return KoetheSeminorms(((1, 1),), BOX2, "rational")


def skewed_schedule():
    a = FiniteRankOperator.from_matrix(BOX2, "rational", [[1, 1], [0, 2]], "a")
    return build_schedule([a], flat_system(), rng=random.Random(0), prefix_samples=10)


def coordinate_family(box, mode="rational"):
    d = box.d
    out = []
    for p in range(d):
        rows = [[1 if (i == j == p) else 0 for j in range(d)] for i in range(d)]
        out.append(FiniteRankOperator.from_matrix(box, mode, rows, f"coord{p + 1}"))
    return out


# ---------------------------------------------------------------------------
# elements


def test_element_length_check():
    schedule = skewed_schedule()
    with pytest.raises(InputError):
        element_from_components(schedule, [1, 2, 3])


@pytest.mark.parametrize("count", [0, 3])
def test_a_basis_element_holds_one_coefficient_per_slot(count):
    a = FiniteRankOperator.from_matrix(BOX2, "rational", [[1, 0], [0, 0]], "a")
    schedule = build_schedule([a], flat_system(), rng=random.Random(0), prefix_samples=3)
    assert len(schedule) == 1
    # of mixed modes, as a decoded record may hold them: the count is checked first
    coefficients = (F(1), 2.5, F(3, 2))[:count]
    with pytest.raises(InputError, match=f"need 1 coefficients, got {count}"):
        embedding.BasisSpaceElement(schedule, coefficients)
    good = embedding.BasisSpaceElement(schedule, (F(1),))
    encoded = [{"num": 1, "den": 1}, 2.5, {"num": 3, "den": 2}][:count]
    record = {**jsonio.encode(good), "coefficients": encoded}
    with pytest.raises(InputError, match=f"need 1 coefficients, got {count}"):
        jsonio.decode(record)


def one_slot_schedule(mode):
    a = FiniteRankOperator.from_matrix(BOX2, mode, [[1, 0], [0, 0]], "a")
    system = KoetheSeminorms(((1, 1),), BOX2, mode)
    schedule = build_schedule([a], system, rng=random.Random(0), prefix_samples=3)
    assert len(schedule) == 1
    return schedule


# per mode, a coefficient that is no scalar of the mode, as built and as encoded, and
# the message that refuses it
FOREIGN_COEFFICIENTS = {
    "rational": (2.5, 2.5, "rational mode needs int or Fraction, got float"),
    "float": (
        F(10**400),
        {"num": 10**400, "den": 1},
        "float mode needs a number within the float range, got a Fraction beyond it",
    ),
}


@pytest.mark.parametrize("mode", sorted(FOREIGN_COEFFICIENTS))
def test_a_basis_element_holds_scalars_of_its_schedules_mode(mode):
    schedule = one_slot_schedule(mode)
    built, encoded, message = FOREIGN_COEFFICIENTS[mode]
    with pytest.raises(ModeError, match=message):
        embedding.BasisSpaceElement(schedule, (built,))
    good = embedding.BasisSpaceElement(schedule, (zero(mode),))
    record = {**jsonio.encode(good), "coefficients": [encoded]}
    with pytest.raises(ModeError, match=message):
        jsonio.decode(record)
    with pytest.raises(ModeError):
        embedding.BasisSpaceElement(schedule, ("1",))
    # an int, and a Fraction in float mode, are coerced as as_scalar coerces them
    coerced = embedding.BasisSpaceElement(schedule, (2,)).coefficients
    assert coerced == (2,) and type(coerced[0]) is type(zero(mode))
    if mode == "float":
        assert embedding.BasisSpaceElement(schedule, (F(1, 2),)).coefficients == (0.5,)
    decoded = jsonio.decode({**record, "coefficients": [2]})
    assert decoded.coefficients == coerced and decoded.total() == decoded.component(0)


def test_components_and_totals():
    schedule = skewed_schedule()
    y = element_from_components(schedule, [1, 1, 1, 1, 1, 1])
    # generators alternate (1,0) and (1,2)
    assert y.component(0).dense() == [F(1), F(0)]
    assert y.component(1).dense() == [F(1), F(2)]
    assert y.total().dense() == [F(6), F(6)]
    partials = [p.dense() for p in y.partial_totals()]
    assert partials[0] == [F(1), F(0)]
    assert partials[-1] == [F(6), F(6)]


def test_prefix_zeroes_the_tail():
    schedule = skewed_schedule()
    y = element_from_components(schedule, [2, 3, 4, 0, 0, 0])
    assert y.prefix(1).coefficients == (F(2), 0, 0, 0, 0, 0)
    assert y.prefix(0).total().is_zero()
    assert y.prefix(6) == y
    with pytest.raises(InputError):
        y.prefix(7)


def test_e0_value_oracle():
    schedule = skewed_schedule()
    system = flat_system()
    y = element_from_components(schedule, [1, 1, 1, 1, 1, 1])
    # running sums (1,0),(2,2),(3,2),(4,4),(5,4),(6,6); largest l1 value 12
    assert e0_values(system, y) == (12,)
    lopsided = element_from_components(schedule, [4, 1, 0, 0, 0, 0])
    # the max is reached at the second partial sum, (5, 2)
    assert e0_values(system, lopsided) == (7,)


# ---------------------------------------------------------------------------
# embed and project


def test_embed_reads_generator_coefficients():
    schedule = skewed_schedule()
    x = vector_from_dense(BOX2, "rational", [F(3), F(6)])
    y = embed(schedule, x)
    # each copy contributes x1/3 along (1,0) and x2/3 along (1,2)
    assert y.coefficients == (F(1), F(2), F(1), F(2), F(1), F(2))
    assert y.total() == vector_from_dense(BOX2, "rational", [F(9), F(12)])


def test_embed_box_check():
    schedule = skewed_schedule()
    with pytest.raises(DomainError):
        embed(schedule, vector_from_dense(SingleBox(3), "rational", [1, 0, 0]))


def test_embed_takes_no_seminorm_system():
    schedule = skewed_schedule()
    x = vector_from_dense(BOX2, "rational", [F(3), F(6)])
    with pytest.raises(TypeError):
        embed(flat_system(), schedule, x)  # a seminorm system cannot bind to schedule


def test_project_is_idempotent_when_the_family_resums_the_identity():
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    schedule = build_schedule(
        coordinate_family(box), system, rng=random.Random(0), prefix_samples=10
    )
    y = element_from_components(schedule, [F(1, 2), -2, 3])
    once = project(y)
    twice = project(once)
    assert once.coefficients == twice.coefficients
    # an embedded vector is already a fixed point
    x = vector_from_dense(box, "rational", [F(2), F(-1), F(4)])
    z = embed(schedule, x)
    assert project(z).coefficients == z.coefficients


# ---------------------------------------------------------------------------
# equicontinuity certificate


def test_certificate_on_the_coordinate_family():
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    schedule = build_schedule(
        coordinate_family(box), system, rng=random.Random(0), prefix_samples=10
    )
    cert = certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=20)
    assert cert.factor == 5
    assert len(cert.entries) == schedule.grading_depth
    for position, base_level, comp_level, m_val in cert.entries:
        assert comp_level == base_level  # constant weights need no level jump
        assert m_val == 1
    assert cert.entries[0][0] == 1
    assert cert.factor * cert.entries[0][3] == 5


def test_certificate_applies_no_operator_twice_to_one_sample(monkeypatch):
    # the total operator's image of a sample serves every position
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    schedule = build_schedule(
        coordinate_family(box), system, rng=random.Random(0), prefix_samples=10
    )
    applied = []
    apply = FiniteRankOperator.apply
    monkeypatch.setattr(
        FiniteRankOperator, "apply", lambda self, x: applied.append((id(self), x)) or apply(self, x)
    )
    certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=20)
    assert schedule.grading_depth > 1 and applied
    assert len(set(applied)) == len(applied)


def test_certificate_searches_past_uncontrolled_levels():
    # level 1 sees only x1 and the family image (x2, x2) is invisible there,
    # so the comparison level is pushed up to 2
    system = KoetheSeminorms(((1, 0), (1, 1)), BOX2, "rational")
    a = FiniteRankOperator.from_matrix(BOX2, "rational", [[0, 1], [0, 1]], "shift")
    schedule = build_schedule([a], system, rng=random.Random(0), prefix_samples=10)
    cert = certify_equicontinuity(system, schedule, rng=random.Random(2), sample_count=10)
    assert cert.entries[0][1] == 1  # base level
    assert cert.entries[0][2] == 2  # comparison level


def test_certificate_failure_on_a_false_factor(monkeypatch):
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    schedule = build_schedule(
        coordinate_family(box), system, rng=random.Random(0), prefix_samples=10
    )
    monkeypatch.setattr(embedding, "EQUICONTINUITY_FACTOR", 0)
    with pytest.raises(CertificateFailureError):
        certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=20)


def test_certificate_failure_prints_the_factor_it_compared(monkeypatch):
    # on the coordinate family |||I(x)|||_k equals M_k * value(l, x) with M_k = 1, so a
    # factor 19/20 fails by under 10%, and the message formats the factor in use
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    schedule = build_schedule(
        coordinate_family(box), system, rng=random.Random(0), prefix_samples=10
    )
    monkeypatch.setattr(embedding, "EQUICONTINUITY_FACTOR", F(19, 20))
    printed = r"upper bound .*: 25/4 > 19/20 \* 1 \* 25/4$"
    with pytest.raises(CertificateFailureError, match=printed):
        certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=20)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_certificate_lower_bound_fails_when_the_graded_value_reads_zero(monkeypatch, mode):
    # the graded value is the largest partial-sum value and the last partial sum is the
    # total, so only a broken graded value, or float rounding past EQ, falls below it
    box = SingleBox(3)
    system = KoetheSeminorms(tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, mode)
    schedule = build_schedule(
        coordinate_family(box, mode), system, rng=random.Random(0), prefix_samples=10
    )
    monkeypatch.setattr(
        embedding,
        "_e0_raw_values",
        lambda system, element: [raw_of(zero(mode), mode)] * element.schedule.grading_depth,
    )
    with pytest.raises(CertificateFailureError, match="lower bound failed at position 1"):
        certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=5)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_certificate_lower_bound_fails_when_the_graded_value_reads_20_21_of_itself(
    monkeypatch, mode
):
    # on the coordinate family the lower bound holds with equality, so a graded value under
    # 10% short of the truth must already fail it: a bound loosened to 9/10 would pass
    box = SingleBox(3)
    system = KoetheSeminorms(tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, mode)
    schedule = build_schedule(
        coordinate_family(box, mode), system, rng=random.Random(0), prefix_samples=10
    )
    true_values = embedding._e0_raw_values
    short = Fraction(20, 21) if mode == "rational" else 20 / 21
    monkeypatch.setattr(
        embedding,
        "_e0_raw_values",
        lambda system, element: [
            raw_of(short * v, mode) for v in scalars_of(true_values(system, element), mode)
        ],
    )
    with pytest.raises(CertificateFailureError, match="lower bound failed"):
        certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=5)


# ---------------------------------------------------------------------------
# reconstruction and the basis criterion


def test_reconstruction_round_trip():
    box = SingleBox(3)
    system = KoetheSeminorms(
        tuple(tuple(k for _ in range(3)) for k in (1, 2, 3)), box, "rational"
    )
    schedule = build_schedule(
        coordinate_family(box), system, rng=random.Random(0), prefix_samples=10
    )
    report = verify_reconstruction(system, schedule, rng=random.Random(4), sample_count=6)
    assert report.passed
    assert len(report.traces) == 6
    assert all(r == 0 for r in report.final_residuals)
    # residual traces end at zero for every position
    for per_position in report.traces:
        for trace in per_position:
            assert trace[-1] == 0


def test_reconstruction_requires_an_identity_family():
    schedule = skewed_schedule()  # sums to a, not to the identity
    with pytest.raises(InputError):
        verify_reconstruction(flat_system(), schedule)


def test_reconstruction_rejects_a_family_off_the_identity_by_1e_9():
    # the family sums to the identity plus 1e-9 in one off-diagonal entry
    system = KoetheSeminorms(((1, 1), (2, 2)), BOX2, "float")
    family = [
        FiniteRankOperator.from_matrix(BOX2, "float", [[1, 1e-9], [0, 0]], "a1"),
        FiniteRankOperator.from_matrix(BOX2, "float", [[0, 0], [0, 1]], "a2"),
    ]
    schedule = build_schedule(family, system, rng=random.Random(0), prefix_samples=10)
    with pytest.raises(InputError):
        verify_reconstruction(system, schedule, sample_count=3)


def test_basis_criterion_constant_one():
    schedule = skewed_schedule()
    report = basis_criterion_check(
        flat_system(), schedule, rng=random.Random(5), sample_count=15
    )
    assert report.passed
    assert report.constant == 1
    assert report.sample_count == 15


@pytest.mark.parametrize("seed", range(5))
def test_basis_criterion_fails_when_the_values_break_the_triangle_inequality(monkeypatch, seed):
    # the coordinate schedule of the Pelczynski suite at d = 4, built honestly;
    # seeded random integers in -9..9 then stand in for every Koethe value, read raw
    box = SingleBox(4)
    system = KoetheSeminorms(tuple((k,) * 4 for k in range(1, 5)), box, "rational")
    schedule = build_schedule(coordinate_family(box), system, rng=random.Random(0), prefix_samples=5)
    values = random.Random(seed)
    monkeypatch.setattr(
        KoetheSeminorms,
        "raw_values",
        lambda self, levels, x: tuple((values.randint(-9, 9), 1) for _ in levels),
    )
    report = basis_criterion_check(system, schedule, rng=random.Random(3), sample_count=10)
    assert not report.passed


def test_embed_accepts_large_float_inputs():
    # float approx_equal is relative to the largest coordinate, so the
    # generator-line check holds at any input scale
    box = SingleBox(3)
    system = KoetheSeminorms(((1, 1, 1), (2, 2, 2), (3, 3, 3)), box, "float")
    outputs = [(1, 0, 0), (1 / 3, 1, 0), (1 / 7, 2 / 3, 1)]
    family = [
        FiniteRankOperator.rank_one(
            vector_from_dense(box, "float", v), [1.0 if j == p else 0.0 for j in range(3)],
            label=f"a{p + 1}",
        )
        for p, v in enumerate(outputs)
    ]
    schedule = build_schedule(family, system, rng=random.Random(0), prefix_samples=10)
    rng = random.Random(1)
    for sigma in (1e6, 1e9):
        for _ in range(50):
            x = vector_from_dense(box, "float", [rng.gauss(0.0, sigma) for _ in range(3)])
            embed(schedule, x)


def test_certificate_prunes_a_1e_10_weight_at_the_rank_threshold():
    # level 1 weighs e2 by 1e-10: at the rank threshold RANK = 1e-9 it
    # sees only x1, where the image (x1 + x2, 0) is uncontrolled
    system = KoetheSeminorms(((1, 1e-10), (1, 1)), BOX2, "float")
    a = FiniteRankOperator.from_matrix(BOX2, "float", [[1, 1], [0, 0]])
    schedule = build_schedule([a], system, rng=random.Random(0), prefix_samples=10)
    cert = certify_equicontinuity(system, schedule, rng=random.Random(1), sample_count=10)
    assert cert.entries[0][2:] == (2, pytest.approx(1.0))


# ---------------------------------------------------------------------------
# running sums against explicit loops


def loop_partial_totals(y):
    acc = zero_vector(y.schedule.box, y.schedule.mode)
    for s in range(len(y.coefficients)):
        c = y.coefficients[s]
        if c != 0:
            acc = acc + y.schedule.generators[s].scale(c)
        yield acc


def loop_total(y):
    acc = zero_vector(y.schedule.box, y.schedule.mode)
    for acc in loop_partial_totals(y):
        pass
    return acc


def loop_e0_value(system, y, position):
    level = y.schedule.original_level(position)
    best = zero(y.schedule.mode)
    for partial in loop_partial_totals(y):
        v = system.value(level, partial)
        if v > best:
            best = v
    return best


def loop_sup_value(sup, k, x):
    running = None
    best = zero(sup.mode)
    for op in sup.operators:
        piece = op.apply(x)
        running = piece if running is None else running + piece
        v = sup.base.value(k, running)
        if v > best:
            best = v
    return best


def loop_sup_level_terms(sup, k):
    order = list(sup.box.indices())
    out = []
    partial = None
    for op in sup.operators:
        partial = op.columns if partial is None else [a + b for a, b in zip(partial, op.columns)]
        for pairs in sup.base.level_terms(k):
            row = [apply_functional(pairs, column) for column in partial]
            sparse = tuple((idx, v) for idx, v in zip(order, row) if v != 0)
            if sparse:
                out.append(sparse)
    return out


def two_block_setup(mode):
    """Seven slots over working levels (2, 3): e2's line first, then a skewed pair."""
    system = KoetheSeminorms(((1, 0), (1, 1), (2, 3)), BOX2, mode)
    family = [
        FiniteRankOperator.from_matrix(BOX2, mode, [[0, 0], [0, 1]], "b"),
        FiniteRankOperator.from_matrix(BOX2, mode, [[1, 1], [0, 2]], "a"),
    ]
    schedule = build_schedule(family, system, rng=random.Random(0), prefix_samples=5)
    return system, schedule


SETUPS = {mode: two_block_setup(mode) for mode in ("rational", "float")}
coefficient = st.one_of(st.just(F(0)), st.fractions(-5, 5, max_denominator=6))


def same(a, b):
    """Equal and of the same type, so a float sum must be bit-equal and a zero typed."""
    return a == b and type(a) is type(b)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(sorted(SETUPS)),
    coeffs=st.lists(coefficient, min_size=7, max_size=7),
    t=st.integers(0, 7),
)
def test_running_sums_match_explicit_loops(mode, coeffs, t):
    system, schedule = SETUPS[mode]
    if mode == "float":
        coeffs = [float(c) for c in coeffs]
    y = element_from_components(schedule, coeffs)
    y.total()  # fill y's partials before deriving new elements from it
    derived = [
        y,
        y.prefix(t),
        replace(y, coefficients=y.coefficients[::-1]),
        replace(y, coefficients=(zero(mode),) * len(y)),
    ]
    for e in derived:
        assert e.partial_totals() == tuple(loop_partial_totals(e))
        assert e.total() == loop_total(e)
        for position in range(1, schedule.grading_depth + 1):
            assert same(e0_values(system, e)[position - 1], loop_e0_value(system, e, position))
    sup = SupPartialSumSeminorms(system, schedule.operators)
    x = y.total()
    for k in range(1, system.level_count + 1):
        assert same(sup.value(k, x), loop_sup_value(sup, k, x))
        assert sup.level_terms(k) == loop_sup_level_terms(sup, k)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_basis_criterion_builds_each_component_once_per_sample(monkeypatch, mode):
    # the check reads each component, and the graded values read the partial sums of the
    # same components: one build per slot and sample, where each was built twice
    system, schedule = SETUPS[mode]
    built = []
    component = embedding.BasisSpaceElement.component
    monkeypatch.setattr(
        embedding.BasisSpaceElement, "component", lambda y, s: built.append(s) or component(y, s)
    )
    assert basis_criterion_check(system, schedule, rng=random.Random(3), sample_count=4).passed
    assert built == list(range(len(schedule))) * 4
