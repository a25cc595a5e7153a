"""Norm-versus-seminorm diagnostics and the sup-norm upgrade."""

import random
from fractions import Fraction

import pytest

from bapkit import (
    CauchyFamily,
    CertificateFailureError,
    DiagnosticVerdict,
    DomainError,
    FiniteRankOperator,
    FloorCertificate,
    GeometricForm,
    InputError,
    InsufficientDataError,
    KoetheSeminorms,
    LevelError,
    MaxPrefixSeminorms,
    ModeError,
    SingleBox,
    Tolerances,
    VanishingEvidence,
    bap_failure_witness,
    basis_sup_norms,
    dv_condition_check,
    injective_extension_test,
    measure_trace,
    witness_evidence,
    vector_from_dense,
)
from bapkit import jsonio, normability
from bapkit.scalars import as_scalar
from bapkit.vogt import VogtInstance
from bapkit.seminorms import RhoTable
from bapkit.spaces import TripleBox

F = Fraction


def witness():
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), "rational", 4)
    return bap_failure_witness(inst)


def prefix_system(d=4, mode="rational"):
    return MaxPrefixSeminorms(SingleBox(d), mode, d)


def geometric_family(system, level, ratio=F(1, 3), members=5):
    """Vectors c * ratio**i on the first coordinate; Cauchy and vanishing."""
    box = system.box
    vectors = [
        vector_from_dense(box, system.mode, [ratio**i] + [F(0)] * (box.d - 1))
        for i in range(1, members + 1)
    ]
    return CauchyFamily.from_vectors(system, level, vectors)


def eager_modulus(system, level, vectors):
    """The modulus as from_vectors once measured it, every pair at construction: the oracle."""
    modulus = []
    for li, xl in enumerate(vectors[:-1]):
        worst = F(0) if system.mode == "rational" else 0.0
        for xm in vectors[li + 1 :]:
            v = system.value(level, xm - xl)
            if v > worst:
                worst = v
        modulus.append((li, worst))
    return tuple(modulus)


# ---------------------------------------------------------------------------
# building blocks


def test_measure_trace():
    system = prefix_system()
    fam = geometric_family(system, 2)
    assert measure_trace(system, 1, fam.vectors) == tuple(F(1, 3) ** i for i in range(1, 6))


def test_geometric_form():
    form = GeometricForm(scale=F(2), ratio=F(1, 2), shift=1)
    assert form.value(3) == F(2) * F(1, 16)
    assert form.is_decaying()
    assert not GeometricForm(scale=F(1), ratio=F(3, 2)).is_decaying()
    assert form.dominates_trace([F(1, 8), F(1, 32)], [2, 3], "rational")
    assert not form.dominates_trace([F(1)], [3], "rational")


def test_floor_certificate_verify():
    system = prefix_system()
    fam = geometric_family(system, 2)
    assert FloorCertificate(level=1, bound=F(1, 3) ** 5).verify(system, fam.vectors)
    assert not FloorCertificate(level=1, bound=F(1, 2)).verify(system, fam.vectors)
    assert not FloorCertificate(level=1, bound=F(0)).verify(system, fam.vectors)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_cauchy_family_modulus_measurement(mode):
    def halved(fam):
        return CauchyFamily(fam.level, fam.vectors, tuple((l, b / 2) for l, b in fam.modulus))

    system = prefix_system(mode=mode)
    fam = geometric_family(system, 2, members=4)
    # worst tail from member l is against the last member, on coordinate 1
    bounds = dict(fam.modulus)
    exact = (F(1, 3) - F(1, 81), F(1, 27) - F(1, 81))
    assert (bounds[0], bounds[2]) == (exact if mode == "rational" else pytest.approx(exact))
    assert fam.verify_modulus(system)
    assert not halved(fam).verify_modulus(system)
    # the witness's family, built from its own pair values, is rejected the same way
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), mode, 4)
    w = bap_failure_witness(inst)
    assert w.cauchy.verify_modulus(inst.system())
    assert not halved(w.cauchy).verify_modulus(inst.system())
    with pytest.raises(CertificateFailureError):
        injective_extension_test(inst.system(), halved(w.cauchy), 1, w.decay_form, w.floor)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_lazy_modulus_equals_the_eager_oracle(mode):
    system = prefix_system(d=5, mode=mode)
    families = [
        geometric_family(system, level, ratio=ratio, members=members)
        for level in (1, 3, 5)
        for ratio in (F(1, 2), F(1, 3))
        for members in (1, 2, 5)
    ]
    for fam in families:
        assert fam.modulus == eager_modulus(system, fam.level, fam.vectors)
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), mode, 4)
    w = bap_failure_witness(inst)
    assert len(w.cauchy.modulus) == len(w.vectors) - 1
    assert w.cauchy.modulus == eager_modulus(inst.system(), w.cauchy.level, w.vectors)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_family_round_trips_before_and_after_its_modulus_is_read(mode):
    system = prefix_system(mode=mode)
    unread = geometric_family(system, 2)
    assert jsonio.decode(jsonio.encode(unread)) == unread
    read = geometric_family(system, 2)
    assert read.modulus == eager_modulus(system, 2, read.vectors)
    assert jsonio.decode(jsonio.encode(read)) == read
    # equality sees the modulus: a family claiming other bounds is a different family
    halved = CauchyFamily(read.level, read.vectors, tuple((l, b / 2) for l, b in read.modulus))
    assert halved != read


def test_an_unread_family_measures_no_pair(monkeypatch):
    system = prefix_system()
    value = MaxPrefixSeminorms.value
    calls = []

    def counting(self, k, x):
        calls.append((k, x))
        return value(self, k, x)

    monkeypatch.setattr(MaxPrefixSeminorms, "value", counting)
    fam = geometric_family(system, 2, members=5)
    assert calls == []
    assert len(fam.modulus) == 4
    assert len(calls) == 10  # the pairs l < m of five members, each measured once
    assert fam.modulus == eager_modulus(system, 2, fam.vectors)


def test_from_vectors_validates_at_construction():
    system = prefix_system()
    good = geometric_family(system, 2).vectors
    with pytest.raises(LevelError):
        CauchyFamily.from_vectors(system, 5, good)
    with pytest.raises(LevelError):
        CauchyFamily.from_vectors(system, 0, good)
    foreign_box = [vector_from_dense(SingleBox(3), "rational", [F(1), F(0), F(0)])]
    with pytest.raises(DomainError):
        CauchyFamily.from_vectors(system, 2, good + tuple(foreign_box))
    foreign_mode = [vector_from_dense(system.box, "float", [1.0, 0.0, 0.0, 0.0])]
    with pytest.raises(ModeError):
        CauchyFamily.from_vectors(system, 2, good + tuple(foreign_mode))
    # a lone foreign member, which no pair difference would reach, is refused as well
    with pytest.raises(DomainError):
        CauchyFamily.from_vectors(system, 2, foreign_box)
    with pytest.raises(ModeError):
        CauchyFamily.from_vectors(system, 2, foreign_mode)


def test_modulus_decay_paths():
    system = prefix_system()
    fam = geometric_family(system, 2)
    # no closed form and only five members: the raw threshold is too strict
    assert not fam.modulus_decays(system)
    form = GeometricForm(scale=F(1), ratio=F(1, 3), shift=1)
    with_form = CauchyFamily(fam.level, fam.vectors, fam.modulus, form)
    assert with_form.modulus_decays(system)
    rising = CauchyFamily(fam.level, fam.vectors, fam.modulus, GeometricForm(F(1), F(2)))
    assert not rising.modulus_decays(system)


def test_modulus_decay_without_bounds_or_from_a_zero_first_bound():
    system = prefix_system()
    assert not CauchyFamily(1, (), ()).modulus_decays(system)
    # a first bound of 0 decays only if every later bound is 0 too
    assert CauchyFamily(1, (), ((0, F(0)), (1, F(0)))).modulus_decays(system)
    assert not CauchyFamily(1, (), ((0, F(0)), (1, F(1)))).modulus_decays(system)


def test_modulus_decay_raw_threshold():
    system = prefix_system()
    vectors = [
        vector_from_dense(system.box, "rational", [F(1, 10) ** i, F(0), F(0), F(0)])
        for i in range(1, 10)
    ]
    fam = CauchyFamily.from_vectors(system, 2, vectors)
    # nine members of decimal decay push the tail below the 1e-6 threshold
    assert fam.modulus_decays(system)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_modulus_decay_threshold_follows_tolerances(mode):
    system = MaxPrefixSeminorms(SingleBox(2), mode, 2)
    vectors = [vector_from_dense(system.box, mode, [F(1, 10) ** i, 0]) for i in range(1, 5)]
    fam = CauchyFamily.from_vectors(system, 2, vectors)
    # four members of decimal decay: last/first bound is 9/999, inside 1/100 but not 1e-6
    assert fam.modulus_decays(system, Tolerances(decay=1e-2))
    assert not fam.modulus_decays(system)


def test_verdict_flag():
    assert DiagnosticVerdict("violated", "x").violated
    assert not DiagnosticVerdict("consistent", "x").violated


# ---------------------------------------------------------------------------
# the injective extension test


def test_injective_extension_flags_the_witness():
    w = witness()
    system = w.instance.system()
    verdict = injective_extension_test(
        system, w.cauchy, w.vanishing_level, w.decay_form, w.floor
    )
    assert verdict.violated
    assert ("floor_bound", F(8)) in verdict.details


def test_injective_extension_without_a_floor_is_consistent():
    w = witness()
    system = w.instance.system()
    verdict = injective_extension_test(
        system, w.cauchy, w.vanishing_level, w.decay_form, None
    )
    assert verdict.verdict == "consistent"
    assert "no floor" in verdict.reason


def test_injective_extension_needs_three_members():
    system = prefix_system()
    fam = geometric_family(system, 2, members=2)
    with pytest.raises(InsufficientDataError):
        injective_extension_test(
            system, fam, 1, GeometricForm(F(1), F(1, 3)), FloorCertificate(2, F(1, 100))
        )


def test_injective_extension_level_ordering():
    w = witness()
    system = w.instance.system()
    bad_floor = FloorCertificate(level=1, bound=F(8))  # not strictly above decay
    with pytest.raises(InputError):
        injective_extension_test(system, w.cauchy, 1, w.decay_form, bad_floor)


def test_injective_extension_rejects_a_false_floor():
    w = witness()
    system = w.instance.system()
    inflated = FloorCertificate(level=w.floor_level, bound=F(1000))
    with pytest.raises(CertificateFailureError):
        injective_extension_test(system, w.cauchy, w.vanishing_level, w.decay_form, inflated)


def test_injective_extension_rejects_a_false_decay_form():
    w = witness()
    system = w.instance.system()
    too_small = GeometricForm(scale=F(1, 10**6), ratio=F(1, 4), shift=1)
    with pytest.raises(CertificateFailureError):
        injective_extension_test(system, w.cauchy, w.vanishing_level, too_small, w.floor)


def test_injective_extension_uncertified_modulus_is_consistent():
    system = prefix_system()
    fam = geometric_family(system, 3)  # measured modulus, no closed form
    verdict = injective_extension_test(
        system,
        fam,
        1,
        GeometricForm(F(1), F(1, 3)),
        FloorCertificate(2, F(1, 3) ** 6),
    )
    assert verdict.verdict == "consistent"
    assert "not certified decaying" in verdict.reason


def test_injective_extension_non_decaying_form_is_consistent():
    system = prefix_system()
    fam = geometric_family(system, 3)
    certified = CauchyFamily(
        fam.level, fam.vectors, fam.modulus, GeometricForm(F(1), F(1, 3), 1)
    )
    verdict = injective_extension_test(
        system,
        certified,
        1,
        GeometricForm(F(1), F(2)),  # ratio >= 1 certifies nothing
        FloorCertificate(2, F(1, 3) ** 6),
    )
    assert verdict.verdict == "consistent"
    assert "ratio >= 1" in verdict.reason


# ---------------------------------------------------------------------------
# the comparison-level condition


def test_dv_condition_flags_the_witness():
    w = witness()
    system = w.instance.system()
    verdict = dv_condition_check(
        system,
        {w.floor_level: w.cauchy_level},
        w.vanishing_level,
        [witness_evidence(w)],
    )
    assert verdict.violated
    assert ("tested_level", 2) in verdict.details
    assert ("comparison_level", 3) in verdict.details


def test_dv_condition_consistent_on_floorless_families():
    system = prefix_system()
    evidence = []
    for ratio in (F(1, 2), F(1, 3), F(1, 4)):
        fam = geometric_family(system, 3, ratio=ratio)
        evidence.append(
            VanishingEvidence(
                family=fam, decay_form=GeometricForm(F(1), ratio), floor=None
            )
        )
    verdict = dv_condition_check(system, {k: k + 1 for k in (1, 2, 3)}, 1, evidence)
    assert verdict.verdict == "consistent"
    assert "3 families" in verdict.reason


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_dv_condition_rejects_an_unfloored_family_that_does_not_vanish_as_claimed(mode):
    system = prefix_system(mode=mode)
    fam = geometric_family(system, 3, ratio=F(1, 2))
    honest = VanishingEvidence(fam, GeometricForm(F(1), F(1, 2)), floor=None)
    assert dv_condition_check(system, {1: 2}, 1, [honest]).verdict == "consistent"
    # the trace at level 1 is 2**-m for member m; a form of scale 1/2 sits below it
    too_small = VanishingEvidence(fam, GeometricForm(F(1, 2), F(1, 2)), floor=None)
    with pytest.raises(CertificateFailureError, match="at level 1"):
        dv_condition_check(system, {1: 2}, 1, [honest, too_small])


def test_dv_condition_empty_evidence():
    verdict = dv_condition_check(prefix_system(), {1: 2}, 1, [])
    assert verdict.verdict == "consistent"
    assert verdict.reason == "no evidence"


def test_dv_condition_validates_the_level_map_eagerly():
    with pytest.raises(InputError):
        dv_condition_check(prefix_system(), {2: 2}, 1, [])
    with pytest.raises(InputError):
        dv_condition_check(prefix_system(), {0: 2}, 1, [])


def test_dv_condition_rejects_a_callable_map():
    # the map is a finite table; a callable is refused before any evidence is read
    with pytest.raises(InputError):
        dv_condition_check(prefix_system(), lambda k: k + 1, 1, [])


def test_dv_condition_requires_a_declared_comparison_level():
    w = witness()
    system = w.instance.system()
    with pytest.raises(InputError):
        dv_condition_check(system, {3: 4}, 1, [witness_evidence(w)])  # floor level 2 missing


def test_dv_condition_rejects_mismatched_family_levels():
    w = witness()
    system = w.instance.system()
    with pytest.raises(InputError):
        # the witness family is Cauchy at level 3, not 4
        dv_condition_check(system, {2: 4}, 1, [witness_evidence(w)])


# ---------------------------------------------------------------------------
# sup-norm upgrade


def shear_pair(mode="rational"):
    box = SingleBox(2)
    a1 = FiniteRankOperator.from_matrix(box, mode, [[1, 0], [1, 0]], "a1")
    a2 = FiniteRankOperator.from_matrix(box, mode, [[0, 0], [-1, 1]], "a2")
    return box, a1, a2


def test_basis_sup_norms_strict_gap():
    box, a1, a2 = shear_pair()
    base = KoetheSeminorms(((1, 1),), box, "rational")
    report = basis_sup_norms(base, [a1, a2], rng=random.Random(0), sample_count=15)
    assert report.passed
    assert report.comparisons == ((1, 1, F(2)),)
    y = vector_from_dense(box, "rational", [F(1), F(0)])
    # the intermediate partial sum (1, 1) beats the base value of y
    assert report.system.value(1, y) == 2
    assert base.value(1, y) == 1


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_basis_sup_norms_fails_its_upper_bound_with_a_tenth_of_the_constant(monkeypatch, mode):
    box, a1, a2 = shear_pair(mode)
    base = KoetheSeminorms(((1, 1),), box, mode)
    comparison_level = normability.comparison_level

    def tenth(*args, **kwargs):
        level, constant = comparison_level(*args, **kwargs)
        return level, constant / 10

    monkeypatch.setattr(normability, "comparison_level", tenth)
    report = basis_sup_norms(base, [a1, a2], rng=random.Random(0), sample_count=15)
    assert report.comparisons == ((1, 1, as_scalar(F(1, 5), mode)),)
    assert not report.passed


def test_basis_sup_norms_requires_rank_one():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1),), box, "rational")
    eye = FiniteRankOperator.identity(box, "rational")
    with pytest.raises(InputError):
        basis_sup_norms(base, [eye])
    with pytest.raises(InputError):
        basis_sup_norms(base, [])


def test_basis_sup_norms_requires_biorthogonality():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1),), box, "rational")
    p1 = FiniteRankOperator.from_matrix(box, "rational", [[1, 0], [0, 0]], "p1")
    shift = FiniteRankOperator.from_matrix(box, "rational", [[0, 1], [0, 1]], "s")
    with pytest.raises(InputError):
        basis_sup_norms(base, [p1, shift])


def test_basis_sup_norms_comparisons_use_the_given_tolerances():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1e-10), (1, 1)), box, "float")
    a1 = FiniteRankOperator.from_matrix(box, "float", [[1, 1], [0, 0]], label="a1")
    assert basis_sup_norms(base, [a1]).comparisons[0] == (1, 2, 1.0)
    k, l, c = basis_sup_norms(base, [a1], tol=Tolerances(rank=1e-12)).comparisons[0]
    assert (k, l) == (1, 1)
    assert c == pytest.approx(1e10)
