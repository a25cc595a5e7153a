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
    VanishingEvidence,
    VogtSeminorms,
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


# a family's members after a rational first member on SingleBox(3): the box or mode of a
# later member, and the error it raises, box first
MISPLACED_MEMBERS = {
    "another-box": (SingleBox(2), "rational", DomainError),
    "another-mode": (SingleBox(3), "float", ModeError),
    "another-box-and-mode": (SingleBox(2), "float", DomainError),
}


@pytest.mark.parametrize("case", sorted(MISPLACED_MEMBERS))
def test_a_cauchy_family_rejects_a_member_on_another_box_or_mode(case):
    box, mode, error = MISPLACED_MEMBERS[case]
    first = vector_from_dense(SingleBox(3), "rational", [1, 0, 0])
    stray = vector_from_dense(box, mode, [1] + [0] * (box.d - 1))
    good = CauchyFamily(1, (first, first), ())
    assert jsonio.decode(jsonio.encode(good)) == good
    # second and last as well: every member is checked
    for vectors in ((first, stray), (first, first, stray)):
        with pytest.raises(error) as info:
            CauchyFamily(1, vectors, ())
        assert type(info.value) is error
        record = {**jsonio.encode(good), "vectors": list(map(jsonio.encode, vectors))}
        with pytest.raises(error) as info:
            jsonio.decode(record)
        assert type(info.value) is error


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
    """Every pair measured on its own, apart from from_vectors: the oracle."""
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


def test_floor_certificate_holds_on():
    system = prefix_system()
    trace = measure_trace(system, 1, geometric_family(system, 2).vectors)
    assert FloorCertificate(level=1, bound=F(1, 3) ** 5).holds_on(trace, "rational")
    assert not FloorCertificate(level=1, bound=F(1, 2)).holds_on(trace, "rational")
    assert not FloorCertificate(level=1, bound=F(0)).holds_on(trace, "rational")


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
def test_measured_modulus_equals_the_eager_oracle(mode):
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
    # reading a field has no side effect, so the family compares equal either way
    system = prefix_system(mode=mode)
    unread = geometric_family(system, 2)
    assert jsonio.decode(jsonio.encode(unread)) == unread
    read = geometric_family(system, 2)
    assert read.modulus == eager_modulus(system, 2, read.vectors)
    assert jsonio.decode(jsonio.encode(read)) == read
    # equality sees the modulus: a family claiming other bounds is a different family
    halved = CauchyFamily(read.level, read.vectors, tuple((l, b / 2) for l, b in read.modulus))
    assert halved != read


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
def test_modulus_decay_threshold_rejects_a_tail_ratio_of_9_999(mode):
    system = MaxPrefixSeminorms(SingleBox(2), mode, 2)
    vectors = [vector_from_dense(system.box, mode, [F(1, 10) ** i, 0]) for i in range(1, 5)]
    fam = CauchyFamily.from_vectors(system, 2, vectors)
    # four members of decimal decay: last/first bound is 9/999, far above DECAY = 1/10**6
    assert not fam.modulus_decays(system)


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_modulus_decay_threshold_is_exactly_one_millionth(mode):
    system = MaxPrefixSeminorms(SingleBox(2), mode, 2)

    def family(last):
        return CauchyFamily(1, (), ((0, as_scalar(1, mode)), (1, as_scalar(last, mode))))

    assert family(F(1, 10**6)).modulus_decays(system)
    assert not family(F(1, 10**6) + F(1, 10**18)).modulus_decays(system)


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


def test_injective_extension_reads_each_member_once(monkeypatch):
    w = witness()
    system = w.instance.system()
    raw_splits = VogtSeminorms.raw_splits
    reads = []

    def counting(self, x, splits):
        reads.append((x, tuple(splits)))
        return raw_splits(self, x, splits)

    monkeypatch.setattr(VogtSeminorms, "raw_splits", counting)
    verdict = injective_extension_test(system, w.cauchy, w.vanishing_level, w.decay_form, w.floor)
    assert verdict.violated
    members = w.cauchy.vectors
    assert len(members) == 4
    # one read per member at both levels, and the six pairs l < m of the modulus re-check
    both = ((w.vanishing_level, w.vanishing_level), (w.floor_level, w.floor_level))
    assert [(x, s) for x, s in reads if any(x is m for m in members)] == [
        (m, both) for m in members
    ]
    assert len(reads) == 4 + 6


def test_injective_extension_rejects_a_false_floor():
    w = witness()
    system = w.instance.system()
    inflated = FloorCertificate(level=w.floor_level, bound=F(1000))
    with pytest.raises(CertificateFailureError):
        injective_extension_test(system, w.cauchy, w.vanishing_level, w.decay_form, inflated)


def test_injective_extension_rejects_a_false_decay_form():
    # the witness's own form equals its trace, so 20/21 of it falls short by under 10%
    w = witness()
    system = w.instance.system()
    form = w.decay_form
    too_small = GeometricForm(scale=form.scale * F(20, 21), ratio=form.ratio, shift=form.shift)
    with pytest.raises(CertificateFailureError, match="decay form does not dominate"):
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


def stream_cases():
    """name -> (system, comparison levels, base level, evidence list, families read)."""
    system = prefix_system()
    honest = [
        VanishingEvidence(geometric_family(system, 3, ratio=r), GeometricForm(F(1), r), floor=None)
        for r in (F(1, 2), F(1, 3), F(1, 4))
    ]
    # the trace at level 1 is 2**-m for member m; a form of scale 1/2 sits below it
    too_small = VanishingEvidence(honest[0].family, GeometricForm(F(1, 2), F(1, 2)), floor=None)
    w = witness()
    # the witness family without its floor vanishes as claimed and proves nothing
    unfloored = VanishingEvidence(w.cauchy, w.decay_form, floor=None)
    levels = {k: k + 1 for k in (1, 2, 3)}
    witness_args = (w.instance.system(), {w.floor_level: w.cauchy_level}, w.vanishing_level)
    return {
        "consistent": (system, levels, 1, honest, 3),
        "violated": (*witness_args, [unfloored, witness_evidence(w), unfloored], 2),
        "empty": (system, levels, 1, [], 0),
        "error": (system, levels, 1, [honest[0], too_small, honest[1]], 2),
    }


def streamed(items, read):
    """The items as a generator, which appends each to read as it hands it out."""
    for item in items:
        read.append(item)
        yield item


def outcome(check):
    """check's verdict, or the type and message of what it raised."""
    try:
        return check()
    except Exception as exc:  # the list is the oracle for whatever is raised
        return type(exc), str(exc)


@pytest.mark.parametrize("case", ["consistent", "violated", "empty", "error"])
def test_dv_condition_reads_a_generator_as_it_reads_the_equal_list(case):
    system, levels, base, items, read_count = stream_cases()[case]
    read = []
    from_list = outcome(lambda: dv_condition_check(system, levels, base, items))
    from_stream = outcome(lambda: dv_condition_check(system, levels, base, streamed(items, read)))
    assert from_stream == from_list
    # read once, in order, and no further than the family that decides the verdict
    assert read == items[:read_count]
    if case == "error":
        assert from_list[0] is CertificateFailureError
    else:
        assert isinstance(from_list, DiagnosticVerdict)
        assert from_list.violated == (case == "violated")
        if case != "violated":
            assert from_list.details == (("evidence", read_count),)


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


def test_basis_sup_norms_comparisons_prune_a_1e_10_weight():
    box = SingleBox(2)
    base = KoetheSeminorms(((1, 1e-10), (1, 1)), box, "float")
    a1 = FiniteRankOperator.from_matrix(box, "float", [[1, 1], [0, 0]], label="a1")
    assert basis_sup_norms(base, [a1]).comparisons[0] == (1, 2, 1.0)
