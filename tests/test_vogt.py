"""The triple-indexed model space: comparisons, nuclearity, the witness."""

import random
from fractions import Fraction

import pytest

from bapkit import (
    BoxTooSmallError,
    InputError,
    InsufficientDataError,
    LevelError,
    RhoTable,
    TripleBox,
    VogtInstance,
    bap_failure_witness,
    comparison_inequality_check,
    norm_positivity_check,
    nuclearity_certificate,
    witness_evidence,
)

F = Fraction


def dyadic_instance(n_max=5, mu_max=3, nu_max=4, level_count=4):
    return VogtInstance(RhoTable.dyadic(), TripleBox(n_max, mu_max, nu_max), "rational", level_count)


def test_instance_helpers():
    inst = dyadic_instance()
    assert inst.system().level_count == 4
    e = inst.unit(1, 2, 2)
    assert inst.system().value(2, e) == 32


def test_comparison_inequalities_hold():
    report = comparison_inequality_check(
        dyadic_instance(), rng=random.Random(0), sample_count=15
    )
    assert report.passed
    assert report.sample_count == 15


def test_comparison_inequalities_hold_in_float_mode():
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(4, 2, 3), "float", 3)
    report = comparison_inequality_check(inst, rng=random.Random(1), sample_count=10)
    assert report.passed


# ---------------------------------------------------------------------------
# nuclearity


def test_nuclearity_closed_form_limits():
    inst = dyadic_instance()
    c1 = nuclearity_certificate(inst, 1)
    c2 = nuclearity_certificate(inst, 2)
    assert c1.passed and c2.passed
    assert c1.ratio == F(1, 2) and c1.limit == 1
    assert c2.ratio == F(2, 3) and c2.limit == 8
    assert c1.term_count == inst.box.dimension


def test_nuclearity_box_sum_sits_between_complete_sum_and_limit():
    cert = nuclearity_certificate(dyadic_instance(), 1)
    assert cert.complete_sum < cert.box_sum < cert.limit
    assert cert.gap == cert.limit - cert.complete_sum
    assert cert.gap > 0


def test_nuclearity_shell_counts():
    cert = nuclearity_certificate(dyadic_instance(), 1)
    assert cert.complete_through == 3 + 2  # min box bound is 3
    by_shell = {s: (in_box, full) for s, in_box, full in cert.shells}
    # the first shell has the single triple (1,1,1)
    assert by_shell[3] == (1, 1)
    assert by_shell[4] == (3, 3)
    assert by_shell[5] == (6, 6)
    # past the completeness horizon the box starts missing triples
    assert by_shell[7][0] < by_shell[7][1]


def test_nuclearity_per_term_cancellation():
    # every coordinate transfers with exactly (p/(p+1))**(n+mu+nu)
    inst = dyadic_instance(3, 3, 3, 3)
    for p in (1, 2):
        cert = nuclearity_certificate(inst, p)
        r = F(p, p + 1)
        expected = sum((r ** (n + mu + nu) for n, mu, nu in inst.box.indices()), F(0))
        assert cert.box_sum == expected


def test_nuclearity_level_bounds():
    inst = dyadic_instance()
    with pytest.raises(LevelError):
        nuclearity_certificate(inst, 4)  # no successor level
    with pytest.raises(LevelError):
        nuclearity_certificate(inst, 0)


# ---------------------------------------------------------------------------
# positivity


def test_every_truncated_level_is_a_norm():
    report = norm_positivity_check(dyadic_instance())
    assert report.passed
    d = dyadic_instance().box.dimension
    assert all(rk == d for _, rk, _ in report.level_ranks)
    assert len(report.level_ranks) == 4


def test_q_certificates_for_the_dyadic_table():
    report = norm_positivity_check(dyadic_instance())
    lookup = {(mu, nu): q for mu, nu, q in report.q_certificates}
    # smallest q with q * 2**-mu > 1 is 2**mu + 1, independent of the column
    for (mu, nu), q in lookup.items():
        assert q == 2**mu + 1
    assert lookup[(3, 1)] == 9


def test_q_certificates_agree_across_modes_for_a_third_power_table():
    # 1 / 3**-5 is 242.99999999999997 in float, so the floor alone gives q = 243
    grid = {(mu, nu): F(1, 3**mu) for mu in range(1, 6) for nu in range(1, 4)}
    reports = {
        mode: norm_positivity_check(
            VogtInstance(RhoTable.from_grid(grid), TripleBox(4, 5, 3), mode, 3)
        )
        for mode in ("rational", "float")
    }
    assert reports["float"].passed and reports["rational"].passed
    assert reports["float"].q_certificates == reports["rational"].q_certificates
    lookup = {(mu, nu): q for mu, nu, q in reports["float"].q_certificates}
    assert all(q == 3**mu + 1 for (mu, _), q in lookup.items())


def test_every_level_of_the_largest_scaled_box_is_a_norm():
    report = norm_positivity_check(dyadic_instance(12, 6, 8, 4))
    assert report.passed
    assert report.level_ranks == tuple((k, 576, 576) for k in range(1, 5))


# ---------------------------------------------------------------------------
# the witness family


def test_witness_frozen_oracles():
    witness = bap_failure_witness(dyadic_instance())
    assert witness.vanishing_level == 1
    assert witness.floor_level == 2
    assert witness.cauchy_level == 3
    assert witness.mu == 2 and witness.nu == 2
    assert witness.member_count == 4
    # the third member: value 1/256 low, 14 at the floor level
    assert witness.decay_trace[2] == F(1, 256)
    assert witness.floor_trace[2] == 14
    assert witness.floor.bound == 8
    assert witness.floor.level == 2


def test_witness_decay_trace_is_exactly_geometric():
    witness = bap_failure_witness(dyadic_instance())
    for m, v in enumerate(witness.decay_trace, start=1):
        assert v == F(1, 4) ** (m + 1)


def test_witness_cauchy_pair_oracle():
    # members 5 and 3 need a taller box
    witness = bap_failure_witness(dyadic_instance(n_max=6), member_count=5)
    system = witness.instance.system()
    diff = witness.vectors[4] - witness.vectors[2]
    assert system.value(3, diff) == F(45927, 1024)
    # covered by the certified tail 81 * (3/4)**(l+1) * 4 at l = 3
    assert F(45927, 1024) <= 81 * F(3, 4) ** 4 * 4
    assert witness.cauchy.modulus_form.value(2) == 81 * F(3, 4) ** 4 * 4


def test_witness_tail_form_dominates_the_modulus():
    witness = bap_failure_witness(dyadic_instance())
    assert witness.cauchy.modulus_decays(witness.instance.system())
    assert witness.cauchy.verify_modulus(witness.instance.system())


def test_witness_box_and_data_guards():
    with pytest.raises(BoxTooSmallError):
        bap_failure_witness(dyadic_instance(nu_max=1))
    with pytest.raises(BoxTooSmallError):
        bap_failure_witness(dyadic_instance(mu_max=1))  # decay row 2 missing
    with pytest.raises(BoxTooSmallError):
        bap_failure_witness(dyadic_instance(), member_count=5)  # needs n_max 6
    with pytest.raises(InsufficientDataError):
        bap_failure_witness(dyadic_instance(), member_count=2)
    with pytest.raises(LevelError):
        bap_failure_witness(dyadic_instance(), cauchy_level=5)
    with pytest.raises(InputError):
        bap_failure_witness(dyadic_instance(), cauchy_level=1)
    with pytest.raises(InputError):
        bap_failure_witness(dyadic_instance(), vanishing_level=0)


def test_witness_with_a_higher_cauchy_level_keeps_the_floor():
    # q = 4 pushes the decay row to mu = 3; the floor bound is still 8
    witness = bap_failure_witness(dyadic_instance(), cauchy_level=4)
    assert witness.mu == 3
    assert witness.floor.bound == 8


def test_witness_evidence_packaging():
    witness = bap_failure_witness(dyadic_instance())
    ev = witness_evidence(witness)
    assert ev.family is witness.cauchy
    assert ev.decay_form is witness.decay_form
    assert ev.floor is witness.floor


def test_witness_in_float_mode():
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), "float", 4)
    witness = bap_failure_witness(inst)
    assert witness.floor.bound == 8.0
    assert abs(witness.decay_trace[2] - 1 / 256) < 1e-12
