"""The triple-indexed model space: comparisons, nuclearity, the witness."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bapkit.seminorms
import bapkit.spaces
import bapkit.vogt
from bapkit import (
    BoxTooSmallError,
    CertificateFailureError,
    InputError,
    InsufficientDataError,
    LevelError,
    NuclearityCertificate,
    RhoTable,
    TripleBox,
    VogtInstance,
    VogtSeminorms,
    bap_failure_witness,
    comparison_inequality_check,
    norm_positivity_check,
    nuclearity_certificate,
    unit_vector,
    witness_evidence,
)
from bapkit.jsonio import encode
from bapkit.linalg import sparse_rank
from bapkit.scalars import approx_equal, as_scalar, leq, zero
from bapkit.seminorms import SUM
from bapkit.vogt import _random_sparse

F = Fraction


def dyadic_instance(n_max=5, mu_max=3, nu_max=4, level_count=4):
    return VogtInstance(RhoTable.dyadic(), TripleBox(n_max, mu_max, nu_max), "rational", level_count)


def test_instance_helpers():
    inst = dyadic_instance()
    assert inst.system().level_count == 4
    e = unit_vector(inst.box, inst.mode, (1, 2, 2))
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


def create_random_sparse(instance, rng):
    """_random_sparse as it was: the box's indices listed for every sample, the
    entries drawn site by site and the vector built by create."""
    all_indices = list(instance.box.indices())
    size = rng.randint(1, min(10, len(all_indices)))
    picked = rng.sample(all_indices, size)
    entries = {}
    for idx in picked:
        if instance.mode == "rational":
            entries[idx] = F(rng.randint(-8, 8), rng.randint(1, 5))
        else:
            entries[idx] = rng.gauss(0.0, 1.0)
    return bapkit.spaces.TruncatedVector.create(instance.box, instance.mode, entries)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("box", [(3, 2, 4), (2, 1, 2)], ids=["24-sites", "4-sites"])
def test_random_sparse_draws_as_the_create_loop(mode, box):
    # the same draws, so the same samples and the same generator state after them;
    # zero values, drawn about once in 17 rational entries, are left out
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(*box), mode, 3)
    ours, theirs = random.Random(7), random.Random(7)
    for _ in range(300):
        x, expected = _random_sparse(inst, ours), create_random_sparse(inst, theirs)
        assert x == expected
        assert [type(v) for _, v in x.entries] == [type(v) for _, v in expected.entries]
    assert ours.getstate() == theirs.getstate()


NEAR = F(20, 21)

# Each row bends the (values, primed) read of primed_values, over levels 1..L, so that
# exactly one of the three comparison inequalities fails on every nonzero sample, and by
# less than 10%, given that the true values satisfy all three:
#   value<=primed   primed(p) = (20/21) value(p)
#   primed<=2*next  primed(p) = (21/20) 2 value(p+1) below the top level
#   value<=next     value(1) = primed(1) and value(2) = (20/21) primed(1), so that
#                   primed(1) <= (40/21) primed(1) = 2 value(2)
BROKEN_COMPARISONS = {
    "value<=primed": lambda values, primed: (values, tuple(NEAR * v for v in values)),
    "primed<=2*next": lambda values, primed: (
        values, tuple(2 * v / NEAR for v in values[1:]) + primed[-1:]
    ),
    "value<=next": lambda values, primed: ((primed[0], NEAR * primed[0], *values[2:]), primed),
}


def failing_comparisons(instance, sample_count):
    """Which inequalities fail on the check's samples."""
    system = instance.system()
    rng = random.Random(0)
    levels = range(1, instance.level_count + 1)
    failing = set()
    for _ in range(sample_count):
        values, primed = system.primed_values(levels, _random_sparse(instance, rng))
        for p in levels:
            v, vp = values[p - 1], primed[p - 1]
            if not v <= vp:
                failing.add("value<=primed")
            if p < instance.level_count:
                if not vp <= 2 * values[p]:
                    failing.add("primed<=2*next")
                if not v <= values[p]:
                    failing.add("value<=next")
    return failing


@pytest.mark.parametrize("broken", sorted(BROKEN_COMPARISONS))
def test_each_comparison_inequality_can_fail(monkeypatch, broken):
    inst = dyadic_instance()
    assert failing_comparisons(inst, 40) == set()
    primed_values, bend = VogtSeminorms.primed_values, BROKEN_COMPARISONS[broken]
    monkeypatch.setattr(
        VogtSeminorms,
        "primed_values",
        lambda self, levels, x: bend(*primed_values(self, levels, x)),
    )
    assert failing_comparisons(inst, 40) == {broken}
    report = comparison_inequality_check(inst, rng=random.Random(0), sample_count=40)
    assert not report.passed


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


def loop_nuclearity_certificate(instance, level):
    """nuclearity_certificate as it was before it read the functionals: each term
    recomputed from p, s and the decay table, the shell counts checked against
    binom(s-1, 2)."""
    p = level
    mode = instance.mode
    r = as_scalar(F(p, p + 1), mode)
    passed = True
    box_sum = zero(mode)
    shell_counts = {}
    for n, mu, nu in instance.box.indices():
        s = n + mu + nu
        if nu <= p + 1:
            num = as_scalar(p**s, mode)
            den = as_scalar((p + 1) ** s, mode)
        else:
            rho = instance.rho.value(mu, nu, mode)
            num = rho * as_scalar(p**s, mode)
            den = rho * as_scalar((p + 1) ** s, mode)
        term = num / den
        if not approx_equal(term, r**s, mode):
            passed = False
        box_sum += term
        shell_counts[s] = shell_counts.get(s, 0) + 1
    s_top = instance.box.n_max + instance.box.mu_max + instance.box.nu_max
    complete_through = min(instance.box.n_max, instance.box.mu_max, instance.box.nu_max) + 2
    shells = []
    complete_sum = zero(mode)
    for s in range(3, s_top + 1):
        full = math.comb(s - 1, 2)
        in_box = shell_counts.get(s, 0)
        shells.append((s, in_box, full))
        if s <= complete_through:
            if in_box != full:
                passed = False
            complete_sum += full * r**s
        elif in_box > full:
            passed = False
    limit = (r / (1 - r)) ** 3
    if not (leq(complete_sum, box_sum, mode) and leq(box_sum, limit, mode)):
        passed = False
    return NuclearityCertificate(
        p, r, instance.box.dimension, box_sum, complete_through, complete_sum, limit,
        tuple(shells), passed,
    )


THIRD_POWERS = RhoTable.from_grid(
    {(mu, nu): F(1, 3**mu) for mu in range(1, 5) for nu in range(1, 7)}
)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("rho", [RhoTable.dyadic(), THIRD_POWERS], ids=["dyadic", "third-powers"])
@pytest.mark.parametrize("box", [(5, 3, 4), (3, 4, 6), (8, 4, 6)])
def test_nuclearity_equals_the_recomputing_loop(mode, rho, box):
    inst = VogtInstance(rho, TripleBox(*box), mode, 4)
    for p in (1, 2, 3):
        got = nuclearity_certificate(inst, p)
        assert got.passed
        assert encode(got) == encode(loop_nuclearity_certificate(inst, p))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_a_weight_base_other_than_the_level_fails_nuclearity(monkeypatch, mode):
    # level k weighted by (k + 1)**(n+mu+nu): each term is (p/(p+2))**s, not (p/(p+1))**s
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), mode, 4)
    assert nuclearity_certificate(inst, 1).passed and nuclearity_certificate(inst, 2).passed
    monkeypatch.setattr(
        VogtSeminorms, "level_groups", lambda self, k: ((SUM, self.split_groups(k + 1, k)),)
    )
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), mode, 4)
    assert not nuclearity_certificate(inst, 1).passed
    assert not nuclearity_certificate(inst, 2).passed


def test_an_instance_builds_its_system_once():
    inst = dyadic_instance()
    system = inst.system()
    assert inst.system() is system
    assert system.split_groups(1, 2) is system.split_groups(1, 2)
    assert system.level_groups(3)[0][1] is system.split_groups(3, 3)


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


# float decay entries: any in (2**-60, 1], and each 1/n for n < 2000 with its two neighbours
FLOAT_ENTRIES = st.one_of(
    st.floats(min_value=2.0**-60, max_value=1.0),
    st.integers(1, 1999).flatmap(
        lambda n: st.sampled_from([math.nextafter(1 / n, 0), 1 / n, math.nextafter(1 / n, 2)])
    ).filter(lambda rho: rho <= 1),
)


@settings(max_examples=300, deadline=None)
@given(FLOAT_ENTRIES)
def test_a_float_q_certificate_is_the_smallest_q_with_q_rho_above_one(rho):
    # q starts at floor(1 / rho) + 1 and only steps up, so it is the smallest
    # such q only if floor(1 / rho) * rho never rounds above 1
    inst = VogtInstance(RhoTable.from_grid({(1, 1): F(rho)}), TripleBox(1, 1, 1), "float", 1)
    ((_, _, q),) = norm_positivity_check(inst).q_certificates
    assert (q - 1) * rho <= 1 < q * rho


def test_every_level_of_the_largest_scaled_box_is_a_norm():
    report = norm_positivity_check(dyadic_instance(12, 6, 8, 4))
    assert report.passed
    assert report.level_ranks == tuple((k, 576, 576) for k in range(1, 5))


@pytest.mark.parametrize("mode", ["rational", "float"])
def test_norm_positivity_reads_its_rows_off_the_functionals(monkeypatch, mode):
    # no unit vectors and no products over them: one sparse_rank per level of the rows
    # that level_rows reads straight off the functionals
    def forbidden(*args):
        raise AssertionError("norm_positivity_check built rows over a vector basis")

    for module in (bapkit.spaces, bapkit.seminorms, bapkit.vogt):
        monkeypatch.setattr(module, "unit_vector", forbidden, raising=False)
        monkeypatch.setattr(module, "functional_rows", forbidden, raising=False)
    ranked = []

    def counting(rows, mode):
        ranked.append(rows)
        return sparse_rank(rows, mode)

    monkeypatch.setattr(bapkit.vogt, "sparse_rank", counting)
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), mode, 4)
    report = norm_positivity_check(inst)
    assert report.passed and len(ranked) == inst.level_count
    assert report.level_ranks == tuple((k, 60, 60) for k in range(1, 5))


# ---------------------------------------------------------------------------
# the witness family


def test_witness_frozen_oracles():
    witness = bap_failure_witness(dyadic_instance())
    assert witness.vanishing_level == 1
    assert witness.floor_level == 2
    assert witness.cauchy_level == 3
    assert witness.mu == 2 and witness.nu == 2
    assert len(witness.vectors) == 4
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


# Each row doubles the Vogt values at one of the witness's three levels only, so
# exactly one closed form fails: the default witness has vanishing level 1, floor
# level 2 and Cauchy level 3.
WRONG_WITNESS_LEVELS = {
    "vanishing": (1, "vanishing trace"),
    "floor": (2, "floor trace"),
    "cauchy": (3, "cauchy-level pair"),
}


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("wrong", sorted(WRONG_WITNESS_LEVELS))
def test_a_value_wrong_at_one_witness_level_fails_the_witness(monkeypatch, mode, wrong):
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), mode, 4)
    bap_failure_witness(inst)
    level, message = WRONG_WITNESS_LEVELS[wrong]
    values = VogtSeminorms.values
    monkeypatch.setattr(
        VogtSeminorms,
        "values",
        lambda self, levels, x: tuple(
            2 * v if k == level else v for k, v in zip(levels, values(self, levels, x))
        ),
    )
    with pytest.raises(CertificateFailureError, match=message):
        bap_failure_witness(inst)


@pytest.mark.parametrize("mode", ["rational", "float"])
@pytest.mark.parametrize("box, members", [((5, 3, 4), 4), ((51, 6, 6), 50)])
def test_the_witness_measures_each_cauchy_pair_once(monkeypatch, mode, box, members):
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(*box), mode, 4)
    values = VogtSeminorms.values
    levels = []

    def counting(self, read, x):
        levels.extend(read)
        return values(self, read, x)

    monkeypatch.setattr(VogtSeminorms, "values", counting)
    witness = bap_failure_witness(inst)
    assert len(witness.vectors) == members
    pairs = members * (members - 1) // 2  # 6 at the default box, 1,225 for 50 members
    assert levels.count(witness.cauchy_level) == pairs
    assert levels.count(witness.floor_level) == levels.count(witness.vanishing_level) == members
    # re-verification is one more pass of the same pair loop
    levels.clear()
    assert witness.cauchy.verify_modulus(inst.system())
    assert levels == [witness.cauchy_level] * pairs


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


# rows: two float-mode inputs, each reaching one raise of the witness construction


def test_a_float_cauchy_level_of_two_to_the_54_makes_the_decay_entry_too_large():
    # 1 / (q + 1) rounds up to 2**-54, so the dyadic row 54 passes the decay index and
    # rho * q rounds to 1; exact arithmetic gives rho * q <= q / (q + 1) < 1 for every q
    q = 2**54
    inst = VogtInstance(RhoTable.dyadic(), TripleBox(4, 54, 2), "float", q)
    with pytest.raises(CertificateFailureError, match="decay entry too large"):
        bap_failure_witness(inst, cauchy_level=q)


def test_a_decay_entry_that_rounds_to_zero_in_float_mode_leaves_no_floor():
    # 1/10**400 is positive, but its float is 0.0, so the floor bound 2**5 * rho is 0
    grid = {(mu, nu): F(1, 2) if mu == 1 else F(1, 10**400) for mu in (1, 2) for nu in (1, 2)}
    inst = VogtInstance(RhoTable.from_grid(grid), TripleBox(4, 2, 2), "float", 3)
    with pytest.raises(CertificateFailureError, match="floor trace dips below 0.0"):
        bap_failure_witness(inst)
    exact = bap_failure_witness(VogtInstance(inst.rho, inst.box, "rational", 3))
    assert exact.floor.bound == F(2**5, 10**400)


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
