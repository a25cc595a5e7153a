"""Acceptance checks, one test per criterion.

`pytest -v tests/test_acceptance.py` prints one pass/fail line per
criterion.  All frozen values are exact rationals; the two timed
criteria use wall-clock budgets.
"""

import argparse
import itertools
import json
import random
import time
from fractions import Fraction

from bapkit import (
    FiniteRankOperator,
    KoetheSeminorms,
    MaxPrefixSeminorms,
    RhoTable,
    SingleBox,
    TripleBox,
    VogtInstance,
    bap_failure_witness,
    build_schedule,
    certify_equicontinuity,
    dv_condition_check,
    e0_value,
    element_from_components,
    embed,
    nuclearity_certificate,
    project,
    unit_vector,
    vector_from_dense,
    witness_evidence,
    zero_vector,
)
from bapkit import cli
from bapkit.linalg import invert, mat_mul, rank
from bapkit.normability import CauchyFamily, GeometricForm, VanishingEvidence
from bapkit.operators import telescope
from bapkit.seminorms import level_matrix, seminorm_kernel_basis

F = Fraction


def direct_box_sum(instance, k, x):
    """Sweep every index of the box, summing both term kinds directly."""
    rho = instance.rho
    box = instance.box
    powers = {}
    total = F(0)
    for n, mu, nu in box.indices():
        s = n + mu + nu
        if s not in powers:
            powers[s] = F(k) ** s
        if nu <= k:
            term = abs(x.get((n, mu, nu))) * powers[s]
        else:
            succ = x.get((n + 1, mu, nu)) if n + 1 <= box.n_max else F(0)
            lead = rho.value(mu, nu, "rational") * x.get((n, mu, nu))
            term = abs(lead - succ) * powers[s]
        total += term
    return total


def test_criterion_1_witness_exact_values():
    start = time.perf_counter()
    instance = VogtInstance(RhoTable.dyadic(), TripleBox(20, 6, 6), "rational", 4)
    witness = bap_failure_witness(instance)
    system = instance.system()
    assert witness.mu == 2 and witness.nu == 2
    assert witness.decay_trace[2] == F(1, 256)
    assert witness.floor_trace[2] == 14
    assert witness.floor.bound == 8
    pair = witness.vectors[4] - witness.vectors[2]
    assert system.value(3, pair) == F(45927, 1024)
    # closed-form evaluation must agree with a direct sweep of all 720 terms
    for k in (1, 2, 3, 4):
        for x in (witness.vectors[2], witness.vectors[-1], pair):
            assert direct_box_sum(instance, k, x) == system.value(k, x)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_long_run_traces_within_bounds():
    instance = VogtInstance(RhoTable.dyadic(), TripleBox(51, 6, 6), "rational", 4)
    witness = bap_failure_witness(instance)
    assert len(witness.vectors) == 50
    assert witness.cauchy.level == 3
    violations = 0
    for m in range(49):
        if witness.decay_trace[m + 1] != witness.decay_trace[m] * F(1, 4):
            violations += 1
    for m in range(50):
        if not witness.floor_trace[m] >= 8:
            violations += 1
    for li, bound in witness.cauchy.modulus:
        if not bound <= F(81) * F(3, 4) ** (li + 2) * 4:
            violations += 1
    assert violations == 0


def test_criterion_3_transfer_sums_monotone_and_capped():
    limits = {1: F(1), 2: F(8)}
    for p in (1, 2):
        prev = None
        for side in range(2, 6):
            instance = VogtInstance(
                RhoTable.dyadic(), TripleBox(side, side, side), "rational", 4
            )
            cert = nuclearity_certificate(instance, p)
            assert cert.passed
            assert cert.limit == limits[p]
            assert cert.complete_sum <= cert.box_sum < cert.limit
            if prev is not None:
                assert cert.box_sum > prev
            prev = cert.box_sum
    # per-term transfer ratios on the 27-point box; the decay factor drops out
    instance = VogtInstance(RhoTable.dyadic(), TripleBox(3, 3, 3), "rational", 4)
    for p in (1, 2):
        r = F(p, p + 1)
        total = F(0)
        for n, mu, nu in instance.box.indices():
            s = n + mu + nu
            if nu <= p + 1:
                num, den = F(p) ** s, F(p + 1) ** s
            else:
                rho = instance.rho.value(mu, nu, "rational")
                num, den = rho * F(p) ** s, rho * F(p + 1) ** s
                assert num / den == F(p) ** s / F(p + 1) ** s
            assert num / den == r**s
            total += num / den
        assert total == nuclearity_certificate(instance, p).box_sum


def test_criterion_4_truncated_levels_are_norms():
    instance = VogtInstance(RhoTable.dyadic(), TripleBox(3, 3, 3), "rational", 4)
    system = instance.system()
    basis = [unit_vector(instance.box, "rational", idx) for idx in instance.box.indices()]
    for k in (1, 2, 3, 4):
        assert not seminorm_kernel_basis(system, k, basis)
        assert rank(level_matrix(system, k, basis)) == 27


def three_scheduled_instances():
    """The three schedule inputs: trivial, telescoped, and randomized."""
    box_a = SingleBox(1)
    system_a = KoetheSeminorms(((1,),), box_a, "rational")
    family_a = [FiniteRankOperator.identity(box_a, "rational")]

    box_b = SingleBox(3)
    system_b = MaxPrefixSeminorms(box_b, "rational", 3)
    prefixes = [
        FiniteRankOperator.from_matrix(
            box_b,
            "rational",
            [[1 if i == j and i < cut else 0 for j in range(3)] for i in range(3)],
            label=f"P{cut}",
        )
        for cut in (1, 2, 3)
    ]
    family_b = telescope(prefixes)

    rng = random.Random(2026)
    d, members = 10, 5
    V = [[F(1) if i == j else F(0) for j in range(d)] for i in range(d)]
    for _ in range(6):
        i, j = rng.randrange(d), rng.randrange(d)
        if i != j:
            V[i][j] += F(rng.choice([-1, 1]), 8)
    Vinv = invert(V, "rational")
    box_c = SingleBox(d)
    weights = tuple(
        tuple(F((1 + (j % 3)) * k) for j in range(d)) for k in range(1, members + 1)
    )
    system_c = KoetheSeminorms(weights, box_c, "rational")
    family_c = []
    for p in range(1, members + 1):
        E = [
            [F(1) if (i == j and i in (2 * p - 2, 2 * p - 1)) else F(0) for j in range(d)]
            for i in range(d)
        ]
        family_c.append(
            FiniteRankOperator.from_matrix(
                box_c, "rational", mat_mul(mat_mul(V, E), Vinv), label=f"blk{p}"
            )
        )
    return [
        ("identity", system_a, family_a),
        ("prefix", system_b, family_b),
        ("random-rank-two", system_c, family_c),
    ]


def assert_operator_sum_is_identity(schedule):
    d = schedule.box.dimension
    total = [[F(0)] * d for _ in range(d)]
    for op in schedule.operators:
        for i, row in enumerate(op.matrix):
            for j, val in enumerate(row):
                total[i][j] += val
    assert total == [[F(1) if i == j else F(0) for j in range(d)] for i in range(d)]


def assert_prefix_bounds(schedule, system, rng, sample_count):
    """Partial sums of each damped block stay within twice the input value."""
    blocks = list(zip(schedule.splits, schedule.replication_counts))
    for i in range(sample_count):
        split, (_, n_rep) = blocks[i % len(blocks)]
        adapted = split.decomposition.adapted_basis
        coeffs = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in split.pieces]
        e = zero_vector(schedule.box, "rational")
        for c, v in zip(coeffs, adapted):
            e = e + v.scale(c)
        scaled = [piece.scale(F(1, n_rep)) for piece in split.pieces]
        prefixes = []
        acc = zero_vector(schedule.box, "rational")
        for _ in range(n_rep):
            for piece in scaled:
                acc = acc + piece.apply(e)
                prefixes.append(acc)
        for level in split.norm_grading:
            bound = 2 * system.value(level, e)
            for vec in prefixes:
                assert system.value(level, vec) <= bound


def test_criterion_5_schedules_embed_and_certify():
    start = time.perf_counter()
    for name, system, family in three_scheduled_instances():
        schedule = build_schedule(family, system, rng=random.Random(7), prefix_samples=20)
        assert_operator_sum_is_identity(schedule)
        for op in schedule.operators:
            assert rank(op.matrix) == 1
        assert_prefix_bounds(schedule, system, random.Random(11), 500)
        rng = random.Random(13)
        for _ in range(200):
            dense = [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(schedule.box.dimension)]
            x = vector_from_dense(schedule.box, "rational", dense)
            y = embed(schedule, x)
            assert y.total() == x
            assert project(y).coefficients == y.coefficients
            z = element_from_components(
                schedule,
                [F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(len(schedule))],
            )
            lz = project(z)
            assert project(lz).coefficients == lz.coefficients
        cert = certify_equicontinuity(
            system, schedule, rng=random.Random(17), sample_count=500
        )
        assert cert.sample_count == 500
        for position, base, comparison, _ in cert.entries:
            assert comparison == base, (name, position)
    assert time.perf_counter() - start < 30.0


def test_criterion_6_prefix_values_grow_monotonically():
    for name, system, family in three_scheduled_instances():
        schedule = build_schedule(family, system, rng=random.Random(7), prefix_samples=20)
        rng = random.Random(29)
        for i in range(200):
            coeffs = [
                F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(len(schedule))
            ]
            y = element_from_components(schedule, coeffs)
            partials = list(y.partial_totals())
            for pos in range(1, schedule.grading_depth + 1):
                level = schedule.original_level(pos)
                vals = [system.value(level, part) for part in partials]
                running = list(itertools.accumulate(vals, max))
                assert all(a <= b for a, b in zip(running, running[1:])), name
                assert e0_value(system, y, pos) == running[-1]
                if i < 5:
                    assert e0_value(system, y.prefix(0), pos) == 0
                    for t in (1, len(running) // 2, len(running)):
                        if t >= 1:
                            assert e0_value(system, y.prefix(t), pos) == running[t - 1]


def test_criterion_7_dominated_vanishing_diagnostics():
    instance = VogtInstance(RhoTable.dyadic(), TripleBox(5, 3, 4), "rational", 4)
    system = instance.system()
    for q, expected_mu in ((3, 2), (4, 3)):
        witness = bap_failure_witness(instance, cauchy_level=q)
        assert witness.mu == expected_mu
        assert witness.floor.bound == 8
        verdict = dv_condition_check(system, {2: q}, 1, [witness_evidence(witness)])
        assert verdict.violated
        assert ("floor_bound", F(8)) in verdict.details
        assert ("tested_level", 2) in verdict.details
        assert ("comparison_level", q) in verdict.details
    # same diagnostic on a plain system with decaying floorless families
    box = SingleBox(4)
    prefix = MaxPrefixSeminorms(box, "rational", 4)
    rng = random.Random(31)
    evidence = []
    for _ in range(100):
        base_vec = [F(rng.randint(-5, 5)) for _ in range(4)]
        ratio = F(1, rng.randint(2, 4))
        level = rng.randint(2, 4)
        vectors = [
            vector_from_dense(box, "rational", [c * ratio**i for c in base_vec])
            for i in range(1, 6)
        ]
        family = CauchyFamily.from_vectors(prefix, level, vectors)
        scale = max([abs(c) for c in base_vec] + [F(1)])
        evidence.append(
            VanishingEvidence(
                family=family,
                decay_form=GeometricForm(scale=scale, ratio=ratio, shift=0),
                floor=None,
            )
        )
    verdict = dv_condition_check(prefix, {1: 2, 2: 3, 3: 4}, 1, evidence)
    assert not verdict.violated
    assert "100 families" in verdict.reason


def test_criterion_8_reports_are_reproducible():
    args = argparse.Namespace(suite=None, mode=None, seed=None, config=None)
    cfg = cli.load_config(None, args)
    doc1 = cli.build_document(cfg)
    doc2 = cli.build_document(cfg)
    doc1.pop("generated_at")
    doc2.pop("generated_at")
    assert doc1["passed"] is True
    assert json.dumps(doc1, sort_keys=True) == json.dumps(doc2, sort_keys=True)
