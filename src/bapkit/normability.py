"""Diagnostics separating graded norms from graded seminorms.

The central failure mode: a sequence that is Cauchy at a high level and
vanishes at a low level, yet stays bounded away from zero at a level in
between.  Finite data cannot prove a limit statement, so every verdict
here leans on closed-form certificates (geometric decay shapes, explicit
floors) that are re-verified against raw measured traces before a
violation is reported.
"""

from __future__ import annotations

import random
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import (
    CertificateFailureError,
    InputError,
    InsufficientDataError,
)
from .operators import accumulate
from .polyhedral import comparison_level
from .scalars import DECAY, as_scalar, leq, random_scalar, zero
from .seminorms import SeminormSystem, SupPartialSumSeminorms
from .spaces import vector_from_dense


def measure_trace(system: SeminormSystem, level: int, vectors) -> tuple:
    """Level values of a vector sequence, in order."""
    return tuple(system.value(level, x) for x in vectors)


@dataclass(frozen=True)
class GeometricForm:
    """Closed-form trace shape: value(m) = scale * ratio**(m + shift)."""

    scale: object
    ratio: object
    shift: int = 0

    def value(self, m: int):
        return self.scale * self.ratio ** (m + self.shift)

    def is_decaying(self) -> bool:
        return 0 <= self.ratio < 1 and self.scale >= 0

    def dominates_trace(self, trace, indices, mode: str) -> bool:
        """Measured values never exceed the form at their indices."""
        return all(leq(t, self.value(m), mode) for m, t in zip(indices, trace))


@dataclass(frozen=True)
class FloorCertificate:
    """Claim: every value of the trace at this level stays >= bound > 0."""

    level: int
    bound: object

    def holds_on(self, trace, mode: str) -> bool:
        """The bound is positive and no value of the trace falls below it."""
        return self.bound > 0 and all(leq(self.bound, v, mode) for v in trace)


def _pair_modulus(system: SeminormSystem, level: int, vectors) -> tuple:
    """(l, max over later members m of value(level, x_m - x_l)) for each member l but the last."""
    modulus = []
    for li, xl in enumerate(vectors[:-1]):
        worst = zero(system.mode)
        for xm in vectors[li + 1 :]:
            v = system.value(level, xm - xl)
            if v > worst:
                worst = v
        modulus.append((li, worst))
    return tuple(modulus)


@dataclass(frozen=True)
class CauchyFamily:
    """Vector sequence with a tail modulus at one level.

    modulus[i] = (l, bound) claims value(level, x_m - x_l) <= bound for
    every later member m; modulus_form, when present, is a decaying closed
    form dominating those bounds.  from_vectors measures the modulus.
    """

    level: int
    vectors: tuple
    modulus: tuple
    modulus_form: GeometricForm | None = None

    @staticmethod
    def from_vectors(
        system: SeminormSystem, level: int, vectors, modulus_form: GeometricForm | None = None
    ) -> "CauchyFamily":
        vectors = tuple(vectors)
        system.check_level(level)
        for x in vectors:
            system.check_vector(x)
        return CauchyFamily(level, vectors, _pair_modulus(system, level, vectors), modulus_form)

    def verify_modulus(self, system: SeminormSystem) -> bool:
        """Re-measure every pair against the stored bounds."""
        bounds = dict(self.modulus)
        return all(
            li in bounds and leq(worst, bounds[li], system.mode)
            for li, worst in _pair_modulus(system, self.level, self.vectors)
        )

    def modulus_decays(self, system: SeminormSystem) -> bool:
        """Closed form wins when present; otherwise a tail threshold."""
        bounds = [b for _, b in self.modulus]
        if not bounds:
            return False
        if self.modulus_form is not None:
            if not self.modulus_form.is_decaying():
                return False
            indices = [li for li, _ in self.modulus]
            return self.modulus_form.dominates_trace(bounds, indices, system.mode)
        first, last = bounds[0], bounds[-1]
        if first == 0:
            return all(b == 0 for b in bounds)
        return last <= first * as_scalar(DECAY, system.mode)


@dataclass(frozen=True)
class DiagnosticVerdict:
    """Outcome of a diagnostic: 'violated' or 'consistent', with a reason."""

    verdict: str
    reason: str
    details: tuple = ()

    @property
    def violated(self) -> bool:
        return self.verdict == "violated"


def _check_decay_form(
    system: SeminormSystem, decay_trace, decay_level: int, decay_form: GeometricForm
) -> None:
    """Raise unless decay_form dominates the raw trace at decay_level, member m at index m."""
    indices = range(1, len(decay_trace) + 1)
    if not decay_form.dominates_trace(decay_trace, indices, system.mode):
        raise CertificateFailureError(
            f"decay form does not dominate the raw trace at level {decay_level}"
        )


def injective_extension_test(
    system: SeminormSystem,
    family: CauchyFamily,
    decay_level: int,
    decay_form: GeometricForm,
    floor: FloorCertificate | None,
) -> DiagnosticVerdict:
    """Detect a Cauchy-and-vanishing sequence pinned above a floor.

    A 'violated' verdict needs all three certified legs, each re-verified
    on raw traces: a decaying Cauchy modulus at the family's level, decay
    at decay_level dominated by a decaying closed form, and a positive
    floor at a level strictly between the two.  Certificates that fail
    re-verification raise instead of silently flipping the verdict.
    """
    if len(family.vectors) < 3:
        raise InsufficientDataError("need at least three family members")
    system.check_level(decay_level)
    system.check_level(family.level)
    if floor is not None:
        system.check_level(floor.level)
        if not decay_level < floor.level <= family.level:
            raise InputError(
                f"levels must satisfy decay {decay_level} < floor {floor.level}"
                f" <= family {family.level}"
            )
    if floor is None:
        return DiagnosticVerdict(
            "consistent", "no floor certificate supplied, no violation demonstrable"
        )
    if not family.verify_modulus(system):
        raise CertificateFailureError("Cauchy modulus does not match the raw pair traces")
    if not family.modulus_decays(system):
        return DiagnosticVerdict(
            "consistent", f"tail modulus at level {family.level} not certified decaying"
        )
    if not decay_form.is_decaying():
        return DiagnosticVerdict(
            "consistent", f"decay form at level {decay_level} has ratio >= 1"
        )
    # each member read once, at the decay and the floor level
    decay_trace, floor_trace = zip(
        *[system.values((decay_level, floor.level), x) for x in family.vectors]
    )
    _check_decay_form(system, decay_trace, decay_level, decay_form)
    if not floor.holds_on(floor_trace, system.mode):
        raise CertificateFailureError(
            f"floor {floor.bound} fails against the raw trace at level {floor.level}"
        )
    return DiagnosticVerdict(
        "violated",
        f"family Cauchy at level {family.level} and vanishing at level {decay_level}"
        f" stays >= {floor.bound} at level {floor.level}",
        details=(
            ("cauchy_level", family.level),
            ("decay_level", decay_level),
            ("floor_level", floor.level),
            ("floor_bound", floor.bound),
        ),
    )


@dataclass(frozen=True)
class VanishingEvidence:
    """One observed family for the dominated-vanishing diagnostic."""

    family: CauchyFamily
    decay_form: GeometricForm
    floor: FloorCertificate | None = None


def dv_condition_check(
    system: SeminormSystem,
    comparison_levels,
    base_level: int,
    evidence,
) -> DiagnosticVerdict:
    """Check the level-comparison condition against observed families.

    comparison_levels is a mapping from each tested level k to its
    j(k) > k >= base level, checked once up front; a family bounded
    (Cauchy) at j(k) and vanishing at the base level must not carry a
    verified floor at k.  A family without a floor must still vanish as
    claimed: its decay form has to dominate its raw trace at the base
    level, or CertificateFailureError is raised, as for a floored family.
    Empty evidence is vacuously consistent and flagged as such.  evidence
    may be any iterable: it is read once, in order, and only the family
    being checked is held, so a generator never has every family alive at
    once.
    """
    system.check_level(base_level)
    if not isinstance(comparison_levels, Mapping):
        kind = type(comparison_levels).__name__
        raise InputError(f"comparison levels must be a mapping, got {kind}")
    for k, j in comparison_levels.items():
        if not (isinstance(k, int) and isinstance(j, int) and j > k >= base_level):
            raise InputError(
                f"comparison levels must satisfy j(k) > k >= {base_level},"
                f" got j({k})={j}"
            )
    count = 0
    for count, item in enumerate(evidence, start=1):
        if item.floor is None:
            decay_trace = measure_trace(system, base_level, item.family.vectors)
            _check_decay_form(system, decay_trace, base_level, item.decay_form)
            continue
        k = item.floor.level
        if k not in comparison_levels:
            raise InputError(f"no comparison level declared for level {k}")
        j = comparison_levels[k]
        if item.family.level != j:
            raise InputError(
                f"evidence family sits at level {item.family.level}, expected j({k})={j}"
            )
        sub = injective_extension_test(system, item.family, base_level, item.decay_form, item.floor)
        if sub.violated:
            return DiagnosticVerdict(
                "violated",
                f"level {k} with comparison level {j}: " + sub.reason,
                details=sub.details + (("tested_level", k), ("comparison_level", j)),
            )
    if not count:
        return DiagnosticVerdict("consistent", "no evidence", details=(("evidence", 0),))
    return DiagnosticVerdict(
        "consistent",
        f"no certified violation among {count} families",
        details=(("evidence", count),),
    )


@dataclass(frozen=True)
class NormedBasisReport:
    """Sup-partial-sum norms built from a biorthogonal rank-one family."""

    system: SupPartialSumSeminorms
    comparisons: tuple  # (level, comparison_level, constant)
    sample_count: int
    passed: bool


def _biorthogonal(operators) -> bool:
    for i, a in enumerate(operators):
        for j, b in enumerate(operators):
            prod = a.compose(b)
            target = a if i == j else a.scale(0)
            if not prod.approx_equal(target):
                return False
    return True


def basis_sup_norms(
    base: SeminormSystem,
    operators,
    rng: random.Random | None = None,
    sample_count: int = 20,
) -> NormedBasisReport:
    """Upgrade a graded system along a basis-like family of projections.

    Requires every operator to have rank one and the family to be exactly
    biorthogonal (A_i A_j = A_i when i = j, zero otherwise).  The returned
    system takes, at each level, the max of the base value over running
    partial sums of the family.  Constants compare it back to the base:
    an exact graded norm of every prefix against the smallest workable
    comparison level, then sampled two-sided checks.
    """
    ops = tuple(operators)
    if not ops:
        raise InputError("need at least one operator")
    for op in ops:
        if op.rank != 1:
            raise InputError(f"operator {op.label or '?'} must have rank one")
    if not _biorthogonal(ops):
        raise InputError("family is not biorthogonal")
    sup_system = SupPartialSumSeminorms(base, ops)
    prefix = accumulate(ops)
    total = prefix[-1]
    comparisons = [(k, *comparison_level(base, k, prefix)) for k in range(1, base.level_count + 1)]
    rng = rng or random.Random(0)
    mode = base.mode
    passed = True
    for _ in range(sample_count):
        dense = [random_scalar(rng, mode) for _ in range(base.box.dimension)]
        y = vector_from_dense(base.box, mode, dense)
        for k, l, c in comparisons:
            sup_val = sup_system.value(k, y)
            base_total = base.value(k, total.apply(y))
            if not leq(base_total, sup_val, mode):
                passed = False
            if not leq(sup_val, c * base.value(l, y), mode):
                passed = False
            for op in ops:
                if not leq(base.value(k, op.apply(y)), 2 * sup_val, mode):
                    passed = False
        if not leq(base.value(1, ops[0].apply(y)), sup_system.value(1, y), mode):
            passed = False
    return NormedBasisReport(
        system=sup_system,
        comparisons=tuple(comparisons),
        sample_count=sample_count,
        passed=passed,
    )
