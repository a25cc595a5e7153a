"""Embedding a graded space into the span of a rank-one schedule.

Elements of the target space assign one coefficient to each schedule slot;
the graded values there take the max over partial sums of the coefficient
components.  An element builds its components and their partial sums once,
on first use, in slot order; its total and its graded value at every
position read them.  The embedding I sends x to the coefficients
(functional_t . x)_t along the generator lines, the projection L resums and
re-embeds.  The certificate couples the two
gradings: value(k, x) <= |||I(x)|||_k <= EQUICONTINUITY_FACTOR * M_k *
value(l(k), x) with M_k an exact graded operator norm over the family's
partial sums.
"""

from __future__ import annotations

import itertools
import operator
import random
from fractions import Fraction
from functools import cached_property, reduce

from ._record import record
from .errors import CertificateFailureError, InputError
from .operators import FiniteRankOperator, ScheduledFamily, accumulate
from .polyhedral import comparison_level
from .scalars import (
    RATIONAL,
    is_zero,
    random_scalar,
    raw_leq,
    raw_max,
    raw_times,
    scalar_coercer,
    scalars_of,
    zero,
)
from .seminorms import SeminormSystem
from .spaces import TruncatedVector, check_part, vector_from_dense, zero_vector

# the embedded value at a position stays within this multiple of M_k * value(l(k), x)
EQUICONTINUITY_FACTOR = 5


@record
class BasisSpaceElement:
    """Coefficient sequence along the schedule's generator lines, one per slot.

    Every coefficient is a scalar of the schedule's mode.  One of another type
    is coerced as as_scalar does (an int, or a Fraction in float mode), and
    one that as_scalar refuses raises ModeError, as a float in rational mode
    does.
    """

    schedule: ScheduledFamily
    coefficients: tuple

    def __post_init__(self) -> None:
        slots = len(self.schedule)
        if len(self.coefficients) != slots:
            raise InputError(f"need {slots} coefficients, got {len(self.coefficients)}")
        mode = self.schedule.mode
        scalar = Fraction if mode == RATIONAL else float
        if any(type(c) is not scalar for c in self.coefficients):
            coerce = scalar_coercer(mode)
            object.__setattr__(self, "coefficients", tuple(map(coerce, self.coefficients)))

    def __len__(self) -> int:
        return len(self.coefficients)

    def component(self, s: int) -> TruncatedVector:
        """Slot s as a vector: coefficient times generator, 0-based s."""
        return self.schedule.generators[s].scale(self.coefficients[s])

    @cached_property
    def components(self) -> tuple:
        """Every slot's component, in slot order, built once."""
        return tuple(map(self.component, range(len(self))))

    @cached_property
    def _partials(self) -> tuple:
        """The zero vector, then the running sum after each slot, built once."""
        zero_total = zero_vector(self.schedule.box, self.schedule.mode)
        return tuple(itertools.accumulate(self.components, operator.add, initial=zero_total))

    def partial_totals(self) -> tuple:
        """The running sums of the components, one per slot."""
        return self._partials[1:]

    def total(self) -> TruncatedVector:
        return self._partials[-1]

    def prefix(self, t: int) -> "BasisSpaceElement":
        """First t slots kept, the rest zeroed."""
        if not 0 <= t <= len(self.coefficients):
            raise InputError(f"prefix length {t} outside 0..{len(self.coefficients)}")
        z = zero(self.schedule.mode)
        return BasisSpaceElement(
            self.schedule,
            self.coefficients[:t] + (z,) * (len(self.coefficients) - t),
        )


def element_from_components(schedule: ScheduledFamily, coefficients) -> BasisSpaceElement:
    return BasisSpaceElement(schedule, tuple(coefficients))


def _e0_raw_values(system: SeminormSystem, element: BasisSpaceElement) -> list:
    """The raw graded value at each working level: the max over partial sums, each read once."""
    levels = element.schedule.working_levels
    reads = [system.raw_values(levels, partial) for partial in element.partial_totals()]
    return [raw_max([read[i] for read in reads], element.schedule.mode) for i in range(len(levels))]


def embed(schedule: ScheduledFamily, x: TruncatedVector) -> BasisSpaceElement:
    """I(x): one coefficient per slot, the slot's functional at x."""
    check_part(schedule.box, schedule.mode, x, "vector")
    return BasisSpaceElement(schedule, tuple(phi.dot(x) for phi in schedule.functionals))


def project(element: BasisSpaceElement) -> BasisSpaceElement:
    """L(y): resum the components and embed again; idempotent."""
    return embed(element.schedule, element.total())


@record
class EquicontinuityCertificate:
    """Per-position comparison levels and exact partial-sum norms.

    entries[i] = (position, base_level, comparison_level, partial_sum_norm);
    the certified upper bound at a position is factor * partial_sum_norm *
    value(comparison_level, x).
    """

    factor: int
    entries: tuple
    sample_count: int


def _random_vector(box, mode, rng: random.Random) -> TruncatedVector:
    return vector_from_dense(box, mode, [random_scalar(rng, mode) for _ in range(box.dimension)])


def certify_equicontinuity(
    system: SeminormSystem,
    schedule: ScheduledFamily,
    rng: random.Random | None = None,
    sample_count: int = 25,
) -> EquicontinuityCertificate:
    """Exact M_k per position, then a sampled check of the two-sided bound.

    The comparison level for a position is the smallest system level at or
    above its working level against which every partial sum of the source
    family has a finite graded norm; M_k is the max of those norms.  The
    sampled check enforces value(k, total x) <= |||I(x)|||_k and
    |||I(x)|||_k <= EQUICONTINUITY_FACTOR * M_k * value(l, x), failing loudly
    otherwise; the certificate records the factor.
    """
    rng = rng or random.Random(0)
    prefix_sums = accumulate(schedule.source_family)
    entries = []
    for position in range(1, schedule.grading_depth + 1):
        base_level = schedule.original_level(position)
        entries.append((position, base_level, *comparison_level(system, base_level, prefix_sums)))
    cert = EquicontinuityCertificate(
        factor=EQUICONTINUITY_FACTOR, entries=tuple(entries), sample_count=sample_count
    )
    total_op = prefix_sums[-1]
    mode = schedule.mode
    comp_levels = [comp_level for _, _, comp_level, _ in entries]
    factors = [EQUICONTINUITY_FACTOR * m_val for _, _, _, m_val in entries]
    for trial in range(sample_count):
        x = _random_vector(schedule.box, mode, rng)
        y = embed(schedule, x)
        total_x = total_op.apply(x)
        bounds = zip(
            entries,
            factors,
            _e0_raw_values(system, y),
            system.raw_values(schedule.working_levels, total_x),
            system.raw_values(comp_levels, x),
        )
        for (position, _, _, m_val), factor, e0, lower, comp_value in bounds:
            if not raw_leq(lower, e0, mode):
                lower, e0 = scalars_of((lower, e0), mode)
                raise CertificateFailureError(
                    f"lower bound failed at position {position}, sample {trial}: "
                    f"{lower} > {e0}"
                )
            if not raw_leq(e0, raw_times(factor, comp_value, mode), mode):
                e0, comp_value = scalars_of((e0, comp_value), mode)
                raise CertificateFailureError(
                    f"upper bound failed at position {position}, sample {trial}: "
                    f"{e0} > {EQUICONTINUITY_FACTOR} * {m_val} * {comp_value}"
                )
    return cert


@record
class ReconstructionReport:
    """Residual traces value(k, x - partial sums) per sample and position."""

    passed: bool
    traces: tuple  # per sample: tuple per position of the residual trace
    final_residuals: tuple


def verify_reconstruction(
    system: SeminormSystem,
    schedule: ScheduledFamily,
    *,
    rng: random.Random | None = None,
    sample_count: int = 10,
) -> ReconstructionReport:
    """Check the schedule resums sampled vectors exactly.

    Requires the source family to sum to the identity; the residual
    value(k, x - sum of the first t slots) must reach 0 at the final slot
    for every working level.
    """
    total = reduce(operator.add, schedule.source_family)
    if not total.approx_equal(FiniteRankOperator.identity(schedule.box, schedule.mode)):
        raise InputError("reconstruction needs a family summing to the identity")
    rng = rng or random.Random(0)
    vectors = [_random_vector(schedule.box, schedule.mode, rng) for _ in range(sample_count)]
    all_traces = []
    finals = []
    passed = True
    for x in vectors:
        partials = embed(schedule, x)._partials  # the zero vector, then each sum of c_t * g_t
        reads = [system.values(schedule.working_levels, x - p) for p in partials]
        per_position = tuple(zip(*reads))
        worst = reduce(max, (trace[-1] for trace in per_position), zero(schedule.mode))
        all_traces.append(per_position)
        finals.append(worst)
        top_value = per_position[-1][0]  # the first residual is x itself
        passed = passed and is_zero(worst / max(1, top_value), schedule.mode)
    return ReconstructionReport(
        passed=passed, traces=tuple(all_traces), final_residuals=tuple(finals)
    )


@record
class BasisCriterionReport:
    """Sampled coefficient bounds of the graded values along the schedule.

    constant is the prefix projections' constant, 1 by construction: the
    graded values are running maxima over partial sums.
    """

    passed: bool
    constant: int
    sample_count: int


def basis_criterion_check(
    system: SeminormSystem,
    schedule: ScheduledFamily,
    rng: random.Random | None = None,
    sample_count: int = 20,
) -> BasisCriterionReport:
    """Every coefficient term stays within twice the graded value.

    Component t is partial_t - partial_{t-1}, so by the triangle inequality
    value(k, component t) <= 2 * |||y|||_k at every position; this samples
    that bound on random coefficient sequences.
    """
    rng = rng or random.Random(0)
    mode = schedule.mode
    for _ in range(sample_count):
        coeffs = [random_scalar(rng, mode) for _ in schedule.functionals]
        y = element_from_components(schedule, coeffs)
        reads = [system.raw_values(schedule.working_levels, c) for c in y.components]
        for i, e0 in enumerate(_e0_raw_values(system, y)):
            bound = raw_times(2, e0, mode)
            if not all(raw_leq(read[i], bound, mode) for read in reads):
                return BasisCriterionReport(False, 1, sample_count)
    return BasisCriterionReport(True, 1, sample_count)
