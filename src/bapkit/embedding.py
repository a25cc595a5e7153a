"""Embedding a graded space into the span of a rank-one schedule.

Elements of the target space assign one coefficient to each schedule slot;
the graded values there take the max over partial sums of the coefficient
components.  An element builds its partial sums once, on first use, in slot
order; its total and its graded value at every position read them.  The
embedding I sends x to (schedule operator applied to x) per slot, the
projection L resums and re-embeds.  The certificate couples the two
gradings: value(k, x) <= |||I(x)|||_k <= EQUICONTINUITY_FACTOR * M_k *
value(l(k), x) with M_k an exact graded operator norm over the family's
partial sums.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce

from .errors import (
    CertificateFailureError,
    ConstructionSoundnessError,
    InputError,
)
from .operators import FiniteRankOperator, ScheduledFamily, accumulate
from .polyhedral import comparison_level
from .scalars import RATIONAL, is_zero, leq, random_scalar, scalar_coercer, zero
from .seminorms import SeminormSystem
from .spaces import TruncatedVector, vector_from_dense, zero_vector

# the embedded value at a position stays within this multiple of M_k * value(l(k), x)
EQUICONTINUITY_FACTOR = 5


@dataclass(frozen=True)
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
    def _partials(self) -> tuple:
        """The zero vector, then the running sum after each slot, built once."""
        components = (self.component(s) for s in range(len(self)))
        zero_total = zero_vector(self.schedule.box, self.schedule.mode)
        return tuple(itertools.accumulate(components, operator.add, initial=zero_total))

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


def e0_values(system: SeminormSystem, element: BasisSpaceElement) -> tuple:
    """Graded value at every working-level position, in position order: per
    level the max over partial sums, each partial sum read once for all levels."""
    levels = element.schedule.working_levels
    reads = [system.values(levels, partial) for partial in element.partial_totals()]
    z = zero(element.schedule.mode)
    return tuple(reduce(max, (read[i] for read in reads), z) for i in range(len(levels)))


def e0_value(system: SeminormSystem, element: BasisSpaceElement, position: int):
    """Graded value at a working-level position: max over partial sums."""
    element.schedule.original_level(position)  # LevelError outside the positions
    return e0_values(system, element)[position - 1]


def embed(schedule: ScheduledFamily, x: TruncatedVector) -> BasisSpaceElement:
    """I(x): one coefficient per slot, read off the generator's lead entry.

    Each slot's image must lie on its generator line.
    """
    if x.box != schedule.box or x.mode != schedule.mode:
        raise InputError("vector does not live on the schedule's box and mode")
    coeffs = []
    for op, gen in zip(schedule.operators, schedule.generators):
        img = op.apply(x)
        lead_index = gen.entries[0][0]
        c = img.get(lead_index)
        coeffs.append(c)
        if not img.approx_equal(gen.scale(c)):
            raise ConstructionSoundnessError(
                f"image of {op.label} left the generator line"
            )
    return BasisSpaceElement(schedule, tuple(coeffs))


def project(element: BasisSpaceElement) -> BasisSpaceElement:
    """L(y): resum the components and embed again; idempotent."""
    return embed(element.schedule, element.total())


@dataclass(frozen=True)
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
    comp_levels = [comp_level for _, _, comp_level, _ in entries]
    for trial in range(sample_count):
        x = _random_vector(schedule.box, schedule.mode, rng)
        y = embed(schedule, x)
        total_x = total_op.apply(x)
        bounds = zip(
            entries,
            e0_values(system, y),
            system.values(schedule.working_levels, total_x),
            system.values(comp_levels, x),
        )
        for (position, _, _, m_val), e0, lower, comp_value in bounds:
            upper = EQUICONTINUITY_FACTOR * m_val * comp_value
            if not leq(lower, e0, schedule.mode):
                raise CertificateFailureError(
                    f"lower bound failed at position {position}, sample {trial}: "
                    f"{lower} > {e0}"
                )
            if not leq(e0, upper, schedule.mode):
                raise CertificateFailureError(
                    f"upper bound failed at position {position}, sample {trial}: "
                    f"{e0} > {EQUICONTINUITY_FACTOR} * {m_val} * {comp_value}"
                )
    return cert


@dataclass(frozen=True)
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
        pieces = (op.apply(x) for op in schedule.operators)
        zero_total = zero_vector(schedule.box, schedule.mode)
        partials = itertools.accumulate(pieces, operator.add, initial=zero_total)
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


@dataclass(frozen=True)
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
    for _ in range(sample_count):
        coeffs = [random_scalar(rng, schedule.mode) for _ in schedule.operators]
        y = element_from_components(schedule, coeffs)
        reads = [system.values(schedule.working_levels, y.component(t)) for t in range(len(y))]
        for i, e0 in enumerate(e0_values(system, y)):
            bound = 2 * e0
            if not all(leq(read[i], bound, schedule.mode) for read in reads):
                return BasisCriterionReport(False, 1, sample_count)
    return BasisCriterionReport(True, 1, sample_count)
