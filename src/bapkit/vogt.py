"""A triple-indexed graded space built around a decay table.

The grading splits every level into plain terms (low third index) and
damped difference terms along the first index (high third index).  The
module packages the standard exact computations on truncations: the
primed comparison values, a diagonal nuclearity sum with closed-form
limit, positivity certificates per column of the decay table, and the
vanishing-with-floor witness family that the diagnostics in
`normability` consume.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    BoxTooSmallError,
    CertificateFailureError,
    InputError,
    InsufficientDataError,
    LevelError,
)
from .linalg import sparse_rank
from .normability import CauchyFamily, FloorCertificate, GeometricForm
from .scalars import (
    DEFAULT_TOLERANCES,
    RATIONAL,
    as_scalar,
    geometric_sum,
    zero,
)
from .seminorms import RhoTable, VogtSeminorms, level_rows
from .spaces import TripleBox, TruncatedVector, unit_vector


@dataclass(frozen=True)
class VogtInstance:
    """One truncated space: decay table, index box, mode, level budget."""

    rho: RhoTable
    box: TripleBox
    mode: str
    level_count: int

    def system(self) -> VogtSeminorms:
        return VogtSeminorms(self.rho, self.box, self.mode, self.level_count)

    def unit(self, n: int, mu: int, nu: int) -> TruncatedVector:
        return unit_vector(self.box, self.mode, (n, mu, nu))


def _random_sparse(instance: VogtInstance, rng: random.Random, max_support: int = 10):
    all_indices = list(instance.box.indices())
    size = rng.randint(1, min(max_support, len(all_indices)))
    picked = rng.sample(all_indices, size)
    entries = {}
    for idx in picked:
        if instance.mode == RATIONAL:
            entries[idx] = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        else:
            entries[idx] = rng.gauss(0.0, 1.0)
    return TruncatedVector.create(instance.box, instance.mode, entries)


@dataclass(frozen=True)
class ComparisonReport:
    """Sampled confirmation of the level and primed-level inequalities."""

    passed: bool
    sample_count: int
    level_count: int


def comparison_inequality_check(
    instance: VogtInstance, rng: random.Random | None = None, sample_count: int = 40
) -> ComparisonReport:
    """Sample three pointwise inequalities across all levels.

    value(p, x) <= primed(p, x), primed(p, x) <= 2 * value(p+1, x), and
    the plain monotonicity value(p, x) <= value(p+1, x); all hold exactly
    in rational mode.
    """
    system = instance.system()
    rng = rng or random.Random(0)
    slack = 1 if instance.mode == RATIONAL else 1 + 1e-9
    passed = True
    for _ in range(sample_count):
        x = _random_sparse(instance, rng)
        for p in range(1, instance.level_count + 1):
            v = system.value(p, x)
            vp = system.primed_value(p, x)
            if not v <= vp * slack:
                passed = False
            if p < instance.level_count:
                nxt = system.value(p + 1, x)
                if not vp <= 2 * nxt * slack:
                    passed = False
                if not v <= nxt * slack:
                    passed = False
    return ComparisonReport(passed, sample_count, instance.level_count)


@dataclass(frozen=True)
class NuclearityCertificate:
    """Diagonal transfer sum between a level and its primed predecessor.

    Every per-coordinate weight ratio collapses to ratio**(n+mu+nu), so
    the sum over the full grid converges to (ratio / (1 - ratio))**3.
    shells lists (s, box_count, full_count); shells complete inside the
    box match the full grid count binom(s-1, 2) exactly, giving the
    explicit gap bound limit - complete_sum.
    """

    level: int
    ratio: object
    term_count: int
    box_sum: object
    complete_through: int
    complete_sum: object
    limit: object
    shells: tuple
    passed: bool

    @property
    def gap(self):
        return self.limit - self.complete_sum


def nuclearity_certificate(instance: VogtInstance, level: int) -> NuclearityCertificate:
    """Exact transfer terms from a level to the next, summed over the box."""
    if not (isinstance(level, int) and 1 <= level < instance.level_count):
        raise LevelError(
            f"need a level with a successor, got {level} of {instance.level_count}"
        )
    p = level
    mode = instance.mode
    r = Fraction(p, p + 1) if mode == RATIONAL else p / (p + 1)
    passed = True
    box_sum = zero(mode)
    shell_counts: dict = {}
    slack = 0 if mode == RATIONAL else 1e-12
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
        expected = r**s
        if mode == RATIONAL:
            ok = term == expected
        else:
            ok = abs(term - expected) <= slack * expected
        if not ok:
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
    if mode == RATIONAL:
        if not complete_sum <= box_sum <= limit:
            passed = False
    else:
        if not complete_sum <= box_sum * (1 + 1e-9) or not box_sum <= limit * (1 + 1e-9):
            passed = False
    return NuclearityCertificate(
        level=p,
        ratio=r,
        term_count=instance.box.dimension,
        box_sum=box_sum,
        complete_through=complete_through,
        complete_sum=complete_sum,
        limit=limit,
        shells=tuple(shells),
        passed=passed,
    )


@dataclass(frozen=True)
class NormPositivityReport:
    """Rank of every level on the truncation plus per-column certificates.

    Truncation makes each level a norm (the difference terms cascade from
    the top index down), which the rank check confirms.  q_certificates
    carry the content that survives the limit: for each decay-table entry
    the smallest integer level q with q * rho > 1, checked exactly.
    """

    level_ranks: tuple  # (level, rank, dimension)
    q_certificates: tuple  # (mu, nu, q)
    passed: bool


def norm_positivity_check(instance: VogtInstance) -> NormPositivityReport:
    system = instance.system()
    basis = [unit_vector(instance.box, instance.mode, idx) for idx in instance.box.indices()]
    d = instance.box.dimension
    ftol = None if instance.mode == RATIONAL else DEFAULT_TOLERANCES.rank
    ranks = []
    passed = True
    for k in range(1, instance.level_count + 1):
        rk = sparse_rank(level_rows(system, k, basis), ftol)
        ranks.append((k, rk, d))
        if rk != d:
            passed = False
    certs = []
    for mu in range(1, instance.box.mu_max + 1):
        for nu in range(1, instance.box.nu_max + 1):
            rho = instance.rho.value(mu, nu, instance.mode)
            # 1 / rho can round below an integer in float mode, so step q to
            # the smallest integer with q * rho > 1 in the mode's own arithmetic
            q = math.floor(1 / rho) + 1
            while q * rho <= 1:
                q += 1
            while (q - 1) * rho > 1:
                q -= 1
            if not (q * rho > 1 >= (q - 1) * rho):
                passed = False
            certs.append((mu, nu, q))
    return NormPositivityReport(tuple(ranks), tuple(certs), passed)


@dataclass(frozen=True)
class BapFailureWitness:
    """Geometric column family: Cauchy high, vanishing low, floored between.

    Member m has entries rho**n at (n, mu, nu) for n = 1..m, with nu one
    above the vanishing level.  Every trace admits an exact closed form,
    all re-verified against raw measurements on construction.
    """

    instance: VogtInstance
    vanishing_level: int
    floor_level: int
    cauchy_level: int
    mu: int
    nu: int
    vectors: tuple
    decay_form: GeometricForm
    decay_trace: tuple
    floor_trace: tuple
    floor: FloorCertificate
    cauchy: CauchyFamily

    @property
    def member_count(self) -> int:
        return len(self.vectors)


def bap_failure_witness(
    instance: VogtInstance,
    vanishing_level: int = 1,
    cauchy_level: int | None = None,
    member_count: int | None = None,
) -> BapFailureWitness:
    """Construct and certify the witness family.

    The floor level is one above the vanishing level; the column index nu
    equals the floor level, so the low level only sees damped differences
    while the floor level sees plain terms.  The row index mu is the
    smallest one pushing the decay entry to at most 1/(cauchy_level + 1),
    which keeps every geometric ratio below one.
    """
    p0 = vanishing_level
    if not (isinstance(p0, int) and p0 >= 1):
        raise InputError(f"vanishing level must be a positive integer, got {p0!r}")
    p = p0 + 1
    q = cauchy_level if cauchy_level is not None else p + 1
    if not (isinstance(q, int) and q >= p):
        raise InputError(f"cauchy level must be an integer >= {p}, got {q!r}")
    if q > instance.level_count:
        raise LevelError(f"cauchy level {q} above level budget {instance.level_count}")
    nu = p
    if nu > instance.box.nu_max:
        raise BoxTooSmallError(f"need nu_max >= {nu}, box has {instance.box.nu_max}")
    mode = instance.mode
    eps = Fraction(1, q + 1) if mode == RATIONAL else 1.0 / (q + 1)
    mu = instance.rho.decay_index(eps, nu, mode)
    if mu > instance.box.mu_max:
        raise BoxTooSmallError(
            f"decay entry reaches {eps} only at row {mu}, box has mu_max"
            f" {instance.box.mu_max}"
        )
    count = member_count if member_count is not None else instance.box.n_max - 1
    if not (isinstance(count, int) and count >= 3):
        raise InsufficientDataError(f"need at least three members, got {count!r}")
    if count + 1 > instance.box.n_max:
        raise BoxTooSmallError(
            f"{count} members need n_max >= {count + 1}, box has {instance.box.n_max}"
        )
    system = instance.system()
    rho = instance.rho.value(mu, nu, mode)
    if not (rho * q < 1 and rho * p < 1 and rho * p0 < 1):
        raise CertificateFailureError("decay entry too large for geometric control")
    vectors = []
    for m in range(1, count + 1):
        entries = {(n, mu, nu): rho**n for n in range(1, m + 1)}
        vectors.append(TruncatedVector.create(instance.box, mode, entries))
    vectors = tuple(vectors)
    slack = 0 if mode == RATIONAL else 1e-9

    def _same(a, b) -> bool:
        if mode == RATIONAL:
            return a == b
        return abs(a - b) <= slack * max(1.0, abs(a), abs(b))

    # vanishing level: only the last difference site survives
    decay_scale = as_scalar(p0 ** (mu + p - 1), mode)
    decay_form = GeometricForm(scale=decay_scale, ratio=rho * p0, shift=1)
    decay_trace = tuple(system.value(p0, x) for x in vectors)
    for m, measured in enumerate(decay_trace, start=1):
        if not _same(measured, decay_form.value(m)):
            raise CertificateFailureError(
                f"vanishing trace at member {m}: {measured} != {decay_form.value(m)}"
            )
    # floor level: plain geometric sums, bounded below by the first term
    floor_scale = as_scalar(p ** (mu + p), mode)
    floor_bound = as_scalar(p ** (mu + p + 1), mode) * rho
    floor_trace = tuple(system.value(p, x) for x in vectors)
    for m, measured in enumerate(floor_trace, start=1):
        expected = floor_scale * geometric_sum(rho * as_scalar(p, mode), 1, m)
        if not _same(measured, expected):
            raise CertificateFailureError(
                f"floor trace at member {m}: {measured} != {expected}"
            )
        if not measured >= floor_bound * (1 - slack):
            raise CertificateFailureError(
                f"floor trace at member {m} dips below {floor_bound}"
            )
    floor = FloorCertificate(level=p, bound=floor_bound)
    # cauchy level: all pairs match the exact geometric segment sums
    q_scale = as_scalar(q ** (mu + p), mode)
    rq = rho * as_scalar(q, mode)
    tail_form = GeometricForm(scale=q_scale / (1 - rq), ratio=rq, shift=2)
    for li in range(count):
        for m in range(li + 2, count + 1):
            measured = system.value(q, vectors[m - 1] - vectors[li])
            expected = q_scale * geometric_sum(rq, li + 2, m)
            if not _same(measured, expected):
                raise CertificateFailureError(
                    f"pair ({li + 1},{m}) at the cauchy level: {measured} != {expected}"
                )
            if not measured <= tail_form.value(li) * (1 + slack):
                raise CertificateFailureError(
                    f"pair ({li + 1},{m}) exceeds the tail bound {tail_form.value(li)}"
                )
    cauchy = CauchyFamily.from_vectors(system, q, vectors, modulus_form=tail_form)
    if not cauchy.verify_modulus(system):
        raise CertificateFailureError("measured cauchy modulus failed re-verification")
    return BapFailureWitness(
        instance=instance,
        vanishing_level=p0,
        floor_level=p,
        cauchy_level=q,
        mu=mu,
        nu=nu,
        vectors=vectors,
        decay_form=decay_form,
        decay_trace=decay_trace,
        floor_trace=floor_trace,
        floor=floor,
        cauchy=cauchy,
    )


def witness_evidence(witness: BapFailureWitness):
    """Repackage a witness for the diagnostics in `normability`."""
    from .normability import VanishingEvidence

    return VanishingEvidence(
        family=witness.cauchy,
        decay_form=witness.decay_form,
        floor=witness.floor,
    )
