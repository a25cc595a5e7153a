"""A triple-indexed graded space built around a decay table.

The grading splits every level into plain terms (low third index) and
damped difference terms along the first index (high third index).  The
module packages the standard exact computations on truncations: the
primed comparison values, a diagonal nuclearity sum read off the system's
functionals and bounded by its closed-form limit, positivity certificates
per column of the decay table, and the vanishing-with-floor witness family
that the diagnostics in `normability` consume.  An instance builds its
system once, so the checks share its cached splits.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import (
    BoxTooSmallError,
    CertificateFailureError,
    InputError,
    InsufficientDataError,
    LevelError,
)
from .linalg import sparse_rank
from .normability import CauchyFamily, FloorCertificate, GeometricForm, VanishingEvidence
from .scalars import (
    RATIONAL,
    approx_equal,
    as_scalar,
    geometric_sum,
    leq,
    sum_products,
    zero,
)
from .seminorms import RhoTable, VogtSeminorms, level_rows
from .spaces import TripleBox, TruncatedVector


@dataclass(frozen=True)
class VogtInstance:
    """One truncated space: decay table, index box, mode, level budget."""

    rho: RhoTable
    box: TripleBox
    mode: str
    level_count: int

    def system(self) -> VogtSeminorms:
        """The instance's one system, so every check shares its cached splits."""
        return self._system

    @cached_property
    def _system(self) -> VogtSeminorms:
        return VogtSeminorms(self.rho, self.box, self.mode, self.level_count)

    @cached_property
    def _indices(self) -> tuple:
        """The box's indices in box order, listed once for the sampled checks."""
        return tuple(self.box.indices())


def _random_sparse(instance: VogtInstance, rng: random.Random) -> TruncatedVector:
    """A random vector on up to ten distinct sites of the box, its entries
    sorted and its zero values left out, the form the constructor checks."""
    indices = instance._indices
    picked = rng.sample(indices, rng.randint(1, min(10, len(indices))))
    if instance.mode == RATIONAL:
        values = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in picked]
    else:
        values = [rng.gauss(0.0, 1.0) for _ in picked]
    entries = sorted((idx, v) for idx, v in zip(picked, values) if v != 0)
    return TruncatedVector(instance.box, instance.mode, tuple(entries))


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
    in rational mode.  Each sample is read once, in one primed_values
    call: value(p+1, x) serves as nxt at p and as v at p+1.
    """
    system = instance.system()
    rng = rng or random.Random(0)
    mode = instance.mode
    levels = range(1, instance.level_count + 1)
    passed = True
    for _ in range(sample_count):
        x = _random_sparse(instance, rng)
        read, primed = system.primed_values(levels, x)
        for p in levels:
            v, vp = read[p - 1], primed[p - 1]
            if not leq(v, vp, mode):
                passed = False
            if p < instance.level_count:
                nxt = read[p]
                if not leq(vp, 2 * nxt, mode):
                    passed = False
                if not leq(v, nxt, mode):
                    passed = False
    return ComparisonReport(passed, sample_count, instance.level_count)


@dataclass(frozen=True)
class NuclearityCertificate:
    """Diagonal transfer sum from level p+1 to the primed level p, read off
    the system's functionals.

    At each site the primed split (p, p+1) and level p+1 name the same
    indices, and the term is the ratio of their first coefficients, which a
    difference site's second coefficients repeat; each term must be
    ratio**(n+mu+nu), ratio = p/(p+1), and the box sum must not pass the
    full grid's sum (ratio / (1 - ratio))**3.  shells lists (s, box_count,
    full_count), full_count = binom(s-1, 2); shells through complete_through
    fit the box, so complete_sum, their full sum, bounds the box sum below.
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


def nuclearity_certificate(instance: VogtInstance, level: int) -> NuclearityCertificate:
    """The transfer terms from a level's successor to the primed level, summed over the box."""
    if not (isinstance(level, int) and 1 <= level < instance.level_count):
        raise LevelError(
            f"need a level with a successor, got {level} of {instance.level_count}"
        )
    p = level
    mode = instance.mode
    system = instance.system()
    ((_, successor),) = system.level_groups(p + 1)
    r = as_scalar(Fraction(p, p + 1), mode)
    s_top = instance.box.n_max + instance.box.mu_max + instance.box.nu_max
    powers = {s: r**s for s in range(3, s_top + 1)}
    passed = True
    terms = []
    shell_counts: dict = {}
    sites = zip(instance.box.indices(), system.split_groups(p, p + 1), successor)
    for (n, mu, nu), primed, upper in sites:
        s = n + mu + nu
        term = primed[0][1] / upper[0][1]
        if (
            [i for i, _ in primed] != [i for i, _ in upper]
            or not approx_equal(term, powers[s], mode)
            or (len(primed) > 1 and not approx_equal(primed[1][1] / upper[1][1], term, mode))
        ):
            passed = False
        terms.append(term)
        shell_counts[s] = shell_counts.get(s, 0) + 1
    box_sum = sum_products(zip(itertools.repeat(1), terms), mode)
    complete_through = min(instance.box.n_max, instance.box.mu_max, instance.box.nu_max) + 2
    shells = []
    complete_sum = zero(mode)
    for s in range(3, s_top + 1):
        full = math.comb(s - 1, 2)
        shells.append((s, shell_counts.get(s, 0), full))
        if s <= complete_through:
            complete_sum += full * powers[s]
    limit = (r / (1 - r)) ** 3
    if not (leq(complete_sum, box_sum, mode) and leq(box_sum, limit, mode)):
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
    the smallest integer level q with q * rho > 1, computed in the mode's
    own arithmetic.
    """

    level_ranks: tuple  # (level, rank, dimension)
    q_certificates: tuple  # (mu, nu, q)
    passed: bool


def norm_positivity_check(instance: VogtInstance) -> NormPositivityReport:
    system = instance.system()
    d = instance.box.dimension
    ranks = []
    passed = True
    for k in range(1, instance.level_count + 1):
        # the rows over the box's unit basis: each functional's own coefficients
        rk = sparse_rank(level_rows(system, k), instance.mode)
        ranks.append((k, rk, d))
        if rk != d:
            passed = False
    certs = []
    for mu in range(1, instance.box.mu_max + 1):
        for nu in range(1, instance.box.nu_max + 1):
            rho = instance.rho.value(mu, nu, instance.mode)
            # floor(1 / rho) * rho <= 1 in both modes, as a float 1 / rho is at most
            # half an ulp high; q * rho can round down to 1 in float mode, so step q
            # up to the smallest integer with q * rho > 1 in the mode's arithmetic
            q = math.floor(1 / rho) + 1
            while q * rho <= 1:
                q += 1
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


def _check_closed_form(what: str, measured, closed_form, mode: str) -> None:
    """Raise unless each measured (key, value) pair has value == closed_form(key)."""
    for key, value in measured:
        expected = closed_form(key)
        if not approx_equal(value, expected, mode):
            raise CertificateFailureError(f"{what} {key}: {value} != {expected}")


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
    eps = as_scalar(Fraction(1, q + 1), mode)
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
    if rho * q >= 1:  # then rho * p < 1 and rho * p0 < 1 too, as p0 < p <= q
        raise CertificateFailureError("decay entry too large for geometric control")
    vectors = []
    for m in range(1, count + 1):
        entries = {(n, mu, nu): rho**n for n in range(1, m + 1)}
        vectors.append(TruncatedVector.create(instance.box, mode, entries))
    vectors = tuple(vectors)
    # each member read at the vanishing and the floor level in one values call,
    # so both reads share its sites
    decay_trace, floor_trace = zip(*[system.values((p0, p), x) for x in vectors])
    # vanishing level: only the last difference site survives
    decay_scale = as_scalar(p0 ** (mu + p - 1), mode)
    decay_form = GeometricForm(scale=decay_scale, ratio=rho * p0, shift=1)
    _check_closed_form(
        "vanishing trace at member", enumerate(decay_trace, start=1), decay_form.value, mode
    )
    # floor level: plain geometric sums, bounded below by the first term
    floor_scale = as_scalar(p ** (mu + p), mode)
    _check_closed_form(
        "floor trace at member",
        enumerate(floor_trace, start=1),
        lambda m: floor_scale * geometric_sum(rho * as_scalar(p, mode), 1, m),
        mode,
    )
    floor = FloorCertificate(level=p, bound=as_scalar(p ** (mu + p + 1), mode) * rho)
    if not floor.holds_on(floor_trace, mode):
        raise CertificateFailureError(f"floor trace dips below {floor.bound}")
    # cauchy level: each pair (l, m), l < m, measured once against its exact segment sum
    q_scale = as_scalar(q ** (mu + p), mode)
    rq = rho * as_scalar(q, mode)
    pairs = {
        (l, m): system.value(q, vectors[m - 1] - vectors[l - 1])
        for l in range(1, count)
        for m in range(l + 1, count + 1)
    }
    _check_closed_form(
        "cauchy-level pair",
        pairs.items(),
        lambda lm: q_scale * geometric_sum(rq, lm[0] + 1, lm[1]),
        mode,
    )
    # member l's bound is the largest of its pair values, keyed from 0 as in CauchyFamily
    modulus = tuple(
        (l - 1, max(pairs[l, m] for m in range(l + 1, count + 1))) for l in range(1, count)
    )
    tail_form = GeometricForm(scale=q_scale / (1 - rq), ratio=rq, shift=2)
    cauchy = CauchyFamily(q, vectors, modulus, tail_form)
    if not cauchy.modulus_decays(system):
        raise CertificateFailureError("cauchy modulus exceeds its geometric tail form")
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
    return VanishingEvidence(
        family=witness.cauchy,
        decay_form=witness.decay_form,
        floor=witness.floor,
    )
