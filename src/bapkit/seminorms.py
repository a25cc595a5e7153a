"""Graded seminorm systems on truncation boxes.

Every system is a finite family value(1, .) <= value(2, .) <= ... of
seminorms, each one built from finitely many coordinate functionals combined
either as a weighted absolute sum or as a max.  That shared shape is what
makes kernels computable exactly: value(k, x) = 0 iff every constituent
functional kills x.

Kinds:
  * vogt        triple-indexed; below the level threshold a coordinate enters
                plainly, above it only the damped difference
                rho(mu, nu) * x[n] - x[n+1] enters, with weight k**(n+mu+nu)
                and the convention x[n_max+1] = 0.
  * koethe      singly-indexed weighted absolute sums from a weight matrix
                that is nonnegative and nondecreasing in the level.
  * max-prefix  value(k, x) = max_{j <= k} |x_j|.
  * custom      explicit functional lists per level.
  * sup-partial derived: running-partial-sum sup of a base system along a
                fixed operator family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    DegenerateInputError,
    DomainError,
    InputError,
    LevelError,
    ModeError,
)
from .linalg import independent, nullspace
from .scalars import (
    DEFAULT_TOLERANCES,
    RATIONAL,
    Scalar,
    Tolerances,
    as_scalar,
    check_mode,
    zero,
)
from .spaces import Box, SingleBox, TripleBox, TruncatedVector

SUM = "sum"
MAX = "max"

# A functional is a tuple of (index, coefficient) pairs over a box.
Functional = "tuple[tuple[object, Scalar], ...]"


def apply_functional(pairs, vec: TruncatedVector) -> Scalar:
    total = zero(vec.mode)
    for idx, coeff in pairs:
        total += coeff * vec.get(idx)
    return total


# ---------------------------------------------------------------------------
# rho tables


@dataclass(frozen=True)
class RhoTable:
    """Damping factors rho(mu, nu) in (0, 1], decaying in mu.

    kind "dyadic" is the closed form rho = 2**(-mu); kind "table" stores an
    explicit grid.  The decay witness maps a requested epsilon to the first
    row index mu_0 from which every value is <= epsilon.
    """

    kind: str
    values: tuple = ()  # table kind: tuple of (mu, nu, value) triples
    mu_limit: int = 0  # table kind: grid bounds
    nu_limit: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("dyadic", "table"):
            raise InputError(f"unknown rho table kind {self.kind!r}")
        if self.kind == "table":
            if self.mu_limit < 1 or self.nu_limit < 1:
                raise InputError("table rho needs positive grid bounds")
            seen = {}
            for mu, nu, val in self.values:
                if not (1 <= mu <= self.mu_limit and 1 <= nu <= self.nu_limit):
                    raise InputError(f"rho entry ({mu},{nu}) outside grid")
                if not 0 < val <= 1:
                    raise InputError(f"rho({mu},{nu}) = {val} not in (0, 1]")
                seen[(mu, nu)] = val
            for mu in range(1, self.mu_limit + 1):
                for nu in range(1, self.nu_limit + 1):
                    if (mu, nu) not in seen:
                        raise InputError(f"rho table missing entry ({mu},{nu})")

    @staticmethod
    def dyadic() -> "RhoTable":
        return RhoTable("dyadic")

    @staticmethod
    def from_grid(grid) -> "RhoTable":
        """grid: mapping (mu, nu) -> value covering a full rectangle."""
        mus = [mu for mu, _ in grid]
        nus = [nu for _, nu in grid]
        triples = tuple(sorted((mu, nu, grid[(mu, nu)]) for mu, nu in grid))
        return RhoTable("table", triples, max(mus), max(nus))

    def value(self, mu: int, nu: int, mode: str) -> Scalar:
        check_mode(mode)
        if mu < 1 or nu < 1:
            raise DomainError(f"rho index ({mu},{nu}) out of range")
        if self.kind == "dyadic":
            if mode == RATIONAL:
                return Fraction(1, 2**mu)
            return 2.0**-mu
        if mu > self.mu_limit or nu > self.nu_limit:
            raise DomainError(f"rho index ({mu},{nu}) outside table grid")
        for m, n, val in self.values:
            if (m, n) == (mu, nu):
                return as_scalar(val, mode)
        raise DomainError(f"rho index ({mu},{nu}) missing")  # unreachable

    def decay_index(self, epsilon, nu: int, mode: str = RATIONAL) -> int:
        """Smallest mu_0 with rho(mu, nu) <= epsilon for every mu >= mu_0.

        For the table kind the guarantee only covers the stored grid.
        """
        if epsilon <= 0:
            raise InputError("decay witness needs epsilon > 0")
        if self.kind == "dyadic":
            mu0 = 1
            while self.value(mu0, nu, mode) > epsilon:
                mu0 += 1
            return mu0
        worst = 1
        for mu in range(1, self.mu_limit + 1):
            if self.value(mu, nu, mode) > epsilon:
                worst = mu + 1
        return worst

    def verify_decay(self, mu_max: int, nu_max: int, epsilons, mode: str = RATIONAL) -> bool:
        """Check the witness on a box; table grids must reach mu_max."""
        for nu in range(1, nu_max + 1):
            for eps in epsilons:
                mu0 = self.decay_index(eps, nu, mode)
                if mu0 > mu_max:
                    return False
                for mu in range(mu0, mu_max + 1):
                    if self.value(mu, nu, mode) > eps:
                        return False
        return True


# ---------------------------------------------------------------------------
# system kinds


class SeminormSystem:
    """Shared interface; concrete kinds subclass.

    Levels are 1-based and run to .level_count.  Monotonicity across levels
    is guaranteed by construction for the built-in kinds and only sampled
    for custom systems (see .monotone_guaranteed).
    """

    kind: str
    box: Box
    mode: str
    level_count: int
    monotone_guaranteed: bool = True

    def check_level(self, k: int) -> None:
        if not (isinstance(k, int) and 1 <= k <= self.level_count):
            raise LevelError(f"level {k!r} outside 1..{self.level_count}")

    def check_vector(self, x: TruncatedVector) -> None:
        if x.box != self.box:
            raise DomainError(f"vector box {x.box} does not match system box {self.box}")
        if x.mode != self.mode:
            raise ModeError(f"vector mode {x.mode} does not match system mode {self.mode}")

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        raise NotImplementedError

    def combiner(self, k: int) -> str:
        raise NotImplementedError

    def level_terms(self, k: int):
        """All functionals of level k, as (index, coeff) pair tuples."""
        raise NotImplementedError


@dataclass(frozen=True)
class VogtSeminorms(SeminormSystem):
    rho: RhoTable
    box: TripleBox
    mode: str
    level_count: int
    kind: str = "vogt"
    monotone_guaranteed: bool = True

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not isinstance(self.box, TripleBox):
            raise InputError("vogt systems need a triple-indexed box")
        if self.level_count < 1:
            raise LevelError("need at least one level")
        if self.rho.kind == "table" and (
            self.rho.mu_limit < self.box.mu_max or self.rho.nu_limit < self.box.nu_max
        ):
            raise InputError("rho table grid smaller than the box")

    def combiner(self, k: int) -> str:
        return SUM

    def _weight(self, base: int, n: int, mu: int, nu: int) -> Scalar:
        return as_scalar(base ** (n + mu + nu), self.mode)

    def split_value(self, x: TruncatedVector, base: int, threshold: int) -> Scalar:
        """Sum of plain terms (nu <= threshold) and difference terms
        (nu > threshold) with weight base**(n+mu+nu).

        Runs over the support and its n-shift only, never the whole box.
        """
        self.check_vector(x)
        total = zero(self.mode)
        diff_sites = set()
        for (n, mu, nu), val in x.entries:
            if nu <= threshold:
                total += abs(val) * self._weight(base, n, mu, nu)
            else:
                diff_sites.add((n, mu, nu))
                if n > 1:
                    diff_sites.add((n - 1, mu, nu))
        for n, mu, nu in sorted(diff_sites):
            here = x.get((n, mu, nu))
            above = x.get((n + 1, mu, nu)) if n + 1 <= self.box.n_max else zero(self.mode)
            term = abs(self.rho.value(mu, nu, self.mode) * here - above)
            total += term * self._weight(base, n, mu, nu)
        return total

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        return self.split_value(x, k, k)

    def primed_value(self, p: int, x: TruncatedVector) -> Scalar:
        """Comparison partner: twice the split with threshold pushed to p+1.

        Dominates value(p, .) termwise, which the comparison check verifies.
        """
        self.check_level(p)
        return 2 * self.split_value(x, p, p + 1)

    def level_terms(self, k: int):
        self.check_level(k)
        out = []
        for n, mu, nu in self.box.indices():
            w = self._weight(k, n, mu, nu)
            if nu <= k:
                out.append((((n, mu, nu), w),))
            else:
                pairs = [((n, mu, nu), self.rho.value(mu, nu, self.mode) * w)]
                if n + 1 <= self.box.n_max:
                    pairs.append((((n + 1, mu, nu)), -w))
                out.append(tuple(pairs))
        return out


@dataclass(frozen=True)
class KoetheSeminorms(SeminormSystem):
    """Weighted absolute sums from a level-by-coordinate weight matrix."""

    weights: tuple  # level_count rows of d nonnegative scalars
    box: SingleBox
    mode: str
    kind: str = "koethe"
    monotone_guaranteed: bool = True

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not isinstance(self.box, SingleBox):
            raise InputError("koethe systems need a singly-indexed box")
        if not self.weights:
            raise InputError("need at least one weight row")
        d = self.box.d
        coerced = []
        for row in self.weights:
            if len(row) != d:
                raise InputError(f"weight row length {len(row)} != box dimension {d}")
            coerced.append(tuple(as_scalar(w, self.mode) for w in row))
        for row in coerced:
            if any(w < 0 for w in row):
                raise InputError("weights must be nonnegative")
        for lo, hi in itertools.pairwise(coerced):
            if any(a > b for a, b in zip(lo, hi)):
                raise InputError("weight rows must be nondecreasing in the level")
        object.__setattr__(self, "weights", tuple(coerced))

    @property
    def level_count(self) -> int:  # type: ignore[override]
        return len(self.weights)

    def combiner(self, k: int) -> str:
        return SUM

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        self.check_vector(x)
        row = self.weights[k - 1]
        total = zero(self.mode)
        for j, val in x.entries:
            total += row[j - 1] * abs(val)
        return total

    def level_terms(self, k: int):
        self.check_level(k)
        row = self.weights[k - 1]
        return [((j, row[j - 1]),) for j in range(1, self.box.d + 1) if row[j - 1] != 0]


@dataclass(frozen=True)
class MaxPrefixSeminorms(SeminormSystem):
    """value(k, x) = max_{j <= k} |x_j|; the level is the prefix length."""

    box: SingleBox
    mode: str
    level_count: int
    kind: str = "max-prefix"
    monotone_guaranteed: bool = True

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not isinstance(self.box, SingleBox):
            raise InputError("max-prefix systems need a singly-indexed box")
        if self.level_count < 1:
            raise LevelError("need at least one level")

    def combiner(self, k: int) -> str:
        return MAX

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        self.check_vector(x)
        cut = min(k, self.box.d)
        best = zero(self.mode)
        for j, val in x.entries:
            if j <= cut and abs(val) > best:
                best = abs(val)
        return best

    def level_terms(self, k: int):
        self.check_level(k)
        one = as_scalar(1, self.mode)
        return [((j, one),) for j in range(1, min(k, self.box.d) + 1)]


@dataclass(frozen=True)
class CustomLevel:
    functionals: tuple  # tuple of functionals, each a tuple of (index, coeff)
    combiner: str

    def __post_init__(self) -> None:
        if self.combiner not in (SUM, MAX):
            raise InputError(f"combiner must be {SUM!r} or {MAX!r}")


@dataclass(frozen=True)
class CustomSeminorms(SeminormSystem):
    """Explicit functional lists; monotonicity is the caller's claim."""

    levels: tuple  # tuple of CustomLevel
    box: Box
    mode: str
    kind: str = "custom"
    monotone_guaranteed: bool = False

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not self.levels:
            raise LevelError("need at least one level")
        for lvl in self.levels:
            for pairs in lvl.functionals:
                for idx, coeff in pairs:
                    if not self.box.contains(idx):
                        raise DomainError(f"functional index {idx!r} outside box")
                    as_scalar(coeff, self.mode)

    @property
    def level_count(self) -> int:  # type: ignore[override]
        return len(self.levels)

    def combiner(self, k: int) -> str:
        self.check_level(k)
        return self.levels[k - 1].combiner

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        self.check_vector(x)
        lvl = self.levels[k - 1]
        pieces = [abs(apply_functional(pairs, x)) for pairs in lvl.functionals]
        if not pieces:
            return zero(self.mode)
        return sum(pieces, zero(self.mode)) if lvl.combiner == SUM else max(pieces)

    def level_terms(self, k: int):
        self.check_level(k)
        return list(self.levels[k - 1].functionals)


class SupPartialSumSeminorms(SeminormSystem):
    """Derived grading |y|_k = max_n value(k, sum_{i<=n} ops[i] y).

    ops are applied left to right; the derived family inherits the base
    levels and is monotone whenever the base is.
    """

    kind = "sup-partial"

    def __init__(self, base: SeminormSystem, operators: Sequence) -> None:
        if not operators:
            raise DegenerateInputError("need at least one operator")
        self.base = base
        self.operators = tuple(operators)
        self.box = base.box
        self.mode = base.mode
        self.level_count = base.level_count
        self.monotone_guaranteed = base.monotone_guaranteed

    def combiner(self, k: int) -> str:
        return MAX  # max over prefixes; kernels still need every term zero

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        self.check_vector(x)
        running = None
        best = zero(self.mode)
        for op in self.operators:
            piece = op.apply(x)
            running = piece if running is None else running + piece
            v = self.base.value(k, running)
            if v > best:
                best = v
        return best

    def level_terms(self, k: int):
        """Base functionals composed with every partial sum; kernel-exact."""
        self.check_level(k)
        dim = self.box.dimension
        order = list(self.box.indices())
        out = []
        partial = None
        for op in self.operators:
            partial = op.matrix if partial is None else tuple(
                tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(partial, op.matrix)
            )
            for pairs in self.base.level_terms(k):
                row = [zero(self.mode)] * dim
                for idx, coeff in pairs:
                    r = self.box.position(idx)
                    for j in range(dim):
                        row[j] += coeff * partial[r][j]
                sparse = tuple(
                    (order[j], row[j]) for j in range(dim) if row[j] != 0
                )
                if sparse:
                    out.append(sparse)
        return out


# ---------------------------------------------------------------------------
# operations


def eval_seminorm(system: SeminormSystem, k: int, x: TruncatedVector) -> Scalar:
    """value(k, x); errors on bad level, foreign box, or mixed mode."""
    system.check_level(k)
    system.check_vector(x)
    return system.value(k, x)


def eval_sup_seminorm(system: SeminormSystem, k: int, ops: Sequence, x: TruncatedVector) -> Scalar:
    """max over n of value(k, sum_{i<=n} ops[i](x)); ops must be nonempty."""
    if not ops:
        raise DegenerateInputError("eval_sup_seminorm needs a nonempty operator list")
    system.check_level(k)
    system.check_vector(x)
    running = None
    best = zero(system.mode)
    for op in ops:
        piece = op.apply(x)
        running = piece if running is None else running + piece
        v = system.value(k, running)
        if v > best:
            best = v
    return best


def seminorm_kernel_basis(
    system: SeminormSystem,
    k: int,
    subspace: Sequence[TruncatedVector],
    tol: Tolerances = DEFAULT_TOLERANCES,
):
    """Basis of {v in span(subspace) : value(k, v) = 0}.

    Every kind's level value vanishes exactly when each constituent
    functional does, so the kernel is the nullspace of the functional
    matrix restricted to the span.  Deterministic: free-variable basis of
    the rational echelon form, mapped back through the input basis.
    """
    system.check_level(k)
    vectors = list(subspace)
    if not vectors:
        return []
    for v in vectors:
        system.check_vector(v)
    ftol = None if system.mode == RATIONAL else tol.rank
    coords = [v.dense() for v in vectors]
    if not independent(coords, ftol):
        raise InputError("subspace basis is linearly dependent")
    rows = []
    for pairs in system.level_terms(k):
        row = [apply_functional(pairs, v) for v in vectors]
        if any(not _null(c, ftol) for c in row):
            rows.append(row)
    coeffs = nullspace(rows, len(vectors), ftol)
    out = []
    for cs in coeffs:
        acc = None
        for c, v in zip(cs, vectors):
            piece = v.scale(c)
            acc = piece if acc is None else acc + piece
        out.append(acc)
    return out


def _null(value, tol) -> bool:
    if tol is None:
        return value == 0
    return abs(value) <= tol


def level_rows(system: SeminormSystem, k: int, basis: Sequence[TruncatedVector]):
    """Rows f_i(v_j) of level k as sparse dicts {j: value}, zero rows pruned.

    An index -> [(j, entry)] map over the basis supports means each
    functional touches only the basis vectors that meet it, so the cost
    follows the nonzeros.  Every f_i(v_j) is summed in functional order from
    zero(mode), exactly as apply_functional does, and exact zeros are left
    out.  A row is kept when one entry is nonzero, beyond the rank tolerance
    in float mode.
    """
    ftol = None if system.mode == RATIONAL else DEFAULT_TOLERANCES.rank
    z = zero(system.mode)
    meets: dict = {}
    for j, v in enumerate(basis):
        for idx, val in v.entries:
            meets.setdefault(idx, []).append((j, val))
    rows = []
    for pairs in system.level_terms(k):
        row: dict = {}
        for idx, coeff in pairs:
            for j, val in meets.get(idx, ()):
                row[j] = row.get(j, z) + coeff * val
        if any(not _null(c, ftol) for c in row.values()):
            rows.append({j: c for j, c in row.items() if c != 0})
    return rows


def level_matrix(system: SeminormSystem, k: int, basis: Sequence[TruncatedVector]):
    """level_rows densified: rows f_i(v_j) of level k, zero rows pruned."""
    z = zero(system.mode)
    out = []
    for row in level_rows(system, k, basis):
        dense = [z] * len(basis)
        for j, c in row.items():
            dense[j] = c
        out.append(dense)
    return out
