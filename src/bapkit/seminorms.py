"""Graded seminorm systems on truncation boxes.

Every system is a finite family value(1, .) <= value(2, .) <= ... of
seminorms.  A level is a set of groups (level_groups), each of finitely many
coordinate functionals combined either as an absolute sum or as a max, and
its value is the max over the groups.  That shared shape is what makes
kernels computable exactly: value(k, x) = 0 iff every constituent
functional kills x.  SeminormSystem derives value from the groups; Vogt and
sup-partial systems keep their own, whose float sums run in an order that
documents pin bit for bit.  Vogt states its split once, in _split, keyed by
(base, threshold); split_value walks it over a vector's site table (value and
primed_value), and split_groups reads it as functionals (level_groups and
the primed levels).  The site table holds what no split changes: the
vector's entries and, computed when a split first reads them, its
difference terms rho * here - above, so the splits of one vector share
them.  A split sums the plain terms in entry order, then the difference
sites in box order: in rational mode as one integer sum over the table's
common denominator, normalised once, and in float mode through
sum_products, left to right from 0.0.

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
                fixed operator family; one group per partial sum and base group.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Sequence

from .errors import (
    DegenerateInputError,
    DomainError,
    InputError,
    LevelError,
    ModeError,
)
from .linalg import dense_rows, independent, nullspace
from .scalars import (
    DEFAULT_TOLERANCES,
    RATIONAL,
    Scalar,
    Tolerances,
    as_scalar,
    check_mode,
    negligible,
    rank_tol,
    scalar_coercer,
    sum_products,
    zero,
)
from .spaces import Box, SingleBox, TripleBox, TruncatedVector, linear_combination

SUM = "sum"
MAX = "max"


def apply_functional(pairs, vec: TruncatedVector) -> Scalar:
    return sum_products(((coeff, vec.get(idx)) for idx, coeff in pairs), vec.mode)


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
            for mu, nu, val in self.values:
                if not (1 <= mu <= self.mu_limit and 1 <= nu <= self.nu_limit):
                    raise InputError(f"rho entry ({mu},{nu}) outside grid")
                if not 0 < val <= 1:
                    raise InputError(f"rho({mu},{nu}) = {val} not in (0, 1]")
            if len(self._grid) < len(self.values):
                raise InputError("rho table repeats a (mu, nu) entry")
            for mu in range(1, self.mu_limit + 1):
                for nu in range(1, self.nu_limit + 1):
                    if (mu, nu) not in self._grid:
                        raise InputError(f"rho table missing entry ({mu},{nu})")

    @cached_property
    def _grid(self) -> dict:
        """Table kind: (mu, nu) -> stored value."""
        return {(mu, nu): val for mu, nu, val in self.values}

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
        return as_scalar(self._grid[mu, nu], mode)  # __post_init__ checked the grid is full

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


# ---------------------------------------------------------------------------
# system kinds


class SeminormSystem:
    """Shared interface; concrete kinds subclass and state each level in level_groups.

    Levels are 1-based and run to .level_count.  Monotonicity across levels
    holds by construction for the vogt, koethe and max-prefix kinds, carries
    over to sup-partial from its base, and is the caller's claim for custom
    systems; nothing checks it at run time.
    """

    box: Box
    mode: str
    level_count: int

    def check_level(self, k: int) -> None:
        if not (isinstance(k, int) and 1 <= k <= self.level_count):
            raise LevelError(f"level {k!r} outside 1..{self.level_count}")

    def check_vector(self, x: TruncatedVector) -> None:
        if x.box is not self.box and x.box != self.box:
            raise DomainError(f"vector box {x.box} does not match system box {self.box}")
        if x.mode != self.mode:
            raise ModeError(f"vector mode {x.mode} does not match system mode {self.mode}")

    def level_groups(self, k: int):
        """Level k as a tuple of (combiner, functionals) groups, each functional
        a tuple of (index, coeff) pairs; value(k, x) is the max over the groups
        of the combiner over |f . x|.  At most one group is MAX."""
        raise NotImplementedError

    def level_terms(self, k: int):
        """All functionals of level k, flat: the level vanishes where each one does."""
        return [pairs for _, functionals in self.level_groups(k) for pairs in functionals]

    @cached_property
    def _level_index(self):
        """Per level, (combiner, units, weights, wide) for each group, built once:
        a one-pair functional c x_i enters as the weight |c| at i, since
        |c x_i| = |c| |x_i|, and units lists a MAX group's unit weights, which
        do not multiply.  wide keeps the others, a second one at i included."""
        index = []
        for k in range(1, self.level_count + 1):
            index.append([])
            for combiner, functionals in self.level_groups(k):
                weights, wide = {}, []
                for pairs in functionals:
                    if len(pairs) == 1 and pairs[0][0] not in weights:
                        weights[pairs[0][0]] = abs(as_scalar(pairs[0][1], self.mode))
                    else:
                        wide.append(pairs)
                units = {i for i, w in weights.items() if w == 1 and combiner == MAX}
                index[-1].append((combiner, units, weights, wide))
        return index

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        """The max over level k's groups, walking the support of x (see _level_index)."""
        self.check_level(k)
        self.check_vector(x)
        best = None
        for combiner, units, weights, wide in self._level_index[k - 1]:
            if combiner == SUM:
                terms = ((weights[i], v) for i, v in x.entries if i in weights)
                if wide:
                    terms = itertools.chain(terms, ((1, apply_functional(f, x)) for f in wide))
                found = [sum_products(terms, self.mode, absolute=True)]
            else:
                found = [abs(apply_functional(f, x)) for f in wide] if wide else []
                for i, v in x.entries:
                    if i in weights:
                        found.append(abs(v) if i in units else weights[i] * abs(v))
            for v in found:
                if best is None or v > best:
                    best = v
        return zero(self.mode) if best is None else best


class _SiteTable:
    """What the Vogt splits read of one vector x, the same under every split.

    plain lists each entry as (site, s, (mu, nu), value) in entry order, s
    being n + mu + nu.  The difference sites, x's support and its n - 1
    shift, and their terms |rho x[n] - x[n+1]| fill on first use, each term
    when a split first reads its site as a difference, so a vector read once
    pays only for what its one split reads.  In rational mode each value is
    an integer numerator over scale, the lcm of x's denominators times the
    system's rho_scale, and so is each term; in float mode scale is None and
    the values are x's floats.
    """

    __slots__ = ("scale", "plain", "_rho_scale", "_sites", "_terms", "_lookup")

    def __init__(self, x: TruncatedVector, rho_scale: int | None) -> None:
        self._rho_scale, self._sites = rho_scale, None
        if rho_scale is None:
            self.scale = None
            self.plain = [((n, mu, nu), n + mu + nu, (mu, nu), v) for (n, mu, nu), v in x.entries]
            return
        denominators = [v.denominator for _, v in x.entries]
        self.scale = scale = math.lcm(*denominators) * rho_scale
        self.plain = [
            ((n, mu, nu), n + mu + nu, (mu, nu), v.numerator * (scale // q))
            for ((n, mu, nu), v), q in zip(x.entries, denominators)
        ]

    def differences(self, damps, weights):
        """(s, term) for each difference site in box order whose column damps
        reads as a difference; weights[(mu, nu)] = (a, b) gives the term as
        |a x[n] - b x[n+1]| over the entries' lookup (see _difference_weights)."""
        if self._sites is None:
            rho_scale = self._rho_scale
            if rho_scale is None:
                self._lookup = {site: v for site, _, _, v in self.plain}
            else:  # numerators over the lcm of x's denominators alone
                self._lookup = {site: v // rho_scale for site, _, _, v in self.plain}
            support = set(self._lookup)
            below = {(n - 1, mu, nu) for n, mu, nu in support if n > 1}
            self._sites = [
                ((n, mu, nu), (n + 1, mu, nu), n + mu + nu, (mu, nu))
                for n, mu, nu in sorted(support | below)
            ]
            self._terms = [None] * len(self._sites)
        known, lookup = self._terms, self._lookup
        for i, (site, above, s, column) in enumerate(self._sites):
            if damps[column] is not None:
                term = known[i]
                if term is None:
                    a, b = weights[column]
                    term = known[i] = abs(a * lookup.get(site, 0) - b * lookup.get(above, 0))
                yield s, term


@dataclass(frozen=True)
class VogtSeminorms(SeminormSystem):
    rho: RhoTable
    box: TripleBox
    mode: str
    level_count: int

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

    @cached_property
    def _rho_grid(self) -> dict:
        """(mu, nu) -> rho(mu, nu) in the system's mode over the box, built once;
        total, since a table rho covers the box (see __post_init__)."""
        return {
            (mu, nu): self.rho.value(mu, nu, self.mode)
            for mu in range(1, self.box.mu_max + 1)
            for nu in range(1, self.box.nu_max + 1)
        }

    @cached_property
    def _rules(self) -> dict:
        """(base, threshold) -> that split's rule (see _split), each built on first use."""
        return {}

    @cached_property
    def _functionals(self) -> dict:
        """(base, threshold) -> that split's functionals (see split_groups), each built once."""
        return {}

    def _split(self, base: int, threshold: int):
        """The split, stated once: a site (n, mu, nu) has the weight
        powers[n+mu+nu] = base**(n+mu+nu), and damps[mu, nu] is None where the
        site is plain (nu <= threshold), else rho(mu, nu), its difference's damping."""
        rule = self._rules.get((base, threshold))
        if rule is None:
            top = self.box.n_max + self.box.mu_max + self.box.nu_max
            damps = {
                (mu, nu): None if nu <= threshold else r for (mu, nu), r in self._rho_grid.items()
            }
            rule = self._rules[base, threshold] = [base**s for s in range(top + 1)], damps
        return rule

    @cached_property
    def _last_sites(self) -> list:
        """The one-slot cache of split_value: [the last vector split, its _SiteTable]."""
        return [None, None]

    @cached_property
    def _rho_scale(self) -> int | None:
        """The lcm of rho's denominators over the box, a factor of every rational
        site table's scale; None in float mode."""
        if self.mode != RATIONAL:
            return None
        return math.lcm(*[r.denominator for r in self._rho_grid.values()])

    @cached_property
    def _difference_weights(self) -> dict:
        """(mu, nu) -> (a, b) with a x[n] - b x[n+1] the difference term
        rho x[n] - x[n+1] over a site table's scale, x's entries taken over the
        lcm of their denominators: (rho * rho_scale, rho_scale) in rational
        mode, where both are integers, and (rho, 1) in float mode."""
        scale = self._rho_scale
        if scale is None:
            return {column: (r, 1) for column, r in self._rho_grid.items()}
        return {column: (int(r * scale), scale) for column, r in self._rho_grid.items()}

    def split_value(self, x: TruncatedVector, base: int, threshold: int) -> Scalar:
        """The (base, threshold) split of x: its plain and its difference terms,
        each with its weight, read off x's site table.

        Runs over the support and its n-shift only, never the whole box.  The
        sum takes the plain terms first, in entry order, then the difference
        sites in box order; documents pin this order in float mode.  Above the
        top row the neighbour x[n+1] is 0, as no entry of x lies there.  In
        rational mode the sum is one integer sum over the table's common
        denominator, normalised once.
        """
        self.check_vector(x)
        powers, damps = self._split(base, threshold)
        slot = self._last_sites
        if slot[0] is not x:
            slot[:] = x, _SiteTable(x, self._rho_scale)
        table = slot[1]
        plain, weights = table.plain, self._difference_weights
        if table.scale is None:
            terms = [(powers[s], v) for _, s, column, v in plain if damps[column] is None]
            if len(terms) < len(plain):
                terms += [(powers[s], term) for s, term in table.differences(damps, weights)]
            return sum_products(terms, self.mode, absolute=True)
        products = [powers[s] * abs(v) for _, s, column, v in plain if damps[column] is None]
        if len(products) < len(plain):
            products += [powers[s] * term for s, term in table.differences(damps, weights)]
        return Fraction(sum(products), table.scale)

    def split_groups(self, base: int, threshold: int) -> tuple:
        """The (base, threshold) split as functionals, one per site in box order,
        built once: w x[n] at a plain site, rho w x[n] - w x[n+1] at a difference
        site, without the second pair on the top row."""
        key = (base, threshold)
        if key not in self._functionals:
            powers, damps = self._split(base, threshold)
            coerce = scalar_coercer(self.mode)
            weights = [(coerce(w), -coerce(w)) for w in powers]
            out = []
            for n, mu, nu in self.box.indices():
                (w, minus_w), r = weights[n + mu + nu], damps[mu, nu]
                if r is None:
                    out.append((((n, mu, nu), w),))
                elif n < self.box.n_max:
                    out.append((((n, mu, nu), r * w), ((n + 1, mu, nu), minus_w)))
                else:
                    out.append((((n, mu, nu), r * w),))
            self._functionals[key] = tuple(out)
        return self._functionals[key]

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        return self.split_value(x, k, k)

    def primed_value(self, p: int, x: TruncatedVector) -> Scalar:
        """Comparison partner: twice the split with threshold pushed to p+1.

        Dominates value(p, .) termwise, which the comparison check verifies.
        """
        self.check_level(p)
        return 2 * self.split_value(x, p, p + 1)

    def level_groups(self, k: int):
        self.check_level(k)
        return ((SUM, self.split_groups(k, k)),)


@dataclass(frozen=True)
class KoetheSeminorms(SeminormSystem):
    """Weighted absolute sums from a level-by-coordinate weight matrix."""

    weights: tuple  # level_count rows of d nonnegative scalars
    box: SingleBox
    mode: str

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

    def level_groups(self, k: int):
        self.check_level(k)
        row = self.weights[k - 1]
        return ((SUM, tuple(((j, w),) for j, w in enumerate(row, 1) if w != 0)),)


@dataclass(frozen=True)
class MaxPrefixSeminorms(SeminormSystem):
    """value(k, x) = max_{j <= k} |x_j|; the level is the prefix length."""

    box: SingleBox
    mode: str
    level_count: int

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not isinstance(self.box, SingleBox):
            raise InputError("max-prefix systems need a singly-indexed box")
        if self.level_count < 1:
            raise LevelError("need at least one level")

    def level_groups(self, k: int):
        self.check_level(k)
        one = as_scalar(1, self.mode)
        return ((MAX, tuple(((j, one),) for j in range(1, min(k, self.box.d) + 1))),)


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

    def level_groups(self, k: int):
        self.check_level(k)
        lvl = self.levels[k - 1]
        return ((lvl.combiner, tuple(lvl.functionals)),)


class SupPartialSumSeminorms(SeminormSystem):
    """Derived grading |y|_k = max_n value(k, sum_{i<=n} ops[i] y).

    ops are applied left to right; the derived family inherits the base
    levels and is monotone whenever the base is.
    """

    def __init__(self, base: SeminormSystem, operators: Sequence) -> None:
        if not operators:
            raise DegenerateInputError("need at least one operator")
        self.base = base
        self.operators = tuple(operators)
        self.box = base.box
        self.mode = base.mode
        self.level_count = base.level_count

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        self.check_level(k)
        self.check_vector(x)
        partials = itertools.accumulate(op.apply(x) for op in self.operators)
        return reduce(max, (self.base.value(k, p) for p in partials), zero(self.mode))

    def level_groups(self, k: int):
        """Base groups composed with every partial sum, zero functionals left out:
        a group per partial and base SUM group, and one MAX group for the rest."""
        self.check_level(k)
        order = list(self.box.indices())
        base_groups = self.base.level_groups(k)
        partials = itertools.accumulate(
            (op.columns for op in self.operators),
            lambda acc, columns: [a + b for a, b in zip(acc, columns)],
        )
        groups, maxed = [], []
        for partial, (combiner, functionals) in itertools.product(partials, base_groups):
            rows = ([apply_functional(pairs, column) for column in partial] for pairs in functionals)
            composed = (tuple((idx, v) for idx, v in zip(order, row) if v != 0) for row in rows)
            composed = tuple(f for f in composed if f)
            if combiner == MAX:
                maxed += composed
            elif composed:
                groups.append((SUM, composed))
        return (*groups, (MAX, tuple(maxed))) if maxed else tuple(groups)


# ---------------------------------------------------------------------------
# operations


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
    ftol = rank_tol(system.mode, tol)
    if not independent([v.dense() for v in vectors], ftol):
        raise InputError("subspace basis is linearly dependent")
    coeffs = nullspace(level_matrix(system, k, vectors, tol), len(vectors), ftol)
    return [linear_combination(system.box, system.mode, zip(cs, vectors)) for cs in coeffs]


def level_rows(
    system: SeminormSystem, k: int, basis=None, tol: Tolerances = DEFAULT_TOLERANCES
):
    """basis_rows of level k's functionals, its level_terms."""
    return basis_rows(system, system.level_terms(k), basis, tol)


def basis_rows(
    system: SeminormSystem, functionals, basis=None, tol: Tolerances = DEFAULT_TOLERANCES
):
    """functional_rows of the functionals over basis, in the system's box and mode.

    basis None is the box's unit basis in box order, as graded_operator_norm's
    domain_basis=None is.  There f(e_j) is f's coefficient at j, so each row
    is read off its functional without building a vector or a product, under
    functional_rows' rules: a repeated index summed in functional order, each
    value coerced to the mode's scalar, exact zeros dropped, negligible rows
    pruned and columns sorted.  A one-pair functional is its row.
    """
    if basis is not None:
        return functional_rows(functionals, basis, system.mode, tol)
    coerce, position = scalar_coercer(system.mode), system.box.position
    rows = []
    for pairs in functionals:
        if len(pairs) == 1:
            ((idx, coeff),) = pairs
            rows.append({position(idx): coerce(coeff)})
            continue
        row: dict = {}
        for idx, coeff in pairs:
            j = position(idx)
            row[j] = row[j] + coerce(coeff) if j in row else coerce(coeff)
        rows.append(row)
    return _kept_rows(rows, system.mode, tol)


def functional_rows(functionals, basis: Sequence[TruncatedVector], mode: str, tol: Tolerances):
    """Rows f_i(v_j) as sparse dicts {j: value}, zero rows pruned.

    An index -> [(j, entry)] map over the basis supports means each
    functional touches only the basis vectors that meet it, so the cost
    follows the nonzeros.  Every f_i(v_j) is summed in functional order from
    zero(mode), exactly as apply_functional does, and exact zeros are left
    out.  A row is kept when one entry is nonzero, beyond tol.rank in float
    mode, and lists its columns j in increasing order (linalg's sparse row).
    """
    z = zero(mode)
    meets: dict = {}
    for j, v in enumerate(basis):
        for idx, val in v.entries:
            meets.setdefault(idx, []).append((j, val))
    rows = []
    for pairs in functionals:
        row: dict = {}
        for idx, coeff in pairs:
            for j, val in meets.get(idx, ()):
                row[j] = row.get(j, z) + coeff * val
        rows.append(row)
    return _kept_rows(rows, mode, tol)


def _kept_rows(rows, mode: str, tol: Tolerances):
    """The rows with an entry beyond tol.rank (nonzero in rational mode), each
    without its exact zeros and with its columns in increasing order."""
    ftol = rank_tol(mode, tol)
    if ftol is None:
        kept = ({j: row[j] for j in sorted(row) if row[j]} for row in rows)
        return [row for row in kept if row]
    return [
        {j: row[j] for j in sorted(row) if row[j] != 0}
        for row in rows
        if any(not negligible(c, ftol) for c in row.values())
    ]


def level_matrix(system: SeminormSystem, k: int, basis, tol: Tolerances = DEFAULT_TOLERANCES):
    """level_rows as dense rows, for dense elimination."""
    return dense_rows(level_rows(system, k, basis, tol), len(basis), system.mode)
