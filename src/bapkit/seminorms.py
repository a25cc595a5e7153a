"""Graded seminorm systems on truncation boxes.

Every system is a finite family value(1, .) <= value(2, .) <= ... of
seminorms.  A level is a set of groups (level_groups), each of finitely many
coordinate functionals combined either as an absolute sum or as a max, and
its value is the max over the groups.  That shared shape is what makes
kernels computable exactly: value(k, x) = 0 iff every constituent
functional kills x.  Every level is read raw through one method,
raw_values(levels, x), which reads x once for all the levels asked, and
values(levels, x), defined once on SeminormSystem, turns that read into
scalars; value(k, x) is its one-level case.  A raw value (see scalars) is an
unreduced pair of ints in rational mode and the float itself in float mode,
so the checks that only compare or scale reads (the prefix bound, the
graded values of the embedding, the equicontinuity bounds and the basis
criterion) build no Fraction per level, and only a reported value becomes
one.  SeminormSystem derives raw_values from the groups; Vogt and
sup-partial systems keep their own, whose float sums run in an order that
documents pin bit for bit.  Vogt states its split once, in _split, keyed by
(base, threshold), and two methods read it: raw_splits sums any splits of
one vector from one read of its entries (raw_values, and through
split_values primed_values), and split_groups gives a split as functionals
(level_groups and the primed levels).  A rational reader sums integers over
the lcm of x's denominators (_integer_entries) and gives that sum over its
denominator, unnormalised; a float one adds left to right from 0.0.

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
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from ._record import record
from .errors import DegenerateInputError, DomainError, InputError, LevelError
from .linalg import dense_rows, independent, nullspace
from .scalars import (
    RATIONAL,
    Scalar,
    as_scalar,
    check_mode,
    is_int,
    negligible,
    raw_max,
    raw_of,
    scalar_coercer,
    scalars_of,
    sum_products,
)
from .spaces import Box, SingleBox, TripleBox, TruncatedVector, linear_combination
from .spaces import check_part, check_parts

SUM = "sum"
MAX = "max"


def apply_functional(pairs, vec: TruncatedVector) -> Scalar:
    return sum_products(((coeff, vec.get(idx)) for idx, coeff in pairs), vec.mode)


def _integer_entries(x: TruncatedVector):
    """A rational x's entries as (index, integer y) pairs over D, the lcm of their
    denominators, and D: the integer view that the rational readers sum over."""
    denominators = [v.denominator for _, v in x.entries]
    common = math.lcm(*denominators)
    return [(i, v.numerator * (common // q)) for (i, v), q in zip(x.entries, denominators)], common


# ---------------------------------------------------------------------------
# rho tables


@record
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

    def level_groups(self, k: int):
        """Level k as a tuple of (combiner, functionals) groups, each functional
        a tuple of (index, coeff) pairs; value(k, x) is the max over the groups
        of the combiner over |f . x|.  At most one group is MAX."""
        raise NotImplementedError

    def level_terms(self, k: int):
        """All functionals of level k, flat: the level vanishes where each one does."""
        return [pairs for _, functionals in self.level_groups(k) for pairs in functionals]

    def _check_levels(self, levels: Sequence[int]) -> None:
        """check_level for each of levels, with level_count read once: a plain int
        in range passes on one test, and anything else goes to check_level, so
        its message and its verdict on True or an int subclass stand."""
        count = self.level_count
        for k in levels:
            if type(k) is not int or not 1 <= k <= count:
                self.check_level(k)

    @cached_property
    def _level_index(self):
        """Each level's read plan, built once: per group (combiner, units, weights,
        wide, scale, top).  A one-pair functional c x_i enters as the weight |c|
        at i, since |c x_i| = |c| |x_i|, and units lists a MAX group's unit
        weights, which do not multiply.  wide keeps the others, a second one at i
        included.  In rational mode a SUM group's weights are integers over
        scale, the lcm of their denominators; elsewhere scale is None.  top is a
        MAX group's largest weighted index, None for a SUM group or a MAX group
        of wide functionals only: no entry past it has a weight."""
        index = []
        for k in range(1, self.level_count + 1):
            plan = []
            for combiner, functionals in self.level_groups(k):
                weights, wide = {}, []
                for pairs in functionals:
                    if len(pairs) == 1 and pairs[0][0] not in weights:
                        weights[pairs[0][0]] = abs(as_scalar(pairs[0][1], self.mode))
                    else:
                        wide.append(pairs)
                units = {i for i, w in weights.items() if w == 1 and combiner == MAX}
                scale = top = None
                if combiner == MAX:
                    top = max(weights, default=None)
                elif self.mode == RATIONAL:
                    scale = math.lcm(*[w.denominator for w in weights.values()])
                    weights = {i: w.numerator * (scale // w.denominator) for i, w in weights.items()}
                plan.append((combiner, units, weights, wide, scale, top))
            index.append(plan)
        return index

    def value(self, k: int, x: TruncatedVector) -> Scalar:
        """The value of level k at x, values((k,), x)[0]."""
        return self.values((k,), x)[0]

    def values(self, levels: Sequence[int], x: TruncatedVector) -> tuple:
        """value(k, x) for each k in levels: raw_values as scalars, one Fraction per
        level in rational mode and the floats as they are in float mode."""
        return scalars_of(self.raw_values(levels, x), self.mode)

    def raw_values(self, levels: Sequence[int], x: TruncatedVector) -> tuple:
        """Each level's value at x as a raw value (see scalars), x's entries read once
        for all the levels.

        The levels are checked once (_check_levels), then x.  Each level runs
        its plan (see _level_index) and is the raw_max over its groups; a level
        of one group is that group's value, which no raw_max changes, as no
        group's value is negative.  A SUM
        group sums its weights against x's magnitudes, then its wide
        functionals: in rational mode the magnitudes are integers over one
        common denominator, so the weights' part is one integer sum over
        scale times that denominator, a raw pair, and in float mode they are
        x's absolute values, added left to right from 0.0, as sum_products adds
        them.  The magnitudes are built when a SUM group first reads them, so
        levels of MAX groups alone build none.  A MAX group walks x's entries,
        which are in box order, up to its top and no further, and gives its
        largest scalar as a raw value.
        """
        self._check_levels(levels)
        check_part(self.box, self.mode, x, "vector")
        index, entries, mode = self._level_index, x.entries, self.mode
        magnitudes = None
        out = []
        for k in levels:
            found = []
            for combiner, units, weights, wide, scale, top in index[k - 1]:
                if combiner == MAX:
                    group = [abs(apply_functional(f, x)) for f in wide]
                    if top is not None:
                        for i, v in entries:
                            if i > top:
                                break
                            if i in weights:
                                group.append(abs(v) if i in units else weights[i] * abs(v))
                    if group:
                        found.append(raw_of(max(group), mode))
                elif scale is None:
                    if magnitudes is None:
                        magnitudes = [(i, abs(v)) for i, v in entries]
                    total = 0.0
                    for i, m in magnitudes:
                        if i in weights:
                            total += weights[i] * m
                    for f in wide:
                        total += abs(apply_functional(f, x))
                    found.append(total)
                else:
                    if magnitudes is None:
                        numerators, common = _integer_entries(x)
                        magnitudes = [(i, abs(y)) for i, y in numerators]
                    weighted = sum(weights[i] * m for i, m in magnitudes if i in weights)
                    raw = (weighted, scale * common)
                    if wide:
                        total = sum((abs(apply_functional(f, x)) for f in wide), Fraction(*raw))
                        raw = raw_of(total, mode)
                    found.append(raw)
            out.append(found[0] if len(found) == 1 else raw_max(found, mode))
        return tuple(out)


@record
class VogtSeminorms(SeminormSystem):
    """Vogt's decay-table system on a triple box; level k is the (k, k) split (see _split)."""

    rho: RhoTable
    box: TripleBox
    mode: str
    level_count: int

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not isinstance(self.box, TripleBox):
            raise InputError("vogt systems need a triple-indexed box")
        if not is_int(self.level_count) or self.level_count < 1:
            raise LevelError(f"need an integer level count >= 1, got {self.level_count!r}")
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
    def _rho_integers(self) -> tuple:
        """(b, a) with rho = a / b over the box: b the lcm of rho's denominators and
        a[mu, nu] = rho(mu, nu) * b, integers; in float mode b = 1, a the float grid."""
        grid = self._rho_grid
        if self.mode != RATIONAL:
            return 1, grid
        b = math.lcm(*[r.denominator for r in grid.values()])
        return b, {column: int(r * b) for column, r in grid.items()}

    def split_values(self, x: TruncatedVector, splits) -> tuple:
        """Each (base, threshold) split of x as a scalar: raw_splits as scalars."""
        return scalars_of(self.raw_splits(x, splits), self.mode)

    def raw_splits(self, x: TruncatedVector, splits) -> tuple:
        """Each (base, threshold) split of x (see _split) as a raw value, x checked
        and read once.

        x's entries are integers y over D, the lcm of their denominators, in
        rational mode, and as they are (D = 1) in float mode.  A split sums
        base**s |b y| over the plain entries in entry order, then base**s
        |a y[n] - b y[n+1]| over the difference sites in box order, (b, a)
        from _rho_integers and y = 0 off the support.  The sites, the support
        and its n - 1 shift, are listed only once an entry is not plain, and
        each term is computed when a split first reads it.  A rational sum is
        one integer over D b, the raw pair; a float sum runs left to right from
        0.0, as documents pin its bits.
        """
        check_part(self.box, self.mode, x, "vector")
        b, a = self._rho_integers
        if self.mode == RATIONAL:
            ys, common = _integer_entries(x)
            scale = common * b
        else:
            ys, scale = x.entries, None
        plain = [(n + mu + nu, (mu, nu), abs(b * y)) for (n, mu, nu), y in ys]
        sites = None
        out = []
        for base, threshold in splits:
            powers, damps = self._split(base, threshold)
            products = [powers[s] * m for s, column, m in plain if damps[column] is None]
            if len(products) < len(plain):
                if sites is None:
                    lookup = dict(ys)
                    below = {(n - 1, mu, nu) for n, mu, nu in lookup if n > 1}
                    sites = [
                        ((n, mu, nu), (n + 1, mu, nu), n + mu + nu, (mu, nu))
                        for n, mu, nu in sorted(below.union(lookup))
                    ]
                    terms = [None] * len(sites)
                for i, (site, above, s, column) in enumerate(sites):
                    if damps[column] is not None:
                        term = terms[i]
                        if term is None:
                            here, up = lookup.get(site, 0), lookup.get(above, 0)
                            term = terms[i] = abs(a[column] * here - b * up)
                        products.append(powers[s] * term)
            if scale is None:
                total = 0.0
                for product in products:
                    total += product
                out.append(total)
            else:
                out.append((sum(products), scale))
        return tuple(out)

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

    def raw_values(self, levels: Sequence[int], x: TruncatedVector) -> tuple:
        """Each level k's (k, k) split of x, from one raw_splits read."""
        self._check_levels(levels)
        return self.raw_splits(x, [(k, k) for k in levels])

    def primed_values(self, levels: Sequence[int], x: TruncatedVector) -> tuple:
        """(values(levels, x), the primed values), from one split_values read of x.

        Level p's primed value is twice its split with the threshold pushed to
        p+1, which dominates value(p, .) termwise; the comparison check verifies it.
        """
        levels = tuple(levels)
        self._check_levels(levels)
        read = self.split_values(x, [(k, k) for k in levels] + [(p, p + 1) for p in levels])
        return read[: len(levels)], tuple([2 * v for v in read[len(levels) :]])

    def level_groups(self, k: int):
        self.check_level(k)
        return ((SUM, self.split_groups(k, k)),)


@record
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


@record
class MaxPrefixSeminorms(SeminormSystem):
    """value(k, x) = max_{j <= k} |x_j|; the level is the prefix length."""

    box: SingleBox
    mode: str
    level_count: int

    def __post_init__(self) -> None:
        check_mode(self.mode)
        if not isinstance(self.box, SingleBox):
            raise InputError("max-prefix systems need a singly-indexed box")
        if not is_int(self.level_count) or self.level_count < 1:
            raise LevelError(f"need an integer level count >= 1, got {self.level_count!r}")

    def level_groups(self, k: int):
        self.check_level(k)
        one = as_scalar(1, self.mode)
        return ((MAX, tuple(((j, one),) for j in range(1, min(k, self.box.d) + 1))),)


@record
class CustomLevel:
    """One level of a custom system: its functionals under one combiner, sum or max."""

    functionals: tuple  # tuple of functionals, each a tuple of (index, coeff)
    combiner: str

    def __post_init__(self) -> None:
        if self.combiner not in (SUM, MAX):
            raise InputError(f"combiner must be {SUM!r} or {MAX!r}")


@record
class CustomSeminorms(SeminormSystem):
    """Explicit functional lists; monotonicity is the caller's claim."""

    levels: tuple  # tuple of CustomLevel
    box: Box
    mode: str

    def __post_init__(self) -> None:
        if not isinstance(self.box, Box):
            raise DomainError(f"a custom system lives on a box, got {type(self.box).__name__}")
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


@record
class SupPartialSumSeminorms(SeminormSystem):
    """Derived grading |y|_k = max_n value(k, sum_{i<=n} ops[i] y).

    ops are applied left to right; the derived family inherits the base
    box, mode and levels and is monotone whenever the base is.  Every
    operator must live on the base box, in the base mode.
    """

    base: SeminormSystem
    operators: tuple  # of FiniteRankOperator, at least one

    def __post_init__(self) -> None:
        if not self.operators:
            raise DegenerateInputError("need at least one operator")
        object.__setattr__(self, "operators", tuple(self.operators))
        check_parts(self.base.box, self.base.mode, self.operators, "operator")

    @property
    def box(self) -> Box:  # type: ignore[override]
        return self.base.box

    @property
    def mode(self) -> str:  # type: ignore[override]
        return self.base.mode

    @property
    def level_count(self) -> int:  # type: ignore[override]
        return self.base.level_count

    def raw_values(self, levels: Sequence[int], x: TruncatedVector) -> tuple:
        """Per level the raw_max over the partial sums, each partial sum built and
        read raw once for every level."""
        self._check_levels(levels)
        check_part(self.box, self.mode, x, "vector")
        partials = itertools.accumulate(op.apply(x) for op in self.operators)
        reads = [self.base.raw_values(levels, p) for p in partials]
        return tuple(raw_max(column, self.mode) for column in zip(*reads))

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
    check_parts(system.box, system.mode, vectors, "vector")
    if not independent([v.dense() for v in vectors], system.mode):
        raise InputError("subspace basis is linearly dependent")
    coeffs = nullspace(level_matrix(system, k, vectors), len(vectors), system.mode)
    return [linear_combination(system.box, system.mode, zip(cs, vectors)) for cs in coeffs]


def level_rows(system: SeminormSystem, k: int, basis=None):
    """basis_rows of level k's functionals, its level_terms."""
    return basis_rows(system, system.level_terms(k), basis)


def basis_rows(system: SeminormSystem, functionals, basis=None):
    """functional_rows of the functionals over basis, in the system's box and mode.

    basis None is the box's unit basis in box order, as graded_operator_norm's
    domain_basis=None is.  There f(e_j) is f's coefficient at j, so each row
    is read off its functional without building a vector or a product, under
    functional_rows' rules: a repeated index summed in functional order, each
    value coerced to the mode's scalar, exact zeros dropped, negligible rows
    pruned and columns sorted.  A one-pair functional is its row.
    """
    if basis is not None:
        return functional_rows(functionals, basis, system.mode)
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
    return _kept_rows(rows, system.mode)


def functional_rows(functionals, basis: Sequence[TruncatedVector], mode: str):
    """Rows f_i(v_j) as sparse dicts {j: value}, zero rows pruned.

    An index -> [(j, entry)] map over the basis supports means each
    functional touches only the basis vectors that meet it, so the cost
    follows the nonzeros.  Every f_i(v_j) is summed in functional order from
    its first term, the value apply_functional gives up to the sign of a zero,
    and exact zeros are left out.  A row is kept when one entry is nonzero,
    beyond RANK in float mode, and lists its columns j in increasing order
    (linalg's sparse row).
    """
    meets: dict = {}
    for j, v in enumerate(basis):
        for idx, val in v.entries:
            meets.setdefault(idx, []).append((j, val))
    rows = []
    for pairs in functionals:
        row: dict = {}
        for idx, coeff in pairs:
            for j, val in meets.get(idx, ()):
                term = coeff * val
                row[j] = row[j] + term if j in row else term
        rows.append(row)
    return _kept_rows(rows, mode)


def _kept_rows(rows, mode: str):
    """The rows with an entry beyond RANK (nonzero in rational mode), each
    without its exact zeros and with its columns in increasing order."""
    if mode == RATIONAL:
        kept = ({j: row[j] for j in sorted(row) if row[j]} for row in rows)
        return [row for row in kept if row]
    return [
        {j: row[j] for j in sorted(row) if row[j] != 0}
        for row in rows
        if any(not negligible(c, mode) for c in row.values())
    ]


def level_matrix(system: SeminormSystem, k: int, basis):
    """level_rows as dense rows, for dense elimination."""
    return dense_rows(level_rows(system, k, basis), len(basis), system.mode)
