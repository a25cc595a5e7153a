"""Truncation boxes and the sparse vectors living on them.

A box is the finite index window standing in for the full index set: triple
boxes enumerate (n, mu, nu) with 1 <= n <= n_max and so on, single boxes
enumerate coordinates 1..d.  Vectors store only their nonzero entries, so
evaluation cost follows the support, not the box volume.

Box order is the natural order of the indices: ints for single boxes,
lexicographic (n, mu, nu) for triple boxes.  `indices()` and `position`
follow it, so entries sort and merge by comparing indices; `position` only
lays a vector out densely.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .errors import DomainError, InputError, ModeError
from .scalars import (
    Scalar,
    all_approx_equal,
    as_scalar,
    check_mode,
    scalar_coercer,
    sum_products,
    zero,
)


@dataclass(frozen=True)
class TripleBox:
    """Index window for triple-indexed spaces; all bounds inclusive, >= 1."""

    n_max: int
    mu_max: int
    nu_max: int

    def __post_init__(self) -> None:
        if min(self.n_max, self.mu_max, self.nu_max) < 1:
            raise DomainError(f"box bounds must be >= 1, got {self}")

    @property
    def dimension(self) -> int:
        return self.n_max * self.mu_max * self.nu_max

    def contains(self, idx) -> bool:
        if not (isinstance(idx, tuple) and len(idx) == 3):
            return False
        n, mu, nu = idx
        return 1 <= n <= self.n_max and 1 <= mu <= self.mu_max and 1 <= nu <= self.nu_max

    def indices(self) -> Iterator[tuple[int, int, int]]:
        for n in range(1, self.n_max + 1):
            for mu in range(1, self.mu_max + 1):
                for nu in range(1, self.nu_max + 1):
                    yield (n, mu, nu)

    def position(self, idx) -> int:
        n, mu, nu = idx
        return ((n - 1) * self.mu_max + (mu - 1)) * self.nu_max + (nu - 1)


@dataclass(frozen=True)
class SingleBox:
    """Index window 1..d for singly-indexed spaces."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"box dimension must be >= 1, got {self.d}")

    @property
    def dimension(self) -> int:
        return self.d

    def contains(self, idx) -> bool:
        return isinstance(idx, int) and not isinstance(idx, bool) and 1 <= idx <= self.d

    def indices(self) -> Iterator[int]:
        return iter(range(1, self.d + 1))

    def position(self, idx) -> int:
        return idx - 1


Box = TripleBox | SingleBox


def _require_index(box: Box, idx) -> None:
    if not box.contains(idx):
        raise DomainError(f"index {idx!r} outside box {box}")


def check_parts(box: Box, mode: str, parts: Iterable, what: str) -> None:
    """Raise DomainError for a part (a vector or an operator) on another box than
    box, and ModeError for one in another mode than mode."""
    for part in parts:
        if part.box is not box and part.box != box:
            raise DomainError(f"{what} box {part.box} does not match {box}")
        if part.mode != mode:
            raise ModeError(f"{what} mode {part.mode} does not match {mode}")


def _canonical(box: Box, mode: str, pairs: Iterable) -> "TruncatedVector":
    """The vector summing the (index, value) pairs: entries in index order, zeros dropped."""
    merged: dict = {}
    for idx, val in pairs:
        merged[idx] = merged[idx] + val if idx in merged else val
    cleaned = tuple((idx, val) for idx, val in sorted(merged.items()) if val != 0)
    return _trusted(box, mode, cleaned)


def _trusted(box: Box, mode: str, entries: tuple) -> "TruncatedVector":
    """The vector with these entries, which the caller has built in canonical form:
    indices in the box and increasing, no zero value.  Unlike the public
    constructor it checks nothing, as the package's own builders keep that form.
    It sets the fields one by one, as the dataclass constructor does, so that
    vectors keep sharing one key table for their attributes."""
    vector = object.__new__(TruncatedVector)
    object.__setattr__(vector, "box", box)
    object.__setattr__(vector, "mode", mode)
    object.__setattr__(vector, "entries", entries)
    return vector


@dataclass(frozen=True)
class TruncatedVector:
    """Immutable sparse vector on a box; zero entries are never stored.

    The entries tuple is kept sorted by index, which makes equality,
    hashing and serialization canonical.  The constructor takes entries in
    that form only; create sorts, merges and drops zeros for a caller.
    """

    box: Box
    mode: str
    entries: tuple = ()

    def __post_init__(self) -> None:
        previous = None
        for idx, value in self.entries:
            _require_index(self.box, idx)
            if previous is not None and not previous < idx:
                raise InputError(f"entry index {idx!r} does not follow {previous!r} in box order")
            if value == 0:
                raise InputError(f"entry at {idx!r} is zero; a vector stores no zero")
            previous = idx

    @staticmethod
    def create(box: Box, mode: str, values: Mapping | Iterable = ()) -> "TruncatedVector":
        coerce = scalar_coercer(mode)
        items = values.items() if isinstance(values, Mapping) else values
        pairs = []
        for idx, raw in items:
            _require_index(box, idx)
            pairs.append((idx, coerce(raw)))
        return _canonical(box, mode, pairs)

    @cached_property
    def _lookup(self) -> dict:
        return dict(self.entries)

    def get(self, idx) -> Scalar:
        _require_index(self.box, idx)
        return self._lookup.get(idx, zero(self.mode))

    @property
    def support(self) -> tuple:
        return tuple(idx for idx, _ in self.entries)

    def is_zero(self) -> bool:
        return not self.entries

    def _check_peer(self, other: "TruncatedVector") -> None:
        if self.box != other.box:
            raise DomainError(f"box mismatch: {self.box} vs {other.box}")
        if self.mode != other.mode:
            raise ModeError(f"mode mismatch: {self.mode} vs {other.mode}")

    def _merge(self, other: "TruncatedVector", subtract: bool) -> "TruncatedVector":
        """self + other, or self - other, in one walk over both sorted entry tuples.

        Shared indices give a + b or a - b, dropped when zero; when
        subtracting, a == b is dropped without computing a - b, and a lone
        entry of other is negated.  In IEEE arithmetic a - b equals
        a + (-1.0 * b), so this matches adding other.scale(-1).
        """
        self._check_peer(other)
        left, right = self.entries, other.entries
        out = []
        i = j = 0
        while i < len(left) and j < len(right):
            (ia, a), (ib, b) = left[i], right[j]
            if ia < ib:
                out.append(left[i])
                i += 1
            elif ib < ia:
                out.append((ib, -b) if subtract else right[j])
                j += 1
            else:
                if not (subtract and a == b):
                    total = a - b if subtract else a + b
                    if total != 0:
                        out.append((ia, total))
                i += 1
                j += 1
        out.extend(left[i:])
        out.extend(((ib, -b) for ib, b in right[j:]) if subtract else right[j:])
        return _trusted(self.box, self.mode, tuple(out))

    def __add__(self, other: "TruncatedVector") -> "TruncatedVector":
        return self._merge(other, subtract=False)

    def __sub__(self, other: "TruncatedVector") -> "TruncatedVector":
        return self._merge(other, subtract=True)

    def scale(self, factor) -> "TruncatedVector":
        c = as_scalar(factor, self.mode)
        return _trusted(
            self.box, self.mode, tuple([(idx, p) for idx, val in self.entries if (p := c * val) != 0])
        )

    def __neg__(self) -> "TruncatedVector":
        return self.scale(-1)

    def dot(self, other: "TruncatedVector") -> Scalar:
        """Standard coordinate inner product; drives orthogonal complements."""
        self._check_peer(other)
        small, big = (self, other) if len(self.entries) <= len(other.entries) else (other, self)
        z = zero(self.mode)
        lookup = big._lookup
        return sum_products(((val, lookup.get(idx, z)) for idx, val in small.entries), self.mode)

    def dense(self) -> list:
        """Coordinates in box enumeration order; for matrix work only."""
        out = [zero(self.mode)] * self.box.dimension
        for idx, val in self.entries:
            out[self.box.position(idx)] = val
        return out

    def approx_equal(self, other: "TruncatedVector") -> bool:
        self._check_peer(other)
        if self.entries == other.entries:
            return True
        keys = set(self.support) | set(other.support)
        return all_approx_equal([(self.get(k), other.get(k)) for k in keys], self.mode)


def linear_combination(box: Box, mode: str, terms: Iterable) -> TruncatedVector:
    """sum c * v over (c, v) terms of vectors on box in mode; each coordinate in term order."""
    return _canonical(
        box, mode, ((idx, c * val) for c, v in terms if c != 0 for idx, val in v.entries)
    )


def zero_vector(box: Box, mode: str) -> TruncatedVector:
    check_mode(mode)
    return _trusted(box, mode, ())


def unit_vector(box: Box, mode: str, idx) -> TruncatedVector:
    return TruncatedVector.create(box, mode, [(idx, 1)])


def vector_from_dense(box: Box, mode: str, coords: Iterable) -> TruncatedVector:
    coords = list(coords)
    if len(coords) != box.dimension:
        raise DomainError(f"expected {box.dimension} coordinates, got {len(coords)}")
    coerce = scalar_coercer(mode)
    pairs = zip(box.indices(), map(coerce, coords))
    return _trusted(box, mode, tuple((idx, x) for idx, x in pairs if x != 0))
