"""Scalar modes and exact helpers shared by every module.

Two modes run through the whole toolkit: "rational" keeps every value a
fractions.Fraction and all comparisons exact; "float" uses binary float-64
with the documented tolerances.  Mode is fixed per object at construction,
mixing modes raises ModeError.

This module is the one place that decides what a comparison means in each
mode; other modules call its helpers instead of branching on the mode.  The
mode is the only numerical setting: three constants state the whole policy,
and no function takes a tolerance:

  EQ             equalities and inequalities of computed values
                 (approx_equal, is_zero, leq), relative to max(1, |a|, |b|),
                 or to the largest value of a whole object (all_approx_equal);
                 rational mode decides them exactly
  RANK           zero tests inside elimination: rank, span, kernel and
                 pivot decisions (negligible; rank_tol gives None, exact, in
                 rational mode); the linalg routines take the mode
  DECAY          the last/first ratio at which a tail modulus counts as
                 reached zero, in both modes; an exact Fraction

No constant inflates an operator norm, and no norm is sampled: every
polyhedral sup is found at a vertex in both modes, and above the enumeration
cap polyhedral.CAP both modes raise ComputationCapError (see polyhedral).

Raw values.  A seminorm level is read raw (SeminormSystem.raw_values) and
turned into a scalar only where it is reported (scalars_of).  In rational
mode a raw value is an unreduced pair of ints (numerator, denominator), the
denominator positive, so a read builds no Fraction and pays no gcd; in float
mode it is the float itself.  The checks that only compare or scale reads do
so raw: raw_leq, raw_max and raw_times are exact in rational mode, by
cross-multiplication, and in float mode apply leq, max and the product to
the same operands as on the scalars, so a float result is unchanged bit for
bit.  raw_of is the cheap way back, a scalar's own numerator and denominator.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import reduce

from .errors import ModeError

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

Scalar = Fraction | float

EQ = 1e-12                    # relative equality slack, float mode
RANK = 1e-9                   # pivot threshold for rank decisions, float mode
DECAY = Fraction(1, 10**6)    # last/first ratio that counts as "reached zero"


def is_int(value) -> bool:
    """An int that is no bool: bool is an int subclass but never a count or a bound."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_mode(mode: str) -> str:
    if mode not in MODES:
        raise ModeError(f"unknown scalar mode {mode!r}; expected one of {MODES}")
    return mode


def _as_rational(value) -> Fraction:
    if type(value) is Fraction:  # already coerced; Fraction(value) would only copy it
        return value
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ModeError(f"rational mode needs int or Fraction, got {type(value).__name__}")
    return Fraction(value)


def _as_float(value) -> float:
    if type(value) is float:  # already a float; float(value) would only copy it
        out = value
    elif isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise ModeError(f"float mode needs a real number, got {type(value).__name__}")
    else:
        try:
            out = float(value)
        except OverflowError:
            kind = type(value).__name__
            raise ModeError(f"float mode needs a number within the float range, got a {kind} beyond it")
    if not math.isfinite(out):
        raise ModeError(f"float mode needs a finite number, got {out!r}")
    return out


def scalar_coercer(mode: str):
    """as_scalar for one mode, with the mode checked once: for coercing many numbers."""
    return _as_rational if check_mode(mode) == RATIONAL else _as_float


def as_scalar(value, mode: str) -> Scalar:
    """Coerce a number into the given mode.

    Rational mode accepts int and Fraction only; a float here is almost always
    an accident, so it is rejected instead of silently converted.  Float mode
    rejects NaN and infinities, which would make every comparison meaningless.
    """
    return scalar_coercer(mode)(value)


def zero(mode: str) -> Scalar:
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str) -> Scalar:
    return Fraction(1) if mode == RATIONAL else 1.0


def negligible(value: Scalar, mode: str) -> bool:
    """The elimination routines' zero test: exact in rational mode, |value| <= RANK in float."""
    if mode == RATIONAL:
        return value == 0
    return abs(value) <= RANK


def sum_products(pairs, mode: str) -> Scalar:
    """sum a * b over the (a, b) pairs, in order, from zero(mode).

    Rational mode keeps the sum as one integer numerator and one integer
    denominator and normalises once, with Fraction(num, den) at the end,
    instead of paying a gcd for every term; a and b must be int, Fraction
    or another pair of integers .numerator / .denominator, denominator > 0,
    not necessarily in lowest terms (so plain int weights need no conversion).
    Float mode adds the products left to right, as a hand-written loop from
    0.0 does, so its result is bit-identical to that loop.
    """
    if mode != RATIONAL:
        total = 0.0
        for a, b in pairs:
            total += a * b
        return total
    num, den = 0, 1
    for a, b in pairs:
        n = a.numerator * b.numerator
        if n:
            d = a.denominator * b.denominator
            if d == den:
                num += n
            elif den % d == 0:
                num += n * (den // d)
            elif d % den == 0:
                num = num * (d // den) + n
                den = d
            else:
                num = num * d + n * den
                den *= d
    return Fraction(num, den)


def random_scalar(rng: random.Random, mode: str) -> Scalar:
    """Sample coefficient of the sampled checks: p/q with |p| <= 6, 1 <= q <= 4, or N(0, 1)."""
    if mode == RATIONAL:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.gauss(0.0, 1.0)


def approx_equal(a: Scalar, b: Scalar, mode: str) -> bool:
    if mode == RATIONAL:
        return a == b
    scale = max(1.0, abs(a), abs(b))
    return abs(a - b) <= EQ * scale


def all_approx_equal(pairs, mode: str) -> bool:
    """a == b for every pair (a, b) of one object's values, exact in rational mode;
    float mode allows EQ * max(1, largest |value| of the object)."""
    pairs = list(pairs)
    if mode == RATIONAL:
        return all(a == b for a, b in pairs)
    scale = max([1.0] + [abs(x) for pair in pairs for x in pair])
    return all(abs(a - b) <= EQ * scale for a, b in pairs)


def is_zero(a: Scalar, mode: str) -> bool:
    if mode == RATIONAL:
        return a == 0
    return abs(a) <= EQ


def leq(a: Scalar, b: Scalar, mode: str) -> bool:
    """a <= b, exact in rational mode; float mode allows EQ * max(1, |a|, |b|)."""
    if mode == RATIONAL:
        return a <= b
    return a <= b + EQ * max(1.0, abs(a), abs(b))


def scalars_of(raws, mode: str) -> tuple:
    """The raw values as the mode's scalars: Fraction(n, d) per pair in rational
    mode, the floats as they are in float mode."""
    if mode == RATIONAL:
        return tuple([Fraction(n, d) for n, d in raws])
    return tuple(raws)


def raw_of(value: Scalar, mode: str):
    """A scalar (or an int) as a raw value, building nothing."""
    return (value.numerator, value.denominator) if mode == RATIONAL else value


def raw_leq(a, b, mode: str) -> bool:
    """a <= b for raw values: exact in rational mode, leq's EQ rule in float mode."""
    if mode == RATIONAL:
        return a[0] * b[1] <= b[0] * a[1]
    return leq(a, b, mode)


def raw_max(raws, mode: str):
    """The largest of the raw values and zero, exact; in float mode the float that
    reduce(max, raws, 0.0) gives."""
    if mode != RATIONAL:
        return reduce(max, raws, 0.0)
    best_n, best_d = 0, 1
    for n, d in raws:
        if n * best_d > best_n * d:
            best_n, best_d = n, d
    return best_n, best_d


def raw_times(factor, raw, mode: str):
    """factor * raw for an int or scalar factor: the pair scaled by the factor's
    numerator and denominator in rational mode, factor * raw in float mode."""
    if mode == RATIONAL:
        return factor.numerator * raw[0], factor.denominator * raw[1]
    return factor * raw


def rank_tol(mode: str) -> float | None:
    """Zero threshold of the elimination routines: None (exact) in rational mode."""
    return None if mode == RATIONAL else RANK


def geometric_sum(ratio: Scalar, first: int, last: int) -> Scalar:
    """sum_{n=first}^{last} ratio**n, exact for Fraction ratios.

    Empty ranges (last < first) give 0; ratio == 1 degenerates to a count.
    """
    if last < first:
        return ratio - ratio  # typed zero
    if ratio == 1:
        return (last - first + 1) * (ratio / ratio)
    return (ratio**first - ratio ** (last + 1)) / (1 - ratio)
