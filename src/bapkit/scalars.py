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

No constant inflates an operator norm: above the enumeration cap
polyhedral.CAP, float mode bounds a polyhedral sup from above through the
inverse of its pivot rows G_P, and nothing is sampled (see polyhedral).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .errors import ModeError

RATIONAL = "rational"
FLOAT = "float"
MODES = (RATIONAL, FLOAT)

Scalar = Fraction | float

EQ = 1e-12                    # relative equality slack, float mode
RANK = 1e-9                   # pivot threshold for rank decisions, float mode
DECAY = Fraction(1, 10**6)    # last/first ratio that counts as "reached zero"


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
