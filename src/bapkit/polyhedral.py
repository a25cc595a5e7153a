"""Exact suprema of convex piecewise-linear objectives over seminorm balls.

The unit ball of a sum- or max-combined functional family is a polytope
(after quotienting out the family's kernel), and a convex objective attains
its sup at a vertex.  Vertices are enumerated exactly:

  * sum combiner: each vertex spans the kernel line of some (d-1)-subset of
    the constraint rows, scaled to total absolute value 1;
  * max combiner: each vertex solves a d-subset of rows against a sign
    pattern, kept when it satisfies every remaining row.

Dimension and row counts are desk-scale; a combinatorics cap guards the
enumeration, and in float mode the documented fallback is a sampled lower
bound inflated by (1 + opnorm_safety).
"""

from __future__ import annotations

import itertools
import math
import random

from .errors import ComputationCapError, UnboundedSeminormError
from .linalg import mat_vec, nullspace, rank, solve
from .scalars import DEFAULT_TOLERANCES, RATIONAL, Tolerances, zero
from .seminorms import MAX, SUM, SeminormSystem, level_matrix
from .spaces import TruncatedVector, unit_vector

DEFAULT_CAP = 200_000


def _combine(values, combiner):
    vals = list(values)
    if not vals:
        return 0
    return sum(vals) if combiner == SUM else max(vals)


def _objective_at(pieces, c):
    best = None
    for rows, combiner in pieces:
        v = _combine((abs(x) for x in mat_vec(rows, c)), combiner)
        best = v if best is None else max(best, v)
    return 0 if best is None else best


def polyhedral_sup(
    dim: int,
    constraint_rows,
    constraint_combiner: str,
    objective_pieces,
    mode: str,
    tol: Tolerances = DEFAULT_TOLERANCES,
    cap: int = DEFAULT_CAP,
    rng: random.Random | None = None,
    samples: int = 4000,
):
    """sup of max_i combiner_i|R_i c| over {c : combiner|G c| <= 1}.

    Raises UnboundedSeminormError when the objective does not vanish on the
    constraint family's kernel (the sup is then infinite on the box).
    """
    ftol = None if mode == RATIONAL else tol.rank
    rows = [r for r in constraint_rows if any(not _null(x, ftol) for x in r)]
    kernel = nullspace(rows, dim, ftol)
    for kv in kernel:
        for orows, _ in objective_pieces:
            if any(not _null(x, ftol) for x in mat_vec(orows, kv)):
                raise UnboundedSeminormError(
                    "objective does not vanish on the constraint kernel"
                )
    comp = _complement_basis(kernel, dim, ftol)
    d_eff = len(comp)
    if d_eff == 0:
        return zero(mode)
    g2 = _restrict(rows, comp)
    g2 = [r for r in g2 if any(not _null(x, ftol) for x in r)]
    pieces2 = [(_restrict(orows, comp), comb) for orows, comb in objective_pieces]
    m = len(g2)
    if constraint_combiner == SUM:
        count = math.comb(m, d_eff - 1) if m >= d_eff - 1 else 0
    else:
        count = math.comb(m, d_eff) * 2 ** (d_eff - 1) if m >= d_eff else 0
    if count > cap:
        if mode == RATIONAL:
            raise ComputationCapError(
                f"{count} vertex candidates exceed cap {cap} in rational mode"
            )
        return _sampled_sup(g2, constraint_combiner, pieces2, d_eff, tol, rng, samples)
    best = zero(mode)
    for c in _vertices(g2, constraint_combiner, d_eff, ftol):
        v = _objective_at(pieces2, c)
        if v > best:
            best = v
    return best


def _null(value, tol) -> bool:
    if tol is None:
        return value == 0
    return abs(value) <= tol


def _complement_basis(kernel, dim, tol):
    """Unit vectors completing the kernel to the full space, greedily."""
    chosen = []
    stack = [list(k) for k in kernel]
    for j in range(dim):
        e = [0] * dim
        e[j] = 1
        if rank(stack + [e], tol) > len(stack):
            stack.append(e)
            chosen.append(e)
    return chosen


def _restrict(rows, comp):
    """Rows composed with the complement parameterization c = sum b_l comp_l."""
    return [[sum(r[j] * w[j] for j in range(len(w))) for w in comp] for r in rows]


def _vertices(g2, combiner, d_eff, tol):
    m = len(g2)
    if combiner == SUM:
        for subset in itertools.combinations(range(m), d_eff - 1):
            sub = [g2[i] for i in subset]
            lines = nullspace(sub, d_eff, tol)
            if len(lines) != 1:
                continue
            v = lines[0]
            total = sum(abs(x) for x in mat_vec(g2, v))
            if _null(total, tol):
                continue
            yield [x / total for x in v]
    else:
        slack = 0 if tol is None else 1e-9
        for subset in itertools.combinations(range(m), d_eff):
            sub = [g2[i] for i in subset]
            if rank(sub, tol) < d_eff:
                continue
            for tail in itertools.product((1, -1), repeat=d_eff - 1):
                sigma = [1, *tail]
                c = solve(sub, sigma, tol)
                if c is None:
                    continue
                if all(abs(x) <= 1 + slack for x in mat_vec(g2, c)):
                    yield c


def _sampled_sup(g2, combiner, pieces2, d_eff, tol, rng, samples):
    """Float-mode fallback: sampled lower bound times (1 + opnorm_safety)."""
    rng = rng or random.Random(0)
    best = 0.0
    for _ in range(samples):
        c = [rng.gauss(0.0, 1.0) for _ in range(d_eff)]
        norm = _combine((abs(x) for x in mat_vec(g2, c)), combiner)
        if norm <= 0:
            continue
        c = [x / norm for x in c]
        v = _objective_at(pieces2, c)
        if v > best:
            best = v
    return best * (1.0 + tol.opnorm_safety)


def graded_operator_norm(
    system: SeminormSystem,
    to_level: int,
    from_level: int,
    operator,
    domain_basis=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
    cap: int = DEFAULT_CAP,
):
    """Exact sup of value(to_level, T x) over {x in domain : value(from_level, x) <= 1}.

    domain defaults to the whole box.  Raises UnboundedSeminormError when the
    from-level kernel is not annihilated at the to-level, which is how the
    smallest finite comparison level is located by callers.
    """
    if domain_basis is None:
        domain_basis = [unit_vector(system.box, system.mode, idx) for idx in system.box.indices()]
    images = [operator.apply(v) for v in domain_basis]
    g = level_matrix(system, from_level, domain_basis)
    r = level_matrix(system, to_level, images)
    return polyhedral_sup(
        len(domain_basis),
        g,
        system.combiner(from_level),
        [(r, system.combiner(to_level))],
        system.mode,
        tol=tol,
        cap=cap,
    )


def rank_one_family_constant(
    system: SeminormSystem,
    level: int,
    adapted_basis,
    piece_images,
    tol: Tolerances = DEFAULT_TOLERANCES,
    cap: int = DEFAULT_CAP,
):
    """Smallest C with max_j value(level, B_j e) <= C * value(level, e) on the span.

    adapted_basis parameterizes the span; piece_images[j] lists B_j applied
    to each adapted basis vector (for coordinate projections that is zero
    except at position j).
    """
    g = level_matrix(system, level, adapted_basis)
    pieces = []
    for images in piece_images:
        rows = level_matrix(system, level, images)
        pieces.append((rows, system.combiner(level)))
    return polyhedral_sup(
        len(adapted_basis),
        g,
        system.combiner(level),
        pieces,
        system.mode,
        tol=tol,
        cap=cap,
    )
