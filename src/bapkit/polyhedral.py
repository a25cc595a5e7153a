"""Exact suprema of convex piecewise-linear objectives over seminorm balls.

The unit ball of a sum- or max-combined functional family is a polytope
(after quotienting out the family's kernel), and a convex objective attains
its sup at a vertex.  The quotient is parameterized by the pivot columns of
one reduced echelon form of the constraint rows, which complement the
kernel because each kernel vector read off that form is 1 at its own free
column and 0 at every other free column; restricting a row to the quotient
is picking its pivot-column entries.  The vertices are exact:

  * sum combiner with a square restricted constraint matrix G (one row per
    quotient coordinate): the columns of G^-1, from one inversion.  Each
    column c has |G c|_1 = 1, so the sup is the classical l1 -> l1 operator
    norm, the largest objective value at a column of G^-1;
  * any other sum combiner: each vertex spans the kernel line of some
    (d-1)-subset of the constraint rows, scaled to total absolute value 1
    (for a square G, leaving out row i gives plus or minus column i of
    G^-1, which is why the two agree);
  * max combiner: each vertex solves a d-subset of rows against a sign
    pattern, kept when it satisfies every remaining row.

Rows come sparse from seminorms.basis_rows (ball) and functional_rows (images); constraint
rows are made dense once for the elimination, and objective rows are summed in column
order over the vertex's nonzeros, so float sums are bit-equal to the dense products.
Dimension and row counts are desk-scale; a combinatorics cap guards the
enumeration.  Above it float mode returns, with nothing sampled, the sup over
the larger ball of G_P, the d_eff independent rows of G, from one inversion
of G_P: a sound upper bound, exact for square sum balls.
"""

from __future__ import annotations

import itertools
import math

from .errors import ComputationCapError, DomainError, InputError, ModeError, UnboundedSeminormError
from .linalg import (
    column_space_basis, dense_rows, echelon_nullspace, invert, mat_vec, nullspace, rank,
    row_echelon, solve, transpose
)
from .scalars import DEFAULT_TOLERANCES, RATIONAL, Tolerances, negligible, rank_tol, zero
from .seminorms import MAX, SUM, SeminormSystem, basis_rows, functional_rows

DEFAULT_CAP = 200_000


def _combine(values, combiner):
    vals = list(values)
    if not vals:
        return 0
    return sum(vals) if combiner == SUM else max(vals)


def _nonzeros(c):
    """The vector c as {column: value} over its nonzero entries."""
    return {j: x for j, x in enumerate(c) if x}


def _row_values(rows, live):
    """Sparse rows applied to the vector with nonzeros live.

    Each sum runs in column order over the columns that are live; every
    term left out is an exact zero, so float sums are bit-equal to the dense
    products.
    """
    return (sum(x * live[j] for j, x in row.items() if j in live) for row in rows)


def _objective_at(pieces, c):
    live = _nonzeros(c)
    best = None
    for rows, combiner in pieces:
        v = _combine((abs(x) for x in _row_values(rows, live)), combiner)
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
):
    """sup of max_i combiner_i|R_i c| over {c : combiner|G c| <= 1}.

    Rows of G and R_i are sparse, {column: value} with columns below dim;
    objective_pieces is a list of (R_i, combiner_i).
    Raises UnboundedSeminormError when the objective does not vanish on the
    constraint family's kernel (the sup is then infinite on the box), and
    ComputationCapError above cap unless a float bound's G_P inverts.
    """
    ftol = rank_tol(mode, tol)
    rows = [r for r in constraint_rows if any(not negligible(x, ftol) for x in r.values())]
    rows = dense_rows(rows, dim, mode)
    ech, pivots = row_echelon(rows, ftol)
    for kv in echelon_nullspace(ech, pivots, dim, ftol):
        live = _nonzeros(kv)
        for orows, _ in objective_pieces:
            if any(not negligible(x, ftol) for x in _row_values(orows, live)):
                raise UnboundedSeminormError(
                    "objective does not vanish on the constraint kernel"
                )
    d_eff = len(pivots)
    if d_eff == 0:
        return zero(mode)
    g2 = [[r[j] for j in pivots] for r in rows]
    g2 = [r for r in g2 if any(not negligible(x, ftol) for x in r)]
    position = {j: k for k, j in enumerate(pivots)}
    pieces2 = [
        ([{position[j]: x for j, x in r.items() if j in position} for r in orows], comb)
        for orows, comb in objective_pieces
    ]
    m = len(g2)
    if constraint_combiner == SUM:
        count = math.comb(m, d_eff - 1) if m >= d_eff - 1 else 0
    else:
        count = math.comb(m, d_eff) * 2 ** (d_eff - 1) if m >= d_eff else 0
    inverse = None
    if count > cap:
        # float mode takes the larger ball of the d_eff independent rows G_P
        if mode != RATIONAL:
            g2 = [g2[i] for i in column_space_basis(transpose(g2), ftol)]
            inverse = invert(g2, ftol) if len(g2) == d_eff else None
        if inverse is None:
            raise ComputationCapError(f"{count} vertex candidates exceed cap {cap} in {mode} mode")
        if constraint_combiner == MAX:
            return _max_ball_sup(pieces2, inverse, mode)
    elif constraint_combiner == SUM and m == d_eff:
        inverse = invert(g2, ftol)
    # a square sum ball's vertices are the columns of G^-1; every other ball,
    # and a float G that its inversion finds singular, enumerates them
    if inverse is None:
        vertices = _vertices(g2, constraint_combiner, d_eff, ftol)
    else:
        vertices = zip(*inverse)
    best = zero(mode)
    for c in vertices:
        v = _objective_at(pieces2, c)
        if v > best:
            best = v
    return best


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
            if negligible(total, tol):
                continue
            yield [x / total for x in v]
    else:
        slack = tol or 0
        for subset in itertools.combinations(range(m), d_eff):
            sub = [g2[i] for i in subset]
            if rank(sub, tol) < d_eff:
                continue
            # solve repeats rank's elimination of these full-rank square rows: never None
            for tail in itertools.product((1, -1), repeat=d_eff - 1):
                c = solve(sub, [1, *tail], tol)
                if all(abs(x) <= 1 + slack for x in mat_vec(g2, c)):
                    yield c


def _max_ball_sup(pieces, inverse, mode):
    """sup over {|G c|_inf <= 1} for a square G with inverse: per objective
    row r the l1 norm of r G^-1, combined per piece (exact for max pieces,
    an upper bound for sum pieces), max over pieces."""
    columns = [_nonzeros(c) for c in zip(*inverse)]
    best = zero(mode)
    for rows, combiner in pieces:
        at_columns = [[abs(x) for x in _row_values(rows, col)] for col in columns]
        best = max(best, _combine((sum(norm) for norm in zip(*at_columns)), combiner))
    return best


def _graded_sup(system, to_level, from_level, domain_basis, image_lists, tol, cap=DEFAULT_CAP):
    """One ball, one sup: the max over image lists of the sup of
    value(to_level, sum_j c_j images[j]) over value(from_level, sum_j c_j domain_basis[j]) <= 1.

    domain_basis None is the box's unit basis.  Each to-level group, per image list, is one
    objective piece; the ball must be one group, as polyhedral_sup takes one, and its rows
    are read off that group's functionals.
    """
    ball = system.level_groups(from_level)
    if len(ball) > 1:
        raise InputError(f"level {from_level} has {len(ball)} groups, so no single ball")
    combiner, functionals = ball[0] if ball else (SUM, ())
    groups = system.level_groups(to_level)
    pieces = [
        (functional_rows(fs, images, system.mode, tol), comb)
        for images in image_lists for comb, fs in groups
    ]
    rows = basis_rows(system, functionals, domain_basis, tol)
    dim = system.box.dimension if domain_basis is None else len(domain_basis)
    return polyhedral_sup(dim, rows, combiner, pieces, system.mode, tol=tol, cap=cap)


def _check_operators(system, operators):
    for op in operators:
        if op.box != system.box:
            raise DomainError(f"operator box {op.box} does not match system box {system.box}")
        if op.mode != system.mode:
            raise ModeError(f"operator mode {op.mode} does not match system mode {system.mode}")


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

    domain defaults to the whole box, where T e_j is column j.  Raises DomainError or
    ModeError for an operator on another box or mode, and UnboundedSeminormError when the
    from-level kernel is not annihilated at the to-level, which is how callers locate
    the smallest finite comparison level.
    """
    _check_operators(system, [operator])
    images = operator.columns
    if domain_basis is not None:
        images = [operator.apply(v) for v in domain_basis]
    return _graded_sup(system, to_level, from_level, domain_basis, [images], tol, cap)


def comparison_level(
    system: SeminormSystem,
    level: int,
    operators,
    tol: Tolerances = DEFAULT_TOLERANCES,
    cap: int = DEFAULT_CAP,
):
    """Smallest comparison level for a family of operators, with its constant.

    Returns (l, M): l is the smallest level >= level at which every operator
    has a finite graded_operator_norm(system, level, l, .), M the largest of
    those norms.  Each level tried is one sup over its ball, scoring every
    operator's columns as one objective piece.  Raises DomainError or ModeError as
    graded_operator_norm does, and UnboundedSeminormError when no level controls them all.
    """
    _check_operators(system, operators)
    image_lists = [op.columns for op in operators]
    for l in range(level, system.level_count + 1):
        try:
            return l, _graded_sup(system, level, l, None, image_lists, tol, cap)
        except UnboundedSeminormError:
            continue
    raise UnboundedSeminormError(
        f"no comparison level controls the partial sums at level {level}"
    )


def rank_one_family_constant(
    system: SeminormSystem,
    level: int,
    adapted_basis,
    piece_images,
    tol: Tolerances = DEFAULT_TOLERANCES,
):
    """Smallest C with max_j value(level, B_j e) <= C * value(level, e) on the span.

    adapted_basis parameterizes the span; piece_images[j] lists B_j applied
    to each adapted basis vector (for coordinate projections that is zero
    except at position j).
    """
    return _graded_sup(system, level, level, adapted_basis, piece_images, tol)
