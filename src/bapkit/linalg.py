"""Gaussian elimination over Fraction or float, dense and sparse.

Dense matrices are plain lists of row lists.  Every routine takes the
scalar mode, the only numerical setting, and no threshold: in rational mode
every zero test is exact, which is the whole point of that mode; in float
mode pivots are chosen by largest absolute value and entries within
scalars.RANK of zero count as zero (scalars.negligible).

Sparse rows are dicts {column: value} of the nonzero entries in increasing
column order, the one format of functional rows (seminorms.level_rows).
sparse_rank eliminates them one row at a time against a table of pivot
rows keyed by their lowest column, so its cost follows the nonzeros and
the fill, not rows x columns.  Functional rows of the built-in seminorm
kinds carry one or two nonzeros each, where the dense routines would pay
for the whole square.  The dense routines, fed through dense_rows, stay as
the general tools and as the test oracle for the sparse path.
"""

from __future__ import annotations

import operator
from functools import reduce

from .scalars import RATIONAL, negligible, one, rank_tol, zero


def clone(rows) -> list[list]:
    return [list(r) for r in rows]


def dense_rows(rows, ncols: int, mode: str) -> list[list]:
    """Sparse rows {column: value} as dense rows of ncols entries."""
    z = zero(mode)
    return [[row.get(j, z) for j in range(ncols)] for row in rows]


def row_echelon(rows, mode: str = RATIONAL, pivot_columns=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the pivot column list.

    A zero entry of the pivot row is neither divided nor subtracted: it leaves
    its column as it was, exactly (in float mode a zero may change sign).  The
    pivot entry is set to one(mode), the quotient x / x that it would be
    computed as, and a pivot row whose pivot is already 1 is not divided.
    pivot_columns, when given, confines the pivots to the columns before it;
    the later columns only follow the row operations.
    """
    m = clone(rows)
    if not m:
        return m, []
    tol = rank_tol(mode)
    ncols = len(m[0]) if pivot_columns is None else pivot_columns
    pivots: list[int] = []
    lead = 0
    for col in range(ncols):
        if lead >= len(m):
            break
        pick = None
        if tol is None:
            for r in range(lead, len(m)):
                if m[r][col] != 0:
                    pick = r
                    break
        else:
            best = tol
            for r in range(lead, len(m)):
                if abs(m[r][col]) > best:
                    best = abs(m[r][col])
                    pick = r
        if pick is None:
            continue
        m[lead], m[pick] = m[pick], m[lead]
        pivot_row = m[lead]
        inv = pivot_row[col]
        pivot_row[col] = 0  # its quotient x / x is known: one(mode), set below
        if inv != 1:
            pivot_row = m[lead] = [v / inv if v else v for v in pivot_row]
        pivot_row[col] = one(mode)
        for r in range(len(m)):
            if r != lead and not negligible(m[r][col], mode):
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], pivot_row)]
        pivots.append(col)
        lead += 1
    return m, pivots


def rank(rows, mode: str = RATIONAL) -> int:
    return len(row_echelon(rows, mode)[1])


def sparse_rank(rows, mode: str = RATIONAL) -> int:
    """Rank of sparse rows {column: value}; same zero tests as the dense rank.

    Each incoming row is reduced by the stored pivot row of its lowest
    column until that column is new, then stored as that column's pivot,
    (lead, rest): its entry there and the others.  Entries that reduce to
    zero (negligible in the mode) are dropped.  An exact row is stored
    as it is, and a later row that meets it divides once, by its lead, so
    rows that never meet make no division.  A float row is stored divided by
    its lead, lead 1, and a row that meets it subtracts its own entry times
    the stored rest, as the dense elimination does.
    """
    pivots: dict = {}
    exact = mode == RATIONAL
    for row in rows:
        live = {c: v for c, v in row.items() if not negligible(v, mode)}
        while live:
            col = min(live)
            value = live.pop(col)
            pivot = pivots.get(col)
            if pivot is None:
                if exact:
                    pivots[col] = (value, live)
                else:
                    pivots[col] = (1, {c: v / value for c, v in live.items()})
                break
            lead, rest = pivot
            factor = value / lead if exact else value
            for c, v in rest.items():
                new = live[c] - factor * v if c in live else -factor * v
                if not negligible(new, mode):
                    live[c] = new
                else:
                    live.pop(c, None)
    return len(pivots)


def nullspace(rows, ncols: int, mode: str = RATIONAL) -> list[list]:
    """Basis of {c : rows @ c = 0}, one vector per free column.

    Works for empty row lists (full space).
    """
    ech, pivots = row_echelon(rows, mode)
    return echelon_nullspace(ech, pivots, ncols, mode)


def echelon_nullspace(ech, pivots, ncols: int, mode: str = RATIONAL) -> list[list]:
    """nullspace read off a reduced echelon form (ech, pivots) of row_echelon.

    The basis is canonical: free variable set to 1, pivot variables solved
    from the echelon form.  A free column's vector is 0 at every other free
    column, so the unit vectors at the pivot columns complement the kernel.
    """
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [zero(mode)] * ncols
        v[j] = one(mode)
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][j]
        basis.append(v)
    return basis


def solve(rows, rhs, mode: str = RATIONAL):
    """One solution of rows @ c = rhs, or None when inconsistent.

    Underdetermined systems get the solution with free variables at zero.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = row_echelon(aug, mode)
    for r in range(len(ech)):
        if all(negligible(v, mode) for v in ech[r][:ncols]) and not negligible(ech[r][ncols], mode):
            return None
    sol = [zero(mode)] * ncols
    live_pivots = [p for p in pivots if p < ncols]
    for r, pc in enumerate(live_pivots):
        sol[pc] = ech[r][ncols]
    return sol


def invert(rows, mode: str = RATIONAL):
    """Inverse of a square matrix, or None when singular."""
    return echelon_inverse(rows, mode)[2]


def echelon_inverse(rows, mode: str = RATIONAL):
    """row_echelon of rows, no more of them than columns, and the inverse of
    their pivot columns, or None when the rows are dependent: one elimination.

    It eliminates [rows | I] with its pivots confined to the rows' own
    columns, so the left block is row_echelon(rows), value for value.  When
    every row holds a pivot, the right block B has B rows = that echelon
    form, which is the identity on the pivot columns, so B inverts them; it
    is the inverse that invert gives for them, value for value, since that
    elimination makes the same row operations (a column without a pivot makes
    none).
    """
    if not rows:
        return [], [], []
    n, ncols = len(rows), len(rows[0])
    unit, nought = one(mode), zero(mode)  # built once: I's entries share the two scalars
    aug = [list(r) + [unit if i == j else nought for j in range(n)] for i, r in enumerate(rows)]
    ech, pivots = row_echelon(aug, mode, ncols)
    inverse = [row[ncols:] for row in ech] if len(pivots) == n else None
    return [row[:ncols] for row in ech], pivots, inverse


def mat_mul(a, b) -> list[list]:
    """a @ b, each entry summed left to right from its first product."""
    bt = list(zip(*b))
    return [[reduce(operator.add, map(operator.mul, row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a) -> list[list]:
    return [list(col) for col in zip(*a)]


def in_span(vectors: list[list], target: list, mode: str = RATIONAL) -> bool:
    """Whether target lies in the span of the given coordinate vectors."""
    if all(negligible(v, mode) for v in target):
        return True
    if not vectors:
        return False
    cols = transpose(vectors)
    return solve(cols, target, mode) is not None


def independent(vectors: list[list], mode: str = RATIONAL) -> bool:
    if not vectors:
        return True
    return rank(vectors, mode) == len(vectors)


def column_space_basis(rows, mode: str = RATIONAL) -> list[int]:
    """Positions of a deterministic basis among the matrix columns."""
    _, pivots = row_echelon(rows, mode)
    return pivots
