"""Gaussian elimination over Fraction or float, dense and sparse.

Dense matrices are plain lists of row lists.  With tol=None every zero test
is exact, which is the whole point of rational mode; with a tolerance,
pivots are chosen by largest absolute value and entries below the threshold
count as zero.

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

from .scalars import FLOAT, RATIONAL, negligible, one, zero


def _mode(tol) -> str:
    """The scalar mode that a zero threshold stands for: None means exact."""
    return RATIONAL if tol is None else FLOAT


def clone(rows) -> list[list]:
    return [list(r) for r in rows]


def dense_rows(rows, ncols: int, mode: str) -> list[list]:
    """Sparse rows {column: value} as dense rows of ncols entries."""
    z = zero(mode)
    return [[row.get(j, z) for j in range(ncols)] for row in rows]


def row_echelon(rows, tol=None, pivot_columns=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the pivot column list.

    A zero entry of the pivot row is neither divided nor subtracted: it leaves
    its column as it was, exactly (in float mode a zero may change sign).
    pivot_columns, when given, confines the pivots to the columns before it;
    the later columns only follow the row operations.
    """
    m = clone(rows)
    if not m:
        return m, []
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
        inv = m[lead][col]
        m[lead] = [v / inv if v else v for v in m[lead]]
        for r in range(len(m)):
            if r != lead and not negligible(m[r][col], tol):
                factor = m[r][col]
                m[r] = [a - factor * b if b else a for a, b in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
    return m, pivots


def rank(rows, tol=None) -> int:
    return len(row_echelon(rows, tol)[1])


def sparse_rank(rows, tol=None) -> int:
    """Rank of sparse rows {column: value}; same zero tests as the dense rank.

    Each incoming row is reduced by the stored pivot row of its lowest
    column until that column is new, then stored as that column's pivot,
    (lead, rest): its entry there and the others.  Entries that reduce to
    zero (|x| <= tol with a tolerance) are dropped.  An exact row is stored
    as it is, and a later row that meets it divides once, by its lead, so
    rows that never meet make no division.  A float row is stored divided by
    its lead, lead 1, and a row that meets it subtracts its own entry times
    the stored rest, as the dense elimination does.
    """
    pivots: dict = {}
    exact = tol is None
    for row in rows:
        if exact:
            live = {c: v for c, v in row.items() if v}
        else:
            live = {c: v for c, v in row.items() if not negligible(v, tol)}
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
                if (new != 0) if exact else not negligible(new, tol):
                    live[c] = new
                else:
                    live.pop(c, None)
    return len(pivots)


def nullspace(rows, ncols: int, tol=None) -> list[list]:
    """Basis of {c : rows @ c = 0}, one vector per free column.

    Works for empty row lists (full space).
    """
    ech, pivots = row_echelon(rows, tol)
    return echelon_nullspace(ech, pivots, ncols, tol)


def echelon_nullspace(ech, pivots, ncols: int, tol=None) -> list[list]:
    """nullspace read off a reduced echelon form (ech, pivots) of row_echelon.

    The basis is canonical: free variable set to 1, pivot variables solved
    from the echelon form.  A free column's vector is 0 at every other free
    column, so the unit vectors at the pivot columns complement the kernel.
    """
    free = [j for j in range(ncols) if j not in pivots]
    mode = _mode(tol)
    basis = []
    for j in free:
        v = [zero(mode)] * ncols
        v[j] = one(mode)
        for r, pc in enumerate(pivots):
            v[pc] = -ech[r][j]
        basis.append(v)
    return basis


def solve(rows, rhs, tol=None):
    """One solution of rows @ c = rhs, or None when inconsistent.

    Underdetermined systems get the solution with free variables at zero.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    ech, pivots = row_echelon(aug, tol)
    for r in range(len(ech)):
        if all(negligible(v, tol) for v in ech[r][:ncols]) and not negligible(ech[r][ncols], tol):
            return None
    sol = [zero(_mode(tol))] * ncols
    live_pivots = [p for p in pivots if p < ncols]
    for r, pc in enumerate(live_pivots):
        sol[pc] = ech[r][ncols]
    return sol


def invert(rows, tol=None):
    """Inverse of a square matrix, or None when singular."""
    return echelon_inverse(rows, tol)[2]


def echelon_inverse(rows, tol=None):
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
    mode = _mode(tol)
    aug = [list(r) + [one(mode) if i == j else zero(mode) for j in range(n)]
           for i, r in enumerate(rows)]
    ech, pivots = row_echelon(aug, tol, ncols)
    inverse = [row[ncols:] for row in ech] if len(pivots) == n else None
    return [row[:ncols] for row in ech], pivots, inverse


def mat_mul(a, b) -> list[list]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a) -> list[list]:
    return [list(col) for col in zip(*a)]


def in_span(vectors: list[list], target: list, tol=None) -> bool:
    """Whether target lies in the span of the given coordinate vectors."""
    if all(negligible(v, tol) for v in target):
        return True
    if not vectors:
        return False
    cols = transpose(vectors)
    return solve(cols, target, tol) is not None


def independent(vectors: list[list], tol=None) -> bool:
    if not vectors:
        return True
    return rank(vectors, tol) == len(vectors)


def column_space_basis(rows, tol=None) -> list[int]:
    """Positions of a deterministic basis among the matrix columns."""
    _, pivots = row_echelon(rows, tol)
    return pivots
