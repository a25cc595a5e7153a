"""Gaussian elimination over Fraction or float, dense and sparse.

Dense matrices are plain lists of row lists.  With tol=None every zero test
is exact, which is the whole point of rational mode; with a tolerance,
pivots are chosen by largest absolute value and entries below the threshold
count as zero.

Sparse rows are dicts {column: value} holding only the nonzero entries.
sparse_rank eliminates them one row at a time against a table of pivot
rows keyed by their lowest column, so its cost follows the nonzeros and
the fill, not rows x columns.  Functional rows of the built-in seminorm
kinds carry one or two nonzeros each, where the dense routines would pay
for the whole square.  The dense routines stay as the general tools and as
the test oracle for the sparse path.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = "list[list]"


def _is_null(value, tol) -> bool:
    if tol is None:
        return value == 0
    return abs(value) <= tol


def clone(rows) -> list[list]:
    return [list(r) for r in rows]


def row_echelon(rows, tol=None) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the pivot column list."""
    m = clone(rows)
    if not m:
        return m, []
    ncols = len(m[0])
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
        m[lead] = [v / inv for v in m[lead]]
        for r in range(len(m)):
            if r != lead and not _is_null(m[r][col], tol):
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[lead])]
        pivots.append(col)
        lead += 1
    return m, pivots


def rank(rows, tol=None) -> int:
    return len(row_echelon(rows, tol)[1])


def sparse_rank(rows, tol=None) -> int:
    """Rank of sparse rows {column: value}; same zero tests as the dense rank.

    Each incoming row is reduced by the stored pivot row of its lowest
    column until that column is new, then stored divided by its pivot entry
    (the unit pivot itself is implicit).  Entries that reduce to zero
    (|x| <= tol with a tolerance) are dropped.
    """
    pivots: dict = {}
    for row in rows:
        live = {c: v for c, v in row.items() if not _is_null(v, tol)}
        while live:
            col = min(live)
            factor = live.pop(col)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = {c: v / factor for c, v in live.items()}
                break
            for c, v in pivot.items():
                value = live[c] - factor * v if c in live else -factor * v
                if _is_null(value, tol):
                    live.pop(c, None)
                else:
                    live[c] = value
    return len(pivots)


def nullspace(rows, ncols: int, tol=None) -> list[list]:
    """Basis of {c : rows @ c = 0}, one vector per free column.

    The basis is canonical: free variable set to 1, pivot variables solved
    from the echelon form.  Works for empty row lists (full space).
    """
    if not rows:
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols if tol is None else [0.0] * ncols
            v[j] = Fraction(1) if tol is None else 1.0
            basis.append(v)
        return basis
    ech, pivots = row_echelon(rows, tol)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        v = [Fraction(0)] * ncols if tol is None else [0.0] * ncols
        v[j] = Fraction(1) if tol is None else 1.0
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
        if all(_is_null(v, tol) for v in ech[r][:ncols]) and not _is_null(ech[r][ncols], tol):
            return None
    sol = [Fraction(0)] * ncols if tol is None else [0.0] * ncols
    live_pivots = [p for p in pivots if p < ncols]
    for r, pc in enumerate(live_pivots):
        sol[pc] = ech[r][ncols]
    return sol


def invert(rows, tol=None):
    """Inverse of a square matrix, or None when singular."""
    n = len(rows)
    aug = [list(r) + [Fraction(1) if i == j else Fraction(0) for j in range(n)] if tol is None
           else list(r) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, r in enumerate(rows)]
    ech, pivots = row_echelon(aug, tol)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in ech[:n]]


def mat_mul(a, b) -> list[list]:
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def transpose(a) -> list[list]:
    return [list(col) for col in zip(*a)]


def in_span(vectors: list[list], target: list, tol=None) -> bool:
    """Whether target lies in the span of the given coordinate vectors."""
    if all(_is_null(v, tol) for v in target):
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
