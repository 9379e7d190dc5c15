"""Small exact linear algebra over the rationals (lists of Fraction rows)."""

from fractions import Fraction


def mat_inverse(rows):
    """Inverse matrix, or None when singular."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = Fraction(1) / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


def solve_linear(rows, rhs):
    """One solution of A x = b (exact), or None when inconsistent.

    A need not be square; free variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots = []
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, m) if a[r][col] != 0), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = Fraction(1) / a[row][col]
        a[row] = [x * inv for x in a[row]]
        for r in range(m):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if a[r][n] != 0:
            return None
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = a[r][n]
    return x
