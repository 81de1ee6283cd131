"""Dense exact linear algebra.

Ranks over the rationals and characteristic polynomials are computed over
the integers, after scaling away the denominators: ranks, determinants and
square solves by fraction-free (Bareiss) elimination, characteristic
polynomials by Berkowitz's division-free recursion.  Rank over an algebraic
extension uses straightforward elimination with dynamic splitting of the
modulus.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .algebraic import AlgebraicContext, AlgebraicNumber, SplitRequired
from .polynomials import Poly

def dimensions(m) -> tuple[int, int]:
    rows = len(m)
    cols = len(m[0]) if rows else 0
    for row in m:
        if len(row) != cols:
            raise ValueError("ragged matrix")
    return rows, cols


def _integer_rows(m) -> list[list[int]]:
    """Scale each row of ints and Fractions by the lcm of its denominators
    (rank preserving)."""
    out = []
    for row in m:
        scale = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (scale // x.denominator) for x in row])
    return out


def _bareiss_pivots(rows: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix, eliminated in place."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    r = 0
    prev = 1
    pivots = []
    for c in range(nc):
        if r == nr:
            break
        piv_row = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != r:
            rows[r], rows[piv_row] = rows[piv_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            head = rows[i][c]
            for j in range(c + 1, nc):
                num = piv * rows[i][j] - head * rows[r][j]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free step not exact"
                rows[i][j] = q
            rows[i][c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            for i in range(c + 1, n):
                if a[i][c] != 0:
                    a[c], a[i] = a[i], a[c]
                    sign = -sign
                    break
            else:
                return 0
        piv, top = a[c][c], a[c]
        for i in range(c + 1, n):
            row = a[i]
            head = row[c]
            for j in range(c + 1, n):
                row[j] = (piv * row[j] - head * top[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def solve_int(a: list[list[int]], b: list[int]) -> Optional[tuple[list[int], int]]:
    """The solution of the square integer system a x = b as integer
    numerators over one common denominator, (y, den) with x = y / den; None
    if a is singular.

    Fraction-free elimination keeps every intermediate an integer.  den is
    the last pivot, +-det(a), so den * x is integral by Cramer's rule and
    each division of the back substitution is exact.
    """
    n = len(a)
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        piv_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv_row is None:
            return None
        aug[c], aug[piv_row] = aug[piv_row], aug[c]
        piv, top = aug[c][c], aug[c]
        for i in range(c + 1, n):
            row = aug[i]
            head = row[c]
            for j in range(c + 1, n + 1):
                row[j] = (piv * row[j] - head * top[j]) // prev
            row[c] = 0
        prev = piv
    den = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        s = den * aug[i][n] - sum(aug[i][j] * y[j] for j in range(i + 1, n))
        y[i] = s // aug[i][i]
    return y, den


def pivot_columns(m) -> list[int]:
    """The pivot columns of a rational matrix under elimination, in
    increasing order: a basis of its column space."""
    nr, nc = dimensions(m)
    if nr == 0 or nc == 0:
        return []
    return _bareiss_pivots(_integer_rows(m))


def rank_rational(m) -> int:
    """Exact rank of a matrix with rational entries."""
    return len(pivot_columns(m))


def rank_algebraic(m, context: AlgebraicContext) -> list[tuple[Poly, int]]:
    """Rank of a matrix over Q[x]/(modulus), branch by branch.

    Returns (branch modulus, rank) pairs; the branch moduli are pairwise
    coprime, monic, and multiply back to the context modulus.  Elimination
    restarts on each branch whenever a pivot turns out to be a zero divisor.
    """
    nr, nc = dimensions(m)
    reps = [[(e.rep if isinstance(e, AlgebraicNumber) else Poly((e,))) for e in row] for row in m]

    def go(rows: list[list[Poly]], modulus: Poly) -> list[tuple[Poly, int]]:
        ctx = AlgebraicContext(modulus)
        mat = [[ctx.element(e) for e in row] for row in rows]
        r = 0
        for c in range(nc):
            if r == nr:
                break
            piv_row = None
            for i in range(r, nr):
                if not mat[i][c].is_zero():
                    piv_row = i
                    break
            if piv_row is None:
                continue
            if piv_row != r:
                mat[r], mat[piv_row] = mat[piv_row], mat[r]
            try:
                inv = mat[r][c].inverse()
            except SplitRequired as exc:
                snapshot = [[e.rep for e in row] for row in mat]
                return go(snapshot, exc.split.f1) + go(snapshot, exc.split.f2)
            for i in range(r + 1, nr):
                head = mat[i][c]
                if head.is_zero():
                    continue
                factor = head * inv
                for j in range(c + 1, nc):
                    mat[i][j] = mat[i][j] - factor * mat[r][j]
                mat[i][c] = ctx.element(0)
            r += 1
        return [(modulus, r)]

    branches = go(reps, context.modulus)
    return sorted(branches, key=lambda br: (br[0].degree, br[0].coeffs))


def charpoly(m) -> Poly:
    """Monic characteristic polynomial det(xI - m) by Berkowitz's recursion.

    The entries are scaled once to integers, b = s m with s the lcm of their
    denominators, and the division-free recursion runs on b over the
    integers.  The coefficient of x^(n-k) in det(xI - m) is then that of
    det(xI - b) divided by s^k.
    """
    nr, nc = dimensions(m)
    if nr != nc:
        raise ValueError("characteristic polynomial of a non-square matrix")
    s = lcm(*(x.denominator for row in m for x in row))
    b = [[x.numerator * (s // x.denominator) for x in row] for row in m]
    c = [1]  # det(xI - b_r) for the leading r x r block b_r, highest degree first
    for r in range(nr):
        # With b_{r+1} = [[b_r, v], [w, b[r][r]]], det(xI - b_{r+1}) is the
        # product of c with t = (1, -b[r][r], -w v, -w b_r v, ..., -w b_r^(r-1) v),
        # truncated to degree r + 1.
        rows = [[(j, x) for j, x in enumerate(b[i][:r]) if x] for i in range(r + 1)]
        v = [b[i][r] for i in range(r)]
        t = [1, -b[r][r]]
        for _ in range(r):
            t.append(-sum(x * v[j] for j, x in rows[r]))
            v = [sum(x * v[j] for j, x in row) for row in rows[:r]]
        c = [sum(t[i - j] * c[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return Poly(Fraction(c[k], s**k) for k in range(nr, -1, -1))

