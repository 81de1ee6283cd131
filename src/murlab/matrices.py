"""Dense exact linear algebra.

Ranks over the rationals and characteristic polynomials are computed over
the integers, after scaling away the denominators: ranks, determinants and
solves by one fraction-free (Bareiss) elimination whose every division is
checked, characteristic polynomials by Berkowitz's division-free recursion.
Rank over an algebraic extension Q[x]/(f) uses straightforward elimination
on polynomials in x reduced mod f, splitting f whenever a pivot is a zero
divisor.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional

from .polynomials import Poly, SplitRequired, check_modulus, inverse_mod

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


def _eliminate(rows: list[list[int]], ncols: int) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Pivots are taken in the first ``ncols`` columns only; later columns (a
    right-hand side) are carried along.  Returns the pivot columns, in
    increasing order, and the number of row swaps.  The top len(pivots) rows
    are left in echelon form and the others zero in the first ``ncols``
    columns.  Each entry below a pivot row is a minor of the input
    (Sylvester's identity), so every division by the previous pivot is
    exact; one that is not raises ArithmeticError.
    """
    nr = len(rows)
    pivots: list[int] = []
    swaps, prev = 0, 1
    for c in range(ncols):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if rows[i][c]), None)
        if p is None:
            continue
        if p != r:
            rows[r], rows[p] = rows[p], rows[r]
            swaps += 1
        top = rows[r]
        piv, tail = top[c], range(c + 1, len(top))
        for row in rows[r + 1:]:
            head = row[c]
            for j in tail:
                row[j], rem = divmod(piv * row[j] - head * top[j], prev)
                if rem:
                    raise ArithmeticError("fraction-free elimination step not exact")
            row[c] = 0
        prev = piv
        pivots.append(c)
    return pivots, swaps


def _back_substitute(rows: list[list[int]], pivots: list[int]) -> tuple[list[int], int]:
    """The solution of the echelon rows ``_eliminate`` leaves, with the last
    column as right-hand side and zero off the pivot columns, as integer
    numerators over one denominator: x at column pivots[i] is y[i] / den.

    den is the last pivot, +-det of the pivot block, so den * x is integral
    by Cramer's rule and each division is exact; one that is not raises
    ArithmeticError.
    """
    r = len(pivots)
    den = rows[r - 1][pivots[-1]] if r else 1
    y = [0] * r
    for i in range(r - 1, -1, -1):
        row = rows[i]
        s = den * row[-1] - sum(row[pivots[j]] * y[j] for j in range(i + 1, r))
        y[i], rem = divmod(s, row[pivots[i]])
        if rem:
            raise ArithmeticError("back substitution not exact")
    return y, den


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix: the last pivot of its
    elimination, signed by the row swaps, or 0 when the rank is short."""
    n = len(rows)
    a = [list(row) for row in rows]
    pivots, swaps = _eliminate(a, n)
    if len(pivots) < n:
        return 0
    return (-1) ** swaps * a[-1][-1] if n else 1


def solve_int(a: list[list[int]], b: list[int]) -> Optional[tuple[list[int], int]]:
    """The solution of the square integer system a x = b as integer
    numerators over one common denominator, (y, den) with x = y / den; None
    if a is singular.  den is the last pivot, +-det(a).
    """
    n = len(a)
    rows = [[*row, x] for row, x in zip(a, b)]
    pivots, _ = _eliminate(rows, n)
    return _back_substitute(rows, pivots) if len(pivots) == n else None


def rank_rational(m) -> int:
    """Exact rank of a matrix with rational entries."""
    _, nc = dimensions(m)
    return len(_eliminate(_integer_rows(m), nc)[0])


def rank_algebraic(m, modulus: Poly) -> list[tuple[Poly, int]]:
    """Rank of a matrix over Q[x]/(modulus), branch by branch.

    Entries are Polys in x, the class of a root theta of the modulus, or
    ints and Fractions; each is reduced mod the branch modulus on entry and
    after every product.  The modulus is made monic and must be squarefree of
    degree >= 1 (``check_modulus``).  Returns (branch modulus, rank) pairs;
    the branch moduli are pairwise coprime, monic, and multiply back to the
    modulus.  Elimination restarts on each branch whenever a pivot turns out
    to be a zero divisor (the D5 principle).
    """
    nr, nc = dimensions(m)
    reps = [[e if isinstance(e, Poly) else Poly((e,)) for e in row] for row in m]

    def go(rows: list[list[Poly]], f: Poly) -> list[tuple[Poly, int]]:
        mat = [[e % f for e in row] for row in rows]
        r = 0
        for c in range(nc):
            if r == nr:
                break
            p = next((i for i in range(r, nr) if mat[i][c]), None)
            if p is None:
                continue
            mat[r], mat[p] = mat[p], mat[r]
            try:
                inv = inverse_mod(mat[r][c], f)
            except SplitRequired as exc:
                return go(mat, exc.f1) + go(mat, exc.f2)
            top = mat[r]
            for row in mat[r + 1:]:
                if row[c]:
                    factor = row[c] * inv % f
                    for j in range(c + 1, nc):
                        row[j] = row[j] - factor * top[j] % f
                    row[c] = Poly()
            r += 1
        return [(f, r)]

    branches = go(reps, check_modulus(modulus))
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

