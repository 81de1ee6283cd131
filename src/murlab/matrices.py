"""Dense exact linear algebra.

Ranks over the rationals are computed over the integers, after scaling
away the denominators: ranks and determinants by one fraction-free
(Bareiss) elimination whose every division is checked, every square solve
by a sparse elimination that keeps each row primitive and whose answer is
checked against every equation.  A characteristic polynomial of an integer
matrix is one such determinant, det(xI - m) at x = 2^w with w wide enough
that its coefficients can be read off in w-bit slots (Kronecker
substitution).
Rank over an algebraic extension Q[x]/(f) runs the same elimination on
integer coefficient vectors in a root of a monic integer rescaling of f,
with each division by a previous pivot checked too.  A pivot that is a zero
divisor splits f, and each factor's branch goes on from that column.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, lcm
from operator import mul
from typing import Optional

from .polynomials import Poly, _exact_div, _gcd, check_modulus

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


def _eliminate(rows: list[list[int]]) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of an integer matrix, in place.

    Returns the pivot columns, in increasing order, and the number of row
    swaps.  The top len(pivots) rows are left in echelon form and the others
    zero.  Each entry below a pivot row is a minor of the input (Sylvester's
    identity), so every division by the previous pivot is exact; one that is
    not raises ArithmeticError.
    """
    nr = len(rows)
    pivots: list[int] = []
    swaps, prev = 0, 1
    for c in range(len(rows[0]) if nr else 0):
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


def _det_in_place(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, eliminated in place: the last
    pivot of its elimination, signed by the row swaps, or 0 when the rank
    is short."""
    n = len(rows)
    pivots, swaps = _eliminate(rows)
    if len(pivots) < n:
        return 0
    return (-1) ** swaps * rows[-1][-1] if n else 1


def det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix, which is left as it is."""
    return _det_in_place([list(row) for row in rows])


def solve_int(a: list[list[int]], b: list[int]) -> Optional[tuple[list[int], int]]:
    """A solution of the square integer system a x = b as integer
    numerators over one common denominator, (y, den) with x = y / den in
    lowest terms and den > 0; None if the system has none.

    A sparse elimination over Z that keeps each row primitive.  The unknowns
    are taken fewest nonzeros first; each one's pivot is the remaining row
    with the smallest nonzero |entry| in its column (the first on ties).
    Only rows with a nonzero head h are updated, to (piv/g) row - (h/g) top
    with g = gcd(piv, h), and then divided by their content.  An unknown no
    remaining row has is free, and set to 0 by the row x = 0 in its place;
    a row left without a pivot but with a nonzero right-hand side makes the
    system inconsistent.  A nonsingular a has no free unknown and one
    solution.  Back substitution runs over one common denominator.  The
    result is checked on every row, a y == den b, and a residual raises
    ArithmeticError.
    """
    n = len(a)
    counts = [sum(map(bool, col)) for col in zip(*a)]
    order = sorted(range(n), key=counts.__getitem__)
    # Column k of these rows is unknown order[k].  Eliminating an unknown
    # drops its column from every row left, so each row starts at its head.
    rest = [[*map(row.__getitem__, order), x] for row, x in zip(a, b)]
    echelon = []
    for k in range(n):
        heads = [abs(row[0]) or inf for row in rest]
        least = min(heads)
        top = rest.pop(heads.index(least)) if least < inf else [1] + [0] * (n - k)
        echelon.append(top)
        piv, tail = top[0], top[1:]
        for i, row in enumerate(rest):
            head = row[0]
            if head:
                g = gcd(piv, head)
                p, h = piv // g, head // g
                row = [p * x - h * t for x, t in zip(row[1:], tail)]
                content = gcd(*row)
                rest[i] = [x // content for x in row] if content > 1 else row
            else:
                del row[0]
    if any(row[0] for row in rest):
        return None
    # ys: the unknowns after the current one, in order, as numerators over den
    ys, den = [], 1
    for top in reversed(echelon):
        s = den * top[-1] - sum(map(mul, top[1:-1], ys))
        g = gcd(s, top[0])
        scale = top[0] // g
        if scale != 1:
            den *= scale
            ys = [v * scale for v in ys]
        ys.insert(0, s // g)
    g = gcd(den, *ys)
    if den < 0:
        g = -g
    y = [0] * n
    for c, v in zip(order, ys):
        y[c] = v // g
    den //= g
    if any(sum(map(mul, row, y)) != den * x for row, x in zip(a, b)):
        raise ArithmeticError("solution fails the system")
    return y, den


def rank_rational(m) -> int:
    """Exact rank of a matrix with rational entries."""
    dimensions(m)
    return len(_eliminate(_integer_rows(m))[0])


def _mul_matrix(a: list[int], f: list[int]) -> list[tuple[int, ...]]:
    """The rows of the multiplication matrix of a in Z[y]/(f), for f monic of
    degree d and a of length d: column k holds the coefficients of a * y^k
    mod f, so the matrix times the coefficients of b gives those of a * b."""
    cols = [a]
    for _ in range(len(f) - 2):
        v = cols[-1]
        cols.append([x - v[-1] * c for x, c in zip([0, *v[:-1]], f)])
    return list(zip(*cols))


def _reduce(v: list[int], f: list[int]) -> list[int]:
    """The coefficients of v mod a monic integer f, padded to deg f."""
    v, d = list(v), len(f) - 1
    for i in range(len(v) - 1, d - 1, -1):
        for j in range(d):
            v[i - d + j] -= v[i] * f[j]
    return v[:d] + [0] * (d - len(v))


def rank_algebraic(m, modulus: Poly) -> list[tuple[Poly, int]]:
    """Rank of a matrix over Q[x]/(modulus), branch by branch.

    Entries are Polys in x, the class of a root theta of the modulus, or
    ints and Fractions.  The modulus is made monic and must be squarefree of
    degree >= 1 (``check_modulus``).  Returns (branch modulus, rank) pairs;
    the branch moduli are pairwise coprime, monic, and multiply back to the
    modulus.

    The elimination is ``_eliminate``'s, run over Z[eta] with eta = s * theta
    a root of the monic integer F(y) = s^d modulus(y / s).  A step divides by
    the previous pivot as a product with its inverse N / D and an exact
    division by the integer D, N / D the ``solve_int`` solution of a x = 1
    for the pivot a.  That system is solvable exactly when a is a unit,
    which is exactly when its multiplication matrix is nonsingular.  A
    pivot with no inverse is a zero divisor: F splits by a gcd (the D5
    principle), and each factor goes on from the same column as its own
    branch.
    """
    nr, nc = dimensions(m)
    f = check_modulus(modulus)
    d = f.degree
    s = lcm(*(c.denominator for c in f.coeffs))
    reduced: dict = {}
    rows = []
    for row in m:
        # by identity: U's entries repeat as objects, and a Poly hashes slowly
        for e in row:
            if id(e) not in reduced:
                red = (e if isinstance(e, Poly) else Poly((e,))) % f
                reduced[id(e)] = [red[i] / s**i for i in range(d)]
        entries = [reduced[id(e)] for e in row]
        scale = lcm(*(c.denominator for v in entries for c in v))
        rows.append([[c.numerator * (scale // c.denominator) for c in v] for v in entries])

    def go(rows, F: list[int], r: int, c0: int, N: list[int], D: int) -> list:
        k = len(F) - 1
        for c in range(c0, nc):
            if r == nr:
                break
            p = next((i for i in range(r, nr) if any(rows[i][c])), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            top = rows[r]
            mul_piv = _mul_matrix(top[c], F)
            inverse = solve_int(mul_piv, [1] + [0] * (k - 1))
            if inverse is None:
                a = list(top[c])
                while not a[-1]:
                    a.pop()
                # a divisor of the monic F is a multiple of a monic integer one
                g = _gcd(F, a)
                g = [x // g[-1] for x in g]
                out = []
                for G in (g, _exact_div(F, g)):
                    out += go([[_reduce(e, G) for e in row] for row in rows], G, r, c,
                              _reduce(N, G), D)
                return out
            # new entry = (piv * a - h * b) * N / D = (piv N) a - h (N b), over D
            mul_n = _mul_matrix(N, F)
            piv_n = _mul_matrix([sum(map(mul, t, N)) for t in mul_piv], F)
            top_n = [[sum(map(mul, t, b)) for t in mul_n] for b in top[c + 1:]]
            for row in rows[r + 1:]:
                both = [t + u for t, u in zip(piv_n, _mul_matrix([-x for x in row[c]], F))]
                for j, b in enumerate(top_n, c + 1):
                    v, new = row[j] + b, []
                    for t in both:
                        q, rem = divmod(sum(map(mul, t, v)), D)
                        if rem:
                            raise ArithmeticError("fraction-free elimination step not exact")
                        new.append(q)
                    row[j] = new
                row[c] = [0] * k
            N, D = inverse
            r += 1
        return [(F, r)]

    F = [int(c * s ** (d - i)) for i, c in enumerate(f.coeffs)]
    branches = [
        (Poly(Fraction(c, s ** (len(G) - 1 - i)) for i, c in enumerate(G)), r)
        for G, r in go(rows, F, 0, 0, [1] + [0] * (d - 1), 1)
    ]
    return sorted(branches, key=lambda br: (br[0].degree, br[0].coeffs))


def charpoly(m: list[list[int]]) -> list[int]:
    """The coefficients of det(xI - m), lowest degree first, for a square
    integer matrix m: one fraction-free determinant read off in w-bit slots.

    With R the largest absolute row sum of m, every eigenvalue has |lambda|
    <= R, so each coefficient, an elementary symmetric function of the
    eigenvalues, has |c_i| <= (1 + R)^n.  w is one bit more than that bound
    takes, so each c_i fits a signed w-bit slot of p(2^w) = det(2^w I - m),
    which ``_det_in_place`` computes on the matrix built here.
    """
    n, nc = dimensions(m)
    if n != nc:
        raise ValueError("characteristic polynomial of a non-square matrix")
    bound = (1 + max((sum(map(abs, row)) for row in m), default=0)) ** n
    w = bound.bit_length() + 1
    x = 1 << w
    v = _det_in_place([[x - e if i == j else -e for j, e in enumerate(row)] for i, row in enumerate(m)])
    half, mask = x >> 1, x - 1
    coeffs = []
    for _ in range(n + 1):
        c = ((v + half) & mask) - half
        coeffs.append(c)
        v = (v - c) >> w
    return coeffs
