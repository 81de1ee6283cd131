"""Dense exact linear algebra: ranks, determinants, solves, characteristic
polynomials and ranks over Q[x]/(f).

The Berkowitz recursion the packed-determinant ``charpoly`` replaced is kept
here verbatim as a reference (renamed)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from murlab.engine import _delta_lines, _line_eigenvalues, laplacian
from murlab.graphs import complete
from murlab.matrices import (
    charpoly,
    det_int,
    dimensions,
    rank_algebraic,
    rank_rational,
    solve_int,
)
from murlab.polynomials import Poly, _integers, squarefree_decomposition
from murlab.verify import family_checks
from helpers import _gauss_jordan, assert_solves, atlas7, rational_charpoly, x_minus


def transpose(m):
    return [list(col) for col in zip(*m)]


def mat_mul(a, b):
    ra, ca = dimensions(a)
    rb, cb = dimensions(b)
    if ca != rb:
        raise ValueError("incompatible dimensions")
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


L_P3 = [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]


def test_rank_all_ones():
    assert rank_rational([[1] * 3] * 3) == 1


def test_rank_path_laplacian():
    assert rank_rational(L_P3) == 2


def test_rank_shifted_path_matrix():
    third = Fraction(1, 3)
    m = [
        [-third, 2 * third, -third],
        [2 * third, -4 * third, 2 * third],
        [-third, 2 * third, -third],
    ]
    assert rank_rational(m) == 1


def test_rank_empty_matrix():
    assert rank_rational([]) == 0


def test_rank_algebraic_rational_embedding():
    f = Poly((-1, 1))
    assert rank_algebraic([[1, 2], [Fraction(2), 4]], f) == [(f, 1)]


def test_rank_algebraic_singular_at_root():
    f = Poly((-2, 0, 1))
    theta = Poly.x()
    assert rank_algebraic([[theta, 1], [2, theta]], f) == [(f, 1)]


def test_rank_algebraic_branch_dependent():
    # diag(theta, 1) mod x^2 - x: rank 1 where theta = 0, rank 2 where theta = 1
    theta = Poly.x()
    branches = dict(rank_algebraic([[theta, 0], [0, 1]], Poly((0, -1, 1))))
    assert branches == {Poly((0, 1)): 1, Poly((-1, 1)): 2}


def test_rank_algebraic_reduces_entries_on_entry():
    # theta^2 = 2 mod x^2 - 2, so [[theta^2, 2], [1, 1]] is singular; the
    # modulus 2x^2 - 4 is made monic first
    theta = Poly.x()
    m = [[theta * theta, 2], [1, 1]]
    assert rank_algebraic(m, Poly((-4, 0, 2))) == [(Poly((-2, 0, 1)), 1)]
    assert rank_algebraic(m, Poly((-3, 0, 1))) == [(Poly((-3, 0, 1)), 2)]
    # theta^2 - 2 is zero there, so it is no pivot
    f = Poly((-2, 0, 1))
    assert rank_algebraic([[theta * theta - 2, 1], [0, theta]], f) == [(f, 1)]


def adjacency(g):
    return [[Fraction(int(g.has_edge(i, j))) for j in range(g.n)] for i in range(g.n)]


def test_charpoly_square_cycle():
    from murlab.graphs import cycle

    assert rational_charpoly(adjacency(cycle(4))) == Poly((0, 0, -4, 0, 1))


def test_charpoly_triangle():
    assert rational_charpoly(adjacency(complete(3))) == Poly((-2, -3, 0, 1))


def test_charpoly_zero_matrix():
    assert charpoly([[0] * 4 for _ in range(4)]) == [0, 0, 0, 0, 1]
    assert charpoly([]) == [1]


def test_charpoly_nonsquare_rejected():
    with pytest.raises(ValueError):
        charpoly([[1, 2, 3], [4, 5, 6]])


def test_charpoly_complete_laplacian():
    # L(K12) = 12 I - J has eigenvalue 0 once and 12 eleven times
    expected = Poly.x()
    for _ in range(11):
        expected = expected * x_minus(12)
    assert Poly(charpoly(laplacian(complete(12)))) == expected


def reference_charpoly(m) -> Poly:
    """Monic characteristic polynomial det(xI - m) by Berkowitz's recursion.

    The recursion is division-free, so it runs on the entries as they are:
    over the integers for an integer matrix, and exactly for rational ones.
    """
    nr, nc = dimensions(m)
    if nr != nc:
        raise ValueError("characteristic polynomial of a non-square matrix")
    c = [1]  # det(xI - m_r) for the leading r x r block m_r, highest degree first
    for r in range(nr):
        # With m_{r+1} = [[m_r, v], [w, m[r][r]]], det(xI - m_{r+1}) is the
        # product of c with t = (1, -m[r][r], -w v, -w m_r v, ..., -w m_r^(r-1) v),
        # truncated to degree r + 1.
        rows = [[(j, x) for j, x in enumerate(m[i][:r]) if x] for i in range(r + 1)]
        v = [m[i][r] for i in range(r)]
        t = [1, -m[r][r]]
        for _ in range(r):
            t.append(-sum(x * v[j] for j, x in rows[r]))
            v = [sum(x * v[j] for j, x in row) for row in rows[:r]]
        c = [sum(t[i - j] * c[j] for j in range(min(i, r) + 1)) for i in range(r + 2)]
    return Poly(reversed(c))


def assert_matches_the_reference(m):
    cp = charpoly(m)
    assert all(type(c) is int for c in cp) and len(cp) == len(m) + 1
    assert Poly(cp) == reference_charpoly(m), m


@st.composite
def packed_matrices(draw):
    """Integer matrices up to 15 x 15 with entries in -60..60, half of them
    symmetric."""
    n = draw(st.integers(0, 15))
    bound = draw(st.sampled_from((1, 3, 60)))
    entry = st.integers(-bound, bound)
    m = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if draw(st.booleans()):
        m = [[m[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    return m


@settings(max_examples=150, deadline=None)
@given(packed_matrices())
def test_charpoly_matches_berkowitz(m):
    assert_matches_the_reference(m)


def sylvester(k):
    """The symmetric Hadamard matrix of order 2^k: every eigenvalue is
    +-2^(k/2), so its determinant is 2^(k 2^(k-1)), far above
    (1 + its largest entry)^n = 2^(2^k) for k >= 3."""
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_charpoly_at_the_bound():
    # Spectra that reach R, the largest absolute row sum: R I_n, whose
    # constant term (-R)^n fills the top bit of a slot one bit short when R
    # is a power of two and n is even; -R J_n, whose nonzero eigenvalue -nR
    # has modulus its row sum nR; and diag(R, -R, ...).  The Sylvester
    # matrices' coefficients pass (1 + their largest entry)^n.
    for n in range(1, 16):
        for r in (1, 2, 3, 4, 7, 8, 16, 60, 64):
            diag = [r if i % 2 else -r for i in range(n)]
            for m in (
                [[r * (i == j) for j in range(n)] for i in range(n)],
                [[-r] * n for _ in range(n)],
                [[diag[i] * (i == j) for j in range(n)] for i in range(n)],
            ):
                assert_matches_the_reference(m)
    for k in range(5):
        assert_matches_the_reference(sylvester(k))
    q = Poly((-8, 0, 1))
    assert Poly(charpoly(sylvester(3))) == q * q * q * q


def test_charpoly_on_the_atlas_laplacians():
    for g in atlas7():
        assert_matches_the_reference(laplacian(g))


def test_charpoly_on_the_delta_lines():
    # every matrix _line_eigenvalues builds, on every 5th atlas graph and on
    # the family checks' graphs, up to 12 vertices
    graphs = atlas7()[::5] + [g for _, g, _ in family_checks()]
    for g in graphs:
        for delta in _delta_lines(g):
            assert_matches_the_reference(_line_eigenvalues(g, delta)[0])


def fraction_det(m):
    """Determinant by plain Gaussian elimination over the rationals."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            factor = a[i][c] / a[c][c]
            for j in range(c, n):
                a[i][j] -= factor * a[c][j]
    return det


rational_matrices = st.integers(0, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=12), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@settings(max_examples=60)
@given(rational_matrices)
def test_charpoly_matches_determinants(m):
    # A monic polynomial of degree n is fixed by its values at n + 1 points.
    n = len(m)
    cp = rational_charpoly(m)
    assert cp.degree == n and cp.leading() == 1
    for x0 in range(-3, n - 2):
        shifted = [[x0 * (i == j) - m[i][j] for j in range(n)] for i in range(n)]
        assert sum(c * x0**i for i, c in enumerate(cp.coeffs)) == fraction_det(shifted)


def _in_column_space(m, v) -> bool:
    # m x = v has a solution exactly when appending v as a column keeps the rank
    return rank_rational([list(row) + [x] for row, x in zip(m, v)]) == rank_rational(m)


def test_column_space_examples():
    assert _in_column_space([[1, 0], [0, 1]], [5, -7])
    L_P2 = [[1, -1], [-1, 1]]
    assert not _in_column_space(L_P2, [1, 1])
    shifted = [[2, 0], [0, 2]]  # L(P2) + J
    assert _in_column_space(shifted, [1, 1])


sym_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    ).map(lambda rows: [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)])
)


int_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


@settings(max_examples=50)
@given(int_matrices, st.data())
def test_det_and_solve_int(m, data):
    n = len(m)
    # the constant term of det(xI - m) is det(-m), computed by Berkowitz's recursion
    assert det_int(m) == (-1) ** n * reference_charpoly(m).coeffs[0]
    b = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    # on a singular m, None exactly when m x = b is inconsistent
    assert_solves(m, b, solve_int(m, b))


@settings(max_examples=100)
@given(int_matrices, st.data())
def test_solve_int_matches_fraction_elimination(m, data):
    n = len(m)
    if data.draw(st.booleans()):
        # make the last row a combination of the others: a singular system
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        m[-1] = [sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(n)]
    b = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    want = _gauss_jordan(m, b)
    got = solve_int(m, b)
    if want is None:
        assert_solves(m, b, got)
    else:
        # integer numerators over a positive denominator, in lowest terms
        y, den = got
        assert all(type(v) is int for v in y) and den > 0 and gcd(den, *y) == 1
        assert [Fraction(v, den) for v in y] == want


@st.composite
def rect_matrices(draw):
    """A rectangular integer product u v, u nr x k and v k x nc, so its rank
    is often below min(nr, nc)."""
    nr, k, nc = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 6))
    entry = st.integers(-3, 3)
    u = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=nr, max_size=nr))
    v = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=k, max_size=k))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*v)] for row in u]


@given(rect_matrices())
def test_rank_transpose_invariant(m):
    assert rank_rational(m) == rank_rational(transpose(m))


@settings(max_examples=30)
@given(sym_matrices)
def test_cayley_hamilton(m):
    n = len(m)
    cp = rational_charpoly(m)
    acc = [[Fraction(0)] * n for _ in range(n)]
    power = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in cp.coeffs:
        for i in range(n):
            for j in range(n):
                acc[i][j] += c * power[i][j]
        power = mat_mul(power, [[Fraction(x) for x in row] for row in m])
    assert all(x == 0 for row in acc for x in row)


@given(sym_matrices)
def test_charpoly_degree_accounting(m):
    cp = _integers(rational_charpoly(m))
    total = sum((len(f) - 1) * e for f, e in squarefree_decomposition(cp))
    assert total == len(m)


@settings(max_examples=25)
@given(st.data())
def test_shifted_column_space_membership(data):
    # For symmetric A with e outside col(A), e is in col(A + gamma*J) for
    # any nonzero gamma.
    n = data.draw(st.integers(2, 5))
    cols = data.draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    a = [
        [
            Fraction(sum(col[i] * col[j] for col in cols))
            for j in range(n)
        ]
        for i in range(n)
    ]
    e = [Fraction(1)] * n
    if _in_column_space(a, e):
        return
    gamma = data.draw(st.fractions(min_value=-5, max_value=5, max_denominator=3))
    if gamma == 0:
        gamma = Fraction(1)
    shifted = [[a[i][j] + gamma for j in range(n)] for i in range(n)]
    assert _in_column_space(shifted, e)
