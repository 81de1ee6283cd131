"""Rank over Q[x]/(f) by fraction-free elimination on integer coefficient
vectors.

The polynomial elimination it replaced is kept here verbatim as the
reference, and its inversion by extended Euclid in ``helpers``.
"""

import inspect
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import SplitRequired, inverse_mod, x_minus
from murlab import matrices
from murlab.engine import ParamPoint, graph_facts, universal_matrix
from murlab.graphs import p_prime
from murlab.matrices import dimensions, rank_algebraic, rank_rational
from murlab.polynomials import Poly, check_modulus, squarefree_decomposition

X = Poly.x()


def reference_rank_algebraic(m, modulus: Poly) -> list[tuple[Poly, int]]:
    """Rank of a matrix over Q[x]/(modulus), branch by branch, by
    elimination on polynomials reduced mod each branch modulus."""
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


# Irreducible factors over Q, some with non-integer coefficients; a product
# of distinct ones is squarefree, and reducible when it has two or more.
FACTORS = [
    Poly((-1, 1)),
    Poly((2, 1)),
    Poly((0, 1)),
    Poly((Fraction(-1, 2), 1)),
    Poly((Fraction(1, 3), 1)),
    Poly((-2, 0, 1)),
    Poly((1, 0, 1)),
    Poly((-1, -1, 1)),
    Poly((Fraction(-1, 2), 0, 1)),
    Poly((Fraction(1, 3), Fraction(-1, 2), 1)),
    Poly((1, -2, -1, 1)),
]

small = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def moduli(draw):
    factors = draw(st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3, unique=True))
    f = Poly((draw(st.sampled_from([1, 2, Fraction(1, 3)])),))
    for g in factors:
        f = f * g
    return f, factors


@st.composite
def matrices_over(draw, factors):
    """Matrices up to 5 x 6 of Polys (of any degree, some multiples of a
    factor of the modulus, so zero divisors), ints and Fractions; some with a
    row that combines others."""
    d = sum(g.degree for g in factors)
    polys = st.lists(small, max_size=d + 3).map(Poly)
    zero_divisors = st.tuples(polys, st.sampled_from(factors)).map(lambda t: t[0] * t[1])
    entries = st.one_of(st.integers(-3, 3), small, polys, zero_divisors)
    nr, nc = draw(st.integers(0, 5)), draw(st.integers(0, 6))
    m = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=nr - 1, max_size=nr - 1))
        m[draw(st.integers(0, nr - 1))] = [
            sum(row[j] * c for c, row in zip(coeffs, m)) for j in range(nc)
        ]
    return m


@settings(max_examples=300, deadline=None)
@given(moduli(), st.data())
def test_branches_and_ranks_match_the_reference(modulus, data):
    f, factors = modulus
    m = data.draw(matrices_over(factors))
    assert rank_algebraic(m, f) == reference_rank_algebraic(m, f)


def test_a_split_after_a_pivot_goes_on_from_its_column():
    # Over x (x - 1) the first pivot theta + 2 is a unit of norm 6; the next,
    # (theta + 2) / 2 - 1, vanishes at theta = 0 only, so F splits at column 1
    # with a previous pivot other than 1.
    f = Poly((0, -1, 1))
    m = [[X + 2, 1, 0], [1, Fraction(1, 2), X], [0, 1, 1]]
    want = [(Poly((-1, 1)), 3), (Poly((0, 1)), 2)]
    assert rank_algebraic(m, f) == reference_rank_algebraic(m, f) == want


def test_monic_modulus_with_fractions():
    # theta^2 = 1/2, so det [[theta, 1], [1, 2 theta]] = 2 theta^2 - 1 = 0
    f = Poly((Fraction(-1, 2), 0, 1))
    m = [[X, 1], [1, X * 2]]
    assert rank_algebraic(m, f) == reference_rank_algebraic(m, f) == [(f, 1)]
    # the same over x^2 - 2, where it is nonsingular
    g = Poly((-2, 0, 1))
    assert rank_algebraic(m, g) == reference_rank_algebraic(m, g) == [(g, 2)]


def laplacian_points(g):
    """(f, point) for each squarefree factor f of degree >= 2 of g's
    Laplacian spectrum: the points ``_refine_algebraic`` ranks."""
    _, rest = graph_facts(g).laplacian_split
    for f, _ in squarefree_decomposition(rest):
        if len(f) >= 3:
            yield Poly(f).monic(), ParamPoint(X, X * Fraction(-1, g.n), Poly((-1,)))


def test_every_p_prime_laplacian_point_matches_the_reference():
    tried = 0
    for n in range(4, 13):
        g = p_prime(n)
        for f, p in laplacian_points(g):
            m = universal_matrix(g, p)
            want = reference_rank_algebraic(m, f)
            assert rank_algebraic(m, f) == want
            assert {r for _, r in want} == {n - 1}
            tried += 1
    assert tried == 9


@settings(max_examples=200, deadline=None)
@given(small, st.integers(0, 5), st.integers(0, 6), st.data())
def test_a_linear_modulus_ranks_the_matrix_at_its_root(a, nr, nc, data):
    # Q[x]/(x - a) is Q with theta = a, so the rank is rank_rational's there
    entries = st.one_of(st.integers(-3, 3), small, st.lists(small, max_size=3).map(Poly))
    m = data.draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    f = x_minus(a)
    at_a = [[(e % f)[0] if isinstance(e, Poly) else e for e in row] for row in m]
    assert rank_algebraic(m, f) == [(f, rank_rational(at_a))]


@pytest.mark.parametrize(
    "m, rank",
    [
        ([], 0),
        ([[]], 0),
        ([[0, 0, 0], [0, 0, 0]], 0),
        ([[Poly(), X * X - 2, 0]], 0),
        ([[0, X, 1, 0]], 1),
        ([[X], [1], [X * X]], 1),
    ],
)
def test_edge_cases(m, rank):
    f = Poly((-2, 0, 1))
    assert rank_algebraic(m, f) == reference_rank_algebraic(m, f) == [(f, rank)]


def planted(monkeypatch, old, new):
    """Replace ``matrices.rank_algebraic`` by a copy with one fault planted."""
    source = textwrap.dedent(inspect.getsource(matrices.rank_algebraic))
    assert source.count(old) == 1
    namespace = dict(vars(matrices))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(matrices, "rank_algebraic", namespace["rank_algebraic"])


# The integer matrix of test_elimination.py with theta added to its corner;
# over Q[x]/(x^2 - 2) it is nonsingular.
M = [[X + 3, 1, 1, 1], [1, 3, 0, 2], [1, 0, 3, 0], [1, 2, 0, 1]]
F = Poly((-2, 0, 1))


def test_the_unplanted_copy_is_exact(monkeypatch):
    planted(monkeypatch, "N, D = inverse", "N, D = inverse")
    assert matrices.rank_algebraic(M, F) == reference_rank_algebraic(M, F) == [(F, 4)]


@pytest.mark.parametrize(
    "old, new",
    [
        # the previous pivot kept at the first one
        ("N, D = inverse", "N, D = inverse if r == 0 else (N, D)"),
        # each step divides by its own pivot instead of the one before
        ("            mul_n = ", "            N, D = inverse\n            mul_n = "),
    ],
)
def test_a_planted_wrong_previous_pivot_raises(monkeypatch, old, new):
    planted(monkeypatch, old, new)
    with pytest.raises(ArithmeticError):
        matrices.rank_algebraic(M, F)
