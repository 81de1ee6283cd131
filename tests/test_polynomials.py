"""Dense polynomials, integer roots, and the integer gcd and squarefree
decomposition.

The Fraction gcd and Yun loop that the integer kernel replaced are kept
here verbatim as references (the gcd renamed)."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from murlab import polynomials
from murlab.engine import laplacian
from murlab.matrices import charpoly
from murlab.polynomials import (
    Poly, _integers, integer_roots, poly_gcd, squarefree_decomposition,
)
from murlab.verify import family_checks
from helpers import atlas7, root_multiplicity, x_minus


def reference_poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def reference_squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm over the rationals.

    Returns monic, squarefree, pairwise coprime factors with strictly
    increasing exponents such that p equals its leading coefficient times
    the product of factor**exponent.
    """
    if p.is_zero():
        raise ValueError("squarefree decomposition of the zero polynomial")
    p = p.monic()
    if p.degree < 1:
        return []
    d = p.derivative()
    g = reference_poly_gcd(p, d)
    if g.degree == 0:
        return [(p, 1)]
    out: list[tuple[Poly, int]] = []
    w = p.exact_div(g)
    y = d.exact_div(g)
    z = y - w.derivative()
    i = 1
    while w.degree > 0:
        gi = reference_poly_gcd(w, z)
        if gi.degree > 0:
            out.append((gi, i))
            w = w.exact_div(gi)
            z = z.exact_div(gi)
        y = z
        z = y - w.derivative()
        i += 1
    return out


def P(*coeffs):
    """Polynomial from coefficients, lowest degree first."""
    return Poly(coeffs)


def decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """The integer kernel's decomposition of p, its denominators cleared,
    with each factor checked primitive and made monic for comparison."""
    out = []
    for f, e in squarefree_decomposition(_integers(p)):
        assert all(type(c) is int for c in f) and f[-1] > 0 and gcd(*f) == 1, f
        out.append((Poly(f).monic(), e))
    return out


def test_gcd_shared_root():
    assert poly_gcd(P(-1, 0, 1), P(-1, 1)) == P(-1, 1)


def test_gcd_with_derivative():
    # x^3 - 3x - 2 = (x - 2)(x + 1)^2
    assert poly_gcd(P(-2, -3, 0, 1), P(-3, 0, 3)) == P(1, 1)


def test_gcd_with_zero_is_monic():
    p = P(2, 4)
    assert poly_gcd(p, Poly()) == P(Fraction(1, 2), 1)
    assert poly_gcd(Poly(), Poly()) == Poly()


def test_squarefree_charpoly_shape():
    # x^4 - 4x^2 = x^2 (x^2 - 4)
    assert squarefree_decomposition([0, 0, -4, 0, 1]) == [([-4, 0, 1], 1), ([0, 1], 2)]


def test_squarefree_cubic():
    p = P(1, 1) * P(1, 1) * P(-2, 1)
    assert squarefree_decomposition(_integers(p)) == [([-2, 1], 1), ([1, 1], 2)]


def test_squarefree_of_squarefree():
    p = P(-6, 1, 1)  # (x - 2)(x + 3)
    assert squarefree_decomposition(_integers(p * 5)) == [([-6, 1, 1], 1)]
    # primitive factors, each with a positive leading coefficient
    # -2 (2x - 3) (x + 1)^2
    assert squarefree_decomposition([6, 8, -2, -4]) == [([-3, 2], 1), ([1, 1], 2)]
    assert squarefree_decomposition([7]) == []
    with pytest.raises(ValueError):
        squarefree_decomposition([])


def test_integer_roots():
    # (x + 1)(x - 1)(x - 2)^2 = x^4 - 4x^3 + 3x^2 + 4x - 4
    assert integer_roots([-4, 4, 3, -4, 1]) == [(-1, 1), (1, 1), (2, 2)]
    assert integer_roots([0, 0, -4, 0, 1]) == [(-2, 1), (0, 2), (2, 1)]
    assert integer_roots([1, 0, 1]) == []
    # (x + 12)(x - 5): -12 lies beyond max_k |c_(n-k)|^(1/k), within twice it
    assert integer_roots([-60, 7, 1]) == [(-12, 1), (5, 1)]
    assert integer_roots([1]) == []


@given(
    st.lists(st.integers(-9, 9), max_size=5),
    st.lists(st.integers(-10, 10), min_size=2, max_size=2),
)
def test_integer_roots_with_multiplicity(roots, quadratic):
    # A product of linear factors and a monic quadratic: its integer roots
    # lie within 11 of 0, so a scan of -30..30 finds every one.
    p = P(*quadratic, 1)
    for r in roots:
        p = p * P(-r, 1)
    want = [(y, e) for y in range(-30, 31) if (e := root_multiplicity(p, y)[0])]
    assert integer_roots([int(c) for c in p.coeffs]) == want


coeffs = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=6), max_size=6)


@given(coeffs, coeffs)
def test_add_sub_roundtrip(a, b):
    pa, pb = Poly(a), Poly(b)
    assert (pa + pb) - pb == pa


@given(coeffs, coeffs)
def test_divmod_identity(a, b):
    pa, pb = Poly(a), Poly(b)
    if pb.is_zero():
        return
    q, r = divmod(pa, pb)
    assert q * pb + r == pa
    assert r.degree < pb.degree


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(1, 3)), min_size=1, max_size=3
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
)
def test_squarefree_reconstructs(factors, scale):
    if scale == 0:
        scale = Fraction(1)
    # distinct roots only, to keep the true decomposition knowable
    roots = {}
    for r, e in factors:
        roots[r] = max(roots.get(r, 0), e)
    p = Poly((scale,))
    for r, e in roots.items():
        for _ in range(e):
            p = p * x_minus(r)
    rebuilt = Poly((p.leading(),))
    for g, e in decomposition(p):
        for _ in range(e):
            rebuilt = rebuilt * g
    assert rebuilt == p


small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
factor = st.lists(small, min_size=1, max_size=3).map(lambda cs: Poly([*cs, 1]))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(factor, st.integers(1, 4)), min_size=1, max_size=4),
    small.filter(bool),
    factor,
)
def test_integer_kernel_matches_the_rational_reference(planted, scale, other):
    # Rational factors of degree 1 to 3 (some may share roots) planted with
    # repeats: the integer kernel gives the rational loop's factors.
    p = Poly((scale,))
    for f, e in planted:
        for _ in range(e):
            p = p * f
    assert decomposition(p) == reference_squarefree_decomposition(p)
    for a, b in ((p, p.derivative()), (p, other * planted[0][0]), (other, p), (p * 3, Poly())):
        assert poly_gcd(a, b) == reference_poly_gcd(a, b)


def test_integer_kernel_on_the_laplacian_polynomials():
    graphs = atlas7() + [g for _, g, _ in family_checks()]
    for g in graphs:
        p = Poly(charpoly(laplacian(g)))
        assert decomposition(p) == reference_squarefree_decomposition(p), g
        assert poly_gcd(p, p.derivative()) == reference_poly_gcd(p, p.derivative()), g


def test_inexact_division_raises(monkeypatch):
    # 2x divides 3x and 2x + 2 divides x + 1 over Q, not over Z; x + 1 does
    # not divide x^2 + 1.
    for a, b in (([0, 3], [0, 2]), ([1, 1], [2, 2]), ([1, 0, 1], [1, 1])):
        with pytest.raises(ArithmeticError):
            polynomials._exact_div(a, b)
    assert polynomials._exact_div([2, 4, 2], [1, 1]) == [2, 2]
    # A planted wrong gcd, x + 1, which does not divide (x - 2)^2 (x - 3).
    monkeypatch.setattr(polynomials, "_gcd", lambda a, b: [1, 1])
    with pytest.raises(ArithmeticError, match="inexact"):
        squarefree_decomposition(_integers(P(-2, 1) * P(-2, 1) * P(-3, 1)))
