from fractions import Fraction

from hypothesis import given, strategies as st

from murlab.polynomials import Poly, integer_roots, poly_gcd, squarefree_decomposition
from helpers import root_multiplicity, x_minus


def P(*coeffs):
    """Polynomial from coefficients, lowest degree first."""
    return Poly(coeffs)


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
    assert squarefree_decomposition(P(0, 0, -4, 0, 1)) == [(P(-4, 0, 1), 1), (P(0, 1), 2)]


def test_squarefree_cubic():
    p = P(1, 1) * P(1, 1) * P(-2, 1)
    assert squarefree_decomposition(p) == [(P(-2, 1), 1), (P(1, 1), 2)]


def test_squarefree_of_squarefree():
    p = P(-6, 1, 1)  # (x - 2)(x + 3)
    assert squarefree_decomposition(p * 5) == [(p, 1)]


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
    for g, e in squarefree_decomposition(p):
        for _ in range(e):
            rebuilt = rebuilt * g
    assert rebuilt == p
