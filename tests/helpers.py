"""Helpers shared by several test modules."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from murlab.graphs import Graph
from murlab.polynomials import Poly


def graphs_strategy(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        ).map(lambda pairs: Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
    )


def friendship(k):
    """k triangles sharing vertex 0."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * k + 1, edges)


def atlas7():
    nx = pytest.importorskip("networkx")
    return [
        Graph.from_edges(7, list(g.edges())) for g in nx.graph_atlas_g() if g.number_of_nodes() == 7
    ]


def _gauss_jordan(a, b):
    """x with a x = b by Gauss-Jordan elimination over the rationals; None
    if a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


# The Q[x]/(f) inversion by extended Euclid that rank_algebraic's integer
# elimination replaced, kept verbatim as the oracle of its reference loop.
def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = Poly((1,)), Poly()
    v0, v1 = Poly(), Poly((1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.leading()
    inv = 1 / lead
    return r0.monic(), u0 * inv, v0 * inv


class SplitRequired(Exception):
    """Raised when inverting a zero divisor mod f: f = f1 * f2, with f1 and
    f2 monic, coprime and of degree >= 1."""

    def __init__(self, f1: Poly, f2: Poly):
        super().__init__("zero divisor encountered; modulus splits")
        self.f1, self.f2 = f1, f2


def inverse_mod(a: Poly, f: Poly) -> Poly:
    """The inverse of a in Q[x]/(f), reduced mod f, for a monic squarefree f.

    A zero divisor a exposes the split f = gcd(a, f) * (f / gcd(a, f)) and
    raises SplitRequired with the two factors.
    """
    a = a % f
    if a.is_zero():
        raise ZeroDivisionError("inverting zero in every branch")
    g, u, _ = poly_ext_gcd(a, f)
    if g.degree > 0:
        raise SplitRequired(g, f.exact_div(g).monic())
    return u % f
