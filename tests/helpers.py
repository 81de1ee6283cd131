"""Helpers shared by several test modules."""

from fractions import Fraction

import pytest
from hypothesis import strategies as st

from murlab.graphs import Graph


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
