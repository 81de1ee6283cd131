"""One Laplacian spectrum per graph.

L(complement) = nI - J - L(G) (Merris, Laplacian matrices of graphs: a
survey, 1994), so the multiplicity that ``GraphFacts`` reads off the
Laplacian characteristic polynomial of G serves both sides, and the
regular-graph formula.  The per-side and adjacency-spectrum computations
it replaced are kept here as references.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from murlab import engine
from murlab.engine import (
    Budget,
    Certificate,
    EngineError,
    MurResult,
    _refine_algebraic,
    compute_mur,
    graph_facts,
    regular_mur,
)
from murlab.graphs import (
    Graph,
    complete_bipartite,
    disjoint_union,
    empty,
    p_prime,
    parse_graph6,
    path,
    petersen,
)
from murlab.matrices import charpoly
from murlab.polynomials import Poly, _integers, squarefree_decomposition
from murlab.report import build_report, replay_report
from helpers import atlas7, component_count, graphs_strategy, root_multiplicity


def reference_laplacian_max_multiplicity(cp: Poly) -> int:
    """Maximum multiplicity among the nonzero roots of a Laplacian charpoly."""
    _, rest = root_multiplicity(cp, Fraction(0))
    if rest.degree < 1:
        return 0
    return max(e for _, e in squarefree_decomposition(_integers(rest)))


def reference_regular_mur(g: Graph) -> int:
    """The regular-graph formula from adjacency eigenvalue multiplicities."""
    degs = g.degrees()
    if not degs:
        return 0
    r, n = degs[0], g.n
    assert all(d == r for d in degs)
    adj = [[int(g.has_edge(i, j)) for j in range(n)] for i in range(n)]
    cp = Poly(charpoly(adj))
    c = component_count(g)
    mult_r, rest = root_multiplicity(cp, Fraction(r))
    assert mult_r == c, "degree eigenvalue multiplicity does not match components"
    exps = [e for _, e in squarefree_decomposition(_integers(rest))] if rest.degree >= 1 else []
    m = max(exps, default=0)
    if c == 1:
        return n - (m + 1)
    # Orthogonally to the all-ones vector the degree eigenvalue survives
    # with multiplicity c-1.
    return n - 1 - max(m, c - 1)


def assert_multiplicity_serves_each_connected_side(g: Graph):
    facts = graph_facts(g)
    for side in (g, facts.complement):
        if component_count(side) == 1 and g.n >= 2:
            want = reference_laplacian_max_multiplicity(Poly(charpoly(engine.laplacian(side))))
            assert facts.multiplicity == want, side


def test_laplacian_split_on_the_seven_vertex_atlas():
    for g in atlas7():
        c, q = graph_facts(g).laplacian_split
        assert c == component_count(g) and q[0] != 0, g
        assert Poly([0] * c + [1]) * Poly(q) == Poly(charpoly(engine.laplacian(g))), g


def test_multiplicity_on_the_seven_vertex_atlas():
    graphs = atlas7()
    assert len(graphs) == 1044
    for g in graphs:
        assert_multiplicity_serves_each_connected_side(g)


@settings(max_examples=150, deadline=None)
@given(graphs_strategy(10))
def test_multiplicity_on_random_graphs(g):
    assert_multiplicity_serves_each_connected_side(g)


def circulant(n: int, jumps) -> Graph:
    return Graph.from_edges(n, [(i, (i + s) % n) for i in range(n) for s in jumps])


def circulants():
    for n in range(3, 13):
        for mask in range(1 << n // 2):
            yield circulant(n, [s for s in range(1, n // 2 + 1) if mask >> (s - 1) & 1])


def test_regular_mur_matches_the_adjacency_formula():
    graphs = [petersen(), complete_bipartite(4, 4), empty(0)]
    for g in circulants():
        graphs += [g, g.complement(), disjoint_union([g, g])]
    for g in graphs:
        assert regular_mur(g) == reference_regular_mur(g), g
    with pytest.raises(EngineError):
        regular_mur(path(4))


@pytest.fixture
def laplacian_calls(monkeypatch):
    """The number of characteristic polynomials taken of L(G) or of -L(G)
    = A - D since the last reset(G), which also forgets the facts of the
    last graph."""
    calls, laplacians = [0], []
    take = engine.charpoly

    def counting(m):
        calls[0] += m in laplacians
        return take(m)

    monkeypatch.setattr(engine, "charpoly", counting)

    def reset(g):
        engine.graph_facts.cache_clear()
        lap = engine.laplacian(g)
        laplacians[:] = [lap, [[-x for x in row] for row in lap]]
        calls[0] = 0

    return calls, reset


def test_one_laplacian_per_graph(laplacian_calls, monkeypatch):
    calls, reset = laplacian_calls
    reached = [0]
    upper = engine.structural_upper

    def counting_upper(g):
        reached[0] += 1
        return upper(g)

    monkeypatch.setattr(engine, "structural_upper", counting_upper)
    docs = []
    graphs = atlas7()[::20] + [petersen(), circulant(8, [1, 3]), parse_graph6("FHCG_")]
    for g in graphs:
        reset(g)
        reached[0] = 0
        res = compute_mur(g, Budget())
        assert calls[0] <= 1, g
        if reached[0]:  # a graph that reaches the upper bounds builds one
            assert calls[0] == 1, g
        docs.append(build_report(g, res, Budget(), 0.0))
    for n in (4, 6):
        g = p_prime(n)
        reset(g)
        res = compute_mur(g)
        upper_bound, ucert = _refine_algebraic(g, 0, g.n, Certificate("trivial"))
        assert "modulus" in ucert.data and calls[0] <= 1, g
        res = MurResult(res.lower, res.lower_cert, upper_bound, ucert)
        docs.append(build_report(g, res, Budget(), 0.0))
    kinds = set()
    for doc in docs:
        reset(parse_graph6(doc["graph"]["graph6"]))
        assert all(c.ok for c in replay_report(doc))
        assert calls[0] <= 1, doc["graph"]["graph6"]
        kinds.add(doc["upper_certificate"]["kind"])
    assert {"laplacian_multiplicity", "explicit_params"} <= kinds
