import math

import pytest
from hypothesis import given, strategies as st

from murlab.graphs import (
    Graph,
    Graph6Error,
    GraphError,
    clique_isolated_apex,
    complete,
    complete_bipartite,
    component_masks,
    cycle,
    diameter,
    disjoint_union,
    earlier_twins,
    empty,
    encode_graph6,
    parse_edge_list,
    parse_graph6,
    path,
    p_prime,
    petersen,
    star,
)
from helpers import atlas7


def test_parse_star():
    g = parse_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]


def test_parse_singleton():
    g = parse_graph6("@")
    assert g.n == 1 and g.edges() == []


def test_parse_single_edge():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges() == [(0, 1)]


def test_parse_header():
    assert parse_graph6(">>graph6<<A_") == parse_graph6("A_")


def test_parse_errors_carry_offset():
    with pytest.raises(Graph6Error):
        parse_graph6("A")  # truncated payload
    with pytest.raises(Graph6Error):
        parse_graph6("B\x07")  # invalid character
    with pytest.raises(Graph6Error):
        parse_graph6("A`")  # nonzero padding bits
    with pytest.raises(Graph6Error):
        parse_graph6("")


def graphs_strategy(max_n=9):
    return st.integers(0, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))),
            max_size=2 * n,
        ).map(
            lambda pairs: Graph.from_edges(
                n, [(u, v) for u, v in pairs if u != v]
            )
        )
    )


@given(graphs_strategy())
def test_graph6_roundtrip(g):
    assert parse_graph6(encode_graph6(g)) == g


def test_graph6_long_form_roundtrip():
    g = star(64)
    assert parse_graph6(encode_graph6(g)) == g


@given(graphs_strategy())
def test_complement_involution(g):
    assert g.complement().complement() == g
    degs = g.degrees()
    cdegs = g.complement().degrees()
    assert all(d + cd == g.n - 1 for d, cd in zip(degs, cdegs))


@given(graphs_strategy())
def test_earlier_twins_match_the_definition(g):
    # t ~ v when N(t) = N(v) or N[t] = N[v]; entry v holds the twins t < v,
    # the same on both sides, and swapping two twins is an automorphism.
    def twins(t, v):
        return g.rows[t] == g.rows[v] or g.rows[t] | 1 << t == g.rows[v] | 1 << v

    want = [sum(1 << t for t in range(v) if twins(t, v)) for v in range(g.n)]
    assert earlier_twins(g) == want
    assert earlier_twins(g.complement()) == want
    for v, before in enumerate(want):
        for t in range(v):
            if before >> t & 1:
                swap = list(range(g.n))
                swap[t], swap[v] = v, t
                assert g.induced_subgraph(swap) == g


def test_generators():
    assert complete(4).complement() == empty(4)
    assert path(1) == empty(1)
    assert sorted(p_prime(4).edges()) == [(0, 1), (1, 2), (2, 3), (2, 4)]
    assert star(5) == complete_bipartite(1, 4)
    assert petersen().degrees() == [3] * 10
    with pytest.raises(GraphError):
        cycle(2)
    with pytest.raises(GraphError):
        p_prime(2)


def test_join_apex_shape():
    # the join of K1 and K4 + 3K1, as the complement of the union of complements
    g = disjoint_union([empty(1), disjoint_union([complete(4), empty(3)]).complement()]).complement()
    assert g.n == 8
    assert sorted(g.degrees()) == [1, 1, 1, 4, 4, 4, 4, 7]
    h = clique_isolated_apex(4, 3)
    assert sorted(h.degrees()) == sorted(g.degrees())


def test_components():
    g = disjoint_union([complete(3), complete(4)])
    assert component_masks(g, 0b1111111) == [0b111, 0b1111000]
    assert component_masks(path(6), 0b111111) == [0b111111]
    assert component_masks(empty(5), 0b11111) == [1, 2, 4, 8, 16]
    # induced on a vertex mask: P6 less vertices 2 and 4 is P2 + K1 + K1
    assert component_masks(path(6), 0b101011) == [0b11, 0b1000, 0b100000]
    assert component_masks(path(6), 0) == []


def test_diameter():
    assert diameter(path(5)) == 4
    assert diameter(complete(7)) == 1
    assert diameter(cycle(6)) == 3
    assert diameter(disjoint_union([path(2), path(2)])) == math.inf
    assert diameter(empty(1)) == 0


def test_edge_list_parsing():
    g = parse_edge_list("0 1\n1 2  # comment\n\nn=5\n")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        parse_edge_list("0 1 2")
    with pytest.raises(GraphError):
        parse_edge_list("0 0")
    with pytest.raises(GraphError, match=r"^line 2: loop at vertex 2$"):
        parse_edge_list("0 1\n2 2\n")
    for index in (-1, 64, 10**15):
        with pytest.raises(GraphError, match=rf"^line 2: vertex index {index} outside 0\.\.63$"):
            parse_edge_list(f"n=3\n{index} 0\n")


def test_induced_subgraph_and_delete():
    g = cycle(5)
    assert g.delete_vertex(0) == path(4)
    h = g.induced_subgraph([1, 2, 3])
    assert sorted(h.edges()) == [(0, 1), (1, 2)]
    with pytest.raises(GraphError):
        g.induced_subgraph([1, 1])


def test_validation():
    with pytest.raises(GraphError):
        Graph(2, [1, 1])  # loop at vertex 0
    with pytest.raises(GraphError):
        Graph(2, [2, 0])  # asymmetric
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])
    with pytest.raises(GraphError):
        star(100)


def test_the_committed_atlas_is_networkx_s():
    # The tests read the 7-vertex atlas from perfbench/data/atlas7.txt; it
    # holds networkx's seven-vertex atlas graphs, in the atlas's order.
    nx = pytest.importorskip("networkx")
    want = [
        Graph.from_edges(7, list(g.edges())) for g in nx.graph_atlas_g() if g.number_of_nodes() == 7
    ]
    assert atlas7() == want
