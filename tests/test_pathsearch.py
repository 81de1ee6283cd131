from itertools import combinations

from hypothesis import given, settings, strategies as st

from murlab.graphs import Graph, complete, cycle, diameter, disjoint_union, empty, path
from murlab.pathsearch import best_induced_path_forest, validate_path_forest


def brute_best_forest(g):
    best = None
    for size in range(1, g.n + 1):
        for verts in combinations(range(g.n), size):
            sub = g.induced_subgraph(verts)
            if any(d > 2 for d in sub.degrees()):
                continue
            comps = _component_sizes(sub)
            # linear forest: no component may be a cycle
            if sub.edge_count() != size - len(comps):
                continue
            paths = [c for c in comps if c >= 2]
            singles = len(comps) - len(paths)
            if not paths:
                continue
            bound = sum(paths) - len(paths) - (1 if singles == 0 else 0)
            if best is None or bound > best:
                best = bound
    return best


def _component_sizes(g):
    from murlab.graphs import components

    return [len(p) for p in components(g)[1]]


def test_forest_examples():
    assert best_induced_path_forest(disjoint_union([path(3), path(3)])).bound == 3
    assert best_induced_path_forest(disjoint_union([path(5), empty(1)])).bound == 4
    assert best_induced_path_forest(complete(4)).bound == 0
    assert best_induced_path_forest(empty(3)).witness is None


def test_budget_exhaustion_is_flagged():
    res = best_induced_path_forest(cycle(9), node_budget=3)
    assert not res.exact
    assert best_induced_path_forest(cycle(9)).exact


def graphs_strategy(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        ).map(lambda pairs: Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
    )


@settings(max_examples=60)
@given(graphs_strategy())
def test_forest_matches_brute_force(g):
    res = best_induced_path_forest(g)
    expected = brute_best_forest(g)
    if expected is None:
        assert res.witness is None
    else:
        assert res.bound == expected
        assert validate_path_forest(g, res.witness)


@settings(max_examples=40)
@given(graphs_strategy(7))
def test_diameter_below_longest_path(g):
    # A shortest path realising the diameter is an induced path, and a single
    # induced path on d + 1 vertices is a forest of bound d - 1.
    from murlab.graphs import components

    if components(g)[0] != 1:
        return
    assert diameter(g) - 1 <= best_induced_path_forest(g).bound


def test_witness_validation_rejects_garbage():
    from murlab.pathsearch import PathForestWitness

    g = path(4)
    assert not validate_path_forest(g, PathForestWitness([(0, 2)], [], 0))
    assert not validate_path_forest(g, PathForestWitness([], [0], -1))
    assert not validate_path_forest(g, PathForestWitness([(0, 1)], [0], 1))
