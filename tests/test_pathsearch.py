import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from murlab.graphs import (
    Graph,
    _bits,
    component_masks,
    complete,
    complete_bipartite,
    cycle,
    diameter,
    disjoint_union,
    empty,
    path,
)
from murlab.pathsearch import (
    DEFAULT_NODE_BUDGET,
    PathForestResult,
    PathForestWitness,
    best_induced_path_forest,
    validate_path_forest,
)
from murlab.verify import family_checks
from helpers import (
    component_count,
    friendship,
    graphs_strategy,
    reference_validate_path_forest,
)


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
    return [c.bit_count() for c in component_masks(g, (1 << g.n) - 1)]


def test_forest_examples():
    assert best_induced_path_forest(disjoint_union([path(3), path(3)])).witness.bound == 3
    assert best_induced_path_forest(disjoint_union([path(5), empty(1)])).witness.bound == 4
    assert best_induced_path_forest(complete(4)).witness.bound == 0
    assert best_induced_path_forest(empty(3)).witness is None


def test_budget_exhaustion_is_flagged():
    res = best_induced_path_forest(cycle(9), node_budget=3)
    assert not res.exact
    assert best_induced_path_forest(cycle(9)).exact
    # A search is cut only when a node finds the budget spent: a budget of
    # exactly the nodes a complete search visits (9 for P4, 18 for C9) is
    # exact.
    assert best_induced_path_forest(path(4), node_budget=9).exact
    assert not best_induced_path_forest(path(4), node_budget=8).exact
    assert best_induced_path_forest(cycle(9), node_budget=18).exact
    assert not best_induced_path_forest(cycle(9), node_budget=17).exact


@settings(max_examples=60)
@given(graphs_strategy())
def test_forest_matches_brute_force(g):
    res = best_induced_path_forest(g)
    expected = brute_best_forest(g)
    if expected is None:
        assert res.witness is None
    else:
        assert res.witness.bound == expected
        assert validate_path_forest(g, res.witness)


@settings(max_examples=40)
@given(graphs_strategy(7))
def test_diameter_below_longest_path(g):
    # A shortest path realising the diameter is an induced path, and a single
    # induced path on d + 1 vertices is a forest of bound d - 1.
    if component_count(g) != 1:
        return
    assert diameter(g) - 1 <= _score(best_induced_path_forest(g))


def test_witness_validation_rejects_garbage():
    g = path(4)
    assert not validate_path_forest(g, PathForestWitness([(0, 2)], [], 0))
    assert not validate_path_forest(g, PathForestWitness([], [0], -1))
    assert not validate_path_forest(g, PathForestWitness([(0, 1)], [0], 1))


def _verdict(validate, g, w):
    """validate's answer, or the type and text of what it raised: replay
    reports both."""
    try:
        return validate(g, w)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def assert_same_verdict(g, w):
    assert _verdict(validate_path_forest, g, w) == _verdict(reference_validate_path_forest, g, w)


@settings(max_examples=400, deadline=None)
@given(graphs_strategy(9), st.data())
def test_validation_as_with_an_induced_subgraph(g, data):
    # A genuine witness, or one with a single defect: a vertex joined to the
    # forest (a chord), two paths run together or a path's first two
    # vertices swapped (a missing edge), a repeated, out-of-range or
    # non-integer vertex, or a wrong bound.
    if data.draw(st.booleans()):
        g = g.complement()
    w = best_induced_path_forest(g).witness
    if w is None:
        return
    paths, isolated = [list(p) for p in w.paths], list(w.isolated)
    used = sorted(set(isolated).union(*paths))
    change = data.draw(st.sampled_from(
        ["none", "chord", "missing edge", "swapped", "repeated", "out of range", "float", "bound"]
    ))
    slots = paths + [isolated]
    if change == "chord":
        outside = [v for v in range(g.n) if v not in used]
        if outside:
            data.draw(st.sampled_from(slots)).append(data.draw(st.sampled_from(outside)))
    elif change == "missing edge":
        if len(paths) > 1:
            paths[0] += paths.pop(data.draw(st.integers(1, len(paths) - 1)))
        elif isolated:
            paths[0].append(isolated.pop())
    elif change == "swapped" and len(paths[0]) > 2:
        paths[0][:2] = paths[0][1::-1]
    elif change == "repeated":
        data.draw(st.sampled_from(slots)).append(data.draw(st.sampled_from(used)))
    elif change in ("out of range", "float"):
        slot = data.draw(st.sampled_from([s for s in slots if s]))
        i = data.draw(st.integers(0, len(slot) - 1))
        if change == "float":
            slot[i] = data.draw(st.sampled_from([float(slot[i]), slot[i] + 0.5]))
        else:
            slot[i] = data.draw(st.sampled_from([-1, g.n]))
    bound = sum(len(p) for p in paths) - len(paths) - (not isolated)
    if change == "bound":
        bound += data.draw(st.sampled_from([-1, 1]))
    assert_same_verdict(g, PathForestWitness([tuple(p) for p in paths], isolated, bound))


@pytest.mark.parametrize(
    "paths, isolated",
    [
        ([(0.5, 1)], []),
        ([(0, 1.5)], []),
        ([(0, 1), (2, 3.0)], []),
        ([(1, 2)], [0.0]),
        ([(1, 2)], [True]),
        ([(0, "x")], []),
        ([(0, None)], []),
        ([(0, [1])], []),
        ([(0, 1)], [{}]),
        ([(0, 1, 1.0)], []),
        ([(0,), ("x", 1)], []),
        ([], [0.5, 2.5]),
    ],
)
def test_unreadable_vertices_fail_as_before(paths, isolated):
    # Replay names the exception a certificate's data raises, so it must be
    # the one the subgraph-building check raised.
    assert_same_verdict(path(5), PathForestWitness(paths, isolated, 1))


# The search as it was before it kept the forest's ends incrementally: a
# component walk scores each leaf and checks each two-neighbour join for a
# cycle.  Kept as the reference: with ``twins=True`` it skips a vertex's
# include branch once an earlier twin is excluded, the twins found by
# comparing neighbour sets, and the incremental search must give the same
# node counts, hence the same witness at every budget.  With ``twins=False``
# it is the search before the twin rule.  It also returns the nodes it
# visited.
def reference_best_induced_path_forest(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET, twins: bool = True
) -> tuple[PathForestResult, int]:
    """Maximize the path-forest lower bound over induced linear forests."""
    n = g.n
    open_nbhd = [set(_bits(g.rows[v])) for v in range(n)]
    closed_nbhd = [open_nbhd[v] | {v} for v in range(n)]
    earlier_twins = [
        [t for t in range(v) if open_nbhd[t] == open_nbhd[v] or closed_nbhd[t] == closed_nbhd[v]]
        if twins
        else []
        for v in range(n)
    ]
    best_bound = -1
    best_mask = 0
    budget = node_budget

    deg = [0] * n  # degree within the included set

    def connected_within(mask: int, a: int, b: int) -> bool:
        reached = 1 << a
        frontier = 1 << a
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u] & mask
            frontier = nxt & ~reached
            reached |= frontier
        return bool(reached >> b & 1)

    def score(mask: int) -> int | None:
        total = 0
        t = 0
        m = 0
        seen = 0
        for v in _bits(mask):
            if seen >> v & 1:
                continue
            comp = 1 << v
            frontier = 1 << v
            while frontier:
                nxt = 0
                for u in _bits(frontier):
                    nxt |= g.rows[u] & mask
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            size = comp.bit_count()
            if size == 1:
                m += 1
            else:
                t += 1
                total += size
        if t == 0:
            return None
        return total - t - (1 if m == 0 else 0)

    def choose(idx: int, mask: int) -> None:
        nonlocal best_bound, best_mask, budget
        if budget <= 0:
            return
        budget -= 1
        remaining = n - idx
        # Even in the best case the bound is two less than the vertex count
        # of the final forest, so prune on that optimistic total.
        if mask.bit_count() + remaining - 2 <= best_bound:
            return
        if idx == n:
            s = score(mask)
            if s is not None and s > best_bound:
                best_bound = s
                best_mask = mask
            return
        nbrs = g.rows[idx] & mask
        ok = True
        nb_list = _bits(nbrs)
        if any(not mask >> t & 1 for t in earlier_twins[idx]):
            ok = False  # an excluded twin stands in for idx
        elif len(nb_list) > 2:
            ok = False
        elif any(deg[u] >= 2 for u in nb_list):
            ok = False
        elif len(nb_list) == 2 and connected_within(mask, nb_list[0], nb_list[1]):
            ok = False  # closing a cycle
        if ok:
            for u in nb_list:
                deg[u] += 1
            deg[idx] = len(nb_list)
            choose(idx + 1, mask | 1 << idx)
            for u in nb_list:
                deg[u] -= 1
            deg[idx] = 0
        choose(idx + 1, mask)

    choose(0, 0)
    nodes = node_budget - budget
    if best_bound < 0:
        return PathForestResult(None, budget > 0), nodes
    return PathForestResult(reference_mask_to_witness(g, best_mask), budget > 0), nodes


def reference_mask_to_witness(g: Graph, mask: int) -> PathForestWitness:
    paths = []
    isolated = []
    seen = 0
    for v in _bits(mask):
        if seen >> v & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u] & mask
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        verts = _bits(comp)
        if len(verts) == 1:
            isolated.append(verts[0])
            continue
        ends = [u for u in verts if (g.rows[u] & comp).bit_count() == 1]
        cur = ends[0]
        order = [cur]
        used = 1 << cur
        while len(order) < len(verts):
            nxt_v = _bits(g.rows[cur] & comp & ~used)[0]
            order.append(nxt_v)
            used |= 1 << nxt_v
            cur = nxt_v
        paths.append(tuple(order))
    total = sum(len(p) for p in paths)
    bound = total - len(paths) - (1 if not isolated else 0)
    return PathForestWitness(paths, isolated, bound)


BUDGETS = [0, 1, 3, 17, 200, 5000, DEFAULT_NODE_BUDGET]


def _triple(res):
    w = res.witness
    return None if w is None else (w.paths, w.isolated, w.bound)


def _score(res):
    return -1 if res.witness is None else res.witness.bound


def assert_same_search(g):
    # nodes: those of a complete search, or more than any budget tried
    complete, nodes = reference_best_induced_path_forest(g, DEFAULT_NODE_BUDGET + 1)
    plain, plain_nodes = reference_best_induced_path_forest(g, DEFAULT_NODE_BUDGET + 1, twins=False)
    assert nodes <= plain_nodes
    if nodes <= DEFAULT_NODE_BUDGET:
        assert not best_induced_path_forest(g, nodes - 1).exact
        assert best_induced_path_forest(g, nodes).exact
    if plain_nodes <= DEFAULT_NODE_BUDGET:
        # the twin rule keeps the witness of a complete search
        assert _triple(complete) == _triple(plain)
    for budget in BUDGETS:
        got = best_induced_path_forest(g, budget)
        want = complete if budget >= nodes else reference_best_induced_path_forest(g, budget)[0]
        assert got.exact == (budget >= nodes), budget
        assert _triple(got) == _triple(want), budget
        # and a cut search never ends below the search without the rule
        before = (
            plain
            if budget >= plain_nodes
            else reference_best_induced_path_forest(g, budget, twins=False)[0]
        )
        assert _score(got) >= _score(before), budget
        assert got.exact or not before.exact, budget
    if nodes <= DEFAULT_NODE_BUDGET and complete.witness is not None:
        assert_cap_keeps_the_search(g, complete, nodes)


def assert_cap_keeps_the_search(g, complete, nodes):
    # A cap at the complete search's bound ends the search on the witness
    # that search keeps, finished, in no more nodes; short of that it runs as
    # without the cap.  A cap above the bound changes nothing, node count
    # included.
    bound = complete.witness.bound
    capped = best_induced_path_forest(g, nodes, bound)
    assert capped.exact and _triple(capped) == _triple(complete)
    for budget in BUDGETS:
        got = best_induced_path_forest(g, budget, bound)
        want = complete if got.exact else best_induced_path_forest(g, budget)
        assert _triple(got) == _triple(want), budget
    above = best_induced_path_forest(g, nodes, bound + 1)
    assert above.exact and _triple(above) == _triple(complete)
    assert not best_induced_path_forest(g, nodes - 1, bound + 1).exact


@settings(max_examples=150, deadline=None)
@given(graphs_strategy(10))
def test_search_matches_the_reference(g):
    assert_same_search(g)


def seeded_gnp(n, seed):
    rng = random.Random(seed)
    p = rng.choice([0.2, 0.35, 0.5, 0.65])
    return Graph.from_edges(n, [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p])


@pytest.mark.parametrize(
    "g",
    [seeded_gnp(n, 100 + n) for n in range(12, 23)] + [friendship(k) for k in range(8, 12)],
    ids=[f"gnp{n}" for n in range(12, 23)] + [f"F{k}" for k in range(8, 12)],
)
def test_search_matches_the_reference_on_larger_graphs(g):
    assert_same_search(g)


FAMILY = family_checks()


@pytest.mark.parametrize(
    "g",
    [g for _, g, _ in FAMILY] + [g.complement() for _, g, _ in FAMILY],
    ids=[name for name, _, _ in FAMILY] + [f"({name})c" for name, _, _ in FAMILY],
)
def test_search_matches_the_reference_on_family_graphs(g):
    assert_same_search(g)


# Nodes of a complete search, by the probe of test_budget_exhaustion_is_flagged.
# Without the twin rule they were 3873, 3719, 11101, 53402 and 1124; P12 and
# C12, which have no twins, stay at 25 and 24.
@pytest.mark.parametrize(
    "g, nodes",
    [
        (disjoint_union([complete(2)] * 4 + [complete(4)]), 750),
        (disjoint_union([complete(3)] * 4), 209),
        (disjoint_union([cycle(3)] * 2 + [cycle(4)] * 2), 696),
        (friendship(8), 7894),
        (complete_bipartite(6, 6), 98),
        (path(12), 25),
        (cycle(12), 24),
    ],
    ids=["4K2uK4", "4K3", "2C3u2C4", "F8", "K6,6", "P12", "C12"],
)
def test_twins_are_searched_once(g, nodes):
    assert best_induced_path_forest(g, nodes).exact
    assert not best_induced_path_forest(g, nodes - 1).exact


# The same probe with the cap a family formula gives: the search stops at
# its first forest of that bound.  Uncapped they take 7107, 840, 25 and 24.
@pytest.mark.parametrize(
    "g, cap, nodes",
    [
        (disjoint_union([cycle(5)] * 3), 8, 16),
        (disjoint_union([complete(2)] * 6), 5, 13),
        (path(12), 10, 13),
        (cycle(12), 9, 13),
    ],
    ids=["3C5", "6K2", "P12", "C12"],
)
def test_a_capped_search_stops_at_the_cap(g, cap, nodes):
    assert best_induced_path_forest(g, nodes, cap).exact
    assert not best_induced_path_forest(g, nodes - 1, cap).exact
