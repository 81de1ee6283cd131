from hypothesis import given, settings, strategies as st

from murlab.families import _clique_components, family_matches
from murlab.graphs import (
    _bits,
    clique_isolated_apex,
    complete,
    cycle,
    disjoint_union,
    empty,
    path,
    star,
)
from murlab.verify import family_checks
from helpers import (
    atlas7,
    graphs_strategy,
    reference_clique_components,
    reference_family_matches,
)


def kinds(g, complemented=None):
    return {
        m.kind
        for m in family_matches(g, g.complement())
        if complemented is None or m.complemented == complemented
    }


def test_complete_and_empty():
    assert "complete" in kinds(complete(5), complemented=False)
    assert "empty" in kinds(complete(5), complemented=True)
    assert "empty" in kinds(empty(3), complemented=False)


def test_two_cliques():
    g = disjoint_union([complete(3), complete(4)])
    matches = [m for m in family_matches(g, g.complement()) if m.kind == "two_cliques"]
    assert matches and matches[0].params == {"r": 4, "s": 3}


def test_clique_plus_isolated():
    g = disjoint_union([complete(6), empty(2)])
    matches = [m for m in family_matches(g, g.complement()) if m.kind == "clique_plus_isolated"]
    assert matches and matches[0].params == {"r": 6, "s": 2}


def test_union_of_cliques_via_complement():
    g = disjoint_union([complete(2), complete(3), complete(4)]).complement()  # K2,3,4
    matches = [
        m for m in family_matches(g, g.complement())
        if m.kind == "union_of_cliques" and m.complemented
    ]
    assert matches and matches[0].params["sizes"] == (4, 3, 2)


def test_apex_recognition():
    g = clique_isolated_apex(4, 3)
    matches = [m for m in family_matches(g, g.complement()) if m.kind == "clique_isolated_apex"]
    assert any(m.params == {"r": 4, "s": 3} and not m.complemented for m in matches)
    assert "clique_isolated_apex" in kinds(star(5), complemented=False)


def test_path_and_cycle():
    assert "path" in kinds(path(6), complemented=False)
    assert "path" not in kinds(cycle(6), complemented=False)
    assert "regular" in kinds(cycle(6), complemented=False)
    # connectivity matters: C3 u P2 has the path degree profile
    g = disjoint_union([cycle(3), path(2)])
    assert "path" not in kinds(g, complemented=False)


@settings(max_examples=80)
@given(graphs_strategy(7))
def test_complement_pairing(g):
    direct = {(m.kind, m.complemented) for m in family_matches(g, g.complement())}
    flipped = {
        (m.kind, not m.complemented) for m in family_matches(g.complement(), g)
    }
    assert direct == flipped


def test_matches_as_with_vertex_lists():
    # The list-based recognizers, on the atlas, the paper's families and the
    # complements of both.
    graphs = atlas7() + [g for _, g, _ in family_checks()]
    seen = set()
    for g in graphs:
        for side, other in ((g, g.complement()), (g.complement(), g)):
            got = family_matches(side, other)
            assert got == reference_family_matches(side, other), side
            seen.update(m.kind for m in got)
    assert {"two_cliques", "clique_plus_isolated", "union_of_cliques"} < seen
    assert {"clique_isolated_apex", "path"} < seen


@settings(max_examples=200)
@given(graphs_strategy(8), st.data())
def test_clique_components_on_a_vertex_mask(g, data):
    if data.draw(st.booleans()):
        g = g.complement()  # denser, with larger cliques
    within = data.draw(st.integers(0, (1 << g.n) - 1))
    want = reference_clique_components(g.induced_subgraph(_bits(within)))
    assert _clique_components(g, within) == want
