from hypothesis import given, settings

from murlab.families import family_matches
from murlab.graphs import (
    clique_isolated_apex,
    complete,
    cycle,
    disjoint_union,
    empty,
    path,
    star,
)
from helpers import graphs_strategy


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
