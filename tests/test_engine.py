import gc
from fractions import Fraction
import math
import random
import tracemalloc
from itertools import combinations, islice

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from murlab import engine, report, verify
from murlab.engine import (
    Budget,
    EngineError,
    ParamPoint,
    complement_params,
    compute_mur,
    family_mur,
    minor_coefficients,
    minor_points,
    minors_combination,
    mur_lower,
    mur_spread,
    regular_mur,
    search_lines,
    spread_bounds,
    universal_matrix,
)
from murlab.graphs import (
    Graph,
    clique_isolated_apex,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    earlier_twins,
    empty,
    p_prime,
    parse_graph6,
    path,
    petersen,
    star,
)
from murlab.matrices import charpoly, det_int, rank_rational
from murlab.pathsearch import best_induced_path_forest
from murlab.polynomials import integer_roots
from murlab.verify import _spread_corpus, family_checks, suite_spread_bounds
from helpers import (
    _gauss_jordan,
    atlas7,
    friendship,
    graphs_strategy,
    reference_family_mur,
    reference_minors_combination,
    reference_mur_lower,
    reference_mur_upper,
    reference_upper_bounds,
    without_families,
)

# The grid and seeded random points of the old 3-D candidate stream, kept
# as the reference the delta search is checked against.
OLD_GRID_DEN, OLD_GRID_NUM, OLD_RANDOM_POINTS, OLD_SEED = 2, 2, 20, 0


def test_universal_matrix_examples():
    # A(K3) + (-1)I + 0J + 0D = A - I has rank 3; at (1,-1,0) only gamma shifts
    m = universal_matrix(complete(3), ParamPoint.rational(1, -1, 0))
    assert all(x == 0 for row in m for x in row)
    m = universal_matrix(disjoint_union([complete(2), empty(2)]), ParamPoint.rational(0, 0, 1))
    assert rank_rational(m) == 1
    m = universal_matrix(empty(3), ParamPoint.rational(0, 0, 0))
    assert all(x == 0 for row in m for x in row)


def test_complement_params_entrywise():
    g = path(4)
    p = ParamPoint.rational(2, 3, 5)
    q = complement_params(g, p)
    u = universal_matrix(g, p)
    uc = universal_matrix(g.complement(), q)
    assert all(
        uc[i][j] == -u[i][j] for i in range(g.n) for j in range(g.n)
    )


def test_complement_params_preserves_rank():
    g = cycle(5)
    p = ParamPoint.rational(Fraction(1, 3), Fraction(-2, 7), Fraction(1, 2))
    q = complement_params(g, p)
    assert rank_rational(universal_matrix(g, p)) == rank_rational(
        universal_matrix(g.complement(), q)
    )


def test_regular_mur():
    assert regular_mur(complete(5)) == 0
    assert regular_mur(cycle(5)) == 2
    assert regular_mur(cycle(6)) == 3
    assert regular_mur(petersen()) == 4
    # complement is K3 u K3, a union of two cliques
    assert regular_mur(complete_bipartite(3, 3)) == 1
    assert regular_mur(disjoint_union([cycle(4), cycle(4)])) == 3
    with pytest.raises(EngineError):
        regular_mur(path(4))


def test_family_mur():
    assert family_mur(complete(6))[0] == 0
    assert family_mur(disjoint_union([complete(3), complete(4)]))[0] == 1
    assert family_mur(disjoint_union([complete(2), complete(3), complete(4)]))[0] == 2
    assert family_mur(clique_isolated_apex(4, 3))[0] == 3
    assert family_mur(clique_isolated_apex(4, 4))[0] == 2
    assert family_mur(path(7))[0] == 5
    assert family_mur(disjoint_union([path(3), path(3)])) is None


def test_mur_lower_examples():
    assert mur_lower(path(6))[0] == 4
    assert mur_lower(disjoint_union([path(3), path(3)]))[0] == 3
    assert mur_lower(star(5))[0] == 1
    lo, cert, _ = mur_lower(disjoint_union([path(5), empty(1)]))
    assert lo == 4 and cert.kind == "path_forest"
    assert cert.data["variant"] == "single-path-plus-isolated"


def test_mur_upper_examples():
    assert compute_mur(cycle(6)).upper == 3
    assert compute_mur(complete(5)).upper == 0
    assert compute_mur(disjoint_union([complete(3), empty(2)])).upper == 1


def test_upper_bound_matches_the_reference():
    # compute_mur stops the delta search once it meets the lower bound; no
    # rank below a certified lower bound exists, so the whole search would
    # end on the same bound and certificate.
    graphs = atlas7() + [g for _, g, _ in family_checks()]
    for g in graphs:
        res = compute_mur(g)
        assert (res.upper, res.upper_cert) == reference_mur_upper(g), g


def test_delta_zero_line_first_keeps_every_result():
    # The delta = 0 line runs before the first minors attempt, which is
    # skipped when that line's point refutes it; every result stays as with
    # the whole search after that attempt.
    family = [g for _, g, _ in family_checks()]
    graphs = atlas7()[::5] + family + [p_prime(n) for n in range(4, 13)]

    def results():
        with without_families():
            shortcut_free = [compute_mur(g) for g in family]
        return [compute_mur(g) for g in graphs] + shortcut_free

    got = results()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_upper_bounds", reference_upper_bounds)
        want = results()
    for g, a, b in zip(graphs + family, got, want):
        assert a == b, g


def test_compute_mur_examples():
    assert compute_mur(path(6)).value == 4
    assert compute_mur(cycle(7)).value == 4
    assert compute_mur(disjoint_union([path(3), path(3)])).value == 3
    assert compute_mur(petersen()).value == 4
    assert compute_mur(clique_isolated_apex(4, 4)).value == 2
    assert compute_mur(empty(0)).value == 0


def test_compute_mur_without_family_shortcuts():
    for g in (cycle(6), complete_bipartite(3, 3), disjoint_union([cycle(4), cycle(4)])):
        exact = compute_mur(g)
        with without_families():
            res = compute_mur(g)
        assert res.lower <= exact.value <= res.upper


def test_pinned_rational_drops():
    # Rank drops at rational points off the old 3-D grid: (-1, -1/5, 0) for
    # Fh_gG, where the path forest gives 4, and gamma = -10/7 for F?~y?,
    # where a minors combination then certifies 3.
    res = compute_mur(parse_graph6("Fh_gG"), Budget())
    assert res.value == 4 and res.upper_cert.kind == "explicit_params"
    res = compute_mur(parse_graph6("F?~y?"), Budget())
    assert res.value == 3 and res.lower_cert.kind == "minor_combination"
    assert res.upper_cert.kind == "explicit_params"
    data = res.upper_cert.data
    point = ParamPoint.rational(*(Fraction(data[k]) for k in ("beta", "gamma", "delta")))
    assert rank_rational(universal_matrix(parse_graph6("F?~y?"), point)) == 3


@settings(max_examples=40, deadline=None)
@given(graphs_strategy())
def test_bounds_are_ordered_and_within_range(g):
    res = compute_mur(g)
    assert 0 <= res.lower <= res.upper <= max(g.n - 2, 0)


@settings(max_examples=25, deadline=None)
@given(graphs_strategy(5), st.data())
def test_rank_never_below_certified_lower(g, data):
    lo, _, _ = mur_lower(g)
    fr = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    p = ParamPoint(data.draw(fr), data.draw(fr), data.draw(fr))
    assert rank_rational(universal_matrix(g, p)) >= lo


def _line_points(g, data):
    """On each of the search's delta lines, the point of lowest rank at each
    rational eigenvalue, and a point with that beta and a drawn gamma."""
    fr = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    for delta in engine._delta_lines(g):
        m, eigenvalues = engine._line_eigenvalues(g, delta)
        for mu, mult in eigenvalues:
            p, _ = engine._drop_point(m, mu, mult, delta)
            yield p
            yield ParamPoint(p.beta, data.draw(fr), delta)


@settings(max_examples=25, deadline=None)
@given(graphs_strategy(6), st.data())
def test_rank_never_below_computed_lower(g, data):
    # compute_mur may raise the lower bound with a minors certificate and then
    # skip the search, so check its bound against points on the search's
    # lines too.
    lo = compute_mur(g).lower
    fr = st.fractions(min_value=-6, max_value=6, max_denominator=4)
    points = [ParamPoint(data.draw(fr), data.draw(fr), data.draw(fr))]
    points += _line_points(g, data)
    for p in points:
        assert rank_rational(universal_matrix(g, p)) >= lo


def _old_candidates(g):
    """The 3-D candidate points the search along delta lines replaced:
    presets, structured points, Laplacian shifts, reciprocal points, the
    grid and the seeded random points, in their old order."""
    n = g.n
    yield from (
        ParamPoint.rational(*p)
        for p in (
            (0, 0, 0), (0, 0, -1), (0, 0, 1), (Fraction(1, 2), Fraction(-1, 2), 0), (1, -1, 0)
        )
    )
    degs = sorted(set(g.degrees()))
    deltas = [Fraction(0), Fraction(1), Fraction(-1)]
    for d in degs:
        if d >= 2:
            deltas += [Fraction(1, d - 1), Fraction(-1, d - 1)]
        if d >= 1:
            deltas += [Fraction(1, d), Fraction(-1, d)]
    for delta in deltas:
        for gamma in (Fraction(0), Fraction(-1), Fraction(-1, 2)):
            yield ParamPoint(Fraction(0), gamma, delta)
            for d in degs:
                yield ParamPoint(-gamma - delta * d, gamma, delta)
    for comp_side in (False, True):
        side = g.complement() if comp_side else g
        # the Laplacian is an integer matrix, so its rational eigenvalues are integers
        for lam, _ in integer_roots(charpoly(engine.laplacian(side))):
            if lam:
                for p in (
                    ParamPoint(lam, Fraction(-lam, n), Fraction(-1)),
                    ParamPoint(-lam, Fraction(lam, n), Fraction(1)),
                ):
                    yield complement_params(g, p) if comp_side else p
    for m in (n - 1, n, n + 1):
        if m >= 1:
            yield ParamPoint(Fraction(1), Fraction(-1, m), Fraction(-1))
    for k in range(1, n // 2 + 1):
        yield ParamPoint(Fraction(0), Fraction(-1, 2 * k), Fraction(0))
        yield ParamPoint(Fraction(0), Fraction(0), Fraction(-1, 2 * k))
    values = sorted(
        {Fraction(p, q) for q in range(1, OLD_GRID_DEN + 1)
         for p in range(-OLD_GRID_NUM, OLD_GRID_NUM + 1)}
    )
    for beta in values:
        for gamma in values:
            for delta in values:
                yield ParamPoint(beta, gamma, delta)
    rng = random.Random(OLD_SEED)
    for _ in range(OLD_RANDOM_POINTS):
        yield ParamPoint(*(Fraction(rng.randint(-8, 8), rng.randint(1, 6)) for _ in range(3)))


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(7))
@example(parse_graph6("Fh_gG"))  # rank 4 at (-1, -1/5, 0), off the old grid
@example(parse_graph6("F?~y?"))  # rank 3 at gamma = -10/7
# Complements of clique-plus-isolated graphs: their lowest rank is on a line
# from the complement's degrees.
@example(parse_graph6("E?~w"))
@example(parse_graph6("F?~w?"))
@example(parse_graph6("F?B~w"))
@example(parse_graph6("F~~v_"))
def test_search_never_above_an_old_candidate(g):
    # On each line the search finds the lowest rank over all rational
    # (beta, gamma); the structured lines reach as low as any old candidate.
    old = list(_old_candidates(g))
    upper, cert = search_lines(g, 0, *engine.structural_upper(g), engine._delta_lines(g))
    assert upper <= min(rank_rational(universal_matrix(g, p)) for p in old)
    if cert.kind == "explicit_params":
        p = ParamPoint.rational(*(Fraction(cert.data[k]) for k in ("beta", "gamma", "delta")))
        assert rank_rational(universal_matrix(g, p)) == cert.data["rank"] == upper


@settings(max_examples=40, deadline=None)
@given(graphs_strategy(7))
@example(parse_graph6("E?~w"))
def test_delta_lines_closed_under_complement(g):
    # complement_params keeps delta, so both sides search the same lines.
    assert set(engine._delta_lines(g)) == set(engine._delta_lines(g.complement()))


def assert_minus_one_line_dominated(g):
    # Every drop point on delta = -1 ranks at least the structural upper
    # bound, so the search leaves the line out (see _delta_lines).
    assert Fraction(-1) not in engine._delta_lines(g)
    upper = engine.structural_upper(g)[0]
    m, eigenvalues = engine._line_eigenvalues(g, Fraction(-1))
    for mu, mult in eigenvalues:
        p, _ = engine._drop_point(m, mu, mult, Fraction(-1))
        assert rank_rational(engine.integer_universal_matrix(g, p)) >= upper, (g, mu)


def test_minus_one_line_dominated_on_the_seven_vertex_atlas():
    for g in atlas7():
        assert_minus_one_line_dominated(g)


@settings(max_examples=150, deadline=None)
@given(graphs_strategy(10))
def test_minus_one_line_dominated_on_random_graphs(g):
    assert_minus_one_line_dominated(g)


REFERENCE_BUDGETS = [Budget(search_nodes=s) for s in (0, 1, 30)] + [Budget()]


def assert_lower_and_family_match_the_references(g):
    for budget in REFERENCE_BUDGETS:
        assert mur_lower(g, budget) == reference_mur_lower(g, budget), (g, budget)
    assert family_mur(g) == reference_family_mur(g), g


def test_lower_and_family_match_the_references_on_the_atlas():
    for g in atlas7():
        assert_lower_and_family_match_the_references(g)


def test_lower_and_family_match_the_references_on_the_family_graphs():
    for _, g, _ in family_checks():
        assert_lower_and_family_match_the_references(g)
        assert_lower_and_family_match_the_references(g.complement())


@settings(max_examples=100, deadline=None)
@given(graphs_strategy(9))
def test_lower_and_family_match_the_references_on_random_graphs(g):
    assert_lower_and_family_match_the_references(g)


@pytest.mark.parametrize(
    "g",
    [
        disjoint_union([complete(3), complete(3)]),
        disjoint_union([complete(4), empty(2)]),
        disjoint_union([complete(2), complete(5)]),
    ],
    ids=["K3+K3", "K4+2K1", "K2+K5"],
)
def test_rank_one_families_are_bounded_by_their_complement(g):
    # In a rank-1 family the complement's search or diameter gives 1 before
    # the family floor could, so that floor is listed only at 2.
    assert engine.graph_facts(g).rank01_floor == 1
    for budget in (Budget(search_nodes=0), Budget(search_nodes=1), Budget()):
        lower, cert, exhausted = mur_lower(g, budget)
        assert (lower, cert, exhausted) == reference_mur_lower(g, budget)
        assert lower == 1 and cert.kind != "not_in_rank01_families"


def test_diameter_only_after_a_cut_search(monkeypatch):
    calls = []
    take = engine.diameter
    monkeypatch.setattr(engine, "diameter", lambda g: calls.append(g) or take(g))
    for g in atlas7()[::25]:
        calls.clear()
        assert not mur_lower(g)[2]  # both searches exhaustive
        assert calls == []
        assert mur_lower(g, Budget(search_nodes=1))[2]
        assert calls == [g, g.complement()]


def test_no_search_passes_the_family_value():
    # compute_mur caps both forest searches at the family value, which is
    # sound only if no forest on either side goes past it.  With the cap,
    # every report at Budget() is the one the uncapped bound gave.
    valued = [g for _, g, _ in family_checks()] + atlas7()
    valued = [g for g in valued if family_mur(g)]
    assert len(valued) == 249 + 32
    budget = Budget()
    for g in valued:
        value, ucert = family_mur(g)
        for side in (g, g.complement()):
            res = best_induced_path_forest(side)
            assert res.exact and (res.witness is None or res.witness.bound <= value), g
        lower, lcert, exhausted = reference_mur_lower(g, budget)
        if lower < value:
            lcert = engine.Certificate("family_formula", dict(ucert.data))
        want = engine.MurResult(value, lcert, value, ucert, budget_exhausted=exhausted)
        got = report.build_report(g, compute_mur(g, budget), budget, 0.0)
        assert got == report.build_report(g, want, budget, 0.0), g


def test_a_search_that_meets_the_family_value_has_finished():
    # 3C5's family value 8 is met by the graph's first forest, 16 nodes in.
    # Uncapped, 100 nodes cut the search on that same forest; capped, the
    # interval and witness stay and the search counts as finished.
    g = disjoint_union([cycle(5)] * 3)
    budget = Budget(search_nodes=100)
    lower, cut_cert, cut = mur_lower(g, budget)
    assert lower == 8 and cut and not cut_cert.data["exhaustive"]
    doc = report.build_report(g, compute_mur(g, budget), budget, 0.0)
    assert (doc["result"]["lower"], doc["result"]["upper"]) == (8, 8)
    assert doc["lower_certificate"]["kind"] == "path_forest"
    assert doc["lower_certificate"]["data"] == {**cut_cert.data, "exhaustive": True}
    assert doc["budget_exhausted"] is False


def _points_minor(g, k, rows, cols):
    return [
        det_int([[m[r][c] for c in cols] for r in rows])
        for m in (universal_matrix(g, ParamPoint(*p)) for p in minor_points(k))
    ]


def _at_points(k, coeffs):
    """A minor given by its coefficients, evaluated at every minor point."""
    points = minor_points(k)
    return [
        sum(x * beta**b * delta**d for x, (b, c, d) in zip(coeffs, points) if c == gamma)
        for beta, gamma, delta in points
    ]


@settings(max_examples=30, deadline=None)
@given(graphs_strategy(8), st.data())
def test_minor_values_match_determinants(g, data):
    # Index sets in any order, as replay may read them; each packed minor,
    # evaluated at every minor point, is det_int of the submatrix of
    # universal_matrix there.
    for k in range(1, g.n + 1):
        index_sets = st.permutations(range(g.n)).map(lambda p: p[:k])
        pairs = [(data.draw(index_sets), data.draw(index_sets)) for _ in range(3)]
        pairs.sort()  # consecutive pairs share row prefixes
        for (rows, cols), (r, c, coeffs) in zip(pairs, minor_coefficients(g, k, pairs)):
            assert (r, c) == (rows, cols)
            assert _at_points(k, coeffs) == _points_minor(g, k, rows, cols)


@pytest.mark.parametrize(
    "g, k, width",
    [
        (p_prime(11), 10, 64),  # 36**10 needs 64-bit slots
        (disjoint_union([p_prime(11), cycle(15)]), 10, 128),  # 81**10 > 2**63
    ],
    ids=["pprime11-k10", "27-vertices-k10"],
)
def test_minor_slot_widths(g, k, width):
    # The slot width follows the coefficient bound (3n)**k, and the packed
    # minors at the widest slots still decode to the determinants.
    assert engine._slot_width(g.n, k) == width
    subsets = list(combinations(range(g.n), k))
    pairs = [(subsets[0], subsets[0]), (subsets[0], subsets[-1]), (subsets[3], subsets[7])]
    for rows, cols, coeffs in minor_coefficients(g, k, pairs):
        assert _at_points(k, coeffs) == _points_minor(g, k, rows, cols)


def test_minors_past_the_table_order():
    # Past the table order each minor is its values at the minor points.
    g, k = disjoint_union([p_prime(5), cycle(7)]), engine._TABLE_ORDER + 2
    subsets = list(combinations(range(g.n), k))
    pairs = [(subsets[0], subsets[0]), (subsets[0], subsets[-1]), (subsets[3], subsets[7])]
    for rows, cols, values in minor_coefficients(g, k, pairs):
        assert list(values) == _points_minor(g, k, rows, cols)


@pytest.mark.parametrize(
    "g",
    [complete(16), cycle(16), star(16), verify._random_graph(random.Random(14), 14),
     verify._random_graph(random.Random(16), 16)],
    ids=["K16", "C16", "K1,15", "G(14)", "G(16)"],
)
def test_minor_values_lie_below_the_echelon_height(g):
    # At a minor point a row of U[R, C] sums in absolute value to less than
    # k(n+2), so every value of a minor past the table order is below
    # (k(n+2))**k, the height of the minors stage's echelon there.  The
    # principal minors of K16 come within a factor 1.1 of it in log size,
    # and past (3n)**k, the height of coefficients.
    rng = random.Random(g.n)
    for k in range(engine._TABLE_ORDER + 1, min(g.n, 13) + 1):
        subsets = [tuple(sorted(rng.sample(range(g.n), k))) for _ in range(6)]
        pairs = [(r, r) for r in subsets[:2]] + list(zip(subsets[2::2], subsets[3::2]))
        bound = (k * (g.n + 2)) ** k
        for _, _, values in minor_coefficients(g, k, pairs):
            assert max(map(abs, values)) < bound


# P13's certificate at order 11 with the work cap lifted: every row set is
# 0..10, and each column set is every vertex but the two listed.
P13_ORDER_11 = [
    ((10, 11), "-9"), ((9, 11), "7"), ((9, 10), "8"), ((8, 11), "-5"), ((8, 10), "-6"),
    ((7, 11), "3"), ((7, 10), "4"), ((6, 11), "-1"), ((6, 10), "-2"), ((5, 11), "-1"),
    ((4, 11), "3"), ((4, 10), "2"), ((3, 11), "-5"), ((3, 10), "-4"), ((2, 11), "7"),
    ((2, 10), "6"), ((1, 11), "-9"), ((1, 10), "-8"), ((0, 12), "1"), ((0, 11), "-1"),
    ((0, 10), "10"),
]


def test_a_certificate_past_the_table_order(monkeypatch):
    # The default work cap lets too few pairs through for P13 to certify at
    # order 11; with it lifted P13 does, and the certificate replays.  A
    # wrong weight fails at the first minor point where the sum is not 1.
    monkeypatch.setattr(engine, "_MINOR_STAGE_WORK", 10**12)
    g = path(13)
    cert = minors_combination(g, 11)
    assert all(m["rows"] == list(range(11)) for m in cert.data["minors"])
    assert [
        (tuple(v for v in range(13) if v not in m["cols"]), m["weight"])
        for m in cert.data["minors"]
    ] == P13_ORDER_11
    assert report._replay_minor_combination(g, cert.data) == (11, "")
    cert.data["minors"][0]["weight"] = "7/3"
    assert report._replay_minor_combination(g, cert.data) == (
        None, "minor combination evaluates to 37/3, not 1"
    )


def test_minor_tables_stay_within_their_budget(monkeypatch):
    # Every column set on one row prefix, as a replayed document may list
    # them: the tables are cleared once past their budget, and the minors
    # are those of tables never cleared.
    g, k = p_prime(11), 6
    pairs = [(tuple(range(k)), cols) for cols in combinations(range(g.n), k)]
    want = list(minor_coefficients(g, k, pairs))
    sizes = []
    expand = engine._expand_minor

    def spy(entries, tables, rows, cols):
        sizes.append(sum(map(len, tables)))
        return expand(entries, tables, rows, cols)

    monkeypatch.setattr(engine, "_expand_minor", spy)
    monkeypatch.setattr(engine, "_TABLE_BITS", 1 << 20)
    assert list(minor_coefficients(g, k, pairs)) == want
    # An entry is two minors of 7 x 7 slots of 64 bits, and one pair adds
    # fewer than 2**k entries; unbounded, the tables would reach 1585.
    most = (1 << 20) // (2 * 7**2 * 64)
    assert most < max(sizes) < most + 2**k


PRIME = engine._PRIME


def _list_echelon(vectors, target):
    """The minors stage's elimination as it was, on lists, kept as the
    reference for ``engine._Echelon``.

    A vector proportional to one tried before is skipped (by its
    gcd-scaled key); the others are reduced modulo the prime against the
    chosen vectors, kept in reduced echelon form by columns: basis[j][i] is
    the i-th chosen vector's entry at the free coordinate free[j].  A
    vector with a nonzero residual is chosen, pivoting at its first nonzero
    one, until the target's residual is zero.  Returns the indices of the
    chosen vectors in the stream, their pivots, and whether the target was
    reached (at the last vector chosen).
    """
    n = len(target)
    pivots, free, basis, chosen = [], list(range(n)), [[] for _ in range(n)], []
    target, seen = [t % PRIME for t in target], set()
    for i, values in enumerate(vectors):
        scale = math.gcd(*values)
        if not scale:
            continue
        scale *= -1 if next(x for x in values if x) < 0 else 1
        key = tuple(x // scale for x in values)
        if key in seen:
            continue
        seen.add(key)
        head = [values[p] for p in pivots]
        res = [
            (values[q] - sum(a * b for a, b in zip(head, col))) % PRIME
            for q, col in zip(free, basis)
        ]
        j = next((j for j, x in enumerate(res) if x), None)
        if j is None:
            continue
        inv = pow(res[j], PRIME - 2, PRIME)
        res = [x * inv % PRIME for x in res]
        pcol, t = basis[j], target[j]
        basis = [
            [(a - b * x) % PRIME for a, b in zip(col, pcol)] + [x] for col, x in zip(basis, res)
        ]
        target = [(y - t * x) % PRIME for y, x in zip(target, res)]
        pivots.append(free.pop(j))
        del basis[j], target[j]
        chosen.append(i)
        if not any(target):
            return chosen, pivots, True
    return chosen, pivots, False


def _echelon(target, height, keep=None):
    """``engine._Echelon`` on the coordinates ``keep``, all by default."""
    return engine._Echelon(target, height, range(len(target)) if keep is None else keep)


def _packed_echelon(vectors, target, height, keep=None):
    """``engine._Echelon`` driven as ``minors_combination`` drives it, with
    the same result as ``_list_echelon``; on every coordinate unless
    ``keep`` is given."""
    echelon, chosen = _echelon(target, height, keep), []
    for i, v in enumerate(vectors):
        if echelon.add(v):
            chosen.append(i)
            if echelon.spans_target():
                return chosen, echelon.pivots, True
    return chosen, echelon.pivots, False


@st.composite
def vector_streams(draw):
    """(vectors, target): fresh vectors, then zero vectors, + or - copies,
    scaled copies and small integer combinations of vectors earlier in the
    stream.  Either every entry, copies and combinations too, fits a slot
    of one machine word, or fresh vectors may have entries above 2**63."""
    n = draw(st.integers(2, 20))
    small = st.integers(-9, 9) | st.integers(-(2**20), 2**20)
    entries = draw(st.sampled_from([small, small | st.integers(-(2**64), 2**64)]))
    target = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    stream = []
    for _ in range(draw(st.integers(1, 3 * n))):
        how = draw(st.sampled_from(["fresh", "zero", "sign", "scale", "combination"]))
        if how == "fresh" or not stream:
            stream.append(draw(st.lists(entries, min_size=n, max_size=n)))
        elif how == "zero":
            stream.append([0] * n)
        elif how in ("sign", "scale"):
            c = draw(st.sampled_from([-1, 1] if how == "sign" else [-7, -3, -2, 2, 3, 5]))
            stream.append([c * x for x in draw(st.sampled_from(stream))])
        else:
            picked = draw(st.lists(st.sampled_from(stream), min_size=2, max_size=4))
            cs = draw(st.lists(st.integers(-3, 3), min_size=len(picked), max_size=len(picked)))
            stream.append([sum(c * v[q] for c, v in zip(cs, picked)) for q in range(n)])
    return [tuple(v) for v in stream], target


def _widest_one_word_height(n):
    """The greatest height whose echelon on n coordinates has 64-bit slots."""
    lo, hi = 1, 1 << 40  # 64 bits at lo, more at hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _echelon([1] * n, mid).width == 64 else (lo, mid)
    return lo


def _edge_stream(n, height):
    """Vectors with entries +-(height - 1) on n coordinates, dependent ones
    among them, whose largest entry is height - 1."""
    top = height - 1
    a = tuple(top if q % 3 else -top for q in range(n))
    b = tuple(-top if q % 2 else top for q in range(n))
    c = tuple(top * (q == n - 1) for q in range(n))
    return [a, tuple(-x for x in a), b, c, tuple(-x for x in b)], [1] + [0] * (n - 1)


@settings(max_examples=200, deadline=None)
@given(vector_streams())
@example(([tuple(range(1, 21)), (2**64,) * 20, tuple(range(2, 22))], [1] * 20))
# at the greatest height of 64-bit slots, and one past it (128-bit slots)
@example(_edge_stream(20, _widest_one_word_height(20)))
@example(_edge_stream(20, _widest_one_word_height(20) + 1))
@example(_edge_stream(42, _widest_one_word_height(42)))
@example(_edge_stream(42, _widest_one_word_height(42) + 1))
# entries above 2**63, two signed digits each
@example(_edge_stream(6, 2**63 + 5))
def test_packed_echelon_matches_the_list_echelon(case):
    # Both pick the same vectors and pivots and stop at the same place.  A
    # zero vector, a + or - copy and a scaled copy of a vector tried before
    # all lie in the span, so the packed echelon drops them by their zero
    # residual where the reference drops them by their key.  The two could
    # differ only after a vector whose entries are all multiples of the
    # prime: the reference would skip its quotient by the key, though the
    # quotient need not lie in the span.  Such streams are left out.  A
    # minor has that form only if every coefficient is a multiple of
    # 2**31 - 1, which needs a height (3n)**k above it, as from order 6 on
    # 12 vertices (36**6 > 2**31 - 1); the stage then drops the minor,
    # which costs a certificate at most, never its soundness.
    vectors, target = case
    assume(all(math.gcd(*v) % PRIME for v in vectors if any(v)))
    height = max(abs(x) for v in vectors for x in v) + 1
    assert _packed_echelon(vectors, target, height) == _list_echelon(vectors, target)


@settings(max_examples=100, deadline=None)
@given(vector_streams(), st.data())
def test_packed_echelon_leaves_out_repeated_coordinates(case, data):
    # Coordinates that repeat an earlier one in every vector and in the
    # target, left out of the echelon, change neither the vectors it picks
    # nor its pivots, as indices of the whole vectors.
    vectors, target = case
    assume(all(math.gcd(*v) % PRIME for v in vectors if any(v)))
    n = len(target)
    layout = list(range(n))  # the source of each coordinate of the whole vectors
    for source in data.draw(st.lists(st.integers(0, n - 1), max_size=n)):
        layout.insert(data.draw(st.integers(layout.index(source) + 1, len(layout))), source)
    keep = [layout.index(q) for q in range(n)]
    whole = [tuple(v[q] for q in layout) for v in vectors]
    height = max(abs(x) for v in vectors for x in v) + 1
    want = _packed_echelon(whole, [target[q] for q in layout], height)
    assert _packed_echelon(whole, [target[q] for q in layout], height, keep) == want


def test_packed_echelon_slot_widths():
    # One 64-bit word per slot for minors of order 3 to 5 on 7 vertices;
    # 2 words for order 6 on 7 vertices and order 10 on 12, and for heads
    # up to 2**64 on 20 coordinates.  The same on the coordinates the
    # minors stage keeps, and on order 5 up to 11 vertices.
    for keep in (lambda k: None, engine._echelon_coordinates):
        for k in (3, 4, 5):
            assert _echelon(engine.constant_one(k), 21**k, keep(k)).width == 64
        assert _echelon(engine.constant_one(6), 21**6, keep(6)).width == 128
        assert _echelon(engine.constant_one(10), 36**10, keep(10)).width == 128
    assert _echelon(engine.constant_one(5), 33**5, engine._echelon_coordinates(5)).width == 64
    assert _echelon([1] * 20, 2**64).width == 128
    # the edge the examples above sit on
    height = _widest_one_word_height(20)
    assert _echelon([1] * 20, height + 1).width == 128


def _per_point_minors_combination(g, k):
    """The minors stage as it was with a value vector per minor: the minors
    at every minor point, eliminated modulo the prime and solved over Q."""
    points = minor_points(k)
    mats = [universal_matrix(g, ParamPoint(*p)) for p in points]
    subsets = list(combinations(range(g.n), k))
    pairs = [(rows, cols) for i, rows in enumerate(subsets) for cols in subsets[i:]]
    pairs = pairs[: -(-engine._MINOR_STAGE_WORK // (len(points) * k**3))]
    stream = []

    def values():
        for rows, cols in pairs:
            stream.append([det_int([[m[r][c] for c in cols] for r in rows]) for m in mats])
            yield stream[-1]

    chosen, pivots, done = _list_echelon(values(), [1] * len(points))
    if not done:
        return None
    a = [[stream[i][p] for i in chosen] for p in pivots]
    weights = _gauss_jordan(a, [1] * len(pivots))
    for p in range(len(points)):
        if sum(w * stream[i][p] for w, i in zip(weights, chosen)) != 1:
            return None
    return [(list(pairs[i][0]), list(pairs[i][1]), str(w)) for w, i in zip(weights, chosen) if w]


def test_minor_tables_give_the_per_point_certificates():
    nx = pytest.importorskip("networkx")
    graphs = [
        Graph.from_edges(7, list(h.edges()))
        for h in nx.graph_atlas_g()[::97]
        if h.number_of_nodes() == 7
    ]
    assert graphs
    for g in graphs:
        for k in range(3, 7):
            cert = minors_combination(g, k)
            packed = cert and [(m["rows"], m["cols"], m["weight"]) for m in cert.data["minors"]]
            assert packed == _per_point_minors_combination(g, k)


@pytest.mark.parametrize(
    "g, orders",
    [
        (cycle(7), range(2, 7)),  # certificates up to order 4, mur(C7) = 4
        (cycle(7).complement(), range(2, 7)),
        (complete_bipartite(3, 4), range(2, 7)),  # mur = 1: every attempt fails
        # past the table order, 192**12 > 2**64: heads above the prime and
        # values of two signed 64-bit digits
        (cycle(14), [engine._TABLE_ORDER + 2]),
        # values up to 2**77, past (3n)**k < 2**60, the height of coefficients
        (cycle(14).complement(), [engine._TABLE_ORDER + 1]),
    ],
    ids=["C7", "C7-complement", "K3,4", "C14-k12", "C14-complement-k11"],
)
def test_symmetric_graphs_give_the_per_point_certificates(g, orders):
    # Most minors of a symmetric graph are + or - copies of one another,
    # and they are dropped before they are decoded; the certificates are
    # those of the per-point stage, and each replays.
    for k in orders:
        cert = minors_combination(g, k)
        packed = cert and [(m["rows"], m["cols"], m["weight"]) for m in cert.data["minors"]]
        assert packed == _per_point_minors_combination(g, k)
        if cert is not None:
            assert report._replay_minor_combination(g, cert.data) == (k, "")


def test_minors_combination_only_where_rank_is_forced():
    assert minors_combination(p_prime(4), 3).data["k"] == 3
    assert minors_combination(p_prime(5), 4).data["k"] == 4
    # mur(P'6) = 4, mur(C5) = 2, mur(P'7) = 5 and mur(P'11) = 9: their minors
    # of one order more have a common zero, so no certificate may exist.
    # P'11 at 10 evaluates minors a point at a time and stops at the work cap.
    assert minors_combination(p_prime(6), 5) is None
    assert minors_combination(cycle(5), 3) is None
    assert minors_combination(p_prime(7), 6) is None
    assert minors_combination(p_prime(11), 10) is None


def test_minors_certificate_is_pinned():
    # The minors chosen and their weights are part of the report format:
    # the P'5 certificate must not move when the stage's arithmetic does.
    want = [
        ([0, 1, 2, 3], [0, 1, 3, 4], "-2"),
        ([0, 1, 2, 4], [0, 1, 2, 5], "2"),
        ([0, 1, 2, 4], [0, 1, 3, 5], "3"),
        ([0, 1, 2, 4], [0, 1, 4, 5], "-2"),
        ([0, 1, 2, 4], [0, 2, 3, 4], "1"),
        ([0, 1, 2, 4], [0, 2, 3, 5], "-3"),
        ([0, 1, 2, 4], [1, 2, 4, 5], "4"),
        ([0, 1, 3, 4], [1, 2, 3, 4], "1"),
    ]
    cert = minors_combination(p_prime(5), 4)
    assert [(m["rows"], m["cols"], m["weight"]) for m in cert.data["minors"]] == want


def test_minors_certificate_is_pinned_at_order_5():
    # Order 5 takes most of the minors time on seven vertices; this is the
    # first atlas graph that compute_mur closes with 5 x 5 minors.
    r = [0, 1, 2, 3, 4]
    want = [
        (r, [0, 1, 2, 3, 5], "1"),
        (r, [0, 1, 2, 3, 6], "-1/2"),
        (r, [0, 1, 2, 4, 6], "2"),
        (r, [0, 1, 2, 5, 6], "-3/2"),
        (r, [0, 1, 3, 4, 6], "2"),
        (r, [0, 2, 3, 5, 6], "-2"),
        (r, [1, 2, 3, 4, 5], "3"),
        (r, [1, 2, 3, 4, 6], "-3"),
        (r, [1, 2, 3, 5, 6], "8"),
        (r, [1, 2, 4, 5, 6], "-17/2"),
        ([0, 1, 2, 3, 5], [0, 1, 2, 3, 6], "-3/2"),
        ([1, 2, 3, 4, 5], [1, 2, 4, 5, 6], "3"),
        ([1, 2, 3, 4, 6], [1, 2, 3, 5, 6], "-2"),
    ]
    cert = minors_combination(parse_graph6("FHCG_"), 5)
    assert [(m["rows"], m["cols"], m["weight"]) for m in cert.data["minors"]] == want


@settings(max_examples=25, deadline=None)
@given(graphs_strategy(12), st.data())
def test_top_degree_coefficients_do_not_depend_on_gamma(g, data):
    # gamma*J has rank one, so a k x k minor is det B + gamma * 1^T adj(B) 1
    # with adj(B) of degree k - 1 in (beta, delta): its coefficients of total
    # degree k are the same at gamma = 1 as at gamma = 0.  The echelon runs
    # on the other (k+1)**2 coordinates, and each coordinate it leaves out
    # equals one it keeps, earlier in minor_points order, in every minor
    # and in the constant 1, so no pivot can fall on it.
    for k in range(1, min(g.n, engine._TABLE_ORDER) + 1):
        points = minor_points(k)
        index = {p: i for i, p in enumerate(points)}
        index_sets = st.permutations(range(g.n)).map(lambda p: tuple(sorted(p[:k])))
        pairs = sorted((data.draw(index_sets), data.draw(index_sets)) for _ in range(2))
        vectors = [v for _, _, v in minor_coefficients(g, k, pairs)]
        for v in vectors:
            for b in range(k + 1):
                assert v[index[b, 1, k - b]] == v[index[b, 0, k - b]]
        vectors.append(engine.constant_one(k))
        kept = engine._echelon_coordinates(k)
        assert len(kept) == (k + 1) ** 2
        for i in set(range(len(points))) - set(kept):
            assert any(all(v[i] == v[j] for v in vectors) for j in kept if j < i), points[i]


def test_minors_stage_matches_the_reference_on_the_atlas():
    # The echelon on the (k+1)**2 coordinates keeps the minors, and gives the
    # certificates, of the echelon on all (k+1)(k+2).
    for g in atlas7()[::5]:
        for side in (g, g.complement()):
            for k in range(2, 7):
                want = reference_minors_combination(side, k)
                got = minors_combination(side, k)
                assert (got and got.data) == (want and want.data), (side, k)


def test_minors_stage_matches_the_reference_on_the_family_graphs():
    # Family formulas settle these graphs before compute_mur reaches the
    # minors stage, so the stage runs on them directly: at the exact value,
    # where a certificate may exist, and one above it, where none can.
    for name, g, value in family_checks():
        for k in range(max(value, 2), min(value + 1, g.n) + 1):
            want = reference_minors_combination(g, k)
            got = minors_combination(g, k)
            assert (got and got.data) == (want and want.data), (name, k)


def test_minors_stage_matches_the_reference_on_seeded_graphs(monkeypatch):
    # Seeded G(n, 1/2), at every order compute_mur tries on them.
    attempts = spy_on(monkeypatch, "minors_combination")
    for n in (8, 9, 10):
        for seed in range(10):
            compute_mur(verify._random_graph(random.Random(1000 * n + seed), n))
    monkeypatch.undo()
    assert len(attempts) >= 30
    for g, k in attempts:
        want = reference_minors_combination(g, k)
        got = minors_combination(g, k)
        assert (got and got.data) == (want and want.data), (g, k)


def test_minors_stage_matches_the_reference_past_the_table_order(monkeypatch):
    # Past the table order a minor's vector holds values, and the echelon
    # keeps every coordinate: P13's pinned certificate at order 11.
    monkeypatch.setattr(engine, "_MINOR_STAGE_WORK", 10**12)
    g = path(13)
    got = minors_combination(g, 11)
    assert got.data == reference_minors_combination(g, 11).data
    assert len(got.data["minors"]) == len(P13_ORDER_11)


def test_minors_stage_leaves_no_cyclic_garbage():
    # Whatever the stage builds is freed by reference counting alone, in
    # attempts that succeed and fail; C7 and K3,4 fail at these orders after
    # dropping mostly + or - copies.
    cases = [
        (p_prime(4), 3),
        (p_prime(5), 4),
        (cycle(5), 3),
        (parse_graph6("Fxef?"), 5),
        (cycle(7), 5),
        (complete_bipartite(3, 4), 4),
    ]
    gc.collect()
    gc.disable()
    try:
        for g, k in cases:
            minors_combination(g, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_minors_stage_streams_the_subsets():
    # On the friendship graph F11 (23 vertices) the work cap allows a few
    # pairs out of 1,352,078 subsets of 11 vertices; a list of them all
    # peaks near 200 MB.
    tracemalloc.start()
    try:
        minors_combination(friendship(11), 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _whole_stream(g, k, cap):
    """The first ``cap`` pairs R <= C of k-subsets in lexicographic order,
    none skipped: the stream of the minors stage without the twin rule."""
    pairs = (
        (rows, cols)
        for i, rows in enumerate(combinations(range(g.n), k))
        for cols in islice(combinations(range(g.n), k), i, None)
    )
    return islice(pairs, cap)


def _stage_run(g, k):
    """minors_combination(g, k)'s certificate data, and the coefficients of
    the minors its echelon kept, in order."""
    kept = []
    add = engine._Echelon.add

    def spy(self, v):
        if add(self, v):
            kept.append(tuple(v))
            return True
        return False

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine._Echelon, "add", spy)
        cert = minors_combination(g, k)
    return cert and cert.data, kept


def assert_same_minors(g, orders):
    # The stage over the twin rule's pairs keeps the minors, and gives the
    # certificate, of the stage over the whole stream.
    for k in orders:
        got = _stage_run(g, k)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_minor_pairs", _whole_stream)
            want = _stage_run(g, k)
        assert got == want, k


def test_twin_rule_keeps_the_minors_on_the_atlas():
    for g in atlas7()[::10]:
        for side in (g, g.complement()):
            assert_same_minors(side, range(3, 7))


def _seeded_with_twins(n, count):
    graphs = (verify._random_graph(random.Random(1000 * n + seed), n) for seed in range(1000))
    return list(islice((g for g in graphs if any(earlier_twins(g))), count))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_twin_rule_keeps_the_minors_on_seeded_graphs(n):
    # The work cap binds from order 5 on 10 vertices: the pairs both
    # streams reach end at the same position.
    for g in _seeded_with_twins(n, 4):
        assert_same_minors(g, range(3, n - 1))


@pytest.mark.parametrize(
    "g",
    [friendship(3), complete_bipartite(3, 4), complete(7).complement()],
    ids=["F3", "K3,4", "7K1"],
)
def test_twin_rule_keeps_the_minors_on_twin_families(g):
    assert_same_minors(g, range(2, 5))


def test_twin_rule_keeps_the_minors_of_a_complete_multipartite_graph():
    # K2,2,3: three classes of open twins, every vertex in one
    part = [0, 0, 1, 1, 2, 2, 2]
    g = Graph.from_edges(7, [(u, v) for u, v in combinations(range(7), 2) if part[u] != part[v]])
    assert earlier_twins(g) == [0, 0b1, 0, 0b100, 0, 0b10000, 0b110000]
    assert_same_minors(g, range(2, 5))


def test_twin_rule_skips_only_zero_or_repeated_minors():
    # 0, 1, 2 are open twins (N = {3, 4}) and 5, 6 closed twins (N[5] =
    # {4, 5, 6}).  Every pair the rule skips has a zero minor or + or - that
    # of a pair earlier in the stream that it keeps, and a cap on the
    # stream's positions cuts the kept pairs at the same place.
    g = Graph.from_edges(7, [(u, v) for u in range(3) for v in (3, 4)] + [(4, 5), (4, 6), (5, 6)])
    assert earlier_twins(g) == [0, 0b1, 0b11, 0, 0, 0, 0b100000]
    for k in range(1, 7):
        whole = list(_whole_stream(g, k, None))
        kept = list(engine._minor_pairs(g, k, len(whole)))
        place = {pair: i for i, pair in enumerate(whole)}
        assert [place[pair] for pair in kept] == sorted(place[pair] for pair in kept)
        coeffs = dict(((r, c), m) for r, c, m in minor_coefficients(g, k, whole))
        tried = {}  # + or - a minor kept -> its first pair
        for pair in whole:
            minor = coeffs[pair]
            key = max(minor, tuple(-x for x in minor))
            if pair in kept:
                tried.setdefault(key, pair)
            else:
                assert not any(minor) or key in tried, (k, pair)
        assert len(kept) < len(whole) or k == 6
        for cap in range(len(whole) + 1):
            assert list(engine._minor_pairs(g, k, cap)) == [p for p in kept if place[p] < cap]


def test_twin_rule_work_is_pinned():
    # F~aK? has twin classes {1, 2, 3} and {4, 5}.  compute_mur tries 553
    # pairs of the whole stream, and the twin rule lets 70 of them reach the
    # minors; a change may lower this count, never raise it.
    g = parse_graph6("F~aK?")
    assert earlier_twins(g) == [0, 0, 0b10, 0b110, 0, 0b10000, 0]
    count = 0
    minors = engine._minors

    def spy(g, k, pairs):
        def counted():
            nonlocal count
            for pair in pairs:
                count += 1
                yield pair

        return minors(g, k, counted())

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_minors", spy)
        res = compute_mur(g)
    assert res.value == 3 and res.lower_cert.kind == "minor_combination"
    assert count == 70


def spy_on(monkeypatch, name):
    """The arguments of every call to ``engine.<name>``, which still runs."""
    calls = []
    take = getattr(engine, name)

    def counted(*args):
        calls.append(args)
        return take(*args)

    monkeypatch.setattr(engine, name, counted)
    return calls


def test_minors_certificate_stops_the_search(monkeypatch):
    # The delta = 0 line lowers the structural upper bound 5 to 4, where a
    # minors combination certifies 4; the other lines must not be searched,
    # and no attempt is made at 5, which that line's point refutes.
    lines = spy_on(monkeypatch, "_line_eigenvalues")
    attempts = spy_on(monkeypatch, "minors_combination")
    g = parse_graph6("FJO`?")
    res = compute_mur(g, Budget())
    assert res.value == 4 and res.lower_cert.kind == "minor_combination"
    assert res.lower_cert.data["k"] == 4
    assert lines == [(g, Fraction(0))]
    assert [k for _, k in attempts] == [4]


def test_family_suite_stops_its_searches_at_the_family_values(monkeypatch):
    # 522 forest searches before the family value capped them: a value of 0
    # needs no search, and a graph whose own side meets it leaves its
    # complement unsearched.
    searches = spy_on(monkeypatch, "best_induced_path_forest")
    verify.run_suite("families")
    assert len(searches) == 310


@pytest.mark.parametrize("n", [7, 11])
def test_no_minors_attempt_the_delta_zero_line_refutes(monkeypatch, n):
    # The structural upper bound of P'n is n - 1, and the delta = 0 line
    # finds a point of rank n - 2, the path-forest bound: the value is
    # settled with no minors attempt at all.
    attempts = spy_on(monkeypatch, "minors_combination")
    res = compute_mur(p_prime(n))
    assert res.interval() == (n - 2, n - 2)
    assert res.upper_cert.kind == "explicit_params"
    assert attempts == []


@pytest.mark.parametrize("g6", ["Fpa?g", "Fgog_"])
def test_minors_one_order_below_the_upper_bound(g6):
    # The minors attempt at the upper bound 5 fails, and the path forest
    # gives only 3; 4 x 4 minors combine to 1, so the interval is [4, 5].
    res = compute_mur(parse_graph6(g6))
    assert res.interval() == (4, 5)
    assert res.lower_cert.kind == "minor_combination" and res.lower_cert.data["k"] == 4


def test_spread_suite_runs_each_whole_graph_once(monkeypatch):
    # 8 whole graphs and 50 deleted ones; each check is the one mur_spread
    # gives at its vertex.
    runs = spy_on(monkeypatch, "compute_mur")
    checks = suite_spread_bounds()
    assert len(runs) == 58 and len(checks) == 50
    assert [g for g, _ in runs] == [
        h for _, g in _spread_corpus() for h in (g, *map(g.delete_vertex, range(g.n)))
    ]
    monkeypatch.undo()
    want = []
    for name, g in _spread_corpus():
        for v in range(g.n):
            sp, (blo, bhi) = mur_spread(g, v), spread_bounds(g, v)
            msg = f"[{sp.lower}, {sp.upper}] within [{blo}, {bhi}]"
            want.append((f"spread bounds {name} v={v}", blo <= sp.lower and sp.upper <= bhi, msg))
    assert checks == want


def test_spread_suite_raises_on_an_interval_past_the_bounds(monkeypatch):
    monkeypatch.setattr(engine, "spread_bounds", lambda g, v: (5, 6))
    with pytest.raises(EngineError, match="misses the proven bounds"):
        suite_spread_bounds()


def test_spread_bounds_formula():
    # P5 middle vertex: degree 2, n = 5
    assert spread_bounds(path(5), 2) == (-2, 4)
    # star center: degree 4, n = 5
    assert spread_bounds(star(5), 0) == (0, 2)


def test_mur_spread_examples():
    res = mur_spread(path(5), 0)
    assert res.value == 1
    res = mur_spread(star(5), 1)  # pendant vertex
    assert res.value == 0
    with pytest.raises(EngineError):
        mur_spread(path(5), 9)
    with pytest.raises(EngineError):
        mur_spread(empty(1), 0)
