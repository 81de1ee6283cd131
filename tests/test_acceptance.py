"""End-to-end acceptance gate.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them as they happen).  The value-2 spread sub-check is split out: it
needs mur of the generalized star to be certified as exactly 3, which
takes a minors-combination lower bound (its 3x3 minors combine to 1, so
no parameters give rank 2).
"""

import random
import time
from fractions import Fraction

from murlab.engine import (
    Budget,
    Certificate,
    _delta_lines,
    compute_mur,
    laplacian,
    minors_combination,
    mur_spread,
    search_lines,
    universal_matrix,
)
from murlab.graphs import (
    Graph,
    clique_isolated_apex,
    complete,
    complete_bipartite,
    component_masks,
    cycle,
    disjoint_union,
    p_prime,
    path,
    petersen,
    star,
)
from murlab.matrices import rank_rational
from murlab.polynomials import Poly
from murlab.report import _parse_point, _replay_lower
from murlab.verify import (
    suite_complements,
    suite_families,
    suite_pprime,
    suite_spread_bounds,
)
from helpers import atlas7, rational_charpoly

def announce(criterion: str, failures: list):
    status = "FAIL" if failures else "PASS"
    print(f"\nACCEPTANCE {criterion}: {status}")
    for f in failures[:10]:
        print(f"  failed: {f}")
    assert not failures, failures[:10]


def test_criterion_1_family_exact_values():
    failures = [f"{name}: {msg}" for name, ok, msg in suite_families() if not ok]
    # gap of the cycle unions over the separate pieces
    for k in (1, 2):
        g = disjoint_union([cycle(3)] * k + [cycle(4)] * k)
        whole = compute_mur(g).value
        parts = (
            compute_mur(disjoint_union([cycle(3)] * k)).value
            + compute_mur(disjoint_union([cycle(4)] * k)).value
        )
        if whole - parts != 2 * k + 1:
            failures.append(f"{k}C3u{k}C4 gap {whole - parts} != {2 * k + 1}")
    # non-monotone pair of apex graphs
    a = compute_mur(clique_isolated_apex(4, 3)).value
    b = compute_mur(clique_isolated_apex(4, 4)).value
    if not (a == 3 and b == 2 and a > b):
        failures.append(f"apex monotonicity counterexample: {a} vs {b}")
    announce("1 family-exact-values", failures)


def test_criterion_2_near_path_constructions():
    failures = [f"{name}: {msg}" for name, ok, msg in suite_pprime() if not ok]
    announce("2 near-path-constructions", failures)


def _random_graph(rng, n):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, edges)


def _gram(rng, n, cols):
    vecs = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(cols)]
    return [
        [Fraction(sum(v[i] * v[j] for v in vecs)) for j in range(n)]
        for i in range(n)
    ]


def test_criterion_3_property_suites():
    failures = []
    rng = random.Random(0)

    failures += [f"{n}: {m}" for n, ok, m in suite_complements(seed=0) if not ok]

    for t in range(50):
        g = _random_graph(rng, rng.randint(1, 10))
        r = rank_rational(laplacian(g))
        want = g.n - len(component_masks(g, (1 << g.n) - 1))
        if r != want:
            failures.append(f"laplacian rank trial {t}: {r} != {want}")

    done = 0
    while done < 50:
        n = rng.randint(2, 8)
        a = _gram(rng, n, n - 1)  # singular symmetric
        # the all-ones vector is in the column space of m exactly when
        # appending it as a column keeps m's rank
        if rank_rational([row + [1] for row in a]) == rank_rational(a):
            continue
        gamma = Fraction(rng.randint(1, 9), rng.randint(1, 5)) * rng.choice((1, -1))
        shifted = [[a[i][j] + gamma for j in range(n)] for i in range(n)]
        if rank_rational([row + [1] for row in shifted]) != rank_rational(shifted):
            failures.append(f"column-space trial {done}: e not in col(A + {gamma}J)")
        done += 1

    failures += [f"{n}: {m}" for n, ok, m in suite_spread_bounds() if not ok]
    for name, g, v, want in (
        ("apex(4,4) leaf", clique_isolated_apex(4, 4), 4, -1),
        ("star pendant", star(5), 1, 0),
        ("P5 endpoint", path(5), 0, 1),
    ):
        sp = mur_spread(g, v)
        if sp.value != want:
            failures.append(f"spread {name}: [{sp.lower}, {sp.upper}] != {want}")

    for g in (cycle(6), cycle(8), complete(5), complete(7),
              complete_bipartite(3, 3), complete_bipartite(4, 4)):
        whole = compute_mur(g).value
        for v in range(g.n):
            sub = compute_mur(g.delete_vertex(v))
            if not (sub.exact and sub.value <= whole):
                failures.append(
                    f"monotonicity {g.n}-vertex regular at v={v}: "
                    f"[{sub.lower}, {sub.upper}] vs {whole}"
                )
    announce("3 property-suites", failures)


def test_criterion_3_seven_vertex_corpus():
    graphs = atlas7()
    assert len(graphs) == 1044
    failures = []
    exact = 0
    start = time.monotonic()
    for i, g in enumerate(graphs):
        res = compute_mur(g, Budget())
        exact += res.exact
        if not 0 <= res.lower <= res.upper <= 5:
            failures.append(f"graph {i}: [{res.lower}, {res.upper}]")
        # A minors attempt one order below the upper bound closes every wider
        # gap: no interval may be open by more than one.
        if res.upper - res.lower > 1:
            failures.append(f"graph {i}: [{res.lower}, {res.upper}] is open by more than 1")
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(f"corpus took {elapsed:.1f}s (limit 300)")
    # A pin on the corpus exact count: it may rise, never fall.
    if exact < 1008:
        failures.append(f"{exact} of 1044 graphs exact (at least 1008 expected)")
    print(f"\n7-vertex corpus: 1044 graphs in {elapsed:.1f}s, {exact} exact")
    announce("3 seven-vertex-corpus", failures)


def test_criterion_4_spectrum_engine():
    failures = []
    if compute_mur(petersen()).value != 4:
        failures.append("petersen mur != 4")
    adj = [
        [Fraction(int(cycle(4).has_edge(i, j))) for j in range(4)] for i in range(4)
    ]
    if rational_charpoly(adj) != Poly((0, 0, -4, 0, 1)):
        failures.append(f"charpoly(A(C4)) = {rational_charpoly(adj)!r}")
    announce("4 spectrum-engine", failures)


def test_criterion_3_spread_value_two_unattainable():
    # The generalized star (P4 with a pendant at its second-to-last vertex)
    # has spread 2 at its far endpoint only if its minimum universal rank is
    # exactly 3 *and* certified: the path and diameter bounds stop at 2, so
    # the lower bound 3 comes from a combination of 3x3 minors equal to 1,
    # which must replay, next to a parameter point of rank 3 on the delta
    # lines (compute_mur's own upper certificate is the order bound).
    g = p_prime(4)
    failures = []
    cert = minors_combination(g, 3)
    replayed = cert and _replay_lower(g, {"kind": cert.kind, "data": cert.data})
    if not replayed or replayed[0] != 3:
        failures.append(f"3x3 minors certificate {cert} replays to {replayed}, want 3")
    _, found = search_lines(g, 3, g.n, Certificate("trivial"), _delta_lines(g))
    if found.kind != "explicit_params":
        failures.append(f"no point of rank 3 on the delta lines ({found.describe()})")
    elif rank_rational(universal_matrix(g, _parse_point(found.data))) != 3:
        failures.append(f"rank of U at {found.data} is not 3")
    sp = mur_spread(g, 0)
    if sp.value != 2:
        failures.append(f"spread interval [{sp.lower}, {sp.upper}], want exactly 2")
    announce("3 spread-value-two", failures)
