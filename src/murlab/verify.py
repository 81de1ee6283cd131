"""Named verification suites: each re-checks a body of exact results.

The suites back both the ``murlab verify`` subcommand and the test
suite.  Every check is a ``report.Check``, (name, ok, message).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, Iterable

from . import graphs
from .engine import (
    Budget,
    ParamPoint,
    _spreads,
    complement_params,
    compute_mur,
    integer_universal_matrix,
    spread_bounds,
    universal_matrix,
)
from .graphs import Graph
from .matrices import rank_algebraic, rank_rational
from .polynomials import Poly
from .report import Check


def _random_graph(rng: random.Random, n: int) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
    ]
    return Graph.from_edges(n, edges)


def _random_point(rng: random.Random) -> ParamPoint:
    def f():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))

    return ParamPoint(f(), f(), f())


def _exact_check(name: str, g: Graph, want: int) -> Check:
    res = compute_mur(g, Budget())
    ok = res.exact and res.value == want
    return Check(name, ok, f"got [{res.lower}, {res.upper}], want {want}")


def _branch_check(name: str, n: int, modulus: tuple[int, ...], gamma: tuple) -> Check:
    """P'n at (beta, gamma, delta) = (-theta, gamma, theta) with theta a root
    of f = ``modulus`` and gamma given by its coefficients in theta: rank
    n - 2 on every branch."""
    f = Poly(modulus)
    theta = Poly.x()
    p = ParamPoint(-theta, Poly(gamma), theta)
    branches = rank_algebraic(universal_matrix(graphs.p_prime(n), p), f)
    msg = "; ".join(f"branch {b!r} rank {r}" for b, r in branches)
    return Check(f"fixture {name}", all(r == n - 2 for _, r in branches), msg)


# U(1, 1, -1/3, -1) of the path on 3 vertices, of rank 1.
PATH3_SHIFT_MATRIX = [
    [Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)],
    [Fraction(2, 3), Fraction(-4, 3), Fraction(2, 3)],
    [Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)],
]


# ---------------------------------------------------------------------------
# suites


def suite_complements(seed: int = 0) -> list[Check]:
    """Rank is preserved under the complement parameter transfer, on 100
    seeded graphs and points."""
    rng = random.Random(seed)
    out = []
    for t in range(100):
        n = rng.randint(1, 6)
        g = _random_graph(rng, n)
        p = _random_point(rng)
        r1 = rank_rational(integer_universal_matrix(g, p))
        r2 = rank_rational(integer_universal_matrix(g.complement(), complement_params(g, p)))
        out.append(Check(f"complement transfer #{t} (n={n})", r1 == r2, f"{r1} vs {r2}"))
    return out


def _spread_corpus() -> Iterable[tuple[str, Graph]]:
    yield "P5", graphs.path(5)
    yield "P7", graphs.path(7)
    yield "C6", graphs.cycle(6)
    yield "K5", graphs.complete(5)
    yield "K14", graphs.star(5)
    yield "K4uK3", graphs.disjoint_union([graphs.complete(4), graphs.complete(3)])
    yield "K33", graphs.complete_bipartite(3, 3)
    yield "apex(4,4)", graphs.clique_isolated_apex(4, 4)


def suite_spread_bounds() -> list[Check]:
    """Spread intervals stay inside the proven degree-based bounds."""
    out = []
    for name, g in _spread_corpus():
        # raises if an interval misses the bounds
        for sp in _spreads(g, range(g.n)):
            blo, bhi = spread_bounds(g, sp.vertex)
            inside = blo <= sp.lower and sp.upper <= bhi
            msg = f"[{sp.lower}, {sp.upper}] within [{blo}, {bhi}]"
            out.append(Check(f"spread bounds {name} v={sp.vertex}", inside, msg))
    return out


def suite_union_lower() -> list[Check]:
    """mur(G) + mur(H) <= mur(G u H) <= mur(G) + |V(H)| + 1 on known pairs."""
    pairs = [
        ("P4+P4", graphs.path(4), graphs.path(4)),
        ("P5+P5", graphs.path(5), graphs.path(5)),
        ("C3+C4", graphs.cycle(3), graphs.cycle(4)),
        ("2C3+2C4", graphs.disjoint_union([graphs.cycle(3)] * 2),
         graphs.disjoint_union([graphs.cycle(4)] * 2)),
        ("K4+K3", graphs.complete(4), graphs.complete(3)),
        ("C3+C3", graphs.cycle(3), graphs.cycle(3)),
        ("K2+K3uK4", graphs.complete(2),
         graphs.disjoint_union([graphs.complete(3), graphs.complete(4)])),
    ]
    out = []
    for name, a, b in pairs:
        ra, rb = compute_mur(a), compute_mur(b)
        ru = compute_mur(graphs.disjoint_union([a, b]))
        ok = ra.exact and rb.exact and ru.exact
        msg = f"{ra.value}+{rb.value} vs union {ru.value}"
        lower_ok = ok and ra.value + rb.value <= ru.value
        upper_ok = ok and ru.value <= ra.value + b.n + 1
        out.append(Check(f"union lower {name}", lower_ok, msg))
        out.append(Check(f"union upper {name}", upper_ok, msg))
    return out


def family_checks() -> list[tuple[str, Graph, int]]:
    """(name, graph, exact value) for every family with a paper formula."""
    cases: list[tuple[str, Graph, int]] = []
    for n in range(3, 13):
        cases.append((f"P{n}", graphs.path(n), n - 2))
    for n in range(4, 11):
        cases.append(
            (f"P{n - 1}uP1", graphs.disjoint_union([graphs.path(n - 1), graphs.empty(1)]), n - 2)
        )
    for n in range(3, 8):
        cases.append((f"P{n}uP{n}", graphs.disjoint_union([graphs.path(n)] * 2), 2 * n - 3))
    for n in range(3, 13):
        cases.append((f"C{n}", graphs.cycle(n), n - 3))
    for k in range(1, 4):
        for n in range(3, 6):
            cases.append(
                (f"{k}C{n}", graphs.disjoint_union([graphs.cycle(n)] * k), k * n - 2 * k - 1)
            )
    for n in range(1, 11):
        cases.append((f"K{n}", graphs.complete(n), 0))
        cases.append((f"K{n}c", graphs.empty(n), 0))
    # rank-one shapes and their complements
    for r, s in [(2, 2), (3, 2), (4, 4), (5, 2)]:
        g = graphs.disjoint_union([graphs.complete(r), graphs.complete(s)])
        cases.append((f"K{r}uK{s}", g, 1))
        cases.append((f"(K{r}uK{s})c", g.complement(), 1))
    for r, s in [(2, 1), (3, 2), (5, 3)]:
        g = graphs.disjoint_union([graphs.complete(r), graphs.empty(s)])
        cases.append((f"K{r}u{s}K1", g, 1))
        cases.append((f"(K{r}u{s}K1)c", g.complement(), 1))
    cases.append(
        ("K5uK1uK1", graphs.disjoint_union([graphs.complete(5), graphs.empty(2)]), 1)
    )

    def partitions(total: int, minimum: int) -> Iterable[tuple[int, ...]]:
        if total == 0:
            yield ()
            return
        for first in range(minimum, total + 1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for total in range(4, 13):
        for sizes in partitions(total, 2):
            if len(sizes) < 2:
                continue
            g = graphs.disjoint_union([graphs.complete(s) for s in sizes])
            label = "u".join(f"K{s}" for s in sizes)
            cases.append((label, g, len(sizes) - 1))
            cases.append((f"({label})c", g.complement(), len(sizes) - 1))
    for r in range(0, 10):
        for s in range(0, 10 - r):
            if s - r + 1 == 0:
                continue
            if s == 0 or (s == 1 and r == 0):
                want = 0
            elif r <= 1:
                want = 1
            else:
                want = 2
            cases.append((f"apex({r},{s})", graphs.clique_isolated_apex(r, s), want))
    for r, s in [(4, 3), (5, 4), (6, 5)]:
        cases.append((f"apex({r},{s})", graphs.clique_isolated_apex(r, s), 3))
    for k in (1, 2):
        g = graphs.disjoint_union([graphs.cycle(3)] * k + [graphs.cycle(4)] * k)
        cases.append((f"{k}C3u{k}C4", g, 5 * k - 1))
    return cases


def suite_families() -> list[Check]:
    return [_exact_check(name, g, want) for name, g, want in family_checks()]


def suite_pprime() -> list[Check]:
    out = []
    for n in (6, 9, 12, 7, 11):
        out.append(_exact_check(f"P'{n}", graphs.p_prime(n), n - 2))
    # P'4 and P'5 sit one above n - 2; only a minors certificate closes them.
    for n in (4, 5):
        res = compute_mur(graphs.p_prime(n))
        ok = res.exact and res.value == n - 1 and res.lower_cert.kind == "minor_combination"
        msg = f"got [{res.lower}, {res.upper}] ({res.lower_cert.describe()}), want {n - 1}"
        out.append(Check(f"P'{n}", ok, msg))
    # P'8 and P'10 reach rank n - 2 only at irrational points, checked on
    # every branch: delta = theta, beta = -theta over Q[x]/(x^2 - x - 1),
    # and over Q[x]/(x^3 - x^2 - 2x + 1), the minimal polynomial of
    # -2*cos(2*pi/7) and its conjugates.  gamma is (3 theta - 5)^-1 =
    # -2 - 3 theta on the first and -(theta^2 - 5 theta + 6)^-1 =
    # (4 - 11 theta - 12 theta^2) / 13 on the second.
    out.append(_branch_check("pprime8-golden", 8, (-1, -1, 1), (-2, -3)))
    out.append(_branch_check("pprime10-heptagon", 10, (1, -2, -1, 1),
                             (Fraction(4, 13), Fraction(-11, 13), Fraction(-12, 13))))
    m = universal_matrix(graphs.path(3), ParamPoint.rational(1, Fraction(-1, 3), -1))
    r = rank_rational(m)
    pinned = m == PATH3_SHIFT_MATRIX
    msg = f"rank {r}" if pinned else f"matrix mismatch; rank {r}"
    out.append(Check("fixture path-laplacian-shift", pinned and r == 1, msg))
    return out


SUITES: dict[str, Callable[[], list[Check]]] = {
    "complements": suite_complements,
    "spread-bounds": suite_spread_bounds,
    "union-lower": suite_union_lower,
    "families": suite_families,
    "pprime": suite_pprime,
}


def run_suite(name: str, seed: int = 0) -> list[Check]:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    if name == "complements":
        return suite_complements(seed=seed)
    return SUITES[name]()
