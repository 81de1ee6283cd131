"""Checks on murlab's outputs that share no code with murlab's engine.

Nothing here imports ``murlab.matrices``, ``murlab.engine`` or
``murlab.report``: ranks are recomputed by plain Gaussian elimination over
``Fraction``, the universal matrix is rebuilt from the adjacency, and the
families with a closed form are recognized from degrees and connectivity.
Each check returns a list of error strings; an empty list is a pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

Adjacency = list[list[bool]]
Point = tuple[Fraction, Fraction, Fraction]


def adjacency(g) -> Adjacency:
    return [[g.has_edge(i, j) for j in range(g.n)] for i in range(g.n)]


def universal(adj: Adjacency, beta, gamma, delta) -> list[list[Fraction]]:
    """A + beta*I + gamma*J + delta*D with exact entries."""
    n = len(adj)
    out = []
    for i in range(n):
        deg = sum(adj[i])
        out.append([
            beta + gamma + delta * deg if i == j else gamma + (1 if adj[i][j] else 0)
            for j in range(n)
        ])
    return out


def rank(m: list[list[Fraction]]) -> int:
    """Rank by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in m]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][c] / top[c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        r += 1
    return r


def small_points(rng: random.Random, count: int) -> list[Point]:
    """Random points with small numerators and denominators.  Such points
    often sit where the rank drops, so they can refute a lower bound."""
    def f() -> Fraction:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    return [(f(), f(), f()) for _ in range(count)]


def check_order(n: int, lower: int, upper: int) -> list[str]:
    top = max(n - 2, 0)
    if not 0 <= lower <= upper <= top:
        return [f"interval [{lower}, {upper}] outside 0 <= lower <= upper <= {top}"]
    return []


def check_upper_point(adj: Adjacency, upper: int, cert: dict) -> list[str]:
    """A rational explicit_params certificate has the rank it claims, and
    that rank is at most the claimed upper bound."""
    data = cert.get("data", {})
    if cert.get("kind") != "explicit_params" or "modulus" in data:
        return []
    r = rank(universal(adj, *(Fraction(data[k]) for k in ("beta", "gamma", "delta"))))
    if r != data["rank"]:
        return [f"explicit point has rank {r}, certificate claims {data['rank']}"]
    if r > upper:
        return [f"explicit point has rank {r} above the claimed upper {upper}"]
    return []


def check_lower_at(adj: Adjacency, lower: int, points: list[Point]) -> list[str]:
    """No parameter point has rank below a certified lower bound."""
    errors = []
    for p in points:
        r = rank(universal(adj, *p))
        if r < lower:
            errors.append(f"rank {r} at {tuple(map(str, p))} is below the lower bound {lower}")
    return errors


def check_complement_pair(a: tuple[int, int], b: tuple[int, int]) -> list[str]:
    """mur(G) = mur(complement of G), so the two certified intervals meet."""
    if max(a[0], b[0]) > min(a[1], b[1]):
        return [f"complement intervals {list(a)} and {list(b)} do not intersect"]
    return []


def _connected(adj: Adjacency) -> bool:
    seen, todo = {0}, [0]
    while todo:
        v = todo.pop()
        for u, e in enumerate(adj[v]):
            if e and u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == len(adj)


def paper_value(adj: Adjacency) -> Optional[int]:
    """mur of a path (n-2), cycle (n-3) or complete graph (0), or of the
    complement of one, since complementing preserves mur; else None."""
    n = len(adj)
    comp = [[i != j and not adj[i][j] for j in range(n)] for i in range(n)]
    for side in (adj, comp):
        degs = sorted(sum(row) for row in side)
        if n >= 1 and degs == [n - 1] * n:
            return 0
        if n >= 3 and _connected(side):
            if degs == [1, 1] + [2] * (n - 2):
                return n - 2
            if degs == [2] * n:
                return n - 3
    return None


def check_paper_value(adj: Adjacency, lower: int, upper: int) -> list[str]:
    want = paper_value(adj)
    if want is not None and (lower, upper) != (want, want):
        return [f"interval [{lower}, {upper}] but the paper's formula gives {want}"]
    return []


def check_result(adj: Adjacency, doc: dict, rng: random.Random) -> list[str]:
    """Every check above that applies to one murlab-report/1 document."""
    lower, upper = doc["result"]["lower"], doc["result"]["upper"]
    return (
        check_order(len(adj), lower, upper)
        + check_upper_point(adj, upper, doc["upper_certificate"])
        + check_lower_at(adj, lower, small_points(rng, 3))
        + check_paper_value(adj, lower, upper)
    )


def replay_verdict(checks, expect_pass: bool) -> list[str]:
    """A genuine report replays with every check passing; a tampered or
    malformed one has at least one failing check."""
    passed = all(c.ok for c in checks)
    if expect_pass and not passed:
        bad = [f"{c.name}: {c.message}" for c in checks if not c.ok]
        return [f"genuine report failed replay: {bad}"]
    if not expect_pass and passed:
        return ["tampered or malformed report replayed PASS"]
    return []
