"""Exhaustive search for induced linear forests.

The search is exact branch-and-bound; when the node budget runs out the
best witness found so far is returned with ``exact=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .graphs import Graph, _bits

DEFAULT_NODE_BUDGET = 10**6


@dataclass
class PathForestWitness:
    """Disjoint induced paths (>= 2 vertices each) plus isolated vertices.

    bound = sum of path sizes - number of paths - (1 if no isolated vertex).
    """

    paths: list[tuple[int, ...]]
    isolated: list[int]
    bound: int


@dataclass
class PathForestResult:
    witness: PathForestWitness | None
    exact: bool

    @property
    def bound(self) -> int:
        return self.witness.bound if self.witness is not None else 0


def best_induced_path_forest(g: Graph, node_budget: int = DEFAULT_NODE_BUDGET) -> PathForestResult:
    """Maximize the path-forest lower bound over induced linear forests."""
    n = g.n
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
        if len(nb_list) > 2:
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
    if best_bound < 0:
        return PathForestResult(None, budget > 0)
    return PathForestResult(_mask_to_witness(g, best_mask), budget > 0)


def _mask_to_witness(g: Graph, mask: int) -> PathForestWitness:
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


def validate_path_forest(g: Graph, w: PathForestWitness) -> bool:
    """Re-check a witness: structure, inducedness, and the bound formula."""
    used: set[int] = set()
    for p in w.paths:
        if len(p) < 2:
            return False
        used.update(p)
    used.update(w.isolated)
    count = sum(len(p) for p in w.paths) + len(w.isolated)
    if len(used) != count or any(not 0 <= v < g.n for v in used):
        return False
    verts = sorted(used)
    index = {v: i for i, v in enumerate(verts)}
    expected = set()
    for p in w.paths:
        for a, b in zip(p, p[1:]):
            expected.add(frozenset((index[a], index[b])))
    sub = g.induced_subgraph(verts)
    actual = {frozenset(e) for e in sub.edges()}
    if actual != expected:
        return False
    t = len(w.paths)
    if t == 0:
        return False
    total = sum(len(p) for p in w.paths)
    return w.bound == total - t - (1 if not w.isolated else 0)
