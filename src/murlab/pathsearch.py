"""Exhaustive search for induced linear forests.

The search is exact branch-and-bound; when the node budget runs out the
best witness found so far is returned with ``exact=False``.  Given a cap,
a proven upper bound on the best forest's bound, it also stops once its
witness meets the cap: that search is finished, so ``exact`` is true.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, component_masks, earlier_twins

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
    """The best witness found, if any forest has a path.

    ``exact`` is true when the search finished: it visited every node it
    did not prune, or its witness met the cap it was given.  Either way no
    forest has a higher bound than the witness, as far as the cap is sound.
    """

    witness: PathForestWitness | None
    exact: bool


class _CapMet(Exception):
    """Raised at the leaf whose bound meets the cap, to end the search."""


def best_induced_path_forest(
    g: Graph, node_budget: int = DEFAULT_NODE_BUDGET, cap: int | None = None
) -> PathForestResult:
    """Maximize the path-forest lower bound over induced linear forests.

    ``cap``, when given, is an upper bound on the answer proven elsewhere
    (a family formula).  The search stops at the first leaf whose bound
    reaches it, with ``exact`` true: a complete search would keep that same
    witness, since it replaces its witness only on a strict gain, and a
    search cut short of the cap runs node for node as without it.

    Vertices are decided in order, each included before it is excluded.  The
    forest chosen so far is kept as its edge count, the mask ``lone`` of its
    degree-0 vertices, the mask ``ends`` of its vertices of degree <= 1, and
    ``far[v]``, the other end of the path that ends at v (a lone vertex is its
    own far end).  A vertex may join when its neighbours in the forest are at
    most two ends, and not the two ends of one path; the bound at a leaf is
    then ``edges - (not lone)``.

    Twins are searched once.  ``twins[v]``, from ``earlier_twins``, holds the
    earlier vertices t with N(t) = N(v) or N[t] = N[v], and v is not
    included once such a t has been excluded.  Swapping t in for v maps
    every forest of that branch to an isomorphic forest with the same bound
    that the include-first order meets earlier, in t's include branch; the
    bound only moves on a strict gain.  So a complete search keeps its
    first-found witness in fewer nodes, and a cut one, which gets at least
    as far through the same order, never ends on a lower bound than without
    the rule.
    """
    n = g.n
    rows = g.rows
    twins = earlier_twins(g)
    stop = n if cap is None else cap  # no forest on n vertices has bound n
    best_bound = -1
    best_mask = 0
    budget = node_budget
    cut = False  # a node was left unvisited for want of budget
    far = list(range(n))

    def choose(idx: int, mask: int, size: int, edges: int, lone: int, ends: int) -> None:
        nonlocal best_bound, best_mask, budget, cut
        if budget <= 0:
            cut = True
            return
        budget -= 1
        # Even in the best case the bound is two less than the vertex count
        # of the final forest, so prune on that optimistic total.
        if size + (n - idx) - 2 <= best_bound:
            return
        if idx == n:
            if edges and edges - (not lone) > best_bound:
                best_bound = edges - (not lone)
                best_mask = mask
                if best_bound >= stop:
                    raise _CapMet
            return
        bit = 1 << idx
        nbrs = rows[idx] & mask
        if twins[idx] & ~mask:
            pass  # an excluded earlier twin stood in for idx
        elif not nbrs:
            far[idx] = idx
            choose(idx + 1, mask | bit, size + 1, edges, lone | bit, ends | bit)
        elif nbrs.bit_count() <= 2 and not nbrs & ~ends:
            u = nbrs.bit_length() - 1
            v = (nbrs & -nbrs).bit_length() - 1  # u again if there is one neighbour
            a, b = far[u], far[v]
            # lone neighbours gain degree 1 and stay ends; the others leave
            joined = ends & ~(nbrs & ~lone)
            if u == v:
                far[idx], far[a] = a, idx
                choose(idx + 1, mask | bit, size + 1, edges + 1, lone & ~nbrs, joined | bit)
                far[a] = u
            elif a != v:  # u and v are not the two ends of one path
                far[a], far[b] = b, a
                choose(idx + 1, mask | bit, size + 1, edges + 2, lone & ~nbrs, joined)
                far[a], far[b] = u, v
        choose(idx + 1, mask, size, edges, lone, ends)

    try:
        choose(0, 0, 0, 0, 0, 0)
    except _CapMet:
        pass
    if best_bound < 0:
        return PathForestResult(None, not cut)
    return PathForestResult(_mask_to_witness(g, best_mask), not cut)


def _mask_to_witness(g: Graph, mask: int) -> PathForestWitness:
    paths = []
    isolated = []
    for comp in component_masks(g, mask):
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
    # Induced: the vertices span as many edges as the paths have, and every
    # path edge is one of them.
    edges = count - len(w.isolated) - len(w.paths)
    verts = sorted(used)
    spanned = sum(g.has_edge(u, v) for i, u in enumerate(verts) for v in verts[i + 1:])
    if spanned != edges or not all(g.has_edge(a, b) for p in w.paths for a, b in zip(p, p[1:])):
        return False
    return bool(w.paths) and w.bound == edges - (not w.isolated)
