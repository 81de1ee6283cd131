"""Recognizers for the graph families with known exact universal rank."""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, _bits, component_masks


@dataclass(frozen=True)
class FamilyMatch:
    kind: str
    params: dict
    complemented: bool = False

    def describe(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        tag = f"{self.kind}({inner})" if inner else self.kind
        return f"complement:{tag}" if self.complemented else tag


def _clique_components(g: Graph, within: int) -> list[int] | None:
    """Sizes, largest first, of the components induced on the mask
    ``within`` if every one is a clique, else None.  A component is a
    clique when each member's closed neighbourhood covers it."""
    sizes = []
    for comp in component_masks(g, within):
        if any(comp & ~(g.rows[v] | 1 << v) for v in _bits(comp)):
            return None
        sizes.append(comp.bit_count())
    return sorted(sizes, reverse=True)


def _matches_one_side(g: Graph) -> list[FamilyMatch]:
    out: list[FamilyMatch] = []
    n = g.n
    ecount = g.edge_count()
    degs = g.degrees()
    full = (1 << n) - 1

    if ecount == n * (n - 1) // 2:
        out.append(FamilyMatch("complete", {"n": n}))
    if ecount == 0:
        out.append(FamilyMatch("empty", {"n": n}))

    sizes = _clique_components(g, full)
    if sizes is not None:
        nontrivial = [s for s in sizes if s > 1]
        isolated = len(sizes) - len(nontrivial)
        if len(sizes) == 2 and n > 2:
            out.append(FamilyMatch("two_cliques", {"r": sizes[0], "s": sizes[1]}))
        if len(nontrivial) == 1 and isolated >= 1 and nontrivial[0] >= 2:
            out.append(
                FamilyMatch("clique_plus_isolated", {"r": nontrivial[0], "s": isolated})
            )
        if len(sizes) >= 2 and not isolated:
            out.append(FamilyMatch("union_of_cliques", {"sizes": tuple(sizes)}))

    # Apex over a clique plus isolated vertices: some dominating vertex whose
    # removal leaves clique components with at most one of size >= 2.
    for v in range(n):
        if degs[v] == n - 1 and n >= 2:
            rest_sizes = _clique_components(g, full & ~(1 << v))
            if rest_sizes is None:
                continue
            nontrivial = [s for s in rest_sizes if s > 1]
            if len(nontrivial) > 1:
                continue
            if nontrivial:
                r = nontrivial[0]
                s = len(rest_sizes) - 1
            else:
                # All isolated: take one as the degenerate clique when present.
                r = 1 if rest_sizes else 0
                s = len(rest_sizes) - r
            out.append(FamilyMatch("clique_isolated_apex", {"r": r, "s": s}))
            break

    if n >= 1 and ecount == n - 1 and sorted(degs) == [1] * min(2, n - 1) + [2] * max(0, n - 2):
        # Degree profile of a path; connectivity follows from the edge count.
        if len(component_masks(g, full)) == 1:
            out.append(FamilyMatch("path", {"n": n}))

    if degs and degs.count(degs[0]) == n:
        out.append(FamilyMatch("regular", {"degree": degs[0]}))
    return out


def family_matches(g: Graph, complement: Graph) -> list[FamilyMatch]:
    """All family matches on g and on its complement."""
    out = list(_matches_one_side(g))
    out.extend(
        FamilyMatch(m.kind, m.params, complemented=True)
        for m in _matches_one_side(complement)
    )
    return out
