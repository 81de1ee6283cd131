"""Simple undirected graphs on 0..n-1 with bitset adjacency rows.

Includes graph6 and edge-list parsing, the generators used throughout
the bounds engine, and basic structural queries.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

MAX_VERTICES = 64


class GraphError(ValueError):
    pass


class Graph6Error(GraphError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _check_order(n: int) -> None:
    if not 0 <= n <= MAX_VERTICES:
        raise GraphError(f"vertex count {n} outside 0..{MAX_VERTICES}")


class Graph:
    """Immutable simple graph; adjacency stored as one int bitmask per vertex."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[int]):
        _check_order(n)
        if len(rows) != n:
            raise GraphError("adjacency row count does not match vertex count")
        mask = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~mask:
                raise GraphError("adjacency bits outside vertex range")
            if row >> v & 1:
                raise GraphError(f"loop at vertex {v}")
        for u in range(n):
            for v in range(u + 1, n):
                if (rows[u] >> v & 1) != (rows[v] >> u & 1):
                    raise GraphError("adjacency not symmetric")
        self.n = n
        self.rows = tuple(rows)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        _check_order(n)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, rows)

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.rows]

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.rows[u]) if u < v]

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2

    def complement(self) -> "Graph":
        mask = (1 << self.n) - 1
        return Graph(self.n, [(~row & mask) & ~(1 << v) for v, row in enumerate(self.rows)])

    def delete_vertex(self, v: int) -> "Graph":
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range")
        keep = [u for u in range(self.n) if u != v]
        return self.induced_subgraph(keep)

    def induced_subgraph(self, vertices: Sequence[int]) -> "Graph":
        vertices = list(vertices)
        if len(set(vertices)) != len(vertices):
            raise GraphError("repeated vertex in induced subgraph")
        return Graph.from_edges(
            len(vertices),
            (
                (i, j)
                for i, u in enumerate(vertices)
                for j, v in enumerate(vertices)
                if i < j and self.has_edge(u, v)
            ),
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# ---------------------------------------------------------------------------
# graph6 and edge-list formats


GRAPH6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 token (optionally preceded by the format header)."""
    text = text.strip()
    offset = 0
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
        offset = len(GRAPH6_HEADER)
    if not text:
        raise Graph6Error("empty graph6 token", offset)
    data = []
    for i, ch in enumerate(text):
        code = ord(ch) - 63
        if not 0 <= code < 64:
            raise Graph6Error(f"invalid graph6 character {ch!r}", offset + i)
        data.append(code)
    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4 or data[1] == 63:
            raise Graph6Error("unsupported or truncated graph6 size field", offset)
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    if n > MAX_VERTICES:
        raise Graph6Error(f"graph order {n} exceeds supported maximum {MAX_VERTICES}", offset)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6Error(
            f"expected {need} payload characters for order {n}, got {len(body)}",
            offset + len(text),
        )
    rows = [0] * n
    k = 0
    for v in range(1, n):
        for u in range(v):
            bit = body[k // 6] >> (5 - k % 6) & 1
            if bit:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
            k += 1
    if nbits % 6:
        tail = body[-1] & ((1 << (6 - nbits % 6)) - 1)
        if tail:
            raise Graph6Error("nonzero padding bits", offset + len(text) - 1)
    return Graph(n, rows)


def encode_graph6(g: Graph) -> str:
    n = g.n
    if n < 63:
        out = [n + 63]
    else:
        out = [126, 63 + (n >> 12), 63 + (n >> 6 & 63), 63 + (n & 63)]
    acc = 0
    nb = 0
    payload = []
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | int(g.has_edge(u, v))
            nb += 1
            if nb == 6:
                payload.append(acc + 63)
                acc, nb = 0, 0
    if nb:
        payload.append((acc << (6 - nb)) + 63)
    return "".join(map(chr, out + payload))


def parse_edge_list(text: str) -> Graph:
    """Parse the one-edge-per-line 'u v' format (0-indexed), with optional
    'n=N' lines for isolated vertices; any other line raises GraphError."""
    edges = []
    top = -1
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        count = None
        try:
            if len(parts) == 1 and parts[0].startswith("n="):
                count = int(parts[0][2:])
            else:
                u, v = map(int, parts)
        except ValueError:
            raise GraphError(f"line {lineno}: expected 'u v' or 'n=N', got {line!r}") from None
        if count is None:
            for x in (u, v):
                if not 0 <= x < MAX_VERTICES:
                    raise GraphError(f"line {lineno}: vertex index {x} outside 0..{MAX_VERTICES - 1}")
            if u == v:
                raise GraphError(f"line {lineno}: loop at vertex {u}")
            edges.append((u, v))
            top = max(top, u, v)
        elif not 0 <= count <= MAX_VERTICES:
            raise GraphError(f"line {lineno}: vertex count {count} outside 0..{MAX_VERTICES}")
        else:
            top = max(top, count - 1)
    return Graph.from_edges(top + 1, edges)


# ---------------------------------------------------------------------------
# generators


def empty(n: int) -> Graph:
    return Graph.from_edges(n, ())


def complete(n: int) -> Graph:
    return Graph.from_edges(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """Star on n vertices: vertex 0 joined to all others."""
    return Graph.from_edges(n, ((0, v) for v in range(1, n)))


def complete_bipartite(r: int, s: int) -> Graph:
    return Graph.from_edges(r + s, ((u, r + v) for u in range(r) for v in range(s)))


def p_prime(n: int) -> Graph:
    """Path on n vertices plus a pendant attached to the second-to-last one."""
    if n < 3:
        raise GraphError("p_prime needs n >= 3")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 2, n)]
    return Graph.from_edges(n + 1, edges)


def clique_isolated_apex(r: int, s: int) -> Graph:
    """An r-clique plus s isolated vertices, all joined to one extra apex."""
    if r < 0 or s < 0:
        raise GraphError("negative size")
    n = r + s + 1
    edges = [(u, v) for u in range(r) for v in range(u + 1, r)]
    edges += [(u, n - 1) for u in range(n - 1)]
    return Graph.from_edges(n, edges)


def disjoint_union(graphs: Sequence[Graph]) -> Graph:
    total = sum(g.n for g in graphs)
    edges = []
    start = 0
    for g in graphs:
        edges.extend((start + u, start + v) for u, v in g.edges())
        start += g.n
    return Graph.from_edges(total, edges)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


# ---------------------------------------------------------------------------
# structural queries


def component_masks(g: Graph, within: int) -> list[int]:
    """Vertex masks of the components of the subgraph induced on the mask
    ``within``, in the order of their least vertices."""
    parts = []
    left = within
    while left:
        comp = frontier = left & -left
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & within & ~comp
            comp |= frontier
        parts.append(comp)
        left &= ~comp
    return parts


def earlier_twins(g: Graph) -> list[int]:
    """Entry v: the mask of the twins of v that come before it.

    t and v are twins when N(t) = N(v) (open twins, never adjacent) or
    N[t] = N[v] (closed twins, always adjacent).  No vertex has twins of
    both kinds: open twins t, v and a closed twin w of t would make w a
    neighbour of v and v one of t.  So the classes of twins are disjoint,
    and each is one kind; a class is its last vertex's entry with that
    vertex added.  Swapping two twins is an automorphism.  Open twins of g
    are closed twins of its complement, so both sides get the same table.

    One dict serves both kinds: N(v) = N[u] is impossible, since u in
    N(v) puts v in N(u), which is inside N[u] = N(v).
    """
    earlier = [0] * g.n
    by_nbhd: dict[int, int] = {}  # N(v) and N[v] -> the vertices seen with it
    get = by_nbhd.get
    for v, row in enumerate(g.rows):
        bit = 1 << v
        closed = row | bit
        earlier[v] = get(row, 0) | get(closed, 0)
        by_nbhd[row] = get(row, 0) | bit
        by_nbhd[closed] = get(closed, 0) | bit
    return earlier


def diameter(g: Graph) -> float:
    """Maximum eccentricity; math.inf if disconnected, 0 for n <= 1."""
    if g.n <= 1:
        return 0
    best = 0
    full = (1 << g.n) - 1
    for source in range(g.n):
        dist = 0
        reached = 1 << source
        frontier = 1 << source
        while frontier:
            nxt = 0
            for u in _bits(frontier):
                nxt |= g.rows[u]
            frontier = nxt & ~reached
            if frontier:
                reached |= frontier
                dist += 1
        if reached != full:
            return math.inf
        best = max(best, dist)
    return best
