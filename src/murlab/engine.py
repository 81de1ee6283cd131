"""Universal-matrix construction and the certified bounds pipeline.

A universal matrix of a graph is A + beta*I + gamma*J + delta*D after
normalizing the adjacency coefficient to 1.  The pipeline computes a
certified lower bound, a certified upper bound, and the exact minimum
universal rank whenever the two meet.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, compress, islice, repeat
from math import comb, inf, lcm
from operator import itemgetter, mul, neg
from typing import Iterable, Iterator, Optional, Sequence, Union

from .families import family_matches
from .graphs import Graph, component_masks, diameter, earlier_twins
from .matrices import charpoly, det_int, rank_algebraic, solve_int
from .pathsearch import (
    DEFAULT_NODE_BUDGET,
    PathForestResult,
    best_induced_path_forest,
)
from .polynomials import Poly, integer_roots, squarefree_decomposition

Scalar = Union[Fraction, Poly]


class EngineError(ValueError):
    pass


@dataclass(frozen=True)
class ParamPoint:
    """Matrix parameters (beta, gamma, delta); the adjacency coefficient is 1."""

    beta: Scalar
    gamma: Scalar
    delta: Scalar

    @classmethod
    def rational(cls, beta, gamma, delta) -> "ParamPoint":
        return cls(Fraction(beta), Fraction(gamma), Fraction(delta))


def u_matrix(g: Graph, alpha, beta, gamma, delta) -> list[list]:
    """alpha*A + beta*I + gamma*J + delta*D as a dense matrix, its entries
    computed in whatever scalars the coefficients are given in."""
    off = (gamma, alpha + gamma)  # off the diagonal: no edge, edge
    out = []
    for i, (bits, deg) in enumerate(zip(g.rows, g.degrees())):
        row = [off[bits >> j & 1] for j in range(g.n)]
        row[i] = beta + gamma + delta * deg
        out.append(row)
    return out


def universal_matrix(g: Graph, p: ParamPoint) -> list[list]:
    """A + beta*I + gamma*J + delta*D as a dense matrix of exact scalars."""
    return u_matrix(g, 1, p.beta, p.gamma, p.delta)


def integer_universal_matrix(g: Graph, p: ParamPoint) -> list[list[int]]:
    """s * universal_matrix(g, p) at a rational point, s the lcm of its
    denominators: an integer matrix of the same rank."""
    s = lcm(p.beta.denominator, p.gamma.denominator, p.delta.denominator)
    b, c, d = (x.numerator * (s // x.denominator) for x in (p.beta, p.gamma, p.delta))
    return u_matrix(g, s, b, c, d)


def laplacian(g: Graph) -> list[list[int]]:
    """L = D - A."""
    return u_matrix(g, -1, 0, 0, 1)


def complement_params(g: Graph, p: ParamPoint) -> ParamPoint:
    """Parameters q with U_complement(q) == -U_g(p); rank is preserved."""
    n = g.n
    return ParamPoint(
        -(p.beta - 1 + (n - 1) * p.delta),
        -(p.gamma + 1),
        p.delta + 0,
    )


# Family kinds by their place in the order ``family_mur`` tries them.  The
# kinds of place 0 and 1 are the rank-0 and rank-1 families: a graph has
# mur 0 (or 1) exactly when it matches a kind of that place.
_FAMILY_PLACE = {
    "complete": 0, "empty": 0, "two_cliques": 1, "clique_plus_isolated": 1,
    "union_of_cliques": 2, "clique_isolated_apex": 3, "regular": 4, "path": 5,
}


class GraphFacts:
    """Facts about one graph that several bound stages read.

    The complement and the family matches, in the order of their kinds'
    places, are built on construction; the split Laplacian characteristic
    polynomial, and the multiplicity read from it, on first use.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self.complement = g.complement()
        self.matches = sorted(
            family_matches(g, self.complement), key=lambda m: _FAMILY_PLACE[m.kind]
        )

    def side(self, on_complement: bool) -> Graph:
        return self.complement if on_complement else self.graph

    @property
    def rank01_floor(self) -> int:
        """The least mur(G) can be: 0 or 1 in a rank-0 or rank-1 family, else 2."""
        return min([2, *(_FAMILY_PLACE[m.kind] for m in self.matches)])

    @cached_property
    def laplacian_split(self) -> tuple[int, list[int]]:
        """(c, q) with charpoly(L(G)) = x**c * q and q(0) != 0, q as its
        integer coefficients, lowest degree first; c is the number of
        components of G, the multiplicity of the eigenvalue 0."""
        coeffs = charpoly(laplacian(self.graph))
        c = next(i for i, a in enumerate(coeffs) if a)
        return c, coeffs[c:]

    @cached_property
    def multiplicity(self) -> int:
        """M = max(c - 1, the largest exponent in the squarefree decomposition
        of q) for ``laplacian_split`` (c, q): the largest multiplicity of an
        eigenvalue of L(G) on the vectors orthogonal to the all-ones vector 1.

        L(G) commutes with J and L(complement) = nI - J - L(G), so on 1-perp
        the eigenvalues of L(complement) are n - lambda for those lambda of
        L(G), with the same multiplicities.  A side is connected exactly
        when 0 is not among its eigenvalues on 1-perp, so M is the largest
        multiplicity of a nonzero Laplacian eigenvalue of each connected
        side, the graph or its complement.
        """
        c, q = self.laplacian_split
        return max([c - 1, *(e for _, e in squarefree_decomposition(q))])


@lru_cache(maxsize=1)
def graph_facts(g: Graph) -> GraphFacts:
    """The facts of g, shared by the stages of one pass over it.

    Graphs are immutable, so the facts of the graph last asked about are
    kept and each is computed once however many stages read it.
    """
    return GraphFacts(g)


# ---------------------------------------------------------------------------
# certificates and results


@dataclass
class Certificate:
    kind: str
    data: dict = field(default_factory=dict)

    def describe(self) -> str:
        if self.kind == "path_forest":
            paths = self.data["paths"]
            side = "complement " if self.data.get("on_complement") else ""
            if len(paths) == 1 and not self.data["isolated"]:
                return f"{side}induced P{len(paths[0])}"
            return (
                f"{side}induced path forest "
                f"({len(paths)} paths, {len(self.data['isolated'])} isolated)"
            )
        if self.kind == "diameter":
            side = "complement " if self.data.get("on_complement") else ""
            return f"{side}diameter {self.data['diameter']}"
        if self.kind == "not_in_rank01_families":
            return "not in a rank<=1 family"
        if self.kind == "component_bound":
            side = "complement " if self.data.get("on_complement") else ""
            return f"{side}order minus components"
        if self.kind == "laplacian_multiplicity":
            side = "complement " if self.data.get("on_complement") else ""
            return f"{side}laplacian multiplicity m={self.data['multiplicity']}"
        if self.kind == "minor_combination":
            k = self.data["k"]
            return f"{len(self.data['minors'])} {k}x{k} minors combine to 1"
        if self.kind == "family_formula":
            return f"family:{self.data['family']}"
        if self.kind == "explicit_params":
            return (
                f"rank {self.data['rank']} at "
                f"(beta={self.data['beta']}, gamma={self.data['gamma']}, "
                f"delta={self.data['delta']})"
            )
        if self.kind == "order_bound":
            return "order minus two"
        return self.kind


@dataclass
class MurResult:
    lower: int
    lower_cert: Certificate
    upper: int
    upper_cert: Certificate
    budget_exhausted: bool = False

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None

    def interval(self) -> tuple[int, int]:
        return self.lower, self.upper


@dataclass(frozen=True)
class Budget:
    """Search effort: the node budget of the induced-path searches.

    grid_den, grid_num, random_points, seed and algebraic are retired: no
    murlab code reads them, and reports record the search actually run.
    They remain only so that budgets written for earlier versions still
    construct."""

    search_nodes: int = DEFAULT_NODE_BUDGET
    grid_den: int = 4
    grid_num: int = 4
    random_points: int = 200
    seed: int = 0
    algebraic: bool = True


DEFAULT_BUDGET = Budget()


# ---------------------------------------------------------------------------
# lower bounds


def _forest_certificate(res: PathForestResult, on_complement: bool) -> Certificate:
    """The witness of a search as a certificate.  Its "exhaustive" entry is
    true when the search finished: it visited every node it did not prune,
    or its forest met the family value it was capped at."""
    w = res.witness
    t, m = len(w.paths), len(w.isolated)
    if t == 1 and m == 0:
        variant = "single-path"
    elif m == 0:
        variant = "multi-path"
    elif t == 1:
        variant = "single-path-plus-isolated"
    else:
        variant = "multi-path-plus-isolated"
    return Certificate(
        "path_forest",
        {
            "paths": [list(p) for p in w.paths],
            "isolated": list(w.isolated),
            "bound": w.bound,
            "variant": variant,
            "on_complement": on_complement,
            "exhaustive": res.exact,
        },
    )


def mur_lower(
    g: Graph, budget: Budget = DEFAULT_BUDGET, cap: Optional[int] = None
) -> tuple[int, Certificate, bool]:
    """The structural lower bound; also reports whether a search was cut.

    It takes the best of the path-forest, diameter and family-membership
    bounds on both sides.  ``compute_mur`` may raise it further with a
    minors combination, so its ``lower`` is the best certified lower bound.

    ``cap`` is g's family value, when it has one.  Each search stops once
    its witness meets it, and a side is searched only while the bounds
    listed so far are below it (the trivial 0 meets a cap of 0, the graph's
    forest may meet it before the complement's turn).  A later bound could
    at best tie, and ties go to the first, so the bound and certificate are
    those of the uncapped searches whenever the family value is sound.

    A side's diameter d is read only if its search was cut: a shortest path
    of length d is an induced P_(d+1), of bound d - 1, so an exhaustive
    search, listed first, reaches at least that.  A graph in a rank-1
    family, K_r + K_s or K_r plus isolated vertices, has a connected
    complement with an induced P3, so a bound of 1 from that side's search
    or diameter comes first; the family floor is listed only at 2.
    """
    n = g.n
    if n == 0:
        return 0, Certificate("trivial"), True
    facts = graph_facts(g)
    exhausted = False
    bounds = [(0, Certificate("trivial"))]
    for comp_side in (False, True):
        if cap is not None and max(b for b, _ in bounds) >= cap:
            break  # met: a later bound could at best tie, and ties go first
        side = facts.side(comp_side)
        res = best_induced_path_forest(side, budget.search_nodes, cap)
        if res.witness is not None:
            bounds.append((res.witness.bound, _forest_certificate(res, comp_side)))
        if not res.exact:
            exhausted = True
            d = diameter(side)
            if d != inf and d >= 2:
                cert = Certificate("diameter", {"diameter": int(d), "on_complement": comp_side})
                bounds.append((int(d) - 1, cert))
    if facts.rank01_floor == 2:  # outside the rank-0 and rank-1 families
        bounds.append((2, Certificate("not_in_rank01_families", {"bound": 2})))
    best, cert = max(bounds, key=lambda b: b[0])  # the first of the highest
    return best, cert, exhausted


# Degree-0 Nullstellensatz certificates (De Loera, Lee, Malkin & Margulies,
# ISSAC 2008): if 1 is a rational combination of the k x k minors of the
# universal matrix, taken as polynomials in (beta, gamma, delta), no real or
# complex parameters give rank < k.

# The prime of the minors echelon, a Mersenne prime, so that a folding
# reduces modulo it (see ``_Echelon``).  It only picks the minors: their
# weights are solved for and checked exactly, so any prime is sound, and
# this one keeps every coefficient of a minor of order up to 5 on 7
# vertices in one 64-bit slot.
_PRIME = (1 << 31) - 1
# Cap on the determinant work of one attempt, counted as k**3 per k x k
# determinant.  It lets a 7-vertex graph exhaust every minor and bounds the
# cost of a failed attempt on larger graphs.
_MINOR_STAGE_WORK = 1_500_000


def minor_points(k: int) -> list[tuple[int, int, int]]:
    """Integer (beta, gamma, delta) points on which a minors identity can be
    checked, and the index of a minor's vector.

    Every k x k minor is affine in gamma (gamma*J has rank one) and of total
    degree <= k in (beta, delta), as is the constant 1.  The (k+1)(k+2)
    points gamma in {0, 1}, beta, delta >= 0, beta + delta <= k are
    unisolvent for that space, so an identity between such polynomials that
    holds on these points holds everywhere.  ``minor_coefficients`` lists a
    minor in the same order: up to ``_TABLE_ORDER`` the i-th entry, for the
    i-th point (b, c, d), is the coefficient of beta**b * delta**d in the
    minor at gamma = c; past it, the minor's value at that point.
    """
    return [
        (b, c, d) for c in (0, 1) for b in range(k + 1) for d in range(k + 1 - b)
    ]


def constant_one(k: int) -> list[int]:
    """The constant 1 as a vector of order k (see ``minor_points``)."""
    if k > _TABLE_ORDER:
        return [1] * ((k + 1) * (k + 2))
    return [int(b == d == 0) for b, _, d in minor_points(k)]


def _point_values(k: int, vector: Sequence[int]) -> Iterator[int]:
    """The values at ``minor_points(k)`` of a vector of order k, made lazily."""
    if k > _TABLE_ORDER:
        return iter(vector)
    points = minor_points(k)
    return (
        sum(x * beta**b * delta**d for x, (b, c, d) in zip(vector, points) if c == gamma)
        for beta, gamma, delta in points
    )


IndexSet = Sequence[int]

# Highest order whose minors are expanded from sub-minor tables.  A fresh
# k x k minor fills up to 2**k table entries, while a determinant at each
# minor point costs about k**5 small steps.  Timed on the pairs a search
# tries (2-core host, Python 3.11), the tables are 1.4-6x faster at order
# 10 on 11 to 30 vertices, but 1.5-1.8x slower at order 11 on 18 or more
# vertices and about 3x slower at order 12 on 14 or more.
_TABLE_ORDER = 10
# Packed bits the sub-minor tables may hold before they are cleared.  A
# replayed document may list any number of column sets on one row prefix,
# and the tables would keep every sub-minor of them.
_TABLE_BITS = 1 << 27


def _slot_width(n: int, k: int) -> int:
    """Bits per coefficient slot of a packed k x k minor on n vertices.

    A j x j minor, and each partial sum of its cofactor expansion, has
    coefficients no larger in absolute value than the permanent of the
    entries' coefficient 1-norms.  A row's norms sum to at most
    2(k-1) + n + 1 < 3n (1 or 2 off the diagonal, 1 + 1 + deg on it), so
    every coefficient is below (3n)**k and fits a signed slot of w bits
    once (3n)**k <= 2**(w-1).  w doubles from 8, so that slots of up to 64
    bits are machine integers.
    """
    w = 8
    while (3 * n) ** k > 1 << (w - 1):
        w *= 2
    return w


@lru_cache(maxsize=64)
def _unpacker(k: int, w: int):
    """Decoder of a packed minor, its pair (at gamma = 0, at gamma = 1), into
    its coefficient tuple, in the order of ``minor_points(k)``.

    The two halves are read as one integer of 2(k+1)**2 slots.  Adding
    2**(w-1) to every slot makes each slot nonnegative, so no slot borrows
    from the next; flipping each slot's top bit back then leaves every
    coefficient in its slot in two's complement.  One ``to_bytes`` call in
    the machine's byte order lays the slots out as signed machine integers,
    last slot first on a big-endian machine.
    """
    nslots = (k + 1) ** 2
    half = w * nslots
    offset = (1 << (w - 1)) * ((1 << 2 * half) - 1) // ((1 << w) - 1)
    nbytes = 2 * half // 8
    slots = [b + (k + 1) * d + c * nslots for b, c, d in minor_points(k)]
    if sys.byteorder == "big":
        slots = [2 * nslots - 1 - s for s in slots]
    pick = itemgetter(*slots)
    fmt = next((f for f in "bhilq" if memoryview(bytes(8)).cast(f).itemsize * 8 == w), None)
    if fmt is None:  # slots wider than a machine integer
        step = w // 8

        def unpack(minor: tuple[int, int]) -> tuple[int, ...]:
            both = minor[0] + (minor[1] << half)
            data = ((both + offset) ^ offset).to_bytes(nbytes, sys.byteorder)
            return pick([
                int.from_bytes(data[i:i + step], sys.byteorder, signed=True)
                for i in range(0, nbytes, step)
            ])

        return unpack

    def unpack(minor: tuple[int, int]) -> tuple[int, ...]:
        both = minor[0] + (minor[1] << half)
        data = ((both + offset) ^ offset).to_bytes(nbytes, sys.byteorder)
        return pick(memoryview(data).cast(fmt))

    return unpack


def minor_coefficients(
    g: Graph, k: int, pairs: Iterable[tuple[IndexSet, IndexSet]]
) -> Iterator[tuple[IndexSet, IndexSet, tuple[int, ...]]]:
    """(rows, cols, vector) for each pair, vector the k x k minor of the
    universal matrix on rows x cols (in the order given) in the order of
    ``minor_points(k)``: its coefficients up to ``_TABLE_ORDER``, its values
    past it; k >= 1.

    Up to ``_TABLE_ORDER`` a minor is computed at gamma = 0 and at gamma =
    1, each a polynomial in (beta, delta) packed into one integer by
    Kronecker substitution: the coefficient of beta**a * delta**b sits in
    slot a + (k+1)*b, ``_slot_width`` bits wide.  Sums and products of
    packed minors are then single integer operations.  det U[R, C] is
    expanded along the last row of R, and the (k-1)-minors of R[:-1] are
    read from a table for that row prefix, kept while consecutive pairs
    share the prefix and the tables stay within ``_TABLE_BITS``.  Past
    ``_TABLE_ORDER`` each minor is an integer determinant at every point of
    ``minor_points(k)``.
    """
    decode, minors = _minors(g, k, pairs)
    for rows, cols, minor in minors:
        yield rows, cols, decode(minor)


def _minors(g: Graph, k: int, pairs: Iterable[tuple[IndexSet, IndexSet]]):
    """(decode, minors): minors yields (rows, cols, minor) for each pair, and
    decode(minor) is its vector (see ``minor_coefficients``).

    Up to ``_TABLE_ORDER`` a minor is its packed pair (at gamma = 0, at
    gamma = 1); past it, already its tuple of values.  Either way the minor
    is a tuple whose entries negate with it.
    """
    if k > _TABLE_ORDER:
        return tuple, _point_minors(g, k, pairs)  # tuple(t) is t
    w = _slot_width(g.n, k)
    return _unpacker(k, w), _table_minors(g, k, w, pairs)


def _point_minors(g, k, pairs):
    mats = [u_matrix(g, 1, b, c, d) for b, c, d in minor_points(k)]
    for rows, cols in pairs:
        yield rows, cols, tuple(det_int([[m[r][c] for c in cols] for r in rows]) for m in mats)


def _table_minors(g, k, w, pairs):
    beta, delta = 1 << w, 1 << w * (k + 1)
    # entries[i]: row i of U at gamma = 0 and at gamma = 1, packed
    entries = list(zip(u_matrix(g, 1, beta, 0, delta), u_matrix(g, 1, beta, 1, delta)))
    most = _TABLE_BITS // (2 * (k + 1) ** 2 * w)  # entries, each two packed minors
    tables: list[dict] = [{} for _ in range(k)]  # tables[j]: j-minors of prefix[:j]
    prefix: tuple = ()
    for rows, cols in pairs:
        if sum(map(len, tables)) > most:
            for table in tables:
                table.clear()
        if tuple(rows) != prefix:
            # tables[j] stays valid while rows[:j] is unchanged
            same = next((j for j, (a, b) in enumerate(zip(prefix, rows)) if a != b), k)
            for table in tables[same + 1:]:
                table.clear()
            prefix = tuple(rows)
        yield rows, cols, _expand_minor(entries, tables, prefix, tuple(cols))


# _DROPS[j][t] picks from a j-tuple every entry but the t-th
_DROPS = {
    j: [itemgetter(*(i for i in range(j) if i != t)) for t in range(j)]
    for j in range(3, _TABLE_ORDER + 1)
}


def _expand_minor(entries, tables, rows, cols) -> tuple[int, int]:
    """det U[rows[:j], cols] at gamma = 0 and 1, packed, j = len(cols), by
    expansion along row rows[j-1]; (j-1)-minors are memoized in
    ``tables[j-1]``, and a 2 x 2 minor is computed outright."""
    j = len(cols)
    row0, row1 = entries[rows[j - 1]]
    if j <= 2:
        if j == 1:
            return row0[cols[0]], row1[cols[0]]
        a, b = cols
        up0, up1 = entries[rows[0]]
        return up0[a] * row0[b] - up0[b] * row0[a], up1[a] * row1[b] - up1[b] * row1[a]
    sub_table = tables[j - 1]
    acc0 = acc1 = 0
    # the cofactor sign of entry (j-1, t) is (-1)**(j-1+t)
    minus = not j % 2
    for c, drop in zip(cols, _DROPS[j]):
        sub_cols = drop(cols)
        sub = sub_table.get(sub_cols)
        if sub is None:
            sub = sub_table[sub_cols] = _expand_minor(entries, tables, rows, sub_cols)
        e0 = row0[c]  # 0 off the diagonal where there is no edge
        if minus:
            if e0:
                acc0 -= e0 * sub[0]
            acc1 -= row1[c] * sub[1]
        else:
            if e0:
                acc0 += e0 * sub[0]
            acc1 += row1[c] * sub[1]
        minus = not minus
    return acc0, acc1


@lru_cache(maxsize=64)
def _echelon_coordinates(k: int) -> tuple[int, ...]:
    """The indices into ``minor_points(k)`` that the minors echelon of order
    k runs on: (k+1)**2 of them up to ``_TABLE_ORDER``, all past it.

    gamma*J has rank one, so a k x k minor of U = B + gamma*J is det B[R, C]
    + gamma * 1^T adj(B[R, C]) 1, and the entries of adj(B[R, C]) are
    (k-1)-minors of B, of degree at most k - 1 in (beta, delta).  So a
    minor's coefficient at the point (b, 1, d) with b + d = k equals its
    coefficient at (b, 0, d), an earlier point; so does the constant 1's.
    Those k + 1 coordinates are left out.  Past ``_TABLE_ORDER`` a vector
    holds values, not coefficients, and every coordinate is kept.
    """
    points = minor_points(k)
    if k > _TABLE_ORDER:
        return tuple(range(len(points)))
    return tuple(i for i, (b, c, d) in enumerate(points) if not (c and b + d == k))


@lru_cache(maxsize=64)
def _echelon_layout(n: int, height: int) -> tuple[int, ...]:
    """(width, ones, offset, low, high, digits, nbytes, signs, folds) of an
    ``_Echelon`` on n coordinates for vectors below ``height``."""
    bound = (n * height << 32) + height
    offset = -(-bound // _PRIME) * _PRIME
    w = -(-(offset + bound).bit_length() // 64) * 64
    ones = ((1 << w * n) - 1) // ((1 << w) - 1)
    low = _PRIME * ones  # the low 31 bits of every slot
    high = ((1 << w - 31) - 1) * ones  # the rest, shifted down by 31
    # v is packed from signed 64-bit digits, the least that hold height
    digits = (height.bit_length() + 65) // 64
    nbytes = n * w // 8
    signs = ((1 << 8 * nbytes) - 1) // ((1 << 64) - 1) << 63
    # foldings that bring a slot below 2**w under 2p
    top, folds = (1 << w) - 1, 0
    while top >= 2 * _PRIME:
        top, folds = _PRIME + (top >> 31), folds + 1
    return w, ones, offset * ones, low, high, digits, nbytes, signs, folds


class _Echelon:
    """Integer vectors modulo the prime p = 2**31 - 1 in reduced echelon
    form, and the residual of a target vector against them, on the
    coordinates ``keep`` of each vector.

    ``add`` reduces a vector against the rows.  If its residual is zero,
    the vector lies in their span and is dropped.  Otherwise the residual,
    scaled to 1 at its first nonzero coordinate (its pivot), becomes a row,
    and every row and the target are reduced by it.  Each row is then 1 at
    its own pivot and 0 at every other, so the residual of v is
    v - sum(v[pivot_i] * row_i), and the target lies in the span exactly
    when its residual is zero.  ``pivots`` index the whole vector.  A
    coordinate left out of ``keep`` must equal an earlier kept one in every
    vector and in the target (see ``_echelon_coordinates``).  Every residual
    then does too, so it is zero, and has its first nonzero coordinate,
    where the residual of the whole vector would.

    Rows, residuals and the target are each one integer: the q-th kept
    coordinate sits in slot q, w bits wide, w a multiple of 64, so that
    every slot is whole machine words.  A row's slot holds a residue below
    2**32, not necessarily reduced.  The heads v[pivot_i] and v itself are
    taken as they are, each below ``height`` in absolute value, so each
    slot of v - sum(heads * rows) lies below bound = len(keep) * height *
    2**32 + height in absolute value.  An offset that is a multiple of p
    and at least bound in every slot makes every slot positive; w is the
    least multiple of 64 that holds offset + bound: 64 for minors of order
    up to 5 on 7 vertices, 128 for order 6 on 7 or 8 and for order 10 on
    12.  Foldings x -> (x & p) + (x >> 31), done on every slot at once
    through masks, keep each slot's residue and bring it below 2p;
    subtracting p from every slot at or above p then leaves each slot
    reduced, so a vector in the span leaves with its residual still packed,
    compared with 0.  A kept residual's pivot is its lowest nonzero slot.
    When a row or the target is updated it gains (p - c) times the new row,
    less than 2**63 per slot, and two foldings bring it back below 2**32.
    """

    def __init__(self, target: Sequence[int], height: int, keep: Sequence[int]):
        self.keep = keep
        self.pick = itemgetter(*keep)
        self.pivots: list[int] = []
        self.rows: list[int] = []
        (self.width, self.ones, self.offset, self.low, self.high, self.digits, self.nbytes,
         self.signs, self.folds) = _echelon_layout(len(keep), height)
        w = self.width
        self.target = sum(t % _PRIME << w * q for q, t in enumerate(self.pick(target)))

    def spans_target(self) -> bool:
        return not self.target

    def _fold(self, x: int, times: int) -> int:
        for _ in range(times):
            x = (x & self.low) + (x >> 31 & self.high)
        return x

    def _reduce(self, x: int) -> int:
        """x with every slot, below 2p, reduced: s >= p exactly when bit 31
        of s + 1 is set."""
        return x - _PRIME * ((x + self.ones) >> 31 & self.ones)

    def _pack(self, v: Sequence[int]) -> int:
        """sum(v[q] << w*q).  Each coordinate is written as signed 64-bit
        digits into the low words of its slot (one digit for heights below
        2**62), the words are read as one unsigned integer, and flipping
        then subtracting every word's top bit turns each word's two's
        complement back into its signed value."""
        if self.width == 64 and self.digits == 1:  # a slot is one digit
            words = array("q", v)
        else:
            step = self.width // 64
            words = array("q", bytes(self.nbytes))
            for i in range(self.digits - 1):
                v = [x + (1 << 63) for x in v]
                words[i::step] = array("q", [(x & (1 << 64) - 1) - (1 << 63) for x in v])
                v = [x >> 64 for x in v]
            words[self.digits - 1 :: step] = array("q", v)
        if sys.byteorder == "big":
            words.reverse()
        return (int.from_bytes(words, sys.byteorder) ^ self.signs) - self.signs

    def add(self, v: Sequence[int]) -> bool:
        """Reduce v; make its residual a row if that is nonzero, and say so."""
        heads = [v[p] for p in self.pivots]
        res = self.offset + self._pack(self.pick(v)) - sum(map(mul, heads, self.rows))
        res = self._reduce(self._fold(res, self.folds))
        if not res:
            return False
        w = self.width
        j = ((res & -res).bit_length() - 1) // w
        shift = w * j
        new = self._fold(res * pow(res >> shift & _PRIME, -1, _PRIME), 2)
        rows = self.rows
        for i, row in enumerate(rows):
            c = (row >> shift & 0xFFFF_FFFF) % _PRIME
            if c:
                rows[i] = self._fold(row + (_PRIME - c) * new, 2)
        rows.append(new)
        self.pivots.append(self.keep[j])
        t = self.target >> shift & _PRIME
        if t:
            self.target = self._reduce(self._fold(self.target + (_PRIME - t) * new, 2))
        return True


def _minor_pairs(g: Graph, k: int, cap: int) -> Iterator[tuple[IndexSet, IndexSet]]:
    """The pairs (R, C) of k-subsets, R <= C, that the twin rule (see
    ``minors_combination``) keeps of the first ``cap`` pairs of the
    lexicographic stream, made lazily.

    Along the sorted vertices of each class of twins (``earlier_twins``),
    membership in a kept pair runs: R and C, then R only, then C only, then
    neither; and at most one vertex of the class is in R only, at most one
    in C only.  A subset's word holds three masks of the vertices that follow a
    twin in their class: ``lead``, the members that follow a non-member;
    ``a``, the members that follow a member; ``b``, the non-members that
    follow a non-member, shifted by 0, n and 2n bits.  R is in order when
    its ``lead`` is empty; a row set out of order is skipped with its whole
    block of columns.  Then C is kept unless its ``lead`` meets R's ``a``
    or ``b`` (C out of order inside R or outside it), its ``a`` meets R's
    ``b`` (two twins in C only) or its ``b`` meets R's ``a`` (two in R
    only): one AND of C's word with a word made from R's.  A word depends
    only on the subset's class members, so words are kept by that mask, and
    the columns' words are made only for a row that filters them: with no
    twins, none.
    """
    n = g.n
    full = (1 << n) - 1
    earlier = earlier_twins(g)
    # (the bit of v, the bit of the twin just before v) for each v with one
    follows = [(1 << v, 1 << t.bit_length() - 1) for v, t in enumerate(earlier) if t]
    later = sum(bit for bit, _ in follows)
    members = later | sum(before for _, before in follows)
    member_bits = [members & 1 << v for v in range(n)]
    known: dict[int, int] = {}  # a word, by the subset's mask of class members

    def word(m):
        w = known.get(m)
        if w is None:
            after = sum(bit for bit, before in follows if before & m)  # follow a member
            w = known[m] = (m & later & ~after) | (m & after) << n | (later & ~m & ~after) << 2 * n
        return w

    total = comb(n, k)
    fresh = combinations(range(n), k)
    keys = map(sum, combinations(member_bits, k))  # the same subsets' masks of class members
    subsets: list[tuple[int, ...]] = []  # the subsets made so far
    words: list[int] = []  # the words of the first subsets, made as columns need them
    start = 0  # the position of (R, R) in the lexicographic stream
    for i in range(total):
        if start >= cap:
            return
        end = min(total, i + cap - start)  # the block's columns within the cap
        subsets += islice(fresh, max(end - len(subsets), 0))
        rows = subsets[i]
        w = words[i] if i < len(words) else word(sum(map(member_bits.__getitem__, rows)))
        if not w & full:
            a, b = w >> n & full, w >> 2 * n
            clash = a | b | b << n | a << 2 * n
            cols = subsets[i:end]
            if clash:
                words += map(word, islice(keys, max(end - len(words), 0)))
                cols = compress(cols, [not c & clash for c in words[i:end]])
            yield from zip(repeat(rows), cols)
        start += total - i


def minors_combination(g: Graph, k: int) -> Optional[Certificate]:
    """A certificate that mur(g) >= k, or None if none was found.

    The pairs (R, C) of k-subsets are tried in lexicographic order, R <= C
    only, since U is symmetric and minor(R, C) == minor(C, R).  Twins t and
    v (``earlier_twins``) are swapped by an automorphism, which fixes A, D
    and J and so U: det U[s(R), s(C)] = +-det U[R, C] for every permutation
    s inside the classes.  A pair is tried only if its membership along
    each class's sorted vertices runs R and C, then R only, then C only,
    then neither; the earliest pair in the stream of each orbit of such
    permutations and the transpose does.  Rows t and v of U agree off
    columns t and v, so two twins in R but not in C make two rows of
    U[R, C] equal, and two in C but not in R two columns: such pairs are
    skipped as zero.  Every skipped pair is thus zero or + or - a minor
    tried earlier, one the stage would have dropped, so the minors kept and
    the certificate are those of the whole stream.  The work cap counts
    the whole stream's positions, skipped pairs included.  See
    ``_minor_pairs``.

    A minor that is zero, or + or - a minor already tried, is dropped
    before it is decoded; only the key it is compared by is made positive
    (by the sign of its first nonzero part), never the minor.  The others
    go as vectors (see ``minor_coefficients``) into an ``_Echelon`` modulo
    a prime, which keeps the independent ones until the constant 1 lies in
    their span.  A scaled copy of a minor already tried lies in that span,
    so the echelon drops it.  Up to ``_TABLE_ORDER`` the echelon runs on the
    (k+1)**2 coordinates of ``_echelon_coordinates(k)``: each of the k + 1
    it leaves out equals an earlier one in every minor and in the constant
    1, so the minors it keeps and its pivots, as indices of the whole
    vector, are those of an echelon on all (k+1)(k+2).  The weights are
    then solved for exactly from the minors kept, and the identity is
    checked on every entry of the whole vectors, so a failure anywhere only
    means no certificate.  Coefficients and values on
    ``minor_points(k)`` determine each other by an integer map that is
    invertible over Q and modulo the prime, so the minors chosen and their
    weights are the same in either basis: past ``_TABLE_ORDER`` they come
    from the values.
    """
    ncoeffs = (k + 1) * (k + 2)
    # Each pair costs (k+1)(k+2) * k**3 of the work cap, charged before it is
    # tried, whether or not the twin rule skips it.
    pairs = _minor_pairs(g, k, -(-_MINOR_STAGE_WORK // max(ncoeffs * k**3, 1)))
    # Every coefficient of a minor is below (3n)**k (see _slot_width).  At a
    # minor point, beta + delta <= k, a row of U[R, C] sums in absolute value
    # to at most beta + 1 + delta*(n-1) + 2(k-1) < k(n+2), so every value of
    # a minor is below (k(n+2))**k.
    height = (3 * g.n) ** k if k <= _TABLE_ORDER else (k * (g.n + 2)) ** k
    echelon = _Echelon(constant_one(k), height, _echelon_coordinates(k))
    chosen: list[tuple[IndexSet, IndexSet, tuple[int, ...]]] = []
    decode, minors = _minors(g, k, pairs)
    seen = set()
    for rows, cols, minor in minors:
        sign = next(filter(None, minor), 0)
        key = minor if sign > 0 else tuple(map(neg, minor))
        if not sign or key in seen:
            continue
        seen.add(key)
        vector = decode(minor)
        if echelon.add(vector):
            chosen.append((rows, cols, vector))
            if echelon.spans_target():
                return _solve_minor_weights(k, echelon.pivots, chosen)
    return None


def _solve_minor_weights(k, pivots, chosen) -> Optional[Certificate]:
    # The pivot entries of the echelon basis make the chosen minors' square
    # system nonsingular modulo the prime, hence over Q: it has one solution.
    one = constant_one(k)
    solved = solve_int([[v[p] for _, _, v in chosen] for p in pivots], [one[p] for p in pivots])
    if solved is None:
        return None
    nums, den = solved
    for target, column in zip(one, zip(*(v for _, _, v in chosen))):
        if sum(map(mul, nums, column)) != den * target:
            return None
    return Certificate(
        "minor_combination",
        {
            "k": k,
            "minors": [
                {"rows": list(rows), "cols": list(cols), "weight": str(Fraction(w, den))}
                for w, (rows, cols, _) in zip(nums, chosen)
                if w
            ],
        },
    )


# ---------------------------------------------------------------------------
# family formulas


def regular_mur(g: Graph) -> int:
    """Exact value for a regular graph: n - 1 - M (see ``GraphFacts.multiplicity``).

    For an r-regular graph L = rI - A, so M is the largest multiplicity of
    an adjacency eigenvalue other than r, or c - 1 for c components, whichever
    is larger.
    """
    degs = g.degrees()
    if not degs:
        return 0
    if any(d != degs[0] for d in degs):
        raise EngineError("regular_mur requires a regular graph")
    return g.n - 1 - graph_facts(g).multiplicity


def _apex_family_value(r: int, s: int) -> Optional[int]:
    if s == 0 or (s == 1 and r == 0):
        return 0
    if r <= 1:
        return 1
    if s - r + 1 != 0:
        return 2
    if s >= 3:
        return 3
    return None


def family_mur(g: Graph) -> Optional[tuple[int, Certificate]]:
    """Exact value with a theorem-backed certificate, when a recognizer fires.

    The matches are tried in the order of their kinds' places, and the
    first whose kind's formula gives a value settles it.
    """
    for m in graph_facts(g).matches:
        kind, params = m.kind, m.params
        if _FAMILY_PLACE[kind] <= 1:  # the rank-0 and rank-1 families
            value = _FAMILY_PLACE[kind]
        elif kind == "union_of_cliques":  # of two or more cliques, none a vertex
            value = len(params["sizes"]) - 1
        elif kind == "clique_isolated_apex":
            value = _apex_family_value(params["r"], params["s"])
        elif kind == "regular":  # g and its complement are both regular
            value = regular_mur(g)
        else:  # a path
            value = params["n"] - 2 if params["n"] >= 3 else None
        if value is not None:
            return value, Certificate("family_formula", {"family": m.describe(), "value": value})
    return None


# ---------------------------------------------------------------------------
# upper bounds


def structural_upper(g: Graph) -> tuple[int, Certificate]:
    """Best order, component or Laplacian-multiplicity bound; no parameter search.

    g has at least one vertex.  Family formulas are not consulted:
    ``compute_mur`` settles the empty graph and tries ``family_mur`` first.
    """
    n = g.n
    facts = graph_facts(g)
    bounds = [(n - 2, Certificate("order_bound", {}))] if n >= 2 else []
    for comp_side in (False, True):
        c = len(component_masks(facts.side(comp_side), (1 << n) - 1))
        cert = Certificate("component_bound", {"components": c, "on_complement": comp_side})
        bounds.append((n - c, cert))
        if c == 1 and n >= 2:
            m = facts.multiplicity
            data = {"multiplicity": m, "on_complement": comp_side}
            bounds.append((n - m - 1, Certificate("laplacian_multiplicity", data)))
    return min(bounds, key=lambda b: b[0])  # the first of the lowest


def _param_cert(p: ParamPoint, rank: int) -> Certificate:
    return Certificate(
        "explicit_params",
        {
            "beta": str(p.beta),
            "gamma": str(p.gamma),
            "delta": str(p.delta),
            "rank": rank,
        },
    )


def _clique_lines(degrees: Iterable[int]) -> Iterator[Fraction]:
    """+-1/(d-1) and +-1/d for each degree d: the clique construction
    delta = 1/(r-1) with r = d + 1 or r = d."""
    for d in sorted(set(degrees)):
        if d >= 2:
            yield from (Fraction(1, d - 1), Fraction(-1, d - 1))
        if d >= 1:
            yield from (Fraction(1, d), Fraction(-1, d))


def _delta_lines(g: Graph) -> list[Fraction]:
    """The delta values searched, each once: 0 and 1, the clique lines of
    g's degrees, then the clique lines of the complement's degrees n-1-d;
    never -1.

    ``complement_params`` keeps delta, so a line that lowers the rank of the
    complement lowers that of g by as much; g and its complement get the
    same set of lines.

    On delta = -1, A + delta*D = -L, and ``_drop_point`` at a Laplacian
    eigenvalue lambda ranks B = -(L - lambda*I).  For lambda != 0, B1 =
    lambda*1 as L1 = 0, so B x = 1 has a solution with 1^T x = n/lambda != 0,
    and the rank is n - m(lambda) - 1 >= n - M - 1 (``GraphFacts.multiplicity``);
    for lambda = 0, 1 is not in the column space of L and the rank is n - c.
    For n >= 2 a side of g is connected, so ``structural_upper`` lists both
    bounds, and the line never finds a rank below it.
    """
    n, degrees = g.n, g.degrees()
    deltas = [
        Fraction(0), Fraction(1),
        *_clique_lines(degrees),
        *_clique_lines(n - 1 - d for d in degrees),
    ]
    return [d for d in dict.fromkeys(deltas) if d != -1]


def _line_eigenvalues(g: Graph, delta: Fraction) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """m = s * (A + delta*D), s the denominator of delta, and each integer
    eigenvalue of m with its multiplicity, highest multiplicity first.

    m is an integer matrix, so ``charpoly`` gives its characteristic
    polynomial as monic integer coefficients, whose rational roots are
    integers: the rational eigenvalues of A + delta*D are mu / s.
    """
    m = u_matrix(g, delta.denominator, 0, 0, delta.numerator)
    roots = integer_roots(charpoly(m))
    return m, sorted(roots, key=lambda r: -r[1])


def _drop_point(
    m: list[list[int]], mu: int, mult: int, delta: Fraction
) -> tuple[ParamPoint, int]:
    """The point of lowest rank with beta = -mu/s on the line of delta, and
    that rank, for mu an eigenvalue of m of multiplicity ``mult``.

    B = U(beta, 0, delta) is symmetric, so its rank is n - mult.  J = 11^T
    has rank one, so the rank of B + gamma*J is at least rank(B) - 1, and it
    reaches that exactly when B x = 1 has a solution with 1^T x != 0, at
    gamma = -1/(1^T x); otherwise gamma = 0 is best.  1^T x is the same for
    every solution, since B is symmetric and 1 is orthogonal to its kernel.
    One solve of (s*B) x = 1 decides it.
    """
    n, s = len(m), delta.denominator
    b = [[x - mu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    solved = solve_int(b, [1] * n)
    gamma = Fraction(0)
    if solved and sum(solved[0]):
        # y / den solves (s*B) x = 1, so B (s x) = 1
        y, den = solved
        gamma = Fraction(-den, s * sum(y))
    rank = n - mult - 1 if gamma else n - mult
    return ParamPoint(Fraction(-mu, s), gamma, delta), rank


def search_lines(
    g: Graph, lower: int, upper: int, cert: Certificate, deltas: Iterable[Fraction]
) -> tuple[int, Certificate]:
    """The lowest rank found on the lines of ``deltas``, if below ``upper``.

    A + delta*D is symmetric, so rank(A + beta*I + delta*D) = n - mult(lambda)
    at beta = -lambda for an eigenvalue lambda, and n elsewhere; each
    rational eigenvalue that could bring the rank below ``upper`` is ranked
    at its ``_drop_point``.  The search stops once it reaches ``lower``.
    """
    n = g.n
    for delta in deltas:
        if upper <= lower:
            break
        m, eigenvalues = _line_eigenvalues(g, delta)
        for mu, mult in eigenvalues:
            if n - mult - 1 >= upper:
                break
            p, r = _drop_point(m, mu, mult, delta)
            if r < upper:
                upper, cert = r, _param_cert(p, r)
    return upper, cert


def _refine_algebraic(g, lower, upper, ucert):
    """The lowest rank below ``upper`` at an irrational Laplacian-shift
    point, stopping at ``lower``, with its algebraic certificate; for replay
    data and tests, not the bounds pipeline.

    There is one point per squarefree factor f of degree >= 2 of the
    Laplacian spectrum: (beta, gamma, delta) = (theta, -theta/n, -1) with
    theta a root of f.  Every root of f is a real Laplacian eigenvalue, so
    the rank on each branch is a valid upper bound.
    """
    _, rest = graph_facts(g).laplacian_split
    theta = Poly.x()
    for coeffs, _ in squarefree_decomposition(rest):
        if upper <= lower:
            break
        if len(coeffs) < 3:
            continue
        factor = Poly(coeffs).monic()
        p = ParamPoint(theta, theta * Fraction(-1, g.n), Poly((-1,)))
        for branch, r in rank_algebraic(universal_matrix(g, p), factor):
            if r < upper:
                polys = {"modulus": factor, "branch": branch,
                         "beta": p.beta, "gamma": p.gamma, "delta": p.delta}
                data = {key: [str(c) for c in s.coeffs] for key, s in polys.items()}
                data.update(rank=r, source="laplacian_eigenvalue")
                upper, ucert = r, Certificate("explicit_params", data)
    return upper, ucert


def _upper_bounds(g: Graph, lower: int) -> Iterator[tuple[int, Certificate]]:
    """The structural upper bound as the delta = 0 line lowers it, then the
    bound the other lines lower that to, if any; the search stops once the
    bound reaches ``lower``.

    The first line runs before the first minors attempt, and the others
    only after it fails.  A point of rank r < k makes every k x k minor of
    U vanish there, so no combination of them is identically 1: an attempt
    at a bound that line has already lowered could only fail.
    """
    first, *rest = _delta_lines(g)
    upper, cert = search_lines(g, lower, *structural_upper(g), [first])
    yield upper, cert
    found = search_lines(g, lower, upper, cert, rest)
    if found[0] < upper:
        yield found


# ---------------------------------------------------------------------------
# the pipeline


def compute_mur(g: Graph, budget: Budget = DEFAULT_BUDGET) -> MurResult:
    """Certified interval (exact whenever the two bounds meet).

    A family formula settles the value at once.  It is read first, and the
    forest searches of ``mur_lower`` stop once they meet it; a lower bound
    above it would be an unsound certificate and raises.  Otherwise a minors
    combination is tried at the structural upper bound, as the delta = 0
    line lowers it, and, if that fails, once more at the bound the other
    lines bring it to; the search stops as soon as the two bounds meet.  If
    the attempt at the final upper bound u fails, one more at u - 1 may
    still raise the lower bound.
    """
    n = g.n
    if n == 0:
        t = Certificate("trivial")
        return MurResult(0, t, 0, t)
    fam = family_mur(g)
    lower, lcert, exhausted = mur_lower(g, budget, None if fam is None else fam[0])
    if fam is not None:
        value, ucert = fam
        if lower > value:
            raise EngineError(
                f"lower bound {lower} exceeds family value {value}: unsound certificate"
            )
        if lower < value:
            lcert = Certificate("family_formula", dict(ucert.data))
            lower = value
        return MurResult(value, lcert, value, ucert, budget_exhausted=exhausted)
    for upper, ucert in _upper_bounds(g, lower):
        if lower > upper:
            raise EngineError(f"bounds crossed: lower {lower} > upper {upper}")
        if lower == upper:
            break
        mcert = minors_combination(g, upper)
        if mcert is not None:
            lower, lcert = upper, mcert
            break
    else:  # the attempt at the final upper bound failed
        mcert = minors_combination(g, upper - 1) if lower < upper - 1 else None
        if mcert is not None:
            lower, lcert = upper - 1, mcert
    return MurResult(lower, lcert, upper, ucert, budget_exhausted=exhausted)


@dataclass
class SpreadResult:
    vertex: int
    lower: int
    upper: int
    whole: MurResult
    deleted: MurResult

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    @property
    def value(self) -> Optional[int]:
        return self.lower if self.exact else None


def spread_bounds(g: Graph, v: int) -> tuple[int, int]:
    """The proven a-priori interval for the spread at v."""
    d = g.degree(v)
    n = g.n
    return max(-d, -(n - d - 1)), min(d + 2, n - d + 1)


def mur_spread(g: Graph, v: int, budget: Budget = DEFAULT_BUDGET) -> SpreadResult:
    """mur(G) - mur(G minus v), exact when both sides are exact."""
    if g.n >= 2 and not 0 <= v < g.n:
        raise EngineError(f"vertex {v} out of range")
    return _spreads(g, [v], budget)[0]


def _spreads(
    g: Graph, vertices: Iterable[int], budget: Budget = DEFAULT_BUDGET
) -> list[SpreadResult]:
    """``mur_spread`` at each of ``vertices``, with one ``compute_mur`` of g
    for them all."""
    if g.n < 2:
        raise EngineError("spread needs at least two vertices")
    whole = compute_mur(g, budget)
    out = []
    for v in vertices:
        deleted = compute_mur(g.delete_vertex(v), budget)
        lo = whole.lower - deleted.upper
        hi = whole.upper - deleted.lower
        blo, bhi = spread_bounds(g, v)
        if hi < blo or lo > bhi:
            raise EngineError(
                f"spread interval [{lo}, {hi}] misses the proven bounds [{blo}, {bhi}]"
            )
        out.append(SpreadResult(v, lo, hi, whole, deleted))
    return out
