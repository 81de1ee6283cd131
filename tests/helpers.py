"""Helpers shared by several test modules."""

import sys
from array import array
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, inf, lcm
from operator import mul, neg
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import strategies as st

from murlab import engine
from murlab.engine import (
    _PRIME,
    DEFAULT_BUDGET,
    Budget,
    Certificate,
    IndexSet,
    _apex_family_value,
    _delta_lines,
    _forest_certificate,
    _upper_bounds,
    family_mur,
    graph_facts,
    regular_mur,
    search_lines,
    structural_upper,
)
from murlab.families import FamilyMatch, family_matches
from murlab.graphs import Graph, _bits, component_masks, diameter, parse_graph6
from murlab.matrices import charpoly, rank_rational
from murlab.pathsearch import PathForestWitness, best_induced_path_forest
from murlab.polynomials import Poly


def graphs_strategy(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n
        ).map(lambda pairs: Graph.from_edges(n, [(u, v) for u, v in pairs if u != v]))
    )


def component_count(g):
    return len(component_masks(g, (1 << g.n) - 1))


def friendship(k):
    """k triangles sharing vertex 0."""
    edges = []
    for i in range(k):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return Graph.from_edges(2 * k + 1, edges)


ATLAS7 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "atlas7.txt"


def atlas7():
    """The 1044 seven-vertex graphs of networkx's graph atlas, in its order,
    read from the committed graph6 lines (index, graph6, complement index)."""
    lines = ATLAS7.read_text().splitlines()
    return [parse_graph6(line.split()[1]) for line in lines if not line.startswith("#")]


def assert_solves(a, b, got):
    """got, a solve of a x = b, is None exactly when the system is
    inconsistent (appending b raises the rank), and otherwise integer
    numerators over a positive denominator, in lowest terms, that satisfy
    every row."""
    if rank_rational([[*row, x] for row, x in zip(a, b)]) > rank_rational(a):
        assert got is None
        return
    y, den = got
    assert all(type(v) is int for v in y) and den > 0 and gcd(den, *y) == 1
    assert [sum(u * v for u, v in zip(row, y)) for row in a] == [den * x for x in b]


def _gauss_jordan(a, b):
    """x with a x = b by Gauss-Jordan elimination over the rationals; None
    if a is singular."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(a, b)]
    for c in range(n):
        p = next((i for i in range(c, n) if m[i][c]), None)
        if p is None:
            return None
        m[c], m[p] = m[p], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            f = m[i][c]
            if i != c and f:
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return [row[n] for row in m]


# The Bareiss solve that matrices.solve_int's sparse elimination replaced,
# kept verbatim: den is its last pivot, +-det(a), not reduced.
def reference_solve_int(a, b):
    """The solution of the square integer system a x = b as integer
    numerators over one common denominator, (y, den) with x = y / den; None
    if a is singular."""
    n = len(a)
    aug = [list(row) + [b[i]] for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        piv_row = next((i for i in range(c, n) if aug[i][c] != 0), None)
        if piv_row is None:
            return None
        aug[c], aug[piv_row] = aug[piv_row], aug[c]
        piv, top = aug[c][c], aug[c]
        for i in range(c + 1, n):
            row = aug[i]
            head = row[c]
            for j in range(c + 1, n + 1):
                row[j] = (piv * row[j] - head * top[j]) // prev
            row[c] = 0
        prev = piv
    den = prev
    y = [0] * n
    for i in range(n - 1, -1, -1):
        s = den * aug[i][n] - sum(aug[i][j] * y[j] for j in range(i + 1, n))
        y[i] = s // aug[i][i]
    return y, den


# The Q[x]/(f) inversion by extended Euclid that rank_algebraic's integer
# elimination replaced, kept verbatim as the oracle of its reference loop.
def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """Extended Euclid: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = Poly((1,)), Poly()
    v0, v1 = Poly(), Poly((1,))
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    lead = r0.leading()
    inv = 1 / lead
    return r0.monic(), u0 * inv, v0 * inv


class SplitRequired(Exception):
    """Raised when inverting a zero divisor mod f: f = f1 * f2, with f1 and
    f2 monic, coprime and of degree >= 1."""

    def __init__(self, f1: Poly, f2: Poly):
        super().__init__("zero divisor encountered; modulus splits")
        self.f1, self.f2 = f1, f2


def inverse_mod(a: Poly, f: Poly) -> Poly:
    """The inverse of a in Q[x]/(f), reduced mod f, for a monic squarefree f.

    A zero divisor a exposes the split f = gcd(a, f) * (f / gcd(a, f)) and
    raises SplitRequired with the two factors.
    """
    a = a % f
    if a.is_zero():
        raise ZeroDivisionError("inverting zero in every branch")
    g, u, _ = poly_ext_gcd(a, f)
    if g.degree > 0:
        raise SplitRequired(g, f.exact_div(g).monic())
    return u % f


def rational_charpoly(m) -> Poly:
    """det(xI - m) for a square matrix of ints and Fractions, from the
    integer ``charpoly`` of s*m, s the lcm of the denominators:
    det(xI - m) = s^-n det(s x I - s m), so c_i(m) = c_i(s m) / s^(n - i)."""
    s = lcm(*(Fraction(x).denominator for row in m for x in row))
    cs = charpoly([[int(x * s) for x in row] for row in m])
    return Poly(Fraction(c, s ** (len(m) - i)) for i, c in enumerate(cs))


def x_minus(r) -> Poly:
    """The polynomial x - r."""
    return Poly((-Fraction(r), 1))


def root_multiplicity(p: Poly, r) -> tuple[int, Poly]:
    """Largest e with (x-r)**e dividing p, plus the cofactor p/(x-r)**e."""
    if p.is_zero():
        raise ValueError("root multiplicity in the zero polynomial")
    factor = x_minus(r)
    e = 0
    while True:
        q, rem = divmod(p, factor)
        if not rem.is_zero():
            return e, p
        p = q
        e += 1


# The lower bound and the family formulas as they were before the diameter
# was read only after a cut search and the family kinds were ranked by one
# table, kept verbatim as references.  The one change: reference_family_mur
# reads the matches in the recognizers' order, not in the table's.
def reference_mur_lower(g: Graph, budget: Budget = DEFAULT_BUDGET) -> tuple[int, Certificate, bool]:
    n = g.n
    if n == 0:
        return 0, Certificate("trivial"), True
    facts = graph_facts(g)
    exhausted = False
    bounds = [(0, Certificate("trivial"))]
    for comp_side in (False, True):
        side = facts.side(comp_side)
        res = best_induced_path_forest(side, budget.search_nodes)
        exhausted = exhausted or not res.exact
        if res.witness is not None:
            bounds.append((res.witness.bound, _forest_certificate(res, comp_side)))
        d = diameter(side)
        if d != inf and d >= 2:
            cert = Certificate("diameter", {"diameter": int(d), "on_complement": comp_side})
            bounds.append((int(d) - 1, cert))
    kinds = {m.kind for m in facts.matches}
    if not kinds & {"complete", "empty"}:  # outside the rank-0 families
        value = 1 if kinds & {"two_cliques", "clique_plus_isolated"} else 2
        bounds.append((value, Certificate("not_in_rank01_families", {"bound": value})))
    best, cert = max(bounds, key=lambda b: b[0])  # the first of the highest
    return best, cert, exhausted


def reference_family_mur(g: Graph):
    facts = graph_facts(g)
    matches = family_matches(g, facts.complement)

    def cert(match: FamilyMatch, value: int) -> Certificate:
        return Certificate(
            "family_formula",
            {"family": match.describe(), "value": value},
        )

    for m in matches:
        if m.kind in ("complete", "empty"):
            return 0, cert(m, 0)
    for m in matches:
        if m.kind in ("two_cliques", "clique_plus_isolated"):
            return 1, cert(m, 1)
    for m in matches:
        if m.kind == "union_of_cliques":
            sizes = m.params["sizes"]
            if len(sizes) >= 2 and all(s > 1 for s in sizes):
                return len(sizes) - 1, cert(m, len(sizes) - 1)
    for m in matches:
        if m.kind == "clique_isolated_apex":
            value = _apex_family_value(m.params["r"], m.params["s"])
            if value is not None:
                return value, cert(m, value)
    for m in matches:
        if m.kind == "regular":  # g and its complement are both regular
            value = regular_mur(g)
            return value, cert(m, value)
    for m in matches:
        if m.kind == "path":
            n = m.params["n"]
            if n >= 3:
                return n - 2, cert(m, n - 2)
    return None


@contextmanager
def without_families():
    """compute_mur as if no family formula applied: the bounds pipeline's
    own interval, for a cross-check against the formulas."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "family_mur", lambda g: None)
        yield


def reference_mur_upper(g: Graph) -> tuple[int, Certificate]:
    """The upper bound and certificate of the removed ``mur_upper``, kept as
    a reference: a family value, else the lowest the delta search reaches,
    searched down to 0."""
    fam = family_mur(g)
    if fam is not None:
        return fam
    *_, last = _upper_bounds(g, 0)
    return last


# The upper bounds as they were before the delta = 0 line ran ahead of the
# first minors attempt, kept verbatim as a reference; the one change is
# that search_lines is given the lines to search.
def reference_upper_bounds(g: Graph, lower: int):
    """The structural upper bound, then the bound the delta search lowers
    it to, if any; the search stops once the bound reaches ``lower``."""
    upper, cert = structural_upper(g)
    yield upper, cert
    found = search_lines(g, lower, upper, cert, _delta_lines(g))
    if found[0] < upper:
        yield found


# The component list, the family recognizers and the path-forest check as
# they were before vertex sets were read as bitmasks, kept verbatim as
# references; only the names changed (reference_components is the removed
# components(), and it reads the masks from the now public component_masks).
def reference_components(g: Graph) -> tuple[int, list[list[int]]]:
    """Connected component count and vertex partition (sorted)."""
    parts = [_bits(comp) for comp in component_masks(g, (1 << g.n) - 1)]
    return len(parts), parts


def _is_clique(g: Graph, verts: list[int]) -> bool:
    return all(g.has_edge(u, v) for i, u in enumerate(verts) for v in verts[i + 1:])


def reference_clique_components(g: Graph) -> list[int] | None:
    """Component sizes if every component is a clique, else None."""
    _, parts = reference_components(g)
    sizes = []
    for part in parts:
        if not _is_clique(g, part):
            return None
        sizes.append(len(part))
    return sorted(sizes, reverse=True)


def _reference_matches_one_side(g: Graph) -> list[FamilyMatch]:
    out: list[FamilyMatch] = []
    n = g.n
    ecount = g.edge_count()
    degs = g.degrees()

    if ecount == n * (n - 1) // 2:
        out.append(FamilyMatch("complete", {"n": n}))
    if ecount == 0:
        out.append(FamilyMatch("empty", {"n": n}))

    sizes = reference_clique_components(g)
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
            rest = g.delete_vertex(v)
            rest_sizes = reference_clique_components(rest)
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
        if reference_components(g)[0] == 1:
            out.append(FamilyMatch("path", {"n": n}))

    if degs and degs.count(degs[0]) == n:
        out.append(FamilyMatch("regular", {"degree": degs[0]}))
    return out


def reference_family_matches(g: Graph, complement: Graph) -> list[FamilyMatch]:
    """All family matches on g and on its complement."""
    out = list(_reference_matches_one_side(g))
    out.extend(
        FamilyMatch(m.kind, m.params, complemented=True)
        for m in _reference_matches_one_side(complement)
    )
    return out


def reference_validate_path_forest(g: Graph, w: PathForestWitness) -> bool:
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


# The minors stage as it was before its echelon left out the coordinates at
# gamma = 1 of top degree, kept verbatim, with its echelon on every
# coordinate of minor_points(k), as the reference for minors_combination.
class _ReferenceEchelon:
    """Integer vectors modulo the prime p = 2**31 - 1 in reduced echelon
    form, and the residual of a target vector against them.

    ``add`` reduces a vector against the rows.  If its residual is zero,
    the vector lies in their span and is dropped.  Otherwise the residual,
    scaled to 1 at its first nonzero coordinate (its pivot), becomes a row,
    and every row and the target are reduced by it.  Each row is then 1 at
    its own pivot and 0 at every other, so the residual of v is
    v - sum(v[pivot_i] * row_i), and the target lies in the span exactly
    when its residual is zero.

    Rows, residuals and the target are each one integer: coordinate q sits
    in slot q, w bits wide, w a multiple of 64, so that every slot is whole
    machine words.  A row's slot holds a residue below 2**32, not
    necessarily reduced.  The heads v[pivot_i] and v itself are taken as
    they are, each below ``height`` in absolute value, so each slot of
    v - sum(heads * rows) lies below bound = len(v) * height * 2**32 +
    height in absolute value.  An offset that is a multiple of p and at
    least bound in every slot makes every slot positive; w is the least
    multiple of 64 that holds offset + bound: 64 for minors of order up to
    5 on 7 vertices, 128 for order 6 on 7 or 8 and for order 10 on 12.
    Foldings x -> (x & p) + (x >> 31), done on every slot at once through
    masks, keep each slot's residue and bring it below 2p; subtracting p
    from every slot at or above p then leaves each slot reduced, so a
    vector in the span leaves with its residual still packed, compared
    with 0.  A kept residual's pivot is its lowest nonzero slot.  When a
    row or the target is updated it gains (p - c) times the new row, less
    than 2**63 per slot, and two foldings bring it back below 2**32.
    """

    def __init__(self, target: Sequence[int], height: int):
        n = len(target)
        self.pivots: list[int] = []
        self.rows: list[int] = []
        bound = (n * height << 32) + height
        offset = -(-bound // _PRIME) * _PRIME
        w = self.width = -(-(offset + bound).bit_length() // 64) * 64
        ones = self.ones = ((1 << w * n) - 1) // ((1 << w) - 1)
        self.offset = offset * ones
        self.low = _PRIME * ones  # the low 31 bits of every slot
        self.high = ((1 << w - 31) - 1) * ones  # the rest, shifted down by 31
        self.target = sum(t % _PRIME << w * q for q, t in enumerate(target))
        # v is packed from signed 64-bit digits, the least that hold height
        self.digits = (height.bit_length() + 65) // 64
        self.nbytes = n * w // 8
        self.signs = ((1 << 8 * self.nbytes) - 1) // ((1 << 64) - 1) << 63
        # foldings that bring a slot below 2**w under 2p
        top, self.folds = (1 << w) - 1, 0
        while top >= 2 * _PRIME:
            top, self.folds = _PRIME + (top >> 31), self.folds + 1

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
        res = self.offset + self._pack(v) - sum(map(mul, heads, self.rows))
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
        self.pivots.append(j)
        t = self.target >> shift & _PRIME
        if t:
            self.target = self._reduce(self._fold(self.target + (_PRIME - t) * new, 2))
        return True


def reference_minors_combination(g: Graph, k: int) -> Optional[Certificate]:
    """A certificate that mur(g) >= k, or None if none was found, by the
    minors stage with an echelon on every coordinate of each minor."""
    ncoeffs = (k + 1) * (k + 2)
    # Each pair costs (k+1)(k+2) * k**3 of the work cap, charged before it is
    # tried, whether or not the twin rule skips it.
    pairs = engine._minor_pairs(g, k, -(-engine._MINOR_STAGE_WORK // max(ncoeffs * k**3, 1)))
    # Every coefficient of a minor is below (3n)**k (see _slot_width).  At a
    # minor point, beta + delta <= k, a row of U[R, C] sums in absolute value
    # to at most beta + 1 + delta*(n-1) + 2(k-1) < k(n+2), so every value of
    # a minor is below (k(n+2))**k.
    height = (3 * g.n) ** k if k <= engine._TABLE_ORDER else (k * (g.n + 2)) ** k
    echelon = _ReferenceEchelon(engine.constant_one(k), height)
    chosen: list[tuple[IndexSet, IndexSet, tuple[int, ...]]] = []
    decode, minors = engine._minors(g, k, pairs)
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
                return engine._solve_minor_weights(k, echelon.pivots, chosen)
    return None
