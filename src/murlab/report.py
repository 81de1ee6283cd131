"""Structured result documents ("murlab-report/1") and certificate replay.

A report carries everything needed to re-check its claims offline: the
graph, both bounds, and replayable certificate witnesses.  Replay never
reruns the search; it only verifies the certificates.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import inf, lcm
from typing import NamedTuple, Optional

from .engine import (
    Budget,
    Certificate,
    MurResult,
    ParamPoint,
    SpreadResult,
    family_mur,
    constant_one,
    graph_facts,
    integer_universal_matrix,
    minor_coefficients,
    universal_matrix,
    _point_values,
)
from .graphs import Graph, GraphError, component_masks, diameter, encode_graph6, parse_graph6
from .matrices import rank_algebraic, rank_rational
from .pathsearch import PathForestWitness, validate_path_forest
from .polynomials import Poly, check_modulus

FORMAT = "murlab-report/1"


class ReportError(ValueError):
    pass


def _graph_descriptor(g: Graph) -> dict:
    return {"order": g.n, "edges": [list(e) for e in g.edges()], "graph6": encode_graph6(g)}


def _cert_dict(cert: Certificate) -> dict:
    return {"kind": cert.kind, "data": cert.data, "describe": cert.describe()}


def build_report(
    g: Graph,
    result: MurResult,
    budget: Budget,
    elapsed: float,
    spread: Optional[SpreadResult] = None,
) -> dict:
    doc = {
        "format": FORMAT,
        "graph": _graph_descriptor(g),
        "result": {
            "lower": result.lower,
            "upper": result.upper,
            "exact": result.exact,
            "value": result.value,
        },
        "lower_certificate": _cert_dict(result.lower_cert),
        "upper_certificate": _cert_dict(result.upper_cert),
        "budget": {
            # The keys are part of the format; the delta search has no grid,
            # random points or candidate cap, so those read 0 and null.
            "search_nodes": budget.search_nodes,
            "grid_den": 0,
            "grid_num": 0,
            "random_points": 0,
            "max_candidates": None,
            "seed": 0,
        },
        "budget_exhausted": result.budget_exhausted,
        "elapsed_seconds": elapsed,
    }
    if spread is not None:
        doc["spread"] = {
            "vertex": spread.vertex,
            "lower": spread.lower,
            "upper": spread.upper,
            "exact": spread.exact,
            "deleted": build_report(
                g.delete_vertex(spread.vertex), spread.deleted, budget, 0.0
            ),
        }
    return doc


def report_to_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True)


def parse_report(text: str) -> dict:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise ReportError("document nested too deeply") from None
    if not isinstance(doc, dict) or doc.get("format") != FORMAT:
        raise ReportError(f"not a {FORMAT} document")
    return doc


# ---------------------------------------------------------------------------
# replay


class Check(NamedTuple):
    """One named check of a replay or a verify suite, and what it found."""

    name: str
    ok: bool
    message: str = ""


def _side(g: Graph, data: dict) -> Graph:
    return graph_facts(g).complement if data.get("on_complement") else g


def _count(data: dict, key: str) -> int:
    """A count or bound of certificate data, which must be an int: a bool or
    a float would pass wherever it equals the recomputed value."""
    x = data[key]
    if type(x) is not int:
        raise TypeError(f"{key} {x!r} is not an integer")
    return x


def _replay_lower(g: Graph, cert: dict) -> tuple[Optional[int], str]:
    """Re-derive the lower bound implied by a certificate; None on mismatch."""
    kind, data = cert["kind"], cert["data"]
    if kind == "trivial":
        return 0, ""
    if kind == "path_forest":
        side = _side(g, data)
        w = PathForestWitness(
            [tuple(p) for p in data["paths"]], list(data["isolated"]), _count(data, "bound")
        )
        if not validate_path_forest(side, w):
            return None, "path forest witness failed validation"
        return w.bound, ""
    if kind == "diameter":
        claimed = _count(data, "diameter")
        d = diameter(_side(g, data))
        if d == inf or int(d) != claimed:
            return None, f"recomputed diameter {d} != {claimed}"
        return claimed - 1, ""
    if kind == "not_in_rank01_families":
        floor = graph_facts(g).rank01_floor
        if floor == 0:
            return None, "graph is in a rank-0 family"
        claimed = _count(data, "bound")
        if claimed >= 2 and floor == 1:
            return None, "graph is in a rank-1 family"
        return min(claimed, 2), ""
    if kind == "family_formula":
        return _replay_family_value(g, data)
    if kind == "minor_combination":
        return _replay_minor_combination(g, data)
    return None, f"unknown lower certificate kind {kind!r}"


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def _rational(s) -> Fraction:
    """A coefficient written as an integer or p/q; anything else (an
    exponent such as "1e999999999" included) is unreadable."""
    if not isinstance(s, str) or not _RATIONAL.fullmatch(s):
        raise ValueError(f"coefficient {s!r} is not a rational")
    return Fraction(s)


def _is_index_set(idx, n: int, k: int) -> bool:
    return (
        isinstance(idx, list)
        and len(idx) == k
        and len(set(idx)) == k
        and all(type(i) is int and 0 <= i < n for i in idx)
    )


def _replay_minor_combination(g: Graph, data: dict) -> tuple[Optional[int], str]:
    """Check that the weighted minors sum to the constant 1, entry by entry
    of their vectors (see ``minor_coefficients``); on failure, name the first
    point of ``minor_points(k)`` where the sum is not 1."""
    k, minors = data.get("k"), data.get("minors")
    if type(k) is not int or not 1 <= k <= g.n:
        return None, f"minor order {k!r} outside 1..{g.n}"
    if not isinstance(minors, list):
        return None, "minors are not a list"
    terms, weights = [], []
    for m in minors:
        if not isinstance(m, dict):
            return None, "malformed minor entry"
        rows, cols, weight = m.get("rows"), m.get("cols"), m.get("weight")
        if not (_is_index_set(rows, g.n, k) and _is_index_set(cols, g.n, k)):
            return None, f"minor index sets {rows!r}, {cols!r} are not {k} distinct vertices"
        terms.append((rows, cols))
        weights.append(_rational(weight))
    # The weights scaled by the lcm of their denominators are integers.
    den = lcm(*(w.denominator for w in weights))
    totals = [0] * ((k + 1) * (k + 2))
    for w, (_, _, vector) in zip(weights, minor_coefficients(g, k, terms)):
        w = w.numerator * (den // w.denominator)
        totals = [t + w * x for t, x in zip(totals, vector)]
    if totals != [den * x for x in constant_one(k)]:
        # The points are unisolvent, so the sum differs from 1 at one of them.
        t = next(t for t in _point_values(k, totals) if t != den)
        return None, f"minor combination evaluates to {Fraction(t, den)}, not 1"
    return k, ""


def _parse_point(data: dict) -> ParamPoint:
    return ParamPoint(
        _rational(data["beta"]), _rational(data["gamma"]), _rational(data["delta"])
    )


def _replay_algebraic_params(g: Graph, data: dict) -> tuple[Optional[int], str]:
    branch = Poly([_rational(c) for c in data["branch"]])
    if data.get("source") != "laplacian_eigenvalue":
        return None, "algebraic certificate without an eigenvalue provenance"
    _, rest = graph_facts(g).laplacian_split
    try:
        Poly(rest).exact_div(branch)
    except ArithmeticError:
        return None, "branch modulus does not divide the Laplacian spectrum"
    check_modulus(branch)  # a bad modulus is named before the point is read
    reps = [Poly([_rational(c) for c in data[key]]) for key in ("beta", "gamma", "delta")]
    claimed = _count(data, "rank")
    branches = rank_algebraic(universal_matrix(g, ParamPoint(*reps)), branch)
    if any(r != claimed for _, r in branches):
        return None, f"recomputed ranks {[r for _, r in branches]} != {claimed}"
    return claimed, ""


def _replay_family_value(g: Graph, data: dict) -> tuple[Optional[int], str]:
    claimed = _count(data, "value")
    fam = family_mur(g)
    if fam is None or fam[0] != claimed:
        return None, "family value could not be reproduced"
    return claimed, ""


def _replay_upper(g: Graph, cert: dict) -> tuple[Optional[int], str]:
    kind, data = cert["kind"], cert["data"]
    n = g.n
    if kind == "trivial":
        if n:
            return None, f"a trivial upper bound needs a graph with no vertices, not {n}"
        return 0, ""
    if kind == "order_bound":
        if n < 2:
            return None, "order bound needs n >= 2"
        return n - 2, ""
    if kind == "component_bound":
        claimed = _count(data, "components")
        c = len(component_masks(_side(g, data), (1 << n) - 1))
        if c != claimed:
            return None, f"recomputed components {c} != {claimed}"
        return n - c, ""
    if kind == "laplacian_multiplicity":
        if len(component_masks(_side(g, data), (1 << n) - 1)) != 1:
            return None, "laplacian bound needs a connected side"
        claimed = _count(data, "multiplicity")
        m = graph_facts(g).multiplicity
        if m != claimed:
            return None, f"recomputed multiplicity {m} != {claimed}"
        return n - m - 1, ""
    if kind == "family_formula":
        return _replay_family_value(g, data)
    if kind == "explicit_params":
        if "modulus" in data:
            return _replay_algebraic_params(g, data)
        claimed = _count(data, "rank")
        r = rank_rational(integer_universal_matrix(g, _parse_point(data)))
        if r != claimed:
            return None, f"recomputed rank {r} != {claimed}"
        return r, ""
    return None, f"unknown upper certificate kind {kind!r}"


def _check_shape(doc) -> None:
    """Raise ReportError unless every field replay reads outside the
    certificates' data is present, with a type replay can use."""

    def has(obj, *keys) -> bool:
        return isinstance(obj, dict) and all(k in obj for k in keys)

    def is_edge(e) -> bool:
        return isinstance(e, list) and len(e) == 2 and all(type(i) is int for i in e)

    if not isinstance(doc, dict):
        raise ReportError(f"a {FORMAT} document must be an object")
    graph, res = doc.get("graph"), doc.get("result")
    parts = {
        "graph": has(graph, "graph6", "order", "edges")
        and isinstance(graph["graph6"], str)
        and isinstance(graph["edges"], list)
        and all(map(is_edge, graph["edges"])),
        "result": has(res, "lower", "upper", "exact", "value")
        and type(res["lower"]) is int
        and type(res["upper"]) is int,
        # The deleted graph's report carries no spread of its own.
        "spread": "spread" not in doc
        or has(doc["spread"], "lower", "upper", "deleted")
        and not has(doc["spread"]["deleted"], "spread"),
    }
    for key in ("lower_certificate", "upper_certificate"):
        parts[key] = has(doc.get(key), "kind", "data") and isinstance(doc[key]["data"], dict)
    for what, ok in parts.items():
        if not ok:
            raise ReportError(f"malformed {FORMAT} document: bad or missing {what}")


def _replay_certificate(replay, g: Graph, cert: dict) -> tuple[Optional[int], str]:
    """One certificate's replay; data it cannot read is a failed check."""
    try:
        return replay(g, cert)
    except (KeyError, TypeError, ValueError, ArithmeticError) as exc:
        return None, f"unreadable certificate data: {type(exc).__name__}: {exc}"


def replay_report(doc: dict) -> list[Check]:
    """Re-check every certificate in a report document.

    A document without the fields replay needs raises ReportError; a
    certificate whose data cannot be read or re-derived fails its check.
    """
    _check_shape(doc)
    checks = []
    gdesc = doc["graph"]
    try:
        g = parse_graph6(gdesc["graph6"])
    except GraphError as exc:
        raise ReportError(f"malformed {FORMAT} document: {exc}") from None
    same = g.n == gdesc["order"] and sorted(g.edges()) == sorted(
        tuple(e) for e in gdesc["edges"]
    )
    checks.append(Check("graph descriptor consistent", same))
    res = doc["result"]
    lower, upper = res["lower"], res["upper"]
    ok = 0 <= lower <= upper
    checks.append(Check("bounds ordered", ok, f"[{lower}, {upper}]"))
    value, msg = _replay_certificate(_replay_lower, g, doc["lower_certificate"])
    checks.append(
        Check(
            "lower certificate",
            value is not None and value >= lower,
            msg or f"certified {value}, claimed {lower}",
        )
    )
    value, msg = _replay_certificate(_replay_upper, g, doc["upper_certificate"])
    checks.append(
        Check(
            "upper certificate",
            value is not None and value <= upper,
            msg or f"certified {value}, claimed {upper}",
        )
    )
    exact_ok = res["exact"] == (lower == upper) and (
        res["value"] == (lower if lower == upper else None)
    )
    checks.append(Check("exactness flag", exact_ok))
    if "spread" in doc:
        sp = doc["spread"]
        inner = replay_report(sp["deleted"])
        checks.extend(c._replace(name=f"deleted-graph {c.name}") for c in inner)
        dres = sp["deleted"]["result"]
        arith = (
            sp["lower"] == lower - dres["upper"]
            and sp["upper"] == upper - dres["lower"]
        )
        # The interval is mur(G) - mur(G - v) only if the deleted graph is G - v.
        v = sp.get("vertex")
        if not (type(v) is int and 0 <= v < g.n):
            problem = f"vertex {v!r} outside 0..{g.n - 1}"
        elif parse_graph6(sp["deleted"]["graph"]["graph6"]) != g.delete_vertex(v):
            problem = f"the deleted graph is not the graph minus vertex {v}"
        elif sp.get("exact") != (sp["lower"] == sp["upper"]):
            problem = f"exact flag {sp.get('exact')!r} for [{sp['lower']}, {sp['upper']}]"
        else:
            problem = ""
        checks.append(Check("spread arithmetic", arith and not problem, problem))
    return checks
