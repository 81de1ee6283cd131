"""Replay is total and sound under single mutations of genuine reports.

Each document is a genuine report of a graph whose mur is known.  One JSON
leaf or key is replaced or deleted; replay must then either raise
ReportError or return checks, and if every check passes, the claimed
bounds must still hold for the known value.
"""

import ast
import copy
import json
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import murlab
from murlab.engine import Budget, Certificate, MurResult, compute_mur, mur_lower, mur_spread
from murlab.graphs import complete, complete_bipartite, cycle, disjoint_union, p_prime, path, petersen
from murlab.report import ReportError, build_report, replay_report
from helpers import without_families


# (graph, mur); P5 is the graph left by deleting vertex 0 of P6
KNOWN = [
    (p_prime(4), 3),
    (cycle(5), 2),
    (path(6), 4),
    (complete_bipartite(2, 3), 1),
    (petersen(), 4),
]
MUR_P5 = 3
TINY = Budget(search_nodes=1)


@cache
def genuine_reports():
    """(whole mur, deleted-graph mur or None, report) for each known graph:
    with and without the family formulas, with weakened intervals, with the
    structural lower bound of a one-node search, and P6 with a spread at
    vertex 0."""
    docs = []
    for g, mur in KNOWN:
        res = compute_mur(g, Budget())
        docs.append((mur, None, build_report(g, res, Budget(), 0.1)))
        with without_families():
            res = compute_mur(g, Budget())
        docs.append((mur, None, build_report(g, res, Budget(), 0.1)))
        # Weaker but still certified intervals, on which one changed bound
        # can cross mur and still leave the bounds ordered and the exact
        # flag consistent.
        for weak in (
            MurResult(0, Certificate("trivial"), res.upper, res.upper_cert),
            MurResult(res.lower, res.lower_cert, g.n - 2, Certificate("order_bound", {})),
        ):
            docs.append((mur, None, build_report(g, weak, Budget(), 0.1)))
        # At one search node the diameter and family-membership bounds beat
        # the path forest.
        lower, lcert, _ = mur_lower(g, TINY)
        structural = MurResult(lower, lcert, res.upper, res.upper_cert)
        docs.append((mur, None, build_report(g, structural, TINY, 0.1)))
    kinds = {doc["lower_certificate"]["kind"] for _, _, doc in docs}
    assert {"diameter", "not_in_rank01_families"} <= kinds
    g = path(6)
    spread = mur_spread(g, 0)
    docs.append((4, MUR_P5, build_report(g, spread.whole, Budget(), 0.1, spread)))
    for _, _, doc in docs:
        assert all(c.ok for c in replay_report(doc))
    return docs


def sites(node):
    """Every (container, key) pair of a JSON tree, containers first."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in list(keys):
        yield node, key
        if isinstance(node[key], (dict, list)):
            yield from sites(node[key])


OTHER_VALUES = [None, True, False, 0, -1, 2, 2.5, "", "x", "1e9", "-1", "1/0", [], [0, 1], {}]


def replacement(value):
    other = st.sampled_from(OTHER_VALUES)
    if type(value) in (int, float):
        return st.sampled_from([value + 1, value - 1]) | other
    return other


def claimed_results(doc, mur, deleted_mur):
    """(claimed result, known mur) for the graph and, in a spread report,
    for the deleted graph."""
    pairs = [(doc["result"], mur)]
    if deleted_mur is not None and "spread" in doc:
        pairs.append((doc["spread"]["deleted"]["result"], deleted_mur))
    return pairs


def check_replay(doc, mur, deleted_mur):
    """Replay raises nothing but ReportError, and a document whose checks
    all pass claims bounds that hold, for the spread too."""
    try:
        checks = replay_report(doc)
    except ReportError:
        return
    if all(c.ok for c in checks):
        for result, value in claimed_results(doc, mur, deleted_mur):
            assert result["lower"] <= value <= result["upper"]
        if deleted_mur is not None and "spread" in doc:
            assert doc["spread"]["lower"] <= mur - deleted_mur <= doc["spread"]["upper"]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_replay_total_and_sound_under_mutation(data):
    mur, deleted_mur, doc = data.draw(st.sampled_from(genuine_reports()))
    doc = copy.deepcopy(doc)
    container, key = data.draw(st.sampled_from(list(sites(doc))))
    if data.draw(st.booleans()):
        del container[key]
    else:
        container[key] = data.draw(replacement(container[key]))
    check_replay(doc, mur, deleted_mur)


def test_replay_sound_under_every_shifted_bound():
    # Random sites rarely hit the claimed bounds, so shift each one here.
    for mur, deleted_mur, genuine in genuine_reports():
        for i in range(len(claimed_results(genuine, mur, deleted_mur))):
            for bound in ("lower", "upper"):
                for shift in (1, -1):
                    doc = copy.deepcopy(genuine)
                    result, _ = claimed_results(doc, mur, deleted_mur)[i]
                    result[bound] += shift
                    check_replay(doc, mur, deleted_mur)


def failed(doc):
    """(name, message) of each failed check."""
    return [(c.name, c.message) for c in replay_report(doc) if not c.ok]


@pytest.mark.parametrize("forgery", ["K4 deleted", "vertex 99", "no vertex", "exact flipped"])
def test_replay_fails_a_forged_spread(forgery):
    mur, deleted_mur, genuine = next(r for r in genuine_reports() if r[1] is not None)
    doc = copy.deepcopy(genuine)
    sp = doc["spread"]
    if forgery == "K4 deleted":
        # K4's genuine report for P5's, with the spread arithmetic redone
        sp["deleted"] = build_report(complete(4), compute_mur(complete(4)), Budget(), 0.1)
        sp["lower"] = doc["result"]["lower"] - sp["deleted"]["result"]["upper"]
        sp["upper"] = doc["result"]["upper"] - sp["deleted"]["result"]["lower"]
        sp["exact"] = sp["lower"] == sp["upper"]
        assert sp["lower"] > mur - deleted_mur
    elif forgery == "vertex 99":
        sp["vertex"] = 99
    elif forgery == "no vertex":
        del sp["vertex"]
    else:
        sp["exact"] = not sp["exact"]
    [(name, message)] = failed(doc)
    assert name == "spread arithmetic" and message


@pytest.mark.parametrize("shift", [1, -1])
def test_replay_fails_a_diameter_off_by_one(shift):
    g = complete_bipartite(2, 3)  # diameter 2, mur 1
    lower, cert, _ = mur_lower(g, TINY)
    assert cert.kind == "diameter" and lower == 1
    forged = Certificate("diameter", {**cert.data, "diameter": 2 + shift})
    doc = build_report(g, MurResult(1 + shift, forged, 3, Certificate("order_bound")), TINY, 0.1)
    assert failed(doc) == [("lower certificate", f"recomputed diameter 2 != {2 + shift}")]


@pytest.mark.parametrize("g", [disjoint_union([complete(2), complete(3)]), complete_bipartite(2, 3)])
def test_replay_fails_bound_two_on_a_rank_one_family(g):
    forged = Certificate("not_in_rank01_families", {"bound": 2})
    doc = build_report(g, MurResult(2, forged, 3, Certificate("order_bound")), TINY, 0.1)
    assert failed(doc) == [("lower certificate", "graph is in a rank-1 family")]


# The count or bound each kind's data carries, which replay compares with
# the one it recomputes.
COUNTS = {
    "diameter": "diameter",
    "path_forest": "bound",
    "not_in_rank01_families": "bound",
    "family_formula": "value",
    "component_bound": "components",
    "laplacian_multiplicity": "multiplicity",
    "explicit_params": "rank",
}


def stored_reports():
    """The genuine reports of the benchmark's replay data: every kind the
    pipeline writes, the algebraic explicit_params included."""
    data = json.loads((Path(__file__).parents[1] / "perfbench/data/reports.json").read_text())
    return [entry["doc"] for entry in data["genuine"]]


def test_replay_fails_a_count_that_is_not_an_int():
    # A float or bool equal to the recomputed count, or its digits as a
    # string, must not pass for it.
    seen, bools = set(), 0
    for genuine in [doc for _, _, doc in genuine_reports()] + stored_reports():
        for bound in ("lower", "upper"):
            cert = genuine[f"{bound}_certificate"]
            key = COUNTS.get(cert["kind"])
            if key is None:
                continue
            x = cert["data"][key]
            forgeries = [float(x), str(x)] + ([bool(x)] if x in (0, 1) else [])
            bools += len(forgeries) == 3
            for forged in forgeries:
                doc = copy.deepcopy(genuine)
                doc[f"{bound}_certificate"]["data"][key] = forged
                message = f"unreadable certificate data: TypeError: {key} {forged!r} is not an integer"
                assert failed(doc) == [(f"{bound} certificate", message)]
            seen.add((bound, cert["kind"], "modulus" in cert["data"]))
    assert seen >= {
        ("lower", "diameter", False),
        ("lower", "path_forest", False),
        ("lower", "not_in_rank01_families", False),
        ("lower", "family_formula", False),
        ("upper", "family_formula", False),
        ("upper", "component_bound", False),
        ("upper", "laplacian_multiplicity", False),
        ("upper", "explicit_params", False),
        ("upper", "explicit_params", True),
    }
    assert bools


def written_kinds():
    """Every certificate kind the package writes: the first argument of each
    Certificate(...) call under src/murlab/."""
    return sorted(
        node.args[0].value
        for path in Path(murlab.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "Certificate"
        and isinstance(node.args[0], ast.Constant)
    )


def test_replay_fails_a_bound_past_mur_under_every_kind():
    # Single-leaf mutations never write a valid kind name, so set each one
    # here, on the lower and then the upper certificate, with that claimed
    # bound one past mur and the rest of the document kept consistent.
    kinds = set(written_kinds())
    assert {"trivial", "path_forest", "minor_combination", "explicit_params"} < kinds
    for mur, deleted_mur, genuine in genuine_reports():
        for bound, past in (("lower", mur + 1), ("upper", mur - 1)):
            for kind in sorted(kinds):
                doc = copy.deepcopy(genuine)
                doc[f"{bound}_certificate"]["kind"] = kind
                res = doc["result"]
                res[bound] = past
                res["lower"], res["upper"] = min(res["lower"], past), max(res["upper"], past)
                res["exact"] = res["lower"] == res["upper"]
                res["value"] = res["lower"] if res["exact"] else None
                if "spread" in doc:
                    sp, dres = doc["spread"], doc["spread"]["deleted"]["result"]
                    sp["lower"] = res["lower"] - dres["upper"]
                    sp["upper"] = res["upper"] - dres["lower"]
                    sp["exact"] = sp["lower"] == sp["upper"]
                names = [name for name, _ in failed(doc)]
                assert f"{bound} certificate" in names, (genuine["graph"]["graph6"], bound, kind)
