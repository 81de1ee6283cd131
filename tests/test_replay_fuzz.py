"""Replay is total and sound under single mutations of genuine reports.

Each document is a genuine report of a graph whose mur is known.  One JSON
leaf or key is replaced or deleted; replay must then either raise
ReportError or return checks, and if every check passes, the claimed
bounds must still hold for the known value.
"""

import copy
from functools import cache

from hypothesis import HealthCheck, given, settings, strategies as st

from murlab.engine import Budget, Certificate, MurResult, compute_mur, mur_spread
from murlab.graphs import complete_bipartite, cycle, p_prime, path, petersen
from murlab.report import ReportError, build_report, replay_report


# (graph, mur); P5 is the graph left by deleting vertex 0 of P6
KNOWN = [
    (p_prime(4), 3),
    (cycle(5), 2),
    (path(6), 4),
    (complete_bipartite(2, 3), 1),
    (petersen(), 4),
]
MUR_P5 = 3


@cache
def genuine_reports():
    """(whole mur, deleted-graph mur or None, report) for each known graph:
    with and without the family formulas, with weakened intervals, and P6
    with a spread at vertex 0."""
    docs = []
    for g, mur in KNOWN:
        for use_families in (True, False):
            res = compute_mur(g, Budget(), use_families=use_families)
            docs.append((mur, None, build_report(g, res, Budget(), 0.1)))
        # Weaker but still certified intervals, on which one changed bound
        # can cross mur and still leave the bounds ordered and the exact
        # flag consistent.
        for weak in (
            MurResult(0, Certificate("trivial"), res.upper, res.upper_cert),
            MurResult(res.lower, res.lower_cert, g.n - 2, Certificate("order_bound", {})),
        ):
            docs.append((mur, None, build_report(g, weak, Budget(), 0.1)))
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
    all pass claims bounds that hold."""
    try:
        checks = replay_report(doc)
    except ReportError:
        return
    if all(c.ok for c in checks):
        for result, value in claimed_results(doc, mur, deleted_mur):
            assert result["lower"] <= value <= result["upper"]


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
