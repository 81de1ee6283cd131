"""Regenerate the benchmark's stored inputs under perfbench/data.

    python3 perfbench/make_inputs.py atlas     # data/atlas7.txt (needs networkx)
    python3 perfbench/make_inputs.py reports   # data/reports.json (runs murlab)
    python3 perfbench/make_inputs.py strata    # data/strata.json (times murlab)

Run from the root of the repository.  The benchmark itself needs neither
networkx nor this script: it reads the files these commands write.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"


def make_atlas() -> None:
    """The 1044 seven-vertex graphs of networkx's atlas, in atlas order.

    Each line is ``index graph6 complement-index``, the indices counting
    seven-vertex graphs only.  No seven-vertex graph is self-complementary,
    so the complement indices pair the graphs up.
    """
    import networkx as nx

    graphs = [g for g in nx.graph_atlas_g() if g.number_of_nodes() == 7]
    assert len(graphs) == 1044
    keys = [_invariant(g) for g in graphs]
    comp = []
    for i, g in enumerate(graphs):
        h = nx.complement(g)
        key = _invariant(h)
        match = [j for j, k in enumerate(keys) if k == key and nx.is_isomorphic(h, graphs[j])]
        assert len(match) == 1, (i, match)
        comp.append(match[0])
    assert all(comp[comp[i]] == i != comp[i] for i in range(len(graphs)))
    lines = ["# index graph6 complement-index: seven-vertex graphs of networkx.graph_atlas_g()"]
    for i, g in enumerate(graphs):
        g6 = nx.to_graph6_bytes(g, header=False).decode().strip()
        lines.append(f"{i} {g6} {comp[i]}")
    (DATA / "atlas7.txt").write_text("\n".join(lines) + "\n")


def make_reports() -> None:
    """Genuine murlab-report/1 documents covering every certificate kind,
    and two malformed ones that replay must reject cleanly.

    The corpus reports are the first atlas graph (in atlas order) of each
    (lower kind, upper kind, exact) combination at the corpus budget, and
    every 25th atlas graph, so that replay times have no gap at their
    median; the
    algebraic ones pair a P'n lower bound with the rank at the first
    irrational Laplacian-shift point.  Every document is replayed here and
    must pass.
    """
    sys.path.insert(0, str(ROOT / "src"))
    from murlab import graphs
    from murlab.engine import Budget, Certificate, MurResult, compute_mur, mur_spread
    from murlab.engine import _refine_algebraic
    from murlab.graphs import parse_graph6
    from murlab.report import build_report, replay_report

    lean = Budget(grid_den=2, grid_num=2, random_points=30, algebraic=False)
    genuine = []

    def add(name, g, result, budget, spread=None):
        doc = build_report(g, result, budget, 0.0, spread=spread)
        assert all(c.ok for c in replay_report(doc)), name
        genuine.append({"name": name, "doc": doc})

    for name, g in [
        ("P6", graphs.path(6)),
        ("C7", graphs.cycle(7)),
        ("K5", graphs.complete(5)),
        ("petersen", graphs.petersen()),
        ("P'4", graphs.p_prime(4)),
        ("P'5", graphs.p_prime(5)),
        ("P'6", graphs.p_prime(6)),
        ("P'7", graphs.p_prime(7)),
    ]:
        add(name, g, compute_mur(g), Budget())
    for n in (4, 6, 8):
        g = graphs.p_prime(n)
        res = compute_mur(g)
        upper, ucert = _refine_algebraic(g, 0, g.n, Certificate("trivial"))
        assert "modulus" in ucert.data
        add(f"P'{n}-algebraic", g, MurResult(res.lower, res.lower_cert, upper, ucert), Budget())
    sp = mur_spread(graphs.path(5), 0)
    add("P5-spread-v0", graphs.path(5), sp.whole, Budget(), spread=sp)

    seen = set()
    for line in (DATA / "atlas7.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        index, g6, _ = line.split()
        g = parse_graph6(g6)
        res = compute_mur(g, lean)
        key = (res.lower_cert.kind, res.upper_cert.kind, res.exact)
        if key not in seen or int(index) % 25 == 0:
            seen.add(key)
            add(f"atlas7-{index}", g, res, lean)

    rational = next(
        r["doc"] for r in genuine
        if r["doc"]["upper_certificate"]["kind"] == "explicit_params"
        and "modulus" not in r["doc"]["upper_certificate"]["data"]
    )
    zero_den = json.loads(json.dumps(rational))
    zero_den["upper_certificate"]["data"]["beta"] = "1/0"
    malformed = [
        {"name": "format-only", "doc": {"format": "murlab-report/1"}},
        {"name": "zero-denominator-beta", "doc": zero_den},
    ]
    out = {"genuine": genuine, "malformed": malformed}
    (DATA / "reports.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


LEAN = {"grid_den": 2, "grid_num": 2, "random_points": 30, "algebraic": False}
BUDGETS = {"corpus7-lean": LEAN, "corpus7-default": {}}


def _measure_one(task: tuple[str, int, str]) -> dict:
    workload, index, g6 = task
    sys.path.insert(0, str(ROOT / "src"))
    from murlab.engine import Budget, compute_mur
    from murlab.graphs import parse_graph6

    g = parse_graph6(g6)
    start = time.perf_counter()
    res = compute_mur(g, Budget(**BUDGETS[workload]))
    return {"workload": workload, "i": index, "t": time.perf_counter() - start,
            "lo": res.lower, "up": res.upper,
            "lk": res.lower_cert.kind, "uk": res.upper_cert.kind}


def measure_corpus() -> list[dict]:
    """compute_mur on every atlas graph at both corpus budgets, one graph
    at a time in this process, so no second worker disturbs the times.
    A graph that takes under a second is timed three times and the fastest
    time kept, which sorts the blocks by cost rather than by noise (about
    40 minutes in all)."""
    out = []
    for workload in BUDGETS:
        for i, (g6, _) in enumerate(_atlas()):
            rec = _measure_one((workload, i, g6))
            if rec["t"] <= 1.0:
                rec = min([rec] + [_measure_one((workload, i, g6)) for _ in range(2)],
                          key=lambda r: r["t"])
            out.append(rec)
    return out


def _atlas() -> list[tuple[str, int]]:
    out = []
    for line in (DATA / "atlas7.txt").read_text().splitlines():
        if not line.startswith("#"):
            _, g6, comp = line.split()
            out.append((g6, int(comp)))
    return out


def _blocks(units: list, key, count: int) -> list[list]:
    units = sorted(units, key=key)
    return [units[len(units) * b // count:len(units) * (b + 1) // count] for b in range(count)]


def _stratify(units: list, cls, key, total: int) -> list[list]:
    """About ``total`` blocks: units grouped by ``cls``, each group cut by
    ``key`` into a number of blocks proportional to its size."""
    classes: dict = {}
    for u in units:
        classes.setdefault(cls(u), []).append(u)
    out = []
    for c in sorted(classes):
        out += _blocks(classes[c], key, max(1, round(total * len(classes[c]) / len(units))))
    return out


def build_strata(records: list[dict]) -> dict:
    """Blocks of the two corpus workloads from one measurement of each graph.

    A round draws one unit from every block (see README.md).
    corpus7-lean: complement pairs, classed by how many of the two graphs
    are exact and how many take less than the median graph time, cut by
    the slower graph's time.  corpus7-default: single
    graphs; the search-bound ones (over a second: the candidate stream ran
    to its end) that stay open, those that close in three time blocks, and
    the others in forty-eight blocks by time.
    """
    by = {(r["workload"], r["i"]): r for r in records}
    comp = [c for _, c in _atlas()]
    n = len(comp)

    lean = {i: by["corpus7-lean", i] for i in range(n)}
    median = statistics.median(r["t"] for r in lean.values())
    pairs = [[i, comp[i]] for i in range(n) if i < comp[i]]
    lean_blocks = _stratify(
        pairs,
        lambda p: (sum(lean[i]["lo"] == lean[i]["up"] for i in p),
                   sum(lean[i]["t"] < median for i in p)),
        lambda p: max(lean[i]["t"] for i in p),
        20,
    )

    dflt = {i: by["corpus7-default", i] for i in range(n)}
    slow = [[i] for i in range(n) if dflt[i]["t"] > 1.0]
    fast = [[i] for i in range(n) if dflt[i]["t"] <= 1.0]
    def time_of(unit):
        return dflt[unit[0]]["t"]

    default_blocks = (
        [[u for u in slow if dflt[u[0]]["lo"] < dflt[u[0]]["up"]]]
        + _blocks([u for u in slow if dflt[u[0]]["lo"] == dflt[u[0]]["up"]], time_of, 3)
        + _blocks(fast, time_of, 48)
    )
    return {
        "corpus7-lean": {"unit": "complement pair", "score_rounds": 2, "blocks": lean_blocks},
        "corpus7-default": {"unit": "graph", "score_rounds": 1, "blocks": default_blocks},
    }


def make_strata() -> None:
    strata = build_strata(measure_corpus())
    (DATA / "strata.json").write_text(json.dumps(strata, separators=(",", ":")) + "\n")


def _invariant(g) -> tuple:
    import networkx as nx

    return (
        g.number_of_edges(),
        tuple(sorted(d for _, d in g.degree())),
        tuple(sorted(nx.triangles(g).values())),
    )


def main(argv: list[str]) -> int:
    if argv[1:] == ["atlas"]:
        make_atlas()
    elif argv[1:] == ["reports"]:
        make_reports()
    elif argv[1:] == ["strata"]:
        make_strata()
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
