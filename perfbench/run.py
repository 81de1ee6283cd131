"""The murlab benchmark: one workload, one process, one thread, closed loop.

    python3 perfbench/run.py --workload corpus7-lean --seed 1 --seconds 25 --trace 0

Run from the root of a murlab checkout; the package is imported from
``src/``.  Each operation starts when the previous one ends.  The run
executes whole rounds of operations (see README.md for their make-up)
until the next round would end after ``--seconds``, and always at least
the workload's scored rounds.  Every output is checked with checks.py.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` the first round runs once untraced and once more with
spans.py's wrappers installed, and the per-name span table is written to
``.perfbench-out/``; the untraced run installs no wrapper.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import selftest
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = HERE / "data"
OUT = ROOT / ".perfbench-out"
SETUPS = 11
# Host-speed probe.  The sandbox's speed swings by a quarter and more within
# minutes, because neighbours share its cores, so every time is scaled by a
# fixed exact elimination timed next to it: a time t next to a probe taking
# p is reported as t * PROBE_REF_S / p, the time on a host where the probe
# takes PROBE_REF_S.  Raw times are printed on a line before the result.
PROBE = [[Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(8)] for i in range(8)]
PROBE_REF_S = 0.002
PROBE_EVERY_S = 0.02

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "exact_graphs": "count",
    "lower_bound_sum": "count",
    "upper_bound_sum": "count",
}


class BenchError(Exception):
    """The checkout cannot be benchmarked (no murlab source, no inputs)."""


# ---------------------------------------------------------------------------
# set-up


@dataclass
class Env:
    murlab: object
    verify: object
    report: object
    atlas: list  # (graph6, Graph, complement index) by atlas index
    reports: dict


def set_up() -> Env:
    """Import murlab afresh, load the atlas and the replay reports."""
    if not (SRC / "murlab" / "__init__.py").is_file():
        raise BenchError(f"no murlab package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "murlab" or m.startswith("murlab.")]:
        del sys.modules[name]
    murlab = importlib.import_module("murlab")
    verify = importlib.import_module("murlab.verify")
    atlas = []
    for line in (DATA / "atlas7.txt").read_text().splitlines():
        if line.startswith("#"):
            continue
        _, g6, comp = line.split()
        atlas.append((g6, murlab.parse_graph6(g6), int(comp)))
    reports = json.loads((DATA / "reports.json").read_text())
    return Env(murlab, verify, sys.modules["murlab.report"], atlas, reports)


# ---------------------------------------------------------------------------
# operations and rounds


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Round:
    ops: list[Op]
    # Checks across the outputs of one round, None for a failed operation.
    finish: Callable[[list], list[str]] = field(default=lambda outputs: [])


class Corpus:
    """compute_mur then build_report on atlas graphs drawn from strata.

    Round r takes one unit (a graph, or a complement pair) from every block
    of data/strata.json: the r-th unit of the block's seeded shuffle.
    """

    def __init__(self, env: Env, seed: int, name: str, budget_fields: dict):
        spec = json.loads((DATA / "strata.json").read_text())[name]
        self.env, self.seed = env, seed
        self.budget = env.murlab.Budget(**budget_fields)
        self.score_rounds = spec["score_rounds"]
        self.blocks = []
        for b, block in enumerate(spec["blocks"]):
            block = list(block)
            random.Random(f"{name}:{seed}:{b}").shuffle(block)
            self.blocks.append(block)
        self.adj = {}
        self.input_errors = []

    def round(self, r: int) -> Round:
        units = [block[r % len(block)] for block in self.blocks]
        ops = [Op(f"atlas7-{i}", self._op(i), self._check(i, r)) for unit in units for i in unit]

        def finish(outputs: list) -> list[str]:
            errors, k = [], 0
            for unit in units:
                docs = outputs[k:k + len(unit)]
                k += len(unit)
                if len(unit) == 2 and None not in docs:
                    a, b = (d["result"] for d in docs)
                    errors += checks.check_complement_pair(
                        (a["lower"], a["upper"]), (b["lower"], b["upper"]))
            return errors

        return Round(ops, finish)

    def _op(self, i: int):
        g, murlab, budget = self.env.atlas[i][1], self.env.murlab, self.budget

        def run():
            start = time.perf_counter()
            res = murlab.compute_mur(g, budget)
            return murlab.build_report(g, res, budget, time.perf_counter() - start)

        return run

    def _check(self, i: int, r: int):
        g6, g, _ = self.env.atlas[i]

        def check(doc) -> list[str]:
            if i not in self.adj:
                self.adj[i] = checks.adjacency(g)
            errors = checks.check_result(self.adj[i], doc, random.Random(f"{self.seed}:{r}:{i}"))
            if doc["graph"]["graph6"] != g6:
                errors.append(f"report describes {doc['graph']['graph6']}, not {g6}")
            return errors

        return check

    def score(self, outputs: list) -> dict:
        results = [doc["result"] for doc in outputs if doc is not None]
        return {
            "exact_graphs": sum(1 for res in results if res["exact"]),
            "lower_bound_sum": sum(res["lower"] for res in results),
            "upper_bound_sum": sum(res["upper"] for res in results),
        }


def _flags(res: dict) -> None:
    res["exact"] = res["lower"] == res["upper"]
    res["value"] = res["lower"] if res["exact"] else None


def _tamper(doc: dict, kind: str, rng: random.Random) -> dict:
    """A copy of a genuine report that replay must FAIL.

    Each kind breaks one claim so that the certificate, the descriptor or
    the flags can no longer support it; claimed bounds that are merely
    weakened (a lower lowered, an upper raised) keep the rest consistent.
    """
    doc = json.loads(json.dumps(doc))
    res, low, up = doc["result"], doc["lower_certificate"], doc["upper_certificate"]
    if kind == "lower_past_certificate":
        res["lower"] += 1
        res["upper"] = max(res["upper"], res["lower"])
    elif kind == "upper_below_certificate":
        res["upper"] -= 1
        res["lower"] = min(res["lower"], res["upper"])
    elif kind == "exactness_flag":
        res["exact"] = not res["exact"]
        return doc
    elif kind == "descriptor_edge":
        edges = doc["graph"]["edges"]
        edges.pop(rng.randrange(len(edges)))
        return doc
    elif kind == "minor_weight":
        minor = rng.choice(low["data"]["minors"])
        minor["weight"] = str(Fraction(minor["weight"]) + rng.choice((-1, 1)))
        return doc
    elif kind == "path_forest_bound":
        low["data"]["bound"] += 1
        res["lower"] += 1
        res["upper"] = max(res["upper"], res["lower"])
    elif kind == "upper_rank":
        up["data"]["rank"] -= 1
        res["upper"] = min(res["upper"], up["data"]["rank"])
        res["lower"] = min(res["lower"], res["upper"])
    elif kind == "laplacian_multiplicity":
        up["data"]["multiplicity"] += 1
        res["upper"] -= 1
        res["lower"] = min(res["lower"], res["upper"])
    elif kind == "family_value":
        cert = rng.choice([c for c in (low, up) if c["kind"] == "family_formula"])
        cert["data"]["value"] += rng.choice((-1, 1))
    else:
        raise ValueError(kind)
    _flags(res)
    return doc


def _tamper_kinds(doc: dict) -> list[str]:
    """The tamper kinds that apply to a report: its certificates' own, then
    the generic ones."""
    res, low, up = doc["result"], doc["lower_certificate"], doc["upper_certificate"]
    specific = []
    if low["kind"] == "minor_combination":
        specific.append("minor_weight")
    if low["kind"] == "path_forest":
        specific.append("path_forest_bound")
    if up["kind"] == "explicit_params" and up["data"]["rank"] >= 1:
        specific.append("upper_rank")
    if up["kind"] == "laplacian_multiplicity" and res["upper"] >= 1:
        specific.append("laplacian_multiplicity")
    if "family_formula" in (low["kind"], up["kind"]):
        specific.append("family_value")
    generic = ["lower_past_certificate", "exactness_flag"]
    if res["upper"] >= 1:
        generic.append("upper_below_certificate")
    if doc["graph"]["edges"]:
        generic.append("descriptor_edge")
    return specific + generic


class Replay:
    """parse_report then replay_report on stored documents.

    One round: every genuine report (must PASS), one tampered copy of it
    for every tamper kind that applies (must FAIL; the seed picks which
    minor, edge or sign), and the malformed documents (must be rejected
    without an exception).  Every round repeats the same documents.
    """

    score_rounds = 1

    def __init__(self, env: Env, seed: int):
        self.env = env
        rng = random.Random(f"replay:{seed}")
        self.items = []  # (label, json text, expectation)
        self.input_errors = []
        for entry in env.reports["genuine"]:
            name, doc = entry["name"], entry["doc"]
            self.items.append((name, json.dumps(doc), "pass"))
            for kind in _tamper_kinds(doc):
                self.items.append((f"{name}/{kind}", json.dumps(_tamper(doc, kind, rng)), "fail"))
            g = env.murlab.parse_graph6(doc["graph"]["graph6"])
            errors = checks.check_result(checks.adjacency(g), doc, rng)
            self.input_errors += [f"{name}: {e}" for e in errors]
        for entry in env.reports["malformed"]:
            self.items.append((entry["name"], json.dumps(entry["doc"]), "reject"))

    def round(self, r: int) -> Round:
        return Round([Op(label, self._op(text), self._check(expect))
                      for label, text, expect in self.items])

    def _op(self, text: str):
        report = self.env.report

        def run():
            try:
                return report.replay_report(report.parse_report(text))
            except report.ReportError:
                return "rejected"

        return run

    @staticmethod
    def _check(expect: str):
        def check(out) -> list[str]:
            if out == "rejected":
                return ["genuine report rejected"] if expect == "pass" else []
            return checks.replay_verdict(out, expect_pass=expect == "pass")

        return check

    def score(self, outputs: list) -> dict:
        claims = [
            json.loads(text)["result"]
            for (_, text, expect), out in zip(self.items, outputs)
            if expect == "pass" and out not in (None, "rejected") and all(c.ok for c in out)
        ]
        return {
            "exact_graphs": sum(1 for res in claims if res["exact"]),
            "lower_bound_sum": sum(res["lower"] for res in claims),
            "upper_bound_sum": sum(res["upper"] for res in claims),
        }


class Suites:
    """One operation per verify suite; every check of every suite must pass.

    The bound metrics count the families suite's cases: each passing case
    certifies the exact value that verify.family_checks pins.
    """

    NAMES = ("families", "pprime", "union-lower", "spread-bounds", "complements")
    score_rounds = 1

    def __init__(self, env: Env, seed: int):
        self.env, self.seed = env, seed
        self.input_errors = []

    def round(self, r: int) -> Round:
        run_suite = self.env.verify.run_suite
        ops = [Op(name, (lambda name=name: run_suite(name, seed=self.seed)), self._check)
               for name in self.NAMES]
        return Round(ops)

    @staticmethod
    def _check(results) -> list[str]:
        if not results:
            return ["suite returned no checks"]
        return [f"{name}: {msg}" for name, ok, msg in results if not ok]

    def score(self, outputs: list) -> dict:
        families = outputs[self.NAMES.index("families")] or []
        wants = [want for (_, _, want), (_, ok, _) in
                 zip(self.env.verify.family_checks(), families) if ok]
        return {
            "exact_graphs": len(wants),
            "lower_bound_sum": sum(wants),
            "upper_bound_sum": sum(wants),
        }


LEAN = {"grid_den": 2, "grid_num": 2, "random_points": 30, "algebraic": False}

WORKLOADS = {
    "corpus7-lean": lambda env, seed: Corpus(env, seed, "corpus7-lean", LEAN),
    "corpus7-default": lambda env, seed: Corpus(env, seed, "corpus7-default", {}),
    "replay": Replay,
    "suites": Suites,
}


# ---------------------------------------------------------------------------
# measuring


@dataclass
class Tally:
    durations: list = field(default_factory=list)
    failed: int = 0
    errors: list = field(default_factory=list)
    scored: list = field(default_factory=list)
    busy_s: float = 0.0
    reported: set = field(default_factory=set)
    scaled: list = field(default_factory=list)
    probes: list = field(default_factory=list)


def probe() -> float:
    """Seconds this host takes, right now, for a fixed exact elimination."""
    start = time.perf_counter()
    checks.rank(PROBE)
    checks.rank(PROBE)
    return time.perf_counter() - start


def run_round(rnd: Round, tally: Tally, keep: bool, tracer: Tracer | None = None) -> None:
    outputs = []
    pending = []
    before = probe()
    tally.probes.append(before)
    for n, op in enumerate(rnd.ops):
        if tracer is not None:
            tracer.op = len(tally.durations)
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an operation that raises counts as failed
            out = None
            tally.failed += 1
            if op.label not in tally.reported:
                tally.reported.add(op.label)
                print(f"failed: {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
        tally.durations.append(elapsed)
        tally.busy_s += elapsed
        pending.append(elapsed)
        if sum(pending) >= PROBE_EVERY_S or n == len(rnd.ops) - 1:
            after = probe()
            tally.probes.append(after)
            factor = PROBE_REF_S / ((before + after) / 2)
            tally.scaled += [d * factor for d in pending]
            pending, before = [], after
        if out is not None:
            tally.errors += [f"{op.label}: {e}" for e in op.check(out)]
        outputs.append(out)
    tally.errors += rnd.finish(outputs)
    if keep:
        tally.scored += outputs


def measure(workload, seconds: float) -> Tally:
    """Whole rounds until the next one would end after ``seconds``."""
    tally = Tally()
    start = time.perf_counter()
    r = 0
    while True:
        run_round(workload.round(r), tally, keep=r < workload.score_rounds)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= workload.score_rounds and elapsed * (r + 1) / r > seconds:
            return tally


def layer_metrics(layers: dict, counts, ops: int, overhead: float) -> dict:

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def us_per_call(name):
        n = calls(name)
        return layers[name]["total_s"] * 1e6 / n if n else 0.0

    mc = "engine.minors_combination"
    out = {
        "engine.mur_lower.self_s": (self_s("engine.mur_lower"), "s"),
        "engine.structural_upper.self_s": (self_s("engine.structural_upper"), "s"),
        f"{mc}.calls": (calls(mc), "count"),
        f"{mc}.self_s": (self_s(mc), "s"),
        f"{mc}.certified": (counts[mc + ".certified"], "count"),
        f"{mc}.hit_ratio": (counts[mc + ".certified"] / calls(mc) if calls(mc) else 0.0, "ratio"),
        "engine.candidate_params.points": (counts["engine.candidate_params.yielded"], "count"),
        "engine.universal_matrix.calls": (calls("engine.universal_matrix"), "count"),
        "engine.universal_matrix.us_per_call": (us_per_call("engine.universal_matrix"), "us"),
        "engine.algebraic_eigen_candidates.calls":
            (counts["engine.algebraic_eigen_candidates.invocations"], "count"),
        "matrices.rank_rational.calls": (calls("matrices.rank_rational"), "count"),
        "matrices.rank_rational.us_per_call": (us_per_call("matrices.rank_rational"), "us"),
        "matrices.det_int.calls": (calls("matrices.det_int"), "count"),
        "matrices.det_int.us_per_call": (us_per_call("matrices.det_int"), "us"),
        "matrices.charpoly.calls": (calls("matrices.charpoly"), "count"),
        "matrices.charpoly.us_per_call": (us_per_call("matrices.charpoly"), "us"),
        "matrices.charpoly.self_s": (self_s("matrices.charpoly"), "s"),
        "matrices.rank_algebraic.self_s": (self_s("matrices.rank_algebraic"), "s"),
        "matrices.solve_int.calls": (calls("matrices.solve_int"), "count"),
        "polynomials.squarefree_decomposition.self_s":
            (self_s("polynomials.squarefree_decomposition"), "s"),
        "polynomials.rational_roots.self_s": (self_s("polynomials.rational_roots"), "s"),
        "families.recognize_family.calls_per_graph":
            (calls("families.recognize_family") / ops, "count"),
        "families.recognize_family.us_per_call": (us_per_call("families.recognize_family"), "us"),
        "pathsearch.best_induced_path_forest.calls":
            (calls("pathsearch.best_induced_path_forest"), "count"),
        "pathsearch.best_induced_path_forest.us_per_call":
            (us_per_call("pathsearch.best_induced_path_forest"), "us"),
        "pathsearch.validate_path_forest.calls": (calls("pathsearch.validate_path_forest"), "count"),
        "graphs.Graph.complement.calls_per_graph": (calls("graphs.Graph.complement") / ops, "count"),
        "graphs.diameter.calls": (calls("graphs.diameter"), "count"),
        "report.replay_report.self_s": (self_s("report.replay_report"), "s"),
        "report.build_report.self_s": (self_s("report.build_report"), "s"),
        "fixtures.verify_fixture.self_s": (self_s("fixtures.verify_fixture"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        setup_times, setup_scaled = [], []
        for _ in range(SETUPS):
            before = probe()
            start = time.perf_counter()
            env = set_up()
            setup_times.append(time.perf_counter() - start)
            setup_scaled.append(setup_times[-1] * PROBE_REF_S * 2 / (before + probe()))
        workload = WORKLOADS[args.workload](env, args.seed)
    except (BenchError, OSError, ImportError, KeyError, ValueError) as exc:
        print(f"error: cannot set up the benchmark: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    errors = [f"checker selftest: {p}" for p in selftest.run()] + workload.input_errors
    if args.trace:
        untraced = Tally()
        run_round(workload.round(0), untraced, keep=False)
        tracer = Tracer()
        tracer.install()
        tally = Tally()
        run_round(workload.round(0), tally, keep=False, tracer=tracer)
        tally.errors += untraced.errors
        if tracer.absent:
            print(f"absent: {' '.join(tracer.absent)}", file=sys.stderr)
        layers = tracer.layers()
        overhead = sum(tally.scaled) / sum(untraced.scaled)
        layer = layer_metrics(layers, tracer.counts, len(tally.durations), overhead)
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layer.items()}
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps({
            "operations": len(tally.durations), "spans": len(tracer.span_start),
            "layers": layers, "counts": tracer.counts, "absent": tracer.absent,
        }, indent=1, sort_keys=True) + "\n")
    else:
        tally = measure(workload, args.seconds)
        values = {
            "setup_s": statistics.median(setup_scaled),
            "ops_per_s": len(tally.scaled) / sum(tally.scaled),
            "op_p50_ms": statistics.median(tally.scaled) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            **workload.score(tally.scored),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(f"raw: setup_s {statistics.median(setup_times):.4f} "
              f"ops_per_s {len(tally.durations) / tally.busy_s:.4f} "
              f"op_p50_ms {statistics.median(tally.durations) * 1e3:.4f} "
              f"probe_ms {statistics.median(tally.probes) * 1e3:.4f}")
        ops = len(tally.durations)
        if ops >= 200:
            p95 = statistics.quantiles(tally.scaled, n=20)[-1] * 1e3
            print(f"op_p95_ms {p95:.4f} over {ops} operations")
    errors += tally.errors
    for e in errors[:20]:
        print(f"incorrect: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": len(tally.durations),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
