"""Per-layer spans recorded by wrapping murlab's public functions from outside.

``Tracer.install`` replaces each named function (or method) with a wrapper
in every loaded ``murlab`` module that holds it, so calls made through
``from .matrices import charpoly`` style imports are seen too.  Each call
records one span (name, operation id, parent span, start, end); a
generator function records one span per item it yields.  Spans are kept
in flat arrays and reduced to per-name calls, total and self time at the
end.  Nothing is installed unless the benchmark runs with ``--trace 1``.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from inspect import isgeneratorfunction

# (module, attribute) pairs; an attribute "Class.method" wraps a method.
TARGETS = [
    ("engine", "compute_mur"),
    ("engine", "mur_lower"),
    ("engine", "structural_upper"),
    ("engine", "family_mur"),
    ("engine", "regular_mur"),
    ("engine", "minors_combination"),
    ("engine", "minor_matrices"),
    ("engine", "candidate_params"),
    ("engine", "algebraic_eigen_candidates"),
    ("engine", "universal_matrix"),
    ("engine", "laplacian"),
    ("matrices", "rank_rational"),
    ("matrices", "det_int"),
    ("matrices", "solve_int"),
    ("matrices", "charpoly"),
    ("matrices", "rank_algebraic"),
    ("polynomials", "squarefree_decomposition"),
    ("polynomials", "rational_roots"),
    ("polynomials", "root_multiplicity"),
    ("families", "recognize_family"),
    ("pathsearch", "best_induced_path_forest"),
    ("pathsearch", "validate_path_forest"),
    ("graphs", "Graph.complement"),
    ("graphs", "components"),
    ("graphs", "diameter"),
    ("report", "build_report"),
    ("report", "replay_report"),
    ("fixtures", "verify_fixture"),
    ("verify", "run_suite"),
]

# Calls whose result is None when the stage found nothing.
CERTIFYING = {"engine.minors_combination"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.op = -1
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []

    def install(self) -> None:
        """Wrap every target that exists; record the others as absent."""
        for modname, attr in TARGETS:
            name = f"{modname}.{attr}"
            module = sys.modules.get(f"murlab.{modname}")
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner_name:
                setattr(owner, leaf, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("murlab"):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_op.append(self.op)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        counts = self.counts
        if isgeneratorfunction(fn):
            def generator_wrapper(*args, **kwargs):
                counts[name + ".invocations"] += 1
                inner = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[name + ".yielded"] += 1
                    yield item

            return generator_wrapper
        certifying = name in CERTIFYING

        def wrapper(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if certifying and result is not None:
                counts[name + ".certified"] += 1
            return result

        return wrapper

    def layers(self) -> dict[str, dict[str, float]]:
        """Per name: calls, total seconds and self seconds (children removed)."""
        n = len(self.span_start)
        child = [0] * n
        dur = [0] * n
        for i in range(n):
            d = self.span_end[i] - self.span_start[i]
            dur[i] = d
            p = self.span_parent[i]
            if p >= 0:
                child[p] += d
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            rec = out[self.names[self.span_name[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i] / 1e9
            rec["self_s"] += (dur[i] - child[i]) / 1e9
        return out
