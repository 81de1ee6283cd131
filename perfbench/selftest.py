"""Show that every checker in checks.py can fail.

Each case feeds a checker a planted wrong output and requires at least one
error, next to a right output that must pass.  ``python3 perfbench/selftest.py``
prints the outcome; run.py runs the same cases before it measures, and a
checker that cannot fail makes the run incorrect.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction

import checks


@dataclass
class FakeCheck:
    name: str
    ok: bool
    message: str = ""


def _path(n: int) -> checks.Adjacency:
    return [[abs(i - j) == 1 for j in range(n)] for i in range(n)]


def _complete(n: int) -> checks.Adjacency:
    return [[i != j for j in range(n)] for i in range(n)]


def _point_cert(beta, gamma, delta, rank: int) -> dict:
    return {
        "kind": "explicit_params",
        "data": {"beta": beta, "gamma": gamma, "delta": delta, "rank": rank},
    }


# (checker, planted wrong call, right call)
CASES = [
    ("order: lower above upper",
     lambda: checks.check_order(7, 4, 3), lambda: checks.check_order(7, 3, 4)),
    ("order: upper above n-2",
     lambda: checks.check_order(7, 2, 6), lambda: checks.check_order(7, 2, 5)),
    # P3 at the Laplacian shift (1, -1/3, -1) has rank 1; the adjacency
    # point (0, 0, 0) has rank 2.
    ("upper point: claimed upper one too low",
     lambda: checks.check_upper_point(_path(3), 1, _point_cert("0", "0", "0", 1)),
     lambda: checks.check_upper_point(_path(3), 1, _point_cert("1", "-1/3", "-1", 1))),
    ("upper point: rank above the claimed upper",
     lambda: checks.check_upper_point(_path(3), 1, _point_cert("0", "0", "0", 2)),
     lambda: checks.check_upper_point(_path(3), 2, _point_cert("0", "0", "0", 2))),
    # K5 at (1, -1, 0) is the zero matrix.
    ("lower at points: rank below the lower bound",
     lambda: checks.check_lower_at(_complete(5), 1, [(Fraction(1), Fraction(-1), Fraction(0))]),
     lambda: checks.check_lower_at(_complete(5), 0, [(Fraction(1), Fraction(-1), Fraction(0))])),
    ("complement pair: disjoint intervals",
     lambda: checks.check_complement_pair((1, 2), (3, 4)),
     lambda: checks.check_complement_pair((1, 3), (3, 4))),
    ("paper value: P7 not exact at 5",
     lambda: checks.check_paper_value(_path(7), 4, 5),
     lambda: checks.check_paper_value(_path(7), 5, 5)),
    ("paper value: K5 not exact at 0",
     lambda: checks.check_paper_value(_complete(5), 0, 1),
     lambda: checks.check_paper_value(_complete(5), 0, 0)),
    ("replay: tampered report replays PASS",
     lambda: checks.replay_verdict([FakeCheck("lower certificate", True)], expect_pass=False),
     lambda: checks.replay_verdict([FakeCheck("lower certificate", False)], expect_pass=False)),
    ("replay: genuine report FAILs",
     lambda: checks.replay_verdict([FakeCheck("upper certificate", False)], expect_pass=True),
     lambda: checks.replay_verdict([FakeCheck("upper certificate", True)], expect_pass=True)),
]


def run() -> list[str]:
    """Names of the cases where a checker missed a planted error or
    rejected a right output."""
    bad = []
    for name, wrong, right in CASES:
        if not wrong():
            bad.append(f"{name}: planted error not caught")
        if right():
            bad.append(f"{name}: right output rejected")
    return bad


if __name__ == "__main__":
    problems = run()
    for name, _, _ in CASES:
        print(f"{'FAIL' if any(p.startswith(name) for p in problems) else 'ok  '}  {name}")
    sys.exit(1 if problems else 0)
