"""Named replayable constructions with pinned expected outcomes.

Each fixture rebuilds an explicit matrix (rational or algebraic) from
scratch and checks its rank, and replays any lower-bound certificate it
pins, so a passing report certifies the claimed bounds independently of
the search pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import graphs
from .algebraic import AlgebraicContext
from .engine import (
    Certificate,
    ParamPoint,
    minors_combination,
    search_lines,
    universal_matrix,
)
from .matrices import rank_algebraic, rank_rational
from .polynomials import Poly
from .report import _parse_point, _replay_lower


@dataclass
class FixtureReport:
    name: str
    passed: bool
    details: list[str]

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        body = "; ".join(self.details)
        return f"[{status}] {self.name}: {body}"


def _pprime8_golden() -> FixtureReport:
    # Rank-6 matrix for the 9-vertex near-path, with the parameter living in
    # Q[x]/(x^2 - x - 1): delta = theta, beta = -theta, gamma = 1/(3*theta - 5).
    g = graphs.p_prime(8)
    ctx = AlgebraicContext(Poly((-1, -1, 1)))
    theta = ctx.generator()
    p = ParamPoint(-theta, (theta * 3 - 5).inverse(), theta)
    branches = rank_algebraic(universal_matrix(g, p), ctx)
    details = [f"branch {b!r} rank {r}" for b, r in branches]
    return FixtureReport("pprime8-golden", all(r == 6 for _, r in branches), details)


def _pprime10_heptagon() -> FixtureReport:
    # Rank-8 matrix for the 11-vertex near-path over Q[x]/(x^3 - x^2 - 2x + 1)
    # (the minimal polynomial of -2*cos(2*pi/7) and its conjugates):
    # delta = theta, beta = -theta, gamma = -1/(theta^2 - 5*theta + 6).
    g = graphs.p_prime(10)
    ctx = AlgebraicContext(Poly((1, -2, -1, 1)))
    theta = ctx.generator()
    gamma = -((theta * theta - theta * 5 + 6).inverse())
    p = ParamPoint(-theta, gamma, theta)
    branches = rank_algebraic(universal_matrix(g, p), ctx)
    details = [f"branch {b!r} rank {r}" for b, r in branches]
    return FixtureReport("pprime10-heptagon", all(r == 8 for _, r in branches), details)


PATH3_SHIFT_POINT = ParamPoint.rational(1, Fraction(-1, 3), -1)
PATH3_SHIFT_MATRIX = [
    [Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)],
    [Fraction(2, 3), Fraction(-4, 3), Fraction(2, 3)],
    [Fraction(-1, 3), Fraction(2, 3), Fraction(-1, 3)],
]


def _path_laplacian_shift() -> FixtureReport:
    g = graphs.path(3)
    m = universal_matrix(g, PATH3_SHIFT_POINT)
    details = []
    ok = True
    if m != PATH3_SHIFT_MATRIX:
        ok = False
        details.append("matrix mismatch")
    r = rank_rational(m)
    details.append(f"rank {r}")
    return FixtureReport("path-laplacian-shift", ok and r == 1, details)


def _generalized_star() -> FixtureReport:
    # The 5-vertex tree with degree sequence 1,1,1,2,3.  Its 3x3 minors
    # combine to 1, so no parameters give rank 2; the fixture replays that
    # certificate, and rebuilds the matrix at the point where the default
    # search reaches rank 3 and checks its rank.
    g = graphs.p_prime(4)
    cert = minors_combination(g, 3)
    if cert is None:
        lower, msg = None, "no minors certificate found"
    else:
        lower, msg = _replay_lower(g, {"kind": cert.kind, "data": cert.data})
    details = [f"replayed lower bound {lower} {msg}".rstrip()]
    _, found = search_lines(g, 3, g.n, Certificate("trivial"))
    best, point = g.n, "no point"
    if found.kind == "explicit_params":
        p = _parse_point(found.data)
        best = rank_rational(universal_matrix(g, p))
        point = f"(beta={p.beta}, gamma={p.gamma}, delta={p.delta})"
    details.append(f"rank {best} at {point}")
    return FixtureReport("generalized-star", lower == 3 and best == 3, details)


_FIXTURES = {
    "pprime8-golden": _pprime8_golden,
    "pprime10-heptagon": _pprime10_heptagon,
    "path-laplacian-shift": _path_laplacian_shift,
    "generalized-star": _generalized_star,
}

FIXTURE_NAMES = sorted(_FIXTURES)


def verify_fixture(name: str) -> FixtureReport:
    if name not in _FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}")
    return _FIXTURES[name]()
