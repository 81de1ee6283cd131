"""One fraction-free elimination for rank and determinant, and one sparse
integer solve for every square system: the minor weights, the pivot
inverses of ``rank_algebraic`` and the delta-line drop points.

The Bareiss loops and the two-pass drop point are kept here verbatim as
references (with the matrix helpers they called renamed); the Bareiss solve
that the sparse solve replaced is ``helpers.reference_solve_int``.
"""

import inspect
import random
import textwrap
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from murlab import engine, matrices
from murlab.engine import (
    ParamPoint, _delta_lines, _drop_point, _line_eigenvalues, compute_mur,
    integer_universal_matrix,
)
from murlab.graphs import cycle
from murlab.matrices import _eliminate, det_int, rank_rational, solve_int
from murlab.verify import _random_graph, family_checks
from helpers import assert_solves, atlas7, reference_solve_int


def reference_bareiss_pivots(rows: list[list[int]]) -> list[int]:
    """Pivot columns of an integer matrix, eliminated in place."""
    nr, nc = len(rows), len(rows[0]) if rows else 0
    r = 0
    prev = 1
    pivots = []
    for c in range(nc):
        if r == nr:
            break
        piv_row = None
        for i in range(r, nr):
            if rows[i][c] != 0:
                piv_row = i
                break
        if piv_row is None:
            continue
        if piv_row != r:
            rows[r], rows[piv_row] = rows[piv_row], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            head = rows[i][c]
            for j in range(c + 1, nc):
                num = piv * rows[i][j] - head * rows[r][j]
                q, rem = divmod(num, prev)
                assert rem == 0, "fraction-free step not exact"
                rows[i][j] = q
            rows[i][c] = 0
        prev = piv
        pivots.append(c)
        r += 1
    return pivots


def reference_det_int(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    a = [list(row) for row in rows]
    n = len(a)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for c in range(n - 1):
        if a[c][c] == 0:
            for i in range(c + 1, n):
                if a[i][c] != 0:
                    a[c], a[i] = a[i], a[c]
                    sign = -sign
                    break
            else:
                return 0
        piv, top = a[c][c], a[c]
        for i in range(c + 1, n):
            row = a[i]
            head = row[c]
            for j in range(c + 1, n):
                row[j] = (piv * row[j] - head * top[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def reference_drop_point(m: list[list[int]], mu: int, delta: Fraction) -> ParamPoint:
    """The point of lowest rank with beta = -mu/s on the line of delta,
    solved on the principal block of a column basis of B."""
    s = delta.denominator
    b = [[x - mu if i == j else x for j, x in enumerate(row)] for i, row in enumerate(m)]
    cols = reference_bareiss_pivots([list(row) for row in b])  # b = s * B
    y, den = reference_solve_int([[b[i][j] for j in cols] for i in cols], [1] * len(cols))
    gamma = Fraction(0)
    # y / den on cols and zero elsewhere solves b x = 1 if every row agrees;
    # then B (s x) = 1.
    if all(sum(row[j] * v for j, v in zip(cols, y)) == den for row in b) and sum(y):
        gamma = Fraction(-den, s * sum(y))
    return ParamPoint(Fraction(-mu, s), gamma, delta)


def rationals(y, den):
    return [Fraction(v, den) for v in y]


def same_solution(got, want):
    """solve_int's answer is the reference's in lowest terms, den > 0."""
    if got is None or want is None:
        return got is want
    return got[1] > 0 and gcd(got[1], *got[0]) == 1 and rationals(*got) == rationals(*want)


def assert_solve_contract(a, b):
    """On a nonsingular a, solve_int's answer is the Bareiss solve's; on a
    singular one, it is a verified solution exactly when a x = b is
    consistent, and None otherwise."""
    want = reference_solve_int(a, b)
    if want is None:
        assert_solves(a, b, solve_int(a, b))
    else:
        assert same_solution(solve_int(a, b), want)


entries = st.one_of(st.just(0), st.integers(-9, 9))


@st.composite
def int_matrices(draw, square=False):
    """Integer matrices up to 8 x 8, some with a row that combines others."""
    nr = draw(st.integers(0, 8))
    nc = nr if square else draw(st.integers(0, 8))
    m = draw(st.lists(st.lists(entries, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    if nr >= 2 and draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=nr - 1, max_size=nr - 1))
        m[draw(st.integers(0, nr - 1))] = [
            sum(c * row[j] for c, row in zip(coeffs, m)) for j in range(nc)
        ]
    return m


@settings(max_examples=300)
@given(int_matrices())
def test_pivots_and_rank_match_the_reference(m):
    want = reference_bareiss_pivots([list(row) for row in m])
    rows = [list(row) for row in m]
    assert _eliminate(rows)[0] == want
    assert rank_rational(m) == len(want)
    # the rows without a pivot are left zero
    assert not any(x for row in rows[len(want):] for x in row)


@settings(max_examples=300)
@given(int_matrices(square=True), st.data())
def test_determinant_and_solve_match_the_reference(m, data):
    n = len(m)
    assert det_int(m) == reference_det_int(m)
    b = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    assert_solve_contract(m, b)


@settings(max_examples=300)
@given(int_matrices(), st.data())
def test_rectangular_systems(m, data):
    # a x = b padded to a square system, by zero rows with a zero right-hand
    # side or by zero columns for free unknowns, has the same solutions
    nr, nc = len(m), len(m[0]) if m else 0
    b = data.draw(st.lists(st.integers(-9, 9), min_size=nr, max_size=nr))
    n = max(nr, nc)
    a = [[*row, *[0] * (n - nc)] for row in m] + [[0] * n] * (n - nr)
    got = solve_int(a, [*b, *[0] * (n - nr)])
    assert_solves(m, b, None if got is None else (got[0][:nc], got[1]))
    assert got is None or not any(got[0][nc:])


@st.composite
def square_systems(draw):
    """(a, b) up to 12 x 12: dense, sparse (at least half zeros), or with a
    row planted as a combination of the others, entries up to 10 bits."""
    n = draw(st.integers(0, 12))
    shape = draw(st.sampled_from(["dense", "sparse", "singular"]))
    size = draw(st.sampled_from([3, 9, 1000]))
    entry = st.integers(-size, size)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if shape == "sparse":
        zeros = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
        for i in draw(st.permutations(range(n * n)))[: (n * n + 1) // 2]:
            zeros[i] = True
        a = [[0 if zeros[i * n + j] else x for j, x in enumerate(row)] for i, row in enumerate(a)]
    elif shape == "singular" and n:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
        rows = [row for i, row in enumerate(a) if i != n - 1]
        a[draw(st.integers(0, n - 1))] = [
            sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)
        ]
    return a, draw(st.lists(entry, min_size=n, max_size=n))


@settings(max_examples=400)
@given(square_systems())
def test_solve_matches_the_bareiss_solve(system):
    a, b = system
    assert_solve_contract(a, b)


@st.composite
def singular_systems(draw):
    """(a, b) up to 12 x 12 with 1 to n planted rows that combine the
    others, and b either a x0 for an integer x0 (consistent) or drawn
    freely (most often off the column space)."""
    n = draw(st.integers(1, 12))
    size = draw(st.sampled_from([3, 9, 1000]))
    entry = st.integers(-size, size)
    a = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    planted = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    for i in planted:
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        a[i] = [sum(c * row[j] for c, row in zip(coeffs, a) if row is not a[i]) for j in range(n)]
    if draw(st.booleans()):
        x0 = draw(st.lists(entry, min_size=n, max_size=n))
        b = [sum(u * v for u, v in zip(row, x0)) for row in a]
    else:
        b = draw(st.lists(entry, min_size=n, max_size=n))
    return a, b


@settings(max_examples=400)
@given(singular_systems())
def test_singular_systems_solve_exactly_when_consistent(system):
    a, b = system
    assert det_int(a) == 0
    assert_solves(a, b, solve_int(a, b))


def test_singular_examples():
    # a free unknown is set to 0; a leftover row with a nonzero right-hand
    # side has no solution
    assert solve_int([[1, 2], [2, 4]], [3, 6]) == ([3, 0], 1)
    assert solve_int([[1, 2], [2, 4]], [3, 5]) is None
    assert solve_int([[0, 0], [0, 2]], [0, 1]) == ([0, 1], 2)
    assert solve_int([[0, 0], [0, 0]], [0, 0]) == ([0, 0], 1)
    assert solve_int([[0]], [1]) is None


def test_the_empty_system():
    assert solve_int([], []) == ([], 1)


def test_solve_on_every_weight_system(monkeypatch):
    # Every minor-weight system compute_mur meets on every 5th atlas graph,
    # the family graphs and seeded G(8, 1/2) and G(9, 1/2).  (A family
    # formula settles its graphs before the minors stage, so today they
    # meet none.)  Each is nonsingular, so the reference solves it too.
    systems = []

    def spy(a, b):
        if inspect.currentframe().f_back.f_code is engine._solve_minor_weights.__code__:
            systems.append((a, b))
        return solve_int(a, b)

    monkeypatch.setattr(engine, "solve_int", spy)
    graphs = [
        *atlas7()[::5],
        *(g for _, g, _ in family_checks()),
        *(_random_graph(random.Random(1000 * n + seed), n) for n in (8, 9) for seed in range(30)),
    ]
    for g in graphs:
        compute_mur(g)
    assert len(systems) > 200
    for a, b in systems:
        want = reference_solve_int(a, b)
        assert want is not None and same_solution(solve_int(a, b), want)


# Unknowns in the order 1, 2, 3, 0 (fewest nonzeros first); every fault
# planted below changes its solution ([2, 0, -3, 3] over 3).
A = [[3, 1, 3, 3], [3, 2, 0, -1], [0, 3, 0, 0], [0, 1, -1, 0]]
B = [2, 1, 0, 1]


def test_the_unplanted_solve_is_exact(monkeypatch):
    planted(monkeypatch, "ys = [v * scale for v in ys]", "ys = [v * scale for v in ys]",
            "solve_int")
    assert matrices.solve_int(A, B) == ([2, 0, -3, 3], 3)


@pytest.mark.parametrize(
    "old, new",
    [
        # the solved unknowns not rescaled to a new common denominator
        ("ys = [v * scale for v in ys]", "ys = ys"),
        # a sign slip in the row update
        ("p * x - h * t", "p * x + h * t"),
        # the content divided out of the left-hand side only
        ("[x // content for x in row]", "[x // content for x in row[:-1]] + row[-1:]"),
        # the unknowns left in elimination order
        ("zip(order, ys)", "enumerate(ys)"),
        # the right-hand side not brought to the common denominator
        ("s = den * top[-1]", "s = top[-1]"),
    ],
    ids=["y-not-rescaled", "sign-slip", "content-left-side-only", "order-not-undone", "rhs-unscaled"],
)
def test_a_planted_solve_fault_raises(monkeypatch, old, new):
    planted(monkeypatch, old, new, "solve_int")
    with pytest.raises(ArithmeticError, match="fails the system"):
        matrices.solve_int(A, B)


def test_drop_points_on_every_delta_line_of_the_seven_vertex_atlas():
    # and of the family checks' graphs, up to 12 vertices
    tried = 0
    for g in [*atlas7(), *(g for _, g, _ in family_checks())]:
        # -1 is not searched (see _delta_lines), but its points are still
        # ranked by the domination test
        for delta in [*_delta_lines(g), Fraction(-1)]:
            m, eigenvalues = _line_eigenvalues(g, delta)
            for mu, mult in eigenvalues:
                p, rank = _drop_point(m, mu, mult, delta)
                assert p == reference_drop_point(m, mu, delta)
                assert rank == rank_rational(integer_universal_matrix(g, p))
                tried += 1
    assert tried > 25000


def planted(monkeypatch, old, new, name="_eliminate"):
    """Replace ``matrices.<name>`` by a copy with one fault planted."""
    source = textwrap.dedent(inspect.getsource(getattr(matrices, name)))
    assert source.count(old) == 1
    namespace = dict(vars(matrices))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(matrices, name, namespace[name])


# Its pivots are 3, 8, 21 and -8 = det(M).
M = [[3, 1, 1, 1], [1, 3, 0, 2], [1, 0, 3, 0], [1, 2, 0, 1]]


def test_the_unplanted_copy_is_exact(monkeypatch):
    planted(monkeypatch, "prev = piv", "prev = piv")
    assert matrices.rank_rational(M) == 4 and matrices.det_int(M) == reference_det_int(M) == -8
    assert same_solution(matrices.solve_int(M, [1, 1, 1, 1]), reference_solve_int(M, [1, 1, 1, 1]))


@pytest.mark.parametrize(
    "old, new",
    [
        # prev kept at the first pivot, so the third step divides by 3, not 8
        ("prev = piv", "prev = piv if prev == 1 else prev"),
        # each step divides by its own pivot instead of the one before
        ("head * top[j], prev)", "head * top[j], piv)"),
    ],
)
def test_a_planted_fault_raises(monkeypatch, old, new):
    planted(monkeypatch, old, new)
    for run in (lambda: matrices.rank_rational(M), lambda: matrices.det_int(M)):
        with pytest.raises(ArithmeticError):
            run()


def test_drop_point_runs_one_elimination(monkeypatch):
    calls = []

    def counted(a, b):
        calls.append((len(a), len(b)))
        return solve_int(a, b)

    monkeypatch.setattr(engine, "solve_int", counted)
    m, eigenvalues = _line_eigenvalues(cycle(6), Fraction(0))
    assert sorted(mu for mu, _ in eigenvalues) == [-2, -1, 1, 2]
    for mu, mult in eigenvalues:
        _drop_point(m, mu, mult, Fraction(0))
    assert calls == [(6, 6)] * 4
