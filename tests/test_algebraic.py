from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from murlab.matrices import _mul_matrix, _reduce, rank_algebraic, solve_int
from murlab.polynomials import Poly, check_modulus

X = Poly.x()


def inverse(a: list[int], f: list[int]):
    """The inverse of a in Z[x]/(f), f monic, as ``rank_algebraic`` takes a
    pivot's: a Poly, or None for a zero divisor."""
    found = solve_int(_mul_matrix(a, f), [1] + [0] * (len(f) - 2))
    return None if found is None else Poly(Fraction(y, found[1]) for y in found[0])


def test_modulus_must_be_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        check_modulus(Poly((1, 2, 1)))  # (x + 1)^2
    with pytest.raises(ValueError, match="degree >= 1"):
        check_modulus(Poly((5,)))
    assert check_modulus(Poly((-4, 0, 2))) == Poly((-2, 0, 1))


def test_inverse_of_generator():
    f = Poly((-2, 0, 1))  # x^2 - 2
    inv = inverse([0, 1], [-2, 0, 1])
    assert inv == Poly((0, Fraction(1, 2)))
    assert X * inv % f == 1


def test_inverse_of_constant():
    assert inverse([3, 0], [-2, 0, 1]) == Fraction(1, 3)


def test_zero_divisor_splits():
    f = Poly((0, -1, 1))  # x^2 - x = x(x - 1)
    assert inverse([-1, 1], [0, -1, 1]) is None
    # theta - 1 vanishes on the branch x - 1 and is a unit on the branch x
    assert rank_algebraic([[X - 1]], f) == [(Poly((-1, 1)), 0), (Poly((0, 1)), 1)]


def test_inverting_zero_rejected():
    f = [-2, 0, 1]
    assert inverse([0, 0], f) is None
    # x f = x^3 - 2x is zero mod f, though not the zero polynomial
    assert inverse(_reduce([0, -2, 0, 1], f), f) is None


reps = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=3).map(Poly)


@given(reps, reps)
def test_ring_laws_mod_irreducible(a, b):
    f = Poly((-2, 0, 0, 1))  # x^3 - 2, irreducible
    a, b = a % f, b % f
    assert ((a + b) - b) % f == a
    assert a * b % f == b * a % f
    # Q[x]/(f) is a field: a nonzero a is a unit, and never splits f
    assert rank_algebraic([[a]], f) == [(f, 1 if a else 0)]


@given(reps)
def test_reduction_respects_arithmetic(a):
    big = Poly((0, -1, 1))
    small = Poly((0, 1))
    a = a % big
    assert (a * a % big) % small == (a % small) * (a % small) % small


def test_repeated_zero_root_rejected():
    with pytest.raises(ValueError, match="squarefree"):
        check_modulus(Poly((0, 0, -1, 1)))  # x^3 - x^2 = x^2 (x - 1)


def test_split_exception_payload():
    # the branches of a split are monic, coprime and multiply back to f
    f = Poly((0, -1, 1))
    branches = rank_algebraic([[X]], f)
    f1, f2 = (b for b, _ in branches)
    assert sorted(p.degree for p in (f1, f2)) == [1, 1]
    assert f1 * f2 == f
