from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from murlab.polynomials import Poly, SplitRequired, check_modulus, inverse_mod

X = Poly.x()


def test_modulus_must_be_squarefree():
    with pytest.raises(ValueError, match="squarefree"):
        check_modulus(Poly((1, 2, 1)))  # (x + 1)^2
    with pytest.raises(ValueError, match="degree >= 1"):
        check_modulus(Poly((5,)))
    assert check_modulus(Poly((-4, 0, 2))) == Poly((-2, 0, 1))


def test_inverse_of_generator():
    f = Poly((-2, 0, 1))  # x^2 - 2
    inv = inverse_mod(X, f)
    assert inv == Poly((0, Fraction(1, 2)))
    assert X * inv % f == 1


def test_inverse_of_constant():
    assert inverse_mod(Poly((Fraction(3, 4),)), Poly((-2, 0, 1))) == Fraction(4, 3)


def test_zero_divisor_splits():
    f = Poly((0, -1, 1))  # x^2 - x = x(x - 1)
    a = Poly((-1, 1))
    with pytest.raises(SplitRequired) as info:
        inverse_mod(a, f)
    assert info.value.f1 == Poly((-1, 1))
    assert info.value.f2 == Poly((0, 1))
    # in the branch where a is nonzero it inverts cleanly
    branch = info.value.f2
    assert a * inverse_mod(a, branch) % branch == 1


def test_inverting_zero_rejected():
    f = Poly((-2, 0, 1))
    with pytest.raises(ZeroDivisionError):
        inverse_mod(Poly(), f)
    with pytest.raises(ZeroDivisionError):
        inverse_mod(f * X, f)  # zero mod f, though not the zero polynomial


reps = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=3).map(Poly)


@given(reps, reps)
def test_ring_laws_mod_irreducible(a, b):
    f = Poly((-2, 0, 0, 1))  # x^3 - 2, irreducible
    a, b = a % f, b % f
    assert ((a + b) - b) % f == a
    assert a * b % f == b * a % f
    if a:
        assert a * inverse_mod(a, f) % f == 1


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
    f = Poly((0, -1, 1))
    with pytest.raises(SplitRequired) as exc:
        inverse_mod(X, f)
    f1, f2 = exc.value.f1, exc.value.f2
    assert sorted(p.degree for p in (f1, f2)) == [1, 1]
    assert f1 * f2 == f
