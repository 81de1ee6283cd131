from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from murlab.algebraic import AlgebraicContext, SplitRequired
from murlab.polynomials import Poly


def ctx(*coeffs):
    return AlgebraicContext(Poly(coeffs))


def test_modulus_must_be_squarefree():
    with pytest.raises(ValueError):
        ctx(1, 2, 1)  # (x + 1)^2
    with pytest.raises(ValueError):
        ctx(5)


def test_inverse_of_generator():
    c = ctx(-2, 0, 1)  # x^2 - 2
    theta = c.generator()
    assert theta.inverse().rep == Poly((0, Fraction(1, 2)))
    assert theta * theta.inverse() == 1


def test_inverse_of_constant():
    c = ctx(-2, 0, 1)
    assert c.element(Fraction(3, 4)).inverse() == Fraction(4, 3)


def test_zero_divisor_splits():
    c = ctx(0, -1, 1)  # x^2 - x = x(x - 1)
    a = c.element(Poly((-1, 1)))
    with pytest.raises(SplitRequired) as info:
        a.inverse()
    result = info.value.split
    assert result.f1 == Poly((-1, 1))
    assert result.f2 == Poly((0, 1))
    # in the branch where a is nonzero it inverts cleanly
    branch = AlgebraicContext(result.f2)
    b = branch.element(a.rep)
    assert b * b.inverse() == 1


def test_inverting_zero_rejected():
    c = ctx(-2, 0, 1)
    with pytest.raises(ZeroDivisionError):
        c.element(0).inverse()


def test_mixed_contexts_rejected():
    a = ctx(-2, 0, 1).generator()
    b = ctx(-3, 0, 1).generator()
    with pytest.raises(ValueError):
        a + b


reps = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4), max_size=3).map(Poly)


@given(reps, reps)
def test_ring_laws_mod_irreducible(pa, pb):
    c = ctx(-2, 0, 0, 1)  # x^3 - 2, irreducible
    a, b = c.element(pa), c.element(pb)
    assert (a + b) - b == a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == 1


@given(reps)
def test_reduction_respects_arithmetic(pa):
    big = ctx(0, -1, 1)
    small = AlgebraicContext(Poly((0, 1)))
    a = big.element(pa)
    assert small.element((a * a).rep) == small.element(a.rep) * small.element(a.rep)


def test_repeated_zero_root_rejected():
    with pytest.raises(ValueError):
        ctx(0, 0, -1, 1)  # x^3 - x^2 = x^2 (x - 1)


def test_split_exception_payload():
    c = ctx(0, -1, 1)
    with pytest.raises(SplitRequired) as exc:
        c.element(Poly((0, 1))).inverse()
    split = exc.value.split
    assert sorted(p.degree for p in (split.f1, split.f2)) == [1, 1]
    assert (split.f1 * split.f2).monic() == c.modulus
