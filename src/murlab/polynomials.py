"""Dense univariate polynomials over the rationals.

Coefficients are stored lowest degree first as `fractions.Fraction`
values with trailing zeros stripped; the zero polynomial has an empty
coefficient tuple.

``poly_gcd`` and ``squarefree_decomposition`` work on integer coefficient
lists, taking gcds by primitive pseudo-remainders and dividing exactly over
the integers.  ``poly_gcd`` clears the denominators of its Poly arguments
and makes only its result monic; ``squarefree_decomposition`` takes and
returns integer lists, lowest degree first.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from typing import Iterable


def _coerce(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class Poly:
    """A univariate polynomial with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other) -> "Poly":
        other = self._as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            (self[i] + other[i] for i in range(n))
        )

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly((-c for c in self.coeffs))

    def __sub__(self, other) -> "Poly":
        return self + (-self._as_poly(other))

    def __mul__(self, other) -> "Poly":
        other = self._as_poly(other)
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __divmod__(self, other) -> tuple["Poly", "Poly"]:
        other = self._as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lead = other.leading()
        if len(rem) <= d:
            return Poly(), Poly(rem)
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - d - 1, -1, -1):
            c = rem[i + d] / lead
            if c == 0:
                continue
            quot[i] = c
            for j, b in enumerate(other.coeffs):
                rem[i + j] -= c * b
        return Poly(quot), Poly(rem[:d])

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def exact_div(self, other) -> "Poly":
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.leading()
        if lead == 1:
            return self
        return Poly((c / lead for c in self.coeffs))

    def derivative(self) -> "Poly":
        return Poly((i * c for i, c in enumerate(self.coeffs) if i > 0))

    @staticmethod
    def _as_poly(other) -> "Poly":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly((other,))
        raise TypeError(f"cannot coerce {type(other)!r} to Poly")

    def __repr__(self) -> str:
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


def _integers(p: Poly) -> list[int]:
    """p scaled by the lcm of its denominators to integer coefficients."""
    den = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (den // c.denominator) for c in p.coeffs]


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a and a[-1] < 0:
        g = -g
    return [c // g for c in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The primitive part of the remainder of c*a by b, for a nonzero
    integer c that keeps every step of the division integral; b is
    nonzero."""
    rem, d, lead = list(a), len(b) - 1, b[-1]
    while len(rem) > d:
        top = rem.pop()
        g = gcd(top, lead)
        s, t = lead // g, top // g
        shift = len(rem) - d
        rem = [s * x for x in rem]
        for j, y in enumerate(b[:-1]):
            rem[shift + j] -= t * y
        while rem and not rem[-1]:
            rem.pop()
    return _primitive(rem)


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd of two primitive integer polynomials, by primitive
    pseudo-remainders; [] for gcd(0, 0)."""
    while b:
        a, b = b, _pseudo_remainder(a, b)
    return a


def _exact_div(a: list[int], b: list[int]) -> list[int]:
    """a / b over the integers; ArithmeticError if it leaves a remainder.

    By Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor over the rationals has integer coefficients, so every step of
    the long division is exact for the divisions this module makes.
    """
    rem, d, lead = list(a), len(b) - 1, b[-1]
    quot = [0] * max(len(rem) - d, 0)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rem[i + d], lead)
        if r:
            raise ArithmeticError("inexact polynomial division")
        if c:
            quot[i] = c
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    if any(rem[:d]):
        raise ArithmeticError("inexact polynomial division")
    return quot


def _derivative(a: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(a) if i]


def _sub(a: list[int], b: list[int]) -> list[int]:
    out = [x - y for x, y in zip_longest(a, b, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    g = _gcd(_primitive(_integers(a)), _primitive(_integers(b)))
    return Poly(g).monic()


def check_modulus(f: Poly) -> Poly:
    """f made monic, as a modulus of Q[x]/(f); ValueError unless it has
    degree >= 1 and is squarefree."""
    f = f.monic()
    if f.degree < 1:
        raise ValueError("modulus must have degree >= 1")
    if poly_gcd(f, f.derivative()).degree != 0:
        raise ValueError("modulus must be squarefree")
    return f


def squarefree_decomposition(a: list[int]) -> list[tuple[list[int], int]]:
    """Yun's algorithm on the primitive part of the integer polynomial a,
    given lowest degree first with a nonzero leading coefficient.

    Returns primitive, squarefree, pairwise coprime integer factors, each
    with a positive leading coefficient, with strictly increasing exponents,
    such that a is its content, signed as its leading coefficient, times the
    product of factor**exponent.  Every gcd is primitive, so every division
    by one is exact over the integers.
    """
    if not a:
        raise ValueError("squarefree decomposition of the zero polynomial")
    if len(a) < 2:
        return []
    f = _primitive(a)
    d = _derivative(f)
    g = _gcd(f, _primitive(d))
    if len(g) == 1:
        return [(f, 1)]
    out: list[tuple[list[int], int]] = []
    w = _exact_div(f, g)
    z = _sub(_exact_div(d, g), _derivative(w))
    i = 1
    while len(w) > 1:
        gi = _gcd(w, _primitive(z))
        if len(gi) > 1:
            out.append((gi, i))
            w = _exact_div(w, gi)
            z = _exact_div(z, gi)
        z = _sub(z, _derivative(w))
        i += 1
    return out


def integer_roots(coeffs: list[int]) -> list[tuple[int, int]]:
    """(root, multiplicity) for each integer root of a monic polynomial with
    integer coefficients (lowest degree first), in increasing order.

    Zero roots are divided out first.  Every other root divides the constant
    term and lies within Fujiwara's bound 2 * max_k |c_(n-k)|^(1/k), taken
    here with each k-th root rounded up to a power of two.
    """
    low = next(i for i, c in enumerate(coeffs) if c)
    roots = [(0, low)] if low else []
    coeffs = list(coeffs[low:])
    n = len(coeffs) - 1
    bound = 2 * max(
        (1 << -(-abs(c).bit_length() // (n - i)) for i, c in enumerate(coeffs[:-1])),
        default=0,
    )
    a0 = abs(coeffs[0])
    for d in range(1, min(bound, a0) + 1):
        if a0 % d:
            continue
        for y in (-d, d):
            mult = 0
            while len(coeffs) > 1:
                # synthetic division by x - y, highest degree first
                quot, acc = [], 0
                for c in reversed(coeffs):
                    acc = acc * y + c
                    quot.append(acc)
                if acc:
                    break
                coeffs = quot[-2::-1]
                mult += 1
            if mult:
                roots.append((y, mult))
        if len(coeffs) == 1:  # every root found
            break
    return sorted(roots)
