"""Arithmetic in Q[x]/(f) for a squarefree modulus f, with dynamic splitting.

The modulus is not required to be irreducible.  Whenever a zero divisor
must be inverted, a nontrivial factorization of the modulus is exposed
(``SplitRequired`` / ``Split``) so the caller can redo the computation
modulo each factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .polynomials import Poly, poly_ext_gcd, poly_gcd


class AlgebraicContext:
    """A working modulus: monic, squarefree, degree >= 1."""

    __slots__ = ("modulus",)

    def __init__(self, modulus: Poly):
        modulus = modulus.monic()
        if modulus.degree < 1:
            raise ValueError("modulus must have degree >= 1")
        if poly_gcd(modulus, modulus.derivative()).degree != 0:
            raise ValueError("modulus must be squarefree")
        self.modulus = modulus

    def element(self, rep) -> "AlgebraicNumber":
        if isinstance(rep, (int, Fraction)):
            rep = Poly((rep,))
        return AlgebraicNumber(rep, self)

    def generator(self) -> "AlgebraicNumber":
        return AlgebraicNumber(Poly.x(), self)

    def __eq__(self, other) -> bool:
        return isinstance(other, AlgebraicContext) and self.modulus == other.modulus

    def __hash__(self) -> int:
        return hash(self.modulus)

    def __repr__(self) -> str:
        return f"AlgebraicContext({self.modulus!r})"


@dataclass(frozen=True)
class Split:
    """A nontrivial coprime factorization modulus = f1 * f2."""

    f1: Poly
    f2: Poly


class SplitRequired(Exception):
    """Raised when inverting a zero divisor; carries the discovered factors."""

    def __init__(self, f1: Poly, f2: Poly):
        super().__init__("zero divisor encountered; modulus splits")
        self.split = Split(f1, f2)


class AlgebraicNumber:
    """Residue class in Q[x]/(modulus)."""

    __slots__ = ("rep", "context")

    def __init__(self, rep: Poly, context: AlgebraicContext):
        self.rep = rep % context.modulus
        self.context = context

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __bool__(self) -> bool:
        return not self.rep.is_zero()

    def _coerce(self, other) -> "AlgebraicNumber":
        if isinstance(other, AlgebraicNumber):
            if other.context != self.context:
                raise ValueError("mixed algebraic contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return AlgebraicNumber(Poly((other,)), self.context)
        raise TypeError(f"cannot coerce {type(other)!r} to AlgebraicNumber")

    def __eq__(self, other) -> bool:
        if isinstance(other, (AlgebraicNumber, int, Fraction)):
            return (self - self._coerce(other)).is_zero()
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.rep, self.context))

    def __add__(self, other) -> "AlgebraicNumber":
        other = self._coerce(other)
        return AlgebraicNumber(self.rep + other.rep, self.context)

    __radd__ = __add__

    def __neg__(self) -> "AlgebraicNumber":
        return AlgebraicNumber(-self.rep, self.context)

    def __sub__(self, other) -> "AlgebraicNumber":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "AlgebraicNumber":
        return self._coerce(other) - self

    def __mul__(self, other) -> "AlgebraicNumber":
        other = self._coerce(other)
        return AlgebraicNumber(self.rep * other.rep, self.context)

    __rmul__ = __mul__

    def inverse(self) -> "AlgebraicNumber":
        """Multiplicative inverse; raises SplitRequired on a zero divisor."""
        if self.rep.is_zero():
            raise ZeroDivisionError("inverting zero in every branch")
        g, u, _ = poly_ext_gcd(self.rep, self.context.modulus)
        if g.degree == 0:
            # u * rep == g (a nonzero constant embedded as monic gcd == 1)
            return AlgebraicNumber(u, self.context)
        f1 = g
        f2 = self.context.modulus.exact_div(g).monic()
        raise SplitRequired(f1, f2)

    def __truediv__(self, other) -> "AlgebraicNumber":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "AlgebraicNumber":
        return self._coerce(other) * self.inverse()

    def __repr__(self) -> str:
        return f"AlgebraicNumber({self.rep!r} mod {self.context.modulus!r})"
