"""Cyclotomic rings Q[zeta_n] with Galois action and norms.

Elements are stored as coefficient vectors of length phi(n), i.e. reduced
modulo the n-th cyclotomic polynomial.  The norm is computed literally as
the product of the images under the full Galois group, with a final
assertion that the product landed in Q; that doubles as a consistency
check on the whole arithmetic layer.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .. import _poly
from .numth import euler_phi


@functools.cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of Phi_n, by exact recursive division.

    Phi_n = (x^n - 1) / prod of Phi_d over proper divisors d of n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    num = _poly.sub(_poly.x_pow(n), _poly.one())
    den = _poly.one()
    for d in range(1, n):
        if n % d == 0:
            den = _poly.mul(den, _poly.make(cyclotomic_poly(d)))
    return _poly.int_coeffs(_poly.div_exact(num, den))


@functools.cache
def _reduction_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """table[e] = coefficient vector of x^e mod Phi_n, for 0 <= e < n."""
    phi = euler_phi(n)
    phi_poly = _poly.make(cyclotomic_poly(n))
    table = []
    for e in range(n):
        _, rem = _poly.divmod_poly(_poly.x_pow(e), phi_poly)
        row = list(rem) + [Fraction(0)] * (phi - len(rem))
        table.append(tuple(row))
    return tuple(table)


def _pad(coeffs: Sequence[Fraction], phi: int) -> tuple[Fraction, ...]:
    out = list(coeffs) + [Fraction(0)] * (phi - len(coeffs))
    if len(out) != phi:
        raise ValueError("coefficient vector longer than phi(n)")
    return tuple(out)


@dataclass(frozen=True)
class CycloElem:
    """Element of Q[zeta_n], reduced mod Phi_n; len(coeffs) == phi(n)."""

    n: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coeffs) != euler_phi(self.n):
            raise ValueError(
                f"need {euler_phi(self.n)} coefficients for n={self.n}, got {len(self.coeffs)}"
            )

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "CycloElem":
        return CycloElem(n, _pad([], euler_phi(n)))

    @staticmethod
    def one(n: int) -> "CycloElem":
        return CycloElem(n, _pad([Fraction(1)], euler_phi(n)))

    @staticmethod
    def from_rational(n: int, v) -> "CycloElem":
        return CycloElem(n, _pad([Fraction(v)], euler_phi(n)))

    @staticmethod
    def zeta_pow(n: int, e: int) -> "CycloElem":
        return CycloElem(n, _reduction_table(n)[e % n])

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "CycloElem"):
        if self.n != other.n:
            raise ValueError(f"mixed cyclotomic orders {self.n} and {other.n}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.n, other)
        self._check(other)
        return CycloElem(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloElem(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = CycloElem.from_rational(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloElem(self.n, tuple(Fraction(other) * a for a in self.coeffs))
        self._check(other)
        phi = euler_phi(self.n)
        prod = [Fraction(0)] * (2 * phi - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b == 0:
                    continue
                prod[i + j] += a * b
        return cyclo_reduce(prod, self.n)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers not supported; use inverse()")
        acc, base = CycloElem.one(self.n), self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def inverse(self) -> "CycloElem":
        """Inverse via the Galois product: x^-1 = (prod of conjugates) / norm."""
        if self.is_zero():
            raise ZeroDivisionError("zero element of Q[zeta]")
        rest = CycloElem.one(self.n)
        for j in range(1, self.n + 1):
            if math.gcd(j, self.n) == 1 and j != 1:
                rest = rest * galois_apply(self, GaloisMap(self.n, j))
        nrm = (self * rest).rational_value()
        return rest * (Fraction(1) / nrm)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return self * other.inverse()

    # -- queries ----------------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + complex(c)
        return acc

    def __repr__(self) -> str:
        terms = []
        for e, c in enumerate(self.coeffs):
            if c == 0:
                continue
            t = "z" if e == 1 else f"z^{e}"
            terms.append(str(c) if e == 0 else t if c == 1 else f"{c}*{t}")
        return f"Cyclo(n={self.n}: {' + '.join(terms) if terms else '0'})"


@dataclass(frozen=True)
class GaloisMap:
    """The automorphism of Q(zeta_n) sending zeta to zeta^j; gcd(j, n) = 1."""

    n: int
    j: int

    def __post_init__(self):
        if math.gcd(self.j, self.n) != 1:
            raise ValueError(f"j={self.j} is not coprime to n={self.n}")

    def compose(self, other: "GaloisMap") -> "GaloisMap":
        if self.n != other.n:
            raise ValueError("mixed cyclotomic orders")
        return GaloisMap(self.n, (self.j * other.j) % self.n)


def cyclo_reduce(coeffs: Sequence, n: int) -> CycloElem:
    """Reduce a rational polynomial in zeta (constant term first) mod Phi_n."""
    phi = euler_phi(n)
    table = _reduction_table(n)
    out = [Fraction(0)] * phi
    for e, c in enumerate(coeffs):
        c = Fraction(c)
        if c == 0:
            continue
        for k, t in enumerate(table[e % n]):
            if t:
                out[k] += c * t
    return CycloElem(n, tuple(out))


def sin_as_cyclo(m: int, n: int) -> CycloElem:
    """zeta^m - zeta^-m, the element equal to 2i*sin(2*pi*m/n)."""
    return CycloElem.zeta_pow(n, m) - CycloElem.zeta_pow(n, -m)


def galois_apply(x: CycloElem, g: GaloisMap) -> CycloElem:
    """Substitute zeta -> zeta^j and reduce; a ring homomorphism."""
    if g.n != x.n:
        raise ValueError(f"map on Q(zeta_{g.n}) applied to element of Q(zeta_{x.n})")
    coeffs = [Fraction(0)] * x.n
    for e, c in enumerate(x.coeffs):
        coeffs[(e * g.j) % x.n] = c  # e -> e*j is injective mod n
    return cyclo_reduce(coeffs, x.n)


def norm(x: CycloElem) -> Fraction:
    """Product of the images of x under the whole Galois group.

    The result must be rational; a non-rational product would mean broken
    arithmetic, so that is asserted rather than returned.
    """
    acc = CycloElem.one(x.n)
    for j in range(1, x.n + 1):
        if math.gcd(j, x.n) == 1:
            acc = acc * galois_apply(x, GaloisMap(x.n, j))
    if not acc.is_rational():
        raise AssertionError(f"Galois product is not rational: {acc}")
    return acc.rational_value()


def float_crosscheck(x: CycloElem, expected: complex, rel_tol: float = 1e-9) -> bool:
    """Compare the complex evaluation of x at zeta = e^(2*pi*i/n) to expected."""
    got = x.to_complex()
    scale = max(abs(expected), 1.0)
    return abs(got - expected) <= rel_tol * scale
