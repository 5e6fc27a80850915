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

from .numth import euler_phi


def poly_mul(p: Sequence, q: Sequence) -> list:
    """Product of two coefficient lists (constant term first)."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            if b == 0:
                continue
            out[i + j] += a * b
    return out


def poly_divmod(num: Sequence, monic_den: Sequence) -> tuple[list, list]:
    """Quotient and remainder of num by a monic polynomial, both constant
    term first; the remainder has deg(den) coefficients.  Only products and
    differences of the inputs are formed, so int and Fraction coefficients
    stay exact and int stays int."""
    if monic_den[-1] != 1:
        raise ValueError("divisor must be monic")
    d = len(monic_den) - 1
    rem = list(num) + [0] * (d - len(num))
    quot = [0] * max(len(num) - d, 0)
    for k in reversed(range(len(quot))):
        c = quot[k] = rem[k + d]
        if c:
            for i, t in enumerate(monic_den):
                rem[k + i] -= c * t
    return quot, rem[:d]


@functools.cache
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients (constant first) of Phi_n: x^n - 1 divided in turn by
    Phi_d for each proper divisor d of n, every division exact."""
    if n < 1:
        raise ValueError("n must be >= 1")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = poly_divmod(num, cyclotomic_poly(d))
            assert not any(rem), f"Phi_{d} does not divide x^{n} - 1"
    return tuple(num)


@functools.cache
def _reduction_table(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """table[e] = coefficient vector of x^e mod Phi_n, for 0 <= e < n."""
    phi_poly = cyclotomic_poly(n)
    return tuple(
        tuple(map(Fraction, poly_divmod([0] * e + [1], phi_poly)[1])) for e in range(n)
    )


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
        return cyclo_reduce(poly_mul(self.coeffs, other.coeffs), self.n)

    __rmul__ = __mul__

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


def sin_value(m: int, n: int) -> CycloElem:
    """The real number sin(2*pi*m/n) in Q[zeta_n], for 4 | n: the element
    (zeta^m - zeta^-m) / 2i, with 1/i = zeta^(-n/4)."""
    if n % 4:
        raise ValueError(f"Q(zeta_{n}) does not contain i; sin_value needs 4 | n")
    return sin_as_cyclo(m, n) * CycloElem.zeta_pow(n, -n // 4) * Fraction(1, 2)


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
