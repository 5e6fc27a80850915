"""Exact arithmetic in Q(sqrt3) and Q(sqrt2, sqrt3).

QRoot3 is the coordinate field of everything geometric in this package:
tile sides, placement vertices, direction cosines.  All comparisons are
decided by exact sign case analysis, never by floating point.

QTower covers the handful of identity checks that genuinely need sqrt2
(sines and cosines of pi/12 and pi/4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rat = Union[int, Fraction]


def _frac(v: Rat) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


def rat_to_str(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)


def rational_sqrt(v: Fraction) -> Optional[Fraction]:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if v < 0:
        return None
    if v == 0:
        return Fraction(0)
    rn = math.isqrt(v.numerator)
    rd = math.isqrt(v.denominator)
    if rn * rn == v.numerator and rd * rd == v.denominator:
        return Fraction(rn, rd)
    return None


class QRoot3:
    """r + s*sqrt(3) with rational r, s.  Unique representation.

    Stored internally as an integer triple (n1 + n3*sqrt3)/den with
    den > 0 and gcd(n1, n3, den) = 1, so the ring operations and the sign
    predicate run on plain integers."""

    __slots__ = ("n1", "n3", "den")

    def __init__(self, r: Rat = 0, s: Rat = 0):
        r, s = _frac(r), _frac(s)
        den = r.denominator * s.denominator // math.gcd(r.denominator, s.denominator)
        n1 = r.numerator * (den // r.denominator)
        n3 = s.numerator * (den // s.denominator)
        g = math.gcd(math.gcd(abs(n1), abs(n3)), den)
        object.__setattr__(self, "n1", n1 // g)
        object.__setattr__(self, "n3", n3 // g)
        object.__setattr__(self, "den", den // g)

    def __setattr__(self, *_args):
        raise AttributeError("QRoot3 is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not the slots
        return QRoot3, (self.r, self.s)

    @staticmethod
    def _raw(n1: int, n3: int, den: int) -> "QRoot3":
        if den < 0:
            n1, n3, den = -n1, -n3, -den
        g = math.gcd(math.gcd(abs(n1), abs(n3)), den)
        out = object.__new__(QRoot3)
        object.__setattr__(out, "n1", n1 // g)
        object.__setattr__(out, "n3", n3 // g)
        object.__setattr__(out, "den", den // g)
        return out

    @property
    def r(self) -> Fraction:
        return Fraction(self.n1, self.den)

    @property
    def s(self) -> Fraction:
        return Fraction(self.n3, self.den)

    def __eq__(self, other) -> bool:
        if isinstance(other, QRoot3):
            return self.n1 == other.n1 and self.n3 == other.n3 and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.n3 == 0 and Fraction(self.n1, self.den) == other
        return NotImplemented

    def __hash__(self):
        return hash((self.n1, self.n3, self.den))

    # -- ring/field operations ------------------------------------------------

    def __add__(self, other: "QRoot3 | Rat") -> "QRoot3":
        o = _coerce(other)
        return QRoot3._raw(
            self.n1 * o.den + o.n1 * self.den,
            self.n3 * o.den + o.n3 * self.den,
            self.den * o.den,
        )

    __radd__ = __add__

    def __sub__(self, other: "QRoot3 | Rat") -> "QRoot3":
        o = _coerce(other)
        return QRoot3._raw(
            self.n1 * o.den - o.n1 * self.den,
            self.n3 * o.den - o.n3 * self.den,
            self.den * o.den,
        )

    def __rsub__(self, other: "QRoot3 | Rat") -> "QRoot3":
        return _coerce(other) - self

    def __mul__(self, other: "QRoot3 | Rat") -> "QRoot3":
        o = _coerce(other)
        return QRoot3._raw(
            self.n1 * o.n1 + 3 * self.n3 * o.n3,
            self.n1 * o.n3 + self.n3 * o.n1,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def __neg__(self) -> "QRoot3":
        return QRoot3._raw(-self.n1, -self.n3, self.den)

    def inverse(self) -> "QRoot3":
        # (r + s*sqrt3)^(-1) = (r - s*sqrt3) / (r^2 - 3 s^2); the norm is zero
        # only for the zero element, since sqrt3 is irrational.
        nrm = self.n1 * self.n1 - 3 * self.n3 * self.n3
        if nrm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt3)")
        return QRoot3._raw(self.n1 * self.den, -self.n3 * self.den, nrm)

    def __truediv__(self, other: "QRoot3 | Rat") -> "QRoot3":
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other: "QRoot3 | Rat") -> "QRoot3":
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "QRoot3":
        if k < 0:
            return self.inverse() ** (-k)
        acc, base = QR3_ONE, self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    # -- exact order ------------------------------------------------------------

    def sign(self) -> int:
        return _sign(self.n1, self.n3)

    def _order(self, other) -> int:
        """Sign of self - other, on the cross-multiplied integers; the
        positive denominators cannot change it, so no value is built."""
        o = _coerce(other)
        return _sign(self.n1 * o.den - o.n1 * self.den, self.n3 * o.den - o.n3 * self.den)

    def __lt__(self, other) -> bool:
        return self._order(other) < 0

    def __le__(self, other) -> bool:
        return self._order(other) <= 0

    def __gt__(self, other) -> bool:
        return self._order(other) > 0

    def __ge__(self, other) -> bool:
        return self._order(other) >= 0

    def is_zero(self) -> bool:
        return self.n1 == 0 and self.n3 == 0

    def is_rational(self) -> bool:
        return self.n3 == 0

    def as_rational(self) -> Fraction:
        if self.n3 != 0:
            raise ValueError(f"{self} is not rational")
        return Fraction(self.n1, self.den)

    def sqrt(self) -> Optional["QRoot3"]:
        """Exact square root inside Q(sqrt3), or None.

        Solves (u + v*sqrt3)^2 = r + s*sqrt3:  u^2 + 3 v^2 = r, 2uv = s.
        """
        if self.sign() < 0:
            return None
        if self.is_zero():
            return QRoot3(0, 0)
        if self.s == 0:
            u = rational_sqrt(self.r)
            if u is not None:
                return QRoot3(u, 0)
            v = rational_sqrt(self.r / 3)
            if v is not None:
                return QRoot3(0, v)
            return None
        disc = rational_sqrt(self.r * self.r - 3 * self.s * self.s)
        if disc is None:
            return None
        for t in (disc, -disc):
            v2 = (self.r + t) / 6
            v = rational_sqrt(v2)
            if v is None or v == 0:
                continue
            u = self.s / (2 * v)
            cand = QRoot3(u, v)
            if cand * cand == self and cand.sign() >= 0:
                return cand
            cand = -cand
            if cand * cand == self and cand.sign() >= 0:
                return cand
        return None

    def __float__(self) -> float:
        return (self.n1 + self.n3 * math.sqrt(3.0)) / self.den

    def __repr__(self) -> str:
        if self.n3 == 0:
            return rat_to_str(self.r)
        if self.n1 == 0:
            return f"{rat_to_str(self.s)}*sqrt3"
        return f"{rat_to_str(self.r)}+{rat_to_str(self.s)}*sqrt3"

    def to_json(self) -> dict:
        return {"r": rat_to_str(self.r), "s": rat_to_str(self.s)}

    @staticmethod
    def from_json(obj) -> "QRoot3":
        try:
            if isinstance(obj, str):
                return QRoot3(Fraction(obj), 0)
            return QRoot3(Fraction(obj["r"]), Fraction(obj["s"]))
        except ArithmeticError as exc:  # a zero denominator, an infinity
            raise ValueError(f"not an exact number: {obj!r}") from exc


def _coerce(v) -> QRoot3:
    if isinstance(v, QRoot3):
        return v
    if isinstance(v, (int, Fraction)):
        return QRoot3(v, 0)
    raise TypeError(f"cannot coerce {type(v).__name__} into Q(sqrt3)")


QR3_ZERO = QRoot3(0, 0)
QR3_ONE = QRoot3(1, 0)
SQRT3 = QRoot3(0, 1)


def _sign(r: int, s: int) -> int:
    """Sign of r + s*sqrt3 for plain integers r, s, in {-1, 0, +1}.

    The one exact sign kernel: QRoot3 values and the geometry predicates'
    fraction-free determinants both decide through it.  With mixed signs
    |r| and |s|*sqrt3 are compared as r^2 against 3 s^2, which are never
    equal unless both are zero, because sqrt3 is irrational.
    """
    if s == 0:
        return (r > 0) - (r < 0)
    if r == 0 or (r > 0) == (s > 0):
        return 1 if s > 0 else -1
    if r * r > 3 * s * s:
        return 1 if r > 0 else -1
    return 1 if s > 0 else -1


def qr3_sign(x: QRoot3) -> int:
    """Sign of r + s*sqrt3 in {-1, 0, +1}; the shared positive denominator
    cannot change it."""
    return _sign(x.n1, x.n3)


_T_MUL = {
    # multiplication table for the basis (1, sqrt2, sqrt3, sqrt6)
    (0, 0): (0, Fraction(1)), (0, 1): (1, Fraction(1)), (0, 2): (2, Fraction(1)), (0, 3): (3, Fraction(1)),
    (1, 1): (0, Fraction(2)), (1, 2): (3, Fraction(1)), (1, 3): (2, Fraction(2)),
    (2, 2): (0, Fraction(3)), (2, 3): (1, Fraction(3)),
    (3, 3): (0, Fraction(6)),
}


@dataclass(frozen=True)
class QTower:
    """Element of Q(sqrt2, sqrt3) in the basis {1, sqrt2, sqrt3, sqrt6}."""

    a: Fraction  # coefficient of 1
    b: Fraction  # sqrt2
    c: Fraction  # sqrt3
    d: Fraction  # sqrt6

    def __init__(self, a: Rat = 0, b: Rat = 0, c: Rat = 0, d: Rat = 0):
        object.__setattr__(self, "a", _frac(a))
        object.__setattr__(self, "b", _frac(b))
        object.__setattr__(self, "c", _frac(c))
        object.__setattr__(self, "d", _frac(d))

    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c, self.d)

    def __add__(self, other) -> "QTower":
        o = _coerce_tower(other)
        return QTower(*(x + y for x, y in zip(self.coeffs(), o.coeffs())))

    __radd__ = __add__

    def __sub__(self, other) -> "QTower":
        o = _coerce_tower(other)
        return QTower(*(x - y for x, y in zip(self.coeffs(), o.coeffs())))

    def __rsub__(self, other) -> "QTower":
        return _coerce_tower(other) - self

    def __neg__(self) -> "QTower":
        return QTower(*(-x for x in self.coeffs()))

    def __mul__(self, other) -> "QTower":
        o = _coerce_tower(other)
        out = [Fraction(0)] * 4
        sc, oc = self.coeffs(), o.coeffs()
        for i in range(4):
            if sc[i] == 0:
                continue
            for j in range(4):
                if oc[j] == 0:
                    continue
                k, f = _T_MUL[(i, j) if i <= j else (j, i)]
                out[k] += sc[i] * oc[j] * f
        return QTower(*out)

    __rmul__ = __mul__

    def conjugates(self) -> tuple["QTower", ...]:
        """Images under the four sign choices on (sqrt2, sqrt3)."""
        a, b, c, d = self.coeffs()
        return (
            QTower(a, b, c, d),
            QTower(a, -b, c, -d),
            QTower(a, b, -c, -d),
            QTower(a, -b, -c, d),
        )

    def inverse(self) -> "QTower":
        _, c1, c2, c3 = self.conjugates()
        num = c1 * c2 * c3
        den = self * num
        if den.b != 0 or den.c != 0 or den.d != 0 or den.a == 0:
            raise ZeroDivisionError("inverse failed; element is zero")
        return QTower(*(x / den.a for x in num.coeffs()))

    def __truediv__(self, other) -> "QTower":
        return self * _coerce_tower(other).inverse()

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs())

    def __float__(self) -> float:
        return (
            float(self.a)
            + float(self.b) * math.sqrt(2.0)
            + float(self.c) * math.sqrt(3.0)
            + float(self.d) * math.sqrt(6.0)
        )

    def __repr__(self) -> str:
        names = ("", "*sqrt2", "*sqrt3", "*sqrt6")
        parts = [f"{rat_to_str(x)}{n}" for x, n in zip(self.coeffs(), names) if x != 0]
        return " + ".join(parts) if parts else "0"

    @staticmethod
    def from_qroot3(x: QRoot3) -> "QTower":
        return QTower(x.r, 0, x.s, 0)


def _coerce_tower(v) -> QTower:
    if isinstance(v, QTower):
        return v
    if isinstance(v, (int, Fraction)):
        return QTower(v)
    if isinstance(v, QRoot3):
        return QTower.from_qroot3(v)
    raise TypeError(f"cannot coerce {type(v).__name__} into Q(sqrt2, sqrt3)")


# sin/cos of pi/12 and friends, used by the identity checks.
SIN_PI_12 = QTower(0, Fraction(-1, 4), 0, Fraction(1, 4))   # (sqrt6 - sqrt2)/4
COS_PI_12 = QTower(0, Fraction(1, 4), 0, Fraction(1, 4))    # (sqrt6 + sqrt2)/4
SIN_PI_4 = QTower(0, Fraction(1, 2), 0, 0)                  # sqrt2/2
SIN_2PI_3 = QTower(0, 0, Fraction(1, 2), 0)                 # sqrt3/2
