"""Exact arithmetic in Q(sqrt3).

QRoot3 is the coordinate field of everything geometric in this package:
tile sides, placement vertices, direction cosines.  All comparisons are
decided by exact sign case analysis, never by floating point.

`order_keys` maps a list of values to plain ints in the same order, so a
sort or a sweep over many values compares ints, not QRoot3s.

The identity checks that need sqrt2 (sines of pi/12 and pi/4) run in
Q(zeta_24), which contains Q(sqrt2, sqrt3); see ``cyclo.sin_value``.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

Rat = Union[int, Fraction]


def _frac(v: Rat) -> Fraction:
    return v if isinstance(v, Fraction) else Fraction(v)


_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # what rat_to_str writes


def rat_to_str(v: Fraction) -> str:
    return _part(v.numerator, v.denominator)


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

        (u + v*sqrt3)^2 = r + s*sqrt3 means u^2 + 3 v^2 = r and 2uv = s, so
        u^2 - 3 v^2 = +-d with d^2 = r^2 - 3 s^2: u^2 is (r + d)/2 or
        (r - d)/2 and v = s/(2u).  When u = 0, then s = 0 and 3 v^2 = r.
        """
        r, s = self.r, self.s
        d = rational_sqrt(r * r - 3 * s * s)
        if self.sign() < 0 or d is None:
            return None
        for u2 in ((r + d) / 2, (r - d) / 2):
            u = rational_sqrt(u2)
            if u:
                root = QRoot3(u, s / (2 * u))
                return root if root.sign() >= 0 else -root
        v = rational_sqrt(r / 3) if s == 0 else None
        return None if v is None else QRoot3(0, v)

    def __float__(self) -> float:
        return (self.n1 + self.n3 * math.sqrt(3.0)) / self.den

    def __repr__(self) -> str:
        if self.n3 == 0:
            return _part(self.n1, self.den)
        if self.n1 == 0:
            return f"{_part(self.n3, self.den)}*sqrt3"
        return f"{_part(self.n1, self.den)}+{_part(self.n3, self.den)}*sqrt3"

    def to_json(self) -> dict:
        return {"r": _part(self.n1, self.den), "s": _part(self.n3, self.den)}

    @staticmethod
    def from_json(obj) -> "QRoot3":
        """A rational string, or {"r": ..., "s": ...} with each part a
        rational string or a JSON integer (not a float or a boolean).  A
        rational string is what `rat_to_str` writes, -?digits or
        -?digits/digits: no decimal point, exponent, plus sign, space or
        underscore."""
        r, s = (obj, "0") if isinstance(obj, str) else (obj["r"], obj["s"])
        (n1, d1), (n3, d3) = _ratio(r), _ratio(s)
        if not (d1 and d3):
            raise ValueError(f"not an exact number: {obj!r}")
        return QRoot3._raw(n1 * d3, n3 * d1, d1 * d3)


def _part(n: int, den: int) -> str:
    """The string of the rational n/den, den > 0, in lowest terms: n, or
    n/den; one gcd and no Fraction."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _ratio(v) -> tuple[int, int]:
    """(numerator, denominator) of a JSON integer or of a string that
    `rat_to_str` could have written; (0, 0) for anything else."""
    if type(v) is int:
        return v, 1
    m = _RATIONAL.fullmatch(v) if type(v) is str else None
    return (int(m[1]), int(m[2] or 1)) if m else (0, 0)


def _coerce(v) -> QRoot3:
    if isinstance(v, QRoot3):
        return v
    if isinstance(v, (int, Fraction)):
        return QRoot3(v, 0)
    raise TypeError(f"cannot coerce {type(v).__name__} into Q(sqrt3)")


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


def order_keys(values) -> list[int]:
    """Plain-int keys of the QRoot3 values, in their exact order: for any
    two values v, w of the list, key(v) < key(w) iff v < w, and equal keys
    iff equal values.  A sort or a sweep then compares ints.

    Let m be the largest bit length of any |n1|, |n3| or den in the list,
    and k = 4m + 4.  The key of v = (n1 + n3*sqrt3)/den is floor(v * 2^k),
    which is floor((n1*2^k + t)/den) with t = floor(sqrt3 * n3 * 2^k):
    isqrt(3 * n3^2 * 4^k) for n3 >= 0, and -isqrt(...) - 1 for n3 < 0,
    because sqrt3 * n3 * 2^k is irrational when n3 != 0.  No float is
    involved.

    Why the order holds: for distinct v, w of the list,
    v - w = (A + B*sqrt3)/(den_v * den_w) with |A|, |B| < 2^(2m+1).  The
    norm A^2 - 3 B^2 = (A + B*sqrt3)(A - B*sqrt3) is a nonzero integer, so
    |A + B*sqrt3| >= 1/|A - B*sqrt3| >= 1/(|A| + 2|B|) > 2^-(2m+3), and
    |v - w| > 2^-(2m+3) / 2^(2m) = 2^-(4m+3).  Scaled by 2^k the two values
    are more than 2 apart, so their floors differ in the same direction,
    while equal values get equal floors.
    """
    bits = 0  # has the largest bit length of any part
    for v in values:
        bits |= abs(v.n1) | abs(v.n3) | v.den
    k = 4 * bits.bit_length() + 4
    keys = []
    for v in values:
        n3 = v.n3
        t = math.isqrt(3 * n3 * n3 << 2 * k)
        keys.append(((v.n1 << k) + (t if n3 >= 0 else -t - 1)) // v.den)
    return keys


def qr3_sign(x: QRoot3) -> int:
    """Sign of r + s*sqrt3 in {-1, 0, +1}; the shared positive denominator
    cannot change it."""
    return _sign(x.n1, x.n3)
