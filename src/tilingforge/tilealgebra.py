"""Exact trigonometry of the 120-degree tile.

A tile is a triangle with angles alpha < beta < gamma = 2*pi/3 and sides
a, b, c opposite them, so the law of cosines reads c^2 = a^2 + b^2 + a*b.
Sides live in Q(sqrt3), which keeps both the integer tiles and the
isosceles control tile (1, 1, sqrt3) first-class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from .exactnum import QRoot3, SQRT3, niven_classify, qr3_sign, rational_sqrt


class TileError(ValueError):
    """Raised when side triples do not describe a 120-degree tile."""


@dataclass(frozen=True)
class TileShape:
    """Sides a, b, c (c opposite the 120-degree angle), a <= b canonical."""

    a: QRoot3
    b: QRoot3
    c: QRoot3

    @property
    def cos_alpha(self) -> QRoot3:
        return (self.b * self.b + self.c * self.c - self.a * self.a) / (2 * self.b * self.c)

    @property
    def cos_beta(self) -> QRoot3:
        return (self.a * self.a + self.c * self.c - self.b * self.b) / (2 * self.a * self.c)

    @property
    def sin_alpha(self) -> QRoot3:
        # law of sines with sin(gamma) = sqrt3/2
        return self.a * SQRT3 / (2 * self.c)

    @property
    def sin_beta(self) -> QRoot3:
        return self.b * SQRT3 / (2 * self.c)

    @property
    def area(self) -> QRoot3:
        return self.a * self.b * SQRT3 / 4

    def angle_vec(self, which: str) -> tuple[QRoot3, QRoot3]:
        """(cos, sin) of one tile angle, exact."""
        if which == "alpha":
            return (self.cos_alpha, self.sin_alpha)
        if which == "beta":
            return (self.cos_beta, self.sin_beta)
        if which == "gamma":
            return (QRoot3(Fraction(-1, 2)), QRoot3(0, Fraction(1, 2)))
        raise ValueError(which)

    @cached_property
    def side_squares(self) -> tuple[QRoot3, QRoot3, QRoot3]:
        """(a^2, b^2, c^2), squared once per tile."""
        return (self.a * self.a, self.b * self.b, self.c * self.c)

    def is_isosceles(self) -> bool:
        return self.a == self.b

    def side_ratios_rational(self) -> bool:
        return (self.a / self.c).is_rational() and (self.b / self.c).is_rational()

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "b": self.b.to_json(), "c": self.c.to_json()}

    @staticmethod
    def from_json(obj: dict) -> "TileShape":
        return tile_from_sides(
            QRoot3.from_json(obj["a"]), QRoot3.from_json(obj["b"]), QRoot3.from_json(obj["c"])
        )


def tile_from_sides(a, b, c) -> TileShape:
    """Construct a TileShape, verifying the 120-degree law of cosines."""
    a, b, c = _as_qr3(a), _as_qr3(b), _as_qr3(c)
    for side in (a, b, c):
        if qr3_sign(side) <= 0:
            raise TileError("tile sides must be positive")
    if c * c != a * a + b * b + a * b:
        raise TileError(f"sides ({a}, {b}, {c}) violate c^2 = a^2 + b^2 + ab")
    if a > b:
        a, b = b, a
    return TileShape(a, b, c)


def _as_qr3(v) -> QRoot3:
    if isinstance(v, QRoot3):
        return v
    return QRoot3(Fraction(v), 0)


def eisenstein_triple(m: int, n: int) -> tuple[int, int, int]:
    """Integer 120-degree triangle from the parametrization
    (m^2 - n^2, 2mn + n^2, m^2 + mn + n^2); requires m > n >= 1, gcd = 1."""
    if not (m > n >= 1):
        raise ValueError("need m > n >= 1")
    if math.gcd(m, n) != 1:
        raise ValueError("need gcd(m, n) = 1")
    a = m * m - n * n
    b = 2 * m * n + n * n
    c = m * m + m * n + n * n
    assert c * c == a * a + b * b + a * b
    return (a, b, c)


class RelationKind(Enum):
    B_SIDE = "B_SIDE"  # j*b = u*a + v*c
    A_SIDE = "A_SIDE"  # j*a = u*b + v*c
    C_SIDE = "C_SIDE"  # j*c = u*a + v*b (only produced by tiling extraction)


@dataclass(frozen=True)
class EdgeRelation:
    """Integer relation j*<side> = u*<side'> + v*<side''> with gcd(j,u,v)=1."""

    kind: RelationKind
    j: int
    u: int
    v: int

    def __post_init__(self):
        if self.j <= 0 or self.u < 0 or self.v < 0:
            raise ValueError("need j > 0 and u, v >= 0")
        if math.gcd(math.gcd(self.j, self.u), self.v) != 1:
            raise ValueError("relation is not canonical (gcd > 1)")

    def holds_for(self, tile: TileShape) -> bool:
        a, b, c = tile.a, tile.b, tile.c
        if self.kind is RelationKind.B_SIDE:
            return self.j * b == self.u * a + self.v * c
        if self.kind is RelationKind.A_SIDE:
            return self.j * a == self.u * b + self.v * c
        return self.j * c == self.u * a + self.v * b

    def lam_mu(self) -> tuple[Fraction, Fraction]:
        """(lambda, mu) with b = lambda*a + mu*c induced by this relation."""
        if self.kind is RelationKind.B_SIDE:
            return (Fraction(self.u, self.j), Fraction(self.v, self.j))
        if self.kind is RelationKind.A_SIDE:
            if self.u == 0:
                raise ValueError("relation does not determine b")
            return (Fraction(self.j, self.u), Fraction(-self.v, self.u))
        raise ValueError("C_SIDE relation does not determine b linearly in (a, c)")

    def __str__(self) -> str:
        lhs = {"B_SIDE": "b", "A_SIDE": "a", "C_SIDE": "c"}[self.kind.value]
        pieces = {"B_SIDE": ("a", "c"), "A_SIDE": ("b", "c"), "C_SIDE": ("a", "b")}[self.kind.value]
        rhs = " + ".join(f"{k}{s}" for k, s in zip((self.u, self.v), pieces) if k)
        return f"{self.j}{lhs} = {rhs or '0'}"


@dataclass(frozen=True)
class QuadraticSurd:
    """Exact record of a quadratic irrational root x = p + q*sqrt(disc)."""

    quad_a: Fraction
    quad_b: Fraction
    quad_c: Fraction
    disc: Fraction
    p: Fraction
    q: Fraction

    def to_float(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(float(self.disc))


ShapeRoot = Union[QRoot3, QuadraticSurd]


def shape_from_relation(lam: Fraction, mu: Fraction) -> ShapeRoot:
    """The unique x = a/c in (0, 1) with b = lam*a + mu*c and the 120-degree
    law of cosines, i.e. the positive root of

        x^2 (1 + lam + lam^2) + (2 lam + 1) mu x + (mu^2 - 1) = 0.
    """
    lam, mu = Fraction(lam), Fraction(mu)
    if lam < 0 or mu < 0:
        raise ValueError("need lam, mu >= 0")
    if (lam, mu) == (0, 0):
        raise ValueError("relation (0, 0) carries no shape information")
    A = 1 + lam + lam * lam
    B = (2 * lam + 1) * mu
    C = mu * mu - 1
    if mu >= 1:
        # then b = lam*a + mu*c >= c, impossible for a 120-degree tile
        raise TileError("no valid shape: mu >= 1 forces b >= c")
    disc = B * B - 4 * A * C
    assert disc > 0
    root = rational_sqrt(disc)
    if root is not None:
        x = (-B + root) / (2 * A)
        assert 0 < x < 1
        return QRoot3(x, 0)
    root3 = rational_sqrt(disc / 3)
    if root3 is not None:
        x = QRoot3(-B / (2 * A), root3 / (2 * A))
        assert QRoot3(0) < x < QRoot3(1)
        return x
    return QuadraticSurd(A, B, C, disc, p=-B / (2 * A), q=Fraction(1) / (2 * A))


def shape_root_satisfies_quadratic(x: ShapeRoot, lam: Fraction, mu: Fraction) -> bool:
    """Substitute the root back into its defining quadratic; exact zero check."""
    lam, mu = Fraction(lam), Fraction(mu)
    A = 1 + lam + lam * lam
    B = (2 * lam + 1) * mu
    C = mu * mu - 1
    if isinstance(x, QRoot3):
        return (A * x * x + B * x + C).is_zero()
    # x = p + q sqrt(disc): expand exactly over Q(sqrt(disc))
    rat = A * (x.p * x.p + x.q * x.q * x.disc) + B * x.p + C
    irr = A * 2 * x.p * x.q + B * x.q
    return rat == 0 and irr == 0


def side_ratio_pair(x: QRoot3) -> Optional[tuple[QRoot3, QRoot3]]:
    """(a/c, b/c) for a tile with a/c = x, if b/c lies in Q(sqrt3)."""
    y2 = (4 - 3 * x * x) / 4  # b/c solves y^2 + x y + (x^2 - 1) = 0
    root = y2.sqrt()
    if root is None:
        return None
    y = root - x / 2
    if qr3_sign(y) <= 0:
        return None
    return (x, y)


def relation_from_shape(x, max_j: int = 12) -> list[EdgeRelation]:
    """All canonical edge relations with j <= max_j holding exactly for the
    tile with a/c = x.  Accepts a rational or a Q(sqrt3) value."""
    x = _as_qr3(x)
    if not (QRoot3(0) < x < QRoot3(1)):
        raise ValueError("need 0 < a/c < 1")
    pair = side_ratio_pair(x)
    if pair is not None:
        return relations_for_tile(TileShape(*pair, QRoot3(1)), max_j=max_j)
    # b/c leaves Q(sqrt3), so no relation holds with a b-term; j*a = v*c
    # holds only for x = p/q in lowest terms, as q*a = p*c
    if not x.is_rational() or x.as_rational().denominator > max_j:
        return []
    x = x.as_rational()
    return [EdgeRelation(RelationKind.A_SIDE, x.denominator, 0, x.numerator)]


def relations_for_tile(tile: TileShape, max_j: int = 12) -> list[EdgeRelation]:
    """All canonical relations j*a = u*b + v*c and j*b = u*a + v*c with
    j <= max_j holding exactly for the tile, sorted by kind, j and u."""
    rels: list[EdgeRelation] = []
    x, y = tile.a / tile.c, tile.b / tile.c
    for kind, lhs, unit in ((RelationKind.A_SIDE, x, y), (RelationKind.B_SIDE, y, x)):
        for j in range(1, max_j + 1):
            # rest = j*lhs - u*unit for u = 0, 1, ... while it stays >= 0
            rest, u = j * lhs, 0
            while qr3_sign(rest) >= 0:
                if rest.is_rational():
                    v = rest.as_rational()
                    if v.denominator == 1 and math.gcd(j, u, v.numerator) == 1:
                        rels.append(EdgeRelation(kind, j, u, v.numerator))
                rest, u = rest - unit, u + 1
    assert all(r.holds_for(tile) for r in rels)
    return rels


def cos_ratio(tile: TileShape) -> Fraction:
    """(a + 2b) / (2a + b) for tiles with rational side ratios; asserted to
    equal cos(alpha)/cos(beta) exactly."""
    ratio = (tile.a + 2 * tile.b) / (2 * tile.a + tile.b)
    if not ratio.is_rational():
        raise TileError("tile sides are not commensurable")
    direct = tile.cos_alpha / tile.cos_beta
    assert direct == ratio
    return ratio.as_rational()


@dataclass(frozen=True)
class TileReport:
    integer_similar: bool
    alpha_rational_multiple_of_pi: bool
    alpha_over_pi: Optional[Fraction]  # set only when the alpha flag is true


def classify_tile(tile: TileShape) -> TileReport:
    """Integer-similarity and rationality (in pi) of the smallest angle.

    cos(alpha) lies in Q(sqrt3).  The rational multiples of pi whose cosine
    has degree <= 2 have cosine in {0, +-1/2, +-1, +-sqrt2/2, +-sqrt3/2,
    (+-1+-sqrt5)/4}; intersected with Q(sqrt3) that leaves the rational
    values and +-sqrt3/2, so the flag is decidable for every tile here.
    """
    integer_similar = tile.side_ratios_rational()
    cos_a = tile.cos_alpha
    if cos_a.is_rational():
        frac = niven_classify(cos_a.as_rational())
        return TileReport(integer_similar, frac is not None, frac)
    if cos_a == QRoot3(0, Fraction(1, 2)):
        return TileReport(integer_similar, True, Fraction(1, 6))
    if cos_a == QRoot3(0, Fraction(-1, 2)):
        return TileReport(integer_similar, True, Fraction(5, 6))
    return TileReport(integer_similar, False, None)


def find_eisenstein_parameters(a, b, c) -> Optional[tuple[int, int, QRoot3]]:
    """(m, n, k) with (a, b, c) = k * eisenstein_triple(m, n) (or with the
    first two sides swapped), if the tile admits the parametrization.  The
    sides are exact: int, Fraction or QRoot3, and so is the scale k.

    The triple has a + c = m(2m + n) and b = n(2m + n), so m : n is the
    rational (a + c) / b in lowest terms, or (b + c) / a for the swapped
    sides; the smallest verified candidate by (m, n, swapped) is returned."""
    a, b, c = _as_qr3(a), _as_qr3(b), _as_qr3(c)
    found = []
    for swapped, (pa, pb) in enumerate(((a, b), (b, a))):
        ratio = (pa + c) / pb
        if not ratio.is_rational():
            continue
        m, n = ratio.as_rational().as_integer_ratio()
        if not m > n >= 1:
            continue
        ta, tb, tc = eisenstein_triple(m, n)
        if ta * pb == tb * pa and ta * c == tc * pa:
            found.append((m, n, swapped, pa / ta))
    if not found:
        return None
    m, n, _, k = min(found)
    return (m, n, k)
