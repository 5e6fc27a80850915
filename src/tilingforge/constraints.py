"""Necessary conditions on a putative tiling.

Vertex splittings (how the target's corner angles decompose into tile
angles), boundary compositions (the 3x3 nonnegative-integer matrix taking
tile sides to target sides), exact area counts, and the coefficient pair
of the side product XZ after eliminating a^2 through the law of cosines.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterator, Optional, Sequence

from .exactnum import QRoot3, qr3_sign
from .geometry import AngleVec, Point, angle_at, polygon_area_twice
from .tilealgebra import TileShape


class ConstraintError(ValueError):
    pass


@dataclass(frozen=True)
class VertexSplit:
    """Total counts (P, Q, R) of alpha, beta, gamma angles at the three
    target corners together."""

    P: int
    Q: int
    R: int

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.P, self.Q, self.R)

    def angle_equation_holds(self, alpha_over_pi: Optional[Fraction]) -> bool:
        """P*alpha + Q*beta + R*gamma = pi, with beta = pi/3 - alpha."""
        if alpha_over_pi is None:
            return self.P == self.Q and Fraction(self.Q, 3) + Fraction(2 * self.R, 3) == 1
        f = Fraction(alpha_over_pi)
        return self.P * f + self.Q * (Fraction(1, 3) - f) + self.R * Fraction(2, 3) == 1


# A corner of the target that is not split carries one tile angle; a split
# corner carries at least two.  Together with R <= 1 (two gamma angles
# exceed pi) the workable enumeration constraint is P + Q >= 4, which keeps
# (0,4,0) and drops the similar-triangle splitting (1,1,1).
_MIN_PQ = 4
# the largest P and Q enumerated
_SPLIT_BOUND = 12


def enumerate_vertex_splits(alpha_over_pi: Optional[Fraction]) -> list[VertexSplit]:
    """All (P, Q, R) with R <= 1, P + Q >= 4, P, Q <= 12 and the angle sum
    exact.

    ``alpha_over_pi`` is the exact value of alpha/pi, in (0, 1/6] (the tile
    keeps a <= b, and the isosceles tile has alpha = pi/6 exactly), or None
    when alpha is not a rational multiple of pi (then only the
    coefficientwise solution (3,3,0) survives).  Always contains (3,3,0).
    """
    if alpha_over_pi is not None and not (0 < alpha_over_pi <= Fraction(1, 6)):
        raise ConstraintError("alpha must lie in (0, pi/6]")
    out = []
    for R in (0, 1):
        for P in range(0, _SPLIT_BOUND + 1):
            for Q in range(0, _SPLIT_BOUND + 1):
                if P + Q < _MIN_PQ:
                    continue
                vs = VertexSplit(P, Q, R)
                if vs.angle_equation_holds(alpha_over_pi):
                    out.append(vs)
    assert VertexSplit(3, 3, 0) in out
    return sorted(out, key=lambda v: (v.R, v.Q, v.P))


def solve_alpha_from_split(P: int, Q: int, R: int) -> Fraction:
    """alpha/pi = (2R + Q - 3) / (3 (Q - P)); defined only when P != Q
    (the splitting system's determinant is 3(Q - P))."""
    if P == Q:
        raise ConstraintError("P = Q makes the splitting system singular")
    return Fraction(2 * R + Q - 3, 3 * (Q - P))


# ---------------------------------------------------------------------------
# target triangle specification


@functools.cache
def tile_angle_sums(tile: TileShape) -> tuple[tuple[tuple[int, int, int], AngleVec], ...]:
    """Every sum i*alpha + j*beta + k*gamma in (0, 2*pi) with its exact
    AngleVec, ordered by (k, i, j); rank 1 marks the sums below pi.
    Enumerated once per tile: the target's corners, the search's candidate
    filter and the resume check all read the same tuple.

    Each loop adds one tile angle, as the rotation by minus its conjugate,
    and stops when the sum no longer compares larger: every tile angle
    lies in (0, pi) and below 2*pi a sum only grows, so a sum that reached
    or passed 2*pi does not compare larger than the one before it.
    """
    def add(ang: AngleVec, step: AngleVec) -> Optional[AngleVec]:
        nxt = ang.minus_rotation(step)
        return nxt if ang.compare(nxt) < 0 else None

    alpha, beta, gamma = (AngleVec(c, -s) for c, s in map(tile.angle_vec, ("alpha", "beta", "gamma")))
    out = []
    by_k, k = AngleVec(QRoot3(1), QRoot3(0)), 0
    while by_k is not None:
        by_i, i = by_k, 0
        while by_i is not None:
            by_j, j = by_i, 0
            while by_j is not None:
                if i or j or k:
                    out.append(((i, j, k), by_j))
                by_j, j = add(by_j, beta), j + 1
            by_i, i = add(by_i, alpha), i + 1
        by_k, k = add(by_k, gamma), k + 1
    return tuple(out)


@dataclass(frozen=True)
class TriangleSpec:
    """Target triangle: sides X >= Y >= Z and, per corner opposite each
    side, the tile-angle combination (i, j, k) composing that corner."""

    angles: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
    X: QRoot3
    Y: QRoot3
    Z: QRoot3

    def sides(self) -> tuple[QRoot3, QRoot3, QRoot3]:
        return (self.X, self.Y, self.Z)

    def vertices(self) -> tuple[Point, Point, Point]:
        return target_vertices(self.X, self.Y, self.Z)

    def similar_to_tile(self) -> bool:
        """Each corner is a single tile angle, one of each."""
        return sorted(self.angles) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]

    def to_json(self) -> dict:
        return {
            "X": self.X.to_json(),
            "Y": self.Y.to_json(),
            "Z": self.Z.to_json(),
            "angles": [list(a) for a in self.angles],
        }

    @staticmethod
    def from_json(obj, tile: TileShape) -> "TriangleSpec":
        """The spec written by to_json for the tile; raises ValueError unless
        it has three corners of nonnegative integer counts, sides
        X >= Y >= Z > 0 with X < Y + Z, and the corners its sides give."""
        angles = tuple(tuple(a) for a in obj["angles"])
        if len(angles) != 3 or not all(
                len(a) == 3 and all(type(k) is int and k >= 0 for k in a) for a in angles):
            raise ValueError("target angles must be three triples of nonnegative integers")
        X, Y, Z = (QRoot3.from_json(obj[k]) for k in "XYZ")
        if not (qr3_sign(Z) > 0 and X >= Y >= Z and X < Y + Z):
            raise ValueError("target sides must satisfy X >= Y >= Z > 0 and X < Y + Z")
        spec = TriangleSpec(angles, X, Y, Z)  # type: ignore[arg-type]
        if triangle_spec(tile, spec.sides()) != spec:
            raise ValueError("target angles do not match its sides")
        return spec


@functools.cache
def target_vertices(X: QRoot3, Y: QRoot3, Z: QRoot3) -> tuple[Point, Point, Point]:
    """(B, C, A): B at the origin, C at (X, 0), apex A above with |AB| = Y
    and |AC| = Z, so a target similar to the tile is a direct copy of it;
    raises if the apex leaves Q(sqrt3)^2.  The target's corner angles, area
    and outline are all read off these vertices."""
    xa = (X * X + Y * Y - Z * Z) / (2 * X)
    ya = (Y * Y - xa * xa).sqrt()
    if ya is None or qr3_sign(ya) <= 0:
        raise ConstraintError("target apex is not representable in Q(sqrt3)")
    return (Point(QRoot3(0), QRoot3(0)), Point(X, QRoot3(0)), Point(xa, ya))


def triangle_spec(tile: TileShape, sides: Sequence[QRoot3]) -> TriangleSpec:
    """Build a TriangleSpec from three side lengths, resolving every corner
    angle, measured at the exact vertices, into a tile-angle combination;
    rejects targets whose angles are not expressible."""
    if len(sides) != 3 or any(qr3_sign(s) <= 0 for s in sides):
        raise ConstraintError("need three positive side lengths")
    X, Y, Z = sorted(sides, reverse=True)
    if X >= Y + Z:
        raise ConstraintError("degenerate triangle")
    sums = tile_angle_sums(tile)
    # several combinations can share a value (e.g. 2a+2b = gamma); sorted
    # so that a corner is given the one with the fewest angles
    combos = sorted(((c, a) for c, a in sums if a.rank == 1), key=lambda ca: (sum(ca[0]), ca[0]))
    try:
        B, C, A = target_vertices(X, Y, Z)
        corners = [angle_at(A, B, C), angle_at(C, A, B), angle_at(B, C, A)]
    except ConstraintError:
        # the apex height is irrational, and so is every corner's sine:
        # no corner matches, and the first one is reported
        corners = [None] * 3
    angles = []
    # the corners opposite X, Y and Z, each with its opposite side first
    for corner, (p, q, r) in zip(corners, ((X, Y, Z), (Y, X, Z), (Z, X, Y))):
        combo = next((c for c, a in combos if a == corner), None)
        if combo is None:
            cos_val = (q * q + r * r - p * p) / (2 * q * r)
            raise ConstraintError(
                f"target corner with cos = {cos_val} is not a combination of tile angles"
            )
        angles.append(combo)
    total = tuple(map(sum, zip(*angles)))
    if not any(c == total and a.rank == 2 for c, a in sums):
        raise ConstraintError("corner angles do not sum to pi")
    return TriangleSpec(tuple(angles), X, Y, Z)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# d-matrices


@dataclass(frozen=True)
class DMatrix:
    """Boundary composition: row * (a, b, c) = side, rows for X, Y, Z."""

    rows: tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]

    def reproduces(self, tile: TileShape, tri: TriangleSpec) -> bool:
        sides = tri.sides()
        for row, side in zip(self.rows, sides):
            if row[0] * tile.a + row[1] * tile.b + row[2] * tile.c != side:
                return False
        return True

    def c_columns_positive(self) -> bool:
        """Every target side carries at least one c edge (column 2 of each row)."""
        return all(row[2] > 0 for row in self.rows)

    def to_json(self) -> list:
        return [list(r) for r in self.rows]


def iter_side_compositions(tile: TileShape, side: QRoot3) -> Iterator[tuple[int, int, int]]:
    """Each nonnegative integer (u1, u2, u3) with u1 a + u2 b + u3 c = side,
    found one at a time, so a caller that asks only whether one exists
    stops at the first."""
    inv_a = tile.a.inverse()
    rest3, u3 = side, 0
    while qr3_sign(rest3) >= 0:
        rest2, u2 = rest3, 0
        while qr3_sign(rest2) >= 0:
            u1 = rest2 * inv_a  # nonnegative, as rest2 and a are
            if u1.n3 == 0 and u1.den == 1:
                yield u1.n1, u2, u3
            rest2, u2 = rest2 - tile.b, u2 + 1
        rest3, u3 = rest3 - tile.c, u3 + 1


def side_compositions(tile: TileShape, side: QRoot3) -> list[tuple[int, int, int]]:
    """Nonnegative integer (u1, u2, u3) with u1 a + u2 b + u3 c = side, sorted."""
    return sorted(iter_side_compositions(tile, side))


def enumerate_dmatrices(tile: TileShape, tri: TriangleSpec) -> list[DMatrix]:
    """All boundary-composition matrices; empty when some side of the target
    cannot be written as a nonnegative combination of tile sides."""
    per_side = [side_compositions(tile, s) for s in tri.sides()]
    return [DMatrix((r1, r2, r3)) for r1, r2, r3 in product(*per_side)]


def area_count(tile: TileShape, tri: TriangleSpec) -> Fraction:
    """Area(target) / Area(tile), exact; integrality is the tiling-necessary
    condition the caller checks."""
    ratio = polygon_area_twice(tri.vertices()) / (2 * tile.area)
    if not ratio.is_rational():
        raise ConstraintError("area quotient is irrational; no tiling is possible")
    return ratio.as_rational()


# ---------------------------------------------------------------------------
# XZ product coefficients


def xz_coefficients(
    row_x: tuple, row_z: tuple, lam: Fraction, mu: Fraction
) -> tuple[Fraction, Fraction]:
    """(rational part, coefficient of a*c) of XZ = (pa + db + ec)(ha + lb + rc)
    after substituting b = lam*a + mu*c and eliminating a^2 via
    a^2 = -mu(2 lam + 1)/(1 + lam + lam^2) ac + c^2 (1 - mu^2)/(1 + lam + lam^2),
    with the tile scaled so c^2 = 3/4."""
    p, d, e = (Fraction(v) for v in row_x)
    h, l, r = (Fraction(v) for v in row_z)
    lam, mu = Fraction(lam), Fraction(mu)
    if lam < 0 or mu < 0:
        raise ConstraintError("need lam, mu >= 0")
    denom = 1 + lam + lam * lam
    c2 = Fraction(3, 4)
    a_coeff = (p + lam * d) * (h + lam * l)
    rational_part = a_coeff * c2 * (1 - mu * mu) / denom + c2 * (d * mu + e) * (l * mu + r)
    ac_part = (
        a_coeff * (-mu * (2 * lam + 1)) / denom
        + (d * mu + e) * (h + lam * l)
        + (p + lam * d) * (l * mu + r)
    )
    return (rational_part, ac_part)


def area_equation_nac_holds(tile: TileShape, n: int, X: QRoot3, Z: QRoot3) -> bool:
    """N a c = X Z, the area equation when the corner between X and Z is beta."""
    return n * tile.a * tile.c == X * Z


def area_equation_nab_holds(tile: TileShape, n: int, X: QRoot3, Z: QRoot3) -> bool:
    """N a b = X Z, the area equation when the corner between X and Z is pi/3."""
    return n * tile.a * tile.b == X * Z
