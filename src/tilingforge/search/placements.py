"""Corner-filling placement enumeration.

At the active corner of the region the filling is canonical: the first
tile against the outgoing boundary edge is placed, so every candidate has
one tile angle at the corner and one tile edge starting along the
outgoing edge.  Filling counterclockwise-first is exhaustive: any tiling,
restricted to a corner, lists its tiles in ccw order from the outgoing
edge, and each becomes the flush candidate once its predecessors are
placed.  Two candidates per angle arise from the two ways to assign the
angle's adjacent edges; they are mirror images of each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..exactnum import QRoot3
from ..geometry import AngleVec, Point, orientation, squared_distance
from ..tilealgebra import TileShape
from .region import Polygon, place


@dataclass(frozen=True)
class Placement:
    """One congruent copy of the tile: ccw vertices, chirality flag."""

    vertices: tuple[Point, Point, Point]
    mirrored: bool

    def to_json(self):
        return {"v": [v.to_json() for v in self.vertices], "mirrored": self.mirrored}

    @staticmethod
    def from_json(obj) -> "Placement":
        verts = tuple(Point.from_json(v) for v in obj["v"])
        if len(verts) != 3:
            raise ValueError("placement needs exactly three vertices")
        return Placement(verts, bool(obj["mirrored"]))


@dataclass(frozen=True)
class Candidate:
    placement: Placement
    corner: Point
    angle_name: str  # which tile angle sits at the corner
    # the region left once the placement is made; None if it does not fit
    remainder: Optional[list[Polygon]] = field(compare=False)


class TileGeometry:
    """Derived exact data for one tile: angle vectors, adjacent edge
    lengths, representable corner angles and representable edge lengths."""

    def __init__(self, tile: TileShape):
        self.tile = tile
        self.angles = []
        for name, (e1, e2) in (("alpha", (tile.b, tile.c)),
                               ("beta", (tile.a, tile.c)),
                               ("gamma", (tile.a, tile.b))):
            cos_v, sin_v = tile.angle_vec(name)
            self.angles.append((name, cos_v, sin_v, e1, e2))
        self.side_lengths = (tile.a, tile.b, tile.c)
        self._angle_rays = self._representable_angle_rays()
        self._length_cache: dict[tuple, bool] = {}

    # -- representable corner angles -----------------------------------------

    def _representable_angle_rays(self) -> frozenset:
        """Ray keys of every angle i*alpha + j*beta + k*gamma in (0, 2*pi).

        Each loop adds one tile angle as an exact rotation and stops before
        the sum reaches or passes 2*pi.  The AngleVec order on [0, 2*pi)
        decides that: below 2*pi a sum only grows, so a sum that wrapped
        does not compare larger than the one before it.
        """
        (_, ca, sa, _, _), (_, cb, sb, _, _), (_, cg, sg, _, _) = self.angles
        rays = set()
        by_gamma = AngleVec(QRoot3(1), QRoot3(0))
        while by_gamma is not None:
            by_alpha = by_gamma
            while by_alpha is not None:
                by_beta = by_alpha
                while by_beta is not None:
                    if not by_beta.is_zero_mod_2pi():
                        rays.add(by_beta.ray_key())
                    by_beta = _add_below_2pi(by_beta, cb, sb)
                by_alpha = _add_below_2pi(by_alpha, ca, sa)
            by_gamma = _add_below_2pi(by_gamma, cg, sg)
        return frozenset(rays)

    def angle_representable(self, ang: AngleVec) -> bool:
        return ang.ray_key() in self._angle_rays

    # -- representable edge lengths -------------------------------------------

    def length_representable(self, length: QRoot3) -> bool:
        """length = p*a + q*b + r*c with nonnegative integers, exactly."""
        key = (length.n1, length.n3, length.den)
        hit = self._length_cache.get(key)
        if hit is not None:
            return hit
        a, b, c = self.side_lengths
        result = False
        rc = QRoot3(0)
        while rc <= length and not result:
            qb = rc
            while qb <= length and not result:
                rest = length - qb
                ratio = rest / a
                if ratio.is_rational():
                    f = ratio.as_rational()
                    if f >= 0 and f.denominator == 1:
                        result = True
                qb = qb + b
            rc = rc + c
        self._length_cache[key] = result
        return result


def _add_below_2pi(ang: AngleVec, cos_v: QRoot3, sin_v: QRoot3) -> Optional[AngleVec]:
    """ang + phi for an angle phi in (0, pi) given by (cos_v, sin_v), or None
    if the sum reaches or passes 2*pi (then it is not larger than ang)."""
    nxt = ang.minus_rotation(cos_v, -sin_v)
    return nxt if ang.less_than(nxt) else None


def placement_chirality(tile: TileShape, p: Placement) -> Optional[bool]:
    """False for a direct copy, True for a mirrored one, None if the
    placement is not congruent to the tile.

    A direct copy lists its edge lengths counterclockwise as a rotation of
    (c, a, b) (starting at the alpha vertex); a mirrored one as (b, a, c).
    Lengths are positive, so their squares are compared, with no square
    root taken.  For an isosceles tile the two orders agree and direct is
    reported.
    """
    v = p.vertices
    if orientation(*v) <= 0:
        return None
    sq = tuple(squared_distance(v[i], v[(i + 1) % 3]) for i in range(3))
    rotations = (sq, sq[1:] + sq[:1], sq[2:] + sq[:2])
    a2, b2, c2 = tile.side_squares
    if (c2, a2, b2) in rotations:
        return False
    if (b2, a2, c2) in rotations:
        return True
    return None


def select_corner(region: Polygon) -> int:
    """Index of the corner with the smallest interior angle; ties broken by
    lexicographic vertex order."""
    best = None
    best_idx = -1
    for i, ang in enumerate(region.angles):
        if best is None or ang.less_than(best) or (
            ang == best and region.vertices[i].lex_less(region.vertices[best_idx])
        ):
            best, best_idx = ang, i
    return best_idx


def _rotate_dir(u: Point, cos_v: QRoot3, sin_v: QRoot3) -> Point:
    return Point(u.x * cos_v - u.y * sin_v, u.x * sin_v + u.y * cos_v)


def tile_fits_in_region(region: Polygon, tri: tuple[Point, Point, Point]) -> bool:
    """Exact containment: no proper edge crossing, no boundary portion
    inside the tile, and an interior point of the tile inside the region
    (the fit test of `place`)."""
    return place(region, tri) is not None


def candidate_placements(
    region: Polygon,
    corner: int,
    geom: TileGeometry,
    allow_mirror: bool = True,
    check_fit: bool = True,
) -> list[Candidate]:
    """All tile placements with an angle flush at the given corner and an
    edge starting along the outgoing boundary edge, in canonical order.

    Filters: the tile angle fits (the rest of the corner is zero or still a
    nonnegative combination of tile angles), the flush boundary edge keeps
    a representable remainder (or the far corner is reflex and the tile
    overhangs it, which the exact containment check then vets), and the
    tile lies inside the region.  Each candidate carries the remainder that
    `place` leaves; with check_fit=False the candidates that do not fit
    are kept too, with remainder None.
    """
    v = region.vertices[corner]
    nxt = region.vertices[(corner + 1) % len(region)]
    theta = region.interior_angle(corner)
    boundary_len = region.edge_length(corner)
    d = nxt - v
    u_hat = Point(d.x / boundary_len, d.y / boundary_len)
    next_angle_reflex = region.interior_angle((corner + 1) % len(region)).is_reflex()

    out: list[Candidate] = []
    seen = set()
    for name, cos_v, sin_v, e1, e2 in geom.angles:
        phi = AngleVec(cos_v, sin_v)
        if theta.less_than(phi):
            continue
        rest = theta.minus_rotation(cos_v, sin_v)
        if not rest.is_zero_mod_2pi() and not geom.angle_representable(rest):
            continue
        ray_dir = _rotate_dir(u_hat, cos_v, sin_v)
        for flush_len, other_len in ((e1, e2), (e2, e1)):
            if flush_len > boundary_len and not next_angle_reflex:
                continue
            if flush_len < boundary_len:
                if not geom.length_representable(boundary_len - flush_len):
                    continue
            f = v + u_hat.scale(flush_len)
            g = v + ray_dir.scale(other_len)
            placement_vertices = (v, f, g)
            key = tuple(sorted(p.lex_key() for p in placement_vertices))
            if key in seen:
                continue
            mirrored = placement_chirality(geom.tile, Placement(placement_vertices, False))
            assert mirrored is not None, "constructed placement must be congruent"
            if mirrored and not allow_mirror:
                continue
            remainder = place(region, placement_vertices)
            if check_fit and remainder is None:
                continue
            seen.add(key)
            out.append(Candidate(Placement(placement_vertices, mirrored), v, name, remainder))
    return out
