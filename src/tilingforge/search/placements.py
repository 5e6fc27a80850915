"""Corner-filling placement enumeration.

At the active corner of the region the filling is canonical: the first
tile against the outgoing boundary edge is placed, so every candidate has
one tile angle at the corner and one tile edge starting along the
outgoing edge.  Filling counterclockwise-first is exhaustive: any tiling,
restricted to a corner, lists its tiles in ccw order from the outgoing
edge, and each becomes the flush candidate once its predecessors are
placed.  Two candidates per angle arise from the two ways to assign the
angle's adjacent edges; they are mirror images of each other.

A boundary edge's direction fixes the candidates' shapes, and the search
meets few directions, so `TileGeometry.frame` builds them once per
direction as offsets from the corner, with their chirality; a node adds
them to its corner.  That is exact: a translate has the same sides and
orientation, so it is congruent with the same chirality, and an edge d
on the ray of the unit vector u has |d| = d.x / u.x.  No square root,
division, rotation or chirality test is made per node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..constraints import side_compositions, tile_angle_sums
from ..exactnum import QRoot3
from ..geometry import AngleVec, Point, orientation, segment_length, squared_distance
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
        mirrored = obj["mirrored"]
        if not isinstance(mirrored, bool):
            raise ValueError(f"mirrored must be a JSON boolean, not {mirrored!r}")
        return Placement(verts, mirrored)


@dataclass(frozen=True)
class Candidate:
    placement: Placement  # its first vertex is the corner
    angle_name: str  # which tile angle sits at the corner
    # the region left once the placement is made; None if it does not fit
    remainder: Optional[list[Polygon]] = field(compare=False)


class TileGeometry:
    """Derived exact data for one tile: angle vectors, adjacent edge
    lengths, the rays of the tile-angle sums in (0, 2*pi) (from
    `tile_angle_sums`, for the rest of a corner), representable edge
    lengths, and one candidate frame per boundary direction, built on
    first use (`frame`)."""

    def __init__(self, tile: TileShape):
        self.tile = tile
        self.angles = []
        for name, (e1, e2) in (("alpha", (tile.b, tile.c)),
                               ("beta", (tile.a, tile.c)),
                               ("gamma", (tile.a, tile.b))):
            cos_v, sin_v = tile.angle_vec(name)
            self.angles.append((name, cos_v, sin_v, e1, e2))
        self._angle_rays = frozenset(a.ray_key() for _, a in tile_angle_sums(tile))
        self._length_cache: dict[tuple, bool] = {}
        self._frames: dict[tuple, tuple] = {}

    # -- representable corner angles and edge lengths ---------------------------

    def angle_representable(self, ang: AngleVec) -> bool:
        return ang.ray_key() in self._angle_rays

    def length_representable(self, length: QRoot3) -> bool:
        """length = p*a + q*b + r*c with nonnegative integers, exactly."""
        key = (length.n1, length.n3, length.den)
        hit = self._length_cache.get(key)
        if hit is None:
            hit = self._length_cache[key] = bool(side_compositions(self.tile, length))
        return hit

    # -- candidate frames per boundary direction ------------------------------

    def frame(self, d: Point) -> tuple:
        """The frame of boundary edge d = next - corner, built on first use
        of its ray: the edge is d.x * per_unit long (d.y if on_y), and each
        tile angle gives (name, phi, cos, sin, options), each edge order an
        option (flush_len, f_off, g_off, mirrored) for the candidate
        (v, v + f_off, v + g_off) at corner v; repeats are dropped."""
        key = AngleVec._of(*d.form[:4]).ray_key()
        if key in self._frames:
            return self._frames[key]
        origin = Point(QRoot3(0), QRoot3(0))
        length = segment_length(origin, d)
        u = Point(d.x / length, d.y / length)
        on_y = u.x.is_zero()
        angles, seen = [], set()
        for name, cos_v, sin_v, e1, e2 in self.angles:
            ray = Point(u.x * cos_v - u.y * sin_v, u.x * sin_v + u.y * cos_v)
            options = []
            for flush_len, other_len in ((e1, e2), (e2, e1)):
                offs = (u.scale(flush_len), ray.scale(other_len))
                if offs not in seen:
                    seen.add(offs)
                    mirrored = placement_chirality(self.tile, Placement((origin,) + offs, False))
                    assert mirrored is not None, "constructed placement must be congruent"
                    options.append((flush_len, *offs, mirrored))
            if options:
                angles.append((name, AngleVec(cos_v, sin_v), cos_v, sin_v, options))
        fr = self._frames[key] = ((u.y if on_y else u.x).inverse(), on_y, angles)
        return fr


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
    angles, verts = region.angles, region.vertices
    best = 0
    for i in range(1, len(angles)):
        order = angles[i].compare(angles[best])
        if order < 0 or (order == 0 and verts[i].lex_less(verts[best])):
            best = i
    return best


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
    are kept too, with remainder None.  Shapes, chirality and the edge's
    length come from the edge's frame: a candidate costs two point sums.
    """
    v = region.vertices[corner]
    j = (corner + 1) % len(region)
    d = region.vertices[j] - v
    per_unit, on_y, angles = geom.frame(d)
    boundary_len = (d.y if on_y else d.x) * per_unit
    theta = region.interior_angle(corner)
    next_angle_reflex = region.interior_angle(j).is_reflex()

    out: list[Candidate] = []
    for name, phi, cos_v, sin_v, options in angles:
        if theta.compare(phi) < 0:
            continue
        rest = theta.minus_rotation(cos_v, sin_v)
        if not rest.is_zero_mod_2pi() and not geom.angle_representable(rest):
            continue
        for flush_len, f_off, g_off, mirrored in options:
            if flush_len > boundary_len and not next_angle_reflex:
                continue
            if flush_len < boundary_len and not geom.length_representable(boundary_len - flush_len):
                continue
            if mirrored and not allow_mirror:
                continue
            placement_vertices = (v, v + f_off, v + g_off)
            remainder = place(region, placement_vertices)
            if check_fit and remainder is None:
                continue
            out.append(Candidate(Placement(placement_vertices, mirrored), name, remainder))
    return out
