"""Corner-filling placement enumeration.

At the active corner of the region the filling is canonical: the first
tile against the outgoing boundary edge is placed, so every candidate has
one tile angle at the corner and one tile edge starting along the
outgoing edge.  Filling counterclockwise-first is exhaustive: any tiling,
restricted to a corner, lists its tiles in ccw order from the outgoing
edge, and each becomes the flush candidate once its predecessors are
placed.  Two candidates per angle arise from the two ways to assign the
angle's adjacent edges; they are mirror images of each other.

A corner's kind fixes which candidate shapes pass the angle and length
filters: its outgoing edge as an exact vector, its interior angle and
whether the next corner is reflex.  The search meets few kinds, so
`TileGeometry.shapes` keeps one shape list per kind, built on a table miss
and reused by every later corner of that kind; a node adds the shapes to
its corner.  A miss filters the frame of the edge's direction, which
`TileGeometry.frame` builds once per direction as offsets from the corner,
with their chirality.  That is exact: a translate has the same sides and
orientation, so it is congruent with the same chirality, and an edge d
on the ray of the unit vector u has |d| = d.x / u.x.  The frame is found
by the edge's integer direction (the difference of its ends' integer
forms), so the edge's length is one normalisation.  No square root,
division, rotation, chirality test or filter is run per node.

The fit test's `sides` rows of the flush line (the outgoing edge) and of
the ray line (shared by both edge orders of a tile angle) are taken once
per corner and once per angle, so a candidate takes only its far edge's
row.  A candidate keeps what the fit test found and builds its remainder
on first use, checked against the tile's exact area: the search splices
only the candidates it enters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Optional

from ..constraints import side_compositions, tile_angle_sums
from ..exactnum import QRoot3
from ..geometry import AngleVec, Point, orientation, segment_length, sides, squared_distance
from ..tilealgebra import TileShape
from .region import Polygon, fit, place, splice


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
    # the region it is placed in and the points where their boundaries
    # meet (`fit`), None if it does not fit; twice the tile's area
    region: Polygon = field(compare=False, repr=False)
    touch: Optional[list] = field(compare=False, repr=False)
    area2: QRoot3 = field(compare=False, repr=False)

    @cached_property
    def remainder(self) -> Optional[list[Polygon]]:
        """The region left once the placement is made, spliced on first
        use; None if it does not fit."""
        if self.touch is None:
            return None
        return splice(self.region, self.placement.vertices, self.touch, self.area2)


class TileGeometry:
    """Derived exact data for one tile: twice its area, angle vectors,
    adjacent edge lengths, the rays of the tile-angle sums in (0, 2*pi)
    (from `tile_angle_sums`, for the rest of a corner), representable edge
    lengths, one candidate frame per boundary direction (`frame`) and one
    list of candidate shapes per corner kind (`shapes`), each built on
    first use."""

    def __init__(self, tile: TileShape):
        self.tile = tile
        self.area2 = tile.area * 2
        self.angles = []
        for name, (e1, e2) in (("alpha", (tile.b, tile.c)),
                               ("beta", (tile.a, tile.c)),
                               ("gamma", (tile.a, tile.b))):
            cos_v, sin_v = tile.angle_vec(name)
            self.angles.append((name, cos_v, sin_v, e1, e2))
        self._angle_rays = frozenset(a.ray_key() for _, a in tile_angle_sums(tile))
        self._length_cache: dict[tuple, bool] = {}
        self._frames: dict[tuple, tuple] = {}
        self._shapes: dict[tuple, list] = {}

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

    # -- candidate shapes per corner kind ----------------------------------------

    def shapes(self, a: Point, b: Point, theta: AngleVec, next_reflex: bool) -> list:
        """The candidate shapes at the corner a, with outgoing edge a -> b,
        interior angle theta and the next corner reflex or not: for each
        tile angle that passes the angle filter, in frame order, (name,
        options), each option (f_off, g_off, mirrored) one that passes the
        length filter.  The list is kept per corner kind (b - a in lowest
        terms, theta's ray and next_reflex) and built for the first corner
        of its kind."""
        ax1, ax3, ay1, ay3, ad = a.form
        bx1, bx3, by1, by3, bd = b.form
        d = (bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd, by1 * ad - ay1 * bd, by3 * ad - ay3 * bd, ad * bd)
        g = gcd(*d)
        key = (*[t // g for t in d], theta.ray_key(), next_reflex)
        hit = self._shapes.get(key)
        if hit is None:
            hit = self._shapes[key] = self._shape_list(a, b, theta, next_reflex)
        return hit

    def _shape_list(self, a: Point, b: Point, theta: AngleVec, next_reflex: bool) -> list:
        """`shapes` for a corner kind met for the first time, filtered from
        the frame of a -> b."""
        boundary_len, angles = self.frame(a, b)
        out = []
        for name, phi, cos_v, sin_v, options in angles:
            if theta.compare(phi) < 0:
                continue
            rest = theta.minus_rotation(cos_v, sin_v)
            if not rest.is_zero_mod_2pi() and not self.angle_representable(rest):
                continue
            kept = [(f_off, g_off, mirrored) for flush_len, f_off, g_off, mirrored in options
                    if (flush_len <= boundary_len or next_reflex)
                    and (flush_len >= boundary_len or self.length_representable(boundary_len - flush_len))]
            if kept:
                out.append((name, kept))
        return out

    # -- candidate frames per boundary direction ------------------------------

    def frame(self, a: Point, b: Point) -> tuple:
        """(length, angles) of the boundary edge a -> b: its length, and the
        frame of its ray, found by its integer direction d (b - a times the
        denominators of a and b) and built on first use (`_frame`).  Each
        tile angle gives (name, phi, cos, sin, options), each edge order an
        option (flush_len, f_off, g_off, mirrored) for the candidate
        (a, a + f_off, a + g_off)."""
        ax1, ax3, ay1, ay3, ad = a.form
        bx1, bx3, by1, by3, bd = b.form
        dx1, dx3, dy1, dy3 = bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd, by1 * ad - ay1 * bd, by3 * ad - ay3 * bd
        key = AngleVec._of(dx1, dx3, dy1, dy3).ray_key()
        fr = self._frames.get(key)
        if fr is None:
            fr = self._frames[key] = self._frame(b - a)
        per_unit, on_y, angles = fr
        n1, n3 = (dy1, dy3) if on_y else (dx1, dx3)
        p1, p3, pd = per_unit.n1, per_unit.n3, per_unit.den
        return QRoot3._raw(n1 * p1 + 3 * n3 * p3, n1 * p3 + n3 * p1, ad * bd * pd), angles

    def _frame(self, d: Point) -> tuple:
        """(per_unit, on_y, angles) for the ray of d: an edge e on it is
        e.x * per_unit long (e.y if on_y); repeated options are dropped."""
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
        return (u.y if on_y else u.x).inverse(), on_y, angles


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
    tile lies inside the region (`fit`).  Each candidate builds its
    remainder when first asked; with check_fit=False the candidates that
    do not fit are kept too, with remainder None.  The shapes that pass the
    angle and length filters, with their chirality, come from the corner's
    kind (`TileGeometry.shapes`): a candidate costs two point sums and the
    fit test, which takes its far edge's `sides` row.
    """
    verts = region.vertices
    v = verts[corner]
    j = (corner + 1) % len(verts)
    shapes = geom.shapes(v, verts[j], region.interior_angle(corner), region.interior_angle(j).is_reflex())
    out: list[Candidate] = []
    flush_row = None
    for name, options in shapes:
        ray_row = None
        for f_off, g_off, mirrored in options:
            if mirrored and not allow_mirror:
                continue
            tri = (v, v + f_off, v + g_off)
            if flush_row is None:  # every flush edge runs along the outgoing edge
                flush_row = sides(v, verts[j], verts)
            if ray_row is None:  # both edge orders end on the angle's ray
                ray_row = sides(tri[2], v, verts)
            touch = fit(region, tri, flush_row, ray_row)
            if check_fit and touch is None:
                continue
            out.append(Candidate(Placement(tri, mirrored), name, region, touch, geom.area2))
    return out
