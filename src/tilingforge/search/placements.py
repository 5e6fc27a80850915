"""Corner-filling placement enumeration.

At the active corner of the region the filling is canonical: the first
tile against the outgoing boundary edge is placed, so every candidate has
one tile angle at the corner and one tile edge starting along the
outgoing edge.  Filling counterclockwise-first is exhaustive: any tiling,
restricted to a corner, lists its tiles in ccw order from the outgoing
edge, and each becomes the flush candidate once its predecessors are
placed.  Two candidates per angle arise from the two ways to assign the
angle's adjacent edges; they are mirror images of each other.

A corner's kind fixes which candidate shapes pass the angle, length and
mirror filters: its outgoing edge as an exact vector, its interior angle
and whether the next corner is reflex.  The search meets few kinds, so
`TileGeometry.shapes` keeps one shape list per kind, built on a table miss
and reused by every later corner of that kind; a node adds the shapes to
its corner.  The table holds only the shapes the search may place: built
with allow_mirror=False, it drops the mirrored ones.  A miss filters the
frame of the edge's ray, kept per ray as offsets from the corner with
their chirality and found by the integer direction that keys the table
(no node looks a frame up), so the edge's length is one normalisation.
A frame is the tile's own frame, built once with its flush edges on the
positive x-axis, each chirality tested once and repeated options dropped,
turned onto the ray's unit vector u.  That is exact: a rotation and a
translate keep lengths, orientation and distinctness, so each option is
congruent with the same chirality and the same options repeat, and an
edge d on the ray of u has |d| = d.x / u.x.  No square root, division,
rotation, chirality test or filter is run per node.

A backtracking search meets the same triangle at the same corner of many
regions, so `TileGeometry` keeps each placed triangle, keyed by the
`Point.key` of the corner and of the shape option's two offsets: its
three points, built the first time, and its code table for the fit test
(`region.fit`).  A candidate met before costs no point sum, and its fit
test takes the signs only of the vertices its table misses; the table is
exact, so the verdicts and the tree are those of fresh signs.

A candidate keeps its placement, its tile angle and the points where the
fit test found the boundaries meet; the search splices its remainder from
them when it enters it (`TilingSearch._apply`), so only the candidates it
enters are spliced.  The placement record and its congruence test
`placement_chirality` belong to the certificate checker and are imported
from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from ..constraints import side_compositions, tile_angle_sums
from ..exactnum import QRoot3
from ..geometry import AngleVec, Point, _of_form, segment_length
from ..tilealgebra import TileShape
from .certificate import Placement, placement_chirality
from .region import Polygon, fit, place


@dataclass(frozen=True)
class Candidate:
    placement: Placement  # its first vertex is the corner
    angle_name: str  # which tile angle sits at the corner
    # the points where the boundaries of the region and the tile meet (`fit`)
    touch: list = field(compare=False, repr=False)


class TileGeometry:
    """Derived exact data for one tile: twice its area, angle vectors,
    adjacent edge lengths, the rays of the tile-angle sums in (0, 2*pi)
    (from `tile_angle_sums`, for the rest of a corner), representable edge
    lengths, the tile's own frame (`_axis`), one candidate frame per
    boundary direction turned from it and one list of candidate shapes per
    corner kind (`shapes`), these two built on first use, and the table of
    placed triangles (`candidate_placements`); with allow_mirror=False the
    shape lists hold no mirrored copy."""

    def __init__(self, tile: TileShape, allow_mirror: bool = True):
        self.tile = tile
        self.allow_mirror = allow_mirror
        self.area2 = tile.area * 2
        self.angles = []
        for name, (e1, e2) in (("alpha", (tile.b, tile.c)),
                               ("beta", (tile.a, tile.c)),
                               ("gamma", (tile.a, tile.b))):
            cos_v, sin_v = tile.angle_vec(name)
            self.angles.append((name, cos_v, sin_v, e1, e2))
        self._angle_rays = frozenset(a.ray_key() for _, a in tile_angle_sums(tile))
        self._axis = self._axis_frame()
        self._length_cache: dict[tuple, bool] = {}
        self._frames: dict[tuple, tuple] = {}
        self._shapes: dict[tuple, list] = {}
        self._placed: dict[tuple, tuple] = {}

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
        length and mirror filters.  The list is kept per corner kind (b - a
        in lowest terms, theta's ray and next_reflex) and built for the
        first corner of its kind."""
        ax1, ax3, ay1, ay3, ad = a.form
        bx1, bx3, by1, by3, bd = b.form
        d = (bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd, by1 * ad - ay1 * bd, by3 * ad - ay3 * bd, ad * bd)
        g = gcd(*d)
        key = (*[t // g for t in d], theta.ray_key(), next_reflex)
        hit = self._shapes.get(key)
        if hit is None:
            hit = self._shapes[key] = self._shape_list(d, theta, next_reflex)
        return hit

    def _shape_list(self, d: tuple, theta: AngleVec, next_reflex: bool) -> list:
        """`shapes` for a corner kind met for the first time, filtered from
        the frame of the edge's integer direction d (b - a times the
        denominators of a and b, then their product).  The frame is kept
        per ray and built on first use (`_frame`); each tile angle gives
        (name, phi, options), phi its `AngleVec`, and each edge order an
        option (flush_len, f_off, g_off, mirrored) for the candidate
        (a, a + f_off, a + g_off)."""
        dx1, dx3, dy1, dy3, dd = d
        ray = AngleVec._of(dx1, dx3, dy1, dy3).ray_key()
        fr = self._frames.get(ray)
        if fr is None:
            fr = self._frames[ray] = self._frame(_of_form(*d))
        per_unit, on_y, angles = fr
        n1, n3 = (dy1, dy3) if on_y else (dx1, dx3)
        p1, p3, pd = per_unit.n1, per_unit.n3, per_unit.den
        boundary_len = QRoot3._raw(n1 * p1 + 3 * n3 * p3, n1 * p3 + n3 * p1, dd * pd)
        out = []
        for name, phi, options in angles:
            if theta.compare(phi) < 0:
                continue
            rest = theta.minus_rotation(phi)
            if not rest.is_zero_mod_2pi() and not self.angle_representable(rest):
                continue
            kept = [(f_off, g_off, mirrored) for flush_len, f_off, g_off, mirrored in options
                    if (self.allow_mirror or not mirrored)
                    and (flush_len <= boundary_len or next_reflex)
                    and (flush_len >= boundary_len or self.length_representable(boundary_len - flush_len))]
            if kept:
                out.append((name, kept))
        return out

    def _axis_frame(self) -> list:
        """The tile's own frame, its flush edges on the positive x-axis: for
        each tile angle (name, phi, options), phi its `AngleVec`, each
        option (flush_len, f, g, mirrored) the placement (0, f, g) with its
        chirality; an option that repeats an earlier one is dropped."""
        zero = QRoot3(0)
        origin = Point(zero, zero)
        angles, seen = [], set()
        for name, cos_v, sin_v, e1, e2 in self.angles:
            options = []
            for flush_len, other_len in ((e1, e2), (e2, e1)):
                offs = (Point(flush_len, zero), Point(cos_v * other_len, sin_v * other_len))
                if offs not in seen:
                    seen.add(offs)
                    mirrored = placement_chirality(self.tile, Placement((origin,) + offs, False))
                    assert mirrored is not None, "constructed placement must be congruent"
                    options.append((flush_len, *offs, mirrored))
            if options:
                angles.append((name, AngleVec(cos_v, sin_v), options))
        return angles

    def _frame(self, d: Point) -> tuple:
        """(per_unit, on_y, angles) for the ray of d: an edge e on it is
        e.x * per_unit long (e.y if on_y).  The angles are the tile's own
        frame (`_axis`), (name, phi, options), with each option turned onto
        d's unit vector."""
        length = segment_length(Point(QRoot3(0), QRoot3(0)), d)
        u = Point(d.x / length, d.y / length)
        on_y = u.x.is_zero()
        angles = [(name, phi, [(flush_len, _turned(u, f), _turned(u, g), mirrored)
                               for flush_len, f, g, mirrored in options])
                  for name, phi, options in self._axis]
        return (u.y if on_y else u.x).inverse(), on_y, angles


def _turned(u: Point, p: Point) -> Point:
    """p rotated by the angle of the unit vector u, (u.x p.x - u.y p.y,
    u.y p.x + u.x p.y), on the integer forms."""
    ux1, ux3, uy1, uy3, ud = u.form
    px1, px3, py1, py3, pd = p.form
    return _of_form(ux1 * px1 + 3 * ux3 * px3 - uy1 * py1 - 3 * uy3 * py3,
                    ux1 * px3 + ux3 * px1 - uy1 * py3 - uy3 * py1,
                    uy1 * px1 + 3 * uy3 * px3 + ux1 * py1 + 3 * ux3 * py3,
                    uy1 * px3 + uy3 * px1 + ux1 * py3 + ux3 * py1,
                    ud * pd)


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


def candidate_placements(region: Polygon, corner: int, geom: TileGeometry) -> list[Candidate]:
    """All tile placements with an angle flush at the given corner and an
    edge starting along the outgoing boundary edge, in canonical order.

    Filters: the tile angle fits (the rest of the corner is zero or still a
    nonnegative combination of tile angles), the flush boundary edge keeps
    a representable remainder (or the far corner is reflex and the tile
    overhangs it, which the exact containment check then vets), the copy is
    direct if the search allows no mirrored one, and the tile lies inside
    the region (`fit`).  The search splices a candidate's remainder when it
    enters it.  The shapes that pass the angle, length and mirror filters,
    with their chirality, come from the corner's kind
    (`TileGeometry.shapes`), and each candidate's triangle and code table
    from the table of placed triangles, built on first sight.
    """
    verts, angles = region.vertices, region.angles
    v = verts[corner]
    j = (corner + 1) % len(verts)
    shapes = geom.shapes(v, verts[j], angles[corner], angles[j].is_reflex())
    placed = geom._placed
    out: list[Candidate] = []
    for name, options in shapes:
        for f_off, g_off, mirrored in options:
            key = (v.key, f_off.key, g_off.key)
            hit = placed.get(key)
            if hit is None:
                hit = placed[key] = ((v, v + f_off, v + g_off), {})
            tri, codes = hit
            touch = fit(region, tri, codes)
            if touch is not None:
                out.append(Candidate(Placement(tri, mirrored), name, touch))
    return out
