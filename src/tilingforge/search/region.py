"""Simple-polygon regions and exact placement of a triangle in them.

The uncovered part of the target is a list of simple polygons with
counterclockwise boundary (interior on the left of each directed edge).
`place(region, tri)` decides in one pass whether a triangle lies in the
region and, if it does, what is left of the region.

It first takes the side of every region vertex against each of the three
tile-edge lines (one `sides` call per line), and that table decides which
exact tests are needed.  A region edge is *far* when both its ends lie
strictly outside the same tile line: it can neither cross the tile, nor
pass through a tile vertex, nor share a piece with a tile edge, so no
test looks at it.  Of the other, *near* edges, only one whose endpoints
lie strictly apart on a tile line can properly cross that tile edge.
Only a region vertex on a tile line can cut that tile edge.  Only a
region edge that meets both lines through a tile vertex can be cut there.
And a region edge on the closed outer side of some tile line can neither
cross the tile nor run inside it.  A simple polygon has no vertex inside
its own edges, and neither has a triangle, so these cuts are all there
are: the near edges are cut at the tile's vertices (`cut`), and the
tile's edges, reversed, at the region's vertices.

If no region edge properly crosses a tile edge and no region piece has its
midpoint strictly inside the tile, no point of the region's boundary lies
in the open tile: a piece that entered it would have to cross a tile edge
properly, or both its ends would lie on the tile's boundary and its
midpoint inside.  The open tile is connected, so it then lies wholly inside
or wholly outside the simple region, and one interior point of the tile
decides which.

Opposite pairs of the pieces cancel, and the boundary cycles are
re-extracted by always leaving a vertex along the most-counterclockwise
turn from the reversed incoming direction.  Pinches (a tile touching the
far boundary) then fall out as several independent simple polygons, and a
tile that exactly finishes a region cancels its boundary away entirely.
Every vertex of a far edge lies strictly outside the closed tile, so no
tile piece and no other region edge reaches it: a run of consecutive far
edges enters the walk whole, as one *strand* (a point sequence), never
cancels, and at each vertex inside it the walk has one way on, the
region's own next edge.  Those vertices keep both neighbours, so their
interior angles are carried over from the region; only the vertices
where strands and pieces join are merged or measured again.  A region
whose edges are all far is one closed strand, and the tile is then a
hole, which the walk rejects.  `subtract_triangle` is the remainder of
`place` for a triangle known to fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..exactnum import QRoot3
from ..geometry import (
    AngleVec,
    GeometryError,
    Point,
    angle_at,
    midpoint,
    on_open_segment,
    orientation,
    point_in_polygon,
    polygon_area_twice,
    sides,
    sort_along,
    strictly_inside_triangle,
)


@dataclass(frozen=True, slots=True)
class Polygon:
    """Simple polygon, counterclockwise, no straight-angle vertices."""

    vertices: tuple[Point, ...]
    # twice the area, kept from from_points; None: computed when asked for
    area2: Optional[QRoot3] = field(default=None, compare=False, repr=False)
    # interior angle at each vertex, kept from from_points; None: computed
    # and kept on first use of `angles`
    corner_angles: Optional[tuple[AngleVec, ...]] = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_points(points: Sequence[Point],
                    carried: Optional[Sequence[Optional[AngleVec]]] = None) -> "Polygon":
        """The polygon through `points`, with repeated points and
        straight-angle vertices merged away.  `carried` gives, point by
        point, an interior angle known from a polygon the point keeps both
        its neighbours from, or None; such a vertex is neither merged nor
        measured again."""
        pts, angles = _merge_collinear(list(points), list(carried or [None] * len(points)))
        if len(pts) < 3:
            raise GeometryError("degenerate polygon")
        area2 = polygon_area_twice(pts)
        if area2.sign() <= 0:
            raise GeometryError("polygon is not counterclockwise")
        k = min(range(len(pts)), key=lambda i: pts[i].lex_key())
        return Polygon(tuple(pts[k:] + pts[:k]), area2, tuple(angles[k:] + angles[:k]))

    def __len__(self):
        return len(self.vertices)

    def edge(self, i: int) -> tuple[Point, Point]:
        return (self.vertices[i], self.vertices[(i + 1) % len(self.vertices)])

    def edges(self):
        for i in range(len(self.vertices)):
            yield self.edge(i)

    def area_twice(self) -> QRoot3:
        return self.area2 if self.area2 is not None else polygon_area_twice(self.vertices)

    def area(self) -> QRoot3:
        return self.area_twice() / 2

    @property
    def angles(self) -> tuple[AngleVec, ...]:
        """Interior angle at each vertex: ccw angle from the outgoing edge
        direction to the incoming-reversed direction."""
        if self.corner_angles is None:
            vs = self.vertices
            object.__setattr__(self, "corner_angles", tuple(
                angle_at(vs[i], vs[(i + 1) % len(vs)], vs[i - 1]) for i in range(len(vs))))
        return self.corner_angles

    def interior_angle(self, i: int) -> AngleVec:
        return self.angles[i]

    def contains(self, p: Point) -> str:
        return point_in_polygon(p, self.vertices)


def _merge_collinear(pts: list[Point],
                     angles: list[Optional[AngleVec]]) -> tuple[list[Point], list[AngleVec]]:
    """Drop each point equal to the one before it, then measure the angle at
    every point whose angle is None and drop it if the angle is straight.
    Dropping a straight-angle vertex leaves its neighbours' edge directions,
    and so their angles, as they were."""
    keep = [i for i in range(len(pts)) if angles[i] is not None or pts[i] != pts[i - 1]]
    pts, angles = [pts[i] for i in keep], [angles[i] for i in keep]
    if len(pts) < 3:
        return pts, angles
    out_pts, out_angles = [], []
    n = len(pts)
    for i in range(n):
        ang = angles[i]
        if ang is None:
            ang = angle_at(pts[i], pts[(i + 1) % n], pts[i - 1])
            if ang.rank == 2:
                continue  # an angle of pi: straight continuation
            if ang.is_zero_mod_2pi():
                raise GeometryError("boundary doubles back on itself")
        out_pts.append(pts[i])
        out_angles.append(ang)
    return out_pts, out_angles


def triangle_ccw(a: Point, b: Point, c: Point) -> tuple[Point, Point, Point]:
    s = orientation(a, b, c)
    if s == 0:
        raise GeometryError("degenerate triangle")
    return (a, b, c) if s > 0 else (a, c, b)


def cut(a: Point, b: Point, points: Sequence[Point]) -> list[tuple[Point, Point]]:
    """The pieces of the segment a -> b, cut at those of `points` that lie
    strictly inside it, in order from a."""
    inner = [p for p in points if on_open_segment(p, a, b)]
    if not inner:
        return [(a, b)]
    sort_along(inner, a, b)
    ends = [a, *inner, b]
    return list(zip(ends, ends[1:]))


def _cancel(strands: list[tuple[Point, ...]]) -> dict[tuple, tuple[Point, ...]]:
    """The strands (point sequences of one or more segments), keyed by their
    end points' lex_key() pairs, less each single segment whose reverse is
    also there; a strand of several segments has no reverse among them."""
    keyed: dict[tuple, tuple[Point, ...]] = {}
    for s in strands:
        key = (s[0].lex_key(), s[-1].lex_key())
        if key in keyed:
            raise GeometryError("boundary edge traversed twice in the same direction")
        keyed[key] = s
    return {key: s for key, s in keyed.items()
            if len(s) > 2 or len(keyed.get((key[1], key[0]), ())) != 2}


def _extract_faces(strands: dict[tuple, tuple[Point, ...]]) -> list[list[tuple]]:
    """The boundary cycles, each as the keys of its strands in walk order."""
    # walked in key order, so each vertex lists its outgoing strands by end
    order = sorted(strands)
    outgoing: dict[tuple, list[tuple]] = {}
    for key in order:
        outgoing.setdefault(key[0], []).append(key)
    unused = set(strands)
    faces = []
    for start in order:
        if start not in unused:
            continue
        unused.discard(start)
        face = [start]
        key = start
        while key[1] != start[0]:
            s = strands[key]
            key = _next_edge(s[-2], s[-1], outgoing.get(key[1], ()), strands, unused)
            unused.discard(key)
            face.append(key)
        faces.append(face)
    return faces


def _next_edge(u, v, keys, strands, unused):
    """Key of the unused strand out of v with the most counterclockwise turn
    from the incoming segment u -> v.  A single exit needs no turn angle,
    only the slit test: it must not lead back along v -> u."""
    exits = [key for key in keys if key in unused]
    if len(exits) == 1:
        w = strands[exits[0]][1]
        if orientation(v, u, w) == 0 and angle_at(v, u, w).is_zero_mod_2pi():
            raise GeometryError("slit edge encountered during face walk")
        return exits[0]
    best = None
    best_angle: Optional[AngleVec] = None
    for key in exits:
        # measured from the reversed incoming direction
        ang = angle_at(v, u, strands[key][1])
        if ang.is_zero_mod_2pi():
            raise GeometryError("slit edge encountered during face walk")
        if best_angle is None or best_angle.less_than(ang):
            best, best_angle = key, ang
    if best is None:
        raise GeometryError("open boundary during face walk")
    return best


def _arc(seq: tuple, start: int, stop: int) -> tuple:
    """seq[start:stop] read around the cycle, for start <= len(seq) and
    stop - start <= len(seq)."""
    n = len(seq)
    return seq[start:stop] if stop <= n else seq[start:] + seq[:stop - n]


def place(region: Polygon, tri: tuple[Point, Point, Point]) -> Optional[list[Polygon]]:
    """Place a counterclockwise triangle in the region.

    Returns None if the triangle does not lie in the region: a region edge
    properly crosses a tile edge, a region sub-edge midpoint lies strictly
    inside the tile, or else (the open tile then meets no boundary point,
    so it lies wholly on one side of it) the interior point
    midpoint(tri[0], midpoint(tri[1], tri[2])) lies outside.  Otherwise
    returns the rest of the region as zero or more simple polygons, sorted
    canonically; raises GeometryError if that rest is inconsistent, as it
    is when the triangle touches no part of the region's boundary (a hole).
    """
    verts = region.vertices
    n = len(verts)
    lines = ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0]))
    # side[i][k]: side of region vertex i against tile line k, +1 inner
    side = list(zip(*(sides(a, b, verts) for a, b in lines)))
    # out[i]: bit k set when vertex i lies strictly outside tile line k
    out = [(s0 < 0) | (s1 < 0) << 1 | (s2 < 0) << 2 for s0, s1, s2 in side]
    # the edges that are not far; edge i runs from vertex i - 1 to vertex i
    near = [i for i in range(n) if not out[i - 1] & out[i]]

    strands = []
    for i in near:
        c, d = verts[i - 1], verts[i]
        sc, sd = side[i - 1], side[i]
        # tile vertex k lies on lines k - 1 and k, so the edge must meet both
        meets = [sc[k] * sd[k] <= 0 for k in range(3)]
        pieces = cut(c, d, [tri[k] for k in range(3) if meets[k] and meets[k - 1]])
        strands += pieces
        if any(sc[k] <= 0 and sd[k] <= 0 for k in range(3)):
            continue  # on the closed outer side of a tile line: it keeps out of the tile
        for k in range(3):
            if sc[k] * sd[k] < 0:  # c and d strictly apart: test the reverse pair
                o = orientation(c, d, lines[k][0])
                if o and orientation(c, d, lines[k][1]) == -o:
                    return None  # proper crossing
        if any(strictly_inside_triangle(midpoint(p, q), tri) for p, q in pieces):
            return None
    # no boundary point in the open tile: one interior point decides
    if region.contains(midpoint(tri[0], midpoint(tri[1], tri[2]))) != "inside":
        return None
    for k, (a, b) in enumerate(lines):
        # a vertex strictly outside some line is off every tile edge
        on_line = [p for p, s, o in zip(verts, side, out) if s[k] == 0 and not o]
        strands += [(q, p) for p, q in cut(a, b, on_line)]

    # each run of far edges, from the end of one near edge to the start of
    # the next, is one strand; the angles inside it are carried over
    angles = region.angles
    carried = {}
    for j, i in enumerate(near):
        stop = near[j + 1] if j + 1 < len(near) else near[0] + n
        if stop - i > 1:
            strand = _arc(verts, i, stop)
            strands.append(strand)
            carried[(strand[0].lex_key(), strand[-1].lex_key())] = _arc(angles, i + 1, stop - 1)
    if not near:
        strands.append(verts + verts[:1])
        carried[(verts[0].lex_key(), verts[0].lex_key())] = angles[1:]

    keyed = _cancel(strands)
    polys = []
    for face in _extract_faces(keyed):
        pts, known = [], []
        for key in face:
            pts += keyed[key][:-1]
            known.append(None)
            known += carried.get(key, ())
        polys.append(Polygon.from_points(pts, known))
    _check_area_conservation(region, tri, polys)
    return sorted(polys, key=lambda p: p.vertices[0].lex_key())


def subtract_triangle(region: Polygon, tri: tuple[Point, Point, Point]) -> list[Polygon]:
    """Remove a triangle (given ccw, lying inside the region) from the
    region: the remainder of `place`, which raises GeometryError if the
    triangle does not fit."""
    rest = place(region, tri)
    if rest is None:
        raise GeometryError("triangle does not lie in the region")
    return rest


def _check_area_conservation(region, tri, polys):
    total = polygon_area_twice(tri)
    for p in polys:
        total = total + p.area_twice()
    if total != region.area_twice():
        raise GeometryError("area not conserved by subtraction")
