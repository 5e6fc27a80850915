"""Simple-polygon regions and exact placement of a triangle in them.

The uncovered part of the target is a list of simple polygons with
counterclockwise boundary (interior on the left of each directed edge).
`place(region, tri)` decides whether a triangle lies in the region and,
if it does, what is left of the region: the fit test `fit` returns the
points where the two boundaries meet, or None, and `splice` builds the
rest from them.  The search splices only the candidates it enters.

The fit test takes the side of every region vertex against each of the
three tile-edge lines, and decides from that sign table, not from new
determinants, wherever it can (exact geometric computation; Yap, CGTA 7,
1997).  The caller passes the triangle's code table, each point's signs
as its code (see below) keyed by `Point.key`; the fit test computes the
codes of the vertices missing from it, one `sides` row per tile line over
those vertices only, and adds them.  `place` passes an empty table; the
search keeps one table per placed triangle (`TileGeometry`), so it takes
each sign once however often it meets the triangle again.  A region edge
is *far* when both its ends lie strictly outside the same tile line: it
can neither cross the tile, nor pass through a tile vertex, nor share a
piece with a tile edge, so no test looks at it.  On the other, *near*
edges three rules read the sign table:

- *Cuts.*  A simple polygon has no vertex inside its own edges, and
  neither has a triangle, so a near edge is cut at the tile vertices
  inside it and nowhere else.  Tile vertex k, on lines k - 1 and k, lies
  inside an edge that is on one of them and strictly across the other,
  which takes no arithmetic, and inside an edge strictly across both
  exactly when the edge's line passes through it.
- *Pieces.*  A tile vertex is on its two lines and strictly inside the
  third.  A piece strictly across a tile line meets that line outside the
  closed tile (a proper crossing is excluded, and no tile vertex lies
  inside a piece), so it keeps out of the open tile; any other piece has
  its midpoint strictly inside the tile iff each line has an end strictly
  inside it and none strictly outside.
- *Crossings.*  Only an edge whose ends lie strictly apart on a tile line
  can properly cross that tile edge.  Strictly across one tile line, with
  an end strictly inside each other line and none outside, it does; an
  edge strictly across two or three lines takes one `sides` row of the
  tile's vertices against its own line, which decides its crossings and
  the vertices it passes through.  And a region edge on the closed outer
  side of some tile line can neither cross the tile nor run inside it.

If no region edge properly crosses a tile edge and no region piece has its
midpoint strictly inside the tile, no point of the region's boundary lies
in the open tile: a piece that entered it would have to cross a tile edge
properly, or both its ends would lie on the tile's boundary and its
midpoint inside.  The open tile is connected, so it then lies wholly
inside or wholly outside the simple region.  A near edge on tile line k
with a piece whose ends both lie in the closed tile shares a piece of
positive length with tile edge k, which settles the side: the region lies
left of the edge and the tile left of its edge, so the tile is inside if
the edge runs the tile edge's way and outside if it runs the other way.
The table gives the way when the edge's ends lie on different sides of
line k - 1 or k + 1 (`_along`), as the search's flush edge, which starts
at tile vertex 0, always does; otherwise one orientation decides (the
opposite tile vertex strictly on the edge's left).  Only a tile
that shares no piece with the region's boundary is decided by one
interior point, the probe: `point_in_polygon` of the midpoint of tile
vertex 0 and the midpoint of the other two.  Each candidate of the search
has its flush edge on the region's outgoing edge, so the search never
probes.

What these rules decide about a near edge is a function of the codes of
its two ends (6 bits each: bit k when the end lies strictly outside tile
line k, bit k + 3 when strictly inside), except for an edge strictly
across two tile lines.  So `fit` reads each near edge's rule from a table
keyed by the codes, `cc << 6 | cd`: either the tile cannot fit, or (the
tile vertices cut into the edge, the tile lines of its end when that lies
on the tile's boundary, the shared piece's way and opposite tile vertex).
For an edge strictly across two tile lines (68 of the 512 near code
pairs) the rule says instead that the tile's signs decide: the `sides`
row of the tile's vertices against the edge's line extends the key, and a
second lookup gives one of the other two kinds.  `_rule` builds each rule
the first time its key is met, so a search builds a few dozen; only the
orientation fallback for a shared piece's way and the probe look at the
geometry again.

Once the tile fits, the remainder is fixed by the *contacts*, the
connected pieces of the region's boundary on the tile's: the boundary
tracing of Weiler and Atherton's clipping (SIGGRAPH 1977).  A region
vertex strictly outside no tile line lies on the tile's boundary, and so
does a tile vertex cut into a near edge.  Any other common point of the
boundaries lies inside a region edge and a tile edge that do not cross,
so on a piece they share, which ends at such points.  Two of these next
to each other on one region edge bound a piece on the tile, or the chord
between them would pass through the open tile.

Both boundaries run counterclockwise with the tile inside the region, so
the interiors lie on the same side of every contact, which runs the same
way on both.  The region arc from the end of one contact to the start of
the next keeps out of the open tile, and with the tile arc run clockwise
from there back to its start it bounds a face of the region less the
tile, whose inside no boundary point reaches.  So no other contact lies
on that tile arc, and the contacts C1 ... Ck come in the same cyclic
order on both boundaries: face i is the region arc from the end of Ci to
the start of C(i+1), then the tile arc back to the end of Ci.  In the
touch points, read in the region's order, the end of Ci and the start of
C(i+1) are a *gap*: two consecutive touch points with a region vertex
between them, so not on one region edge (the last pair wraps round the
vertex cycle); one face is built per gap.  A point
contact pinches the region apart.  No contact, or one point contact
(whose face would pass that point twice), leaves the tile a hole, which
raises GeometryError; a contact that is the whole boundary leaves
nothing.  The region vertices inside a region arc keep both neighbours,
so their angles are carried over as slices; only the junctions (contact
ends, tile vertices on a tile arc) are measured, merged when straight
and checked for doubling back.  Each face's area is summed from its
vertices, and with the tile's (a candidate's is the tile's exact area)
they must add up to the region's.
`subtract_triangle` is the remainder of `place` for a tile known to fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..exactnum import QRoot3
from ..geometry import (
    AngleVec,
    GeometryError,
    Point,
    _span,
    angle_at,
    midpoint,
    orientation,
    point_in_polygon,
    polygon_area_twice,
    sides,
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
    def from_points(points: Sequence[Point]) -> "Polygon":
        """The polygon through `points`, with repeated points and
        straight-angle vertices merged away."""
        pts = [p for i, p in enumerate(points) if p != points[i - 1]]
        return Polygon._joined(pts, [None] * len(pts))

    @staticmethod
    def _joined(pts: list[Point], angles: list[Optional[AngleVec]]) -> "Polygon":
        """The polygon through `pts`, where `angles` gives, point by point,
        an interior angle carried over from a polygon the point keeps both
        its neighbours from, or None at a junction.  Each junction is
        measured, dropped if its angle is straight and rejected if the
        boundary doubles back there; dropping a vertex leaves its
        neighbours' edge directions, and so their angles, as they were."""
        n = len(pts)
        if n < 3:
            raise GeometryError("degenerate polygon")
        straight = []
        for i in [i for i, ang in enumerate(angles) if ang is None]:
            ang = angles[i] = angle_at(pts[i], pts[(i + 1) % n], pts[i - 1])
            if ang.rank == 2:
                straight.append(i)  # an angle of pi: straight continuation
            elif ang.rank == 0:
                raise GeometryError("boundary doubles back on itself")
        if straight:
            keep = [i for i in range(n) if i not in straight]
            pts, angles = [pts[i] for i in keep], [angles[i] for i in keep]
            if len(pts) < 3:
                raise GeometryError("degenerate polygon")
        area2 = polygon_area_twice(pts)
        if area2.sign() <= 0:
            raise GeometryError("polygon is not counterclockwise")
        keys = [p.key for p in pts]
        k = keys.index(min(keys))
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


def _arc(seq: tuple, start: int, stop: int) -> tuple:
    """seq[start:stop] read around the cycle, for start <= len(seq) and
    stop - start <= len(seq)."""
    n = len(seq)
    return seq[start:stop] if stop <= n else seq[start:] + seq[:stop - n]


# the tile lines through tile vertex k, as a mask: lines k - 1 and k
_VERTEX_LINES = (0b101, 0b011, 0b110)
# the code of tile vertex k: on lines k - 1 and k, strictly inside line k + 1
_VERTEX_CODE = (0b010 << 3, 0b100 << 3, 0b001 << 3)
# the place on the tile's boundary of a point on the tile lines of a mask:
# 2k at tile vertex k, 2k + 1 inside tile edge k (vertex k to vertex k + 1)
_TILE_POS = {0b001: 1, 0b010: 3, 0b100: 5, 0b101: 0, 0b011: 2, 0b110: 4}
# the code bit of a side against tile line k, by `sides` value: none on
# it, bit k + 3 strictly inside, bit k strictly outside (index -1)
_B0, _B1, _B2 = [(0, 8 << k, 1 << k) for k in range(3)]
# the rule of a near region edge by the codes of its ends, cc << 6 | cd,
# and, for an edge strictly across two tile lines, by (that key, the
# `sides` row of the tile's vertices against the edge's line); filled on
# first use.  A rule depends on its key alone, so one table serves every
# region, tile and search in the process, and it holds at most 512 pair
# entries and 27 sign rows for each of the 68 pairs that need them
_RULES: dict = {}
_NO_FIT = "the tile cannot fit"
_ACROSS = "strictly across two tile lines: the tile's signs decide"


def place(region: Polygon, tri: tuple[Point, Point, Point]) -> Optional[list[Polygon]]:
    """Place a counterclockwise triangle in the region: the fit test
    `fit`, then, if the triangle fits, the splice `splice`.

    Returns None if the triangle does not lie in the region: a region edge
    properly crosses a tile edge, a region sub-edge midpoint lies strictly
    inside the tile, or else (the open tile then meets no boundary point,
    so it lies wholly on one side of it) a region edge shares a piece with
    a tile edge running the other way or, if none shares one, the interior
    point midpoint(tri[0], midpoint(tri[1], tri[2])) lies outside.  Otherwise
    returns the rest of the region as zero or more simple polygons, sorted
    canonically; raises GeometryError if that rest is inconsistent, as it
    is when the triangle touches the region's boundary nowhere or at one
    point only (a hole).
    """
    touch = fit(region, tri, {})
    return None if touch is None else splice(region, tri, touch, polygon_area_twice(tri))


def fit(region: Polygon, tri: tuple[Point, Point, Point], codes: dict) -> Optional[list]:
    """The fit test of `place`: None if the counterclockwise triangle does
    not lie in the region, else the points where the region's boundary
    meets the tile's, in the region's order.  `codes` is the triangle's
    code table, the code of each point by `Point.key` (bit k set when the
    point lies strictly outside tile line k, bit k + 3 when strictly
    inside); the codes of region vertices missing from it are computed,
    one `sides` row per tile line over those vertices only, and added."""
    verts = region.vertices
    keys = [v.key for v in verts]
    code = list(map(codes.get, keys))
    if None in code:
        miss = [i for i, c in enumerate(code) if c is None]
        new = [verts[i] for i in miss]
        rows = zip(sides(tri[0], tri[1], new), sides(tri[1], tri[2], new), sides(tri[2], tri[0], new))
        for i, (s0, s1, s2) in zip(miss, rows):
            code[i] = codes[keys[i]] = _B0[s0] | _B1[s1] | _B2[s2]
    rules = _RULES
    # the points of the region's boundary on the tile's, if the tile fits,
    # in the region's order: (place on the region's boundary, 2i inside
    # edge i and 2i + 1 at vertex i; the point; its tile lines as a mask)
    touch = []
    inside = False  # a shared piece has shown the tile inside the region
    # edge i runs from vertex i - 1 to vertex i
    for i, cc, cd in zip(range(len(verts)), [code[-1], *code], code):
        if cc & cd & 7:
            continue  # far
        key = cc << 6 | cd
        rule = rules.get(key)
        if rule is None:
            rule = rules[key] = _rule(cc, cd)
        if rule is _ACROSS:
            o = sides(verts[i - 1], verts[i], tri)
            key = (key, *o)
            rule = rules.get(key)
            if rule is None:
                rule = rules[key] = _rule(cc, cd, o)
        if rule is _NO_FIT:
            return None
        inner, d_lines, shared = rule
        if inner:
            touch += [(2 * i, tri[k], lines) for k, lines in inner]
        if d_lines is not None:
            touch.append((2 * i + 1, verts[i], d_lines))
        if shared and not inside:
            # the tile is inside the region if the edge runs the tile
            # edge's way (by the codes of its ends, else the opposite tile
            # vertex on its left), outside if it runs the other way
            way, opposite = shared
            if (way or orientation(verts[i - 1], verts[i], tri[opposite])) < 0:
                return None
            inside = True
    if not inside:
        # no boundary point in the open tile and no shared piece: one
        # interior point decides
        if point_in_polygon(midpoint(tri[0], midpoint(tri[1], tri[2])), verts) != "inside":
            return None
    return touch


def _rule(cc: int, cd: int, o: Optional[list[int]] = None):
    """The rule of a near region edge whose ends have codes cc and cd:
    `_NO_FIT`; or (the tile vertices cut into the edge, in order, each with
    its tile lines; the tile lines of its end d if d lies on the tile's
    boundary, else None; (the shared piece's `_along` way, the tile vertex
    opposite its line) if the edge shares a piece with a tile edge, else
    None); or, without `o`, `_ACROSS` for an edge that needs the row `o`
    of the tile's vertices against its line (see the module docstring)."""
    out_c, out_d, in_c, in_d = cc & 7, cd & 7, cc >> 3, cd >> 3
    apart = out_c & in_d | in_c & out_d  # the tile lines that c and d lie strictly apart on
    on = 7 & ~(out_c | in_c | out_d | in_d)  # the tile lines that both lie on
    # the tile vertices inside the edge; tile vertex k is on lines k - 1 and k
    if on:  # on one of vertex k's lines and strictly across the other
        inner = [k for k, both in enumerate(_VERTEX_LINES) if on & both and apart & both]
    elif apart & (apart - 1):  # strictly across both of vertex k's lines, and through it
        if o is None:
            return _ACROSS
        inner = [k for k, both in enumerate(_VERTEX_LINES) if apart & both == both and not o[k]]
    else:
        inner = []
    if len(inner) > 1:
        # all of tile edge k, on line k: if the tile fits, the edge runs
        # its way (else a shared-piece or a later check rules it out), so
        # vertex k comes first
        k = on.bit_length() - 1
        inner = [k, (k + 1) % 3]
    # the codes of the ends of the edge's pieces, cut at the tile vertices
    ends = [cc, *[_VERTEX_CODE[k] for k in inner], cd]
    pieces = list(zip(ends, ends[1:]))
    shared = None
    if on:
        # on tile line k, a piece with both ends in the closed tile lies
        # on tile edge k
        if any(not (p | q) & 7 for p, q in pieces):
            k = on.bit_length() - 1
            shared = (_along(cc, cd, k), (k + 2) % 3)
    elif in_c | in_d == 7:  # else on the closed outer side of a tile line: it keeps out of the tile
        if o is None:
            # strictly across one tile line and outside no other at either
            # end, it crosses that tile edge properly; across none, it runs
            # inside the tile
            return _NO_FIT
        if any(apart >> k & 1 and o[k] and o[(k + 1) % 3] == -o[k] for k in range(3)):
            return _NO_FIT  # proper crossing: tile edge k's ends lie strictly apart on the edge's line
        # a piece keeps out of the open tile if it is strictly across a tile
        # line, which it meets outside the closed tile; otherwise its
        # midpoint is strictly inside when each tile line has an end
        # strictly inside it and none strictly outside
        if any(not (p | q) & 7 and (p | q) >> 3 == 7 for p, q in pieces):
            return _NO_FIT
    return tuple((k, _VERTEX_LINES[k]) for k in inner), None if out_d else 7 & ~in_d, shared


def _along(c: int, d: int, k: int) -> int:
    """+1 if the region edge from the vertex of code c to the vertex of code
    d, both on tile line k, runs tile edge k's way (from tile vertex k to
    k + 1), -1 if it runs the other way, 0 if the codes leave it open.
    Along line k the side of line k - 1, through vertex k, rises from
    vertex k to vertex k + 1, and the side of line k + 1, through vertex
    k + 1, falls: two ends on different sides of either line decide."""
    for line, way in (((k + 2) % 3, 1), ((k + 1) % 3, -1)):
        sc = (c >> line + 3 & 1) - (c >> line & 1)
        sd = (d >> line + 3 & 1) - (d >> line & 1)
        if sc != sd:
            return way if sc < sd else -way
    return 0


def splice(region: Polygon, tri: tuple[Point, Point, Point], touch: list, area2: QRoot3) -> list[Polygon]:
    """The rest of the region once the triangle is placed, from the points
    `touch` that `fit` returned for it and its twice area `area2`: zero or
    more simple polygons, sorted canonically.  Raises GeometryError if the
    triangle leaves a hole or the areas do not add up."""
    polys = _faces(region, tri, touch)
    total = area2
    for p in polys:
        total = total + p.area_twice()
    if total != region.area_twice():
        raise GeometryError("area not conserved by subtraction")
    if len(polys) > 1:  # faces pinched apart at their first vertex go by the next
        polys.sort(key=lambda p: [v.key for v in p.vertices])
    return polys


def _faces(region: Polygon, tri: tuple[Point, Point, Point], touch: list) -> list[Polygon]:
    """The faces of the region less the fitting tile, from the points where
    their boundaries meet (see the module docstring)."""
    verts, angles = region.vertices, region.angles
    if len(touch) < 2:
        # no contact, or one point, which the face round the tile would pass twice
        raise GeometryError("the tile leaves a hole in the region")
    # each touch point with the next, the last with the first once round the vertex cycle
    wrapped = (touch[0][0] + 2 * len(verts), *touch[0][1:])
    faces = []  # none if there is no gap: the tile is the whole region
    for (re, e, e_lines), (rs, s, s_lines) in zip(touch, [*touch[1:], wrapped]):
        # the region arc, its inner vertices with their angles carried over
        lo, hi = (re + 1) // 2, rs // 2
        if lo == hi:
            continue  # no gap: on one region edge, the boundary runs on the tile
        # the tile arc: the tile vertices strictly between the contacts
        te, ts = _TILE_POS[e_lines], _TILE_POS[s_lines]
        # (inside one tile edge, s lies behind e when s = e + t(end - e), t < 0)
        if ts < te or ts == te and _span(s.form, e.form, tri[(te // 2 + 1) % 3].form)[0] < 0:
            ts += 6  # the tile arc from e runs round the tile to s
        back = [tri[k % 3] for k in range((ts - 1) // 2, te // 2, -1)]
        faces.append(Polygon._joined([e, *_arc(verts, lo, hi), s, *back],
                                     [None, *_arc(angles, lo, hi), None, *[None] * len(back)]))
    return faces


def subtract_triangle(region: Polygon, tri: tuple[Point, Point, Point]) -> list[Polygon]:
    """Remove a triangle (given ccw, lying inside the region) from the
    region: the remainder of `place`, which raises GeometryError if the
    triangle does not fit."""
    rest = place(region, tri)
    if rest is None:
        raise GeometryError("triangle does not lie in the region")
    return rest
