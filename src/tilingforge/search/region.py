"""Simple-polygon regions and exact triangle subtraction.

The uncovered part of the target is a list of simple polygons with
counterclockwise boundary (interior on the left of each directed edge).
Subtracting a placed tile is done combinatorially.  A simple polygon has
no vertex inside its own edges, and neither has a triangle, so each
boundary only needs cutting where the other one touches it: the region's
directed edges are cut at the tile's vertices, and the tile's edges,
reversed, at the region's vertices (`cut`).  Opposite pairs of these
pieces cancel, and the boundary cycles are re-extracted by always leaving
a vertex along the most-counterclockwise turn from the reversed incoming
direction.  Pinches (a tile touching the far boundary) then fall out as
several independent simple polygons, and a tile that exactly finishes a
region cancels its boundary away entirely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..exactnum import QRoot3
from ..geometry import (
    AngleVec,
    GeometryError,
    Point,
    angle_at,
    on_open_segment,
    orientation,
    point_in_polygon,
    polygon_area_twice,
    segment_length,
    sort_along,
)


@dataclass(frozen=True)
class Polygon:
    """Simple polygon, counterclockwise, no straight-angle vertices."""

    vertices: tuple[Point, ...]

    @staticmethod
    def from_points(points: Sequence[Point]) -> "Polygon":
        pts = _merge_collinear(list(points))
        if len(pts) < 3:
            raise GeometryError("degenerate polygon")
        if polygon_area_twice(pts).sign() <= 0:
            raise GeometryError("polygon is not counterclockwise")
        pts = _rotate_to_min(pts)
        return Polygon(tuple(pts))

    def __len__(self):
        return len(self.vertices)

    def edge(self, i: int) -> tuple[Point, Point]:
        return (self.vertices[i], self.vertices[(i + 1) % len(self.vertices)])

    def edges(self):
        for i in range(len(self.vertices)):
            yield self.edge(i)

    def edge_length(self, i: int) -> QRoot3:
        a, b = self.edge(i)
        return segment_length(a, b)

    def area_twice(self) -> QRoot3:
        return polygon_area_twice(self.vertices)

    def area(self) -> QRoot3:
        return self.area_twice() / 2

    def interior_angle(self, i: int) -> AngleVec:
        """Interior angle at vertex i: ccw angle from the outgoing edge
        direction to the incoming-reversed direction."""
        return angle_at(self.vertices[i], self.vertices[(i + 1) % len(self.vertices)],
                        self.vertices[i - 1])

    def contains(self, p: Point) -> str:
        return point_in_polygon(p, self.vertices)

    def to_json(self):
        return [v.to_json() for v in self.vertices]

    @staticmethod
    def from_json(obj) -> "Polygon":
        return Polygon.from_points([Point.from_json(v) for v in obj])


def _merge_collinear(pts: list[Point]) -> list[Point]:
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        out = []
        n = len(pts)
        for i in range(n):
            prv, cur, nxt = pts[i - 1], pts[i], pts[(i + 1) % n]
            if cur == prv:
                changed = True
                continue
            if orientation(prv, cur, nxt) == 0:
                if on_open_segment(cur, prv, nxt):
                    changed = True
                    continue  # straight continuation
                raise GeometryError("boundary doubles back on itself")
            out.append(cur)
        pts = out
    return pts


def _rotate_to_min(pts: list[Point]) -> list[Point]:
    k = min(range(len(pts)), key=lambda i: pts[i].lex_key())
    return pts[k:] + pts[:k]


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


def _cancel(edges: list[tuple[Point, Point]]) -> dict[tuple, tuple[Point, Point]]:
    """The edges whose reverse is absent, keyed by their endpoints'
    lex_key() pairs."""
    keyed: dict[tuple, tuple[Point, Point]] = {}
    for a, b in edges:
        key = (a.lex_key(), b.lex_key())
        if key in keyed:
            raise GeometryError("boundary edge traversed twice in the same direction")
        keyed[key] = (a, b)
    return {key: e for key, e in keyed.items() if (key[1], key[0]) not in keyed}


def _extract_faces(edges: dict[tuple, tuple[Point, Point]]) -> list[list[Point]]:
    # walked in key order, so each vertex lists its outgoing edges by target
    order = sorted(edges)
    outgoing: dict[tuple, list[tuple]] = {}
    for key in order:
        outgoing.setdefault(key[0], []).append(key)
    unused = set(edges)
    faces = []
    for start in order:
        if start not in unused:
            continue
        unused.discard(start)
        u, v = edges[start]
        cycle = [u]
        key = start
        while key[1] != start[0]:
            cycle.append(v)
            key = _next_edge(u, v, outgoing.get(key[1], ()), edges, unused)
            unused.discard(key)
            u, v = edges[key]
        faces.append(cycle)
    return faces


def _next_edge(u, v, keys, edges, unused):
    """Key of the unused edge out of v with the most counterclockwise turn
    from the incoming edge u -> v."""
    best = None
    best_angle: Optional[AngleVec] = None
    for key in keys:
        if key not in unused:
            continue
        # measured from the reversed incoming direction
        ang = angle_at(v, u, edges[key][1])
        if ang.is_zero_mod_2pi():
            raise GeometryError("slit edge encountered during face walk")
        if best_angle is None or best_angle.less_than(ang):
            best, best_angle = key, ang
    if best is None:
        raise GeometryError("open boundary during face walk")
    return best


def subtract_triangle(region: Polygon, tri: tuple[Point, Point, Point]) -> list[Polygon]:
    """Remove a triangle (given ccw, assumed to lie inside the region and
    share boundary along at least one edge portion) from the region.

    Returns the remaining region as zero or more simple polygons, sorted
    canonically.  Raises GeometryError on any combinatorial inconsistency;
    the caller is responsible for having validated the placement.
    """
    a, b, c = tri
    pieces = [piece for p, q in region.edges() for piece in cut(p, q, tri)]
    pieces += [piece for p, q in ((b, a), (c, b), (a, c)) for piece in cut(p, q, region.vertices)]
    remaining = _cancel(pieces)
    if not remaining:
        _check_area_conservation(region, tri, [])
        return []
    faces = _extract_faces(remaining)
    polys = [Polygon.from_points(f) for f in faces]
    _check_area_conservation(region, tri, polys)
    return sorted(polys, key=lambda p: p.vertices[0].lex_key())


def _check_area_conservation(region, tri, polys):
    tri_area2 = polygon_area_twice(tri)
    total = QRoot3(0)
    for p in polys:
        total = total + p.area_twice()
    if total + tri_area2 != region.area_twice():
        raise GeometryError("area not conserved by subtraction")
