"""Simple-polygon regions and exact triangle subtraction.

The uncovered part of the target is a list of simple polygons with
counterclockwise boundary (interior on the left of each directed edge).
Subtracting a placed tile is done combinatorially: take the region's
directed boundary edges plus the tile's edges reversed, split every edge
at every endpoint lying on it, cancel opposite pairs, and re-extract the
boundary cycles by always leaving a vertex along the most-counterclockwise
turn from the reversed incoming direction.  Pinches (a tile touching the
far boundary) then fall out as several independent simple polygons, and a
tile that exactly finishes a region cancels its boundary away entirely.
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


def _split_edges(edges: list[tuple[Point, Point]]) -> list[tuple[Point, Point]]:
    points = set()
    for a, b in edges:
        points.add(a)
        points.add(b)
    out = []
    for a, b in edges:
        inner = [p for p in points if on_open_segment(p, a, b)]
        sort_along(inner, a, b)
        prev = a
        for p in inner:
            out.append((prev, p))
            prev = p
        out.append((prev, b))
    return out


def _cancel(edges: list[tuple[Point, Point]]) -> list[tuple[Point, Point]]:
    net: dict[tuple, int] = {}
    rep: dict[tuple, tuple[Point, Point]] = {}
    for a, b in edges:
        ka, kb = a.lex_key(), b.lex_key()
        if ka < kb:
            key, direction = (ka, kb), 1
            rep.setdefault(key, (a, b))
        else:
            key, direction = (kb, ka), -1
            rep.setdefault(key, (b, a))
        net[key] = net.get(key, 0) + direction
    out = []
    for key, count in net.items():
        if count == 0:
            continue
        if abs(count) != 1:
            raise GeometryError("boundary edge traversed twice in the same direction")
        a, b = rep[key]
        out.append((a, b) if count == 1 else (b, a))
    return out


def _extract_faces(edges: list[tuple[Point, Point]]) -> list[list[Point]]:
    outgoing: dict[tuple, list[tuple[Point, Point]]] = {}
    for e in edges:
        outgoing.setdefault(e[0].lex_key(), []).append(e)
    for lst in outgoing.values():
        lst.sort(key=lambda e: e[1].lex_key())
    unused = set()
    for e in edges:
        key = (e[0].lex_key(), e[1].lex_key())
        if key in unused:
            raise GeometryError("duplicate directed edge")
        unused.add(key)

    def take(e):
        unused.discard((e[0].lex_key(), e[1].lex_key()))

    faces = []
    ordered = sorted(edges, key=lambda e: (e[0].lex_key(), e[1].lex_key()))
    for start in ordered:
        if (start[0].lex_key(), start[1].lex_key()) not in unused:
            continue
        cycle = [start[0]]
        cur = start
        take(cur)
        while cur[1] != start[0]:
            cycle.append(cur[1])
            cur = _next_edge(cur, outgoing, unused)
            take(cur)
        faces.append(cycle)
    return faces


def _next_edge(cur, outgoing, unused):
    u, v = cur
    best = None
    best_angle: Optional[AngleVec] = None
    for cand in outgoing.get(v.lex_key(), []):
        if (cand[0].lex_key(), cand[1].lex_key()) not in unused:
            continue
        # measured from the reversed incoming direction
        ang = angle_at(v, u, cand[1])
        if ang.is_zero_mod_2pi():
            raise GeometryError("slit edge encountered during face walk")
        if best_angle is None or best_angle.less_than(ang):
            best, best_angle = cand, ang
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
    edges = list(region.edges()) + [(b, a), (c, b), (a, c)]
    atomic = _split_edges(edges)
    remaining = _cancel(atomic)
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
