"""Plain geometric helpers that the tests' reference oracles use: sorting
points along a line, the open-triangle test, counterclockwise ordering
of a triangle's vertices and the search's corner rule, each written
directly from its definition."""

from functools import cmp_to_key
from typing import Sequence

from tilingforge.geometry import AngleVec, GeometryError, Point, orientation


def sort_along(points: list[Point], a: Point, b: Point) -> None:
    """Sort points of the line through a != b in place, from a towards b,
    by the coordinate in which a and b differ."""
    if a.x != b.x:
        points.sort(key=lambda p: p.x, reverse=b.x < a.x)
    else:
        points.sort(key=lambda p: p.y, reverse=b.y < a.y)


def strictly_inside_triangle(p: Point, tri: Sequence[Point]) -> bool:
    """p lies in the open interior of the counterclockwise triangle tri."""
    a, b, c = tri
    return orientation(a, b, p) > 0 and orientation(b, c, p) > 0 and orientation(c, a, p) > 0


def triangle_ccw(a: Point, b: Point, c: Point) -> tuple[Point, Point, Point]:
    """The triangle's vertices in counterclockwise order, starting at a."""
    s = orientation(a, b, c)
    if s == 0:
        raise GeometryError("degenerate triangle")
    return (a, b, c) if s > 0 else (a, c, b)


def smallest_corner(angles: Sequence[AngleVec], vertices: Sequence[Point]) -> int:
    """The index of the corner with the smallest angle by `AngleVec.compare`,
    ties broken by `Point.lex_less`."""
    def order(i, j):
        return (angles[i].compare(angles[j])
                or vertices[j].lex_less(vertices[i]) - vertices[i].lex_less(vertices[j]))
    return min(range(len(angles)), key=cmp_to_key(order))
