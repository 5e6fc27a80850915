"""Certificates: the exchange format for claimed tilings, an independent
exact checker, and extraction of edge relations from valid certificates.

Certificate coordinates are canonical: the target triangle has its longest
side X on the x-axis from (0, 0) to (X, 0) and its apex above the axis.
The checker shares only this convention and the exact geometric predicates
with the search engine; it never looks at search state.  Interior
disjointness is decided exactly on the placement pairs whose bounding boxes
overlap, found by a sweep over exact x; every other pair is separated by an
axis-parallel line, which rules out an overlap on its own.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..constraints import ConstraintError, TriangleSpec
from ..exactnum import QRoot3, qr3_sign
from ..geometry import (
    GeometryError,
    Point,
    dot,
    orientation,
    point_in_polygon,
    polygon_area_twice,
    segment_length,
    segments_properly_cross,
    strictly_inside_triangle,
)
from ..tilealgebra import EdgeRelation, RelationKind, TileShape
from .placements import Placement, placement_chirality

SCHEMA = "v1"


def canonical_target_vertices(tri: TriangleSpec) -> tuple[Point, Point, Point]:
    """(B, C, A): B at the origin, C at (X, 0), apex A above with |AB| = Y
    and |AC| = Z, so a target similar to the tile is a direct copy of it;
    raises if the apex leaves Q(sqrt3)^2."""
    X, Y, Z = tri.X, tri.Y, tri.Z
    xa = (X * X + Y * Y - Z * Z) / (2 * X)
    ya_sq = Y * Y - xa * xa
    ya = ya_sq.sqrt()
    if ya is None or qr3_sign(ya) <= 0:
        raise ConstraintError("target apex is not representable in Q(sqrt3)")
    return (Point(QRoot3(0), QRoot3(0)), Point(X, QRoot3(0)), Point(xa, ya))


@dataclass(frozen=True)
class Certificate:
    tile: TileShape
    target: TriangleSpec
    placements: tuple[Placement, ...]
    allow_mirror: bool = True

    @property
    def n(self) -> int:
        return len(self.placements)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "tile": self.tile.to_json(),
            "target": self.target.to_json(),
            "allow_mirror": self.allow_mirror,
            "placements": [p.to_json() for p in self.placements],
        }

    @staticmethod
    def from_json(obj: dict) -> "Certificate":
        if not isinstance(obj, dict):
            raise ValueError("a certificate is a JSON object")
        if obj.get("schema") != SCHEMA:
            raise ValueError(f"unsupported certificate schema {obj.get('schema')!r}")
        return Certificate(
            TileShape.from_json(obj["tile"]),
            TriangleSpec.from_json(obj["target"]),
            tuple(Placement.from_json(p) for p in obj["placements"]),
            bool(obj.get("allow_mirror", True)),
        )

    def save(self, path):
        write_json(path, self.to_json(), indent=1)

    @staticmethod
    def load(path) -> "Certificate":
        with open(path) as fh:
            return Certificate.from_json(json.load(fh))


def write_json(path, obj, indent=None) -> None:
    """Write obj as JSON to a temporary file beside path, then move it into
    place, so a failure mid-write leaves any earlier file at path intact."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            json.dump(obj, fh, indent=indent)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True)
class Violation:
    kind: str
    placements: tuple[int, ...] = ()

    def __str__(self):
        return f"{self.kind}({', '.join(map(str, self.placements))})"


def check_certificate(cert: Certificate) -> list[Violation]:
    """Exact validity check; empty list means the certificate is a tiling.

    Checks: every placement congruent to the tile with the declared
    chirality, pairwise interior-disjointness, containment in the target,
    and total area equal to the target's.  Together these force coverage.
    """
    violations: list[Violation] = []
    try:
        corners = canonical_target_vertices(cert.target)
    except (ConstraintError, GeometryError):
        return [Violation("BadTarget")]
    target_poly = list(corners)

    for i, p in enumerate(cert.placements):
        chir = placement_chirality(cert.tile, p)
        if chir is None:
            violations.append(Violation("Noncongruent", (i,)))
            continue
        if chir != p.mirrored and not cert.tile.is_isosceles():
            violations.append(Violation("ChiralityMismatch", (i,)))
        if p.mirrored and not cert.allow_mirror:
            violations.append(Violation("MirrorNotAllowed", (i,)))
        if any(point_in_polygon(v, target_poly) == "outside" for v in p.vertices):
            # the target is convex, so vertex containment is containment
            violations.append(Violation("OutsideTarget", (i,)))

    tris = [p.vertices for p in cert.placements]
    centroids = [_centroid(t) for t in tris]
    for i, j in _box_pairs(tris):
        if _triangles_overlap(tris[i], tris[j], centroids[i], centroids[j]):
            violations.append(Violation("Overlap", (i, j)))

    total2 = QRoot3(0)
    for t in tris:
        total2 = total2 + polygon_area_twice(t)
    target2 = polygon_area_twice(corners)
    if total2 != target2 or cert.n * cert.tile.area * 2 != target2:
        violations.append(Violation("AreaMismatch"))
    return violations


def _box_pairs(tris) -> list[tuple[int, int]]:
    """The pairs i < j, sorted, whose bounding boxes overlap as open
    intervals on both axes (min_i < max_j and min_j < max_i).  Any other
    pair lies on the two sides of a line x = m or y = m, so no point of
    one is strictly inside the other and two edges can only cross on that
    line, not properly.  The sweep scans in order of exact min x and stops
    at the first min x >= the current max x."""
    boxes = []
    for t in tris:
        xs = sorted(v.x for v in t)
        ys = sorted(v.y for v in t)
        boxes.append((xs[0], xs[-1], ys[0], ys[-1]))
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        x0, x1, y0, y1 = boxes[i]
        for j in order[k + 1:]:
            u0, u1, v0, v1 = boxes[j]
            if u0 >= x1:
                break
            if x0 < u1 and y0 < v1 and v0 < y1:
                pairs.append((i, j) if i < j else (j, i))
    pairs.sort()
    return pairs


def _triangles_overlap(t1, t2, c1: Point, c2: Point) -> bool:
    """Open interiors intersect; c1 and c2 are the centroids."""
    for a, b in _tri_edges(t1):
        for c, d in _tri_edges(t2):
            if segments_properly_cross(a, b, c, d):
                return True
    return strictly_inside_triangle(c1, t2) or strictly_inside_triangle(c2, t1) or any(
        strictly_inside_triangle(v, t2) for v in t1
    ) or any(strictly_inside_triangle(v, t1) for v in t2)


def _tri_edges(t):
    return [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])]


def _centroid(t) -> Point:
    third = Fraction(1, 3)
    return Point((t[0].x + t[1].x + t[2].x) * third, (t[0].y + t[1].y + t[2].y) * third)


# ---------------------------------------------------------------------------
# edge relations realized by a certificate


@dataclass(frozen=True)
class _LineKey:
    """Canonical exact key for an undirected line a*x + b*y = c."""

    a: QRoot3
    b: QRoot3
    c: QRoot3

    @staticmethod
    def through(p: Point, q: Point) -> "_LineKey":
        d = q - p
        a, b = -d.y, d.x
        c = a * p.x + b * p.y
        # normalize: first nonzero of (a, b) becomes +1
        if not a.is_zero():
            scale = a
        else:
            scale = b
        a, b, c = a / scale, b / scale, c / scale
        return _LineKey(a, b, c)

    def key(self):
        return (self.a.r, self.a.s, self.b.r, self.b.s, self.c.r, self.c.s)

    def direction(self) -> Point:
        return Point(self.b, -self.a)


def extract_edge_relations(cert: Certificate) -> list[EdgeRelation]:
    """Relations realized along maximal internal straight segments.

    Tile edges are grouped by supporting line, joined into maximal
    contiguous runs, and the multiset of edge lengths on each side of a run
    is compared; runs with differing multisets yield a canonical relation.
    """
    analyses = analyze_maximal_segments(cert)
    rels = set()
    for counts_left, counts_right in analyses:
        rel = _relation_from_counts(cert.tile, counts_left, counts_right)
        if rel is not None:
            rels.add(rel)
    return sorted(rels, key=lambda r: (r.kind.value, r.j, r.u, r.v))


def analyze_maximal_segments(cert: Certificate):
    """Per maximal internal segment: ({side: count} left, {side: count} right)."""
    corners = canonical_target_vertices(cert.target)
    target_lines = {_LineKey.through(corners[i], corners[(i + 1) % 3]).key() for i in range(3)}

    by_line: dict[tuple, list] = {}
    line_obj: dict[tuple, _LineKey] = {}
    for p in cert.placements:
        v = p.vertices
        opposite = {0: v[2], 1: v[0], 2: v[1]}
        for e in range(3):
            a, b = v[e], v[(e + 1) % 3]
            line = _LineKey.through(a, b)
            k = line.key()
            if k in target_lines:
                continue  # boundary, not internal
            line_obj.setdefault(k, line)
            by_line.setdefault(k, []).append((a, b, opposite[e]))

    out = []
    for k, edges in sorted(by_line.items()):
        line = line_obj[k]
        d = line.direction()
        events = []
        for a, b, opp in edges:
            ta, tb = dot(a, d), dot(b, d)
            lo, hi = (ta, tb) if ta < tb else (tb, ta)
            side = orientation(a, b, opp)  # +1 tile on the left of a->b
            left_of_line = side if ta < tb else -side
            events.append((lo, hi, left_of_line, segment_length(a, b)))
        # walk runs of contiguous coverage; QRoot3 sorts by exact value
        events.sort(key=lambda e: (e[0], e[1]))
        runs = []
        cur = [events[0]]
        cur_end = events[0][1]
        for ev in events[1:]:
            if cur_end < ev[0]:
                runs.append(cur)
                cur, cur_end = [ev], ev[1]
            else:
                cur.append(ev)
                if cur_end < ev[1]:
                    cur_end = ev[1]
        runs.append(cur)
        for run in runs:
            left: dict[str, int] = {}
            right: dict[str, int] = {}
            for lo, hi, side, length in run:
                name = _classify_side(cert.tile, length)
                bucket = left if side > 0 else right
                bucket[name] = bucket.get(name, 0) + 1
            out.append((left, right))
    return out


def _classify_side(tile: TileShape, length: QRoot3) -> str:
    if length == tile.a:
        return "a"
    if length == tile.b:
        return "b"
    if length == tile.c:
        return "c"
    raise GeometryError(f"tile edge of unexpected length {length}")


def _relation_from_counts(tile: TileShape, left: dict, right: dict) -> Optional[EdgeRelation]:
    diff = {s: left.get(s, 0) - right.get(s, 0) for s in ("a", "b", "c")}
    if all(v == 0 for v in diff.values()):
        return None
    pos = {s: v for s, v in diff.items() if v > 0}
    neg = {s: -v for s, v in diff.items() if v < 0}
    if not pos or not neg:
        raise GeometryError("one-sided maximal segment imbalance")

    def canon(j, u, v):
        g = math.gcd(math.gcd(j, u), v)
        return (j // g, u // g, v // g)

    for lhs, kind, others in (("b", RelationKind.B_SIDE, ("a", "c")),
                              ("a", RelationKind.A_SIDE, ("b", "c")),
                              ("c", RelationKind.C_SIDE, ("a", "b"))):
        for first, second in ((pos, neg), (neg, pos)):
            if set(first) == {lhs} and set(second) <= set(others):
                j, u, v = canon(first[lhs], second.get(others[0], 0), second.get(others[1], 0))
                return EdgeRelation(kind, j, u, v)
    # a split of three letters into two nonempty groups always has a
    # singleton side, so this is unreachable for exact-length tilings
    raise GeometryError(f"unexpected imbalance pattern {diff}")


def certificate_warnings(cert: Certificate) -> list[str]:
    """Soft diagnostics on a valid certificate.

    A tiling by a scalene 120-degree tile that is not similar to its target
    is expected to realize an edge relation j*b = u*a + v*c or
    j*a = u*b + v*c along some maximal internal segment; its absence is
    reported as a warning, not a violation.
    """
    if cert.tile.is_isosceles():
        return []
    if sorted(cert.target.angles) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]:
        return []  # target similar to the tile
    rels = [
        r for r in extract_edge_relations(cert)
        if r.kind in (RelationKind.B_SIDE, RelationKind.A_SIDE) and r.u > 0 and r.v >= 0
    ]
    if not rels:
        return [
            "no edge relation of the form jb = ua + vc or ja = ub + vc is "
            "realized by any maximal internal segment"
        ]
    return []
