"""Certificates: the exchange format for claimed tilings, an independent
exact checker, and extraction of edge relations from valid certificates.

Certificate coordinates are canonical: the target triangle has its longest
side X on the x-axis from (0, 0) to (X, 0) and its apex above the axis.
The checker shares only these vertices (`TriangleSpec.vertices`) and the
exact geometric predicates with the search engine; it never looks at search
state.  Interior disjointness is decided exactly on the placement pairs
whose bounding boxes overlap, found by a sweep over exact x; every other
pair is separated by an axis-parallel line.  A tested pair is disjoint iff
the line of one of its own edges separates it (the separating-axis test),
and containment is read off the target's three edge lines, each line one
`sides` row over the points it tests.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Optional

from ..constraints import ConstraintError, TriangleSpec
from ..exactnum import QRoot3
from ..geometry import (
    GeometryError,
    Point,
    orientation,
    polygon_area_twice,
    sides,
    squared_distance,
)
from ..tilealgebra import EdgeRelation, RelationKind, TileShape
from .placements import Placement, placement_chirality

SCHEMA = "v1"


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
        tile = TileShape.from_json(obj["tile"])
        target = TriangleSpec.from_json(obj["target"], tile)
        placements = tuple(Placement.from_json(p) for p in obj["placements"])
        if not placements:
            raise ValueError("empty certificate")
        allow_mirror = obj.get("allow_mirror", True)
        if not isinstance(allow_mirror, bool):
            raise ValueError(f"allow_mirror must be a JSON boolean, not {allow_mirror!r}")
        return Certificate(tile, target, placements, allow_mirror)

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
        corners = cert.target.vertices()
    except (ConstraintError, GeometryError):
        return [Violation("BadTarget")]
    tris = [p.vertices for p in cert.placements]
    # the target is convex and counterclockwise, so a vertex is outside it
    # iff it is strictly right of one of its edge lines, and vertex
    # containment is containment
    points = [v for t in tris for v in t]
    rows = [sides(corners[k - 1], corners[k], points) for k in range(3)]
    outside = [min(s) < 0 for s in zip(*rows)]

    for i, p in enumerate(cert.placements):
        chir = placement_chirality(cert.tile, p)
        if chir is None:
            violations.append(Violation("Noncongruent", (i,)))
            continue
        if chir != p.mirrored and not cert.tile.is_isosceles():
            violations.append(Violation("ChiralityMismatch", (i,)))
        if p.mirrored and not cert.allow_mirror:
            violations.append(Violation("MirrorNotAllowed", (i,)))
        if any(outside[3 * i:3 * i + 3]):
            violations.append(Violation("OutsideTarget", (i,)))

    turns = [orientation(*t) for t in tris]
    for i, j in _box_pairs(tris):
        if _triangles_overlap(tris[i], tris[j], turns[i], turns[j]):
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
    pair lies on the two closed sides of a line x = m or y = m, so their
    interiors are disjoint and one of their own edge lines separates them.
    The sweep scans in order of exact min x and stops at the first
    min x >= the current max x."""
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


def _triangles_overlap(t1, t2, o1: int, o2: int) -> bool:
    """The placements t1 and t2, of orientations o1 and o2, overlap: no
    edge line of either has all three vertices of the other on its closed
    outer side (the separating-axis test).  An edge is directed by its own
    triangle's orientation, so a clockwise placement is tested as its point
    set; the line of a collinear placement separates on either side, and a
    zero-length edge has no line.  Two single points have no line at all
    and never overlap."""
    lined = False
    for t, o, other in ((t1, o1, t2), (t2, o2, t1)):
        for a, b in ((t[0], t[1]), (t[1], t[2]), (t[2], t[0])):
            if a == b:
                continue
            lined = True
            row = sides(a, b, other)
            if (o >= 0 and max(row) <= 0) or (o <= 0 and min(row) >= 0):
                return False
    return lined


# ---------------------------------------------------------------------------
# edge relations realized by a certificate


def _line_key(p: Point, q: Point) -> tuple:
    """(slope, y-intercept) of the line through p != q, or (None, x) if the
    line is vertical: one exact key per undirected line."""
    if p.x == q.x:
        return (None, p.x)
    slope = (q.y - p.y) / (q.x - p.x)
    return (slope, p.y - slope * p.x)


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
    """Per maximal internal segment: ({side: count} left, {side: count} right).

    Segments come line by line, in the order each line's first edge appears
    in the certificate, and along a line by position.  Left and right face
    increasing x, or increasing y on a vertical line.  An isosceles tile
    names its equal legs "a".
    """
    corners = cert.target.vertices()
    target_lines = {_line_key(corners[i], corners[(i + 1) % 3]) for i in range(3)}
    a2, b2, c2 = cert.tile.side_squares
    names = {c2: "c", b2: "b", a2: "a"}  # on a == b the later "a" stays

    by_line: dict[tuple, list] = {}
    for p in cert.placements:
        v = p.vertices
        for e in range(3):
            a, b = v[e], v[(e + 1) % 3]
            key = _line_key(a, b)
            if key in target_lines:
                continue  # boundary, not internal
            by_line.setdefault(key, []).append((a, b, v[(e + 2) % 3]))

    out = []
    for (slope, _), edges in by_line.items():
        events = []
        for a, b, opp in edges:
            # position along the line, as in geometry.sort_along
            lo, hi = (a.y, b.y) if slope is None else (a.x, b.x)
            side = orientation(a, b, opp)  # +1 tile on the left of a->b
            if hi < lo:
                lo, hi, side = hi, lo, -side
            sq = squared_distance(a, b)
            if sq not in names:
                raise GeometryError(f"tile edge of unexpected squared length {sq}")
            events.append((lo, hi, side, names[sq]))
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
            for lo, hi, side, name in run:
                bucket = left if side > 0 else right
                bucket[name] = bucket.get(name, 0) + 1
            out.append((left, right))
    return out


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
    if cert.tile.is_isosceles() or cert.target.similar_to_tile():
        return []
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
