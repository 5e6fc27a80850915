import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingforge.cli import parse_target
from tilingforge.constraints import triangle_spec
from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import (
    GeometryError,
    Point,
    angle_at,
    midpoint,
    on_open_segment,
    orientation,
    point_in_polygon,
    polygon_area_twice,
    pt,
    segment_length,
    segments_properly_cross,
    sides,
)
from tilingforge.search import engine, placements
from tilingforge.search import region as region_module
from tilingforge.search.engine import SearchConfig, TilingSearch, run_search
from tilingforge.search.placements import Placement, candidate_placements, placement_chirality, tile_fits_in_region
from tilingforge.search.region import (
    Polygon,
    _VERTEX_CODE,
    _VERTEX_LINES,
    _along,
    _fill_codes,
    _faces,
    fit,
    splice,
    subtract_triangle,
    tile_lines,
)
from tilingforge.tilealgebra import tile_from_sides

from reference_geometry import sort_along, strictly_inside_triangle, triangle_ccw


def sq(x1, y1, x2, y2):
    return Polygon.from_points([pt(x1, y1), pt(x2, y1), pt(x2, y2), pt(x1, y2)])


def test_polygon_normalization():
    p = Polygon.from_points([pt(0, 0), pt(1, 0), pt(2, 0), pt(2, 2), pt(0, 2)])
    assert len(p) == 4  # collinear vertex merged
    assert p.vertices[0] == pt(0, 0)
    assert p.area2 / 2 == QRoot3(4)


def test_polygon_rejects_clockwise():
    with pytest.raises(GeometryError):
        Polygon.from_points([pt(0, 0), pt(0, 1), pt(1, 1), pt(1, 0)])


def test_interior_angle():
    p = sq(0, 0, 2, 2)
    ang = p.angles[0]
    assert not ang.is_reflex()
    assert ang == p.angles[1]
    # L-shape has one reflex corner
    ell = Polygon.from_points([pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])
    reflex = [i for i in range(len(ell)) if ell.angles[i].is_reflex()]
    assert [ell.vertices[i] for i in reflex] == [pt(1, 1)]


def test_subtract_corner_triangle():
    p = sq(0, 0, 2, 2)
    out = subtract_triangle(p, (pt(0, 0), pt(1, 0), pt(0, 1)))
    assert len(out) == 1
    assert out[0].area2 / 2 == QRoot3(2) + QRoot3(Fraction(3, 2))
    assert pt(1, 0) in out[0].vertices and pt(0, 1) in out[0].vertices


def test_subtract_full_region():
    tri = triangle_ccw(pt(0, 0), pt(1, 0), pt(0, 1))
    p = Polygon.from_points(list(tri))
    assert subtract_triangle(p, tri) == []


def test_subtract_splits_region():
    # triangle spanning the square's full width pinches the region into two
    p = sq(0, 0, 4, 4)
    tri = (pt(0, 0), pt(4, 0), pt(2, 4))
    out = subtract_triangle(p, tri)
    assert len(out) == 2
    assert sorted(float(q.area2 / 2) for q in out) == [4.0, 4.0]


def test_subtract_with_vertex_touch():
    # tile apex lands exactly on the opposite boundary edge midpoint
    p = sq(0, 0, 2, 2)
    tri = (pt(0, 0), pt(2, 0), pt(1, 2))
    out = subtract_triangle(p, tri)
    assert len(out) == 2
    for q in out:
        assert q.area2 / 2 == QRoot3(1)


def test_subtract_exact_half():
    p = sq(0, 0, 2, 2)
    out = subtract_triangle(p, (pt(0, 0), pt(2, 0), pt(2, 2)))
    assert len(out) == 1
    assert out[0].vertices == (pt(0, 0), pt(2, 2), pt(0, 2))


def test_subtract_notch_then_fill():
    # remove a notch from the square, then fill it back: restores the square
    p = sq(0, 0, 2, 2)
    notch = (pt(0, 0), pt(1, 0), pt(1, 1))
    rest = subtract_triangle(p, notch)
    assert len(rest) == 1
    # the remaining region's boundary passes through (1,1) and (1,0)
    verts = rest[0].vertices
    assert pt(1, 1) in verts and pt(1, 0) in verts


def test_subtract_area_mismatch_raises():
    # a triangle poking outside the region must not silently "work"
    p = sq(0, 0, 1, 1)
    with pytest.raises(GeometryError):
        subtract_triangle(p, (pt(0, 0), pt(3, 0), pt(0, 3)))


def test_sqrt3_coordinates():
    half = QRoot3(Fraction(1, 2))
    s32 = QRoot3(0, Fraction(1, 2))
    tri = Polygon.from_points([pt(0, 0), pt(1, 0), Point(half, s32)])
    assert tri.area2 / 2 == QRoot3(0, Fraction(1, 4))
    out = subtract_triangle(tri, (pt(0, 0), pt(1, 0), Point(half, s32)))
    assert out == []


def test_determinism():
    p = sq(0, 0, 4, 4)
    tri = (pt(0, 0), pt(4, 0), pt(2, 4))
    a = subtract_triangle(p, tri)
    b = subtract_triangle(p, tri)
    assert a == b


# -- differential check against the all-pairs subtraction and stop-loop fit ----

def _ref_subtract(region, tri):
    """Split every edge at every endpoint lying on it, cancel opposite
    pairs by net count, and walk the faces; a face that passes a point
    twice (a hole pinned to the boundary) is not simple and raises."""
    a, b, c = tri
    edges = list(region.edges()) + [(b, a), (c, b), (a, c)]
    points = {p for e in edges for p in e}
    atomic = []
    for p, q in edges:
        inner = [r for r in points if on_open_segment(r, p, q)]
        sort_along(inner, p, q)
        ends = [p, *inner, q]
        atomic += zip(ends, ends[1:])
    net, rep = {}, {}
    for p, q in atomic:
        key = tuple(sorted((p.lex_key(), q.lex_key())))
        rep.setdefault(key, (p, q) if p.lex_key() < q.lex_key() else (q, p))
        net[key] = net.get(key, 0) + (1 if p.lex_key() < q.lex_key() else -1)
    assert all(abs(n) <= 1 for n in net.values())
    remaining = [rep[k] if n == 1 else rep[k][::-1] for k, n in net.items() if n]
    unused = set(remaining)
    faces = []
    for start in sorted(remaining, key=lambda e: (e[0].lex_key(), e[1].lex_key())):
        if start not in unused:
            continue
        unused.discard(start)
        cycle, cur = [start[0]], start
        while cur[1] != start[0]:
            cycle.append(cur[1])
            # leave along the most counterclockwise turn from the way back
            outs = sorted((e for e in unused if e[0] == cur[1]), key=lambda e: e[1].lex_key())
            best = outs[0]
            for e in outs[1:]:
                if angle_at(cur[1], cur[0], best[1]).compare(angle_at(cur[1], cur[0], e[1])) < 0:
                    best = e
            unused.discard(best)
            cur = best
        if len(set(cycle)) < len(cycle):
            raise GeometryError("a face passes a point twice: not a simple polygon")
        faces.append(Polygon.from_points(cycle))
    return sorted(faces, key=lambda f: f.vertices[0].lex_key())


def _ref_fits(region, tri):
    """Crossing and vertex tests, then every tile sub-edge midpoint inside
    or on the region and no region sub-edge midpoint inside the tile, each
    edge split at the other boundary's vertices by its own stop loop."""
    tri_edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
    if any(segments_properly_cross(a, b, c, d) for a, b in tri_edges for c, d in region.edges()):
        return False
    if any(point_in_polygon(p, region.vertices) == "outside" for p in tri):
        return False
    for a, b in tri_edges:
        stops = [p for p in region.vertices if on_open_segment(p, a, b)]
        sort_along(stops, a, b)
        prev = a
        for p in stops + [b]:
            if point_in_polygon(midpoint(prev, p), region.vertices) == "outside":
                return False
            prev = p
    for c, d in region.edges():
        stops = [p for p in tri if on_open_segment(p, c, d)]
        sort_along(stops, c, d)
        prev = c
        for p in stops + [d]:
            if strictly_inside_triangle(midpoint(prev, p), tri):
                return False
            prev = p
    return True


T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


@pytest.mark.parametrize("tile, sides, expected", [
    (T357, [QRoot3(15)] * 3, ("exhausted", 380)),
    (T357, [QRoot3(15), QRoot3(25), QRoot3(35)], ("found", 814)),
    (ISO, [3 * SQRT3] * 3, ("found", 27)),
    (T357, [QRoot3(30)] * 3, ("budget", 400)),
    (ISO, [5 * SQRT3] * 3, ("found", 75)),
])
def test_cut_matches_all_pairs_reference(monkeypatch, tile, sides, expected):
    # at every expansion of the search, every triangle the fit test sees
    # gets the reference fit verdict, the search keeps exactly the fitting
    # ones, and every one it keeps carries the reference remainder
    expanded = []
    tested = []
    real_fit = placements.fit

    def spied_fit(region, tri, lines, codes, rows):
        touch = real_fit(region, tri, lines, codes, rows)
        tested.append((tri, touch is not None))
        return touch

    def record_expand(region, corner, geom):
        tested.clear()
        cands = candidate_placements(region, corner, geom)
        expanded.append((region, list(tested), cands))
        return cands

    monkeypatch.setattr(placements, "fit", spied_fit)
    monkeypatch.setattr(engine, "candidate_placements", record_expand)
    budget = expected[1] if expected[0] == "budget" else SearchConfig().node_budget
    out = run_search(tile, triangle_spec(tile, sides), SearchConfig(node_budget=budget))
    assert (out.status, out.stats.nodes) == expected
    # the root, and every node but one that completes a tiling
    assert len(expanded) == out.stats.nodes + (0 if out.status == "found" else 1)
    if tile is T357:  # the isosceles searches never backtrack: every triangle fits
        assert any(not fits for _, seen, _ in expanded for _, fits in seen)
    for region, seen, cands in expanded:
        for tri, fits in seen:
            assert fits == _ref_fits(region, tri)
        assert [c.placement.vertices for c in cands] == [tri for tri, fits in seen if fits]
        for cand in cands:
            tri = cand.placement.vertices
            rest = splice(region, tri, cand.touch, tile.area * 2)
            got = [[p.lex_key() for p in poly.vertices] for poly in rest]
            want = [[p.lex_key() for p in poly.vertices] for poly in _ref_subtract(region, tri)]
            assert got == want
            # carried or measured, every angle is the one its vertices give
            assert all(list(poly.angles) == _fresh_angles(poly) for poly in rest)


def _fresh_angles(poly):
    vs = poly.vertices
    return [angle_at(vs[i], vs[(i + 1) % len(vs)], vs[i - 1]) for i in range(len(vs))]


def _far_edges(region, tri):
    """Indices i of the edges (vertex i - 1, vertex i) with both ends
    strictly outside one tile line."""
    lines = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
    vs = region.vertices
    return [i for i in range(len(vs))
            if any(orientation(a, b, vs[i - 1]) < 0 and orientation(a, b, vs[i]) < 0 for a, b in lines)]


SQUARE = sq(0, 0, 10, 10)


@pytest.mark.parametrize("corner, far", [
    ((10, 10), [0, 1]),  # the far run (0,10) -> (0,0) -> (10,0) wraps past vertex 0
    ((0, 10), [1, 2]),  # the far run starts at vertex 0
    ((0, 0), [2, 3]),
    ((10, 0), [3, 0]),  # the far run ends at vertex 0
])
def test_far_run_around_vertex_zero(corner, far):
    # a tile in each corner of the square: the far edges are the two that
    # do not touch that corner, and their run enters the walk as one strand
    x, y = corner
    dx, dy = (-2 if x else 2), (-2 if y else 2)
    tri = triangle_ccw(pt(x, y), pt(x + dx, y), pt(x, y + dy))
    assert sorted(_far_edges(SQUARE, tri)) == sorted(far)
    rest = subtract_triangle(SQUARE, tri)
    assert rest == _ref_subtract(SQUARE, tri)
    assert len(rest) == 1 and list(rest[0].angles) == _fresh_angles(rest[0])


def test_all_far_region_is_a_hole():
    # every edge of the square is far from a tile strictly inside it: one
    # closed strand, and the tile is a hole
    tri = (pt(4, 4), pt(5, 4), pt(4, 5))
    assert _far_edges(SQUARE, tri) == [0, 1, 2, 3]
    assert _ref_fits(SQUARE, tri)
    with pytest.raises(GeometryError):
        subtract_triangle(SQUARE, tri)
    with pytest.raises(GeometryError):
        _ref_subtract(SQUARE, tri)


def test_place_rejects_a_crossing_no_midpoint_sees():
    # a notch whose apex pokes into the tile through its bottom edge: no
    # vertex of either boundary lies on the other and every sub-edge midpoint
    # is on the right side, so only the proper crossings reject the tile
    region = Polygon.from_points([pt(0, 0), pt(3, 0), pt(4, 3), pt(5, 0), pt(20, 0), pt(20, 20), pt(0, 20)])
    for tri in [(pt(2, 2), pt(18, 2), pt(10, 18)), (pt(18, 2), pt(10, 18), pt(2, 2))]:
        assert not _ref_fits(region, tri) and fit(region, tri, tile_lines(tri), {}, {}) is None
    clear = (pt(6, 0), pt(18, 0), pt(12, 10))
    assert _ref_fits(region, clear)
    assert subtract_triangle(region, clear) == _ref_subtract(region, clear)


def test_fit_and_subtract_are_views_of_place():
    # the containment test is the fit test, and subtraction splices what it found
    region = sq(0, 0, 4, 4)
    inside, poking = (pt(0, 0), pt(4, 0), pt(2, 4)), (pt(0, 0), pt(5, 0), pt(0, 2))
    touch = fit(region, inside, tile_lines(inside), {}, {})
    assert tile_fits_in_region(region, inside) and touch is not None
    assert subtract_triangle(region, inside) == splice(region, inside, touch, polygon_area_twice(inside))
    assert fit(region, poking, tile_lines(poking), {}, {}) is None and not tile_fits_in_region(region, poking)
    with pytest.raises(GeometryError):
        subtract_triangle(region, poking)


def test_a_tile_strictly_inside_fits():
    # no point of the square's boundary lies on the tile: it fits, and
    # subtracting it would leave a hole
    tri = (pt(4, 4), pt(6, 4), pt(4, 6))
    assert tile_fits_in_region(SQUARE, tri)
    with pytest.raises(GeometryError, match="hole"):
        subtract_triangle(SQUARE, tri)


def test_splice_guards_reject_a_slit_and_a_hole():
    # u -> v, then the way on from v runs back towards u: a slit, which the
    # junction check rejects where the face doubles back
    u, v, w = pt(0, 0), pt(2, 0), pt(1, 0)
    with pytest.raises(GeometryError, match="doubles back"):
        Polygon._joined([u, v, w], [None, None, None])
    # no point of the region's boundary on the tile's: no contact, a hole
    with pytest.raises(GeometryError, match="hole"):
        _faces(SQUARE, (pt(4, 4), pt(5, 4), pt(4, 5)), [])


# -- the containment probe: triangles that the region loop lets through ---------

def _fit_verdict(region, tri):
    """True or False for fit, or "error" when the splice of a fitting tile
    raises; the fit test is looked up on the module, where spies wrap it."""
    touch = region_module.fit(region, tri, tile_lines(tri), {}, {})
    if touch is None:
        return False
    try:
        splice(region, tri, touch, polygon_area_twice(tri))
    except GeometryError:
        return "error"
    return True


def _assert_remainder_matches_reference(region, tri):
    """Check the remainder of a fitting tile against _ref_subtract: the
    faces and their vertex order, every stored angle against the one its
    vertices give, and every stored area against its vertices' and the
    reference's; return the remainder."""
    rest, want = subtract_triangle(region, tri), _ref_subtract(region, tri)
    assert [p.vertices for p in rest] == [p.vertices for p in want]
    assert all(list(p.angles) == _fresh_angles(p) for p in rest)
    assert [p.area2 for p in rest] == [polygon_area_twice(p.vertices) for p in rest] == [
        p.area2 for p in want]
    return rest


def _assert_verdict_matches_reference(region, tri):
    """Check the fit verdict against _ref_fits, and a fitting tile's
    remainder against _ref_subtract; return the verdict."""
    tri = triangle_ccw(*tri)
    want, got = _ref_fits(region, tri), _fit_verdict(region, tri)
    if got == "error":
        # a tile strictly inside the region, or touching its boundary at one
        # point only (a hole): both sides raise
        assert want
        with pytest.raises(GeometryError):
            _ref_subtract(region, tri)
    else:
        assert got == want
        if got:
            _assert_remainder_matches_reference(region, tri)
    return got


CONVEX = Polygon.from_points([pt(0, 0), pt(4, 0), pt(5, 2), pt(4, 4), pt(0, 4)])
# a U: the notch (2..3) x (2..5) is outside, between two arms
NON_CONVEX = Polygon.from_points([pt(0, 0), pt(5, 0), pt(5, 5), pt(3, 5), pt(3, 2), pt(2, 2),
                                  pt(2, 5), pt(0, 5)])


@pytest.mark.parametrize("tri", [
    (pt(6, 0), pt(8, 0), pt(7, 2)),  # disjoint, beside the region
    (pt(-3, -3), pt(-1, -3), pt(-2, -1)),  # disjoint, below and left
    (pt(4, 0), pt(6, 0), pt(5, 2)),  # along the slanted edge, outside it
    (pt(0, 4), pt(4, 4), pt(2, 6)),  # along the whole top edge, outside it
    (pt(1, 4), pt(3, 4), pt(2, 5)),  # along part of the top edge, outside it
    (pt(4, 4), pt(6, 4), pt(5, 6)),  # at a vertex from outside
    (pt(5, 2), pt(7, 1), pt(7, 3)),  # at the apex vertex from outside
    (pt(-2, 1), pt(0, 2), pt(-2, 3)),  # its apex on the left edge, outside
])
def test_probe_rejects_a_triangle_outside(tri):
    # no region edge crosses these tiles and no region piece runs inside
    # them: the three that share a piece of a region edge running the other
    # way are rejected by it, the others by the interior probe
    assert not _ref_fits(CONVEX, tri)
    assert fit(CONVEX, tri, tile_lines(tri), {}, {}) is None
    assert not tile_fits_in_region(CONVEX, tri)


def test_probe_rejects_a_triangle_in_the_notch():
    # inside the notch of the U: the region's boundary surrounds it on
    # three sides, touching it along the notch's walls and floor
    for tri in [(pt(2, 2), pt(3, 2), pt(2, 5)), (pt(2, 2), pt(3, 2), pt(3, 5)),
                (pt(2, 3), pt(3, 3), pt(2, 4))]:
        assert not _ref_fits(NON_CONVEX, tri) and fit(NON_CONVEX, tri, tile_lines(tri), {}, {}) is None


def test_hole_raises_on_both_sides():
    tri = (pt(1, 1), pt(2, 1), pt(1, 2))
    assert _ref_fits(CONVEX, tri)
    with pytest.raises(GeometryError):
        subtract_triangle(CONVEX, tri)
    with pytest.raises(GeometryError):
        _ref_subtract(CONVEX, tri)


# small triangles: legs of 1 and 2 in the four axis orientations, and two
# slanted ones
SHAPES = [(pt(0, 0), pt(a, 0), pt(0, b)) for a in (1, -1, 2, -2) for b in (1, -1, 2, -2)] + [
    (pt(0, 0), pt(2, 1), pt(1, 2)), (pt(0, 0), pt(1, -1), pt(2, 1))]


@pytest.mark.parametrize("region", [CONVEX, NON_CONVEX], ids=["convex", "non-convex"])
def test_probe_lattice_sweep(region):
    # every shape at every lattice offset around the region: disjoint,
    # touching, crossing, inside, and strictly inside (holes)
    seen = set()
    for dx in range(-2, 7):
        for dy in range(-2, 7):
            for shape in SHAPES:
                tri = tuple(pt(p.x + dx, p.y + dy) for p in shape)
                seen.add(_assert_verdict_matches_reference(region, tri))
    assert seen == {True, False, "error"}


# -- the fit test's sign rules against the probe and the reference ------------

def _shared_pieces(region, tri):
    """For each region edge that shares a piece of positive length with a
    tile edge, whether it runs the tile edge's way."""
    out = []
    for a, b in [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]:
        for c, d in region.edges():
            if orientation(a, b, c) or orientation(a, b, d):
                continue
            if (on_open_segment(c, a, b) or on_open_segment(d, a, b) or on_open_segment(a, c, d)
                    or on_open_segment(b, c, d) or {c, d} == {a, b}):
                out.append(((d.x - c.x) * (b.x - a.x) + (d.y - c.y) * (b.y - a.y)).sign() > 0)
    return out


def _boundary_enters(region, tri):
    """A region edge properly crosses a tile edge, or a region sub-edge,
    split at the tile's vertices, has its midpoint strictly inside the tile."""
    tri_edges = [(tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])]
    if any(segments_properly_cross(a, b, c, d) for a, b in tri_edges for c, d in region.edges()):
        return True
    for c, d in region.edges():
        stops = [p for p in tri if on_open_segment(p, c, d)]
        sort_along(stops, c, d)
        ends = [c, *stops, d]
        if any(strictly_inside_triangle(midpoint(p, q), tri) for p, q in zip(ends, ends[1:])):
            return True
    return False


def _spy_on_fit(monkeypatch):
    """Wrap the fit test where `_fit_verdict`, `subtract_triangle` and
    `candidate_placements` call it.
    Whenever a region edge shares a piece with a tile edge, the fit takes
    its verdict from it and makes no probe; if the region's boundary keeps
    out of the open tile, that verdict and every shared piece's direction
    agree with the interior probe.  Returns the tallies (fit tests, shared
    verdicts, shared verdicts by probe answer, probes made)."""
    tally = {"fits": 0, "shared": 0, "inside": 0, "outside": 0, "probes": 0}
    real_fit, real_probe = region_module.fit, region_module.point_in_polygon

    def counted_probe(p, vertices):
        tally["probes"] += 1
        return real_probe(p, vertices)

    def spied(poly, tri, lines, codes, rows):
        probes = tally["probes"]
        got = real_fit(poly, tri, lines, codes, rows)
        tally["fits"] += 1
        shared = _shared_pieces(poly, tri)
        if not shared:
            return got
        tally["shared"] += 1
        assert tally["probes"] == probes
        if not _boundary_enters(poly, tri):
            probe = point_in_polygon(midpoint(tri[0], midpoint(tri[1], tri[2])), poly.vertices)
            assert probe != "on"
            tally[probe] += 1
            assert (got is not None) == (probe == "inside")
            assert shared == [probe == "inside"] * len(shared)
        return got

    monkeypatch.setattr(region_module, "point_in_polygon", counted_probe)
    monkeypatch.setattr(region_module, "fit", spied)
    monkeypatch.setattr(placements, "fit", spied)
    return tally


# the benchmark's searches, each with its pinned verdict and node count
PINNED = [
    (T357, [QRoot3(15)] * 3, True, None, ("exhausted", 380)),
    (T357, [QRoot3(15)] * 3, False, None, ("exhausted", 9)),
    (T357, [QRoot3(15), QRoot3(25), QRoot3(35)], True, None, ("found", 814)),
    (T357, [QRoot3(30)] * 3, True, 400, ("budget", 400)),
    (ISO, [4 * SQRT3] * 3, True, None, ("found", 48)),
    (ISO, [5 * SQRT3] * 3, True, None, ("found", 75)),
]
PINNED_SEARCHES = pytest.mark.parametrize("tile, sides, allow_mirror, budget, expected", PINNED, ids=[
    "357-eq15", "357-eq15-direct", "357-15,25,35", "357-eq30-budget", "iso-eq4sqrt3", "iso-eq5sqrt3"])


@PINNED_SEARCHES
def test_the_benchmark_searches_make_no_probe(monkeypatch, tile, sides, allow_mirror, budget, expected):
    # every candidate's flush edge shares a piece with the region's
    # outgoing edge, running its way, so no fit test probes
    tally = _spy_on_fit(monkeypatch)
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=budget or SearchConfig().node_budget)
    out = run_search(tile, triangle_spec(tile, sides), config)
    assert (out.status, out.stats.nodes) == expected
    assert tally["fits"] == tally["shared"] > 0
    assert tally["probes"] == 0


@PINNED_SEARCHES
def test_the_benchmark_searches_read_the_flush_edge_off_the_signs(monkeypatch, tile, sides, allow_mirror, budget,
                                                                    expected):
    # the flush edge starts at tile vertex 0, on the ray line, so the sign
    # table gives its direction and the fit test takes no orientation
    calls = []
    monkeypatch.setattr(region_module, "orientation", lambda *args: calls.append(args) or orientation(*args))
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=budget or SearchConfig().node_budget)
    out = run_search(tile, triangle_spec(tile, sides), config)
    assert (out.status, out.stats.nodes) == expected
    assert calls == []


@PINNED_SEARCHES
def test_a_polygon_built_from_its_vertices_has_the_carried_area_and_angles(monkeypatch, tile, sides, allow_mirror,
                                                                            budget, expected):
    # every region the search enters carries its area, angles and vertex
    # keys over from the splice; a polygon given its vertices alone
    # measures the same
    entered = []
    real_splice = engine.splice

    def recorded(*args):
        rest = real_splice(*args)
        entered.extend(rest)
        return rest

    monkeypatch.setattr(engine, "splice", recorded)
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=budget or SearchConfig().node_budget)
    search = TilingSearch(tile, triangle_spec(tile, sides), config)
    out = search.run()
    assert (out.status, out.stats.nodes) == expected
    assert entered
    for region in [search.initial, *entered]:
        whole = Polygon(region.vertices)
        assert (whole, whole.area2, whole.angles) == (region, region.area2, region.angles)
        assert whole.keys == region.keys == tuple(v.key for v in region.vertices)


@pytest.mark.parametrize("poly", [CONVEX, NON_CONVEX], ids=["convex", "non-convex"])
def test_shared_piece_verdicts_agree_with_the_probe(monkeypatch, poly):
    # the lattice sweep's tiles, with the fit test spied on
    tally = _spy_on_fit(monkeypatch)
    for dx in range(-2, 7):
        for dy in range(-2, 7):
            for shape in SHAPES:
                tri = triangle_ccw(*[pt(p.x + dx, p.y + dy) for p in shape])
                _fit_verdict(poly, tri)
    assert tally["inside"] > 0 and tally["outside"] > 0
    assert 0 < tally["probes"] <= tally["fits"] - tally["shared"]


# the left half of a square, its right side through (2, 0) bent outwards
BENT = Polygon.from_points([pt(-6, -6), pt(4, -6), pt(2, 0), pt(2, 6), pt(-6, 6)])


@pytest.mark.parametrize("poly, tri, fits", [
    # the bottom edge is on the tile's base line and strictly across the
    # other line through each base vertex: both vertices lie inside it
    pytest.param(SQUARE, (pt(3, 0), pt(7, 0), pt(5, 4)), True, id="on-one-line-across-the-other"),
    pytest.param(SQUARE, (pt(3, 0), pt(5, -4), pt(7, 0)), False, id="on-one-line-across-the-other-outside"),
    # the top edge is strictly across both lines through the apex
    pytest.param(SQUARE, (pt(0, 0), pt(10, 0), pt(5, 10)), True, id="across-both-lines"),
    pytest.param(SQUARE, (pt(3, 12), pt(5, 10), pt(7, 12)), False, id="across-both-lines-outside"),
    pytest.param(SQUARE, (pt(4, 9), pt(6, 9), pt(5, 11)), False, id="across-both-lines-missing-the-apex"),
    # from the middle of the tile's base through its apex: only the piece
    # up to the apex, both ends on the tile's boundary, runs inside it
    pytest.param(BENT, (pt(0, 0), pt(4, 0), pt(2, 4)), False, id="piece-from-an-edge-to-the-apex"),
])
def test_cut_rules_match_reference(poly, tri, fits):
    assert _assert_verdict_matches_reference(poly, tri) is fits


# a tower of width 1 on a slab, and a square with a notch of width 1 up
# into it from its bottom edge
TOWER = Polygon.from_points([pt(0, 0), pt(5, 0), pt(5, 2), pt(3, 2), pt(3, 4), pt(2, 4), pt(2, 2), pt(0, 2)])
NOTCHED = Polygon.from_points([pt(0, 0), pt(4, 0), pt(4, 2), pt(5, 2), pt(5, 0), pt(9, 0), pt(9, 9), pt(0, 9)])


@pytest.mark.parametrize("poly, tri, edge, fits", [
    # the tower's top edge runs against the tile's base: outside
    pytest.param(TOWER, (pt(1, 4), pt(4, 4), pt(2, 6)), (pt(3, 4), pt(2, 4)), False, id="against-the-tile-edge"),
    # the notch's top edge runs along the tile's base: inside
    pytest.param(NOTCHED, (pt(3, 2), pt(6, 2), pt(4, 4)), (pt(4, 2), pt(5, 2)), True, id="along-the-tile-edge"),
])
def test_a_shared_piece_strictly_inside_a_tile_edge_takes_one_orientation(monkeypatch, poly, tri, edge, fits):
    # both ends of the region edge that shares a piece with the tile's base
    # lie strictly inside that tile edge, so their codes give no way and
    # the apex decides
    assert _assert_verdict_matches_reference(poly, tri) is fits
    calls = []
    monkeypatch.setattr(region_module, "orientation", lambda *args: calls.append(args) or orientation(*args))
    assert (fit(poly, tri, tile_lines(tri), {}, {}) is not None) is fits
    assert calls == [(*edge, tri[2])]


L_SHAPE = Polygon.from_points([pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])
# a square with two spikes down from its top edge, to (4, 2) and (2, 4)
SPIKES = Polygon.from_points([pt(0, 0), pt(8, 0), pt(8, 8), pt(5, 8), pt(4, 2), pt(3, 8), pt(2, 4),
                              pt(1, 8), pt(0, 8)])


@pytest.mark.parametrize("region, tri, faces", [
    # the bottom edge, and the apex on the top edge, which pinches
    pytest.param(SQUARE, (pt(0, 0), pt(10, 0), pt(5, 10)), 2, id="two-contacts"),
    # the tile's base inside the bottom edge: one contact, whose two ends
    # lie inside one region edge, and a face round the whole tile
    pytest.param(SQUARE, (pt(3, 0), pt(7, 0), pt(5, 4)), 1, id="tile-vertex-on-region-edge"),
    # the reflex vertex (1, 1) touches the tile's long edge
    pytest.param(L_SHAPE, (pt(0, 0), pt(2, 0), pt(0, 2)), 2, id="region-vertex-on-tile-edge"),
    # along the top edge, through the last vertex (0, 10), down edge 0
    pytest.param(SQUARE, (pt(0, 10), pt(0, 4), pt(3, 10)), 1, id="contact-wraps-past-vertex-0"),
    # the two spike tips touch one tile edge: a face between them
    pytest.param(SPIKES, (pt(0, 0), pt(6, 0), pt(0, 6)), 3, id="two-contacts-on-one-tile-edge"),
])
def test_splice_matches_reference(region, tri, faces):
    assert _ref_fits(region, tri)
    assert len(_assert_remainder_matches_reference(region, tri)) == faces


@pytest.mark.parametrize("k", [0, 1, 2])
def test_a_region_edge_holding_a_whole_tile_edge(k):
    # tile edge k runs from (1, 0) to (3, 0), strictly inside a region edge
    # on y = 0: both its vertices are cut into that edge, vertex k first
    base = (pt(1, 0), pt(3, 0), pt(2, 1))
    tri = tuple(base[(j - k) % 3] for j in range(3))
    # the edge runs the tile edge's way: the tile fits, notching the square
    above = sq(0, 0, 4, 4)
    rest = _assert_remainder_matches_reference(above, tri)
    assert [p.vertices for p in rest] == [Polygon.from_points(
        [pt(0, 0), pt(1, 0), pt(2, 1), pt(3, 0), pt(4, 0), pt(4, 4), pt(0, 4)]).vertices]
    # the edge runs the other way: the tile lies outside the square below
    below = sq(0, -4, 4, 0)
    assert not _ref_fits(below, tri)
    assert fit(below, tri, tile_lines(tri), {}, {}) is None


# -- the rule table against the branchy fit test --------------------------------

def _branchy_fit(region, tri):
    """The fit test as it was before its rule table: the codes of the
    region's vertices from three fresh `sides` rows, then each near edge's
    cuts, pieces, crossings and shared piece worked out from the codes of
    its ends, and the tile's signs where it is strictly across two tile
    lines, every time the edge is met."""
    verts = region.vertices
    n = len(verts)
    code = [(s0 < 0) | (s1 < 0) << 1 | (s2 < 0) << 2 | (s0 > 0) << 3 | (s1 > 0) << 4 | (s2 > 0) << 5
            for s0, s1, s2 in zip(sides(tri[0], tri[1], verts), sides(tri[1], tri[2], verts),
                                  sides(tri[2], tri[0], verts))]
    near = [i for i in range(n) if not code[i - 1] & code[i] & 7]
    touch = []
    inside = False
    for i in near:
        c, d = verts[i - 1], verts[i]
        out_c, out_d, in_c, in_d = code[i - 1] & 7, code[i] & 7, code[i - 1] >> 3, code[i] >> 3
        apart = out_c & in_d | in_c & out_d
        on = 7 & ~(out_c | in_c | out_d | in_d)
        o = None
        if on:
            inner = [k for k, both in enumerate(_VERTEX_LINES) if on & both and apart & both]
        elif apart & (apart - 1):
            o = sides(c, d, tri)
            inner = [k for k, both in enumerate(_VERTEX_LINES) if apart & both == both and not o[k]]
        else:
            inner = []
        if len(inner) > 1:
            k = on.bit_length() - 1
            inner = [k, (k + 1) % 3]
        touch += [(2 * i, tri[k], _VERTEX_LINES[k]) for k in inner]
        if not out_d:
            touch.append((2 * i + 1, d, 7 & ~in_d))
        ends = [code[i - 1], *[_VERTEX_CODE[k] for k in inner], code[i]]
        if on:
            if not inside and any(not (p | q) & 7 for p, q in zip(ends, ends[1:])):
                k = on.bit_length() - 1
                if (_along(code[i - 1], code[i], k) or orientation(c, d, tri[(k + 2) % 3])) < 0:
                    return None
                inside = True
            continue
        if in_c | in_d != 7:
            continue
        if o is None:
            return None
        if any(apart >> k & 1 and o[k] and o[(k + 1) % 3] == -o[k] for k in range(3)):
            return None
        if any(not (p | q) & 7 and (p | q) >> 3 == 7 for p, q in zip(ends, ends[1:])):
            return None
    if not inside:
        if point_in_polygon(midpoint(tri[0], midpoint(tri[1], tri[2])), verts) != "inside":
            return None
    return touch


def _check_against_branchy_fit(monkeypatch):
    """Wrap the fit test where `subtract_triangle` and `candidate_placements` call it,
    so that every call must return what `_branchy_fit` returns; returns the
    tallies of fitting and rejected tiles."""
    tally = {"fits": 0, "rejected": 0}
    real_fit = region_module.fit

    def checked(poly, tri, lines, codes, rows):
        got = real_fit(poly, tri, lines, codes, rows)
        assert got == _branchy_fit(poly, tri)
        tally["rejected" if got is None else "fits"] += 1
        return got

    monkeypatch.setattr(region_module, "fit", checked)
    monkeypatch.setattr(placements, "fit", checked)
    return tally


@PINNED_SEARCHES
def test_the_benchmark_searches_match_the_branchy_fit(monkeypatch, tile, sides, allow_mirror, budget, expected):
    tally = _check_against_branchy_fit(monkeypatch)
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=budget or SearchConfig().node_budget)
    out = run_search(tile, triangle_spec(tile, sides), config)
    assert (out.status, out.stats.nodes) == expected
    assert tally["fits"] > 0
    if tile is T357:
        assert tally["rejected"] > 0


def test_a_search_with_no_benchmark_pin_matches_the_branchy_fit(monkeypatch):
    # (3,5,7) against the triangle with sides 24, 21, 15, as CI runs it
    tally = _check_against_branchy_fit(monkeypatch)
    out = run_search(T357, parse_target("triangle:24,21,15", T357), SearchConfig())
    assert (out.status, out.stats.nodes, out.stats.max_depth) == ("exhausted", 1929, 21)
    assert tally["fits"] > 0 and tally["rejected"] > 0


@pytest.mark.parametrize("poly", [CONVEX, NON_CONVEX, BENT, SPIKES, L_SHAPE],
                         ids=["convex", "non-convex", "bent", "spikes", "l-shape"])
def test_lattice_sweep_matches_the_branchy_fit(monkeypatch, poly):
    # every shape at every lattice offset from two units left of and below
    # the region to two units right of and above it, with a fresh rule
    # table, each tile with an empty code table
    monkeypatch.setattr(region_module, "_RULES", {})
    seen = set()
    for tri in _sweep(poly):
        got = region_module.fit(poly, tri, tile_lines(tri), {}, {})
        assert got == _branchy_fit(poly, tri)
        assert tile_fits_in_region(poly, tri) is (got is not None)
        seen.add(got is not None)
    assert seen == {True, False}
    rules = region_module._RULES.values()
    assert region_module._NO_FIT in rules and region_module._ACROSS in rules


def _sweep(poly):
    """Every shape, counterclockwise, at every lattice offset from two units
    left of and below the region to two units right of and above it."""
    xs, ys = [int(v.x.n1) for v in poly.vertices], [int(v.y.n1) for v in poly.vertices]
    for dx in range(min(xs) - 2, max(xs) + 3):
        for dy in range(min(ys) - 2, max(ys) + 3):
            for shape in SHAPES:
                yield triangle_ccw(*[pt(p.x + dx, p.y + dy) for p in shape])


def test_the_sweeps_and_searches_splice_three_faces_and_wrap_the_last_gap(monkeypatch):
    # the gap walk of `_faces` on the lattice sweeps and the benchmark's
    # searches: some splice gives three faces, and some splice of several
    # faces takes its last from the gap that wraps round the vertex cycle;
    # each of them gives the faces of _ref_subtract
    kinds = {"three": 0, "wrapped": 0}
    real_faces = region_module._faces

    def counted(region, tri, touch):
        faces = real_faces(region, tri, touch)
        wraps = (touch[-1][0] + 1) // 2 != (touch[0][0] + 2 * len(region)) // 2
        if len(faces) == 3 or len(faces) > 1 and wraps:
            kinds["three"] += len(faces) == 3
            kinds["wrapped"] += len(faces) > 1 and wraps
            try:  # not swallowed by the sweep's `_fit_verdict`
                want = _ref_subtract(region, tri)
            except GeometryError as err:
                raise AssertionError("the reference finds no simple faces") from err
            assert sorted([v.key for v in p.vertices] for p in faces) == sorted(
                [v.key for v in p.vertices] for p in want)
        return faces

    monkeypatch.setattr(region_module, "_faces", counted)
    for poly in (CONVEX, NON_CONVEX, BENT, SPIKES, L_SHAPE):
        for tri in _sweep(poly):
            _fit_verdict(poly, tri)
    for tile, sides, allow_mirror, budget, expected in PINNED:
        config = SearchConfig(allow_mirror=allow_mirror, node_budget=budget or SearchConfig().node_budget)
        out = run_search(tile, triangle_spec(tile, sides), config)
        assert (out.status, out.stats.nodes) == expected
    assert kinds["three"] > 0 and kinds["wrapped"] > 0, kinds


def _all_codes():
    """The 27 codes of a point: per tile line, strictly outside, on it or
    strictly inside."""
    return [o | i << 3 for o in range(8) for i in range(8) if not o & i]


def test_the_rule_keys_are_the_near_code_pairs():
    # 512 pairs of codes with no tile line strictly outside at both ends;
    # 68 of them, strictly across two or three tile lines and on none,
    # take the tile's signs, and a row of signs gives no further `_ACROSS`
    near = [(cc, cd) for cc in _all_codes() for cd in _all_codes() if not cc & cd & 7]
    across = [(cc, cd) for cc, cd in near if region_module._rule(cc, cd) is region_module._ACROSS]
    assert len(near) == 512 and len(across) == 68
    signs = [(a, b, c) for a in (-1, 0, 1) for b in (-1, 0, 1) for c in (-1, 0, 1)]
    assert all(region_module._rule(cc, cd, o) is not region_module._ACROSS for cc, cd in across for o in signs)


def test_the_rule_table_fills_on_first_use():
    code = "from tilingforge.search import region; print(len(region._RULES))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_the_rule_table_keeps_its_rejecting_rules(monkeypatch):
    # a second identical search builds no rule, the "cannot fit" ones included
    monkeypatch.setattr(region_module, "_RULES", {})
    built = []
    real_rule = region_module._rule
    monkeypatch.setattr(region_module, "_rule", lambda *args: built.append(args) or real_rule(*args))
    target = triangle_spec(T357, [QRoot3(30)] * 3)
    first = run_search(T357, target, SearchConfig(node_budget=400))
    assert built and region_module._NO_FIT in region_module._RULES.values()
    built.clear()
    second = run_search(T357, target, SearchConfig(node_budget=400))
    assert (first.status, first.stats.nodes) == (second.status, second.stats.nodes) == ("budget", 400)
    assert built == []


def test_the_rule_table_holds_only_pair_and_across_entries():
    # after a search, and whatever else ran in this process, each entry is
    # keyed by a near code pair, or by an across pair and a row of signs
    near = {cc << 6 | cd for cc in _all_codes() for cd in _all_codes() if not cc & cd & 7}
    signs = {-1, 0, 1}
    run_search(T357, triangle_spec(T357, [QRoot3(15)] * 3), SearchConfig())
    rules = region_module._RULES
    pairs = [key for key in rules if isinstance(key, int)]
    extended = [key for key in rules if not isinstance(key, int)]
    assert set(pairs) <= near
    for key in extended:
        base, *o = key
        assert rules[base] is region_module._ACROSS and len(o) == 3 and set(o) <= signs
        assert rules[key] is not region_module._ACROSS
    assert len(rules) <= 512 + len(extended)


# -- the corner rule against a naive enumerator --------------------------------

def _naive_tilings(tile, target, allow_mirror):
    """Every tiling of the target, each as a set of its tiles' vertex keys.
    At the lowest-leftmost vertex of the uncovered region (a convex corner,
    so in any tiling one tile there is flush with the outgoing edge) it
    tries every tile angle in both edge orders against the outgoing edge,
    with no angle or length filter; _ref_fits decides containment and
    _ref_subtract gives the rest."""
    legs = {"alpha": (tile.b, tile.c), "beta": (tile.a, tile.c), "gamma": (tile.a, tile.b)}
    found = set()

    def walk(regions, placed):
        if not regions:
            found.add(frozenset(placed))
            return
        region, i = min(((r, i) for r in regions for i in range(len(r))),
                        key=lambda ri: (ri[0].vertices[ri[1]].y, ri[0].vertices[ri[1]].x))
        v, w = region.vertices[i], region.vertices[(i + 1) % len(region)]
        length = segment_length(v, w)
        ux, uy = (w.x - v.x) / length, (w.y - v.y) / length
        tried = set()  # an isosceles tile gives some triangles twice
        for name, (e1, e2) in legs.items():
            cos_v, sin_v = tile.angle_vec(name)
            rx, ry = ux * cos_v - uy * sin_v, ux * sin_v + uy * cos_v
            for flush, other in ((e1, e2), (e2, e1)):
                tri = (v, Point(v.x + ux * flush, v.y + uy * flush), Point(v.x + rx * other, v.y + ry * other))
                key = frozenset(p.lex_key() for p in tri)
                if key in tried or placement_chirality(tile, Placement(tri, False)) and not allow_mirror:
                    continue
                tried.add(key)
                if _ref_fits(region, tri):
                    walk([r for r in regions if r is not region] + _ref_subtract(region, tri), placed + [key])

    walk([Polygon.from_points(list(target.vertices()))], [])
    return found


@pytest.mark.parametrize("tile, sides, tilings", [
    pytest.param(ISO, [SQRT3] * 3, 1, id="iso-sqrt3"),
    pytest.param(ISO, [2 * SQRT3] * 3, 2, id="iso-2sqrt3"),
    pytest.param(T357, [QRoot3(6), QRoot3(10), QRoot3(14)], 1, id="357-6,10,14"),
    pytest.param(T357, [QRoot3(9), QRoot3(15), QRoot3(21)], 1, id="357-9,15,21"),
    pytest.param(ISO, [3 * SQRT3] * 3, 9, id="iso-3sqrt3"),
    pytest.param(T357, [QRoot3(12), QRoot3(20), QRoot3(28)], 1, id="357-12,20,28"),
    pytest.param(T357, [QRoot3(15)] * 3, 0, id="357-15"),  # the exhausted verdict
])
@pytest.mark.parametrize("allow_mirror", [True, False], ids=["mirrors", "no-mirrors"])
def test_corner_rule_finds_the_naive_tilings(tile, sides, tilings, allow_mirror):
    # the smallest-angle corner, the angle and length filters and the
    # frames give the same tilings as trying every flush tile everywhere
    target = triangle_spec(tile, sides)
    certs = TilingSearch(tile, target, SearchConfig(allow_mirror=allow_mirror)).enumerate_all()
    got = {frozenset(frozenset(v.lex_key() for v in p.vertices) for p in c.placements) for c in certs}
    assert len(got) == len(certs) == tilings
    assert got == _naive_tilings(tile, target, allow_mirror)


# -- the one-pass codes ------------------------------------------------------------

_big = st.integers(-(2**300), 2**300)
_small = st.integers(-40, 40)
_coords = st.one_of(st.builds(QRoot3._raw, _small, _small, st.integers(1, 6)),
                    st.builds(QRoot3._raw, _big, _big, st.integers(1, 2**300)))
_points = st.builds(Point, _coords, _coords)


@settings(max_examples=300, deadline=None)
@given(st.tuples(_points, _points, _points), st.lists(_points, max_size=5),
       st.lists(st.tuples(st.integers(0, 2), st.fractions(-3, 3, max_denominator=10**6)), max_size=5))
def test_the_one_pass_codes_are_the_orientation_signs(tri, free, on_lines):
    # the code of each point from the kept line forms, read in one pass, is
    # bit k for orientation(tri[k], tri[k + 1], p) < 0 and bit k + 3 for > 0;
    # points on each tile line (between, at and beyond its tile vertices)
    # and the tile's own vertices lie on their lines, so their bits are 0
    on = []
    for k, t in on_lines:
        a, b = tri[k], tri[(k + 1) % 3]
        on.append((k, Point(a.x + QRoot3(t) * (b.x - a.x), a.y + QRoot3(t) * (b.y - a.y))))
    points = [*tri, *free, *[p for _, p in on]]
    keys = [p.key for p in points]
    want = [sum((o < 0) << k | (o > 0) << k + 3
                for k, o in enumerate(orientation(tri[k], tri[(k + 1) % 3], p) for k in range(3)))
            for p in points]
    code, codes = [None] * len(points), {}
    _fill_codes(tile_lines(tri), points, keys, code, codes)
    assert code == want
    assert codes == dict(zip(keys, want))
    lines_of = [(2, 0), (0, 1), (1, 2)] + [()] * len(free) + [(k,) for k, _ in on]
    assert all(not c >> k & 9 for c, ks in zip(code, lines_of) for k in ks)
    # a code already known is left as it is and not added again
    code, codes = [-1, *[None] * (len(points) - 1)], {}
    _fill_codes(tile_lines(tri), points, keys, code, codes)
    assert code == [-1, *want[1:]]
    assert codes == dict(zip(keys[1:], want[1:]))
