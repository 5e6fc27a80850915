import ast
import copy
import functools
import hashlib
import json
import pickle
from pathlib import Path
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingforge.cli import parse_target
from tilingforge.constraints import target_vertices, triangle_spec
from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import (
    AngleVec,
    GeometryError,
    Point,
    midpoint,
    on_open_segment,
    orientation,
    point_in_polygon,
    pt,
    segments_properly_cross,
)
import tilingforge.search.certificate as cmod
from tilingforge.search.certificate import (
    Certificate,
    _box_pairs,
    _line_key,
    analyze_maximal_segments,
    certificate_warnings,
    Violation,
    check_certificate,
    extract_edge_relations,
    _relation_from_counts,
    Placement,
    placement_chirality,
)
from tilingforge.search import placements as pmod
from tilingforge.search.engine import SearchConfig, TilingSearch, run_search
from tilingforge.search.region import Polygon
from tilingforge.tilealgebra import EdgeRelation, RelationKind, tile_from_sides

from reference_geometry import strictly_inside_triangle

T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


def iso_n3_certificate() -> Certificate:
    """The equilateral 3-tiling, written down from explicit coordinates."""
    tri = triangle_spec(ISO, [SQRT3] * 3)
    b, c, a = tri.vertices()
    center = Point((b.x + c.x + a.x) * Fraction(1, 3), (b.y + c.y + a.y) * Fraction(1, 3))
    placements = (
        Placement((b, c, center), False),
        Placement((c, a, center), False),
        Placement((a, b, center), False),
    )
    return Certificate(ISO, tri, placements, True)


def midpoint_n4_certificate() -> Certificate:
    """The quadratic 4-tiling of (6, 10, 14) by (3, 5, 7) via midpoints."""
    tri = triangle_spec(T357, [QRoot3(6), QRoot3(10), QRoot3(14)])
    b, c, a = tri.vertices()

    def mid(p, q):
        return Point((p.x + q.x) / 2, (p.y + q.y) / 2)

    mbc, mab, mac = mid(b, c), mid(a, b), mid(a, c)
    placements = (
        Placement((b, mbc, mab), False),
        Placement((mbc, c, mac), False),
        Placement((mab, mac, a), False),
        Placement((mac, mab, mbc), False),
    )
    return Certificate(T357, tri, placements, True)


def test_one_derivation_of_the_target_vertices(monkeypatch):
    # the set-up takes one square root for its target, the apex height; the
    # search and the checker of its certificate read the same vertices
    target_vertices.cache_clear()
    roots = []
    sqrt = QRoot3.sqrt
    monkeypatch.setattr(QRoot3, "sqrt", lambda self: roots.append(self) or sqrt(self))
    search = TilingSearch(ISO, parse_target("equilateral:2*sqrt3", ISO), SearchConfig())
    assert len(roots) == 1
    out = search.run()
    assert out.status == "found"
    assert check_certificate(Certificate.from_json(out.certificate.to_json())) == []
    assert target_vertices.cache_info().misses == 1


def test_handmade_n3_certificate_valid():
    cert = iso_n3_certificate()
    assert check_certificate(cert) == []
    assert extract_edge_relations(cert) == []
    # each leg to the centre has a tile on both sides; equal legs are "a"
    assert analyze_maximal_segments(cert) == [({"a": 1}, {"a": 1})] * 3


def test_handmade_n4_certificate_valid():
    cert = midpoint_n4_certificate()
    assert check_certificate(cert) == []
    assert extract_edge_relations(cert) == []
    assert certificate_warnings(cert) == []  # target similar to tile


def test_search_rediscovers_midpoint_tiling():
    tri = triangle_spec(T357, [QRoot3(6), QRoot3(10), QRoot3(14)])
    out = run_search(T357, tri, SearchConfig())
    assert out.status == "found"
    found = {frozenset(v.lex_key() for v in p.vertices) for p in out.certificate.placements}
    expected = {frozenset(v.lex_key() for v in p.vertices) for p in midpoint_n4_certificate().placements}
    assert found == expected


def test_perturbed_certificate_violations():
    cert = iso_n3_certificate()
    shift = Point(QRoot3(Fraction(1, 100)), QRoot3(0))
    moved = Placement(tuple(v + shift for v in cert.placements[0].vertices), False)
    bad = Certificate(cert.tile, cert.target, (moved,) + cert.placements[1:], True)
    kinds = {v.kind for v in check_certificate(bad)}
    assert "Overlap" in kinds
    assert "OutsideTarget" in kinds


def test_noncongruent_placement():
    cert = iso_n3_certificate()
    bogus = Placement((pt(0, 0), pt(1, 0), pt(0, 1)), False)
    bad = Certificate(cert.tile, cert.target, (bogus,) + cert.placements[1:], True)
    kinds = {v.kind for v in check_certificate(bad)}
    assert "Noncongruent" in kinds
    with pytest.raises(GeometryError, match="unexpected"):  # its hypotenuse is no tile side
        analyze_maximal_segments(bad)


def test_chirality_mismatch_flagged():
    cert = midpoint_n4_certificate()
    flipped = Placement(cert.placements[0].vertices, True)  # claims mirrored, is direct
    bad = Certificate(cert.tile, cert.target, (flipped,) + cert.placements[1:], True)
    kinds = {v.kind for v in check_certificate(bad)}
    assert "ChiralityMismatch" in kinds


def test_missing_tile_area_mismatch():
    cert = iso_n3_certificate()
    bad = Certificate(cert.tile, cert.target, cert.placements[:2], True)
    kinds = {v.kind for v in check_certificate(bad)}
    assert "AreaMismatch" in kinds


def test_relation_from_counts_synthetic():
    # 5 b-edges facing 3 a-edges and 2 c-edges
    rel = _relation_from_counts(T357, {"b": 5}, {"a": 3, "c": 2})
    assert rel == EdgeRelation(RelationKind.B_SIDE, 5, 3, 2)
    rel = _relation_from_counts(T357, {"a": 4}, {"b": 1, "c": 1, "a": 0})
    assert rel == EdgeRelation(RelationKind.A_SIDE, 4, 1, 1)
    # balanced segments produce nothing
    assert _relation_from_counts(T357, {"a": 2, "b": 1}, {"b": 1, "a": 2}) is None
    # common edges cancel first
    rel = _relation_from_counts(T357, {"b": 6, "a": 1}, {"a": 4, "c": 2, "b": 1})
    assert rel == EdgeRelation(RelationKind.B_SIDE, 5, 3, 2)


def _sorted_pair(left: dict, right: dict) -> tuple:
    return tuple(sorted((tuple(sorted(left.items())), tuple(sorted(right.items())))))


def _shared_line_certificate(turned: bool = False) -> Certificate:
    """Four (3,5,7) copies on the line y = sqrt3 (edges to group, not a
    tiling): two b-edges on [0, 5] and [5, 10] above it, an a-edge on
    [0, 3] and a c-edge on [3, 10] below it; turned by 90 degrees, on the
    vertical line x = -sqrt3."""
    tri = triangle_spec(T357, [QRoot3(30)] * 3)

    def xy(x, y):  # the point (x, y * sqrt3)
        x, y = QRoot3(Fraction(x)), QRoot3(0, Fraction(y))
        return Point(-y, x) if turned else Point(x, y)

    def tile_at(*v):
        assert orientation(*v) > 0
        return Placement(v, placement_chirality(T357, Placement(v, False)))

    placements = (
        tile_at(xy(0, 1), xy(5, 1), xy(Fraction(-3, 2), Fraction(5, 2))),
        tile_at(xy(5, 1), xy(10, 1), xy(Fraction(7, 2), Fraction(5, 2))),
        tile_at(xy(0, 1), xy(Fraction(-5, 2), Fraction(-3, 2)), xy(3, 1)),
        tile_at(xy(3, 1), xy(Fraction(107, 14), Fraction(-1, 14)), xy(10, 1)),
    )
    assert all(p.mirrored is not None for p in placements)
    return Certificate(T357, tri, placements, True)


def test_shared_line_groups_its_edges_into_one_run():
    cert = _shared_line_certificate()
    got = Counter(_sorted_pair(left, right) for left, right in analyze_maximal_segments(cert))
    shared = _sorted_pair({"a": 1, "c": 1}, {"b": 2})
    # every other edge is alone on its line
    alone = Counter({_sorted_pair({name: 1}, {}): k for name, k in (("a", 3), ("b", 2), ("c", 3))})
    assert got == alone + Counter({shared: 1})
    assert str(_relation_from_counts(T357, {"a": 1, "c": 1}, {"b": 2})) == "2b = 1a + 1c"


def test_certificate_json_roundtrip(tmp_path):
    cert = midpoint_n4_certificate()
    path = tmp_path / "cert.json"
    cert.save(path)
    loaded = Certificate.load(path)
    assert loaded == cert
    assert check_certificate(loaded) == []


def test_certificate_schema_rejected(tmp_path):
    cert = iso_n3_certificate()
    data = cert.to_json()
    data["schema"] = "v0"
    with pytest.raises(ValueError):
        Certificate.from_json(data)


def test_warning_when_no_relation(monkeypatch):
    # a scalene tile not similar to its target with no B/A-form relation
    # must warn; fabricate by patching the extractor
    cert = midpoint_n4_certificate()
    tri15 = triangle_spec(T357, [QRoot3(15)] * 3)
    fake = Certificate(T357, tri15, cert.placements, True)
    monkeypatch.setattr(cmod, "extract_edge_relations", lambda c: [])
    assert certificate_warnings(fake)


def test_exact_values_pickle_and_deepcopy():
    cert = midpoint_n4_certificate()
    polygon = Polygon.from_points(list(cert.target.vertices()))
    angle = AngleVec(QRoot3(Fraction(-1, 2), 3), QRoot3(0, Fraction(-2, 5)))
    with_angles = Polygon.from_points([pt(0, 0), pt(2, 0), pt(2, 1), pt(1, 1), pt(1, 2), pt(0, 2)])
    assert with_angles.angles[3].is_reflex()  # stored on the polygon by from_points
    for value in (QRoot3(Fraction(1, 3), -2), pt(QRoot3(1, 2), Fraction(-5, 7)), polygon, cert, angle,
                  with_angles):
        for copied in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert copied == value
            assert type(copied) is type(value)
    for copied in (pickle.loads(pickle.dumps(angle)), copy.deepcopy(angle)):
        assert (copied.c1, copied.c3, copied.s1, copied.s3) == (angle.c1, angle.c3, angle.s1, angle.s3)
        assert copied.rank == angle.rank == 3 and copied.ray_key() == angle.ray_key()
    for copied in (pickle.loads(pickle.dumps(with_angles)), copy.deepcopy(with_angles)):
        assert copied.area2 == with_angles.area2  # the measures came along
        assert copied.angles == with_angles.angles
        assert [a.is_reflex() for a in copied.angles] == [False, False, False, True, False, False]
    copied = pickle.loads(pickle.dumps(cert))
    assert copied.to_json() == cert.to_json()
    assert check_certificate(copied) == []
    assert copied.placements[0].vertices[0].form == cert.placements[0].vertices[0].form


# ---------------------------------------------------------------------------
# the bounding-box sweep against the all-pairs loop


def _all_pairs(tris):
    return [(i, j) for i in range(len(tris)) for j in range(i + 1, len(tris))]


def all_pairs_check(cert: Certificate):
    """check_certificate testing every pair i < j for overlap, as it did
    before the sweep: the reference the sweep must agree with."""
    with mock.patch.object(cmod, "_box_pairs", _all_pairs):
        return check_certificate(cert)


@functools.lru_cache(maxsize=None)
def found_certificate(tile_name: str, sides: tuple) -> Certificate:
    tile = {"iso": ISO, "357": T357}[tile_name]
    out = run_search(tile, triangle_spec(tile, list(sides)), SearchConfig())
    assert out.status == "found"
    return out.certificate


FOUND = [
    ("iso", (3 * SQRT3,) * 3),  # N = 27
    ("iso", (4 * SQRT3,) * 3),  # N = 48
    ("357", (QRoot3(15), QRoot3(25), QRoot3(35))),
]


@pytest.mark.parametrize("tile_name, sides", FOUND, ids=["iso-27", "iso-48", "357-15-25-35"])
def test_sweep_matches_all_pairs_on_found_certificates(tile_name, sides):
    cert = found_certificate(tile_name, sides)
    assert check_certificate(cert) == all_pairs_check(cert) == []


SMALL = [QRoot3(0), QRoot3(Fraction(1, 100)), QRoot3(Fraction(-1, 7)), QRoot3(0, Fraction(1, 50)),
         QRoot3(Fraction(1, 2), Fraction(-1, 3))]


@st.composite
def mutated_certificates(draw):
    cert = found_certificate(*draw(st.sampled_from(FOUND)))
    placements = list(cert.placements)
    for _ in range(draw(st.integers(1, 3))):
        n = len(placements)
        i = draw(st.integers(0, n - 1))
        verts = list(placements[i].vertices)
        kind = draw(st.sampled_from(["duplicate", "shift-by-difference", "shift-small", "swap", "replace",
                                     "repeat", "collinear", "point"]))
        if kind == "duplicate":
            placements.insert(draw(st.integers(0, n)), placements[i])
            continue
        if kind == "shift-by-difference":
            a, b = (placements[draw(st.integers(0, n - 1))].vertices[draw(st.integers(0, 2))] for _ in "ab")
            verts = [v + (a - b) for v in verts]
        elif kind == "shift-small":
            shift = Point(draw(st.sampled_from(SMALL)), draw(st.sampled_from(SMALL)))
            verts = [v + shift for v in verts]
        elif kind == "swap":
            k, l = draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
            verts[k], verts[l] = verts[l], verts[k]
        elif kind == "replace":
            donor = placements[draw(st.integers(0, n - 1))].vertices[draw(st.integers(0, 2))]
            verts[draw(st.integers(0, 2))] = donor
        elif kind == "repeat":
            k = draw(st.integers(0, 2))
            verts[k] = verts[(k + draw(st.integers(1, 2))) % 3]
        elif kind == "collinear":  # the midpoint of the other two, or one beyond them
            k = draw(st.integers(0, 2))
            a, b = verts[(k + 1) % 3], verts[(k + 2) % 3]
            verts[k] = midpoint(a, b) if draw(st.booleans()) else b + (b - a)
        else:
            verts = [verts[draw(st.integers(0, 2))]] * 3
        placements[i] = Placement(tuple(verts), placements[i].mirrored)
    return Certificate(cert.tile, cert.target, tuple(placements), cert.allow_mirror)


@settings(max_examples=150, deadline=None)
@given(mutated_certificates())
def test_sweep_matches_all_pairs_on_mutated_certificates(cert):
    assert check_certificate(cert) == all_pairs_check(cert)


def qroot3_box_pairs(tris):
    """The bounding-box sweep deciding every comparison on QRoot3 values:
    the reference for the sweep on integer keys."""
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
    return sorted(pairs)


def qroot3_segments(cert):
    """analyze_maximal_segments ordering each line's edges by their QRoot3
    positions, not by integer keys."""
    with mock.patch.object(cmod, "order_keys", list):
        return analyze_maximal_segments(cert)


def _segments_or_error(analyze, cert):
    try:
        return analyze(cert)
    except GeometryError as err:  # a mutated edge of unexpected length
        return str(err)


@pytest.mark.parametrize("tile_name, sides", FOUND, ids=["iso-27", "iso-48", "357-15-25-35"])
def test_integer_keys_match_the_qroot3_sweep_on_found_certificates(tile_name, sides):
    cert = found_certificate(tile_name, sides)
    tris = [p.vertices for p in cert.placements]
    assert _box_pairs(tris) == qroot3_box_pairs(tris)
    assert analyze_maximal_segments(cert) == qroot3_segments(cert)


@pytest.mark.parametrize("turned", [False, True], ids=["horizontal", "vertical"])
def test_integer_keys_match_the_qroot3_runs_on_a_shared_line(turned):
    # unequal sides, so a flipped side or a split run would show: the
    # b-edges lie left of the line, facing increasing x (increasing y when
    # turned)
    cert = _shared_line_certificate(turned)
    runs = analyze_maximal_segments(cert)
    assert runs == qroot3_segments(cert)
    assert ({"b": 2}, {"a": 1, "c": 1}) in runs


@settings(max_examples=150, deadline=None)
@given(mutated_certificates())
def test_integer_keys_match_the_qroot3_sweep_on_mutated_certificates(cert):
    tris = [p.vertices for p in cert.placements]
    assert _box_pairs(tris) == qroot3_box_pairs(tris)
    assert _segments_or_error(analyze_maximal_segments, cert) == _segments_or_error(qroot3_segments, cert)


def test_the_sweeps_make_no_qroot3_comparison(monkeypatch):
    cert = found_certificate("iso", (5 * SQRT3,) * 3)
    calls = []
    real = QRoot3._order
    monkeypatch.setattr(QRoot3, "_order", lambda self, other: calls.append(1) or real(self, other))
    assert _box_pairs([p.vertices for p in cert.placements])
    assert analyze_maximal_segments(cert)
    assert calls == []
    assert SQRT3 > 1 and calls == [1]  # the spy is in place


def qroot3_line_key(p, q):
    """The line key by QRoot3 arithmetic: the reference for the key read
    off the integer forms."""
    if p.x == q.x:
        return (None, p.x)
    slope = (q.y - p.y) / (q.x - p.x)
    return (slope, p.y - slope * p.x)


coords = st.builds(QRoot3, st.fractions(-50, 50, max_denominator=60), st.fractions(-50, 50, max_denominator=60))


@settings(max_examples=400)
@given(coords, coords, coords, coords, st.booleans())
def test_line_key_matches_the_qroot3_formula(px, py, qx, qy, vertical):
    p, q = Point(px, py), Point(px if vertical else qx, qy)
    if p != q:
        assert _line_key(p, q) == qroot3_line_key(p, q) == qroot3_line_key(q, p) == _line_key(q, p)


# ---------------------------------------------------------------------------
# the certificate bytes the benchmark pins

PINS = json.loads((Path(__file__).parents[1] / "perfbench" / "pins.json").read_text())


@pytest.mark.parametrize("tile_name, sides, pin", [
    ("iso", (4 * SQRT3,) * 3, PINS["certify-iso"]["iso-4r3"]),
    ("357", (QRoot3(15), QRoot3(25), QRoot3(35)), PINS["settle-357"]["tri-15-25-35"]),
], ids=["iso-48", "357-15-25-35"])
def test_saved_certificates_have_the_pinned_bytes(tmp_path, tile_name, sides, pin):
    cert = found_certificate(tile_name, sides)
    assert cert.n == pin["check"]["n"]
    cert.save(tmp_path / "cert.json")
    saved = (tmp_path / "cert.json").read_bytes()
    assert hashlib.sha256(saved).hexdigest() == pin["certificate_sha256"]
    Certificate.load(tmp_path / "cert.json").save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == saved


# the isosceles tile with its long side on the x-axis: box [0, sqrt3] x [0, 1/2]
ISO_TRI = (pt(0, 0), pt(SQRT3, 0), pt(SQRT3 / 2, Fraction(1, 2)))


def _shifted(tri, dx, dy):
    return Placement(tuple(v + pt(dx, dy) for v in tri), False)


@pytest.mark.parametrize("dx, dy, nudge", [(SQRT3, 0, (Fraction(-1, 100), 0)),
                                            (SQRT3 / 2, Fraction(1, 2), (0, Fraction(-1, 100)))],
                         ids=["touch-along-x", "touch-along-y"])
def test_boxes_that_only_touch_are_not_tested(dx, dy, nudge):
    target = triangle_spec(ISO, [2 * SQRT3] * 3)
    cert = Certificate(ISO, target, (_shifted(ISO_TRI, 0, 0), _shifted(ISO_TRI, dx, dy)), True)
    assert _box_pairs([p.vertices for p in cert.placements]) == []
    assert check_certificate(cert) == all_pairs_check(cert)
    assert "Overlap" not in {v.kind for v in check_certificate(cert)}
    # pushed a little across the line they overlap, and both loops say so
    pushed = Certificate(ISO, target, (cert.placements[0], _shifted(ISO_TRI, dx + nudge[0], dy + nudge[1])), True)
    assert _box_pairs([p.vertices for p in pushed.placements]) == [(0, 1)]
    assert Violation("Overlap", (0, 1)) in check_certificate(pushed) == all_pairs_check(pushed)


def test_zero_width_box_still_meets_what_it_crosses():
    # a degenerate placement on the line x = 1 cuts through the tile
    cut = Placement((pt(1, -1), pt(1, 1), pt(1, 0)), False)
    cert = Certificate(ISO, triangle_spec(ISO, [2 * SQRT3] * 3), (_shifted(ISO_TRI, 0, 0), cut), True)
    assert _box_pairs([p.vertices for p in cert.placements]) == [(0, 1)]
    assert Violation("Overlap", (0, 1)) in check_certificate(cert) == all_pairs_check(cert)


def test_sweep_tests_few_pairs_on_the_n75_certificate(monkeypatch):
    cert = found_certificate("iso", (5 * SQRT3,) * 3)
    assert cert.n == 75
    calls = []
    real = cmod._triangles_overlap
    monkeypatch.setattr(cmod, "_triangles_overlap", lambda *args: calls.append(1) or real(*args))
    assert check_certificate(cert) == []
    assert 0 < len(calls) < 0.1 * 75 * 74 // 2


# ---------------------------------------------------------------------------
# the edge-line tests against the proper-crossing and containment tests


def _edges(t):
    return [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])]


def reference_overlap(t1, t2) -> bool:
    """The overlap test the checker used before the edge-line test: two
    edges cross properly, or a vertex or the centroid of one placement is
    strictly inside the other (which never holds for a clockwise one)."""
    third = Fraction(1, 3)
    c1, c2 = (Point(sum((v.x for v in t), QRoot3(0)) * third, sum((v.y for v in t), QRoot3(0)) * third)
              for t in (t1, t2))
    if any(segments_properly_cross(a, b, c, d) for a, b in _edges(t1) for c, d in _edges(t2)):
        return True
    return strictly_inside_triangle(c1, t2) or strictly_inside_triangle(c2, t1) or any(
        strictly_inside_triangle(v, t2) for v in t1) or any(strictly_inside_triangle(v, t1) for v in t2)


def overlap(t1, t2) -> bool:
    return cmod._triangles_overlap(t1, t2, orientation(*t1), orientation(*t2))


def enters_at_a_corner(s, t) -> bool:
    """s is collinear and runs from a corner of t on it into t's open
    interior: its point set meets t's interior.  The reference misses this
    when that piece of s ends at an end of s on t's boundary, so that no
    vertex and no centroid of s is inside t and no edge crosses properly."""
    if orientation(*s) != 0:
        return False
    on_s = [v for v in t if v in s or any(on_open_segment(v, a, b) for a, b in _edges(s))]
    return any(strictly_inside_triangle(midpoint(v, w), t) for v in on_s for w in s)


def test_a_collinear_placement_entering_at_a_corner_overlaps():
    # the segment from (-1, -1) to (2, 2) enters the triangle at its corner
    # (0, 0) and ends on its far edge: the reference sees no overlap
    t = (pt(0, 0), pt(4, 0), pt(0, 4))
    for s in [(pt(-3, -3), pt(-2, -2), pt(2, 2)), (pt(-1, -1), pt(-1, -1), pt(2, 2))]:
        assert overlap(s, t) and overlap(t, s) and enters_at_a_corner(s, t)
        assert not reference_overlap(s, t)
    # with a vertex or the centroid inside, both tests see it
    s = (pt(-1, -1), pt(1, 1), pt(2, 2))
    assert overlap(s, t) and reference_overlap(s, t)


@settings(max_examples=150, deadline=None)
@given(mutated_certificates())
def test_edge_lines_match_the_reference_on_every_pair(cert):
    tris = [p.vertices for p in cert.placements]
    for i in range(len(tris)):
        for j in range(i + 1, len(tris)):
            s, t = tris[i], tris[j]
            if orientation(*s) < 0 or orientation(*t) < 0:
                continue  # a clockwise placement is tested as its point set
            got = overlap(s, t)
            assert got == overlap(t, s)
            if got != reference_overlap(s, t):
                assert got and (enters_at_a_corner(s, t) or enters_at_a_corner(t, s))


@settings(max_examples=100, deadline=None)
@given(mutated_certificates())
def test_outside_target_matches_point_in_polygon(cert):
    target = list(cert.target.vertices())
    want = [i for i, p in enumerate(cert.placements)
            if placement_chirality(cert.tile, p) is not None
            and any(point_in_polygon(v, target) == "outside" for v in p.vertices)]
    assert [v.placements[0] for v in check_certificate(cert) if v.kind == "OutsideTarget"] == want


def test_a_clockwise_placement_containing_another_overlaps_it():
    # twice the tile, clockwise, around the tile itself: the point sets
    # overlap, though nothing is strictly inside a clockwise triangle
    big = Placement((pt(0, 0), pt(SQRT3, 1), pt(2 * SQRT3, 0)), False)
    small = _shifted(ISO_TRI, 0, 0)
    assert orientation(*big.vertices) < 0
    assert not reference_overlap(big.vertices, small.vertices)
    cert = Certificate(ISO, triangle_spec(ISO, [2 * SQRT3] * 3), (big, small), True)
    assert check_certificate(cert) == [Violation("Noncongruent", (0,)), Violation("Overlap", (0, 1)),
                                       Violation("AreaMismatch")]


@pytest.mark.parametrize("segment, overlaps", [
    ((pt(SQRT3 / 2, -1), pt(SQRT3 / 2, -1), pt(SQRT3 / 2, 1)), True),  # across the tile
    ((pt(0, 0), pt(0, 0), pt(SQRT3, 0)), False),  # along its long edge
    ((pt(SQRT3, 0), pt(SQRT3 / 2, Fraction(1, 2)), pt(SQRT3 / 2, Fraction(1, 2))), False),  # along a leg
], ids=["across", "long-edge", "leg"])
def test_a_placement_with_a_repeated_vertex(segment, overlaps):
    assert overlap(segment, ISO_TRI) == overlap(ISO_TRI, segment) == overlaps
    assert reference_overlap(segment, ISO_TRI) == overlaps
    cert = Certificate(ISO, triangle_spec(ISO, [2 * SQRT3] * 3),
                       (_shifted(ISO_TRI, 0, 0), Placement(segment, False)), True)
    assert (Violation("Overlap", (0, 1)) in check_certificate(cert)) == overlaps


@pytest.mark.parametrize("q", [pt(1, Fraction(1, 5)), pt(2, Fraction(1, 5))], ids=["same", "apart"])
def test_single_point_placements_overlap_nothing_but_an_interior(q):
    p = (pt(1, Fraction(1, 5)),) * 3
    assert not overlap(p, (q,) * 3) and not reference_overlap(p, (q,) * 3)
    cert = Certificate(ISO, triangle_spec(ISO, [2 * SQRT3] * 3),
                       (Placement(p, False), Placement((q,) * 3, False)), True)
    assert all(v.kind != "Overlap" for v in check_certificate(cert))
    # strictly inside the tile, a single point overlaps it, as before
    assert overlap(p, ISO_TRI) and reference_overlap(p, ISO_TRI)
    assert overlap(ISO_TRI, (pt(SQRT3, 0),) * 3) is reference_overlap(ISO_TRI, (pt(SQRT3, 0),) * 3) is False


def test_a_vertex_on_a_target_edge_is_not_outside():
    # the tile on the bottom edge of the side-2*sqrt3 target, its right
    # corner inside that edge; pushed down a little, it is outside
    target = triangle_spec(ISO, [2 * SQRT3] * 3)
    corners = list(target.vertices())
    tile = _shifted(ISO_TRI, 0, 0)
    assert point_in_polygon(tile.vertices[1], corners) == "on"
    assert check_certificate(Certificate(ISO, target, (tile,), True)) == [Violation("AreaMismatch")]
    pushed = Certificate(ISO, target, (_shifted(ISO_TRI, 0, Fraction(-1, 100)),), True)
    assert check_certificate(pushed) == [Violation("OutsideTarget", (0,)), Violation("AreaMismatch")]
    # a found tiling has vertices inside all three target edges
    cert = found_certificate("iso", (3 * SQRT3,) * 3)
    corners = list(cert.target.vertices())
    on_edges = {v for p in cert.placements for v in p.vertices
                if point_in_polygon(v, corners) == "on" and v not in corners}
    assert len(on_edges) >= 3 and check_certificate(cert) == []


def test_the_checker_imports_nothing_of_the_search():
    # the checker owns the placement record and its congruence test; it
    # imports no candidate, region or engine code
    with open(cmod.__file__) as fh:
        tree = ast.parse(fh.read())
    package = cmod.__name__.split(".")[:-1]  # tilingforge.search
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            imported.add(module)
            imported.update(f"{module}.{alias.name}" for alias in node.names)
    assert "tilingforge.geometry" in imported
    search = [f"tilingforge.search.{m}" for m in ("placements", "region", "engine")]
    assert not [name for name in imported for m in search if name == m or name.startswith(m + ".")]
    # the candidate generator uses the checker's record, and still binds
    # the congruence test under its own name
    assert pmod.Placement is Placement and pmod.placement_chirality is placement_chirality
