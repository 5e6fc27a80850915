import copy
import functools
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingforge.constraints import triangle_spec
from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import AngleVec, Point, pt
import tilingforge.search.certificate as cmod
from tilingforge.search.certificate import (
    Certificate,
    _box_pairs,
    canonical_target_vertices,
    certificate_warnings,
    Violation,
    check_certificate,
    extract_edge_relations,
    _relation_from_counts,
)
from tilingforge.search.engine import SearchConfig, run_search
from tilingforge.search.placements import Placement
from tilingforge.search.region import Polygon
from tilingforge.tilealgebra import EdgeRelation, RelationKind, tile_from_sides

T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


def iso_n3_certificate() -> Certificate:
    """The equilateral 3-tiling, written down from explicit coordinates."""
    tri = triangle_spec(ISO, [SQRT3] * 3)
    b, c, a = canonical_target_vertices(tri)
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
    b, c, a = canonical_target_vertices(tri)

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


def test_handmade_n3_certificate_valid():
    cert = iso_n3_certificate()
    assert check_certificate(cert) == []
    assert extract_edge_relations(cert) == []


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
    polygon = Polygon.from_points(list(canonical_target_vertices(cert.target)))
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
        assert copied._band() == angle._band() == 2 and copied.ray_key() == angle.ray_key()
    for copied in (pickle.loads(pickle.dumps(with_angles)), copy.deepcopy(with_angles)):
        assert copied.corner_angles is not None  # the stored angles came along
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
        kind = draw(st.sampled_from(["duplicate", "shift-by-difference", "shift-small", "swap", "replace"]))
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
        else:
            donor = placements[draw(st.integers(0, n - 1))].vertices[draw(st.integers(0, 2))]
            verts[draw(st.integers(0, 2))] = donor
        placements[i] = Placement(tuple(verts), placements[i].mirrored)
    return Certificate(cert.tile, cert.target, tuple(placements), cert.allow_mirror)


@settings(max_examples=150, deadline=None)
@given(mutated_certificates())
def test_sweep_matches_all_pairs_on_mutated_certificates(cert):
    assert check_certificate(cert) == all_pairs_check(cert)


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
