from fractions import Fraction

from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import Point, pt
from tilingforge.search.placements import (
    Placement,
    TileGeometry,
    candidate_placements,
    placement_chirality,
    select_corner,
)
from tilingforge.search.region import Polygon
from tilingforge.tilealgebra import TileShape, tile_from_sides

T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


def _scaled_tile_region(tile, k):
    """Triangle with the tile's alpha angle at the origin, legs k*b and k*c."""
    cos_a, sin_a = tile.angle_vec("alpha")
    far = Point(cos_a * (k * tile.b), sin_a * (k * tile.b))
    return Polygon.from_points([pt(0, 0), Point(k * tile.c, QRoot3(0)), far])


def test_alpha_corner_two_candidates():
    # corner of exactly alpha with long edges: the two edge assignments
    # (mirror images of each other) and nothing else
    region = _scaled_tile_region(T357, 3)
    geom = TileGeometry(T357)
    corner = [i for i in range(3) if region.vertices[i] == pt(0, 0)][0]
    cands = candidate_placements(region, corner, geom, allow_mirror=True)
    assert len(cands) == 2
    assert {c.angle_name for c in cands} == {"alpha"}
    assert sorted(c.placement.mirrored for c in cands) == [False, True]
    direct_only = candidate_placements(region, corner, geom, allow_mirror=False)
    assert len(direct_only) == 1 and not direct_only[0].placement.mirrored


def test_pi3_corner_alpha_and_beta_fillings():
    eq = Polygon.from_points([pt(0, 0), pt(15, 0),
                              Point(QRoot3(Fraction(15, 2)), QRoot3(0, Fraction(15, 2)))])
    geom = TileGeometry(T357)
    cands = candidate_placements(eq, 0, geom, allow_mirror=True)
    names = {c.angle_name for c in cands}
    assert names == {"alpha", "beta"}
    assert len(cands) == 4


def test_length_4_edge_has_no_candidates():
    # boundary edge of length 4: remainders 1 and 4-3=1 are not combinations
    # of (3, 5, 7) and the longer tile edges overhang a convex corner
    h = QRoot3(0, Fraction(5, 2))  # height of the 120-degree corner side
    region = Polygon.from_points([pt(0, 0), pt(4, 0),
                                  Point(QRoot3(Fraction(13, 2)), h),
                                  Point(QRoot3(Fraction(-5, 2)), h)])
    geom = TileGeometry(T357)
    corner = [i for i in range(4) if region.vertices[i] == pt(0, 0)][0]
    cands = candidate_placements(region, corner, geom, allow_mirror=True)
    assert [c for c in cands if c.corner == pt(0, 0)] == []


def test_length_representability():
    geom = TileGeometry(T357)
    assert geom.length_representable(QRoot3(15))
    assert geom.length_representable(QRoot3(8))
    assert geom.length_representable(QRoot3(3))
    assert not geom.length_representable(QRoot3(4))
    assert not geom.length_representable(QRoot3(1))
    assert not geom.length_representable(QRoot3(2))
    iso = TileGeometry(ISO)
    assert iso.length_representable(2 * SQRT3)
    assert iso.length_representable(QRoot3(2) + SQRT3)
    assert not iso.length_representable(QRoot3(Fraction(1, 2)))


def test_chirality_detection():
    cos_a, sin_a = T357.angle_vec("alpha")
    # direct: flush edge c on the x-axis, then b at angle alpha
    direct = Placement((pt(0, 0), pt(7, 0), Point(cos_a * 5, sin_a * 5)), False)
    mirrored = Placement((pt(0, 0), pt(5, 0), Point(cos_a * 7, sin_a * 7)), True)
    assert placement_chirality(T357, direct) is False
    assert placement_chirality(T357, mirrored) is True
    not_tile = Placement((pt(0, 0), pt(7, 0), pt(0, 7)), False)
    assert placement_chirality(T357, not_tile) is None
    # isosceles tiles report direct for both orientations
    cos_i, sin_i = ISO.angle_vec("alpha")
    p = Placement((pt(0, 0), Point(SQRT3, QRoot3(0)), Point(cos_i * 1, sin_i * 1)), False)
    assert placement_chirality(ISO, p) is False


def test_chirality_from_any_start_vertex():
    # the squared sides are compared in every cyclic order, so the listing
    # may start at any vertex; listed clockwise it is no placement
    cos_a, sin_a = T357.angle_vec("alpha")
    direct = (pt(0, 0), pt(7, 0), Point(cos_a * 5, sin_a * 5))
    mirrored = (pt(0, 0), pt(5, 0), Point(cos_a * 7, sin_a * 7))
    for shift in (1, 2):
        assert placement_chirality(T357, Placement(direct[shift:] + direct[:shift], False)) is False
        assert placement_chirality(T357, Placement(mirrored[shift:] + mirrored[:shift], True)) is True
    assert placement_chirality(T357, Placement(direct[::-1], False)) is None


def test_side_squares_are_kept_on_the_tile():
    assert T357.side_squares == (QRoot3(9), QRoot3(25), QRoot3(49))
    assert ISO.side_squares == (QRoot3(1), QRoot3(1), QRoot3(3))
    assert T357.side_squares is T357.side_squares  # squared once
    # a tile read back from JSON squares afresh and gives the same verdicts
    fresh = TileShape.from_json(T357.to_json())
    cos_a, sin_a = T357.angle_vec("alpha")
    for p in [Placement((pt(0, 0), pt(7, 0), Point(cos_a * 5, sin_a * 5)), False),
              Placement((pt(0, 0), pt(5, 0), Point(cos_a * 7, sin_a * 7)), True)]:
        assert placement_chirality(fresh, p) is placement_chirality(T357, p) is p.mirrored


def test_select_corner_smallest_angle():
    # right trapezoid: 60-degree corner at (2,0) is the unique smallest
    region = Polygon.from_points([pt(0, 0), pt(2, 0),
                                  Point(QRoot3(1), QRoot3(0, 1)),
                                  Point(QRoot3(0), QRoot3(0, 1))])
    idx = select_corner(region)
    assert region.vertices[idx] == pt(2, 0)


def test_select_corner_tie_lexicographic():
    sq = Polygon.from_points([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
    assert sq.vertices[select_corner(sq)] == pt(0, 0)
