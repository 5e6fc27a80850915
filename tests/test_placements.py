import pickle
from fractions import Fraction

import pytest

from tilingforge import geometry
from tilingforge.constraints import triangle_spec
from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import Point, pt, segment_length
from tilingforge.search import engine, placements
from tilingforge.search.engine import SearchConfig, TilingSearch
from tilingforge.search.placements import (
    Placement,
    TileGeometry,
    candidate_placements,
    placement_chirality,
    select_corner,
)
from tilingforge.search.region import Polygon, place
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
    assert [c for c in cands if c.placement.vertices[0] == pt(0, 0)] == []


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


# -- per-direction frames against the per-node construction they replace -------

def _reference_candidates(region, corner, geom, allow_mirror, check_fit):
    """The candidates built node by node: the edge's exact length, the unit
    direction by division, one rotation per tile angle, a chirality test per
    candidate, a set of vertex sets against duplicates and `place` for the
    remainder; each as `_summary` gives it."""
    v = region.vertices[corner]
    nxt = region.vertices[(corner + 1) % len(region)]
    theta = region.interior_angle(corner)
    boundary_len = segment_length(v, nxt)
    d = nxt - v
    u_hat = Point(d.x / boundary_len, d.y / boundary_len)
    next_angle_reflex = region.interior_angle((corner + 1) % len(region)).is_reflex()
    out, seen = [], set()
    for name, cos_v, sin_v, e1, e2 in geom.angles:
        if theta.compare(geometry.AngleVec(cos_v, sin_v)) < 0:
            continue
        rest = theta.minus_rotation(cos_v, sin_v)
        if not rest.is_zero_mod_2pi() and not geom.angle_representable(rest):
            continue
        ray_dir = Point(u_hat.x * cos_v - u_hat.y * sin_v, u_hat.x * sin_v + u_hat.y * cos_v)
        for flush_len, other_len in ((e1, e2), (e2, e1)):
            if flush_len > boundary_len and not next_angle_reflex:
                continue
            if flush_len < boundary_len and not geom.length_representable(boundary_len - flush_len):
                continue
            tri = (v, v + u_hat.scale(flush_len), v + ray_dir.scale(other_len))
            key = tuple(sorted(p.lex_key() for p in tri))
            if key in seen:
                continue
            mirrored = placement_chirality(geom.tile, Placement(tri, False))
            assert mirrored is not None
            if mirrored and not allow_mirror:
                continue
            remainder = place(region, tri)
            if check_fit and remainder is None:
                continue
            seen.add(key)
            out.append((tri, mirrored, name, None if remainder is None else [r.vertices for r in remainder]))
    return out


def _summary(cands):
    return [(c.placement.vertices, c.placement.mirrored, c.angle_name,
             None if c.remainder is None else [r.vertices for r in c.remainder]) for c in cands]


@pytest.mark.parametrize("tile, sides, allow_mirror, nodes", [
    (T357, [QRoot3(15)] * 3, True, 380),
    (T357, [QRoot3(15)] * 3, False, 9),
    (T357, [QRoot3(15), QRoot3(25), QRoot3(35)], True, 814),
    (ISO, [4 * SQRT3] * 3, True, 48),
    (T357, [QRoot3(30)] * 3, True, 400),
    (ISO, [5 * SQRT3] * 3, True, 75),
], ids=["357-eq15", "357-eq15-direct", "357-15,25,35", "iso-eq4sqrt3", "357-eq30-budget", "iso-eq5sqrt3"])
def test_frames_match_the_per_node_construction(monkeypatch, tile, sides, allow_mirror, nodes):
    # every region the search expands, under both fit and mirror settings
    expanded = []
    expand = engine.candidate_placements

    def recorded(region, corner, geom, **kwargs):
        expanded.append((region, corner))
        return expand(region, corner, geom, **kwargs)

    monkeypatch.setattr(engine, "candidate_placements", recorded)
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=nodes)
    s = TilingSearch(tile, triangle_spec(tile, sides), config)
    assert s.run().stats.nodes == nodes
    geom = TileGeometry(tile)
    rows = []
    fit = placements.fit

    def shared_rows_checked(region, tri, flush, ray):
        # the flush row, taken once per corner, and the ray row, once per
        # tile angle, are the rows of this candidate's own lines
        verts = region.vertices
        assert flush == geometry.sides(tri[0], tri[1], verts)
        assert ray == geometry.sides(tri[2], tri[0], verts)
        rows.append(tri)
        return fit(region, tri, flush, ray)

    monkeypatch.setattr(placements, "fit", shared_rows_checked)
    for region, corner in expanded:
        for check_fit in (True, False):
            for mirror in (True, False):
                got = candidate_placements(region, corner, geom, allow_mirror=mirror, check_fit=check_fit)
                want = _reference_candidates(region, corner, geom, mirror, check_fit)
                assert _summary(got) == want, (region, corner, check_fit, mirror)
    assert rows
    if tile is ISO:  # directions at multiples of 30 degrees: vertical edges too
        assert any(on_y for _, on_y, _ in geom._frames.values())


def test_one_square_root_per_frame(monkeypatch):
    calls = []
    real = geometry.segment_length

    def counted(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(geometry, "segment_length", counted)
    monkeypatch.setattr(placements, "segment_length", counted)
    assert TileGeometry(T357)._frames == {}  # filled on first use only
    s = TilingSearch(T357, triangle_spec(T357, [QRoot3(15)] * 3), SearchConfig())
    assert s.geom._frames == {}
    out = s.run()
    assert (out.status, out.stats.nodes) == ("exhausted", 380)
    assert 0 < len(calls) == len(s.geom._frames) < 20
    # split mode ships the search, frames included, to spawned workers
    copy = pickle.loads(pickle.dumps(s))
    assert copy.geom._frames.keys() == s.geom._frames.keys()
    calls.clear()
    again = copy.run()
    assert (again.status, again.stats.nodes) == ("exhausted", 380)
    assert calls == []


def test_one_shape_list_per_corner_kind(monkeypatch):
    frames, expansions = [], []
    real_frame, expand = TileGeometry.frame, engine.candidate_placements

    def counted_frame(self, a, b):
        frames.append((a, b))
        return real_frame(self, a, b)

    def counted_expand(region, corner, geom, **kwargs):
        expansions.append(corner)
        return expand(region, corner, geom, **kwargs)

    monkeypatch.setattr(TileGeometry, "frame", counted_frame)
    monkeypatch.setattr(engine, "candidate_placements", counted_expand)
    s = TilingSearch(T357, triangle_spec(T357, [QRoot3(15)] * 3), SearchConfig())
    assert s.geom._shapes == {}  # filled on first use: set-up builds none
    out = s.run()
    assert (out.status, out.stats.nodes) == ("exhausted", 380)
    # one frame per table miss, and far fewer corner kinds than expansions
    assert 0 < len(frames) == len(s.geom._shapes) < len(expansions)
    # split mode ships the search, table included, to spawned workers
    copy = pickle.loads(pickle.dumps(s))
    assert copy.geom._shapes == s.geom._shapes
    frames.clear()
    again = copy.run()
    assert (again.status, again.stats.nodes) == ("exhausted", 380)
    assert frames == [] and len(copy.geom._shapes) == len(s.geom._shapes)
