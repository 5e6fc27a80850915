import pickle
from collections import Counter
from fractions import Fraction

import pytest

from tilingforge import geometry
from tilingforge.cli import parse_target
from tilingforge.constraints import triangle_spec
from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import Point, pt, segment_length
from tilingforge.search import engine, placements
from tilingforge.search import region as region_module
from tilingforge.search.engine import SearchConfig, TilingSearch
from tilingforge.search.placements import (
    Placement,
    TileGeometry,
    candidate_placements,
    placement_chirality,
    select_corner,
)
from tilingforge.search.region import Polygon, fit, splice, subtract_triangle, tile_lines
from tilingforge.tilealgebra import TileShape, tile_from_sides

from reference_geometry import smallest_corner

T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


def _scaled(p, k):
    return Point(p.x * k, p.y * k)


def _scaled_tile_region(tile, k):
    """Triangle with the tile's alpha angle at the origin, legs k*b and k*c."""
    cos_a, sin_a = tile.angle_vec("alpha")
    far = Point(cos_a * (k * tile.b), sin_a * (k * tile.b))
    return Polygon.from_points([pt(0, 0), Point(k * tile.c, QRoot3(0)), far])


def test_alpha_corner_two_candidates():
    # corner of exactly alpha with long edges: the two edge assignments
    # (mirror images of each other) and nothing else
    region = _scaled_tile_region(T357, 3)
    corner = [i for i in range(3) if region.vertices[i] == pt(0, 0)][0]
    cands = candidate_placements(region, corner, TileGeometry(T357))
    assert len(cands) == 2
    assert {c.angle_name for c in cands} == {"alpha"}
    assert sorted(c.placement.mirrored for c in cands) == [False, True]
    direct_only = candidate_placements(region, corner, TileGeometry(T357, allow_mirror=False))
    assert len(direct_only) == 1 and not direct_only[0].placement.mirrored


def test_pi3_corner_alpha_and_beta_fillings():
    eq = Polygon.from_points([pt(0, 0), pt(15, 0),
                              Point(QRoot3(Fraction(15, 2)), QRoot3(0, Fraction(15, 2)))])
    geom = TileGeometry(T357)
    cands = candidate_placements(eq, 0, geom)
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
    cands = candidate_placements(region, corner, geom)
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


_R3 = Point(QRoot3(0), SQRT3)  # (0, sqrt3)


@pytest.mark.parametrize("corners", [
    [pt(0, 0), pt(2, 0), pt(1, 0) + _R3],  # equilateral: three tied corners
    [pt(2, 0), pt(1, 0) + _R3, pt(-1, 0) + _R3, pt(-2, 0), pt(-1, 0) - _R3, pt(1, 0) - _R3],  # hexagon
    [pt(0, 0), pt(2, 0), pt(3, 0) + _R3, pt(1, 0) + _R3],  # rhombus: two pairs of ties
    [pt(0, 0), Point(SQRT3, QRoot3(0)), Point(SQRT3, QRoot3(1)), pt(0, 1)],  # tied on x, then y
], ids=["equilateral", "hexagon", "rhombus", "rectangle"])
def test_select_corner_breaks_ties_as_the_reference_rule(corners):
    # every rotation of the vertex cycle, as given, so that the first
    # vertex is not always the one that wins the tie
    for k in range(len(corners)):
        region = Polygon(tuple(corners[k:] + corners[:k]))
        assert select_corner(region) == smallest_corner(region.angles, region.vertices), k


# -- per-direction frames against the per-node construction they replace -------

def _reference_candidates(region, corner, geom, allow_mirror):
    """The triangles the fit test is to see, built node by node: the edge's
    exact length, the unit direction by division, one rotation per tile
    angle, a chirality test per candidate, a set of vertex sets against
    duplicates, the fit test and `subtract_triangle` for the remainder;
    each as `_summary` gives it, with remainder None if it does not fit."""
    v = region.vertices[corner]
    nxt = region.vertices[(corner + 1) % len(region)]
    theta = region.angles[corner]
    boundary_len = segment_length(v, nxt)
    d = nxt - v
    u_hat = Point(d.x / boundary_len, d.y / boundary_len)
    next_angle_reflex = region.angles[(corner + 1) % len(region)].is_reflex()
    out, seen = [], set()
    for name, cos_v, sin_v, e1, e2 in geom.angles:
        phi = geometry.AngleVec(cos_v, sin_v)
        if theta.compare(phi) < 0:
            continue
        rest = theta.minus_rotation(phi)
        if not rest.is_zero_mod_2pi() and not geom.angle_representable(rest):
            continue
        ray_dir = Point(u_hat.x * cos_v - u_hat.y * sin_v, u_hat.x * sin_v + u_hat.y * cos_v)
        for flush_len, other_len in ((e1, e2), (e2, e1)):
            if flush_len > boundary_len and not next_angle_reflex:
                continue
            if flush_len < boundary_len and not geom.length_representable(boundary_len - flush_len):
                continue
            tri = (v, v + _scaled(u_hat, flush_len), v + _scaled(ray_dir, other_len))
            key = tuple(sorted(p.lex_key() for p in tri))
            if key in seen:
                continue
            mirrored = placement_chirality(geom.tile, Placement(tri, False))
            assert mirrored is not None
            if mirrored and not allow_mirror:
                continue
            remainder = None if fit(region, tri, tile_lines(tri), {}, {}) is None else subtract_triangle(region, tri)
            seen.add(key)
            out.append((tri, mirrored, name, None if remainder is None else [r.vertices for r in remainder]))
    return out


# the benchmark's searches, each to its pinned node count
PINNED_SEARCHES = pytest.mark.parametrize("tile, sides, allow_mirror, nodes", [
    (T357, [QRoot3(15)] * 3, True, 380),
    (T357, [QRoot3(15)] * 3, False, 9),
    (T357, [QRoot3(15), QRoot3(25), QRoot3(35)], True, 814),
    (ISO, [4 * SQRT3] * 3, True, 48),
    (T357, [QRoot3(30)] * 3, True, 400),
    (ISO, [5 * SQRT3] * 3, True, 75),
], ids=["357-eq15", "357-eq15-direct", "357-15,25,35", "iso-eq4sqrt3", "357-eq30-budget", "iso-eq5sqrt3"])


@PINNED_SEARCHES
def test_select_corner_matches_the_reference_rule(monkeypatch, tile, sides, allow_mirror, nodes):
    # every region the search expands
    regions, real = [], engine.select_corner
    monkeypatch.setattr(engine, "select_corner", lambda region: regions.append(region) or real(region))
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=nodes)
    assert TilingSearch(tile, triangle_spec(tile, sides), config).run().stats.nodes == nodes
    assert regions
    for region in regions:
        assert select_corner(region) == smallest_corner(region.angles, region.vertices), region


def _point_of_key(key):
    """The point whose `Point.key` is key."""
    x1, x3, xd, y1, y3, yd = key
    return Point(QRoot3(Fraction(x1, xd), Fraction(x3, xd)), QRoot3(Fraction(y1, yd), Fraction(y3, yd)))


def _fresh_code(tri, key):
    """The fit code of the point with `Point.key` key against the tile lines
    of tri, from three fresh `sides` rows: bit k set when it lies strictly
    outside tile line k, bit k + 3 when strictly inside."""
    p = _point_of_key(key)
    signs = [geometry.sides(tri[k], tri[(k + 1) % 3], [p])[0] for k in range(3)]
    return sum((s < 0) << k | (s > 0) << k + 3 for k, s in enumerate(signs))


def _summary(region, geom, cands):
    """Each candidate with the remainder its touch points splice to."""
    return [(c.placement.vertices, c.placement.mirrored, c.angle_name,
             [r.vertices for r in splice(region, c.placement.vertices, c.touch, geom.area2)])
            for c in cands]


@PINNED_SEARCHES
def test_frames_match_the_per_node_construction(monkeypatch, tile, sides, allow_mirror, nodes):
    # every region the search expands, under both mirror settings, one
    # geometry each; every triangle the fit test sees, fitting or not, is
    # one the per-node construction builds, in its order, and the fitting
    # ones are the candidates
    expanded = []
    expand = engine.candidate_placements

    def recorded(region, corner, geom):
        expanded.append((region, corner))
        return expand(region, corner, geom)

    monkeypatch.setattr(engine, "candidate_placements", recorded)
    config = SearchConfig(allow_mirror=allow_mirror, node_budget=nodes)
    s = TilingSearch(tile, triangle_spec(tile, sides), config)
    assert s.run().stats.nodes == nodes
    geoms = {mirror: TileGeometry(tile, mirror) for mirror in (True, False)}
    tested = []
    fit = placements.fit

    def tables_checked(region, tri, lines, codes, rows):
        # after the fit test, the code table kept with this candidate's
        # triangle holds every region vertex, each with the code that
        # fresh rows of this triangle's own lines give
        touch = fit(region, tri, lines, codes, rows)
        assert all(code == _fresh_code(tri, key) for key, code in codes.items())
        assert {v.key for v in region.vertices} <= codes.keys()
        tested.append((tri, touch is not None))
        return touch

    monkeypatch.setattr(placements, "fit", tables_checked)
    verdicts = set()
    for region, corner in expanded:
        for mirror, geom in geoms.items():
            tested.clear()
            got = candidate_placements(region, corner, geom)
            want = _reference_candidates(region, corner, geom, mirror)
            assert tested == [(tri, rest is not None) for tri, _, _, rest in want], (region, corner, mirror)
            assert _summary(region, geom, got) == [w for w in want if w[3] is not None], (region, corner, mirror)
            verdicts.update(fits for _, fits in tested)
    # the isosceles searches never backtrack: every triangle fits
    assert verdicts == ({True} if tile is ISO else {True, False})
    if tile is ISO:  # directions at multiples of 30 degrees: vertical edges too
        assert any(on_y for _, on_y, _ in geoms[True]._frames.values())


def _per_ray_frame(geom, d):
    """The frame of d's ray built on the ray itself, as `_frame` did before
    it turned the tile's own frame: the unit vector, one rotation per tile
    angle, a chirality test per option and a set of offsets against
    repeats."""
    origin = pt(0, 0)
    length = segment_length(origin, d)
    u = Point(d.x / length, d.y / length)
    on_y = u.x.is_zero()
    angles, seen = [], set()
    for name, cos_v, sin_v, e1, e2 in geom.angles:
        ray = Point(u.x * cos_v - u.y * sin_v, u.x * sin_v + u.y * cos_v)
        options = []
        for flush_len, other_len in ((e1, e2), (e2, e1)):
            offs = (_scaled(u, flush_len), _scaled(ray, other_len))
            if offs not in seen:
                seen.add(offs)
                mirrored = placement_chirality(geom.tile, Placement((origin,) + offs, False))
                assert mirrored is not None
                options.append((flush_len, *offs, mirrored))
        if options:
            angles.append((name, geometry.AngleVec(cos_v, sin_v), options))
    return (u.y if on_y else u.x).inverse(), on_y, angles


@PINNED_SEARCHES
def test_turned_frames_match_the_per_ray_construction(monkeypatch, tile, sides, allow_mirror, nodes):
    # every ray the search meets: the frame turned from the tile's own
    # frame is the one built on the ray, and turning it tests no chirality
    rays, chirality_calls = [], []
    real_frame, real_chirality = TileGeometry._frame, placements.placement_chirality

    def recorded(geom, d):
        before = len(chirality_calls)
        fr = real_frame(geom, d)
        assert len(chirality_calls) == before
        rays.append((geom, d, fr))
        return fr

    # the tile's own frame is built with the search, one chirality test per option
    s = TilingSearch(tile, triangle_spec(tile, sides), SearchConfig(allow_mirror=allow_mirror, node_budget=nodes))
    monkeypatch.setattr(TileGeometry, "_frame", recorded)
    monkeypatch.setattr(placements, "placement_chirality",
                        lambda *args: chirality_calls.append(1) or real_chirality(*args))
    assert s.run().stats.nodes == nodes
    assert chirality_calls == [] and 0 < len(rays) == len(s.geom._frames)
    for geom, d, fr in rays:
        assert fr == _per_ray_frame(geom, d), d
    if tile is ISO:  # the repeated beta options are dropped, as on the ray
        assert [name for name, *_ in s.geom._axis] == ["alpha", "gamma"]


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


def _count_table_misses(monkeypatch):
    """The corner kinds `TileGeometry.shapes` builds a shape list for, and
    the corners of every expansion, as the search meets them."""
    misses, expansions = [], []
    real_miss, expand = TileGeometry._shape_list, engine.candidate_placements

    def counted_miss(self, d, theta, next_reflex):
        misses.append(d)
        return real_miss(self, d, theta, next_reflex)

    def counted_expand(region, corner, geom):
        expansions.append(corner)
        return expand(region, corner, geom)

    monkeypatch.setattr(TileGeometry, "_shape_list", counted_miss)
    monkeypatch.setattr(engine, "candidate_placements", counted_expand)
    return misses, expansions


def test_one_shape_list_per_corner_kind(monkeypatch):
    misses, expansions = _count_table_misses(monkeypatch)
    s = TilingSearch(T357, triangle_spec(T357, [QRoot3(15)] * 3), SearchConfig())
    assert s.geom._shapes == {}  # filled on first use: set-up builds none
    out = s.run()
    assert (out.status, out.stats.nodes) == ("exhausted", 380)
    # one shape list per table miss, and far fewer corner kinds than expansions
    assert 0 < len(misses) == len(s.geom._shapes) < len(expansions)
    # split mode ships the search, table included, to spawned workers
    copy = pickle.loads(pickle.dumps(s))
    assert copy.geom._shapes == s.geom._shapes
    misses.clear()
    again = copy.run()
    assert (again.status, again.stats.nodes) == ("exhausted", 380)
    assert misses == [] and len(copy.geom._shapes) == len(s.geom._shapes)


def test_a_no_mirror_table_holds_no_mirrored_shape(monkeypatch):
    misses, _ = _count_table_misses(monkeypatch)
    s = TilingSearch(T357, triangle_spec(T357, [QRoot3(15)] * 3), SearchConfig(allow_mirror=False))
    assert s.geom.allow_mirror is False
    out = s.run()
    assert (out.status, out.stats.nodes) == ("exhausted", 9)
    options = [o for shapes in s.geom._shapes.values() for _, opts in shapes for o in opts]
    assert options and not any(mirrored for _, _, mirrored in options)
    # the frames keep both chiralities: the table drops the mirrored ones
    assert any(o[3] for _, _, angles in s.geom._frames.values() for *_, opts in angles for o in opts)
    # the copy split mode ships to its workers keeps the rule and the table
    copy = pickle.loads(pickle.dumps(s))
    assert copy.geom.allow_mirror is False and copy.geom._shapes == s.geom._shapes
    misses.clear()
    again = copy.run()
    assert (again.status, again.stats.nodes) == ("exhausted", 9)
    assert misses == []


# -- the table of placed triangles ------------------------------------------------

def _assert_placed_table_exact(geom):
    """Every placed triangle's placement is (v, v + f_off, v + g_off) built
    afresh from its key, with the chirality its congruence test gives;
    every kept tile line is a fresh `line_form` of its two tile vertices;
    every code in its table is the one three fresh `sides` rows give; and
    every across row is the fresh `sides` row of its vertices against a
    region edge whose ends' codes put it strictly across two tile lines."""
    assert geom._placed
    for key, (placement, lines, codes, rows) in geom._placed.items():
        tri = placement.vertices
        v, f, g = map(_point_of_key, key)
        assert tri == (v, Point(v.x + f.x, v.y + f.y), Point(v.x + g.x, v.y + g.y))
        assert placement.mirrored is placement_chirality(geom.tile, placement), tri
        assert lines == tuple(geometry.line_form(tri[k], tri[(k + 1) % 3]) for k in range(3)), tri
        assert geom.allow_mirror or not placement.mirrored
        assert codes  # every triangle was fit-tested
        assert all(code == _fresh_code(tri, p) for p, code in codes.items()), tri
        for (c, d), row in rows.items():
            assert region_module._rule(codes[c], codes[d]) is region_module._ACROSS, (tri, c, d)
            assert row == geometry.sides(_point_of_key(c), _point_of_key(d), tri), (tri, c, d)


@PINNED_SEARCHES
def test_the_placed_triangles_are_exact(tile, sides, allow_mirror, nodes):
    s = TilingSearch(tile, triangle_spec(tile, sides), SearchConfig(allow_mirror=allow_mirror, node_budget=nodes))
    assert s.geom._placed == {}  # filled on first use: set-up builds none
    assert s.run().stats.nodes == nodes
    _assert_placed_table_exact(s.geom)


def test_the_placed_triangles_are_exact_off_the_benchmark_pins():
    # (3,5,7) against the triangle with sides 24, 21, 15, as CI runs it
    s = TilingSearch(T357, parse_target("triangle:24,21,15", T357), SearchConfig())
    out = s.run()
    assert (out.status, out.stats.nodes, out.stats.max_depth) == ("exhausted", 1929, 21)
    _assert_placed_table_exact(s.geom)


def test_a_search_takes_each_sign_once(monkeypatch):
    # (3,5,7) on side 30 to 400 nodes: no code of a point against the tile
    # lines of a placed triangle is taken twice, nor the across row of a
    # placed triangle against a region edge, every one taken is kept with
    # that triangle, and each placed triangle costs at most two point sums,
    # one placement and one reduction of its tile lines
    fits, signs, across, sums, built, reduced = [], Counter(), Counter(), [], [], []
    real_fit, real_fill, real_sides = placements.fit, region_module._fill_codes, region_module.sides
    real_add, real_lines = Point.__add__, placements.tile_lines

    def recorded_fit(region, tri, lines, codes, rows):
        fits.append(tri)
        return real_fit(region, tri, lines, codes, rows)

    def counted_fill(lines, verts, keys, code, codes):
        # the kernel's codes: three signs against the kept lines for each
        # vertex whose code is missing
        tri = fits[-1]
        assert lines == tile_lines(tri)
        signs.update((tuple(t.key for t in tri), key) for key, c in zip(keys, code) if c is None)
        return real_fill(lines, verts, keys, code, codes)

    def counted_sides(a, b, points):
        tri = fits[-1]
        assert points is tri  # only the tile's vertices against a region edge
        across[(tuple(t.key for t in tri), a.key, b.key)] += 1
        return real_sides(a, b, points)

    # set up before the counting: the tile's own frame tests its options' chirality
    s = TilingSearch(T357, triangle_spec(T357, [QRoot3(30)] * 3), SearchConfig(node_budget=400))
    monkeypatch.setattr(placements, "fit", recorded_fit)
    monkeypatch.setattr(region_module, "_fill_codes", counted_fill)
    monkeypatch.setattr(region_module, "sides", counted_sides)
    monkeypatch.setattr(Point, "__add__", lambda p, q: sums.append(1) or real_add(p, q))
    monkeypatch.setattr(placements, "Placement", lambda *args: built.append(args) or Placement(*args))
    monkeypatch.setattr(placements, "tile_lines", lambda tri: reduced.append(tri) or real_lines(tri))
    out = s.run()
    assert (out.status, out.stats.nodes) == ("budget", 400)
    tables = s.geom._placed.values()
    assert max(signs.values()) == 1
    assert len(signs) == sum(len(codes) for _, _, codes, _ in tables)
    assert max(across.values()) == 1
    assert across.keys() == {(tuple(t.key for t in p.vertices), *edge) for p, _, _, rows in tables for edge in rows}
    assert len(sums) <= 2 * len(tables) < len(fits)
    assert len(built) == len(reduced) == len(tables)
    # split mode ships the search, table included, to spawned workers: the
    # copy takes no sign and builds no triangle, placement or line
    copy = pickle.loads(pickle.dumps(s))
    signs.clear()
    across.clear()
    sums.clear()
    built.clear()
    reduced.clear()
    again = copy.run()
    assert (again.status, again.stats.nodes) == ("budget", 400)
    assert not signs and not across and not sums and not built and not reduced
