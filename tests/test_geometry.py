"""Differential tests of the fraction-free predicate kernel.

Every predicate in `tilingforge.geometry` decides on the integer forms of
its points, and `AngleVec` holds its angle as four ints.  The reference
formulas below decide the same questions on QRoot3 field values
(products, dot products, `qr3_sign`, and `RefAngle`, the QRoot3 angle
vector) and are kept only here.  Points are drawn with mixed
denominators and nonzero sqrt3 parts on both axes, and the strategies
force the degenerate cases the search meets: collinear triples, points
at segment endpoints, shared vertices, points on polygon edges and
vertices, and horizontal edges at the height of the crossing ray.  The
reference helpers `sort_along` and `strictly_inside_triangle`, which the
region and checker oracles use, are checked here against the same
formulas.
"""

import pickle
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tilingforge.exactnum import SQRT3, QRoot3, qr3_sign
from tilingforge.exactnum.qfield import _sign
from tilingforge.geometry import (
    AngleVec,
    Point,
    angle_at,
    midpoint,
    on_open_segment,
    orientation,
    point_in_polygon,
    polygon_area_twice,
    segments_properly_cross,
    sides,
)
from tilingforge.search.placements import TileGeometry
from tilingforge.tilealgebra import tile_from_sides

from reference_geometry import sort_along, strictly_inside_triangle

# -- QRoot3 reference formulas ---------------------------------------------------


def ref_cross(u: Point, v: Point) -> QRoot3:
    return u.x * v.y - u.y * v.x


def ref_dot(u: Point, v: Point) -> QRoot3:
    return u.x * v.x + u.y * v.y


def ref_orientation(a, b, c) -> int:
    return qr3_sign(ref_cross(b - a, c - a))


def ref_on_segment(p, a, b) -> bool:
    return (ref_orientation(a, b, p) == 0 and qr3_sign(ref_dot(p - a, b - a)) >= 0
            and qr3_sign(ref_dot(p - b, a - b)) >= 0)


def ref_on_open_segment(p, a, b) -> bool:
    return (ref_orientation(a, b, p) == 0 and qr3_sign(ref_dot(p - a, b - a)) > 0
            and qr3_sign(ref_dot(p - b, a - b)) > 0)


def ref_segments_properly_cross(a, b, c, d) -> bool:
    o1, o2 = ref_orientation(a, b, c), ref_orientation(a, b, d)
    o3, o4 = ref_orientation(c, d, a), ref_orientation(c, d, b)
    return o1 * o2 < 0 and o3 * o4 < 0


def ref_point_in_polygon(p, vertices) -> str:
    """Boundary test on every edge, then the crossing count of the
    rightward ray from p."""
    n = len(vertices)
    for i in range(n):
        if ref_on_segment(p, vertices[i], vertices[(i + 1) % n]):
            return "on"
    crossings = 0
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        sa, sb = qr3_sign(a.y - p.y), qr3_sign(b.y - p.y)
        if sa <= 0 and sb > 0 and ref_orientation(a, b, p) > 0:
            crossings += 1
        elif sb <= 0 and sa > 0 and ref_orientation(a, b, p) < 0:
            crossings += 1
    return "inside" if crossings % 2 == 1 else "outside"


def ref_area_twice(vertices) -> QRoot3:
    acc = QRoot3(0)
    for i in range(len(vertices)):
        acc = acc + ref_cross(vertices[i], vertices[(i + 1) % len(vertices)])
    return acc


class RefAngle:
    """An angle as a positive multiple (c, s) of (cos, sin) in QRoot3, its
    band and order recomputed by `qr3_sign` on every question."""

    def __init__(self, c: QRoot3, s: QRoot3):
        assert not (c.is_zero() and s.is_zero())
        self.c, self.s = c, s

    def band(self) -> int:
        """0 for (0, pi), 1 for pi, 2 for (pi, 2*pi), 3 for 0 mod 2*pi."""
        ss = qr3_sign(self.s)
        if ss > 0:
            return 0
        if ss == 0:
            return 1 if qr3_sign(self.c) < 0 else 3
        return 2

    def rank(self) -> int:
        """The place of the band in the order 0 < (0, pi) < pi < (pi, 2*pi):
        the band is (3, 0, 1, 2)[rank]."""
        return (1, 2, 3, 0)[self.band()]

    def turn(self, other: "RefAngle") -> int:
        return qr3_sign(self.c * other.s - self.s * other.c)

    def equals(self, other: "RefAngle") -> bool:
        return self.band() == other.band() and self.turn(other) == 0

    def less_than(self, other: "RefAngle") -> bool:
        order = {3: 0, 0: 1, 1: 2, 2: 3}
        b1, b2 = self.band(), other.band()
        if order[b1] != order[b2]:
            return order[b1] < order[b2]
        return b1 in (0, 2) and self.turn(other) > 0

    def minus_rotation(self, cos_phi: QRoot3, sin_phi: QRoot3) -> "RefAngle":
        return RefAngle(self.c * cos_phi + self.s * sin_phi, self.s * cos_phi - self.c * sin_phi)

    def ray_key(self):
        if not self.c.is_zero():
            slope = self.s / self.c
            return (qr3_sign(self.c), slope.n1, slope.n3, slope.den)
        return (0, qr3_sign(self.s), None, None)


def ref_sign(r: int, s: int) -> int:
    """Sign of r + s*sqrt3 by Fraction arithmetic: the term of larger
    magnitude, compared as r^2 against 3 s^2, decides."""
    r2, s2 = Fraction(r) ** 2, 3 * Fraction(s) ** 2
    if r2 == s2:  # only when r == s == 0
        return 0
    dominant = r if r2 > s2 else s
    return (dominant > 0) - (dominant < 0)


# -- strategies ------------------------------------------------------------------

nums = st.integers(-12, 12)
dens = st.integers(1, 9)


@st.composite
def qr3(draw):
    """r + s*sqrt3 whose two parts carry independent denominators."""
    return QRoot3(Fraction(draw(nums), draw(dens)), Fraction(draw(nums), draw(dens)))


@st.composite
def points(draw):
    return Point(draw(qr3()), draw(qr3()))


@st.composite
def params(draw):
    """A line parameter; 0 and 1 (the endpoints) come up often."""
    return draw(st.one_of(
        st.sampled_from([QRoot3(0), QRoot3(1), QRoot3(Fraction(1, 2))]),
        qr3(),
    ))


def on_line(a: Point, b: Point, t: QRoot3) -> Point:
    return Point(a.x + (b.x - a.x) * t, a.y + (b.y - a.y) * t)


@st.composite
def related_point(draw, a: Point, b: Point):
    """A free point, an endpoint of ab, or a point of the line ab."""
    kind = draw(st.sampled_from(["free", "endpoint", "line"]))
    if kind == "free":
        return draw(points())
    if kind == "endpoint":
        return draw(st.sampled_from([a, b]))
    return on_line(a, b, draw(params()))


@st.composite
def segment_and_point(draw):
    a = draw(points())
    b = draw(st.one_of(points(), st.just(a)))
    return draw(related_point(a, b)), a, b


@st.composite
def two_segments(draw):
    a, b = draw(points()), draw(points())
    return a, b, draw(related_point(a, b)), draw(related_point(a, b))


# twelve exact directions, every 30 degrees, all in Q(sqrt3)^2
HALF, ROOT_HALF = QRoot3(Fraction(1, 2)), QRoot3(0, Fraction(1, 2))
DIRECTIONS = [
    (QRoot3(1), QRoot3(0)), (ROOT_HALF, HALF), (HALF, ROOT_HALF),
    (QRoot3(0), QRoot3(1)), (-HALF, ROOT_HALF), (-ROOT_HALF, HALF),
    (QRoot3(-1), QRoot3(0)), (-ROOT_HALF, -HALF), (-HALF, -ROOT_HALF),
    (QRoot3(0), QRoot3(-1)), (HALF, -ROOT_HALF), (ROOT_HALF, -HALF),
]
RADII = [QRoot3(1), QRoot3(2), QRoot3(Fraction(3, 2)), QRoot3(1, 1), QRoot3(Fraction(5, 7), Fraction(1, 3))]


@st.composite
def star_polygons(draw):
    """A simple ccw polygon, star-shaped about its centre: a radius on each
    of some of the twelve directions, always including the four axis
    directions so that no gap reaches 180 degrees.  Radii come from a short
    list, so equal radii at 60 and 120 degrees give horizontal edges."""
    chosen = sorted(set(draw(st.lists(st.integers(0, 11), max_size=8))) | {0, 3, 6, 9})
    centre = draw(points())
    verts = []
    for i in chosen:
        r = draw(st.sampled_from(RADII))
        c, s = DIRECTIONS[i]
        verts.append(Point(centre.x + c * r, centre.y + s * r))
    return verts


@st.composite
def polygon_and_query(draw):
    verts = draw(star_polygons())
    n = len(verts)
    kind = draw(st.sampled_from(["free", "vertex", "edge", "height"]))
    if kind == "free":
        return draw(points()), verts
    v = draw(st.sampled_from(verts))
    if kind == "vertex":
        return v, verts
    if kind == "edge":
        i = draw(st.integers(0, n - 1))
        return on_line(verts[i], verts[(i + 1) % n], draw(params())), verts
    # at the height of a vertex (and so of any horizontal edge through it)
    return Point(draw(qr3()), v.y), verts


@st.composite
def angle_pairs(draw):
    """(c, s), not both zero: free, on an axis (the band edges 0 and pi,
    and pi/2, 3*pi/2), or one of the twelve exact directions scaled."""
    kind = draw(st.sampled_from(["free", "axis", "direction"]))
    if kind == "free":
        c, s = draw(qr3()), draw(qr3())
    elif kind == "axis":
        v = draw(qr3())
        c, s = draw(st.sampled_from([(v, QRoot3(0)), (QRoot3(0), v)]))
    else:
        c, s = draw(st.sampled_from(DIRECTIONS))
        k = draw(st.sampled_from(POSITIVE))
        c, s = c * k, s * k
    if c.is_zero() and s.is_zero():
        c = QRoot3(-1)
    return c, s


# positive scalars in Q(sqrt3): rationals, 2 + sqrt3, sqrt3 - 1, a small one
POSITIVE = [QRoot3(1), QRoot3(Fraction(3, 7)), QRoot3(2, 1), QRoot3(-1, 1),
            QRoot3(Fraction(-5, 3), 1), QRoot3(Fraction(1, 3), Fraction(5, 2))]


# -- the integer sign kernel -----------------------------------------------------

# r/s close to sqrt3 from above and below (r^2 - 3 s^2 = 1 and -2); the
# sign choices below put r + s*sqrt3 next to zero
NEAR_ROOT3 = [(2, 1), (7, 4), (26, 15), (97, 56), (362, 209), (1351, 780),
              (1, 1), (5, 3), (19, 11), (71, 41), (265, 153), (989, 571)]


def test_sign_near_sqrt3():
    for r, s in NEAR_ROOT3:
        for k in (1, 3, 10**20 + 7):
            for sr, ss in ((1, -1), (-1, 1), (1, 1), (-1, -1)):
                assert _sign(sr * k * r, ss * k * s) == ref_sign(sr * k * r, ss * k * s)


@settings(max_examples=400, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30))
def test_sign_matches_fraction_reference(r, s):
    assert _sign(r, s) == ref_sign(r, s)
    assert qr3_sign(QRoot3(r, s)) == ref_sign(r, s)


@settings(deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50))
def test_sign_small(r, s):
    assert _sign(r, s) == ref_sign(r, s)


# -- predicates against the QRoot3 formulas -----------------------------------------


@settings(max_examples=300, deadline=None)
@given(points(), points(), st.data())
def test_orientation(a, b, data):
    c = data.draw(related_point(a, b))
    got = orientation(a, b, c)
    assert got == ref_orientation(a, b, c)
    assert orientation(b, a, c) == -got


@settings(max_examples=300, deadline=None)
@given(segment_and_point())
def test_on_open_segment(case):
    p, a, b = case
    assert on_open_segment(p, a, b) == ref_on_open_segment(p, a, b)


@settings(max_examples=300, deadline=None)
@given(two_segments())
def test_segments_properly_cross(case):
    a, b, c, d = case
    want = ref_segments_properly_cross(a, b, c, d)
    assert segments_properly_cross(a, b, c, d) == want
    assert segments_properly_cross(c, d, a, b) == want


@settings(max_examples=300, deadline=None)
@given(points(), points(), points(), st.data())
def test_strictly_inside_triangle(a, b, c, data):
    p = data.draw(st.one_of(points(), st.sampled_from([a, b, c]), st.builds(midpoint, st.just(a), st.just(b))))
    want = all(ref_orientation(t, u, p) > 0 for t, u in ((a, b), (b, c), (c, a)))
    assert strictly_inside_triangle(p, (a, b, c)) == want


@settings(max_examples=400, deadline=None)
@given(polygon_and_query())
def test_point_in_polygon(case):
    p, verts = case
    assert point_in_polygon(p, verts) == ref_point_in_polygon(p, verts)


def test_point_in_polygon_horizontal_edge_cases():
    # a square: the ray from each query runs along the bottom or top edge
    sq = [Point(QRoot3(x), QRoot3(y)) for x, y in ((0, 0), (2, 0), (2, 2), (0, 2))]
    for x, y, want in ((-1, 0, "outside"), (1, 0, "on"), (3, 0, "outside"), (0, 0, "on"),
                       (2, 2, "on"), (-1, 2, "outside"), (1, 1, "inside"), (-1, 1, "outside")):
        p = Point(QRoot3(x), QRoot3(y))
        assert point_in_polygon(p, sq) == want == ref_point_in_polygon(p, sq)


@settings(max_examples=200, deadline=None)
@given(star_polygons())
def test_polygon_area(verts):
    want = ref_area_twice(verts)
    assert polygon_area_twice(verts) == want
    assert qr3_sign(want) == 1
    assert polygon_area_twice(verts[::-1]) == -want


@settings(max_examples=300, deadline=None)
@given(points(), points(), points())
def test_angle_at(v, a, b):
    if a == v or b == v:
        return
    got = angle_at(v, a, b)
    u, w = a - v, b - v
    want = RefAngle(ref_dot(u, w), ref_cross(u, w))
    assert got.rank == want.rank()
    assert got.ray_key() == want.ray_key()
    assert got == AngleVec(want.c, want.s)


@settings(max_examples=300, deadline=None)
@given(st.tuples(qr3(), qr3()), st.tuples(qr3(), qr3()))
def test_angle_turn(p, q):
    if p[0].is_zero() and p[1].is_zero() or q[0].is_zero() and q[1].is_zero():
        return
    a1, a2 = AngleVec(*p), AngleVec(*q)
    assert a1._turn(a2) == qr3_sign(p[0] * q[1] - p[1] * q[0])


@settings(max_examples=300, deadline=None)
@given(angle_pairs(), angle_pairs(), st.sampled_from(POSITIVE))
def test_angle_vec_matches_reference(p, q, k):
    a, b, ra, rb = AngleVec(*p), AngleVec(*q), RefAngle(*p), RefAngle(*q)
    assert a.rank == ra.rank()
    assert a.is_zero_mod_2pi() == (ra.band() == 3) and a.is_reflex() == (ra.band() == 2)
    assert (a.compare(b) < 0) == ra.less_than(rb)
    assert (b.compare(a) < 0) == rb.less_than(ra)
    assert (a == b) == ra.equals(rb)
    assert a.ray_key() == ra.ray_key()
    assert a._turn(b) == ra.turn(rb)
    # the same angle from a positive multiple of the same vector
    scaled = AngleVec(p[0] * k, p[1] * k)
    assert scaled == a and scaled.ray_key() == a.ray_key() and scaled.rank == a.rank
    assert scaled.compare(a) == 0 == a.compare(scaled)
    assert RefAngle(QRoot3(scaled.c1, scaled.c3), QRoot3(scaled.s1, scaled.s3)).equals(ra)


@settings(max_examples=300, deadline=None)
@given(angle_pairs(), angle_pairs(), st.sampled_from(POSITIVE))
def test_angle_compare_matches_reference(p, q, k):
    a, b, ra, rb = AngleVec(*p), AngleVec(*q), RefAngle(*p), RefAngle(*q)
    want = -1 if ra.less_than(rb) else 1 if rb.less_than(ra) else 0
    assert (want == 0) == ra.equals(rb)
    assert a.compare(b) == want and b.compare(a) == -want
    assert a.compare(AngleVec(p[0] * k, p[1] * k)) == 0


@settings(max_examples=300, deadline=None)
@given(angle_pairs(), angle_pairs(), st.sampled_from(POSITIVE))
def test_minus_rotation_matches_reference(p, q, k):
    # phi's vector may be any positive multiple of (cos phi, sin phi)
    got = AngleVec(*p).minus_rotation(AngleVec(*q))
    want = RefAngle(*p).minus_rotation(*q)
    assert got.rank == want.rank()
    assert got.ray_key() == want.ray_key()
    assert got == AngleVec(want.c, want.s)
    assert AngleVec(p[0] * k, p[1] * k).minus_rotation(AngleVec(q[0] * k, q[1] * k)) == got


def test_minus_rotation_band_edges():
    # direction i minus direction j is direction i - j: exactly 0 for i == j
    # (s = 0, c > 0) and exactly pi for i - j = 6 (s = 0, c < 0)
    for i, p in enumerate(DIRECTIONS):
        for j, q in enumerate(DIRECTIONS):
            for k in POSITIVE[:3]:
                got = AngleVec(p[0] * k, p[1] * k).minus_rotation(AngleVec(*q))
                want = DIRECTIONS[(i - j) % 12]
                assert got == AngleVec(*want)
                assert got.ray_key() == RefAngle(*want).ray_key()
                assert got.rank == RefAngle(*want).rank()
                assert got.is_zero_mod_2pi() == (i == j)
                assert (got.rank == 2) == ((i - j) % 12 == 6)


@settings(max_examples=300, deadline=None)
@given(points(), st.data())
def test_sides(a, data):
    b = data.draw(st.one_of(points(), st.just(a)))
    pts = data.draw(st.lists(related_point(a, b), max_size=8))
    got = sides(a, b, pts)
    assert got == [orientation(a, b, p) for p in pts]
    assert got == [ref_orientation(a, b, p) for p in pts]


@settings(max_examples=200, deadline=None)
@given(points(), points())
def test_midpoint(a, b):
    assert midpoint(a, b) == Point((a.x + b.x) / 2, (a.y + b.y) / 2)


@settings(max_examples=200, deadline=None)
@given(points(), points())
def test_point_sum_and_difference_on_forms(a, b):
    # sums are taken on the integer forms and normalised once; both agree
    # with the coordinates
    for got, x, y in ((a + b, a.x + b.x, a.y + b.y), (a - b, a.x - b.x, a.y - b.y)):
        want = Point(x, y)
        assert got == want and got.form == want.form
        assert got.key == got.lex_key() == (x.n1, x.n3, x.den, y.n1, y.n3, y.den)
        copy = pickle.loads(pickle.dumps(got))
        assert copy == got and copy.form == got.form and copy.key == got.key


@settings(max_examples=200, deadline=None)
@given(points(), points(), st.lists(params(), max_size=6))
def test_sort_along(a, b, ts):
    if a == b:
        return
    pts = list({on_line(a, b, t) for t in ts})
    sort_along(pts, a, b)
    keys = [ref_dot(p - a, b - a) for p in pts]
    assert keys == sorted(keys)


def test_point_form_is_not_part_of_identity():
    p = Point(QRoot3(Fraction(1, 2)), QRoot3(0, Fraction(1, 3)))
    assert p.form == (3, 0, 0, 2, 6)
    q = Point.from_json(p.to_json())
    assert q == p and hash(q) == hash(p) and q.lex_key() == p.lex_key()


# -- exact representable-angle rays -------------------------------------------------


def _ref_sum_below_2pi(steps):
    """The sum of the given angles, each in (0, pi) as (c, s), or None if
    the sum reaches 2*pi: adding such an angle to a sum below 2*pi wraps
    exactly when the result is not larger."""
    cur = RefAngle(QRoot3(1), QRoot3(0))
    for c, s in steps:
        nxt = RefAngle(cur.c * c - cur.s * s, cur.c * s + cur.s * c)
        if nxt.band() == 3 or not cur.less_than(nxt):
            return None
        cur = nxt
    return cur


def _naive_rays(geom: TileGeometry) -> set:
    """Compose every i*alpha + j*beta + k*gamma from scratch inside a box
    whose sides are the step counts to 2*pi of each angle alone."""
    vecs = [(c, s) for _, c, s, _, _ in geom.angles]
    limits = []
    for v in vecs:
        n = 1
        while _ref_sum_below_2pi([v] * n) is not None:
            n += 1
        limits.append(n)
    rays = set()
    for i in range(limits[0]):
        for j in range(limits[1]):
            for k in range(limits[2]):
                if i == j == k == 0:
                    continue
                total = _ref_sum_below_2pi([vecs[0]] * i + [vecs[1]] * j + [vecs[2]] * k)
                if total is not None:
                    rays.add(total.ray_key())
    return rays


def test_representable_angle_rays_exact():
    for sides, size in (((3, 5, 7), 90), ((1, 1, SQRT3), 11), ((5, 16, 19), 122), ((7, 8, 13), 83)):
        tile = tile_from_sides(*(QRoot3(x) if isinstance(x, int) else x for x in sides))
        geom = TileGeometry(tile)
        assert len(geom._angle_rays) == size
        assert geom._angle_rays == _naive_rays(geom)
