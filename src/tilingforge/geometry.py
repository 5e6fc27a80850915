"""Exact planar primitives over Q(sqrt3).

Coordinates are stored as QRoot3 values, the type that is compared,
hashed and serialised.  Each Point also keeps, computed once, an integer
form (X1, X3, Y1, Y3, D) with x = (X1 + X3*sqrt3)/D, y = (Y1 + Y3*sqrt3)/D
and D > 0.  The predicates (orientation, segment and containment tests)
multiply these integers into a determinant r + s*sqrt3 that positive
denominators scale but never flip, and decide it with the shared kernel
`_sign`: fraction-free, with no gcd and no QRoot3 built per call (exact
geometric computation; Yap, CGTA 7, 1997).  `line_form` reduces a line
to integer coefficients once, which `sides` reads for many points, and
an `AngleVec` holds its angle as four ints with its band fixed at
construction.  Sums and midpoints of points are taken on the forms, each
coordinate normalised once.  No floating-point comparison participates in
any decision.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .exactnum import QRoot3
from .exactnum.qfield import _sign


class GeometryError(RuntimeError):
    pass


_set = object.__setattr__


class Point:
    """Immutable point with QRoot3 coordinates x, y, their integer form and
    `key`, the `lex_key()` tuple of their normalised parts, both kept from
    construction.  Equal keys are equal coordinates; the form takes no part
    in equality, hashing, ordering or JSON."""

    __slots__ = ("x", "y", "form", "key")

    def __init__(self, x: QRoot3, y: QRoot3):
        g = gcd(x.den, y.den)
        kx, ky = y.den // g, x.den // g  # to the least common denominator
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "form", (x.n1 * kx, x.n3 * kx, y.n1 * ky, y.n3 * ky, x.den * kx))
        _set(self, "key", (x.n1, x.n3, x.den, y.n1, y.n3, y.den))

    def __setattr__(self, *_args):
        raise AttributeError("Point is immutable")

    def __reduce__(self):
        # pickle and copy rebuild through the constructor, not the slots
        return Point, (self.x, self.y)

    def __eq__(self, other) -> bool:
        if other.__class__ is not Point:
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash((self.x, self.y))

    def __add__(self, other: "Point") -> "Point":
        ax1, ax3, ay1, ay3, ad = self.form
        bx1, bx3, by1, by3, bd = other.form
        return _of_form(ax1 * bd + bx1 * ad, ax3 * bd + bx3 * ad, ay1 * bd + by1 * ad, ay3 * bd + by3 * ad,
                        ad * bd)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def lex_key(self):
        return self.key

    def lex_less(self, other: "Point") -> bool:
        if self.x != other.x:
            return self.x < other.x
        return self.y < other.y

    def to_json(self):
        return [self.x.to_json(), self.y.to_json()]

    @staticmethod
    def from_json(obj) -> "Point":
        if not isinstance(obj, list) or len(obj) != 2:
            raise ValueError(f"a point is a list of two coordinates, not {obj!r}")
        return Point(QRoot3.from_json(obj[0]), QRoot3.from_json(obj[1]))

    def __repr__(self):
        return f"({self.x}, {self.y})"


def _of_form(x1: int, x3: int, y1: int, y3: int, d: int) -> Point:
    """The point with integer form (x1, x3, y1, y3, d), d > 0, each
    coordinate normalised once."""
    return Point(QRoot3._raw(x1, x3, d), QRoot3._raw(y1, y3, d))


def pt(x, y) -> Point:
    return Point(QRoot3(Fraction(x)) if not isinstance(x, QRoot3) else x,
                 QRoot3(Fraction(y)) if not isinstance(y, QRoot3) else y)


def midpoint(a: Point, b: Point) -> Point:
    """Midpoint of a and b, summed on the integer forms and normalised once
    per coordinate."""
    ax1, ax3, ay1, ay3, ad = a.form
    bx1, bx3, by1, by3, bd = b.form
    return _of_form(ax1 * bd + bx1 * ad, ax3 * bd + bx3 * ad, ay1 * bd + by1 * ad, ay3 * bd + by3 * ad,
                    2 * ad * bd)


# ---------------------------------------------------------------------------
# fraction-free kernel on integer forms


def _orient(a: tuple, b: tuple, c: tuple) -> int:
    """Sign of cross(b - a, c - a) for the integer forms of a, b, c."""
    ax1, ax3, ay1, ay3, ad = a
    bx1, bx3, by1, by3, bd = b
    cx1, cx3, cy1, cy3, cd = c
    # b - a scaled by ad*bd, c - a by ad*cd: positive, so the sign holds
    ux1, ux3, uy1, uy3 = bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd, by1 * ad - ay1 * bd, by3 * ad - ay3 * bd
    vx1, vx3, vy1, vy3 = cx1 * ad - ax1 * cd, cx3 * ad - ax3 * cd, cy1 * ad - ay1 * cd, cy3 * ad - ay3 * cd
    return _sign(ux1 * vy1 - uy1 * vx1 + 3 * (ux3 * vy3 - uy3 * vx3),
                 ux1 * vy3 + ux3 * vy1 - uy1 * vx3 - uy3 * vx1)


def _span(p: tuple, a: tuple, b: tuple) -> tuple[int, int]:
    """For p collinear with a and b, the signs of t and 1 - t where
    p = a + t*(b - a), read off the x coordinates, or the y coordinates
    when a and b share x; (0, 0) when a == b."""
    px1, px3, py1, py3, pd = p
    ax1, ax3, ay1, ay3, ad = a
    bx1, bx3, by1, by3, bd = b
    d = _sign(bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd)
    if d:
        return (d * _sign(px1 * ad - ax1 * pd, px3 * ad - ax3 * pd),
                d * _sign(bx1 * pd - px1 * bd, bx3 * pd - px3 * bd))
    d = _sign(by1 * ad - ay1 * bd, by3 * ad - ay3 * bd)
    return (d * _sign(py1 * ad - ay1 * pd, py3 * ad - ay3 * pd),
            d * _sign(by1 * pd - py1 * bd, by3 * pd - py3 * bd))


def orientation(a: Point, b: Point, c: Point) -> int:
    """+1 for counterclockwise a->b->c, -1 clockwise, 0 collinear."""
    return _orient(a.form, b.form, c.form)


def line_form(a: Point, b: Point) -> tuple[int, int, int, int, int, int]:
    """The line through a and b as integer coefficients (x1, x3, y1, y3,
    k1, k3): for a point p of integer form (px1, px3, py1, py3, pd), the
    linear forms r = x1*py1 - y1*px1 + 3*(x3*py3 - y3*px3) - pd*k1 and
    s = x1*py3 + x3*py1 - y1*px3 - y3*px1 - pd*k3 give r + s*sqrt3 with
    the sign of orientation(a, b, p) (all zero when a == b)."""
    ax1, ax3, ay1, ay3, ad = a.form
    bx1, bx3, by1, by3, bd = b.form
    ux1, ux3, uy1, uy3 = bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd, by1 * ad - ay1 * bd, by3 * ad - ay3 * bd
    # with u = (b - a)*ad*bd and the numerators p*pd, a*ad of p and a,
    # cross(b - a, p - a) times the positive ad*bd*ad*pd is
    # ad*(u x p*pd) - pd*(u x a*ad) = X*py - Y*px - pd*K
    return (ux1 * ad, ux3 * ad, uy1 * ad, uy3 * ad,
            ux1 * ay1 - uy1 * ax1 + 3 * (ux3 * ay3 - uy3 * ax3),
            ux1 * ay3 + ux3 * ay1 - uy1 * ax3 - uy3 * ax1)


def sides(a: Point, b: Point, points: Sequence[Point]) -> list[int]:
    """[orientation(a, b, p) for p in points], with the line through a and
    b reduced once to its `line_form`, so that each point costs one
    linear form and one `_sign` (all zero when a == b)."""
    x1, x3, y1, y3, k1, k3 = line_form(a, b)
    tx3, ty3 = 3 * x3, 3 * y3
    return [_sign(x1 * py1 + tx3 * py3 - y1 * px1 - ty3 * px3 - pd * k1,
                  x1 * py3 + x3 * py1 - y1 * px3 - y3 * px1 - pd * k3)
            for px1, px3, py1, py3, pd in [p.form for p in points]]


def on_open_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies strictly inside the segment (a, b)."""
    fp, fa, fb = p.form, a.form, b.form
    if _orient(fa, fb, fp):
        return False
    t, rest = _span(fp, fa, fb)
    return t > 0 and rest > 0


def segments_properly_cross(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Open segments ab and cd cross in a single interior point."""
    fa, fb, fc, fd = a.form, b.form, c.form, d.form
    o = _orient(fa, fb, fc)
    if o == 0 or _orient(fa, fb, fd) != -o:
        return False
    o = _orient(fc, fd, fa)
    return o != 0 and _orient(fc, fd, fb) == -o


def squared_distance(a: Point, b: Point) -> QRoot3:
    """|b - a|^2, squared on the integer forms and normalised once."""
    ax1, ax3, ay1, ay3, ad = a.form
    bx1, bx3, by1, by3, bd = b.form
    ux1, ux3, uy1, uy3 = bx1 * ad - ax1 * bd, bx3 * ad - ax3 * bd, by1 * ad - ay1 * bd, by3 * ad - ay3 * bd
    den = ad * bd
    return QRoot3._raw(ux1 * ux1 + uy1 * uy1 + 3 * (ux3 * ux3 + uy3 * uy3),
                       2 * (ux1 * ux3 + uy1 * uy3), den * den)


def segment_length(a: Point, b: Point) -> QRoot3:
    """Exact length; raises if it leaves Q(sqrt3) (closure violation)."""
    sq = squared_distance(a, b)
    root = sq.sqrt()
    if root is None:
        raise GeometryError(f"segment length sqrt({sq}) is not in Q(sqrt3)")
    return root


def point_in_polygon(p: Point, vertices: Sequence[Point]) -> str:
    """'inside' / 'on' / 'outside' for a simple polygon.

    Division-free crossing count: an upward edge crossing the rightward ray
    from p has p strictly to its left, a downward edge strictly to its
    right.  An edge wholly above or below p can neither hold p nor cross
    the ray, so only edges that reach p's height are tested further.
    """
    px1, px3, py1, py3, pd = fp = p.form
    forms = [v.form for v in vertices]
    # sign of (vertex y - p.y), by vertex
    ys = [_sign(y1 * pd - py1 * d, y3 * pd - py3 * d) for _, _, y1, y3, d in forms]
    crossings = 0
    for i in range(len(forms)):
        sa, sb = ys[i - 1], ys[i]
        a, b = forms[i - 1], forms[i]
        if sa == sb:
            if sa == 0:  # horizontal edge at p's height: is p.x within it?
                xa = _sign(a[0] * pd - px1 * a[4], a[1] * pd - px3 * a[4])
                xb = _sign(b[0] * pd - px1 * b[4], b[1] * pd - px3 * b[4])
                if xa * xb <= 0:
                    return "on"
            continue
        o = _orient(a, b, fp)
        if o == 0:
            # on the line of a non-horizontal edge that reaches p's height
            return "on"
        if (o > 0 and sa <= 0 < sb) or (o < 0 and sb <= 0 < sa):
            crossings += 1
    return "inside" if crossings % 2 == 1 else "outside"


def polygon_area_twice(vertices: Sequence[Point]) -> QRoot3:
    """Twice the signed area (positive for counterclockwise), summed on the
    integer forms brought to their least common denominator."""
    forms = [v.form for v in vertices]
    den = lcm(*[f[4] for f in forms])
    scaled = [(x1 * k, x3 * k, y1 * k, y3 * k) for x1, x3, y1, y3, d in forms for k in (den // d,)]
    r = s = 0
    ax1, ax3, ay1, ay3 = scaled[-1]
    for bx1, bx3, by1, by3 in scaled:
        r += ax1 * by1 - ay1 * bx1 + 3 * (ax3 * by3 - ay3 * bx3)
        s += ax1 * by3 + ax3 * by1 - ay1 * bx3 - ay3 * bx1
        ax1, ax3, ay1, ay3 = bx1, bx3, by1, by3
    return QRoot3._raw(r, s, den * den)


def angle_at(v: Point, a: Point, b: Point) -> "AngleVec":
    """Counterclockwise angle at v from direction a - v to direction b - v,
    as (dot, cross) of the two directions scaled by a positive integer."""
    vx1, vx3, vy1, vy3, vd = v.form
    ax1, ax3, ay1, ay3, ad = a.form
    bx1, bx3, by1, by3, bd = b.form
    ux1, ux3, uy1, uy3 = ax1 * vd - vx1 * ad, ax3 * vd - vx3 * ad, ay1 * vd - vy1 * ad, ay3 * vd - vy3 * ad
    wx1, wx3, wy1, wy3 = bx1 * vd - vx1 * bd, bx3 * vd - vx3 * bd, by1 * vd - vy1 * bd, by3 * vd - vy3 * bd
    return AngleVec._of(ux1 * wx1 + uy1 * wy1 + 3 * (ux3 * wx3 + uy3 * wy3),
                        ux1 * wx3 + ux3 * wx1 + uy1 * wy3 + uy3 * wy1,
                        ux1 * wy1 - uy1 * wx1 + 3 * (ux3 * wy3 - uy3 * wx3),
                        ux1 * wy3 + ux3 * wy1 - uy1 * wx3 - uy3 * wx1)


# ---------------------------------------------------------------------------
# exact angle values, represented by unnormalized (cos, sin) vectors


class AngleVec:
    """An angle in [0, 2*pi), represented by any positive multiple
    (c1 + c3*sqrt3, s1 + s3*sqrt3) of (cos(theta), sin(theta)) on plain
    ints.  Its rank in the order 0 < (0, pi) < pi < (pi, 2*pi) is fixed
    once, at construction; within the two open bands the sign of one cross
    product decides.  Supports exact comparison and subtraction."""

    __slots__ = ("c1", "c3", "s1", "s3", "rank")

    def __init__(self, c: QRoot3, s: QRoot3):
        # both scaled by the two denominators: a positive multiple
        _init_angle(self, c.n1 * s.den, c.n3 * s.den, s.n1 * c.den, s.n3 * c.den)

    @staticmethod
    def _of(c1: int, c3: int, s1: int, s3: int) -> "AngleVec":
        out = object.__new__(AngleVec)
        _init_angle(out, c1, c3, s1, s3)
        return out

    def __setattr__(self, *_args):
        raise AttributeError("AngleVec is immutable")

    def __reduce__(self):
        # pickle and copy rebuild from the four ints, not the slots
        return AngleVec._of, (self.c1, self.c3, self.s1, self.s3)

    def is_zero_mod_2pi(self) -> bool:
        return self.rank == 0

    def is_reflex(self) -> bool:
        return self.rank == 3

    def __eq__(self, other) -> bool:
        if other.__class__ is not AngleVec:
            return NotImplemented
        return self.compare(other) == 0

    def __hash__(self):
        raise TypeError("AngleVec is not hashable; use ray_key()")

    def __repr__(self):
        return f"AngleVec._of({self.c1}, {self.c3}, {self.s1}, {self.s3})"

    def compare(self, other: "AngleVec") -> int:
        """-1, 0 or +1 as this angle is smaller than, equal to or larger
        than other: one rank test and at most one cross product."""
        if self.rank != other.rank:
            return -1 if self.rank < other.rank else 1
        return 0 if self.rank in (0, 2) else other._turn(self)

    def _turn(self, other: "AngleVec") -> int:
        """Sign of the cross product of this vector and other's."""
        c1, c3, s1, s3 = self.c1, self.c3, self.s1, self.s3
        d1, d3, t1, t3 = other.c1, other.c3, other.s1, other.s3
        return _sign(c1 * t1 - s1 * d1 + 3 * (c3 * t3 - s3 * d3),
                     c1 * t3 + c3 * t1 - s1 * d3 - s3 * d1)

    def minus_rotation(self, phi: "AngleVec") -> "AngleVec":
        """This angle minus phi: the vector rotated by -phi, with phi's
        vector (p, q), a positive multiple of (cos phi, sin phi), as the
        rotation."""
        p1, p3, q1, q3 = phi.c1, phi.c3, phi.s1, phi.s3
        c1, c3, s1, s3 = self.c1, self.c3, self.s1, self.s3
        # (c, s) -> (c*cos + s*sin, s*cos - c*sin)
        return AngleVec._of(c1 * p1 + s1 * q1 + 3 * (c3 * p3 + s3 * q3),
                            c1 * p3 + c3 * p1 + s1 * q3 + s3 * q1,
                            s1 * p1 - c1 * q1 + 3 * (s3 * p3 - c3 * q3),
                            s1 * p3 + s3 * p1 - c1 * q3 - c3 * q1)

    def ray_key(self):
        """Canonical hashable key for the ray of (c, s): the sign of c and
        the normalised slope s/c, or the sign of s when c is zero."""
        c1, c3, s1, s3 = self.c1, self.c3, self.s1, self.s3
        cs = _sign(c1, c3)
        if cs:
            # s/c = (s1 + s3*sqrt3)(c1 - c3*sqrt3) / (c1^2 - 3*c3^2)
            slope = QRoot3._raw(s1 * c1 - 3 * s3 * c3, s3 * c1 - s1 * c3, c1 * c1 - 3 * c3 * c3)
            return (cs, slope.n1, slope.n3, slope.den)
        return (0, _sign(s1, s3), None, None)


def _init_angle(a: AngleVec, c1: int, c3: int, s1: int, s3: int) -> None:
    ss = _sign(s1, s3)
    if ss:
        rank = 1 if ss > 0 else 3
    else:
        cs = _sign(c1, c3)
        if cs == 0:
            raise GeometryError("zero angle vector")
        rank = 0 if cs > 0 else 2
    _set(a, "c1", c1)
    _set(a, "c3", c3)
    _set(a, "s1", s1)
    _set(a, "s3", s3)
    _set(a, "rank", rank)
