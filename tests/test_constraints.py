import math
from fractions import Fraction

import pytest
import sympy

from tilingforge.exactnum import QRoot3, SQRT3, qr3_sign
from tilingforge.constraints import (
    ConstraintError,
    DMatrix,
    VertexSplit,
    area_count,
    area_equation_nab_holds,
    area_equation_nac_holds,
    enumerate_dmatrices,
    enumerate_vertex_splits,
    side_compositions,
    solve_alpha_from_split,
    target_vertices,
    tile_angle_sums,
    triangle_spec,
    xz_coefficients,
)
from tilingforge.geometry import AngleVec, pt
from tilingforge.tilealgebra import eisenstein_triple, tile_from_sides

T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


def test_vertex_splits_generic():
    assert enumerate_vertex_splits(None) == [VertexSplit(3, 3, 0)]


def test_vertex_splits_pi12():
    splits = {v.as_tuple() for v in enumerate_vertex_splits(Fraction(1, 12))}
    assert (0, 4, 0) in splits
    assert (3, 3, 0) in splits
    assert all(v.angle_equation_holds(Fraction(1, 12)) for v in enumerate_vertex_splits(Fraction(1, 12)))


def test_vertex_splits_pi9():
    splits = {v.as_tuple() for v in enumerate_vertex_splits(Fraction(1, 9))}
    assert (1, 4, 0) in splits


def test_vertex_splits_2pi15():
    splits = {v.as_tuple() for v in enumerate_vertex_splits(Fraction(2, 15))}
    assert (0, 5, 0) in splits


def test_solve_alpha_table():
    assert solve_alpha_from_split(0, 4, 0) == Fraction(1, 12)
    assert solve_alpha_from_split(1, 4, 0) == Fraction(1, 9)
    assert solve_alpha_from_split(0, 5, 0) == Fraction(2, 15)
    with pytest.raises(ConstraintError):
        solve_alpha_from_split(3, 3, 0)


def test_solve_then_enumerate_consistency():
    for (P, Q, R) in [(0, 4, 0), (1, 4, 0), (0, 5, 0)]:
        alpha = solve_alpha_from_split(P, Q, R)
        assert VertexSplit(P, Q, R) in enumerate_vertex_splits(alpha)


def test_side_compositions_15():
    assert side_compositions(T357, QRoot3(15)) == [(0, 3, 0), (1, 1, 1), (5, 0, 0)]


def test_dmatrices_equilateral_15():
    tri = triangle_spec(T357, [QRoot3(15)] * 3)
    mats = enumerate_dmatrices(T357, tri)
    assert len(mats) == 27
    for m in mats:
        assert m.reproduces(T357, tri)
    flagged = [m for m in mats if m.c_columns_positive()]
    assert flagged == [m for m in mats if m.rows[0][2] > 0 and m.rows[1][2] > 0 and m.rows[2][2] > 0]
    assert any(not m.c_columns_positive() for m in mats)


def test_dmatrix_diag_for_scaled_target():
    tri = triangle_spec(T357, [QRoot3(14), QRoot3(10), QRoot3(6)])
    mats = enumerate_dmatrices(T357, tri)
    # rows are ordered X, Y, Z = (2c, 2b, 2a): the doubled-tile boundary
    assert DMatrix(((0, 0, 2), (0, 2, 0), (2, 0, 0))) in mats


def test_triangle_spec_angles():
    tri = triangle_spec(T357, [QRoot3(15)] * 3)
    assert tri.angles == (((1, 1, 0),) * 3)[0:3]
    tri2 = triangle_spec(T357, [QRoot3(14), QRoot3(10), QRoot3(6)])
    assert tri2.angles == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_triangle_spec_rejects_inexpressible():
    with pytest.raises(ConstraintError):
        triangle_spec(T357, [QRoot3(3), QRoot3(4), QRoot3(5)])
    with pytest.raises(ConstraintError):
        triangle_spec(T357, [QRoot3(1), QRoot3(1), QRoot3(5)])


def test_area_count():
    tri = triangle_spec(T357, [QRoot3(15)] * 3)
    assert area_count(T357, tri) == 15
    tri_iso = triangle_spec(ISO, [2 * SQRT3] * 3)
    assert area_count(ISO, tri_iso) == 12  # 3 r^2 with r = 2
    tri_k = triangle_spec(T357, [QRoot3(9), QRoot3(15), QRoot3(21)])
    assert area_count(T357, tri_k) == 9


def test_area_equations_on_quadratic_control():
    # doubled (3,5,7): N = 4, corner between X and Z is beta
    assert area_equation_nac_holds(T357, 4, QRoot3(14), QRoot3(6))
    assert not area_equation_nab_holds(T357, 4, QRoot3(14), QRoot3(6))
    # equilateral side 15 has the pi/3 corner: N a b = X Z would need N = 15
    tri = triangle_spec(T357, [QRoot3(15)] * 3)
    n = area_count(T357, tri)
    assert area_equation_nab_holds(T357, int(n), QRoot3(15), QRoot3(15))


def test_xz_coefficients_match_symbolic_expansion():
    p, d, e, h, l, r, lam, mu, ac = sympy.symbols("p d e h l r lam mu ac", nonnegative=True)
    c2 = sympy.Rational(3, 4)
    denom = 1 + lam + lam**2
    a2 = -mu * (2 * lam + 1) / denom * ac + c2 * (1 - mu**2) / denom
    X = (p + lam * d) * 1 + 0  # X = a(p + lam d) + c(e + d mu): track a, c separately
    # expand XZ = (a(p+lam d) + c(e+d mu)) (a(h+lam l) + c(r+l mu)) with a^2 -> a2, c^2 -> 3/4
    XZ = (
        (p + lam * d) * (h + lam * l) * a2
        + ac * ((d * mu + e) * (h + lam * l) + (p + lam * d) * (l * mu + r))
        + c2 * (d * mu + e) * (l * mu + r)
    )
    XZ = sympy.expand(XZ)
    vals = {p: 2, d: 1, e: 3, h: 0, l: 2, r: 1, lam: sympy.Rational(5, 3), mu: sympy.Rational(1, 4)}
    rat, acc = xz_coefficients((2, 1, 3), (0, 2, 1), Fraction(5, 3), Fraction(1, 4))
    poly = sympy.Poly(XZ.subs(vals), ac)
    assert sympy.Rational(rat) == poly.nth(0)
    assert sympy.Rational(acc) == poly.nth(1)


def test_xz_coefficients_lemma13_consistency():
    # lam > 0, mu = 0, X and Z made only of c edges: then the rational parts
    # of XZ = N a b force (a/c)^2 = e*r / (N lam).
    lam = Fraction(5, 3)
    e_cnt, r_cnt = 3, 5
    rat, acc = xz_coefficients((0, 0, e_cnt), (0, 0, r_cnt), lam, Fraction(0))
    assert acc == 0
    assert rat == Fraction(3, 4) * e_cnt * r_cnt
    # XZ = N lam a^2 = N lam (a/c)^2 c^2; so er = N lam (a/c)^2
    x2 = Fraction(9, 49)  # (a/c)^2 for the (3,5,7) shape, lam = 5/3
    n = Fraction(e_cnt * r_cnt) / (lam * x2)
    assert Fraction(e_cnt * r_cnt, 1) / (n * lam) == x2


def test_xz_rejects_negative():
    with pytest.raises(ConstraintError):
        xz_coefficients((1, 1, 1), (1, 1, 1), Fraction(-1), Fraction(0))


def _corner_combos(tile):
    """The sums of tile_angle_sums below pi: the candidate corner angles."""
    return [(c, a) for c, a in tile_angle_sums(tile) if a.rank == 1]


def test_corner_angle_combos_iso():
    combos = {c for c, _ in _corner_combos(ISO)}
    assert (1, 1, 0) in combos  # pi/3
    assert (0, 0, 1) in combos  # 2 pi/3
    assert (5, 0, 0) in combos  # 5 pi/6
    assert (6, 0, 0) not in combos  # pi exactly is not a corner


def _minus_pair_rotation(ang, cos_phi, sin_phi):
    """ang minus phi, with phi given by the exact pair (cos_phi, sin_phi),
    which is scaled by the product of their denominators."""
    p1, p3 = cos_phi.n1 * sin_phi.den, cos_phi.n3 * sin_phi.den
    q1, q3 = sin_phi.n1 * cos_phi.den, sin_phi.n3 * cos_phi.den
    c1, c3, s1, s3 = ang.c1, ang.c3, ang.s1, ang.s3
    return AngleVec._of(c1 * p1 + s1 * q1 + 3 * (c3 * p3 + s3 * q3),
                        c1 * p3 + c3 * p1 + s1 * q3 + s3 * q1,
                        s1 * p1 - c1 * q1 + 3 * (s3 * p3 - c3 * q3),
                        s1 * p3 + s3 * p1 - c1 * q3 - c3 * q1)


def _sum_below_pi(steps):
    """The exact sum of the given angle steps if it lies in (0, pi): adding
    them one by one, each (cos, sin) as the rotation by minus (cos, -sin),
    never wraps past 2*pi and ends on a positive sine."""
    cur = AngleVec(QRoot3(1), QRoot3(0))
    for c, s in steps:
        nxt = _minus_pair_rotation(cur, c, -s)
        if cur.compare(nxt) >= 0:
            return None
        cur = nxt
    return cur if qr3_sign(QRoot3(cur.s1, cur.s3)) > 0 else None


def _naive_combos(tile):
    """Compose every i*alpha + j*beta + k*gamma from scratch inside a box
    whose sides are the step counts to pi of each angle alone."""
    vecs = [tile.angle_vec(name) for name in ("alpha", "beta", "gamma")]
    limits = []
    for v in vecs:
        n = 1
        while _sum_below_pi([v] * n) is not None:
            n += 1
        limits.append(n)
    out = []
    for k in range(limits[2]):
        for i in range(limits[0]):
            for j in range(limits[1]):
                total = _sum_below_pi([vecs[0]] * i + [vecs[1]] * j + [vecs[2]] * k)
                if (i or j or k) and total is not None:
                    out.append(((i, j, k), total))
    return out


TILES = [T357, ISO] + [tile_from_sides(*eisenstein_triple(m, n))
                       for m in range(2, 9) for n in range(1, m) if math.gcd(m, n) == 1]


def test_corner_angle_combos_exact():
    assert len(TILES) == 23
    for tile in TILES:
        got, want = _corner_combos(tile), _naive_combos(tile)
        assert [c for c, _ in got] == [c for c, _ in want]
        assert all(a == b for (_, a), (_, b) in zip(got, want))
    assert len(_corner_combos(T357)) == 29
    assert len(_corner_combos(ISO)) == 23


def test_tile_angle_sums_have_the_ints_of_the_pair_chain():
    # each sum, chained by AngleVec steps, holds the four ints that adding
    # its angles as (cos, sin) pairs gives, gammas first, then alphas, then betas
    for tile in (T357, ISO, tile_from_sides(6, 10, 14)):
        alpha, beta, gamma = (tile.angle_vec(name) for name in ("alpha", "beta", "gamma"))
        sums = tile_angle_sums(tile)
        assert sums
        for (i, j, k), got in sums:
            want = AngleVec(QRoot3(1), QRoot3(0))
            for c, s in [gamma] * k + [alpha] * i + [beta] * j:
                want = _minus_pair_rotation(want, c, -s)
            assert (got.c1, got.c3, got.s1, got.s3) == (want.c1, want.c3, want.s1, want.s3), (tile, i, j, k)


def _rotate(u, v):
    return (u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0])


def _reference_triangle_spec(tile, sides):
    """triangle_spec by (cos, sin) pairs in QRoot3: every combination below
    pi composed by rotations, each corner matched on its cosine (fewest
    angles first), and the three corners composed to exactly pi."""
    def vec(combo):
        acc = (QRoot3(1), QRoot3(0))
        for count, name in zip(combo, ("alpha", "beta", "gamma")):
            for _ in range(count):
                acc = _rotate(acc, tile.angle_vec(name))
        return acc

    combos = sorted((c for c, _ in _naive_combos(tile)), key=lambda c: (sum(c), c))
    X, Y, Z = sorted(sides, reverse=True)

    def match(cos_val):
        for combo in combos:
            if vec(combo)[0] == cos_val:
                return combo
        raise ConstraintError(
            f"target corner with cos = {cos_val} is not a combination of tile angles")

    angles = tuple(match((q * q + r * r - p * p) / (2 * q * r))
                   for p, q, r in ((X, Y, Z), (Y, X, Z), (Z, X, Y)))
    acc = (QRoot3(1), QRoot3(0))
    for combo in angles:
        acc = _rotate(acc, vec(combo))
    assert acc == (QRoot3(-1), QRoot3(0))
    return angles


REFERENCE_TARGETS = [
    pytest.param(T357, (15, 15, 15), id="357-eq15"),
    pytest.param(T357, (6, 10, 14), id="357-similar"),  # similar to the tile
    pytest.param(T357, (24, 21, 15), id="357-24,21,15"),  # split corners 2a+b, a+b, b
    pytest.param(T357, (3, 4, 5), id="357-3,4,5"),  # right angle, rational sines: not a tile-angle sum
    pytest.param(T357, (2, 3, 4), id="357-2,3,4"),  # sine sqrt(15)/4 outside Q(sqrt3)
    pytest.param(T357, (1, 1, SQRT3), id="357-pi/6"),  # corners pi/6
    pytest.param(ISO, (2 * SQRT3,) * 3, id="iso-eq"),
    pytest.param(ISO, (1, 1, SQRT3), id="iso-similar"),
    pytest.param(ISO, (1, SQRT3, 2), id="iso-30,60,90"),  # the right angle is 3 alphas
    pytest.param(ISO, (3, 4, 5), id="iso-3,4,5"),
    pytest.param(ISO, (2, 3, 4), id="iso-2,3,4"),
]

# the targets of the perfbench workloads
BENCHMARK_TARGETS = [
    pytest.param(T357, (30, 30, 30), id="357-eq30"),
    pytest.param(T357, (15, 25, 35), id="357-15,25,35"),
    pytest.param(ISO, (4 * SQRT3,) * 3, id="iso-eq-4r3"),
    pytest.param(ISO, (5 * SQRT3,) * 3, id="iso-eq-5r3"),
]


def _exact_sides(sides):
    return [s if isinstance(s, QRoot3) else QRoot3(s) for s in sides]


@pytest.mark.parametrize("tile, sides", REFERENCE_TARGETS)
def test_triangle_spec_matches_cosine_reference(tile, sides):
    sides = _exact_sides(sides)
    try:
        want = _reference_triangle_spec(tile, sides)
    except ConstraintError as exc:
        with pytest.raises(ConstraintError) as got:
            triangle_spec(tile, sides)
        assert str(got.value) == str(exc)
        return
    assert triangle_spec(tile, sides).angles == want


def _heron_area(X, Y, Z):
    """The area from the sides alone: 16 A^2 is the Heron polynomial;
    None when the area leaves Q(sqrt3)."""
    x2, y2, z2 = X * X, Y * Y, Z * Z
    root = (2 * (x2 * y2 + y2 * z2 + z2 * x2) - x2 * x2 - y2 * y2 - z2 * z2).sqrt()
    return None if root is None else root / 4


def _apex_vertices(X, Y, Z):
    """(B, C, A) with B at the origin, C at (X, 0) and the apex A above at
    |AB| = Y, |AC| = Z; None when the apex leaves Q(sqrt3)^2."""
    xa = (X * X + Y * Y - Z * Z) / (2 * X)
    ya = (Y * Y - xa * xa).sqrt()
    return None if ya is None else (pt(0, 0), pt(X, 0), pt(xa, ya))


@pytest.mark.parametrize("tile, sides", REFERENCE_TARGETS + BENCHMARK_TARGETS)
def test_vertices_and_area_match_the_side_formulas(tile, sides):
    sides = _exact_sides(sides)
    X, Y, Z = sorted(sides, reverse=True)
    want = _apex_vertices(X, Y, Z)
    if want is None:
        # an irrational apex height makes the area irrational too
        assert _heron_area(X, Y, Z) is None
        with pytest.raises(ConstraintError, match="target apex is not representable"):
            target_vertices(X, Y, Z)
        return
    assert target_vertices(X, Y, Z) == want
    try:
        tri = triangle_spec(tile, sides)
    except ConstraintError:
        return
    assert tri.vertices() == want
    assert area_count(tile, tri) == _heron_area(X, Y, Z) / tile.area
