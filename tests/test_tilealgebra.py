import math
import random
from fractions import Fraction

import pytest

from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.tilealgebra import (
    EdgeRelation,
    QuadraticSurd,
    RelationKind,
    TileError,
    classify_tile,
    cos_ratio,
    eisenstein_triple,
    find_eisenstein_parameters,
    relation_from_shape,
    relations_for_tile,
    shape_from_relation,
    shape_root_satisfies_quadratic,
    side_ratio_pair,
    tile_from_sides,
)

T357 = tile_from_sides(3, 5, 7)
ISO = tile_from_sides(1, 1, SQRT3)


def test_tile_357():
    assert T357.cos_alpha == QRoot3(Fraction(13, 14))
    assert T357.cos_beta == QRoot3(Fraction(11, 14))
    assert T357.area == QRoot3(0, Fraction(15, 4))


def test_tile_isosceles():
    assert ISO.cos_alpha == QRoot3(0, Fraction(1, 2))
    assert ISO.cos_beta == QRoot3(0, Fraction(1, 2))
    assert ISO.area == QRoot3(0, Fraction(1, 4))


def test_tile_rejections():
    with pytest.raises(TileError):
        tile_from_sides(3, 5, 6)
    with pytest.raises(TileError):
        tile_from_sides(-3, 5, 7)
    with pytest.raises(TileError):
        tile_from_sides(0, 5, 7)


def test_tile_canonical_order():
    t = tile_from_sides(8, 7, 13)  # eisenstein_triple(3, 1), unordered
    assert (t.a, t.b) == (QRoot3(7), QRoot3(8))


def test_eisenstein_triples():
    assert eisenstein_triple(2, 1) == (3, 5, 7)
    assert eisenstein_triple(3, 1) == (8, 7, 13)
    assert eisenstein_triple(3, 2) == (5, 16, 19)
    for (a, b, c) in (eisenstein_triple(2, 1), eisenstein_triple(3, 1), eisenstein_triple(3, 2)):
        assert c * c == a * a + b * b + a * b
    with pytest.raises(ValueError):
        eisenstein_triple(1, 1)
    with pytest.raises(ValueError):
        eisenstein_triple(4, 2)


def _random_eisenstein(rng):
    while True:
        m = rng.randint(2, 12)
        n = rng.randint(1, m - 1)
        try:
            return eisenstein_triple(m, n)
        except ValueError:
            continue


def test_law_of_cosines_invariant_random():
    rng = random.Random(4)
    for _ in range(50):
        a, b, c = _random_eisenstein(rng)
        t = tile_from_sides(a, b, c)
        assert (t.c * t.c - t.a * t.a - t.b * t.b - t.a * t.b).is_zero()
        assert t.area > QRoot3(0)
        if t.a < t.b:
            assert t.cos_alpha > t.cos_beta


def test_shape_from_relation_examples():
    assert shape_from_relation(Fraction(1), Fraction(0)) == QRoot3(0, Fraction(1, 3))
    assert shape_from_relation(Fraction(5, 3), Fraction(0)) == QRoot3(Fraction(3, 7))
    assert shape_from_relation(Fraction(0), Fraction(5, 7)) == QRoot3(Fraction(3, 7))


def test_shape_from_relation_surd():
    # lam = 1/2, mu = 1/3: disc is neither square nor 3*square
    x = shape_from_relation(Fraction(1, 2), Fraction(1, 3))
    assert isinstance(x, QuadraticSurd)
    assert shape_root_satisfies_quadratic(x, Fraction(1, 2), Fraction(1, 3))
    assert 0 < x.to_float() < 1


def test_shape_from_relation_errors():
    with pytest.raises(ValueError):
        shape_from_relation(Fraction(0), Fraction(0))
    with pytest.raises(TileError):
        shape_from_relation(Fraction(1), Fraction(1))


def test_shape_substitution_always_zero():
    rng = random.Random(11)
    for _ in range(30):
        lam = Fraction(rng.randint(0, 8), rng.randint(1, 5))
        mu = Fraction(rng.randint(0, 4), rng.randint(5, 9))
        if (lam, mu) == (0, 0):
            continue
        x = shape_from_relation(lam, mu)
        assert shape_root_satisfies_quadratic(x, lam, mu)


def test_relation_from_shape_357():
    rels = relation_from_shape(Fraction(3, 7), max_j=4)
    assert EdgeRelation(RelationKind.B_SIDE, 2, 1, 1) in rels   # 2b = a + c
    assert EdgeRelation(RelationKind.A_SIDE, 4, 1, 1) in rels   # 4a = b + c
    for r in rels:
        assert r.holds_for(T357)


def test_relation_from_shape_irrational():
    rels = relation_from_shape(ISO.a / ISO.c, max_j=12)
    b_rels = [r for r in rels if r.kind is RelationKind.B_SIDE]
    assert b_rels == [EdgeRelation(RelationKind.B_SIDE, 1, 1, 0)]  # b = a, nothing else


def _reference_relation_from_shape(x, max_j=12):
    """The former search: j and u over a/c = x and the b/c that
    side_ratio_pair rebuilds with a square root, if it lies in Q(sqrt3)."""
    if isinstance(x, (int, Fraction)):
        x = QRoot3(Fraction(x), 0)
    pair = side_ratio_pair(x)
    rels = []
    y = pair[1] if pair is not None else None
    for j in range(1, max_j + 1):
        for kind, lhs, unit in (
            (RelationKind.B_SIDE, y, x),
            (RelationKind.A_SIDE, x, y),
        ):
            if lhs is None:
                continue
            target = j * lhs
            u = 0
            while True:
                rest = target - u * unit if unit is not None else target
                if unit is not None and rest.sign() < 0:
                    break
                if unit is None and u > 0:
                    break
                if rest.is_rational():
                    v = rest.as_rational()
                    if v.denominator == 1 and v >= 0:
                        g = math.gcd(math.gcd(j, u), int(v))
                        if g == 1:
                            rels.append(EdgeRelation(kind, j, u, int(v)))
                if unit is None:
                    break
                u += 1
    return sorted(set(rels), key=lambda r: (r.kind.value, r.j, r.u, r.v))


def test_relations_match_the_former_square_root_search():
    tiles = [ISO]
    for m in range(2, 20):
        for n in range(1, m):
            if math.gcd(m, n) == 1:
                for k in (QRoot3(1), QRoot3(2), QRoot3(Fraction(1, 2)), SQRT3):
                    tiles.append(tile_from_sides(*(k * s for s in eisenstein_triple(m, n))))
    for t in tiles:
        want = _reference_relation_from_shape(t.a / t.c)
        assert relations_for_tile(t) == want, t
        assert relation_from_shape(t.a / t.c) == want, t
    # b/c leaves Q(sqrt3): only q*a = p*c for a/c = p/q, and only if q <= max_j
    for x, max_j, want in ((QRoot3(Fraction(1, 2)), 12, [EdgeRelation(RelationKind.A_SIDE, 2, 0, 1)]),
                           (QRoot3(Fraction(2, 5)), 12, [EdgeRelation(RelationKind.A_SIDE, 5, 0, 2)]),
                           (QRoot3(Fraction(2, 5)), 4, []),
                           (QRoot3(0, Fraction(1, 4)), 12, [])):
        assert side_ratio_pair(x) is None
        assert _reference_relation_from_shape(x, max_j) == want
        assert relation_from_shape(x, max_j) == want


def test_relation_roundtrip_50_triples():
    # every integer tile carries the relations b = (b/a) a and b = (b/c) c;
    # recovering a/c from either is the relation -> shape -> relation loop
    rng = random.Random(21)
    for i in range(50):
        a, b, c = _random_eisenstein(rng)
        t = tile_from_sides(a, b, c)
        x = (t.a / t.c).as_rational()
        ta, tb, tc = (v.as_rational() for v in (t.a, t.b, t.c))
        for lam, mu in ((Fraction(tb, ta), Fraction(0)), (Fraction(0), Fraction(tb, tc))):
            root = shape_from_relation(lam, mu)
            assert root == QRoot3(x)
        if i < 10:
            for r in relations_for_tile(t, max_j=12):
                if r.kind is RelationKind.B_SIDE:
                    lam, mu = r.lam_mu()
                    assert shape_from_relation(lam, mu) == QRoot3(x)
                elif r.kind is RelationKind.A_SIDE:
                    # same quadratic with the roles of a and b swapped
                    root = shape_from_relation(Fraction(r.u, r.j), Fraction(r.v, r.j))
                    assert root == t.b / t.c


def test_cos_ratio():
    assert cos_ratio(T357) == Fraction(13, 11)
    assert cos_ratio(ISO) == 1
    assert cos_ratio(tile_from_sides(5, 16, 19)) == Fraction(37, 26)


def test_cos_ratio_random():
    rng = random.Random(31)
    for _ in range(50):
        a, b, c = _random_eisenstein(rng)
        t = tile_from_sides(a, b, c)
        assert cos_ratio(t) == Fraction(t.a.as_rational() + 2 * t.b.as_rational(),
                                        2 * t.a.as_rational() + t.b.as_rational())


def test_classify_tile():
    r = classify_tile(T357)
    assert r.integer_similar and not r.alpha_rational_multiple_of_pi
    r = classify_tile(ISO)
    assert not r.integer_similar
    assert r.alpha_rational_multiple_of_pi and r.alpha_over_pi == Fraction(1, 6)
    rng = random.Random(41)
    for _ in range(20):
        t = tile_from_sides(*_random_eisenstein(rng))
        assert classify_tile(t).alpha_rational_multiple_of_pi is False


def test_side_ratio_pair():
    x, y = side_ratio_pair(QRoot3(Fraction(3, 7)))
    assert (x, y) == (QRoot3(Fraction(3, 7)), QRoot3(Fraction(5, 7)))
    # x = 1/2 has b/c = (sqrt13 - 1)/4, outside Q(sqrt3)
    assert side_ratio_pair(QRoot3(Fraction(1, 2))) is None


def test_find_eisenstein_parameters():
    assert find_eisenstein_parameters(3, 5, 7) == (2, 1, Fraction(1))
    assert find_eisenstein_parameters(6, 10, 14) == (2, 1, Fraction(2))
    assert find_eisenstein_parameters(7, 8, 13) == (3, 1, Fraction(1))
    assert find_eisenstein_parameters(1, 2, 3) is None
    # sides given as Fraction or QRoot3 carry their exact scale
    half = Fraction(1, 2)
    assert find_eisenstein_parameters(3 * half, 5 * half, 7 * half) == (2, 1, QRoot3(half))
    assert find_eisenstein_parameters(*(k * SQRT3 for k in (3, 5, 7))) == (2, 1, SQRT3)
    root = QRoot3(1, 1)
    assert find_eisenstein_parameters(*(k * root for k in (7, 8, 13))) == (3, 1, root)
    assert find_eisenstein_parameters(*(k * root for k in (5, 16, 19))) == (3, 2, root)
    m, n, k = find_eisenstein_parameters(6, 10, 14)
    assert isinstance(k, QRoot3) and k == 2
    # (1 + sqrt3) / 1 is irrational: no m : n
    assert find_eisenstein_parameters(1, 1, SQRT3) is None


def test_find_eisenstein_parameters_past_m_60():
    # 125, 3843, 3907 is eisenstein_triple(62, 1)
    assert find_eisenstein_parameters(125, 3843, 3907) == (62, 1, Fraction(1))


def _bounded_eisenstein_search(a, b, c, bound=60):
    """The former search: first (m, n), m < bound, in order, unswapped first."""
    for m in range(2, bound):
        for n in range(1, m):
            if math.gcd(m, n) != 1:
                continue
            ta, tb, tc = eisenstein_triple(m, n)
            for (pa, pb, pc) in ((ta, tb, tc), (tb, ta, tc)):
                if pa * b == pb * a and pa * c == pc * a:
                    return (m, n, Fraction(a, pa))
    return None


def test_find_eisenstein_parameters_matches_bounded_search():
    triples = []
    for m in range(2, 60):
        for n in range(1, m):
            if math.gcd(m, n) == 1:
                ta, tb, tc = eisenstein_triple(m, n)
                triples += [(k * ta, k * tb, k * tc) for k in (1, 2, 3)]
                triples += [(k * tb, k * ta, k * tc) for k in (1, 2, 3)]
    sample = random.Random(16).sample(triples, 300) + [(1, 2, 3), (3, 4, 5), (1, 1, 1), (5, 3, 7)]
    for t in sample:
        assert find_eisenstein_parameters(*t) == _bounded_eisenstein_search(*t), t
