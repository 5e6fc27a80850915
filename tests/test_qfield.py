from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilingforge.exactnum import (
    SQRT3,
    QRoot3,
    order_keys,
    qr3_sign,
    rat_to_str,
    rational_sqrt,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


def qroot3s():
    return st.builds(QRoot3, rationals, rationals)


def test_sign_cases():
    assert qr3_sign(QRoot3(2, -1)) == 1       # 4 > 3
    assert qr3_sign(QRoot3(1, -1)) == -1      # 1 < 3
    assert qr3_sign(QRoot3(0, 0)) == 0
    assert qr3_sign(QRoot3(-2, 1)) == -1
    assert qr3_sign(QRoot3(-1, 1)) == 1
    assert qr3_sign(QRoot3(0, Fraction(-1, 7))) == -1


@given(qroot3s())
def test_sign_agrees_with_float(x):
    f = float(x)
    if abs(f) > 1e-6:  # floats can't be trusted near zero; exactness can
        assert qr3_sign(x) == (1 if f > 0 else -1)


@settings(max_examples=300)
@given(qroot3s(), st.one_of(qroot3s(), rationals, st.integers(-50, 50), st.just(None)))
def test_order_matches_sign_of_difference(a, b):
    # b is None: compare a with itself, the tie
    b = a if b is None else b
    s = (a - b).sign()
    assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)
    if not isinstance(b, QRoot3):
        assert (b < a, b > a) == (s > 0, s < 0)  # the reflected comparisons


def test_order_near_ties():
    # 7/4 against sqrt3 and a point of Q(sqrt3) against its neighbours
    for a, b in [(QRoot3(Fraction(7, 4)), SQRT3), (QRoot3(97, -56), QRoot3(0)),
                 (QRoot3(Fraction(1, 3), 2), QRoot3(Fraction(2, 6), 2))]:
        s = (a - b).sign()
        assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)
        assert (b < a, b >= a) == (s > 0, s <= 0)


@settings(max_examples=100)
@given(qroot3s(), qroot3s(), qroot3s())
def test_qroot3_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    if not x.is_zero():
        assert x * x.inverse() == QRoot3(1)


def test_division():
    x = QRoot3(1, 1)
    assert (x / x) == QRoot3(1)
    assert (QRoot3(1) / SQRT3) * SQRT3 == QRoot3(1)
    with pytest.raises(ZeroDivisionError):
        QRoot3(1) / QRoot3(0, 0)


def test_ordering():
    assert SQRT3 > QRoot3(Fraction(17, 10))
    assert SQRT3 < QRoot3(Fraction(18, 10))
    assert QRoot3(5, -2) > QRoot3(2, -1) * QRoot3(2, -1)  # 5-2sqrt3 > 7-4sqrt3
    assert QRoot3(7, -4) < QRoot3(0, Fraction(1, 10))


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(-1)) is None


def test_qroot3_sqrt():
    # (1 + sqrt3)^2 = 4 + 2 sqrt3
    v = QRoot3(4, 2)
    assert v.sqrt() == QRoot3(1, 1)
    assert QRoot3(3, 0).sqrt() == SQRT3
    assert QRoot3(Fraction(3, 4), 0).sqrt() == QRoot3(0, Fraction(1, 2))
    assert QRoot3(12, 0).sqrt() == 2 * SQRT3
    assert QRoot3(2, 0).sqrt() is None
    assert QRoot3(-1, 0).sqrt() is None
    # (675/49) = (15 sqrt3 / 7)^2
    assert QRoot3(Fraction(675, 49), 0).sqrt() == QRoot3(0, Fraction(15, 7))
    # both signs of the discriminant, and the negated root
    assert QRoot3(7, 4).sqrt() == QRoot3(2, 1)
    assert QRoot3(7, -4).sqrt() == QRoot3(2, -1)
    assert QRoot3(4, -2).sqrt() == QRoot3(-1, 1)
    assert QRoot3(2, 1).sqrt() is None  # its root (sqrt6 + sqrt2)/2 lies outside Q(sqrt3)
    assert QRoot3(0).sqrt() == QRoot3(0)


@settings(max_examples=60)
@given(qroot3s())
def test_sqrt_roundtrip(x):
    sq = x * x
    r = sq.sqrt()
    assert r is not None
    assert r * r == sq
    assert r.sign() >= 0


def test_serialization_roundtrip():
    x = QRoot3(Fraction(-3, 7), Fraction(5, 2))
    assert QRoot3.from_json(x.to_json()) == x
    assert Fraction(rat_to_str(Fraction(-22, 7))) == Fraction(-22, 7)
    assert rat_to_str(Fraction(4)) == "4"


@given(qroot3s())
def test_from_json_reads_what_to_json_writes(x):
    assert QRoot3.from_json(x.to_json()) == x


@pytest.mark.parametrize("part, value", [("-3", QRoot3(-3)), ("2/4", QRoot3(Fraction(1, 2))), (7, QRoot3(7)),
                                          ("-0", QRoot3(0)), ("-22/7", QRoot3(Fraction(-22, 7)))])
def test_from_json_accepts_rational_strings_and_integers(part, value):
    assert QRoot3.from_json({"r": part, "s": 0}) == value
    assert QRoot3.from_json({"r": 0, "s": part}) == value * QRoot3(0, 1)


@pytest.mark.parametrize("part", ["1e-300000", "0.5", " 1/2", "1_0", "+1", "1/-2", "1/", "", "1\n", "\u0661",
                                  "1/0", 1.0, True, None])
def test_from_json_rejects_what_rat_to_str_does_not_write(part):
    # Fraction() reads the first five; read by it, the exponent kept the
    # checker busy for tens of seconds
    for obj in ({"r": part, "s": "0"}, {"r": "0", "s": part}):
        with pytest.raises(ValueError, match="not an exact number"):
            QRoot3.from_json(obj)


# ---------------------------------------------------------------------------
# integer order keys against the exact comparison


def _pell(n):
    """(x, y) with x^2 - 3 y^2 = 1 from (2 + sqrt3)^n: x/y is within
    1/(2 sqrt3 y^2) of sqrt3."""
    x, y = 1, 0
    for _ in range(n):
        x, y = 2 * x + 3 * y, x + 2 * y
    return x, y


# sqrt3 against its convergents, and a convergent with numerators of about 300 bits
PELL_300 = _pell(158)
NEAR = [SQRT3, -SQRT3, QRoot3(Fraction(1351, 780)), QRoot3(Fraction(18817, 10864)),
        QRoot3(Fraction(-18817, 10864)), QRoot3(Fraction(*PELL_300)), QRoot3(0),
        QRoot3(Fraction(*PELL_300), -1), QRoot3(Fraction(1, 2**300), Fraction(-1, 3**190))]
big = st.integers(-(2**300), 2**300)


def big_qroot3s():
    return st.builds(lambda n1, n3, den: QRoot3._raw(n1, n3, den), big, big, st.integers(1, 2**300))


def _assert_keys_keep_the_order(values):
    keys = order_keys(values)
    assert len(keys) == len(values) and all(type(k) is int for k in keys)
    for a, ka in zip(values, keys):
        for b, kb in zip(values, keys):
            assert (ka > kb) - (ka < kb) == a._order(b), (a, b)


def test_pell_convergents_are_near_ties():
    x, y = PELL_300
    assert x * x - 3 * y * y == 1 and 290 < x.bit_length() < 310
    assert 0 < (QRoot3(Fraction(x, y)) - SQRT3).sign()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(qroot3s(), big_qroot3s(), st.sampled_from(NEAR)), min_size=1, max_size=12))
def test_order_keys_keep_the_exact_order(values):
    _assert_keys_keep_the_order(values)


@pytest.mark.parametrize("values", [
    NEAR,
    [QRoot3(Fraction(1351, 780)), SQRT3, QRoot3(Fraction(18817, 10864))],
    [SQRT3, SQRT3, QRoot3(0, Fraction(2, 2)), -SQRT3],  # equal values
    [QRoot3(0), QRoot3(0, 0), QRoot3(-1), QRoot3(0, -1)],  # zero and negatives
    [QRoot3(Fraction(-7, 3), 2)],  # one value
    [QRoot3._raw(*PELL_300, 1), QRoot3._raw(PELL_300[0] + 1, PELL_300[1], 1), QRoot3._raw(-PELL_300[0], -PELL_300[1], 1)],
], ids=["near", "convergents", "equal", "zero-and-negative", "one", "300-bit"])
def test_order_keys_on_chosen_lists(values):
    _assert_keys_keep_the_order(values)
    assert order_keys([]) == []


@given(qroot3s())
def test_number_strings_are_the_fraction_parts(x):
    # Fraction's own str is n or n/d in lowest terms, what rat_to_str writes
    r, s = str(Fraction(x.n1, x.den)), str(Fraction(x.n3, x.den))
    assert (r, s) == (rat_to_str(x.r), rat_to_str(x.s))
    assert x.to_json() == {"r": r, "s": s}
    assert repr(x) == (r if x.n3 == 0 else f"{s}*sqrt3" if x.n1 == 0 else f"{r}+{s}*sqrt3")
