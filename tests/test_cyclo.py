import math
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from tilingforge.exactnum import (
    CycloElem,
    GaloisMap,
    cyclo_reduce,
    cyclotomic_poly,
    euler_phi,
    galois_apply,
    norm,
    poly_divmod,
    sin_as_cyclo,
    sin_value,
)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)                      # x - 1
    assert cyclotomic_poly(18) == (1, 0, 0, -1, 0, 0, 1)      # x^6 - x^3 + 1
    assert cyclotomic_poly(30) == (1, 1, 0, -1, -1, -1, 0, 1, 1)


# Phi_105 is the first cyclotomic polynomial with a coefficient of -2
@pytest.mark.parametrize("n", list(range(1, 37)) + [60, 84, 105])
def test_cyclotomic_poly_against_sympy(n):
    x = sympy.symbols("x")
    ours = sympy.Poly(list(reversed(cyclotomic_poly(n))), x)
    assert ours == sympy.Poly(sympy.cyclotomic_poly(n, x), x)


coefficients = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=20),
)


@given(st.lists(coefficients, max_size=12), st.lists(coefficients, max_size=6))
def test_poly_divmod_against_sympy(num, den_low):
    den = den_low + [1]  # monic
    quot, rem = poly_divmod(num, den)
    assert len(rem) == len(den) - 1
    x = sympy.symbols("x")

    def as_poly(coeffs):
        return sympy.Poly(list(reversed([sympy.Rational(c) for c in coeffs])) or [0], x, domain="QQ")

    want_q, want_r = sympy.div(as_poly(num), as_poly(den))
    assert as_poly(quot) == want_q
    assert as_poly(rem) == want_r
    if all(isinstance(c, int) for c in num + den):
        assert all(isinstance(c, int) for c in quot + rem)


def test_degree_is_phi():
    for n in (7, 12, 18, 24, 30):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
        assert len(CycloElem.one(n).coeffs) == euler_phi(n)


def test_cyclo_reduce_examples():
    # x^6 mod Phi_18 = x^3 - 1
    e = cyclo_reduce([0, 0, 0, 0, 0, 0, 1], 18)
    assert e == CycloElem(18, tuple(Fraction(c) for c in (-1, 0, 0, 1, 0, 0)))
    # x^18 mod Phi_18 = 1
    assert cyclo_reduce([0] * 18 + [1], 18) == CycloElem.one(18)
    # x^8 mod Phi_30 = -x^7 + x^5 + x^4 + x^3 - x - 1
    e = cyclo_reduce([0] * 8 + [1], 30)
    assert e == CycloElem(30, tuple(Fraction(c) for c in (-1, -1, 0, 1, 1, 1, 0, -1)))


def test_sin_as_cyclo():
    assert sin_as_cyclo(0, 12).is_zero()
    assert sin_as_cyclo(2, 30) == CycloElem.zeta_pow(30, 2) - CycloElem.zeta_pow(30, 28)
    got = sin_as_cyclo(2, 30).to_complex()
    expected = 2j * math.sin(2 * math.pi / 15)
    assert abs(got - expected) < 1e-9


def test_sin_value_is_the_real_sine():
    for m in range(24):
        got = sin_value(m, 24).to_complex()
        assert abs(got - math.sin(2 * math.pi * m / 24)) < 1e-12, m


def test_sin_value_needs_i_in_the_field():
    with pytest.raises(ValueError):
        sin_value(1, 18)


def test_galois_examples():
    z = CycloElem.zeta_pow(24, 1)
    assert galois_apply(z, GaloisMap(24, 5)) == CycloElem.zeta_pow(24, 5)
    # sigma_5 negates 2i sin(pi/4) in Q(zeta_24)
    sb = sin_as_cyclo(3, 24)
    assert galois_apply(sb, GaloisMap(24, 5)) == -sb
    # sigma_5 fixes i = zeta^6
    i = CycloElem.zeta_pow(24, 6)
    assert galois_apply(i, GaloisMap(24, 5)) == i


def test_galois_rejects_noncoprime():
    with pytest.raises(ValueError):
        GaloisMap(24, 6)
    with pytest.raises(ValueError):
        galois_apply(CycloElem.one(18), GaloisMap(24, 5))


def test_galois_is_homomorphism_and_composes():
    rng = random.Random(7)
    for n in (18, 24, 30):
        units = [j for j in range(1, n) if gcd(j, n) == 1]
        for _ in range(25):
            x = CycloElem(n, tuple(Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(n))))
            y = CycloElem(n, tuple(Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(n))))
            j, k = rng.choice(units), rng.choice(units)
            g, h = GaloisMap(n, j), GaloisMap(n, k)
            assert galois_apply(x * y, g) == galois_apply(x, g) * galois_apply(y, g)
            assert galois_apply(x + y, g) == galois_apply(x, g) + galois_apply(y, g)
            assert galois_apply(galois_apply(x, h), g) == galois_apply(x, GaloisMap(n, j * k % n))
        x = CycloElem(n, tuple(Fraction(rng.randint(-4, 4)) for _ in range(euler_phi(n))))
        assert galois_apply(x, GaloisMap(n, 1)) == x


def test_norm_paper_table_values():
    # Galois-product norms; the printed-table convention differs by
    # (-1)^(phi(n)/2) and is exercised in the identity-check suite.
    assert norm(sin_as_cyclo(2, 30)) == 1     # 2i sin(2pi/15) is a unit
    assert norm(sin_as_cyclo(3, 30)) == 25    # 2i sin(pi/5)
    assert norm(sin_as_cyclo(9, 30)) == 25    # 2i sin(3pi/5)
    assert norm(sin_as_cyclo(1, 18)) == 3     # 2i sin(pi/9)
    assert norm(sin_as_cyclo(3, 18)) == 27    # 2i sin(pi/3)
    assert norm(sin_as_cyclo(5, 18)) == 3     # 2i sin(5pi/9)


def test_norm_multiplicative_and_integral():
    rng = random.Random(12345)
    for n in (18, 24, 30):
        phi = euler_phi(n)
        for _ in range(100):
            x = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(phi)))
            y = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(phi)))
            nx, ny, nxy = norm(x), norm(y), norm(x * y)
            assert nxy == nx * ny
            assert nx.denominator == 1  # integral on Z[zeta]


def test_norm_numeric_crosscheck():
    # |norm| should match the product of |conjugate| evaluations
    for m, n in [(2, 30), (3, 30), (1, 18), (3, 18)]:
        x = sin_as_cyclo(m, n)
        prod = 1.0 + 0j
        for j in range(1, n):
            if gcd(j, n) == 1:
                prod *= galois_apply(x, GaloisMap(n, j)).to_complex()
        assert abs(prod - complex(norm(x))) < 1e-6


def test_mixed_order_rejected():
    with pytest.raises(ValueError):
        CycloElem.one(18) + CycloElem.one(30)


def test_float_evaluation_of_random_products():
    rng = random.Random(99)
    for n in (18, 24, 30):
        phi = euler_phi(n)
        for _ in range(20):
            x = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(phi)))
            y = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(phi)))
            lhs = (x * y).to_complex()
            rhs = x.to_complex() * y.to_complex()
            assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))


@pytest.mark.parametrize("n", [5, 7, 9])
def test_products_reduce_exponents_past_n(n):
    # for these n, 2*phi(n) - 2 >= n, so a product of two elements has
    # exponents that wrap around zeta^n = 1
    for k in range(n):
        for m in range(n):
            assert CycloElem.zeta_pow(n, k) * CycloElem.zeta_pow(n, m) == CycloElem.zeta_pow(n, k + m)
    assert CycloElem.zeta_pow(n, n - 1) * CycloElem.zeta_pow(n, n - 1) == CycloElem.zeta_pow(n, n - 2)
    assert norm(CycloElem.zeta_pow(n, n - 1)) == 1
    x = CycloElem(n, tuple(Fraction(e + 1) for e in range(euler_phi(n))))
    assert abs((x * x).to_complex() - x.to_complex() ** 2) < 1e-9


def test_repr_omits_unit_coefficients():
    assert repr(CycloElem.zeta_pow(12, 3)) == "Cyclo(n=12: z^3)"
    assert repr(CycloElem.zeta_pow(12, 1) * 2 + 1) == "Cyclo(n=12: 1 + 2*z)"
