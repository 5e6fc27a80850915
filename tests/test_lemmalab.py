from fractions import Fraction

import pytest
import sympy

from tilingforge.exactnum import CycloElem, sin_value
from tilingforge.lemmalab import (
    CHECKS,
    PRINTED_SYSTEM_1,
    PRINTED_SYSTEM_2,
    _tower_repr,
    reduction_systems,
    run_checks,
    sine_product_value,
    verify_area_pi12,
    verify_minpoly_pi12,
    verify_minpoly_pi12_area,
    verify_norm_table_9,
    verify_norm_table_15,
    verify_prime_splitting_facts,
    verify_reduction_first_system,
    verify_reduction_second_system,
    verify_sigma_actions,
    verify_simpletrig,
)


def test_norm_tables_pass():
    c15 = verify_norm_table_15()
    c9 = verify_norm_table_9()
    assert c15.status == "pass"
    assert c9.status == "pass"
    assert [e.computed for e in c15.details] == ["1", "25", "25"]
    assert [e.computed for e in c9.details] == ["-3", "1", "-27", "-3"]


def test_sine_product_value_convention():
    # table value = Galois-product norm * (-1)^(phi(n)/2)
    from tilingforge.exactnum import norm, sin_as_cyclo

    assert sine_product_value(1, 3, 18) == -norm(sin_as_cyclo(3, 18))
    assert sine_product_value(2, 15, 30) == norm(sin_as_cyclo(2, 30))


def test_prime_splitting_check():
    c = verify_prime_splitting_facts()
    assert c.status == "pass"


def test_minpoly_pi12_identities_pass():
    assert verify_minpoly_pi12().status == "pass"


def test_minpoly_pi12_area_reports_reference_mismatch():
    # the quartic reduction of a*b/2 is 1/8 - a^2/2; the recorded reference
    # constant 1/8 - 3/2 a^2 differs, and the check must say so
    c = verify_minpoly_pi12_area()
    assert c.status == "fail"
    assert c.details[0].ok  # chain step holds
    assert not c.details[1].ok
    assert "1/2" in c.details[0].computed or "1/2" in c.details[0].expected


def test_area_pi12_pass():
    assert verify_area_pi12().status == "pass"


SQRT2_24, SQRT3_24 = 2 * sin_value(3, 24), 2 * sin_value(8, 24)  # 2 sin(pi/4), 2 sin(2pi/3)


@pytest.mark.parametrize("a, b, c, d, text", [
    (0, 0, 0, 0, "0"),
    (1, 0, 0, 0, "1"),
    (0, Fraction(-1, 4), 0, Fraction(1, 4), "-1/4*sqrt2 + 1/4*sqrt6"),
    (Fraction(3, 8), 0, Fraction(-1, 8), 0, "3/8 + -1/8*sqrt3"),
    (-2, Fraction(5, 3), Fraction(-7, 2), 1, "-2 + 5/3*sqrt2 + -7/2*sqrt3 + 1*sqrt6"),
])
def test_tower_repr_round_trip(a, b, c, d, text):
    x = a + b * SQRT2_24 + c * SQRT3_24 + d * (SQRT2_24 * SQRT3_24)
    assert _tower_repr(x) == text


def test_tower_repr_basis_products():
    s2, s3 = SQRT2_24, SQRT3_24
    s6 = s2 * s3
    assert [_tower_repr(v) for v in (s6, s2 * s2, s3 * s3, s6 * s6, s2 * s6, s3 * s6)] == [
        "1*sqrt6", "2", "3", "6", "2*sqrt3", "3*sqrt2"]


@pytest.mark.parametrize("x", [CycloElem.zeta_pow(24, 6), SQRT2_24 + CycloElem.zeta_pow(24, 6) * SQRT3_24,
                               CycloElem.zeta_pow(24, 1)])
def test_tower_repr_rejects_elements_outside_the_real_subfield(x):
    # i, sqrt2 + i*sqrt3, zeta
    with pytest.raises(ValueError):
        _tower_repr(x)


def _sympy_reduction():
    z = sympy.symbols("z")
    p, q, r, m, n, l = sympy.symbols("p q r m n l")
    a = z - z**-1
    b = z**2 - z**-2
    c = z**3 - z**-3
    d = z**4 - z**-4
    U = p * a + q * b + r * c
    V = m * a + n * b + l * c
    Us = p * d - q * a - r * c
    Vs = m * d - n * a - l * c
    out = []
    for expr, power in ((a * U * V - b * Us * Vs, 14), (a * Us * Vs + d * U * V, 16)):
        e = sympy.expand(z**power * expr)
        rem = sympy.rem(sympy.Poly(e, z), sympy.Poly(z**6 - z**3 + 1, z), z)
        rp = sympy.Poly(rem.as_expr(), z)
        tables = []
        for t in range(6):
            coeff = sympy.expand(rp.nth(t))
            table = {}
            terms = coeff.as_ordered_terms() if coeff != 0 else []
            for term in terms:
                cnum, monom = term.as_coeff_Mul()
                key = "".join(sorted(str(s) for s in monom.free_symbols))
                table[key] = table.get(key, 0) + int(cnum)
            tables.append(table)
        out.append(tables)
    return out


def test_reduction_engine_matches_sympy_oracle():
    ours1, ours2 = reduction_systems()
    oracle1, oracle2 = _sympy_reduction()
    assert ours1 == oracle1
    assert ours2 == oracle2


def test_reduction_second_system_passes():
    assert verify_reduction_second_system().status == "pass"


def test_reduction_first_system_spec_coefficients():
    s1, s2 = reduction_systems()
    # the well-formed recorded lines
    assert s1[0] == {"mp": -2, "np": 1, "mq": 1, "nq": -2, "lr": -3}
    assert s2[1] == {"mp": 1, "np": -2, "lq": -3, "mq": -2, "nq": 1, "nr": -3}
    # the consequences used downstream
    diff = {k: s1[0].get(k, 0) - s1[5].get(k, 0) for k in set(s1[0]) | set(s1[5])}
    diff = {k: v for k, v in diff.items() if v}
    assert diff == {"lp": -3, "mr": -3, "nq": -3, "lr": -3}


def test_reduction_first_system_reports_garbled_lines():
    c = verify_reduction_first_system()
    assert c.status == "fail"
    by_name = {e.name: e for e in c.details}
    assert by_name["coefficient of zeta^0"].ok
    assert by_name["coefficient of zeta^1"].ok
    assert by_name["coefficient of zeta^5"].ok
    assert not by_name["coefficient of zeta^2"].ok  # recorded -1 nq, computed -2 nq
    assert by_name["zeta^0 - zeta^5 = -3(lp + mr + nq + lr)"].ok
    assert by_name["zeta^2 = -2 zeta^5"].ok


def test_table_keys_are_sorted_products_of_two_letters():
    # the recorded tables are compared to the computed ones as written, so a
    # key must already be in the computed form: one of p, q, r and one of
    # m, n, l, letters sorted
    products = {"".join(sorted(x + y)) for x in "pqr" for y in "mnl"}
    assert len(products) == 9
    for table in PRINTED_SYSTEM_1 + PRINTED_SYSTEM_2:
        for key in table:
            assert key == "".join(sorted(key)) and key in products, key
    for table in [t for system in reduction_systems() for t in system]:
        assert list(table) == sorted(table) and set(table) <= products


def test_sigma_actions_pass():
    c = verify_sigma_actions()
    assert c.status == "pass", [e for e in c.details if not e.ok]


def test_simpletrig():
    c = verify_simpletrig()
    assert c.status == "pass" and len(c.details) == 7
    # the samples a/b = 1, 3/5 and 5/16 come first
    assert [e.computed for e in c.details[:3]] == ["1", "13/11", "37/26"]


def test_run_checks_ordered_and_filters():
    all_checks = run_checks()
    assert [c.id for c in all_checks] == list(CHECKS)
    sel = run_checks(["norm-table-9", "norm-table-15"])
    assert [c.id for c in sel] == ["norm-table-15", "norm-table-9"]
    with pytest.raises(KeyError):
        run_checks(["nope"])


def test_suite_is_deterministic():
    a = [c.to_json() for c in run_checks()]
    b = [c.to_json() for c in run_checks()]
    assert a == b
