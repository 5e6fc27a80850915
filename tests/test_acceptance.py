"""Acceptance criteria, one test (and one printed PASS/FAIL line) each.

Two lemma-lab checks compare the engine against recorded reference lines
that contain errata: the area constant 1/8 - (3/2) a^2 (see the
``verify_minpoly_pi12_area`` docstring) and three coefficient lines of the
first reduction system (see the comment above ``PRINTED_SYSTEM_1``).  Both
checks report the difference rather than adjusting either side, as the
README's "Install and test" section states.  The two ``..._as_recorded``
tests pin that comparison: the recorded values on the expected side, the
exact values on the computed side, no other disagreement, and the computed
side confirmed by an independent route.
"""

import json
import random
import time
from fractions import Fraction
from math import gcd

from click.testing import CliRunner

from tilingforge.cli import main
from tilingforge.constraints import enumerate_vertex_splits, solve_alpha_from_split, triangle_spec
from tilingforge.exactnum import (
    CycloElem,
    GaloisMap,
    QRoot3,
    SQRT3,
    euler_phi,
    galois_apply,
    norm,
    prime_splitting,
    sin_value,
)
from tilingforge.lemmalab import (
    PRINTED_SYSTEM_1,
    reduction_systems,
    run_checks,
    verify_minpoly_pi12_area,
    verify_reduction_first_system,
)
from tilingforge.search import SearchConfig, TilingSearch, check_certificate, resume_from_checkpoint, run_search
from tilingforge.tilealgebra import (
    RelationKind,
    eisenstein_triple,
    relations_for_tile,
    shape_from_relation,
    tile_from_sides,
)

ISO = tile_from_sides(1, 1, SQRT3)
T357 = tile_from_sides(3, 5, 7)


def report(num: int, ok: bool, message: str):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {message}")
    assert ok, f"criterion {num}: {message}"


def test_criterion_1_norm_tables():
    t0 = time.perf_counter()
    res = CliRunner().invoke(main, ["lemmas", "verify", "--id", "norm-table-15,norm-table-9",
                                    "--format", "json"])
    elapsed = time.perf_counter() - t0
    data = json.loads(res.output)
    values = [e["computed"] for c in data for e in c["details"]]
    ok = (
        res.exit_code == 0
        and values == ["1", "25", "25", "-3", "1", "-27", "-3"]
        and all(e["computed"] == e["expected"] for c in data for e in c["details"])
        and elapsed < 5.0
    )
    report(1, ok, f"seven sine-product norms reproduced exactly in {elapsed:.2f}s")


def test_criterion_2_prime_splitting():
    t0 = time.perf_counter()
    ok = prime_splitting(3, 30) == (2, 4, 1) and prime_splitting(3, 18) == (6, 1, 1)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(2, ok, f"(e,f,g) = (2,4,1) at n=30 and (6,1,1) at n=18 in {elapsed:.3f}s")


def test_criterion_3_pi12_algebra():
    t0 = time.perf_counter()
    results = {c.id: c for c in run_checks(["minpoly-pi12", "area-pi12"])}
    elapsed = time.perf_counter() - t0
    ok = (
        results["minpoly-pi12"].status == "pass"
        and results["area-pi12"].status == "pass"
        and elapsed < 1.0
    )
    report(3, ok, f"quartic-ring and tower identities verified exactly in {elapsed:.3f}s "
                  "(see the companion test for the recorded area constant)")


def test_criterion_3_lemma5_area_constant_as_recorded():
    # The recorded constant 1/8 - (3/2) a^2 for a*b/2 is reported verbatim as
    # the expected side, against the exact quartic reduction 1/8 - (1/2) a^2;
    # the chain step 3/2 a^2 - 2 a^4 reduces to the same exact value.
    check = verify_minpoly_pi12_area()
    chain, reference = check.details
    exact = "1/8 + -1/2*a^2"
    # Independent route: evaluate at a = sin(pi/12), b = sin(pi/4) in
    # Q(zeta_24).  The quartic is the minimal polynomial of a, so a
    # reduced polynomial of degree < 4 is fixed by its value there.
    a, b = sin_value(1, 24), sin_value(3, 24)
    half_ab = a * b * Fraction(1, 2)
    ok = (
        check.status == "fail"
        and chain.ok and chain.expected == chain.computed == exact
        and not reference.ok
        and reference.expected == "1/8 + -3/2*a^2"
        and reference.computed == exact
        and half_ab == Fraction(1, 8) - a * a * Fraction(1, 2)
        and half_ab != Fraction(1, 8) - a * a * Fraction(3, 2)
    )
    report(3, ok, "recorded 1/8 - 3/2 a^2 reported as a mismatch with the exact reduction "
                  "1/8 - 1/2 a^2 of a*b/2, confirmed in Q(zeta_24)")


def test_criterion_4_reductions():
    t0 = time.perf_counter()
    s1, s2 = reduction_systems()
    checks = {c.id: c for c in run_checks(["reduction-A-eq-2alpha"])}
    elapsed = time.perf_counter() - t0
    # the spec-pinned coefficients
    ok = (
        s1[0] == {"mp": -2, "np": 1, "mq": 1, "nq": -2, "lr": -3}
        and s1[2] == {"lp": -6, "mp": 4, "mq": -2, "mr": -6, "np": -2, "nq": -2}
        and s2[1] == {"mp": 1, "np": -2, "lq": -3, "mq": -2, "nq": 1, "nr": -3}
        and checks["reduction-A-eq-2alpha"].status == "pass"
        and elapsed < 5.0
    )
    report(4, ok, f"both reductions computed symbolically in {elapsed:.2f}s; "
                  "second system matches all six recorded lines")


def test_criterion_4_first_system_as_recorded():
    # The recorded readings "-1nq", "-3mq" and "+3mq" of slots zeta^2..zeta^4
    # are reported verbatim against the exact "-2nq", "-2mq" and "+2mq";
    # slots zeta^0, zeta^1, zeta^5 and the four consequences agree.
    errata = {  # slot: (recorded line, exact line)
        2: ("-6lp +4mp -2mq -6mr -2np -1nq", "-6lp +4mp -2mq -6mr -2np -2nq"),
        3: ("+6lr +4mp -3mq -2np +4nq", "+6lr +4mp -2mq -2np +4nq"),
        4: ("-6lr -4mp +3mq +2np -4nq", "-6lr -4mp +2mq +2np -4nq"),
    }
    check = verify_reduction_first_system()
    by_name = {e.name: e for e in check.details}
    mismatched = [e.name for e in check.details if not e.ok]
    ok = (
        check.status == "fail"
        and len(check.details) == 10
        and mismatched == [f"coefficient of zeta^{t}" for t in errata]
    )
    for t, (recorded, exact) in errata.items():
        entry = by_name[f"coefficient of zeta^{t}"]
        ok = ok and entry.expected == recorded and entry.computed == exact

    # Independent route: the record's own relations zeta^2 = -2 zeta^5,
    # zeta^3 = -2 zeta^0 and zeta^4 = -zeta^3, applied to its well-formed
    # lines zeta^0 and zeta^5, give the engine's slots, not the readings.
    def scaled(table, k):
        return {key: k * v for key, v in table.items()}

    derived = {2: scaled(PRINTED_SYSTEM_1[5], -2), 3: scaled(PRINTED_SYSTEM_1[0], -2)}
    derived[4] = scaled(derived[3], -1)
    s1, _ = reduction_systems()
    for t in errata:
        ok = ok and derived[t] == s1[t] and derived[t] != PRINTED_SYSTEM_1[t]
    report(4, ok, "recorded first-system lines -1nq (zeta^2), -3mq (zeta^3) and +3mq (zeta^4) "
                  "reported as mismatches with the exact -2nq, -2mq and +2mq, which the "
                  "record's own relations confirm")


def test_criterion_5_vertex_splitting_table():
    t0 = time.perf_counter()
    ok = (
        solve_alpha_from_split(0, 4, 0) == Fraction(1, 12)
        and solve_alpha_from_split(1, 4, 0) == Fraction(1, 9)
        and solve_alpha_from_split(0, 5, 0) == Fraction(2, 15)
    )
    for (p, q, r) in ((0, 4, 0), (1, 4, 0), (0, 5, 0)):
        alpha = solve_alpha_from_split(p, q, r)
        ok = ok and any(v.as_tuple() == (p, q, r) for v in enumerate_vertex_splits(alpha))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    report(5, ok, f"splitting table pi/12, pi/9, 2pi/15 reproduced in {elapsed:.3f}s")


def test_criterion_6_shape_determination():
    t0 = time.perf_counter()
    ok = shape_from_relation(Fraction(1), Fraction(0)) == QRoot3(0, Fraction(1, 3))
    ok = ok and shape_from_relation(Fraction(5, 3), Fraction(0)) == QRoot3(Fraction(3, 7))
    ok = ok and shape_from_relation(Fraction(0), Fraction(5, 7)) == QRoot3(Fraction(3, 7))
    rng = random.Random(2024)
    count = 0
    while count < 50:
        m, n = rng.randint(2, 12), rng.randint(1, 11)
        if not (m > n and gcd(m, n) == 1):
            continue
        count += 1
        a, b, c = eisenstein_triple(m, n)
        t = tile_from_sides(a, b, c)
        x = (t.a / t.c).as_rational()
        ta, tb, tc = (v.as_rational() for v in (t.a, t.b, t.c))
        ok = ok and shape_from_relation(Fraction(tb, ta), Fraction(0)) == QRoot3(x)
        ok = ok and shape_from_relation(Fraction(0), Fraction(tb, tc)) == QRoot3(x)
        for rel in relations_for_tile(t, max_j=4):
            if rel.kind is RelationKind.B_SIDE:
                lam, mu = rel.lam_mu()
                ok = ok and shape_from_relation(lam, mu) == QRoot3(x)
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(6, ok, f"shape roots and 50-triple relation/shape roundtrip in {elapsed:.2f}s")


def test_criterion_7_search_positive_controls():
    t0 = time.perf_counter()
    out3 = run_search(ISO, triangle_spec(ISO, [SQRT3] * 3), SearchConfig())
    t3 = time.perf_counter() - t0
    ok = out3.status == "found" and out3.certificate.n == 3 and t3 < 1.0
    ok = ok and check_certificate(out3.certificate) == []

    t0 = time.perf_counter()
    out4 = run_search(T357, triangle_spec(T357, [QRoot3(6), QRoot3(10), QRoot3(14)]), SearchConfig())
    t4 = time.perf_counter() - t0
    ok = ok and out4.status == "found" and out4.certificate.n == 4 and t4 < 10.0
    ok = ok and check_certificate(out4.certificate) == []

    t0 = time.perf_counter()
    out12 = run_search(ISO, triangle_spec(ISO, [2 * SQRT3] * 3), SearchConfig())
    t12 = time.perf_counter() - t0
    ok = ok and out12.status == "found" and out12.certificate.n == 12 and t12 < 300.0
    ok = ok and check_certificate(out12.certificate) == []
    report(7, ok, f"controls N=3 ({t3:.2f}s), N=4 ({t4:.2f}s), N=12 ({t12:.2f}s) "
                  "found and independently checked")


def test_criterion_8_probe_trichotomy(tmp_path):
    tri = triangle_spec(T357, [QRoot3(15)] * 3)
    budget = 10**8

    # outcome under the stated budget: the tree exhausts unconditionally
    full = run_search(T357, tri, SearchConfig(node_budget=budget))
    ok = full.status in ("found", "exhausted", "budget")
    if full.status == "found":
        ok = ok and check_certificate(full.certificate) == []
    if full.status == "exhausted":
        ok = ok and not full.stats.conditional_on_paper_lemmas

    # the budget branch with a resumable checkpoint, demonstrated at a
    # budget small enough to trip on this instance
    ck = str(tmp_path / "probe.ck.json")
    small = TilingSearch(T357, tri, SearchConfig(node_budget=100, checkpoint_path=ck)).run()
    ok = ok and small.status == "budget" and small.checkpoint_path == ck
    resumed = resume_from_checkpoint(ck, SearchConfig(node_budget=budget, checkpoint_path=ck))
    ok = ok and resumed.status == full.status and resumed.stats.nodes == full.stats.nodes
    report(8, ok, f"probe outcome '{full.status}' ({full.stats.nodes} nodes, unconditional), "
                  "budget branch resumable and consistent")


def test_criterion_9_property_suites():
    t0 = time.perf_counter()
    rng = random.Random(777)
    ok = True
    # norm multiplicativity, 100 pairs per n
    for n in (18, 24, 30):
        phi = euler_phi(n)
        for _ in range(100):
            x = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(phi)))
            y = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(phi)))
            ok = ok and norm(x * y) == norm(x) * norm(y)
    # galois composition
    for n in (18, 24, 30):
        units = [j for j in range(1, n) if gcd(j, n) == 1]
        for _ in range(50):
            j, k = rng.choice(units), rng.choice(units)
            x = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))))
            lhs = galois_apply(galois_apply(x, GaloisMap(n, k)), GaloisMap(n, j))
            ok = ok and lhs == galois_apply(x, GaloisMap(n, (j * k) % n))
    # cosine-ratio identity on 50 random triples
    count = 0
    while count < 50:
        m, n_ = rng.randint(2, 12), rng.randint(1, 11)
        if not (m > n_ and gcd(m, n_) == 1):
            continue
        count += 1
        t = tile_from_sides(*eisenstein_triple(m, n_))
        a, b = t.a.as_rational(), t.b.as_rational()
        ok = ok and (t.cos_alpha / t.cos_beta).as_rational() == Fraction(a + 2 * b, 2 * a + b)
    # float cross-check of cyclotomic arithmetic within 1e-9
    for n in (18, 24, 30):
        for _ in range(25):
            x = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))))
            y = CycloElem(n, tuple(Fraction(rng.randint(-3, 3)) for _ in range(euler_phi(n))))
            got = (x * y).to_complex()
            expect = x.to_complex() * y.to_complex()
            ok = ok and abs(got - expect) <= 1e-9 * max(1.0, abs(expect))
    elapsed = time.perf_counter() - t0
    report(9, ok, f"norm multiplicativity, Galois composition, cosine-ratio and "
                  f"float cross-checks all exact in {elapsed:.1f}s")
