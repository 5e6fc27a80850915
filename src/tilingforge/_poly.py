"""Dense univariate polynomial helpers over the rationals.

Polynomials are tuples of Fractions, constant term first; () is the zero
polynomial and the leading coefficient of a nonzero polynomial is nonzero.
Just enough machinery for cyclotomic polynomials and quotient-ring work:
add, multiply, exact/euclidean division.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

Poly = tuple[Fraction, ...]


def make(coeffs: Iterable) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def one() -> Poly:
    return (Fraction(1),)


def x_pow(k: int) -> Poly:
    return make([0] * k + [1])


def add(p: Poly, q: Poly) -> Poly:
    n = max(len(p), len(q))
    return make([(p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0) for i in range(n)])


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return make(out)


def divmod_poly(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Euclidean division; exact over the rationals."""
    if not den:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    r = list(num)
    ddeg, dlead = len(den) - 1, den[-1]
    while len(r) >= len(den) and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(den):
            break
        shift = len(r) - len(den)
        factor = r[-1] / dlead
        q[shift] = factor
        for i, c in enumerate(den):
            r[shift + i] -= factor * c
        r.pop()
    return make(q), make(r)


def div_exact(num: Poly, den: Poly) -> Poly:
    q, r = divmod_poly(num, den)
    if r:
        raise ValueError("division is not exact")
    return q


def int_coeffs(p: Poly) -> tuple[int, ...]:
    out = []
    for c in p:
        if c.denominator != 1:
            raise ValueError(f"non-integer coefficient {c}")
        out.append(c.numerator)
    return tuple(out)
