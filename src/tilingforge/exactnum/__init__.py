"""Exact number arithmetic: rationals, Q(sqrt3), cyclotomics."""

from fractions import Fraction

from .qfield import (
    QR3_ONE,
    QR3_ZERO,
    SQRT3,
    QRoot3,
    qr3_sign,
    rat_from_str,
    rat_to_str,
    rational_sqrt,
)
from .cyclo import (
    CycloElem,
    GaloisMap,
    cyclo_reduce,
    cyclotomic_poly,
    galois_apply,
    norm,
    poly_divmod,
    poly_mul,
    sin_as_cyclo,
    sin_value,
)
from .numth import euler_phi, is_prime, multiplicative_order, niven_classify, prime_splitting

Rational = Fraction

__all__ = [
    "Rational",
    "QRoot3",
    "QR3_ZERO",
    "QR3_ONE",
    "SQRT3",
    "qr3_sign",
    "rational_sqrt",
    "rat_to_str",
    "rat_from_str",
    "CycloElem",
    "GaloisMap",
    "cyclotomic_poly",
    "cyclo_reduce",
    "sin_as_cyclo",
    "sin_value",
    "galois_apply",
    "norm",
    "poly_divmod",
    "poly_mul",
    "euler_phi",
    "is_prime",
    "multiplicative_order",
    "niven_classify",
    "prime_splitting",
]
