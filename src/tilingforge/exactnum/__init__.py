"""Exact number arithmetic: rationals, Q(sqrt3), cyclotomics."""

from .qfield import (
    SQRT3,
    QRoot3,
    order_keys,
    qr3_sign,
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

__all__ = [
    "QRoot3",
    "SQRT3",
    "order_keys",
    "qr3_sign",
    "rational_sqrt",
    "rat_to_str",
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
