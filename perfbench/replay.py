"""Replay microbenchmarks of single kernels on recorded inputs.

`data/replay.json.gz` holds inputs sampled from one deep-357-30 pass
(QRoot3 operand pairs, sign operands, orientation triples,
point-in-polygon queries, regions with candidate triangles for the fit
test and for subtraction) and the N=75 isosceles certificate, each with
the result the seed commit computed (see `record.py`).  Every replay
compares every result with the recorded one, so a kernel change that flips
a decision fails instead of looking faster.
"""

from __future__ import annotations

import gzip
import json
import operator
import statistics
import time
from fractions import Fraction
from pathlib import Path

import calibrate
from tilingforge.exactnum import QRoot3, qr3_sign
from tilingforge.geometry import Point, orientation, point_in_polygon
from tilingforge.search import Certificate, Polygon, check_certificate, subtract_triangle
from tilingforge.search.placements import tile_fits_in_region

DATA = Path(__file__).resolve().parent / "data" / "replay.json.gz"


# -- exact values as JSON ------------------------------------------------------

def enc_q(x: QRoot3) -> list:
    return [x.n1, x.n3, x.den]


def dec_q(v) -> QRoot3:
    return QRoot3(Fraction(v[0], v[2]), Fraction(v[1], v[2]))


def enc_p(p: Point) -> list:
    return enc_q(p.x) + enc_q(p.y)


def dec_p(v) -> Point:
    return Point(dec_q(v[:3]), dec_q(v[3:]))


def enc_poly(vertices) -> list:
    return [enc_p(p) for p in vertices]


def dec_poly(v) -> tuple:
    return tuple(dec_p(p) for p in v)


def poly_keys(polys) -> list:
    """Comparable form of subtract_triangle's output."""
    return [[p.lex_key() for p in poly.vertices] for poly in polys]


# -- kernels --------------------------------------------------------------------

def _kernels(data):
    """(metric, scale to the metric's unit, function, argument tuples,
    expected results, normaliser of a result)."""
    def ops(key):
        return [(dec_q(a), dec_q(b)) for a, b, _ in data[key]], [dec_q(r) for _, _, r in data[key]]

    add_args, add_want = ops("add")
    mul_args, mul_want = ops("mul")
    yield "exactnum.add.ns", 1e9, operator.add, add_args, add_want, None
    yield "exactnum.mul.ns", 1e9, operator.mul, mul_args, mul_want, None
    yield ("exactnum.sign.ns", 1e9, qr3_sign, [(dec_q(x),) for x, _ in data["sign"]],
           [s for _, s in data["sign"]], None)
    yield ("geometry.orientation.ns", 1e9, orientation,
           [tuple(dec_p(p) for p in pts) for pts, _ in data["orientation"]],
           [s for _, s in data["orientation"]], None)
    yield ("geometry.point_in_polygon.ns", 1e9, point_in_polygon,
           [(dec_p(p), dec_poly(poly)) for p, poly, _ in data["point_in_polygon"]],
           [r for _, _, r in data["point_in_polygon"]], None)
    yield ("placements.tile_fits_in_region.ns", 1e9, tile_fits_in_region,
           [(Polygon(dec_poly(reg)), dec_poly(tri)) for reg, tri, _ in data["tile_fits_in_region"]],
           [r for _, _, r in data["tile_fits_in_region"]], None)
    yield ("region.subtract_triangle.ns", 1e9, subtract_triangle,
           [(Polygon(dec_poly(reg)), dec_poly(tri)) for reg, tri, _ in data["subtract_triangle"]],
           [[[tuple(k) for k in poly] for poly in out] for _, _, out in data["subtract_triangle"]],
           poly_keys)
    yield ("certificate.check_certificate.ms", 1e3, check_certificate,
           [(Certificate.from_json(data["certificate"]),)], [[]],
           lambda violations: [str(v) for v in violations])


def run_replays(rng, seconds_each):
    """Time every kernel for about `seconds_each` (at least one round) and
    return ({metric: median time per call at reference host speed},
    {metric: results that differ from the recorded ones})."""
    with gzip.open(DATA, "rt") as fh:
        data = json.load(fh)
    metrics, mismatches = {}, {}
    for metric, scale, fn, args, want, norm in _kernels(data):
        order = list(range(len(args)))
        rng.shuffle(order)
        args = [args[i] for i in order]
        want = [want[i] for i in order]
        rounds, bad = [], 0
        with calibrate.Speedometer() as speedometer:
            end = time.perf_counter() + seconds_each
            while True:
                t0 = time.perf_counter()
                got = [fn(*a) for a in args]
                rounds.append((t0, time.perf_counter()))
                if norm is not None:
                    got = [norm(g) for g in got]
                bad += sum(g != w for g, w in zip(got, want))
                if time.perf_counter() >= end:
                    break
        per_call = [speedometer.reference_s(t0, t1) / len(args) for t0, t1 in rounds]
        metrics[metric] = statistics.median(per_call) * scale
        mismatches[metric] = bad
    return metrics, mismatches
