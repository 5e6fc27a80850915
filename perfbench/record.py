"""Record the benchmark's fixed data from the current code.

    python3 perfbench/record.py

writes `perfbench/pins.json` (the outcome of every workload item) and
`perfbench/data/replay.json.gz` (kernel inputs sampled from one
deep-357-30 pass, plus the N=75 isosceles certificate, each with its
result).  Both were recorded once, on the commit that added the benchmark;
re-recording on a later commit would pin that commit's behaviour instead,
so do it only when an outcome is meant to change.
"""

from __future__ import annotations

import gzip
import json
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import replay  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tilingforge.exactnum import QRoot3  # noqa: E402
from tilingforge.search import SearchConfig, run_search  # noqa: E402
from tilingforge.tilealgebra import tile_from_sides  # noqa: E402
from tilingforge.cli import parse_sides, parse_target  # noqa: E402

SAMPLES = {"add": 2000, "mul": 2000, "sign": 2000, "orientation": 2000,
           "point_in_polygon": 400, "tile_fits_in_region": 120, "subtract_triangle": 120}


class Reservoir:
    """Uniform sample of fixed size from a stream (Algorithm R), seeded."""

    def __init__(self, size, rng):
        self.size, self.rng, self.seen, self.items = size, rng, 0, []

    def offer(self, make):
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(make())
        else:
            j = self.rng.randrange(self.seen)
            if j < self.size:
                self.items[j] = make()


def record_kernels(tmp):
    rng = random.Random(1206)
    res = {k: Reservoir(n, rng) for k, n in SAMPLES.items()}
    patcher = tracing.Patcher(tracing.program_modules([workloads]))

    def binary(key):
        def make(fn):
            def rec(a, b):
                out = fn(a, b)
                if isinstance(b, QRoot3):
                    res[key].offer(lambda: [replay.enc_q(a), replay.enc_q(b), replay.enc_q(out)])
                return out
            return rec
        return make

    def sampled(key, encode):
        def make(fn):
            def rec(*args):
                out = fn(*args)
                res[key].offer(lambda: encode(args, out))
                return out
            return rec
        return make

    try:
        patcher.method(QRoot3, "__add__", binary("add"))
        patcher.method(QRoot3, "__mul__", binary("mul"))
        patcher.function("tilingforge.exactnum.qfield", "qr3_sign",
                         sampled("sign", lambda a, out: [replay.enc_q(a[0]), out]))
        patcher.function("tilingforge.geometry", "orientation",
                         sampled("orientation", lambda a, out: [[replay.enc_p(p) for p in a], out]))
        patcher.function("tilingforge.geometry", "point_in_polygon",
                         sampled("point_in_polygon",
                                 lambda a, out: [replay.enc_p(a[0]), replay.enc_poly(a[1]), out]))
        patcher.function("tilingforge.search.placements", "tile_fits_in_region",
                         sampled("tile_fits_in_region",
                                 lambda a, out: [replay.enc_poly(a[0].vertices), replay.enc_poly(a[1]), out]))
        patcher.function("tilingforge.search.region", "subtract_triangle",
                         sampled("subtract_triangle",
                                 lambda a, out: [replay.enc_poly(a[0].vertices), replay.enc_poly(a[1]),
                                                 replay.poly_keys(out)]))
        if patcher.missed_sites():
            raise RuntimeError(f"unpatched: {patcher.missed_sites()}")
        for item in workloads.WORKLOADS["deep-357-30"]:
            item.run(tmp)
    finally:
        patcher.restore()
    data = {k: r.items for k, r in res.items()}
    data["seen"] = {k: r.seen for k, r in res.items()}
    tile = tile_from_sides(*parse_sides("1,1,sqrt3"))
    out = run_search(tile, parse_target("equilateral:5*sqrt3", tile), SearchConfig())
    data["certificate"] = out.certificate.to_json()
    return data


def main():
    tmp = Path(tempfile.mkdtemp(dir=HERE))
    try:
        pins = {name: {item.name: item.run(tmp).outcome for item in items}
                for name, items in workloads.WORKLOADS.items()}
        (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
        data = record_kernels(tmp)
    finally:
        shutil.rmtree(tmp)
    (HERE / "data").mkdir(exist_ok=True)
    raw = json.dumps(data, separators=(",", ":"), sort_keys=True).encode()
    with open(HERE / "data" / "replay.json.gz", "wb") as fh:
        with gzip.GzipFile(fileobj=fh, mode="wb", mtime=0, filename="") as gz:
            gz.write(raw)
    print(json.dumps({k: len(v) if isinstance(v, list) else v for k, v in data.items()
                      if k != "certificate"}))


if __name__ == "__main__":
    main()
