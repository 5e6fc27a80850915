"""tiling-forge benchmark: verdict time and search speed on fixed exact
instances, with a separate traced run for per-layer numbers.

    python3 perfbench/run.py --workload settle-357 --seed 1 --seconds 40 --trace 0

Run from the repository root; the program is imported from ./src.  With
`--trace 0` the workload runs untraced, pass after pass, for about
`--seconds`, and the end-to-end metrics are printed.  With `--trace 1`
untraced and traced passes alternate, the replay microbenchmarks run, and
the per-layer metrics are printed.  Every item's outcome is compared with
`pins.json`; a mismatch counts as a failed item.  Times are at reference
host speed (see calibrate.py).  The last line of stdout is one JSON
object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

PROBES = 5  # set-up probes per run, after one unmeasured warm-up probe
REPLAY_SECONDS = 0.25  # per replay kernel, in --trace 1 runs

clock = time.perf_counter


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def metric(value, unit):
    return {"value": value, "unit": unit}


@dataclass
class Pass:
    """One pass over a workload's items, with its host-speed samples."""

    start: float
    end: float
    results: list
    speedometer: object

    @property
    def raw_s(self):
        return self.end - self.start

    @property
    def ref_s(self):
        return self.speedometer.reference_s(self.start, self.end)

    @property
    def nodes_per_s(self):
        ref = sum(self.speedometer.reference_s(*r.search) for r in self.results)
        return sum(r.nodes for r in self.results) / ref if ref else 0.0

    @property
    def checks_ref_s(self):
        return [self.speedometer.reference_s(*c) for r in self.results for c in r.checks]


class Run:
    """One benchmark process: its workload, pins, scratch directory and the
    tally of attempted and failed items."""

    def __init__(self, workload, seed, tmp):
        self.workload = workload
        self.items = list(workloads.WORKLOADS[workload])
        self.pins = json.loads((HERE / "pins.json").read_text())[workload]
        self.seed = seed
        self.rng = random.Random(seed)
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0

    def fail(self, what):
        self.failed += 1
        log(f"FAIL {self.workload}: {what}")

    def one_pass(self, tracer=None) -> Pass:
        """Run every item once, in a seed-chosen order."""
        order = list(self.items)
        self.rng.shuffle(order)
        results = []

        def body():
            for item in order:
                run_item = item.run if tracer is None else tracer.wrap("bench.item", item.run)
                calls_before = tracer.calls("placements.candidate_placements") if tracer else 0
                self.attempted += 1
                try:
                    res = run_item(self.tmp)
                except Exception:  # a crash is a failed item; the other items still run
                    self.fail(f"{item.name}: raised\n{traceback.format_exc()}")
                    continue
                if res.outcome != self.pins[item.name]:
                    self.fail(f"{item.name}: outcome {json.dumps(res.outcome)} "
                              f"!= pinned {json.dumps(self.pins[item.name])}")
                elif tracer is not None:
                    seen = tracer.calls("placements.candidate_placements") - calls_before
                    if seen != res.expansions:
                        self.fail(f"{item.name}: traced {seen} candidate_placements calls, "
                                  f"engine stats imply {res.expansions}")
                results.append(res)

        with calibrate.Speedometer() as speedometer:
            start = clock()
            (body if tracer is None else tracer.wrap("bench.pass", body))()
            end = clock()
        return Pass(start, end, results, speedometer)


def setup_seconds(workload, rng):
    """Median time from process start to every item's first search node,
    at reference host speed."""
    specs = workloads.probe_specs(workload)
    times = []
    for i in range(PROBES + 1):
        rng.shuffle(specs)
        t0 = clock()
        proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), json.dumps(specs)],
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = clock() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        fields = line.split()
        if code != 0 or len(fields) != 4 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        sampled, reference, speed = map(float, fields[1:])
        if i > 0:  # the first probe also writes bytecode caches
            times.append((elapsed - sampled) * speed + reference)
    return statistics.median(times)


def end_to_end(run, seconds):
    setup_s = setup_seconds(run.workload, run.rng)
    passes = []
    deadline = clock() + seconds
    while True:
        passes.append(run.one_pass())
        # stop when another pass of median length would overrun the window
        if clock() + statistics.median(p.raw_s for p in passes) > deadline:
            break
    log(f"{run.workload}: {len(passes)} passes, raw s {[round(p.raw_s, 3) for p in passes]}, "
        f"reference s {[round(p.ref_s, 3) for p in passes]}, "
        f"host speed {[round(p.speedometer.speed(), 3) for p in passes]}")
    return {
        "pass_s": metric(statistics.median(p.ref_s for p in passes), "s"),
        "nodes_per_s": metric(statistics.median(p.nodes_per_s for p in passes), "nodes/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def layer_metrics(tracer, traced: Pass):
    """Per-layer numbers of one traced pass.  Self times are scaled by the
    pass's reference/raw ratio, so they add up to trace.pass_s."""
    t = tracer
    scale = traced.ref_s / traced.raw_s

    def self_s(*names):
        return sum(t.self_s(n) for n in names) * scale

    def total_s(name):  # inclusive of traced calls made inside it
        return t.total_s(name) * scale

    def layer_s(layer):
        return t.layer_self_s(layer) * scale

    obs = t.observed
    fits = obs.get("placements.tile_fits_in_region", [])
    cands = obs.get("placements.candidate_placements", [])
    subs = obs.get("region.subtract_triangle", [])
    checked = obs.get("certificate.check_certificate", [])
    results = traced.results
    m = {
        "engine.nodes": (sum(r.nodes for r in results), "count"),
        "engine.max_depth": (max((_max_depth(r.outcome) for r in results), default=0), "count"),
        "engine.self_s": (self_s("engine.run_search", "engine.resume_from_checkpoint"), "s"),
        "engine.setup.self_s": (self_s("engine.setup"), "s"),
        "engine.checkpoint_io_s": (total_s("engine.checkpoint_io"), "s"),
        "placements.candidate_placements.calls": (t.calls("placements.candidate_placements"), "count"),
        "placements.candidate_placements.self_s": (self_s("placements.candidate_placements"), "s"),
        "placements.candidate_placements.total_s": (total_s("placements.candidate_placements"), "s"),
        "placements.candidates_per_call": (_mean(cands), "count"),
        "placements.tile_fits_in_region.calls": (len(fits), "count"),
        "placements.tile_fits_in_region.self_s": (self_s("placements.tile_fits_in_region"), "s"),
        "placements.fit_accept_ratio": (_mean(fits), "ratio"),
        "placements.select_corner.self_s": (self_s("placements.select_corner"), "s"),
        "placements.length_representable.calls": (t.calls("placements.length_representable"), "count"),
        "placements.length_representable.self_s": (self_s("placements.length_representable"), "s"),
        "placements.placement_chirality.self_s": (self_s("placements.placement_chirality"), "s"),
        "placements.TileGeometry.self_s": (self_s("placements.TileGeometry"), "s"),
        "region.subtract_triangle.calls": (len(subs), "count"),
        "region.subtract_triangle.self_s": (self_s("region.subtract_triangle"), "s"),
        "region.subtract_triangle.total_s": (total_s("region.subtract_triangle"), "s"),
        "region.vertices_mean": (_mean([v for v, _ in subs]), "count"),
        "region.pieces_per_call": (_mean([p for _, p in subs]), "count"),
        "geometry.self_s": (layer_s("geometry"), "s"),
        "exactnum.qroot3_ops": (t.qroot3_ops, "count"),
        "certificate.check_certificate.calls": (len(checked), "count"),
        "certificate.check_certificate.self_s": (self_s("certificate.check_certificate"), "s"),
        "certificate.check_certificate.total_s": (total_s("certificate.check_certificate"), "s"),
        "certificate.pairs": (sum(n * (n - 1) // 2 for n in checked), "count"),
        "certificate.extract_edge_relations.self_s": (self_s("certificate.extract_edge_relations"), "s"),
        "certificate.load.self_s": (self_s("certificate.load"), "s"),
        "certificate.self_s": (layer_s("certificate"), "s"),
        "svg.render_svg.self_s": (self_s("svg.render_svg"), "s"),
        "constraints.area_count.self_s": (self_s("constraints.area_count"), "s"),
        "constraints.enumerate_dmatrices.self_s": (self_s("constraints.enumerate_dmatrices"), "s"),
        "constraints.self_s": (layer_s("constraints"), "s"),
        "tilealgebra.self_s": (layer_s("tilealgebra"), "s"),
        "trace.pass_s": (traced.ref_s, "s"),
        # time in the traced pass that no program layer claims
        "trace.unattributed_s": (layer_s("bench"), "s"),
    }
    for name in ("orientation", "on_open_segment", "segments_properly_cross",
                 "point_in_polygon", "segment_length"):
        m[f"geometry.{name}.calls"] = (t.calls(f"geometry.{name}"), "count")
    return m


def _mean(values):
    return sum(values) / len(values) if values else 0


def _max_depth(outcome):
    return outcome.get("max_depth") or max(part["max_depth"] for part in outcome.values())


def per_layer(run, seconds):
    deadline = clock() + seconds
    plain, traced, layers, checks = [], [], [], []
    missed, spans = [], []
    while True:
        plain.append(run.one_pass())
        checks += plain[-1].checks_ref_s
        tracer = tracing.Tracer()
        patcher = tracing.instrument(tracer, [workloads])
        try:
            missed = patcher.missed_sites()
            traced.append(run.one_pass(tracer))
        finally:
            patcher.restore()
        layers.append(layer_metrics(tracer, traced[-1]))
        spans = tracer.spans
        if clock() + statistics.median(p.raw_s + q.raw_s for p, q in zip(plain, traced)) > deadline:
            break
    run.attempted += 1
    if missed:
        run.fail(f"tracer left call sites unpatched: {missed}")
    replay_times, mismatches = replay.run_replays(run.rng, REPLAY_SECONDS)
    for kernel, bad in mismatches.items():
        run.attempted += 1
        if bad:
            run.fail(f"replay {kernel}: {bad} results differ from the recorded ones")
    spans_path = run.tmp.parent / f"spans-{run.workload}-{run.seed}.json"
    spans_path.write_text(json.dumps({"fields": ["id", "name", "start", "end", "parent"],
                                      "spans": spans}))
    log(f"{run.workload}: traced passes {[round(p.ref_s, 3) for p in traced]} reference s, "
        f"untraced {[round(p.ref_s, 3) for p in plain]}; spans in {spans_path}")
    out = {name: metric(statistics.median(m[name][0] for m in layers), layers[0][name][1])
           for name in layers[0]}
    plain_s = statistics.median(p.ref_s for p in plain)
    out["trace.overhead_s"] = metric(out["trace.pass_s"]["value"] - plain_s, "s")
    out["trace.unpatched_sites"] = metric(len(missed), "count")
    out["check_s"] = metric(statistics.median(checks) if checks else 0.0, "s")
    out["host.speed"] = metric(statistics.median(p.speedometer.speed() for p in plain + traced),
                               "ratio")
    for name, value in replay_times.items():
        out[name] = metric(value, name.rsplit(".", 1)[1])
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        run = Run(args.workload, args.seed, tmp)
        if args.trace:
            metrics = per_layer(run, args.seconds)
        else:
            metrics = end_to_end(run, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    log(f"{args.workload}: failed_share {run.failed}/{run.attempted}")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    if not (SRC / "tilingforge" / "__init__.py").is_file():
        sys.exit(f"tilingforge sources not found at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import calibrate
    import replay
    import tracing
    import workloads
    main()
