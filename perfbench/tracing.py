"""Span tracing of tilingforge from outside the package.

The package imports its functions by name (`from .placements import
candidate_placements`), so replacing a function on its defining module is
not enough: every module that bound the name must be patched.  `Patcher`
finds each binding of an original object in the tilingforge modules and in
the benchmark's own modules, replaces it, can prove that no binding was
missed, and restores everything on exit.

`Tracer` wraps each public function of a layer.  Every call adds to the
function's count, total time and self time (total minus the time of traced
calls made inside it).  Calls of the coarse functions are also kept as
spans (id, name, start, end, parent) in memory; the fine-grained geometry
predicates are only counted, because they run hundreds of thousands of
times per pass.  Exact-arithmetic work is counted as the number of
`QRoot3` values built by ring operations (calls of `QRoot3._raw`).
"""

from __future__ import annotations

import sys
import time

PACKAGE = "tilingforge"


def program_modules(extra=()):
    """Loaded tilingforge modules plus the given benchmark modules."""
    mods = [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
    return mods + [m for m in extra if m not in mods]


class Patcher:
    """Replace functions at every module that imported them by name, and
    methods on their class; `restore` puts every original back."""

    def __init__(self, modules):
        self.modules = list(modules)
        self._undo = []
        self._originals = []

    def function(self, module_name, attr, make):
        original = getattr(sys.modules[module_name], attr)
        replacement = make(original)
        sites = 0
        for mod in self.modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, name, original))
                    setattr(mod, name, replacement)
                    sites += 1
        if sites == 0:
            raise RuntimeError(f"{module_name}.{attr} is bound nowhere")
        self._originals.append((f"{module_name}.{attr}", original))
        return sites

    def method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    def missed_sites(self):
        """Module bindings that still hold an original function."""
        missed = []
        for label, original in self._originals:
            for mod in self.modules:
                for name, value in vars(mod).items():
                    if value is original:
                        missed.append(f"{mod.__name__}.{name} -> {label}")
        return missed

    def restore(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()
        self._originals.clear()


class Tracer:
    """Counts, total and self time per traced name, plus kept spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.observed: dict[str, list] = {}  # name -> per-call observations
        self.spans: list[list] = []  # [id, name, start, end, parent]
        self._stack: list[list] = []  # [child_time, nearest kept span id]
        self.qroot3_ops = 0

    def wrap(self, name, fn, keep_span=True, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        seen = self.observed.setdefault(name, []) if observe else None
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span = None
            if keep_span:
                span = [len(spans), name, 0.0, 0.0, parent]
                spans.append(span)
            frame = [0.0, span[0] if span else parent]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                if stack:
                    stack[-1][0] += dt
                if span:
                    span[2], span[3] = t0, t1
            if seen is not None:
                seen.append(observe(args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count_qroot3(self, qroot3_cls, patcher):
        def make(raw):
            def counted(n1, n3, den):
                self.qroot3_ops += 1
                return raw(n1, n3, den)
            return counted
        patcher.method(qroot3_cls, "_raw", make)

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def total_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer):
        return sum(s[2] for n, s in self.stats.items() if n.split(".")[0] == layer)



# (traced name, defining module, attribute, keep spans, observation per call)
FUNCTIONS = [
    ("engine.run_search", "tilingforge.search.engine", "run_search", True, None),
    ("engine.resume_from_checkpoint", "tilingforge.search.engine", "resume_from_checkpoint", True, None),
    ("placements.candidate_placements", "tilingforge.search.placements", "candidate_placements", True,
     lambda args, out: len(out)),
    ("placements.select_corner", "tilingforge.search.placements", "select_corner", True, None),
    ("placements.tile_fits_in_region", "tilingforge.search.placements", "tile_fits_in_region", True,
     lambda args, out: bool(out)),
    ("placements.placement_chirality", "tilingforge.search.placements", "placement_chirality", False, None),
    ("region.subtract_triangle", "tilingforge.search.region", "subtract_triangle", True,
     lambda args, out: (len(args[0]), len(out))),
    ("geometry.orientation", "tilingforge.geometry", "orientation", False, None),
    ("geometry.on_open_segment", "tilingforge.geometry", "on_open_segment", False, None),
    ("geometry.segments_properly_cross", "tilingforge.geometry", "segments_properly_cross", False, None),
    ("geometry.point_in_polygon", "tilingforge.geometry", "point_in_polygon", False, None),
    ("geometry.segment_length", "tilingforge.geometry", "segment_length", False, None),
    ("certificate.check_certificate", "tilingforge.search.certificate", "check_certificate", True,
     lambda args, out: args[0].n),
    ("certificate.extract_edge_relations", "tilingforge.search.certificate", "extract_edge_relations",
     True, None),
    ("certificate.certificate_warnings", "tilingforge.search.certificate", "certificate_warnings",
     True, None),
    ("svg.render_svg", "tilingforge.search.svg", "render_svg", True, None),
    ("constraints.area_count", "tilingforge.constraints", "area_count", True, None),
    ("constraints.enumerate_dmatrices", "tilingforge.constraints", "enumerate_dmatrices", True, None),
    ("constraints.triangle_spec", "tilingforge.constraints", "triangle_spec", True, None),
    ("tilealgebra.tile_from_sides", "tilingforge.tilealgebra", "tile_from_sides", True, None),
]

# (traced name, defining module, class, method); a class is shared by every
# module that imports it, so patching the class attribute covers all sites
METHODS = [
    ("engine.setup", "tilingforge.search.engine", "TilingSearch", "__init__"),
    ("engine.checkpoint_io", "tilingforge.search.engine", "TilingSearch", "_maybe_checkpoint"),
    ("placements.TileGeometry", "tilingforge.search.placements", "TileGeometry", "__init__"),
    ("placements.length_representable", "tilingforge.search.placements", "TileGeometry",
     "length_representable"),
    ("certificate.load", "tilingforge.search.certificate", "Certificate", "load"),
    ("certificate.save", "tilingforge.search.certificate", "Certificate", "save"),
]


def instrument(tracer, bench_modules):
    """Wrap every traced function and method; returns the Patcher that
    undoes it.  The caller restores it in a finally block."""
    patcher = Patcher(program_modules(bench_modules))
    try:
        for name, module, attr, keep, observe in FUNCTIONS:
            patcher.function(module, attr, lambda fn, n=name, k=keep, o=observe: tracer.wrap(n, fn, k, o))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            patcher.method(cls, attr, lambda fn, n=name: tracer.wrap(n, fn))
        tracer.count_qroot3(sys.modules["tilingforge.exactnum.qfield"].QRoot3, patcher)
    except BaseException:
        patcher.restore()
        raise
    return patcher
