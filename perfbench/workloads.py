"""The benchmark's workloads: fixed exact instances driven through the
public tilingforge API, one process, workers=1, no split.

Every item returns its outcome (status, node count, max depth, hashes of
the bytes it wrote, the `check` verdict, edge relations, checkpoint index
paths), which the runner compares with the pins in `pins.json`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

from tilingforge.cli import parse_sides, parse_target
from tilingforge.search import (
    Certificate,
    SearchConfig,
    check_certificate,
    extract_edge_relations,
    render_svg,
    resume_from_checkpoint,
    run_search,
)
from tilingforge.search.certificate import certificate_warnings
from tilingforge.tilealgebra import tile_from_sides

clock = time.perf_counter

DEEP_BUDGET = 400


@dataclass
class ItemResult:
    outcome: dict
    nodes: int = 0  # search nodes visited by this item's search calls
    search: tuple = (0.0, 0.0)  # clock readings around its search calls
    checks: list = field(default_factory=list)  # (start, end) of each `check` path
    expansions: int = 0  # candidate_placements calls the engine must have made


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _instance(sides, target):
    tile = tile_from_sides(*parse_sides(sides))
    return tile, parse_target(target, tile)


@dataclass
class Search:
    """Search to a verdict; a found certificate is saved, put through the
    CLI's `check` path (load, check_certificate, extract_edge_relations,
    warnings) and optionally rendered."""

    name: str
    sides: str
    target: str
    allow_mirror: bool = True
    render: bool = False

    def run(self, tmp) -> ItemResult:
        tile, tri = _instance(self.sides, self.target)
        cfg = SearchConfig(allow_mirror=self.allow_mirror)
        t0 = clock()
        out = run_search(tile, tri, cfg)
        res = ItemResult({}, out.stats.nodes, (t0, clock()))
        res.outcome = {"status": out.status, "nodes": out.stats.nodes,
                       "max_depth": out.stats.max_depth}
        # one expansion for the root and one per node, except a node that
        # completes the tiling
        res.expansions = out.stats.nodes + (0 if out.status == "found" else 1)
        if out.certificate is None:
            return res
        path = tmp / f"{self.name}.json"
        out.certificate.save(path)
        res.outcome["certificate_sha256"] = _sha256(path)
        t0 = clock()
        cert = Certificate.load(path)
        violations = check_certificate(cert)
        if violations:
            verdict = {"valid": False, "violations": [str(v) for v in violations]}
        else:
            verdict = {"valid": True, "n": cert.n,
                       "edge_relations": [str(r) for r in extract_edge_relations(cert)],
                       "warnings": certificate_warnings(cert)}
        res.checks.append((t0, clock()))
        res.outcome["check"] = verdict
        if self.render:
            svg = tmp / f"{self.name}.svg"
            render_svg(cert, str(svg))
            res.outcome["svg_sha256"] = _sha256(svg)
        return res


@dataclass
class BudgetResume:
    """Search to half the node budget with a checkpoint, resume from it to
    the full budget, and report both checkpoints' index paths."""

    name: str
    sides: str
    target: str
    budget: int

    def run(self, tmp) -> ItemResult:
        tile, tri = _instance(self.sides, self.target)
        half_path, full_path = tmp / f"{self.name}-half.json", tmp / f"{self.name}-full.json"
        t0 = clock()
        half = run_search(tile, tri, SearchConfig(node_budget=self.budget // 2,
                                                  checkpoint_path=str(half_path)))
        full = resume_from_checkpoint(str(half_path), SearchConfig(node_budget=self.budget,
                                                                   checkpoint_path=str(full_path)))
        res = ItemResult({}, full.stats.nodes, (t0, clock()))
        outcome = {}
        for key, out, path in (("half", half, half_path), ("full", full, full_path)):
            saved = json.loads(path.read_text())
            outcome[key] = {"status": out.status, "nodes": out.stats.nodes,
                            "max_depth": out.stats.max_depth, "indices": saved["indices"]}
        res.outcome = outcome
        # run_search: root plus one per node.  resume: its own root, the
        # replayed root and one per replayed level below it, then one per node
        replayed = len(outcome["half"]["indices"]) - 1
        res.expansions = (half.stats.nodes + 1) + (2 + replayed + full.stats.nodes - half.stats.nodes)
        return res


WORKLOADS = {
    # a verdict of either kind on small regions with heavy backtracking
    "settle-357": [
        Search("eq15", "3,5,7", "equilateral:15"),
        Search("eq15-nomirror", "3,5,7", "equilateral:15", allow_mirror=False),
        Search("tri-15-25-35", "3,5,7", "triangle:15,25,35"),
    ],
    # the side-30 frontier: regions twice as large, checkpoint write and replay
    "deep-357-30": [
        BudgetResume("eq30-budget", "3,5,7", "equilateral:30", DEEP_BUDGET),
    ],
    # no backtracking, generic Q(sqrt3) coordinates, certificate checking
    "certify-iso": [
        Search("iso-4r3", "1,1,sqrt3", "equilateral:4*sqrt3", render=True),
        Search("iso-5r3", "1,1,sqrt3", "equilateral:5*sqrt3", render=True),
    ],
}


def probe_specs(workload):
    """(sides, target, allow_mirror) of each item, for the set-up probe."""
    return [(it.sides, it.target, getattr(it, "allow_mirror", True)) for it in WORKLOADS[workload]]
