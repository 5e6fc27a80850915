"""Exhaustive backtracking search for N-tilings, exact throughout.

The tree is canonical: the active subregion is the canonically-first
polygon of the remaining region, the active corner is its smallest
interior angle (ties by lexicographic vertex order), and candidates are
enumerated in a fixed order.  With a fixed configuration the outcome and
the node count are reproducible run to run and across worker counts.

Checkpoints record the candidate-index path of the depth-first stack, so
resuming replays the prefix deterministically and continues where the
budget ran out.  Pruning built into candidate generation uses only
self-evident necessary conditions (angle representability, edge-length
representability, exact containment).  The optional vertex-splitting cap
is off by default, and any exhaustion proved with it on is reported as
conditional.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Optional

from ..constraints import TriangleSpec, area_count
from ..tilealgebra import TileShape
from .certificate import Certificate, check_certificate, write_json
from .placements import Candidate, TileGeometry, candidate_placements, select_corner
from .region import Polygon, splice

CHECKPOINT_SCHEMA = "v1"
CHECKPOINT_INTERVAL = 100_000  # nodes between periodic checkpoints


@dataclass
class SearchConfig:
    node_budget: int = 10**8
    workers: int = 1
    split_depth: int = 0  # partition depth for the worker pool; 0 = no split
    allow_mirror: bool = True
    paper_pruning: bool = False
    checkpoint_path: Optional[str] = None

    def to_json(self) -> dict:
        """The settings that define the tree, all that a resume reads."""
        return {"allow_mirror": self.allow_mirror, "paper_pruning": self.paper_pruning}


@dataclass
class SearchStats:
    nodes: int = 0
    max_depth: int = 0
    elapsed: float = 0.0
    conditional_on_paper_lemmas: bool = False

    def to_json(self) -> dict:
        return {
            "nodes": self.nodes,
            "max_depth": self.max_depth,
            "elapsed_seconds": round(self.elapsed, 3),
            "conditional_on_paper_lemmas": self.conditional_on_paper_lemmas,
        }


@dataclass
class Outcome:
    status: str  # "found" | "exhausted" | "budget"
    stats: SearchStats
    certificate: Optional[Certificate] = None
    checkpoint_path: Optional[str] = None


class InvalidInstance(ValueError):
    pass


@dataclass
class _Frame:
    """A search node: its region, the candidates placed to reach it, its
    own candidates and the index of the last one explored."""
    regions: tuple[Polygon, ...]
    placed: tuple[Candidate, ...]
    cands: list[Candidate]
    idx: int = -1


class TilingSearch:
    def __init__(self, tile: TileShape, target: TriangleSpec, config: Optional[SearchConfig] = None):
        self.tile = tile
        self.target = target
        self.config = config or SearchConfig()
        self.geom = TileGeometry(tile, self.config.allow_mirror)
        n = area_count(tile, target)
        if n.denominator != 1 or n <= 0:
            raise InvalidInstance(f"area quotient {n} is not a positive integer")
        if not all(self.geom.length_representable(s) for s in target.sides()):
            raise InvalidInstance("no boundary composition exists for this instance")
        corners = target.vertices()
        self.initial = Polygon.from_points(list(corners))
        self._corner_keys = {v.key for v in corners}
        self._pruning_active = (
            self.config.paper_pruning
            and not tile.is_isosceles()
            and not target.similar_to_tile()
        )

    # -- candidate generation ---------------------------------------------------

    def _node(self, regions: tuple[Polygon, ...], placed: tuple[Candidate, ...]) -> _Frame:
        """The frame of the node that `placed` leaves with region `regions`,
        holding the candidates at its active corner.  Under the
        vertex-splitting cap the target corners take at most three alphas
        and three betas in all, and no gamma."""
        region = regions[0]
        cands = candidate_placements(region, select_corner(region), self.geom)
        if self._pruning_active:
            keys = self._corner_keys
            used = Counter(p.angle_name for p in placed if p.placement.vertices[0].key in keys)
            cands = [c for c in cands if c.placement.vertices[0].key not in keys
                     or (c.angle_name != "gamma" and used[c.angle_name] < 3)]
        return _Frame(regions, placed, cands)

    def _apply(self, regions: tuple[Polygon, ...], cand: Candidate) -> tuple[Polygon, ...]:
        # the candidate's remainder is spliced here, when the search enters it
        merged = splice(regions[0], cand.placement.vertices, cand.touch, self.geom.area2)
        merged += regions[1:]
        merged.sort(key=lambda p: p.vertices[0].key)
        return tuple(merged)

    # -- the depth-first cursor ----------------------------------------------------

    def _stack_at(self, indices: list[int]) -> list[_Frame]:
        """The frame stack of the depth-first state named by a candidate-index
        path: each frame's idx is set from the path, and every frame but the
        last is descended into."""
        stack = [self._node((self.initial,), ())]
        for idx in indices[:-1]:
            if not (0 <= idx < len(stack[-1].cands)):
                raise InvalidInstance("checkpoint does not match this instance")
            stack[-1].idx = idx - 1
            if next(self._walk(stack))[1]:
                raise InvalidInstance("checkpoint replay ended in a completed tiling")
        if indices:
            if not (-1 <= indices[-1] < len(stack[-1].cands)):
                raise InvalidInstance("checkpoint does not match this instance")
            stack[-1].idx = indices[-1]
        return stack

    def _walk(self, stack: list[_Frame]):
        """Advance one node at a time until the stack is empty, yielding after
        each node the candidates placed to reach it and whether they complete
        a tiling; an incomplete node's frame is pushed before the yield, so a
        driver may pop it to close it.  Every frame's idx names its last
        explored candidate."""
        while stack:
            frame = stack[-1]
            frame.idx += 1
            if frame.idx >= len(frame.cands):
                stack.pop()
                continue
            cand = frame.cands[frame.idx]
            regions = self._apply(frame.regions, cand)
            placed = frame.placed + (cand,)
            if regions:
                stack.append(self._node(regions, placed))
            yield placed, not regions

    # -- sequential search --------------------------------------------------------

    def enumerate_all(self, limit: int = 10**6) -> list[Certificate]:
        """Every complete tiling in the canonical tree (validation aid)."""
        found: list[Certificate] = []
        for nodes, (placed, complete) in enumerate(self._walk(self._stack_at([])), 1):
            if complete:
                found.append(self._certificate(placed))
            if nodes >= limit:
                raise RuntimeError("enumeration limit hit")
        return found

    def run(self, resume_indices: Optional[list[int]] = None, start_nodes: int = 0) -> Outcome:
        stack = self._stack_at([])
        if resume_indices:
            # the root is expanded a second time here, as the replay always
            # has; perfbench's traced candidate_placements count expects it
            stack = self._stack_at(resume_indices)
        return self._drive(stack, start_nodes, self.config.node_budget)

    def _drive(self, stack: list[_Frame], nodes: int, budget: int) -> Outcome:
        """Walk on from a stack state to a tiling, `budget` nodes or the end
        of the stack, checkpointing between nodes."""
        t0 = time.monotonic()
        stats = SearchStats(conditional_on_paper_lemmas=self._pruning_active)
        cfg = self.config
        steps = self._walk(stack)
        status, cert, path = "exhausted", None, None
        while True:
            # checkpoints are only written between nodes, where every frame's
            # idx is the index of its last explored candidate
            if nodes >= budget:
                status, path = "budget", self._maybe_checkpoint(stack, nodes)
                break
            if cfg.checkpoint_path and nodes % CHECKPOINT_INTERVAL == 0:
                self._maybe_checkpoint(stack, nodes)
            step = next(steps, None)  # None: the walk is over
            if step is None:
                break
            placed, complete = step
            nodes += 1
            stats.max_depth = max(stats.max_depth, len(placed))
            if complete:
                status, cert = "found", self._certificate(placed)
                break
        stats.nodes = nodes
        stats.elapsed = time.monotonic() - t0
        return Outcome(status, stats, certificate=cert, checkpoint_path=path)

    def _certificate(self, placed: tuple[Candidate, ...]) -> Certificate:
        cert = Certificate(self.tile, self.target, tuple(c.placement for c in placed),
                           self.config.allow_mirror)
        violations = check_certificate(cert)
        if violations:
            raise AssertionError(f"search produced an invalid certificate: {violations}")
        return cert

    # -- checkpointing -------------------------------------------------------------

    def _maybe_checkpoint(self, stack, nodes) -> Optional[str]:
        path = self.config.checkpoint_path
        if not path:
            return None
        data = {
            "schema": CHECKPOINT_SCHEMA,
            "tile": self.tile.to_json(),
            "target": self.target.to_json(),
            "config": self.config.to_json(),
            "indices": [f.idx for f in stack],
            "nodes": nodes,
        }
        write_json(path, data)
        return path


def resume_from_checkpoint(path: str, config: Optional[SearchConfig] = None) -> Outcome:
    """Continue a search from a checkpoint file; raises InvalidInstance if
    the file is not a well-formed checkpoint of a valid instance, or if its
    target's corner angles are not the ones its sides give."""
    try:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError("a checkpoint is a JSON object")
        if data.get("schema") != CHECKPOINT_SCHEMA:
            raise ValueError(f"unsupported checkpoint schema {data.get('schema')!r}")
        tile = TileShape.from_json(data["tile"])
        target = TriangleSpec.from_json(data["target"], tile)
        saved, indices, nodes = data["config"], data["indices"], data["nodes"]
        flags = (saved["allow_mirror"], saved["paper_pruning"])
        if not all(isinstance(f, bool) for f in flags):
            raise ValueError("config flags must be booleans")
        if not isinstance(indices, list) or not all(_is_int(i) for i in indices):
            raise ValueError("indices must be a list of integers")
        if not _is_int(nodes) or nodes < 0:
            raise ValueError("nodes must be a nonnegative integer")
    except (ValueError, KeyError, TypeError) as exc:
        raise InvalidInstance(f"malformed checkpoint: {exc}") from None
    cfg = replace(config or SearchConfig(), allow_mirror=flags[0], paper_pruning=flags[1])
    search = TilingSearch(tile, target, cfg)
    return search.run(resume_indices=indices, start_nodes=nodes)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# ---------------------------------------------------------------------------
# worker pool


def _subtree_prefixes(search: TilingSearch, depth: int):
    """Walk the tree down to `depth` placements, closing every frame there,
    until the search's node budget is spent, frontier nodes included.

    Returns the frontier (for each node at `depth` with a frame, in canonical
    order: that frame, which holds the candidates placed to reach it, and the
    number of other nodes before it in preorder), the number of other nodes
    walked, their maximum depth and the first tiling met.  A frontier node is
    closed by popping its frame off the stack, so the walk goes on with its
    next sibling.  A tiling takes N placements, so one is met only when
    depth >= N, with no frontier."""
    stack = search._stack_at([])
    frontier: list[tuple[_Frame, int]] = []
    nodes = max_depth = 0
    for placed, complete in search._walk(stack):
        max_depth = max(max_depth, len(placed))
        if complete:
            return frontier, nodes + 1, max_depth, search._certificate(placed)
        if len(placed) == depth:
            frontier.append((stack.pop(), nodes))
        else:
            nodes += 1
        if nodes + len(frontier) >= search.config.node_budget:
            break
    return frontier, nodes, max_depth, None


def _run_subtree(job) -> Outcome:
    """Search the subtree below one frontier node, counting the node itself."""
    search, frame, budget = job
    return search._drive([frame], 1, budget)


def _merge(frontier, outcomes, stats: SearchStats, budget: int) -> Outcome:
    """Add the subtree outcomes, in frontier order, to the prefix walk's
    `stats`, counting nodes in preorder as the sequential search does: the
    other nodes before a subtree, then every subtree up to it.  As there, a
    tiling within `budget` nodes ends the merge, and otherwise reaching
    `budget` nodes ends it with exactly that many."""
    done = 0  # the nodes of the subtrees merged so far
    for (_, before), out in zip(frontier, outcomes):
        at = before + done + out.stats.nodes  # the preorder count at its last node
        stats.max_depth = max(stats.max_depth, out.stats.max_depth)
        if out.status == "found" and at <= budget:
            stats.nodes = at
            return Outcome("found", stats, certificate=out.certificate)
        if at >= budget:
            stats.nodes = budget
            return Outcome("budget", stats)
        done += out.stats.nodes
    stats.nodes = min(stats.nodes + done, budget)
    return Outcome("exhausted" if stats.nodes < budget else "budget", stats)


def run_search(tile: TileShape, target: TriangleSpec, config: Optional[SearchConfig] = None) -> Outcome:
    """Entry point: sequential when split_depth == 0, else partitioned into
    subtrees handled by a pool of `workers` processes.

    The walk down to split_depth counts against the node budget, frontier
    nodes included, and each subtree below it gets all that is left of the
    budget after the nodes that come before it in preorder, taking every
    earlier subtree as its frontier node alone.  Results are taken in
    canonical order up to the first tiling and the first subtree that
    takes the preorder count past the budget, which then reports `budget`
    with node_budget nodes; so whenever the sequential search stays within
    the budget, the status, node count, max_depth and certificate are the
    sequential ones at every split depth and worker count.
    Split mode writes no checkpoint, so a `checkpoint_path` with it is a
    ValueError.
    """
    cfg = config or SearchConfig()
    if cfg.split_depth > 0 and cfg.checkpoint_path:
        raise ValueError("checkpoint_path cannot be combined with split_depth > 0")
    search = TilingSearch(tile, target, cfg)
    if cfg.split_depth <= 0:
        return search.run()

    t0 = time.monotonic()
    stats = SearchStats(conditional_on_paper_lemmas=search._pruning_active)
    frontier, stats.nodes, stats.max_depth, cert = _subtree_prefixes(search, cfg.split_depth)
    budget = cfg.node_budget
    rest = budget - stats.nodes - len(frontier)
    if cert is not None or not frontier or rest <= 0:
        stats.nodes += len(frontier)
        stats.elapsed = time.monotonic() - t0
        status = "found" if cert else "budget" if rest <= 0 else "exhausted"
        return Outcome(status, stats, certificate=cert)
    # subtree k follows its `before` other nodes and k earlier frontier
    # nodes; its budget counts its own frontier node, already walked
    jobs = [(search, frame, budget - before - k) for k, (frame, before) in enumerate(frontier)]
    if cfg.workers <= 1:
        outcome = _merge(frontier, map(_run_subtree, jobs), stats, budget)
    else:
        import multiprocessing  # only a worker pool needs it

        # leaving the block terminates the subtrees still running
        with multiprocessing.get_context("spawn").Pool(processes=cfg.workers) as pool:
            outcome = _merge(frontier, pool.imap(_run_subtree, jobs), stats, budget)
    stats.elapsed = time.monotonic() - t0
    return outcome
