import json
import os
import pickle

import pytest

from tilingforge.cli import parse_sides, parse_target
from tilingforge.constraints import area_count, tile_angle_sums, triangle_spec
from tilingforge.exactnum import QRoot3, SQRT3
from tilingforge.geometry import Point
from tilingforge.search import engine, region
from tilingforge.search.certificate import check_certificate
from tilingforge.search.engine import (
    InvalidInstance,
    SearchConfig,
    TilingSearch,
    resume_from_checkpoint,
    run_search,
)
from tilingforge.search.placements import Candidate, Placement
from tilingforge.tilealgebra import tile_from_sides

ISO = tile_from_sides(1, 1, SQRT3)
T357 = tile_from_sides(3, 5, 7)


def tri_eq(tile, side):
    return triangle_spec(tile, [side] * 3)


def test_n3_control():
    out = run_search(ISO, tri_eq(ISO, SQRT3), SearchConfig())
    assert out.status == "found"
    assert out.certificate.n == 3
    assert check_certificate(out.certificate) == []


def test_n4_control():
    tri = triangle_spec(T357, [QRoot3(6), QRoot3(10), QRoot3(14)])
    out = run_search(T357, tri, SearchConfig())
    assert out.status == "found"
    assert out.certificate.n == 4
    assert check_certificate(out.certificate) == []


def test_n12_control():
    out = run_search(ISO, tri_eq(ISO, 2 * SQRT3), SearchConfig())
    assert out.status == "found"
    assert out.certificate.n == 12
    assert check_certificate(out.certificate) == []


def test_all_solutions_unique_on_controls():
    assert len(TilingSearch(ISO, tri_eq(ISO, SQRT3), SearchConfig()).enumerate_all()) == 1
    tri = triangle_spec(T357, [QRoot3(6), QRoot3(10), QRoot3(14)])
    assert len(TilingSearch(T357, tri, SearchConfig()).enumerate_all()) == 1


def test_headline_probe_exhausts():
    out = run_search(T357, tri_eq(T357, QRoot3(15)), SearchConfig())
    assert out.status == "exhausted"
    assert not out.stats.conditional_on_paper_lemmas
    assert out.stats.nodes > 100


def test_determinism_across_runs():
    tri = tri_eq(T357, QRoot3(15))
    a = run_search(T357, tri, SearchConfig())
    b = run_search(T357, tri, SearchConfig())
    assert (a.status, a.stats.nodes, a.stats.max_depth) == (b.status, b.stats.nodes, b.stats.max_depth)


def test_budget_and_checkpoint_resume(tmp_path):
    tri = tri_eq(T357, QRoot3(15))
    ck = str(tmp_path / "ck.json")
    out = TilingSearch(T357, tri, SearchConfig(node_budget=150, checkpoint_path=ck)).run()
    assert out.status == "budget"
    assert out.checkpoint_path == ck
    resumed = resume_from_checkpoint(ck, SearchConfig(node_budget=10**6, checkpoint_path=ck))
    assert resumed.status == "exhausted"
    full = TilingSearch(T357, tri, SearchConfig()).run()
    assert resumed.stats.nodes == full.stats.nodes


def test_tile_angle_sums_enumerated_once_per_tile(tmp_path):
    # the target's corners, the candidate filter and the resume check all
    # read the one enumeration of the tile's angle sums
    tile_angle_sums.cache_clear()
    tile = tile_from_sides(*parse_sides("3,5,7"))
    tri = parse_target("equilateral:15", tile)
    ck = str(tmp_path / "ck.json")
    assert run_search(tile, tri, SearchConfig(node_budget=20, checkpoint_path=ck)).status == "budget"
    assert resume_from_checkpoint(ck, SearchConfig(node_budget=40)).status == "budget"
    assert tile_angle_sums.cache_info().misses == 1


def test_resume_matches_direct_partial_state(tmp_path):
    tri = tri_eq(T357, QRoot3(15))
    ck1, ck2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    TilingSearch(T357, tri, SearchConfig(node_budget=120, checkpoint_path=ck1)).run()
    resume_from_checkpoint(ck1, SearchConfig(node_budget=260, checkpoint_path=ck1))
    TilingSearch(T357, tri, SearchConfig(node_budget=260, checkpoint_path=ck2)).run()
    d1, d2 = json.load(open(ck1)), json.load(open(ck2))
    assert d1["indices"] == d2["indices"]
    assert d1["nodes"] == d2["nodes"]


def test_a_checkpoint_keeps_only_the_settings_that_define_its_tree(tmp_path):
    ck = str(tmp_path / "ck.json")
    cfg = SearchConfig(node_budget=120, allow_mirror=False, paper_pruning=True, checkpoint_path=ck)
    TilingSearch(T357, tri_eq(T357, QRoot3(30)), cfg).run()
    assert json.load(open(ck))["config"] == {"allow_mirror": False, "paper_pruning": True}


def test_a_checkpoint_with_the_run_settings_still_resumes(tmp_path):
    # earlier checkpoints also held node_budget, workers and split_depth;
    # a resume ignores them and continues bit-identically
    tri = tri_eq(T357, QRoot3(15))
    old, new, direct = (str(tmp_path / f"{name}.json") for name in ("old", "new", "direct"))
    TilingSearch(T357, tri, SearchConfig(node_budget=120, checkpoint_path=old)).run()
    data = json.load(open(old))
    data["config"] = {"node_budget": 120, "workers": 1, "split_depth": 0,
                      "allow_mirror": True, "paper_pruning": False}
    with open(old, "w") as fh:
        json.dump(data, fh)
    with open(new, "w") as fh:
        json.dump({**data, "config": {"allow_mirror": True, "paper_pruning": False}}, fh)
    for path in (old, new):
        assert resume_from_checkpoint(path, SearchConfig(node_budget=260, checkpoint_path=path)).status == "budget"
    TilingSearch(T357, tri, SearchConfig(node_budget=260, checkpoint_path=direct)).run()
    saved = [json.load(open(path)) for path in (old, new, direct)]
    assert saved[0] == saved[1] == saved[2]
    assert saved[0]["nodes"] == 260 and saved[0]["config"] == {"allow_mirror": True, "paper_pruning": False}
    resumed = resume_from_checkpoint(old, SearchConfig())
    assert (resumed.status, resumed.stats.nodes) == ("exhausted", 380)


def test_periodic_checkpoint_interval(tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "CHECKPOINT_INTERVAL", 50)
    tri = tri_eq(T357, QRoot3(15))
    ck = str(tmp_path / "periodic.json")
    cfg = SearchConfig(node_budget=10**6, checkpoint_path=ck)
    out = TilingSearch(T357, tri, cfg).run()
    assert out.status == "exhausted"
    data = json.load(open(ck))
    assert data["schema"] == "v1"
    assert data["nodes"] % 50 == 0
    # resuming from a periodic snapshot reaches the same final state
    resumed = resume_from_checkpoint(ck, SearchConfig(node_budget=10**6))
    assert resumed.status == "exhausted"
    assert resumed.stats.nodes == TilingSearch(T357, tri, SearchConfig()).run().stats.nodes


def test_checkpoint_survives_a_failed_write(tmp_path, monkeypatch):
    tri = tri_eq(T357, QRoot3(15))
    ck = tmp_path / "ck.json"
    TilingSearch(T357, tri, SearchConfig(node_budget=120, checkpoint_path=str(ck))).run()
    saved = ck.read_bytes()

    def fail(fd):
        raise OSError("no space left on device")

    with monkeypatch.context() as patch:
        # part of a checkpoint reaches the file, then the write fails
        patch.setattr(json, "dumps", lambda obj, **kwargs: '{"schema": "v1", "indi')
        patch.setattr(os, "fsync", fail)
        with pytest.raises(OSError):
            resume_from_checkpoint(str(ck), SearchConfig(node_budget=260, checkpoint_path=str(ck)))
    # the earlier checkpoint is intact, no temporary file is left, and it resumes
    assert ck.read_bytes() == saved and list(tmp_path.iterdir()) == [ck]
    resumed = resume_from_checkpoint(str(ck), SearchConfig(node_budget=10**6))
    assert (resumed.status, resumed.stats.nodes) == ("exhausted", 380)


def test_split_mode_rejects_checkpoint(tmp_path):
    ck = tmp_path / "ck.json"
    cfg = SearchConfig(split_depth=2, node_budget=50, checkpoint_path=str(ck))
    with pytest.raises(ValueError, match="checkpoint_path cannot be combined with split_depth"):
        run_search(T357, tri_eq(T357, QRoot3(15)), cfg)
    assert not ck.exists()


def test_worker_counts_agree():
    tri = tri_eq(T357, QRoot3(15))
    one = run_search(T357, tri, SearchConfig(split_depth=2, workers=1))
    two = run_search(T357, tri, SearchConfig(split_depth=2, workers=2))
    assert (one.status, one.stats.nodes) == (two.status, two.stats.nodes)


def test_worker_counts_agree_on_found():
    tri = tri_eq(ISO, 2 * SQRT3)
    one = run_search(ISO, tri, SearchConfig(split_depth=1, workers=1))
    two = run_search(ISO, tri, SearchConfig(split_depth=1, workers=3))
    assert one.status == two.status == "found"
    assert one.certificate.to_json() == two.certificate.to_json()
    assert one.stats.nodes == two.stats.nodes


def test_paper_pruning_labels_conditional():
    out = run_search(T357, tri_eq(T357, QRoot3(15)), SearchConfig(paper_pruning=True))
    assert out.status == "exhausted"
    assert out.stats.conditional_on_paper_lemmas
    # similar targets and isosceles tiles never get the conditional label
    out2 = run_search(ISO, tri_eq(ISO, SQRT3), SearchConfig(paper_pruning=True))
    assert not out2.stats.conditional_on_paper_lemmas


def test_invalid_instances_rejected():
    with pytest.raises(InvalidInstance):
        TilingSearch(T357, tri_eq(T357, QRoot3(10)), SearchConfig())  # N = 100/15
    with pytest.raises(InvalidInstance, match="no boundary composition"):
        # area count integral (N=75) but side 15*sqrt3/... has no composition:
        # 5*sqrt3 is not a nonnegative integer combination of 3, 5, 7
        TilingSearch(T357, tri_eq(T357, 5 * SQRT3), SearchConfig())


def test_area_conservation_along_a_branch():
    # walk the canonical leftmost branch; region area must always equal
    # (N - placed) * tile area
    tri = tri_eq(T357, QRoot3(15))
    s = TilingSearch(T357, tri, SearchConfig())
    n = area_count(T357, tri)
    assert n == 15
    regions, placed = (s.initial,), ()
    while regions:
        total = QRoot3(0)
        for r in regions:
            total = total + r.area2 / 2
        assert total == (n - len(placed)) * T357.area
        frame = s._node(regions, placed)
        assert frame.regions == regions and frame.placed == placed
        if not frame.cands:
            break
        regions = s._apply(regions, frame.cands[0])
        placed += (frame.cands[0],)


def test_splitting_cap_counts_the_placements(monkeypatch):
    # the cap reads how many alphas and betas the path already put at target
    # corners from the placements alone; gamma never goes at a target corner
    s = TilingSearch(T357, tri_eq(T357, QRoot3(15)), SearchConfig(paper_pruning=True))
    assert s._pruning_active
    corner, inner = s.target.vertices()[0], Point(QRoot3(1), QRoot3(1))

    def cand(p, name):  # a candidate with its corner p, never placed
        return Candidate(Placement((p, p, p), False), name, None)

    synthetic = [cand(p, name) for p in (corner, inner) for name in ("alpha", "beta", "gamma")]
    monkeypatch.setattr(engine, "candidate_placements", lambda *args, **kwargs: synthetic)

    def allowed(placed):
        frame = s._node((s.initial,), tuple(placed))
        return {(c.placement.vertices[0] == corner, c.angle_name) for c in frame.cands}

    at = {name: cand(corner, name) for name in ("alpha", "beta", "gamma")}
    off = cand(inner, "alpha")
    anywhere = {(False, "alpha"), (False, "beta"), (False, "gamma")}
    assert allowed([]) == anywhere | {(True, "alpha"), (True, "beta")}
    assert allowed([at["alpha"]] * 2 + [off] * 5) == anywhere | {(True, "alpha"), (True, "beta")}
    assert allowed([at["alpha"]] * 3) == anywhere | {(True, "beta")}
    assert allowed([at["beta"]] * 3 + [at["gamma"]]) == anywhere | {(True, "alpha")}
    assert allowed([at["alpha"]] * 3 + [at["beta"]] * 4) == anywhere
    # with the cap off every candidate is kept
    s._pruning_active = False
    assert len(s._node((s.initial,), (at["alpha"],) * 3).cands) == len(synthetic)


@pytest.mark.parametrize("tile, side, budget, expected", [
    (T357, QRoot3(30), 400, ("budget", 400)),
    (ISO, 5 * SQRT3, 10**8, ("found", 75)),
    (T357, QRoot3(15), 10**8, ("exhausted", 380)),
])
def test_a_search_splices_only_the_candidates_it_enters(monkeypatch, tile, side, budget, expected):
    # a remainder is built when the search enters its candidate: one splice
    # per node, none for the fitting candidates it never reaches
    splices = []
    faces = region._faces

    def counted(*args):
        splices.append(args)
        return faces(*args)

    monkeypatch.setattr(region, "_faces", counted)
    out = run_search(tile, tri_eq(tile, side), SearchConfig(node_budget=budget))
    assert (out.status, out.stats.nodes) == expected
    assert len(splices) == out.stats.nodes


def test_unspliced_candidates_and_frontier_frames_pickle():
    # the frontier frames go to spawned workers with their candidates not
    # yet spliced; a copy splices the same remainder as the original
    s = TilingSearch(T357, tri_eq(T357, QRoot3(15)), SearchConfig())
    frame = engine._subtree_prefixes(s, 2)[0][0][0]
    cand = frame.cands[0]
    assert set(vars(cand)) == {"placement", "angle_name", "touch"}
    copy = pickle.loads(pickle.dumps(cand))
    assert copy == cand and copy.touch == cand.touch
    assert s._apply(frame.regions, copy) == s._apply(frame.regions, cand) != ()
    frame_copy = pickle.loads(pickle.dumps(frame))
    assert frame_copy.regions == frame.regions and frame_copy.cands == frame.cands
    assert ([s._apply(frame_copy.regions, c) for c in frame_copy.cands]
            == [s._apply(frame.regions, c) for c in frame.cands])


def test_replayed_frames_carry_their_path(tmp_path):
    # each frame of a resumed stack holds the candidates that lead to it:
    # the ones its ancestors' indices name
    ck = str(tmp_path / "ck.json")
    s = TilingSearch(T357, tri_eq(T357, QRoot3(30)), SearchConfig(node_budget=400, checkpoint_path=ck))
    assert s.run().status == "budget"
    with open(ck) as fh:
        indices = json.load(fh)["indices"]
    stack = s._stack_at(indices)
    assert [f.idx for f in stack] == indices and len(stack) > 10
    for k, frame in enumerate(stack):
        assert frame.placed == tuple(stack[i].cands[stack[i].idx] for i in range(k))


@pytest.mark.parametrize("tile, side", [(ISO, 2 * SQRT3), (T357, QRoot3(15))])
def test_a_pickled_frontier_frame_keeps_its_path(tile, side):
    # a worker gets the frame alone: the candidates placed to reach it
    # travel with it and go into the certificate it finds
    s = TilingSearch(tile, tri_eq(tile, side), SearchConfig())
    frontier = engine._subtree_prefixes(s, 2)[0]
    assert frontier
    outcomes = set()
    for frame, _ in frontier:
        assert len(frame.placed) == 2
        copy = pickle.loads(pickle.dumps(frame))
        assert copy.placed == frame.placed and copy.idx == frame.idx == -1
        outcome = _summary(engine._run_subtree((s, copy, 10**6)))
        assert outcome == _summary(engine._run_subtree((s, frame, 10**6)))
        outcomes.add(outcome[0])
    assert outcomes == ({"found", "exhausted"} if tile is ISO else {"exhausted"})


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_split_expands_each_node_once(monkeypatch, depth):
    # the workers continue from the frontier frames: one set-up, and one
    # expansion for the root and per node, as in the sequential search
    calls = {"expand": 0, "setup": 0}
    expand, setup = engine.candidate_placements, TilingSearch.__init__

    def counted_expand(*args, **kwargs):
        calls["expand"] += 1
        return expand(*args, **kwargs)

    def counted_setup(self, *args, **kwargs):
        calls["setup"] += 1
        setup(self, *args, **kwargs)

    monkeypatch.setattr(engine, "candidate_placements", counted_expand)
    monkeypatch.setattr(TilingSearch, "__init__", counted_setup)
    out = run_search(T357, tri_eq(T357, QRoot3(15)), SearchConfig(split_depth=depth, workers=1))
    assert (out.status, out.stats.nodes) == ("exhausted", 380)
    assert calls == {"expand": 381, "setup": 1}


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_split_walk_counts_against_the_node_budget(depth):
    # the walk down to the split depth and the subtrees below it share one
    # budget: a split run reports no more nodes than a sequential one
    tri = tri_eq(T357, QRoot3(30))
    assert run_search(T357, tri, SearchConfig(node_budget=10)).stats.nodes == 10
    for budget in (1, 10, 40):
        out = run_search(T357, tri, SearchConfig(node_budget=budget, split_depth=depth, workers=1))
        assert out.status == "budget" and 0 < out.stats.nodes <= budget, (budget, out.stats)


@pytest.mark.parametrize("depth, workers", [(1, 1), (2, 1), (3, 1), (2, 2)])
def test_a_split_run_within_its_budget_keeps_the_sequential_verdict(depth, workers):
    # side 15 exhausts in 380 nodes, so a budget of 400 holds the whole
    # tree and the split run exhausts with it, whatever its subtrees' sizes
    tri = tri_eq(T357, QRoot3(15))
    sequential = _summary(run_search(T357, tri, SearchConfig(node_budget=400)))
    assert sequential[:2] == ("exhausted", 380)
    split = run_search(T357, tri, SearchConfig(node_budget=400, split_depth=depth, workers=workers))
    assert _summary(split) == sequential


@pytest.mark.parametrize("sides, budgets", [
    ([QRoot3(15)] * 3, (100, 200, 379, 380, 381)),  # exhausts in 380 nodes
    ([QRoot3(15), QRoot3(25), QRoot3(35)], (500, 813, 814, 815)),  # a tiling at node 814
])
def test_a_split_run_reports_the_sequential_status_at_every_budget(sides, budgets):
    # a budget the tree reaches stops the split run with node_budget nodes,
    # as it stops the sequential search; one it does not reach keeps the
    # sequential verdict and count
    tri = triangle_spec(T357, sides)
    for budget in budgets:
        sequential = run_search(T357, tri, SearchConfig(node_budget=budget))
        for depth in (1, 2, 3):
            split = run_search(T357, tri, SearchConfig(node_budget=budget, split_depth=depth, workers=1))
            assert (split.status, split.stats.nodes) == (sequential.status, sequential.stats.nodes), (budget, depth)
            if split.status != "budget":
                assert _summary(split) == _summary(sequential), (budget, depth)


def test_a_split_run_with_one_worker_expands_only_what_it_reports(monkeypatch):
    # (3,5,7) / equilateral 15 to 300 nodes at split depth 2: the subtrees
    # run in frontier order, each on what the earlier ones left, so the
    # other nodes before the last subtree run plus the subtrees' own nodes,
    # frontier nodes included, come to exactly the 300 the run reports
    walks, runs = [], []
    real_prefixes, real_run = engine._subtree_prefixes, engine._run_subtree

    def recorded_prefixes(search, depth):
        walk = real_prefixes(search, depth)
        walks.append(walk)
        return walk

    def recorded_run(job):
        out = real_run(job)
        runs.append((job[1], out.stats.nodes))
        return out

    monkeypatch.setattr(engine, "_subtree_prefixes", recorded_prefixes)
    monkeypatch.setattr(engine, "_run_subtree", recorded_run)
    out = run_search(T357, tri_eq(T357, QRoot3(15)), SearchConfig(node_budget=300, split_depth=2, workers=1))
    assert (out.status, out.stats.nodes) == ("budget", 300)
    ((frontier, *_),) = walks
    assert [frame for frame, _ in runs] == [frame for frame, _ in frontier[:len(runs)]]
    assert len(runs) < len(frontier)  # the merge stops at the subtree that reaches the budget
    before = frontier[len(runs) - 1][1]
    assert before + sum(nodes for _, nodes in runs) == 300


def test_mirror_flag_respected():
    tri = triangle_spec(T357, [QRoot3(6), QRoot3(10), QRoot3(14)])
    out = run_search(T357, tri, SearchConfig(allow_mirror=False))
    assert out.status == "found"
    assert all(not p.mirrored for p in out.certificate.placements)


def _summary(out):
    cert = out.certificate.to_json() if out.certificate else None
    return out.status, out.stats.nodes, out.stats.max_depth, cert


@pytest.mark.parametrize("tile, sides, expected, depths", [
    (T357, [QRoot3(15)] * 3, ("exhausted", 380), (1, 2, 3)),
    (T357, [QRoot3(15), QRoot3(25), QRoot3(35)], ("found", 814), (1, 2, 3)),
    (ISO, [2 * SQRT3] * 3, ("found", 12), (1, 2, 3, 30)),  # 30 >= N: no frontier
])
def test_split_agrees_with_sequential(tile, sides, expected, depths):
    # same tree, same preorder count up to the first tiling, same certificate
    tri = triangle_spec(tile, sides)
    sequential = _summary(run_search(tile, tri, SearchConfig()))
    assert sequential[:2] == expected
    for depth in depths:
        for workers in (1, 2):
            split = run_search(tile, tri, SearchConfig(split_depth=depth, workers=workers))
            assert _summary(split) == sequential, (depth, workers)
