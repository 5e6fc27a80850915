import copy
import json
from dataclasses import replace
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tilingforge import cli, search
from tilingforge.cli import main, parse_exact, parse_sides
from tilingforge.exactnum import QRoot3
from fractions import Fraction


@pytest.fixture
def runner():
    return CliRunner()


def test_parse_exact():
    assert parse_exact("7") == QRoot3(7)
    assert parse_exact("3/2") == QRoot3(Fraction(3, 2))
    assert parse_exact("sqrt3") == QRoot3(0, 1)
    assert parse_exact("3/2*sqrt3") == QRoot3(0, Fraction(3, 2))
    assert parse_exact("2*sqrt3") == QRoot3(0, 2)
    assert parse_exact(" -3/2*sqrt3 ") == QRoot3(0, Fraction(-3, 2))  # surrounding space is stripped
    with pytest.raises(Exception):
        parse_exact("sqrt2")
    with pytest.raises(Exception):
        parse_sides("1,2")


def test_tile_analyze(runner):
    res = runner.invoke(main, ["tile", "analyze", "--sides", "3,5,7", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["cos_alpha"] == "13/14"
    assert data["integer_similar"] is True
    assert data["alpha_rational_multiple_of_pi"] is False
    assert "2b = 1a + 1c" in data["edge_relations"]
    assert data["eisenstein_parameters"] == {"m": 2, "n": 1, "scale": "1"}


def test_tile_analyze_parametrization_past_m_60(runner):
    res = runner.invoke(main, ["tile", "analyze", "--sides", "125,3843,3907", "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["eisenstein_parameters"] == {"m": 62, "n": 1, "scale": "1"}


@pytest.mark.parametrize("sides, scale", [("6,10,14", "2"), ("3/2,5/2,7/2", "1/2"),
                                          ("3*sqrt3,5*sqrt3,7*sqrt3", "1*sqrt3")])
def test_tile_analyze_reports_the_exact_scale(runner, sides, scale):
    res = runner.invoke(main, ["tile", "analyze", "--sides", sides, "--format", "json"])
    assert res.exit_code == 0
    assert json.loads(res.output)["eisenstein_parameters"] == {"m": 2, "n": 1, "scale": scale}


@pytest.mark.parametrize("max_j", ["0", "-4"])
def test_tile_analyze_rejects_max_j_below_one(runner, max_j):
    res = runner.invoke(main, ["tile", "analyze", "--sides", "3,5,7", "--max-j", max_j])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert "edge relations" not in res.output


def test_tile_analyze_isosceles(runner):
    res = runner.invoke(main, ["tile", "analyze", "--sides", "1,1,sqrt3"])
    assert res.exit_code == 0
    assert "1/6 pi" in res.output


def test_tile_analyze_invalid(runner):
    res = runner.invoke(main, ["tile", "analyze", "--sides", "3,5,6"])
    assert res.exit_code == 2


def test_constraints_derive(runner):
    res = runner.invoke(main, ["constraints", "derive", "--sides", "3,5,7",
                               "--target", "equilateral:15"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["N"] == "15"
    assert [3, 3, 0] in data["splits"]
    assert len(data["dmatrices"]) == 27


def test_constraints_derive_isosceles_tile_at_alpha_pi_over_6(runner):
    # the isosceles tile has alpha = pi/6 exactly: P + Q = 6 with R = 0
    res = runner.invoke(main, ["constraints", "derive", "--sides", "1,1,sqrt3",
                               "--target", "equilateral:sqrt3"])
    assert res.exit_code == 0, res.output
    data = json.loads(res.output)
    assert data["N"] == "3"
    assert sorted(data["splits"]) == [[p, 6 - p, 0] for p in range(7)]


def test_lemmas_verify_selected(runner):
    res = runner.invoke(main, ["lemmas", "verify", "--id", "norm-table-15,norm-table-9"])
    assert res.exit_code == 0
    assert "[PASS] norm-table-15" in res.output
    assert "[PASS] norm-table-9" in res.output


def test_lemmas_verify_unknown_id(runner):
    res = runner.invoke(main, ["lemmas", "verify", "--id", "norm-table-99"])
    assert res.exit_code == 2
    assert "unknown lemma id" in res.output


def test_lemmas_verify_all_reports_reference_mismatches(runner):
    res = runner.invoke(main, ["lemmas", "verify"])
    assert res.exit_code == 1
    assert "[FAIL] minpoly-pi12-area" in res.output
    assert "[FAIL] reduction-A-eq-alpha" in res.output
    assert res.output.count("[PASS]") == 8


def test_lemmas_verify_json(runner):
    res = runner.invoke(main, ["lemmas", "verify", "--id", "prime-splitting", "--format", "json"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data[0]["id"] == "prime-splitting"
    assert data[0]["status"] == "pass"


def test_lemmas_verify_json_matches_recorded_output(runner):
    # the recorded stdout of `tiling-forge lemmas verify --format json`;
    # the two errata checks fail, so the exit code is 1
    res = runner.invoke(main, ["lemmas", "verify", "--format", "json"])
    assert res.exit_code == 1
    assert res.stdout_bytes == (Path(__file__).parent / "data" / "lemmas_verify.json").read_bytes()


def test_search_check_render_roundtrip(runner, tmp_path):
    cert = str(tmp_path / "cert.json")
    stats = str(tmp_path / "stats.json")
    res = runner.invoke(main, ["search", "--sides", "1,1,sqrt3", "--target", "equilateral:sqrt3",
                               "--cert-out", cert, "--stats-out", stats])
    assert res.exit_code == 0, res.output
    assert "found N=3 tiling" in res.output
    stat = json.loads(open(stats).read())
    assert stat["status"] == "found" and stat["schema"] == "v1"

    res = runner.invoke(main, ["check", cert])
    assert res.exit_code == 0
    assert "valid N=3 tiling" in res.output

    svg = str(tmp_path / "out.svg")
    res = runner.invoke(main, ["render", cert, svg])
    assert res.exit_code == 0
    assert open(svg).read().startswith("<svg")


def test_search_quadratic(runner, tmp_path):
    cert = str(tmp_path / "c4.json")
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "triangle:6,10,14",
                               "--cert-out", cert, "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 0
    assert "found N=4" in res.output


def test_search_budget_exit(runner, tmp_path):
    ck = str(tmp_path / "ck.json")
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "equilateral:15",
                               "--node-budget", "100", "--checkpoint", ck,
                               "--cert-out", str(tmp_path / "c.json"),
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 3
    assert "checkpoint" in res.output

    # resume needs no --sides/--target: the checkpoint carries the instance
    res = runner.invoke(main, ["search", "--resume", ck, "--node-budget", "200", "--checkpoint", ck,
                               "--cert-out", str(tmp_path / "c.json"),
                               "--stats-out", str(tmp_path / "s.json")])
    # --resume and --checkpoint on one file continue the run in place
    assert res.exit_code == 3
    assert json.loads(Path(ck).read_text())["nodes"] == 200
    res = runner.invoke(main, ["search", "--resume", ck,
                               "--cert-out", str(tmp_path / "c.json"),
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 4
    assert "unconditional" in res.output


def test_search_requires_instance_or_resume(runner):
    res = runner.invoke(main, ["search", "--node-budget", "10"])
    assert res.exit_code == 2


def test_search_exhausted_exit(runner, tmp_path):
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "equilateral:15",
                               "--cert-out", str(tmp_path / "c.json"),
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 4


def test_search_invalid_instance(runner, tmp_path):
    res = runner.invoke(main, ["search", "--sides", "3,5,6", "--target", "equilateral:15"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "equilateral:10"])
    assert res.exit_code == 2


def test_check_tampered_and_truncated(runner, tmp_path):
    cert = str(tmp_path / "cert.json")
    res = runner.invoke(main, ["search", "--sides", "1,1,sqrt3", "--target", "equilateral:sqrt3",
                               "--cert-out", cert, "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 0
    data = json.load(open(cert))
    data["placements"][0]["v"][0][0]["r"] = "1/100"
    bad = str(tmp_path / "bad.json")
    json.dump(data, open(bad, "w"))
    res = runner.invoke(main, ["check", bad])
    assert res.exit_code == 1
    assert "Overlap" in res.output or "Noncongruent" in res.output

    trunc = str(tmp_path / "trunc.json")
    open(trunc, "w").write(open(cert).read()[:50])
    res = runner.invoke(main, ["check", trunc])
    assert res.exit_code == 2


def test_env_var_workers(runner, tmp_path, monkeypatch):
    seen = []

    def run_search(tile, tri, config):
        seen.append(config.workers)
        return search.run_search(tile, tri, replace(config, workers=1))

    monkeypatch.setattr(cli, "run_search", run_search)
    args = ["search", "--sides", "1,1,sqrt3", "--target", "equilateral:sqrt3",
            "--cert-out", str(tmp_path / "c.json"), "--stats-out", str(tmp_path / "s.json")]
    monkeypatch.setenv("TILING_FORGE_WORKERS", "2")
    assert runner.invoke(main, args).exit_code == 0
    assert runner.invoke(main, args + ["--workers", "3"]).exit_code == 0
    monkeypatch.delenv("TILING_FORGE_WORKERS")
    assert runner.invoke(main, args).exit_code == 0
    monkeypatch.setenv("TILING_FORGE_WORKERS", "abc")
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert seen == [2, 3, 1]


@pytest.mark.parametrize("extra, env", [
    (["--split-depth", "1", "--workers", "0"], None),
    (["--split-depth", "1", "--workers", "-1"], None),
    (["--split-depth", "1"], "0"),
    (["--split-depth", "-1"], None),
    (["--node-budget", "0"], None),
    (["--node-budget", "-5"], None),
])
def test_search_rejects_out_of_range_counts(runner, tmp_path, monkeypatch, extra, env):
    # a usage error (exit 2) before any search, like a non-integer count
    if env is not None:
        monkeypatch.setenv("TILING_FORGE_WORKERS", env)
    res = runner.invoke(main, ["search", "--sides", "1,1,sqrt3", "--target", "equilateral:sqrt3", *extra,
                               "--cert-out", str(tmp_path / "c.json"),
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert not (tmp_path / "s.json").exists()


def test_console_entrypoint():
    out = subprocess.run([sys.executable, "-m", "tilingforge.cli", "--version"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "tiling-forge" in out.stdout


def test_cli_import_leaves_out_the_worker_pool_and_the_lemma_suite():
    # every command pays for the CLI's imports; only a split search with
    # workers needs multiprocessing, and only `lemmas verify` the suite
    code = ("import sys, tilingforge.cli; "
            "print([m for m in ('multiprocessing', 'tilingforge.lemmalab') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _split_search(runner, tmp_path, *extra):
    return runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "equilateral:15",
                                "--split-depth", "2", *extra,
                                "--cert-out", str(tmp_path / "c.json"),
                                "--stats-out", str(tmp_path / "s.json")])


def test_search_rejects_resume_with_split_depth(runner, tmp_path):
    ck = tmp_path / "ck.json"
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "equilateral:15",
                               "--node-budget", "10", "--checkpoint", str(ck),
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 3
    (tmp_path / "s.json").unlink()
    res = _split_search(runner, tmp_path, "--resume", str(ck))
    assert res.exit_code == 2
    assert res.stderr == "--resume cannot be combined with --split-depth > 0\n"
    assert not (tmp_path / "s.json").exists()


def test_search_rejects_checkpoint_with_split_depth(runner, tmp_path):
    ck = tmp_path / "ck.json"
    res = _split_search(runner, tmp_path, "--node-budget", "10", "--checkpoint", str(ck))
    assert res.exit_code == 2
    assert res.stderr == "--checkpoint cannot be combined with --split-depth > 0\n"
    assert not ck.exists()
    assert not (tmp_path / "s.json").exists()


# -- bad paths: a usage error (exit 2) before any search or render starts --

@pytest.mark.parametrize("first, second", [("--cert-out", "--stats-out"), ("--cert-out", "--checkpoint"),
                                           ("--stats-out", "--checkpoint")])
def test_search_rejects_two_outputs_on_one_file_before_searching(runner, tmp_path, monkeypatch, first, second):
    # the later write would replace the earlier output: a found certificate
    # overwritten by the stats could no longer be checked
    calls = []
    monkeypatch.setattr(cli, "run_search", _never_called(calls))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    paths = {"--cert-out": "c.json", "--stats-out": "s.json", first: "out.json", second: "sub/../out.json"}
    res = runner.invoke(main, ["search", "--sides", "1,1,sqrt3", "--target", "equilateral:sqrt3",
                               *[x for kv in paths.items() for x in kv]])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert res.stderr == f"{first} and {second} name the same file 'sub/../out.json'\n"
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


def _never_called(calls):
    return lambda *args, **kwargs: calls.append(args)


@pytest.mark.parametrize("flag, path", [
    ("--cert-out", "missing/c.json"),
    ("--stats-out", "missing/s.json"),
    ("--checkpoint", "missing/ck.json"),
    ("--cert-out", "."),
    ("--stats-out", "."),
    ("--checkpoint", "."),
])
def test_search_rejects_an_output_path_it_cannot_write_before_searching(runner, tmp_path, monkeypatch,
                                                                       flag, path):
    # a directory, or a file in a directory that does not exist: the search
    # would only fail once it came to write, and lose what it found
    calls = []
    monkeypatch.setattr(cli, "run_search", _never_called(calls))
    monkeypatch.setattr(cli, "resume_from_checkpoint", _never_called(calls))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ck.json").write_text("{}")
    paths = {"--cert-out": "c.json", "--stats-out": "s.json", flag: path}
    for instance in (["--sides", "3,5,7", "--target", "equilateral:15"], ["--resume", "ck.json"]):
        res = runner.invoke(main, ["search", *instance, *[x for kv in paths.items() for x in kv]])
        assert res.exit_code == 2 and _clean_exit(res), res.output
        assert f"Invalid value for '{flag}'" in res.stderr
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]


@pytest.mark.parametrize("out", ["missing/out.svg", "."])
def test_render_rejects_an_output_path_it_cannot_write_before_rendering(runner, tmp_path, monkeypatch, out):
    calls = []
    monkeypatch.setattr(cli, "render_svg", _never_called(calls))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.json").write_text("{}")
    res = runner.invoke(main, ["render", "c.json", out])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert "Invalid value for 'OUT_PATH'" in res.stderr
    assert calls == []


@pytest.mark.parametrize("args", [["check", "."], ["render", ".", "out.svg"], ["search", "--resume", "."]],
                         ids=["check", "render", "resume"])
def test_a_directory_to_read_is_a_usage_error(runner, tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    res = runner.invoke(main, args)
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert "'.' is a directory" in res.stderr
    assert list(tmp_path.iterdir()) == []


# -- malformed certificates and checkpoints: a verdict or exit 2, never a traceback --

def _clean_exit(res):
    return res.exception is None or isinstance(res.exception, SystemExit)


def test_check_and_render_reject_a_non_object(runner, tmp_path):
    bad = tmp_path / "list.json"
    bad.write_text("[]")
    for args in (["check", str(bad)], ["render", str(bad), str(tmp_path / "out.svg")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and _clean_exit(res), res.output
        assert "cannot parse certificate" in res.stderr


def test_check_and_render_reject_an_empty_certificate(runner, search_files, tmp_path):
    # no placements is a parse error for both commands, not an area mismatch
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps(dict(search_files[0], placements=[])))
    svg = tmp_path / "out.svg"
    for args in (["check", str(empty)], ["render", str(empty), str(svg)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and _clean_exit(res), res.output
        assert res.stderr == "cannot parse certificate: empty certificate\n"
    assert not svg.exists()


def test_check_and_render_reject_non_boolean_flags(runner, search_files, tmp_path):
    # "false" is a string, which bool() would read as true
    mirrored = copy.deepcopy(search_files[0])
    mirrored["placements"][0]["mirrored"] = "false"
    allow = dict(search_files[0], allow_mirror="false")
    for doc, flag in ((mirrored, "mirrored"), (allow, "allow_mirror")):
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps(doc))
        for args in (["check", str(cert)], ["render", str(cert), str(tmp_path / "out.svg")]):
            res = runner.invoke(main, args)
            assert res.exit_code == 2 and _clean_exit(res), res.output
            assert res.stderr == f"cannot parse certificate: {flag} must be a JSON boolean, not 'false'\n"


def test_check_reads_a_missing_allow_mirror_as_true(runner, search_files, tmp_path):
    doc = copy.deepcopy(search_files[0])
    doc["placements"][0]["mirrored"] = True
    del doc["allow_mirror"]
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    res = runner.invoke(main, ["check", str(cert)])
    # mirrored copies stay allowed, so the only fault is the flipped flag
    assert res.exit_code == 1 and res.output == "ChiralityMismatch(0)\n", res.output


@pytest.mark.parametrize("text", ["{not json", "[]", '{"schema": "v1"}', '{"schema": "v0"}'])
def test_resume_rejects_a_malformed_checkpoint(runner, tmp_path, text):
    ck = tmp_path / "ck.json"
    ck.write_text(text)
    res = runner.invoke(main, ["search", "--resume", str(ck), "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert "invalid instance" in res.stderr


@pytest.mark.parametrize("angles", [[[1, 1, 0]] * 3, [[0, 0, 1], [0, 1, 0], [1, 0, 0]]])
def test_resume_rejects_target_angles_its_sides_do_not_give(runner, tmp_path, angles):
    # the sides 24, 21, 15 give the corners 2a+b, a+b and b; a checkpoint
    # that claims other corners, or the tile's own (which would turn the
    # splitting cap off), is not resumed
    ck = tmp_path / "ck.json"
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "triangle:24,21,15",
                               "--node-budget", "10", "--checkpoint", str(ck), "--paper-pruning",
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 3
    saved = json.loads(ck.read_text())
    assert saved["target"]["angles"] == [[2, 1, 0], [1, 1, 0], [0, 1, 0]]
    resume = ["search", "--resume", str(ck), "--node-budget", "12", "--stats-out", str(tmp_path / "s.json")]
    assert runner.invoke(main, resume).exit_code == 3
    saved["target"]["angles"] = angles
    ck.write_text(json.dumps(saved))
    res = runner.invoke(main, resume)
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert "target angles do not match its sides" in res.stderr


# the 6, 10, 14 target is similar to the tile, with the corners c, b and a;
# other corners, or sides whose apex leaves Q(sqrt3)^2, are a parse error
REWRITTEN_TARGET = [
    ({"angles": [[0, 0, 1], [0, 2, 0], [1, 0, 0]]}, "target angles do not match its sides"),
    ({"angles": [[1, 1, 0]] * 3}, "target angles do not match its sides"),
    ({"X": "15", "Y": "15", "Z": "14"}, "target corner with cos = 7/15 is not a combination of tile angles"),
]


@pytest.mark.parametrize("target, message", REWRITTEN_TARGET, ids=["b-twice", "a+b-thrice", "apex"])
def test_check_and_render_reject_target_angles_its_sides_do_not_give(runner, search_files, tmp_path,
                                                                     target, message):
    doc = copy.deepcopy(search_files[0])
    assert doc["target"]["angles"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    doc["target"].update(target)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    svg = tmp_path / "out.svg"
    for args in (["check", str(cert)], ["render", str(cert), str(svg)]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and _clean_exit(res), res.output
        assert res.stderr == f"cannot parse certificate: {message}\n"
    assert not svg.exists()


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


# a JSON float or boolean where an exact number belongs
INEXACT_CERTIFICATE = [
    (("target", "X"), {"r": 14.0, "s": "0"}, "not an exact number: {'r': 14.0, 's': '0'}"),
    (("tile", "a"), {"r": "3", "s": 0.0}, "not an exact number: {'r': '3', 's': 0.0}"),
    (("placements", 0, "v", 0, 0), {"r": False, "s": 0}, "not an exact number: {'r': False, 's': 0}"),
    (("target", "angles", 0, 2), True, "target angles must be three triples of nonnegative integers"),
]


@pytest.mark.parametrize("path, value, message", INEXACT_CERTIFICATE,
                         ids=["float-side", "float-tile-side", "bool-vertex", "bool-count"])
def test_check_rejects_inexact_numbers(runner, search_files, tmp_path, path, value, message):
    doc = copy.deepcopy(search_files[0])
    _set(doc, path, value)
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    res = runner.invoke(main, ["check", "--format", "json", str(cert)])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert res.stderr == f"cannot parse certificate: {message}\n"


def test_resume_rejects_inexact_numbers(runner, search_files, tmp_path):
    doc = copy.deepcopy(search_files[1])
    doc["target"]["X"] = {"r": 15.0, "s": "0"}
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(doc))
    res = runner.invoke(main, ["search", "--resume", str(ck), "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert res.stderr == "invalid instance: malformed checkpoint: not an exact number: {'r': 15.0, 's': '0'}\n"


# strings that Fraction() reads but rat_to_str never writes: an exponent
# (read by Fraction(), this one kept `check` busy for tens of seconds), a
# decimal, a space, an underscore and a plus sign
NOT_WRITTEN = ["1e-300000", "0.5", " 1/2", "1_0", "+1"]


@pytest.mark.parametrize("text", NOT_WRITTEN)
def test_check_render_and_resume_reject_numbers_rat_to_str_does_not_write(runner, search_files, tmp_path,
                                                                          text):
    doc = copy.deepcopy(search_files[0])
    coordinate = doc["placements"][0]["v"][0][0]
    coordinate["r"] = text
    cert = tmp_path / "cert.json"
    cert.write_text(json.dumps(doc))
    for args in (["check", str(cert)], ["render", str(cert), str(tmp_path / "out.svg")]):
        res = runner.invoke(main, args)
        assert res.exit_code == 2 and _clean_exit(res), res.output
        assert res.stderr == f"cannot parse certificate: not an exact number: {coordinate!r}\n"
    doc = copy.deepcopy(search_files[1])
    doc["target"]["X"]["r"] = text
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(doc))
    res = runner.invoke(main, ["search", "--resume", str(ck), "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    number = doc["target"]["X"]
    assert res.stderr == f"invalid instance: malformed checkpoint: not an exact number: {number!r}\n"


@pytest.mark.parametrize("text", NOT_WRITTEN)
def test_command_line_numbers_follow_the_file_grammar(runner, tmp_path, text):
    # a number on the command line is read as the files are, once the space
    # around it is stripped, so here the space goes inside the number; the
    # exponent is refused before any arithmetic on it
    number = text if text == text.strip() else text.strip().replace("/", " /")
    for args, shown in (
        (["search", "--sides", "3,5,7", "--target", f"equilateral:{number}",
          "--cert-out", str(tmp_path / "c.json"), "--stats-out", str(tmp_path / "s.json")], number),
        (["tile", "analyze", "--sides", f"3,5,{number}"], number),
        (["tile", "analyze", "--sides", f"3,5,{number}*sqrt3"], f"{number}*sqrt3"),
        (["constraints", "derive", "--sides", "3,5,7", "--target", f"equilateral:{number}"], number),
    ):
        t0 = time.monotonic()
        res = runner.invoke(main, args)
        assert time.monotonic() - t0 < 5
        assert res.exit_code == 2 and _clean_exit(res), res.output
        assert f"cannot parse exact number {shown!r}" in res.stderr
    assert not list(tmp_path.iterdir())


def _rewritten(doc):
    """doc with every part p/q of a Q(sqrt3) value written unreduced, as
    2p/2q, and every integer part as a JSON integer."""
    if isinstance(doc, dict) and set(doc) == {"r", "s"}:
        return {k: int(v) if "/" not in v else "/".join(str(2 * int(n)) for n in v.split("/"))
                for k, v in doc.items()}
    if isinstance(doc, dict):
        return {k: _rewritten(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_rewritten(v) for v in doc]
    return doc


def test_check_and_resume_read_unreduced_fractions_and_integers(runner, search_files, tmp_path):
    doc = _rewritten(search_files[0])
    text = json.dumps(doc)
    assert any(type(v) is int for v in doc["tile"]["a"].values())
    assert any("/" in v for p in doc["placements"] for xy in p["v"] for c in xy for v in c.values()
               if type(v) is str)
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    res = runner.invoke(main, ["check", str(cert)])
    assert res.exit_code == 0 and res.output.startswith("valid N=4 tiling\n"), res.output
    # a negative integer string is read, and the checker gives its verdict
    doc["placements"][0]["v"][0][0]["r"] = "-3"
    cert.write_text(json.dumps(doc))
    res = runner.invoke(main, ["check", str(cert)])
    assert res.exit_code == 1 and _clean_exit(res), res.output
    stats = []
    for i, ck_doc in enumerate((search_files[1], _rewritten(search_files[1]))):
        ck = tmp_path / f"ck{i}.json"
        ck.write_text(json.dumps(ck_doc))
        res = runner.invoke(main, ["search", "--resume", str(ck), "--node-budget", "12",
                                   "--stats-out", str(tmp_path / f"s{i}.json")])
        assert res.exit_code == 3, res.output
        stats.append(json.loads((tmp_path / f"s{i}.json").read_text())["nodes"])
    assert stats[0] == stats[1] > 10


@pytest.mark.parametrize("extra", [["--sides", "1,1,sqrt3"], ["--target", "equilateral:sqrt3"],
                                   ["--no-mirror"], ["--paper-pruning"]])
def test_search_rejects_instance_flags_with_resume(runner, search_files, tmp_path, extra):
    # the checkpoint sets the tile, the target and the flags; none is overridden
    ck = tmp_path / "ck.json"
    ck.write_text(json.dumps(search_files[1]))
    res = runner.invoke(main, ["search", "--resume", str(ck), *extra,
                               "--stats-out", str(tmp_path / "s.json")])
    assert res.exit_code == 2 and _clean_exit(res), res.output
    assert res.stderr == f"{extra[0]} cannot be combined with --resume\n"
    assert not (tmp_path / "s.json").exists()


# replacement values for one node of a JSON document
JUNK = [None, True, 0, -1, 7, 1.5, "", "x", "1/0", "-3", [], {}, [0], [-1, 0], {"r": "1", "s": "0"},
        float("inf")]


def _paths(doc, here=()):
    """Every path to a node of a JSON document."""
    yield here
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, here + (key,))


@st.composite
def _mutated(draw, doc):
    """The JSON text of doc with one node replaced or deleted, or cut short."""
    if draw(st.integers(0, 9)) == 0:
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))]
    doc = copy.deepcopy(doc)
    path = draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return json.dumps(draw(st.sampled_from(JUNK)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(JUNK))
    return json.dumps(doc)


def _search_files(tmp_path_factory):
    """An N=4 certificate and a checkpoint of (3,5,7) / side 15 at 10 nodes."""
    base = tmp_path_factory.mktemp("fuzz")
    runner = CliRunner()
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "triangle:6,10,14",
                               "--cert-out", str(base / "c.json"), "--stats-out", str(base / "s.json")])
    assert res.exit_code == 0
    res = runner.invoke(main, ["search", "--sides", "3,5,7", "--target", "equilateral:15",
                               "--node-budget", "10", "--checkpoint", str(base / "ck.json"),
                               "--stats-out", str(base / "s.json")])
    assert res.exit_code == 3
    return json.loads((base / "c.json").read_text()), json.loads((base / "ck.json").read_text())


@pytest.fixture(scope="module")
def search_files(tmp_path_factory):
    return _search_files(tmp_path_factory)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_certificate_gives_a_verdict_or_exit_2(search_files, tmp_path, data):
    text = data.draw(_mutated(search_files[0]))
    cert = tmp_path / "cert.json"
    cert.write_text(text)
    runner = CliRunner()
    res = runner.invoke(main, ["check", str(cert)])
    assert _clean_exit(res) and res.exit_code in (0, 1, 2), (text, res.output)
    res = runner.invoke(main, ["render", str(cert), str(tmp_path / "out.svg")])
    assert _clean_exit(res) and res.exit_code in (0, 2), (text, res.output)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_checkpoint_resumes_or_exits_2(search_files, tmp_path, data):
    text = data.draw(_mutated(search_files[1]))
    ck = tmp_path / "ck.json"
    ck.write_text(text)
    res = CliRunner().invoke(main, ["search", "--resume", str(ck), "--node-budget", "12",
                                    "--cert-out", str(tmp_path / "c.json"),
                                    "--stats-out", str(tmp_path / "s.json")])
    # found, budget, exhausted, or an invalid instance
    assert _clean_exit(res) and res.exit_code in (0, 2, 3, 4), (text, res.output)
