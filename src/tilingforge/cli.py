"""tiling-forge command line interface.

Exact numbers on the command line: INT, INT/INT, sqrt3, and rational
multiples like 3/2*sqrt3, in the grammar of the certificate files.
Targets: equilateral:SIDE or triangle:X,Y,Z.

Exit codes: search 0=found, 3=budget exhausted, 4=tree exhausted with no
tiling, 2=invalid instance; check 0=valid, 1=violations, 2=parse error;
lemmas verify 0=all pass, 1=failures, 2=unknown id.  A bad path to read or
to write is a usage error: exit 2 before any work starts.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import __version__
from .constraints import (
    ConstraintError,
    TriangleSpec,
    area_count,
    enumerate_dmatrices,
    enumerate_vertex_splits,
    triangle_spec,
)
from .exactnum import QRoot3, rat_to_str
from .search import (
    Certificate,
    InvalidInstance,
    SearchConfig,
    check_certificate,
    extract_edge_relations,
    render_svg,
    resume_from_checkpoint,
    run_search,
)
from .search.certificate import certificate_warnings, write_json
from .tilealgebra import (
    TileError,
    TileShape,
    classify_tile,
    find_eisenstein_parameters,
    relations_for_tile,
    tile_from_sides,
)


def parse_exact(text: str) -> QRoot3:
    """R | sqrt3 | R*sqrt3, with surrounding whitespace stripped and R a
    rational as certificates write it: -?digits or -?digits/digits."""
    s = text.strip()
    try:
        if s == "sqrt3":
            return QRoot3(0, 1)
        if s.endswith("*sqrt3"):
            return QRoot3.from_json({"r": "0", "s": s[: -len("*sqrt3")]})
        return QRoot3.from_json(s)
    except ValueError:
        raise click.BadParameter(f"cannot parse exact number {text!r}") from None


def parse_sides(text: str) -> tuple[QRoot3, QRoot3, QRoot3]:
    parts = text.split(",")
    if len(parts) != 3:
        raise click.BadParameter("need three comma-separated side lengths")
    a, b, c = (parse_exact(p) for p in parts)
    return a, b, c


def parse_target(text: str, tile: TileShape) -> TriangleSpec:
    kind, _, rest = text.partition(":")
    if kind == "equilateral":
        side = parse_exact(rest)
        return triangle_spec(tile, [side, side, side])
    if kind == "triangle":
        return triangle_spec(tile, list(parse_sides(rest)))
    raise click.BadParameter(f"unknown target kind {kind!r}; use equilateral: or triangle:")


def _in_existing_dir(ctx, param, path):
    """A file to write must lie in a directory that exists: checked before
    the command runs, so a bad path loses no result."""
    parent = os.path.dirname(path or "") or "."
    if not os.path.isdir(parent):
        raise click.BadParameter(f"directory {parent!r} does not exist")
    return path


_READ_FILE = click.Path(exists=True, dir_okay=False)
_WRITE_FILE = dict(type=click.Path(dir_okay=False), callback=_in_existing_dir)


@click.group()
@click.version_option(__version__, prog_name="tiling-forge")
def main():
    """Exact tools for N-tilings of a triangle by a 120-degree tile."""


# ---------------------------------------------------------------------------
# tile analyze


@main.group()
def tile():
    """Tile-level analysis."""


@tile.command("analyze")
@click.option("--sides", required=True, help="a,b,c with c opposite the 120-degree angle")
@click.option("--max-j", default=12, type=click.IntRange(min=1), show_default=True,
              help="edge-relation search bound")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def tile_analyze(sides, max_j, fmt):
    """Exact shape data, classification and edge relations of a tile."""
    try:
        t = tile_from_sides(*parse_sides(sides))
    except TileError as exc:
        click.echo(f"invalid tile: {exc}", err=True)
        sys.exit(2)
    report = classify_tile(t)
    relations = relations_for_tile(t, max_j=max_j)
    eis = find_eisenstein_parameters(t.a, t.b, t.c)
    data = {
        "schema": "v1",
        "sides": {"a": repr(t.a), "b": repr(t.b), "c": repr(t.c)},
        "cos_alpha": repr(t.cos_alpha),
        "cos_beta": repr(t.cos_beta),
        "area": repr(t.area),
        "integer_similar": report.integer_similar,
        "alpha_rational_multiple_of_pi": report.alpha_rational_multiple_of_pi,
        "alpha_over_pi": rat_to_str(report.alpha_over_pi) if report.alpha_over_pi is not None else None,
        "edge_relations": [str(r) for r in relations],
        "eisenstein_parameters": (
            {"m": eis[0], "n": eis[1], "scale": repr(eis[2])} if eis else None
        ),
    }
    if fmt == "json":
        click.echo(json.dumps(data, indent=1))
    else:
        click.echo(f"sides: a={data['sides']['a']} b={data['sides']['b']} c={data['sides']['c']}")
        click.echo(f"cos(alpha)={data['cos_alpha']}  cos(beta)={data['cos_beta']}  area={data['area']}")
        click.echo(f"integer-similar: {report.integer_similar}")
        click.echo(
            "alpha is a rational multiple of pi: "
            + (f"yes ({data['alpha_over_pi']} pi)" if report.alpha_rational_multiple_of_pi else "no")
        )
        click.echo("edge relations (j <= %d): %s" % (max_j, ", ".join(map(str, relations)) or "none"))
        if eis:
            click.echo(f"parametrization: m={eis[0]} n={eis[1]} scale={eis[2]!r}")


# ---------------------------------------------------------------------------
# constraints derive


@main.group("constraints")
def constraints_group():
    """Necessary-condition reports."""


@constraints_group.command("derive")
@click.option("--sides", required=True)
@click.option("--target", "target_text", required=True)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="json")
def constraints_derive(sides, target_text, fmt):
    """Vertex splits, boundary compositions and the area count."""
    try:
        t = tile_from_sides(*parse_sides(sides))
        tri = parse_target(target_text, t)
        n = area_count(t, tri)
        report = classify_tile(t)
        splits = enumerate_vertex_splits(report.alpha_over_pi)
        mats = enumerate_dmatrices(t, tri)
    except (TileError, ConstraintError) as exc:
        click.echo(f"invalid instance: {exc}", err=True)
        sys.exit(2)
    data = {
        "schema": "v1",
        "N": rat_to_str(n),
        "splits": [list(s.as_tuple()) for s in splits],
        "dmatrices": [m.to_json() for m in mats],
        "dmatrices_with_c_on_every_side": [
            m.to_json() for m in mats if m.c_columns_positive()
        ],
    }
    if fmt == "json":
        click.echo(json.dumps(data, indent=1))
    else:
        click.echo(f"N = {data['N']}")
        click.echo(f"vertex splits (P,Q,R): {data['splits']}")
        click.echo(f"boundary compositions: {len(mats)}")


# ---------------------------------------------------------------------------
# lemmas verify


@main.group()
def lemmas():
    """Exact identity checks."""


@lemmas.command("verify")
@click.option("--id", "ids", default=None, help="comma-separated check ids")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def lemmas_verify(ids, fmt):
    """Run all (or selected) identity checks; exit 0 iff all pass."""
    from .lemmalab import run_checks  # only this command needs the suite

    id_list = [s.strip() for s in ids.split(",")] if ids else None
    try:
        results = run_checks(id_list)
    except KeyError as exc:
        click.echo(f"unknown lemma id: {exc.args[0]}", err=True)
        sys.exit(2)
    if fmt == "json":
        click.echo(json.dumps([c.to_json() for c in results], indent=1))
    else:
        for c in results:
            click.echo(f"[{c.status.upper():4s}] {c.id}")
            if c.status == "fail":
                for e in c.details:
                    if not e.ok:
                        click.echo(f"    {e.name}: expected {e.expected}, computed {e.computed}")
    sys.exit(0 if all(c.status == "pass" for c in results) else 1)


# ---------------------------------------------------------------------------
# search / check / render


@main.command()
@click.option("--sides", default=None, help="tile sides (required; not with --resume)")
@click.option("--target", "target_text", default=None, help="target triangle (required; not with --resume)")
@click.option("--node-budget", default=10**8, type=click.IntRange(min=1), show_default=True)
@click.option("--workers", default=1, type=click.IntRange(min=1), envvar="TILING_FORGE_WORKERS",
              show_default=True, help="worker processes (or TILING_FORGE_WORKERS)")
@click.option("--split-depth", default=0, type=click.IntRange(min=0), show_default=True,
              help="partition depth for the worker pool")
@click.option("--no-mirror", is_flag=True, help="disallow mirrored copies of the tile")
@click.option("--paper-pruning", is_flag=True, help="opt-in vertex-splitting cap (exhaustion becomes conditional)")
@click.option("--checkpoint", "checkpoint_path", default=None, **_WRITE_FILE)
@click.option("--resume", "resume_path", default=None, type=_READ_FILE)
@click.option("--cert-out", default="certificate.json", show_default=True, **_WRITE_FILE)
@click.option("--stats-out", default="search_stats.json", show_default=True, **_WRITE_FILE)
def search(sides, target_text, node_budget, workers, split_depth, no_mirror, paper_pruning,
           checkpoint_path, resume_path, cert_out, stats_out):
    """Exhaustive search for a tiling of TARGET by the tile SIDES."""
    config = SearchConfig(
        node_budget=node_budget,
        workers=workers,
        split_depth=split_depth,
        allow_mirror=not no_mirror,
        paper_pruning=paper_pruning,
        checkpoint_path=checkpoint_path,
    )
    for flag, value in (("--resume", resume_path), ("--checkpoint", checkpoint_path)):
        if value and split_depth > 0:
            click.echo(f"{flag} cannot be combined with --split-depth > 0", err=True)
            sys.exit(2)
    if resume_path:
        # the checkpoint sets the instance; a flag that would change it is refused
        for flag, given in (("--sides", sides is not None), ("--target", target_text is not None),
                            ("--no-mirror", no_mirror), ("--paper-pruning", paper_pruning)):
            if given:
                click.echo(f"{flag} cannot be combined with --resume", err=True)
                sys.exit(2)
    if not resume_path and (sides is None or target_text is None):
        click.echo("need --sides and --target (or --resume)", err=True)
        sys.exit(2)
    try:
        if resume_path:
            outcome = resume_from_checkpoint(resume_path, config)
        else:
            t = tile_from_sides(*parse_sides(sides))
            tri = parse_target(target_text, t)
            outcome = run_search(t, tri, config)
    except (TileError, ConstraintError, InvalidInstance) as exc:
        click.echo(f"invalid instance: {exc}", err=True)
        sys.exit(2)

    stats = outcome.stats.to_json()
    stats["schema"] = "v1"
    stats["status"] = outcome.status
    if outcome.checkpoint_path:
        stats["checkpoint"] = outcome.checkpoint_path
    relations = []
    warnings = []
    if outcome.certificate is not None:
        outcome.certificate.save(cert_out)
        relations = [str(r) for r in extract_edge_relations(outcome.certificate)]
        warnings = certificate_warnings(outcome.certificate)
        stats["certificate"] = cert_out
        stats["edge_relations"] = relations
        stats["warnings"] = warnings
    write_json(stats_out, stats, indent=1)

    if outcome.status == "found":
        click.echo(f"found N={outcome.certificate.n} tiling; certificate -> {cert_out}")
        click.echo(f"edge relations realized: {', '.join(relations) or 'none'}")
        for w in warnings:
            click.echo(f"warning: {w}")
        sys.exit(0)
    if outcome.status == "budget":
        click.echo(f"node budget exhausted after {stats['nodes']} nodes"
                   + (f"; checkpoint -> {outcome.checkpoint_path}" if outcome.checkpoint_path else ""))
        sys.exit(3)
    label = "conditional on the vertex-splitting cap" if stats["conditional_on_paper_lemmas"] else "unconditional"
    click.echo(f"no tiling: search tree exhausted ({label}) after {stats['nodes']} nodes")
    sys.exit(4)


def _load_certificate(path) -> Certificate:
    """The certificate at path; exits 2 if it cannot be parsed."""
    try:
        return Certificate.load(path)
    except (ValueError, KeyError, TypeError) as exc:
        click.echo(f"cannot parse certificate: {exc}", err=True)
        sys.exit(2)


@main.command()
@click.argument("cert_path", type=_READ_FILE)
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def check(cert_path, fmt):
    """Validate a certificate with the independent exact checker."""
    cert = _load_certificate(cert_path)
    violations = check_certificate(cert)
    if violations:
        if fmt == "json":
            click.echo(json.dumps({"valid": False, "violations": [str(v) for v in violations]}))
        else:
            for v in violations:
                click.echo(str(v))
        sys.exit(1)
    relations = [str(r) for r in extract_edge_relations(cert)]
    warnings = certificate_warnings(cert)
    if fmt == "json":
        click.echo(json.dumps({"valid": True, "n": cert.n, "edge_relations": relations,
                               "warnings": warnings}))
    else:
        click.echo(f"valid N={cert.n} tiling")
        click.echo(f"edge relations realized: {', '.join(relations) or 'none'}")
        for w in warnings:
            click.echo(f"warning: {w}")
    sys.exit(0)


@main.command()
@click.argument("cert_path", type=_READ_FILE)
@click.argument("out_path", **_WRITE_FILE)
def render(cert_path, out_path):
    """Render a certificate to SVG."""
    render_svg(_load_certificate(cert_path), out_path)
    click.echo(f"wrote {out_path}")


if __name__ == "__main__":
    main()
