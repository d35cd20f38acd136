"""Command-line front end: reproducible runs from schedule files to figures.

Commands compose through files: ``roots`` and ``levels`` write what
``verify`` and ``plot`` read, with no hidden state.  Every command writes a
manifest with the effective parameters and content hashes of its inputs.

A flag wins over the ``--config`` JSON object, and the config wins over the
default in the option's decorator.  click applies that order itself: the
group hands the config to every command as its ``default_map``, so config
keys are the option names with ``-`` replaced by ``_``.

Exit codes: 0 success, 2 invalid input (a level seed at a saddle among
them), 3 numerical failure (non-convergence or a branch collision),
4 missing files.

The commands import the array modules (numpy, ``potential``,
``experiments``, ``svgfig``) and ``algcurve`` themselves, so ``poly``,
``roots`` and ``curve`` start without numpy.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from pathlib import Path

import click
import mpmath as mp

from . import serialize
from .errors import (
    BranchCollisionError,
    InvalidInputError,
    NonConvergenceError,
    SaddleAtSeedError,
)
from .hyppoly import build_polynomial
from .rootfinding import find_roots


def _parse_list(value, sep, kind):
    """A flag string split at ``sep``, or a config list, as a list of ``kind``."""
    try:
        return [kind(v) for v in (value.split(sep) if isinstance(value, str) else value)]
    except (TypeError, ValueError):
        raise InvalidInputError(f"{value!r} is not a {sep!r}-separated list of {kind.__name__}") from None


def _parse_fields(name, value, sep, count, kind):
    """The value of option ``name`` as ``count`` finite ``kind`` values."""
    fields = tuple(_parse_list(value, sep, kind))
    if len(fields) != count or not all(map(math.isfinite, fields)):
        raise InvalidInputError(f"{name} {value!r} must be {count} {sep!r}-separated finite "
                                f"{kind.__name__} values")
    return fields


def _parse_box(ctx, param, value):
    """The ``--box`` value as (xmin, xmax, ymin, ymax): xmin < xmax and ymin < ymax."""
    box = _parse_fields("--box", value, ":", 4, float)
    if not (box[0] < box[1] and box[2] < box[3]):
        raise InvalidInputError(f"box {value!r} must have xmin < xmax and ymin < ymax")
    return box


def _parse_n_list(ctx, param, value):
    """The ``--n-list`` value as a list of integers, none repeated."""
    ns = _parse_list(value, ",", int)
    if not ns or len(set(ns)) < len(ns):
        raise InvalidInputError(f"n-list {value!r} must name at least one n, each once")
    return ns


def _parse_positive(ctx, param, value):
    if math.isfinite(value) and value > 0:
        return value
    raise InvalidInputError(f"{param.opts[0]} must be positive and finite, got {value}")


def _existing(path, what, writer=None):
    """``path`` as a Path, or FileNotFoundError (exit 4) naming its writer."""
    path = Path(path)
    if not path.exists():
        hint = f"; run the {writer} command first" if writer else ""
        raise FileNotFoundError(f"{what} {path} not found{hint}")
    return path


def _resolve_schedule(path):
    if not path:
        raise InvalidInputError("no schedule file given (flag --schedule or config)")
    return Path(path), serialize.read_schedule(_existing(path, "schedule file"))


def _outdir(out):
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    return out


_schedule_option = click.option("--schedule", type=click.Path(), default=None)
_out_option = click.option("--out", type=click.Path(), default="out")
_data_option = click.option("--data", type=click.Path(), default=None,
                            help="directory with emitted data files (default: --out)")
_box_option = click.option("--box", type=click.UNPROCESSED, default="-1:2:-1.5:1.5",
                           callback=_parse_box, help="xmin:xmax:ymin:ymax")
_NLIST_DEFAULT = "10,25,50,100"


@click.group(context_settings={"show_default": True})
@click.option("--config", type=click.Path(), default=None, help="JSON run-config file; flags override its values.")
@click.pass_context
def cli(ctx, config):
    """Hypergeometric polynomial zeros, limit curves, and clustering experiments."""
    if config is None:
        return
    try:
        values = json.loads(_existing(config, "config file").read_text())
    except ValueError as exc:
        raise InvalidInputError(f"config file {config} is not JSON: {exc}") from None
    if not isinstance(values, dict):
        raise InvalidInputError(f"config file {config} must hold a JSON object")
    ctx.default_map = {name: values for name in cli.commands}


@cli.command("poly")
@_schedule_option
@click.option("--n", type=int, default=100)
@_out_option
def cmd_poly(schedule, n, out):
    """Build the exact polynomial and export its coefficients."""
    spath, sched = _resolve_schedule(schedule)
    outdir = _outdir(out)
    p = build_polynomial(sched, n)
    serialize.write_polynomial(outdir / f"poly_n{n}.txt", p)
    serialize.write_manifest(outdir, "poly", {"n": n, "schedule": str(spath)},
                             {"schedule": spath})
    click.echo(f"wrote {outdir / f'poly_n{n}.txt'} (degree {p.degree})")


@cli.command("roots")
@_schedule_option
@click.option("--n-list", "--n", "n_list", type=click.UNPROCESSED, default=_NLIST_DEFAULT,
              callback=_parse_n_list, help="comma-separated n ladder; --n is an alias")
@click.option("--precision", type=int, default=512)
@_out_option
def cmd_roots(schedule, n_list, precision, out):
    """Compute certified roots for each n on the ladder."""
    spath, sched = _resolve_schedule(schedule)
    outdir = _outdir(out)
    for nn in n_list:
        p = build_polynomial(sched, nn)
        m = find_roots(p, precision)
        serialize.write_roots(outdir / f"roots_n{nn}.txt", m, sched)
        click.echo(f"n={nn}: {m.n} roots at {m.precision_bits} bits, "
                   f"max residual {mp.nstr(max(m.residual_bounds), 3)}")
    serialize.write_manifest(outdir, "roots",
                             {"n_list": n_list, "precision": precision, "schedule": str(spath)},
                             {"schedule": spath})


@cli.command("curve")
@_schedule_option
@click.option("--precision", type=int, default=128)
@_out_option
def cmd_curve(schedule, precision, out):
    """Export the limit curve A(z, w) and its branch points.

    The branch points are computed and written at min(precision, 256) bits,
    and the manifest records those bits.
    """
    from .algcurve import branch_points, build_curve

    spath, sched = _resolve_schedule(schedule)
    outdir = _outdir(out)
    curve = build_curve(sched)
    serialize.write_curve(outdir / "curve.txt", curve)
    bits = min(precision, 256)
    bps = branch_points(curve, sched, bits)
    serialize.write_branch_points(outdir / "branch_points.txt", bps, bits)
    serialize.write_manifest(outdir, "curve", {"precision": bits, "schedule": str(spath)},
                             {"schedule": spath})
    click.echo(f"wrote curve.txt and branch_points.txt ({len(bps.points)} branch points)")


@cli.command("levels")
@_schedule_option
@click.option("--pair", default=None, help="branch pair i,j (default: loops 1,i for all i)")
@click.option("--seed", default=None, help="seed point re,im (with --pair)")
@click.option("--step", type=float, default=0.004)
@_out_option
def cmd_levels(schedule, pair, seed, step, out):
    """Trace level curves (default: the conjectured loops through the branch points)."""
    from .potential import make_harmonic_system, trace_conjectured_loop, trace_level_curve

    spath, sched = _resolve_schedule(schedule)
    outdir = _outdir(out)
    sys_ = make_harmonic_system(sched)
    written = []
    if pair is not None:
        i, j = _parse_fields("--pair", pair, ",", 2, int)
        if seed is None:
            raise InvalidInputError("--pair needs an explicit --seed re,im")
        start = complex(*_parse_fields("--seed", seed, ",", 2, float))
        curve = trace_level_curve(sys_, (i, j), start, step=step)
        name = f"level_{i}_{j}.csv"
        serialize.write_level_curve(outdir / name, curve)
        written.append(name)
    else:
        for i in range(2, sched.A + 1):
            curve = trace_conjectured_loop(sys_, i, step=step)
            name = f"level_1_{i}.csv"
            serialize.write_level_curve(outdir / name, curve)
            written.append(name)
    serialize.write_manifest(outdir, "levels",
                             {"step": step, "pair": pair, "seed": seed, "schedule": str(spath)},
                             {"schedule": spath})
    click.echo(f"wrote {', '.join(written)}")


@cli.command("regions")
@_schedule_option
@_box_option
@click.option("--resolution", type=int, default=400)
@_out_option
def cmd_regions(schedule, box, resolution, out):
    """Classify the grid by argmax branch and extract the singular set K."""
    from .potential import classify_regions, make_harmonic_system

    spath, sched = _resolve_schedule(schedule)
    outdir = _outdir(out)
    sys_ = make_harmonic_system(sched)
    grid = classify_regions(sys_, box, resolution)
    serialize.write_region_grid(outdir / "regions.txt", grid)
    serialize.write_k_cells(outdir / "k_cells.txt", grid)
    serialize.write_manifest(outdir, "regions",
                             {"box": list(box), "resolution": resolution, "schedule": str(spath)},
                             {"schedule": spath})
    click.echo(f"labels {grid.labels_present()}, {int(grid.kmask.sum())} K cells")


@cli.command("verify")
@_schedule_option
@click.option("--n-list", type=click.UNPROCESSED, default=_NLIST_DEFAULT, callback=_parse_n_list,
              help="comma-separated n ladder")
@_data_option
@click.option("--experiments", type=click.UNPROCESSED, default=None,
              help="comma-separated experiment names  [default: all]")
@click.option("--test-point", multiple=True,
              help="Cauchy-transform test point re,im (side labeled by winding number)")
@click.option("--eps-cells", type=float, default=3.0, callback=_parse_positive)
@_out_option
def cmd_verify(schedule, n_list, data, experiments, test_point, eps_cells, out):
    """Run the experiment reports of ``experiments.EXPERIMENTS`` from emitted files."""
    from .experiments import EXPERIMENTS

    wanted = (list(EXPERIMENTS) if experiments is None else
              [e.strip() for e in _parse_list(experiments, ",", str) if e.strip()])
    unknown = [e for e in wanted if e not in EXPERIMENTS]
    if unknown:
        raise InvalidInputError(f"unknown experiments {unknown}; choose from {', '.join(EXPERIMENTS)}")
    points = [complex(*_parse_fields("--test-point", tp, ",", 2, float)) for tp in test_point]
    spath, sched = _resolve_schedule(schedule)
    ns = sorted(n_list)
    outdir = _outdir(out)
    datadir = Path(data) if data is not None else outdir
    inputs = {"schedule": spath}

    @functools.cache
    def read(name, parse, writer):
        """The data file ``name`` parsed, read once and recorded for the manifest."""
        inputs[Path(name).stem] = path = _existing(datadir / name, "data file", writer)
        return parse(path)

    measures = {nn: read(f"roots_n{nn}.txt", serialize.read_roots, "roots") for nn in ns}
    provenance = {"schedule": serialize.schedule_hash(sched), "n_list": ns, "data_dir": str(datadir)}
    for name, experiment in EXPERIMENTS.items():
        if name in wanted:
            payload, line = experiment(sched, measures, read, {"test_points": points, "eps_cells": eps_cells})
            serialize.write_report(outdir / f"report_{name}.json", {"provenance": provenance, **payload})
            click.echo(line)
    serialize.write_manifest(outdir, "verify", {"n_list": ns, "experiments": wanted,
                                                "schedule": str(spath)}, inputs)


@cli.command("plot")
@_data_option
@click.option("--n", type=int, default=0,
              help="which roots file to scatter (0: the one with the largest n)")
@_box_option
@click.option("--with-regions", is_flag=True, default=False)
@click.option("--width", type=click.IntRange(min=1), default=720)
@_out_option
def cmd_plot(data, n, box, with_regions, width, out):
    """Compose the SVG figure from previously emitted files."""
    import numpy as np

    from .svgfig import compose_figure

    outdir = _outdir(out)
    datadir = Path(data) if data is not None else outdir
    if n:
        chosen = _existing(datadir / f"roots_n{n}.txt", "roots file", "roots")
    else:
        # names whose n is not an integer are not roots files of this package
        numbered = [(int(p.stem[len("roots_n"):]), p) for p in datadir.glob("roots_n*.txt")
                    if p.stem[len("roots_n"):].isdecimal()]
        chosen = max(numbered)[1] if numbered else None
    roots = serialize.read_roots(chosen).as_complex_array() if chosen else np.array([])
    curves = [serialize.read_level_curve(f) for f in sorted(datadir.glob("level_*.csv"))]
    bp_file = datadir / "branch_points.txt"
    bpts = serialize.read_point_list(bp_file) if bp_file.exists() else np.array([])
    grid = None
    if with_regions:
        regions_path = _existing(datadir / "regions.txt", "region file", "regions")
        grid = serialize.read_region_grid(regions_path)
    if not len(roots) and not curves and grid is None:
        raise FileNotFoundError(f"no data files found in {datadir}")
    figure_path = outdir / "figure.svg"
    compose_figure(figure_path, box, roots=roots, curves=curves, branch_pts=bpts,
                   grid=grid, width=width)
    serialize.write_manifest(outdir, "plot",
                             {"box": list(box), "n": n, "with_regions": with_regions},
                             {})
    click.echo(f"wrote {figure_path}")


def main(argv=None):
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.exceptions.UsageError as exc:
        click.echo(f"usage error: {exc.format_message()}", err=True)
        return 2
    except click.exceptions.Abort:
        return 2
    except (InvalidInputError, SaddleAtSeedError) as exc:
        click.echo(f"invalid input: {exc}", err=True)
        return 2
    except NonConvergenceError as exc:
        click.echo(f"non-convergence: {exc}", err=True)
        for entry in exc.trace:
            click.echo(f"  {entry}", err=True)
        return 3
    except BranchCollisionError as exc:
        click.echo(f"branch collision: {exc}", err=True)
        return 3
    except FileNotFoundError as exc:
        click.echo(f"missing file: {exc}", err=True)
        return 4


if __name__ == "__main__":
    sys.exit(main())
