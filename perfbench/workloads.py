"""The three benchmark workloads: ``ladder``, ``geometry`` and ``pipeline``.

Each workload has a ``setup`` (imports, schedules and one-off inputs, chosen
from the seed) and a ``run_pass`` that performs one fixed schedule of
operations through :class:`harness.Runner` and returns the pass's exact
counts.  Only public names of the package are called.

Metric specs are ``(name, unit, kind)``: ``sum`` adds the seconds of every
call whose operation name is ``name`` or starts with ``name + "."`` in a
pass; ``per_call`` takes the median seconds per such call; ``count`` reads
the exact count the pass recorded under ``name``, which every pass must
reproduce.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import numpy as np

from hyperzeros import (
    ComplexRational,
    HarmonicSystem,
    ParameterSchedule,
    branch_points,
    branches_at,
    build_curve,
    build_polynomial,
    cauchy_convergence,
    classify_regions,
    find_roots,
    halfplane_restriction,
    harmonic_value_by_integration,
    k_set_score,
    make_harmonic_system,
    serialize,
    trace_conjectured_loop,
    trace_level_curve,
    vieta_check,
    zero_curve_distance,
)
from hyperzeros.experiments import label_side
from hyperzeros.potential import level_seed_on_ray

CR = ComplexRational
F = Fraction

PRECISION = 512
CERT_TOL = mp.mpf(2) ** -128
TRACE_TOL = 1e-10
INTEGRAL_TRACE_TOL = 1e-8
INTEGRATION_TOL = 1e-10
BRANCH_RESIDUAL_TOL = 1e-10

K1 = ParameterSchedule.loop_2f1(1)
ALPHA = ParameterSchedule.loop_2f1(CR(F(1, 2), -1))
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
# Non-degenerate A = 3 and A = 4 schedules: the slopes do not repeat, so
# branch points come from the exact w-discriminant.
ND3 = ParameterSchedule((-1, CR(F(1, 2), 1), 2), (0, 1, 0), (1, CR(F(3, 2), -1)), (0, 1))
ND4 = ParameterSchedule((-1, CR(F(1, 2), 1), 2, CR(F(3, 4), F(-1, 2))), (0, 1, 0, 0),
                        (1, CR(F(3, 2), -1), 3), (0, 1, 2))

REGION_BOX = (-1.0, 2.0, -1.5, 1.5)


def _worst_log2(values) -> int:
    worst = max(values)
    return int(mp.floor(mp.log(worst, 2))) if worst > 0 else -(1 << 30)


def _lemniscate_error(points) -> float:
    return float(np.max(np.abs(np.abs(points * (1 - points)) - 0.25)))


class Workload:
    """Hooks a workload may override; the defaults do nothing."""

    def check_outputs(self, runner, pass_index) -> dict:
        """Gates run after a pass, outside its timing; returns extra exact counts."""
        return {}

    def traced_extras(self, runner, work_dir: Path) -> None:
        """Extra traced calls after each traced pass, outside the pass's timing."""


# -- ladder --------------------------------------------------------------------


class Ladder(Workload):
    """Certified roots along n ladders at 512 bits, with their checks.

    K1 = 2F1(-n, n+1; n+2) and alpha = 1/2 - i; each rung builds the exact
    polynomial, finds its roots, checks Vieta and measures the restricted
    distance to the conjectured loop; each family then checks the Cauchy
    transform at z = 2 and z = 1.1 (plus two seeded points) along its rungs.
    """

    top_ops = ("rootfinding.find_roots_s.K1.n40",)
    # family, schedule, rungs, loop-side cutoff eta/(eta+1)
    FAMILIES = (("K1", K1, (10, 20, 40), 0.5), ("ALPHA", ALPHA, (10, 30), 1 / 3))

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.loops = {fam: trace_conjectured_loop(make_harmonic_system(s), 2, step=0.004)
                      for fam, s, _, _ in self.FAMILIES}
        theta = rng.uniform(0, 2 * math.pi, 2)
        fixed = (2.0 + 0j, 1.1 + 0j)
        seeded = (0.5 + 2.0 * complex(math.cos(theta[0]), math.sin(theta[0])),
                  1.0 + 0.1 * complex(math.cos(theta[1]), math.sin(theta[1])))
        self.fixed_points = fixed
        self.test_points = {fam: [(z, label_side(self.loops[fam], z)) for z in fixed + seeded]
                            for fam, _, _, _ in self.FAMILIES}

    @classmethod
    def metric_specs(cls):
        specs = [("hyppoly.build_polynomial_s", "s", "sum")]
        for fam, _, ns, _ in cls.FAMILIES:
            for n in ns:
                key = f"{fam}.n{n}"
                specs += [
                    (f"rootfinding.find_roots_s.{key}", "s", "sum"),
                    (f"rootfinding.precision_bits.{key}", "bits", "count"),
                    (f"rootfinding.worst_residual_log2.{key}", "log2", "count"),
                    (f"rootfinding.clusters.{key}", "count", "count"),
                    (f"rootfinding.roots.{key}", "count", "count"),
                ]
        specs += [
            ("rootfinding.vieta_check_s", "s", "sum"),
            ("experiments.cauchy_convergence_s", "s", "sum"),
            ("experiments.zero_curve_distance_s", "s", "sum"),
        ]
        return specs

    def run_pass(self, runner):
        counts = {}
        fingerprint = {}
        for fam, sched, ns, cutoff in self.FAMILIES:
            measures = {}
            maxima = []
            for n in ns:
                key = f"{fam}.n{n}"
                with runner.tracer.span(f"rung.{key}", "bench"):
                    p = runner.op(f"hyppoly.build_polynomial_s.{key}", "hyppoly",
                                  lambda: build_polynomial(sched, n))
                    if p is None:
                        continue
                    m = runner.op(f"rootfinding.find_roots_s.{key}", "rootfinding",
                                  lambda: find_roots(p, PRECISION),
                                  gate=lambda m: _certified(p, m))
                    if m is None:
                        continue
                    measures[n] = m
                    counts[f"rootfinding.precision_bits.{key}"] = m.precision_bits
                    counts[f"rootfinding.worst_residual_log2.{key}"] = _worst_log2(m.residual_bounds)
                    counts[f"rootfinding.clusters.{key}"] = len(m.clusters)
                    counts[f"rootfinding.roots.{key}"] = m.n
                    fingerprint[key] = tuple(m.roots)
                    runner.op(f"rootfinding.vieta_check_s.{key}", "rootfinding",
                              lambda: vieta_check(p, m),
                              gate=lambda r: None if r.max_deviation < CERT_TOL
                              else f"Vieta deviation {mp.nstr(r.max_deviation, 3)}")
                    rep = runner.op(f"experiments.zero_curve_distance_s.{key}", "experiments",
                                    lambda: zero_curve_distance(
                                        m, self.loops[fam], halfplane_restriction(cutoff),
                                        f"Re z > {cutoff:.4g}"),
                                    gate=lambda r: "no zeros on the loop side" if r.vacuous else None)
                    if rep is not None:
                        maxima.append(rep.max)
            runner.check(f"experiments.distance_falls.{fam}",
                         len(maxima) == len(ns) and all(a > b for a, b in zip(maxima, maxima[1:])),
                         f"restricted max distances {maxima} do not fall along the rungs")
            if len(measures) == len(ns):
                runner.op(f"experiments.cauchy_convergence_s.{fam}", "experiments",
                          lambda: cauchy_convergence(sched, ns, self.test_points[fam],
                                                     measures=measures),
                          gate=lambda r: self._convergence_gate(r, ns))
        return counts, fingerprint

    def _convergence_gate(self, report, ns):
        for point in report.points:
            if point.z not in self.fixed_points:
                continue
            devs = [point.deviations.get(n) for n in ns]
            if point.excluded or not all(a > b for a, b in zip(devs, devs[1:])):
                return f"Cauchy deviation at z = {point.z} does not fall: {devs}"
        return None


def _certified(p, m):
    if m.n != p.degree:
        return f"{m.n} roots for degree {p.degree}"
    worst = max(m.residual_bounds)
    if not worst < CERT_TOL:
        return f"residual bound {mp.nstr(worst, 3)} not below 2^-128"
    return None


# -- geometry ------------------------------------------------------------------


class Geometry(Workload):
    """Curves, branch points, level traces, quadrature and region grids.

    High-degree roots play no part: root solves here have degree 3 to 16.
    """

    # every root solve of the pass: the two discriminants and the branches_at calls
    top_ops = ("algcurve.branch_points_s", "algcurve.branches_at_s")
    BRANCH_SAMPLES = 50  # branches_at calls per non-degenerate curve
    INTEGRATION_SAMPLES = 3  # points per closed-form system, both branches each
    FIG5_MEASURE_N = 20

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.null_seed = int(rng.integers(0, 2**31))
        self.branch_z = {}
        for tag in ("nd3", "nd4"):
            pts = []
            while len(pts) < self.BRANCH_SAMPLES:
                z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                if abs(z) > 0.1 and abs(z - 1) > 0.1:
                    pts.append(z)
            self.branch_z[tag] = pts
        self.integration_z = []
        while len(self.integration_z) < self.INTEGRATION_SAMPLES:
            z = complex(rng.uniform(0.1, 2.5), rng.uniform(-1.5, 1.5))
            if abs(z) > 0.2 and abs(z - 1) > 0.2:
                self.integration_z.append(z)
        self.systems = {"K1": make_harmonic_system(K1), "ALPHA": make_harmonic_system(ALPHA),
                        "FIG5": make_harmonic_system(FIG5)}
        k1 = self.systems["K1"]
        # K1 forced into integral mode, as in the package's own tracer test
        self.forced_k1 = HarmonicSystem(k1.schedule, k1.basepoint, "integral", k1.curve, (), ())
        self.integral_seed = level_seed_on_ray(k1, (1, 2), 1.0, 1.0)
        self.fig5_measure = find_roots(build_polynomial(FIG5, self.FIG5_MEASURE_N), PRECISION)

    LOOPS = (("K1", "K1", 2), ("ALPHA", "ALPHA", 2), ("FIG5_2", "FIG5", 2), ("FIG5_3", "FIG5", 3))

    @classmethod
    def metric_specs(cls):
        specs = []
        for tag in ("nd3", "nd4"):
            specs += [
                (f"algcurve.branch_points_s.{tag}", "s", "sum"),
                (f"algcurve.branch_point_count.{tag}", "count", "count"),
                (f"algcurve.discriminant_degree.{tag}", "count", "count"),
            ]
        specs.append(("algcurve.branches_at_s", "s", "per_call"))
        for label, _, _ in cls.LOOPS:
            specs += [
                (f"potential.trace_loop_s.{label}", "s", "sum"),
                (f"potential.trace_points.{label}", "count", "count"),
            ]
        specs += [
            ("potential.trace_integral_s", "s", "sum"),
            ("potential.trace_integral_points", "count", "count"),
            ("potential.integrate_s", "s", "per_call"),
        ]
        for fam in ("K1", "FIG5"):
            specs += [
                (f"potential.classify_regions_s.{fam}", "s", "sum"),
                (f"potential.k_cells.{fam}", "count", "count"),
            ]
        specs.append(("experiments.k_set_score_s", "s", "sum"))
        return specs

    def run_pass(self, runner):
        counts = {}
        fingerprint = {}
        for tag, sched in (("nd3", ND3), ("nd4", ND4)):
            curve = runner.op(f"algcurve.build_curve_s.{tag}", "algcurve", lambda: build_curve(sched))
            if curve is None:
                continue
            bps = runner.op(f"algcurve.branch_points_s.{tag}", "algcurve",
                            lambda: branch_points(curve, sched, 128),
                            gate=lambda b: None if b.points else "no branch points")
            if bps is not None:
                counts[f"algcurve.branch_point_count.{tag}"] = len(bps.points)
                # the discriminant's zeros split into branch points and the singular 0, 1
                counts[f"algcurve.discriminant_degree.{tag}"] = len(bps.points) + len(bps.excluded_singular)
                fingerprint[tag] = tuple(bps.points)
            for z in self.branch_z[tag]:
                runner.op(f"algcurve.branches_at_s.{tag}", "algcurve",
                          lambda: branches_at(curve, z),
                          gate=lambda ws: _branch_gate(curve, z, ws))
        for label, fam, i in self.LOOPS:
            loop = runner.op(f"potential.trace_loop_s.{label}", "potential",
                             lambda: trace_conjectured_loop(self.systems[fam], i, step=0.004),
                             gate=_k1_loop_gate if label == "K1" else _closed_gate)
            if loop is not None:
                counts[f"potential.trace_points.{label}"] = len(loop.points)
        curve = runner.op("potential.trace_integral_s", "potential",
                          lambda: trace_level_curve(self.forced_k1, (1, 2), self.integral_seed,
                                                    step=0.01, max_points=2000),
                          gate=_integral_trace_gate, limit=30.0)
        if curve is not None:
            counts["potential.trace_integral_points"] = len(curve.points)
        for fam in ("K1", "ALPHA"):
            system = self.systems[fam]
            for z in self.integration_z:
                for i in (1, 2):
                    runner.op(f"potential.integrate_s.{fam}", "potential",
                              lambda: harmonic_value_by_integration(system, i, z),
                              gate=lambda v: _integration_gate(system, i, z, v))
        grids = {}
        for fam in ("K1", "FIG5"):
            system = self.systems[fam]
            grid = runner.op(f"potential.classify_regions_s.{fam}", "potential",
                             lambda: classify_regions(system, REGION_BOX, 1600),
                             gate=lambda g: _labels_gate(system, g))
            if grid is not None:
                grids[fam] = grid
                counts[f"potential.k_cells.{fam}"] = int(grid.kmask.sum())
        if "FIG5" in grids:
            score = runner.op("experiments.k_set_score_s", "experiments",
                              lambda: k_set_score(self.fig5_measure, grids["FIG5"],
                                                  seed=self.null_seed),
                              gate=lambda s: None if 0 <= s.fraction_on_k <= 1
                              and 0 <= s.null_fraction <= 1 else "fraction outside [0, 1]")
            if score is not None:
                fingerprint["k_score"] = (score.fraction_on_k, score.null_fraction)
        return counts, fingerprint


def _branch_gate(curve, z, ws):
    if len(ws) != curve.degree_w:
        return f"{len(ws)} branches at z = {z}, expected {curve.degree_w}"
    terms = [(complex(a), j, k) for (j, k), a in curve.terms.items()]
    for w in ws:
        w = complex(w)
        value = sum(a * z**j * w**k for a, j, k in terms)
        scale = sum(abs(a) * abs(z) ** j * abs(w) ** k for a, j, k in terms)
        if abs(value) > BRANCH_RESIDUAL_TOL * scale:
            return f"|A(z, w)| = {abs(value):.3e} at z = {z}"
    return None


def _closed_gate(loop):
    return None if loop.closed else "conjectured loop is not closed"


def _k1_loop_gate(loop):
    if not loop.closed:
        return "K1 loop is not closed"
    if not any(abs(c.location - 0.5) < 1e-9 for c in loop.critical_points):
        return "K1 loop lacks its saddle at 1/2"
    err = _lemniscate_error(loop.points)
    return None if err < TRACE_TOL else f"K1 loop off the lemniscate by {err:.3e}"


def _integral_trace_gate(curve):
    if len(curve.points) <= 50:
        return f"integral trace stopped after {len(curve.points)} points"
    err = _lemniscate_error(curve.points)
    return None if err < INTEGRAL_TRACE_TOL else f"integral trace off the lemniscate by {err:.3e}"


def _integration_gate(system, i, z, value):
    err = abs(float(system.harmonic(i, z)) - value)
    return None if err < INTEGRATION_TOL else f"H_{i}({z}) off the closed form by {err:.3e}"


def _labels_gate(system, grid):
    expected = list(range(1, system.num_branches + 1))
    got = grid.labels_present()
    return None if got == expected else f"labels {got}, expected {expected}"


# -- pipeline --------------------------------------------------------------------


class Pipeline(Workload):
    """The seven CLI commands, each its own process, one after another.

    FIG5 schedule, n-list 10,20,30 at 2048 bits, region grid 800 x 800.
    Each pass runs in a fresh directory under the run directory, so that
    every pass writes the same relative paths and its files can be compared
    byte for byte with the first pass.
    """

    top_ops = ("cli.roots_s",)
    N_LIST = "10,20,30"
    COMMANDS = (
        ("poly", ["--n", "30"]),
        ("roots", ["--n-list", N_LIST, "--precision", "2048"]),
        ("curve", []),
        ("levels", []),
        ("regions", ["--resolution", "800"]),
        ("verify", ["--n-list", N_LIST]),
        ("plot", ["--with-regions"]),
    )
    DATA_GLOBS = ("roots_n*.txt", "level_*.csv", "regions.txt", "k_cells.txt")
    COMMAND_LIMIT_S = 60.0

    def __init__(self, seed: int, run_dir: Path, src_dir: Path):
        rng = np.random.default_rng(seed)
        self.run_dir = run_dir
        self.env = dict(os.environ, PYTHONPATH=str(src_dir))
        self.schedule_text = serialize.schedule_to_json(FIG5)
        # verify's convergence test points; the FIG5 family has three slopes,
        # so verify records the convergence experiment as skipped
        self.test_points = [f"{rng.uniform(1.5, 3.0):.6f},{rng.uniform(-1.0, 1.0):.6f}"]
        self.first_hashes = None
        self.passes = 0

    @classmethod
    def metric_specs(cls):
        return [(f"cli.{command}_s", "s", "sum") for command, _ in cls.COMMANDS] + [
            ("serialize.write_roots_s", "s", "per_call"),
            ("serialize.read_roots_s", "s", "per_call"),
            ("serialize.read_region_grid_s", "s", "per_call"),
            ("serialize.bytes_written", "bytes", "count"),
            ("cli.k_cells", "count", "count"),
        ]

    def _argv(self, name, extra):
        argv = [sys.executable, "-m", "hyperzeros.cli", name] + list(extra)
        if name != "plot":
            argv += ["--schedule", "schedule.json"]
        if name == "verify":
            for tp in self.test_points:
                argv += ["--test-point", tp]
        return argv + ["--out", "run"]

    def run_pass(self, runner):
        self.passes += 1
        pass_dir = self.run_dir / f"pass{self.passes}"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir(parents=True)
        (pass_dir / "schedule.json").write_text(self.schedule_text)
        for name, extra in self.COMMANDS:
            limit = min(self.COMMAND_LIMIT_S, runner.remaining())
            runner.op(f"cli.{name}_s", "cli",
                      lambda: subprocess.run(self._argv(name, extra), cwd=pass_dir, env=self.env,
                                             capture_output=True, text=True,
                                             timeout=max(limit - 1.0, 0.1)),
                      gate=_exit_gate, limit=limit)
        self.last_out = pass_dir / "run"
        return {}, {}

    def check_outputs(self, runner, pass_index):
        """Gates on one pass's files, run outside the timed pass."""
        out = self.last_out
        counts = {"serialize.bytes_written": sum(p.stat().st_size for p in out.iterdir() if p.is_file())}
        hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                  for pattern in self.DATA_GLOBS for p in sorted(out.glob(pattern))}
        if self.first_hashes is None:
            self.first_hashes = hashes
            expected = {f"roots_n{n}.txt" for n in self.N_LIST.split(",")}
            expected |= {"level_1_2.csv", "level_1_3.csv", "regions.txt", "k_cells.txt"}
            runner.check("pipeline.files", set(hashes) == expected,
                         f"data files {sorted(hashes)}, expected {sorted(expected)}")
            for n in self.N_LIST.split(","):
                path = out / f"roots_n{n}.txt"
                if path.exists():
                    m = serialize.read_roots(path)
                    runner.check(f"pipeline.roots_n{n}", m.n == int(n) and max(m.residual_bounds) < CERT_TOL,
                                 f"{m.n} roots, worst residual {mp.nstr(max(m.residual_bounds), 3)}")
            report = out / "report_distance.json"
            runner.check("pipeline.distance_falls",
                         report.exists() and json.loads(report.read_text()).get("max_decreasing") is True,
                         "restricted max distance does not fall along the n-list")
        else:
            differ = sorted(k for k in set(hashes) | set(self.first_hashes)
                            if hashes.get(k) != self.first_hashes.get(k))
            runner.check("pipeline.byte_identical", not differ,
                         f"pass {pass_index} files differ from the first pass: {differ}")
        kfile = out / "k_cells.txt"
        if kfile.exists():
            counts["cli.k_cells"] = len(kfile.read_text().splitlines()) - 1
        return counts

    def traced_extras(self, runner, work_dir: Path):
        """In-process serialize calls on the files a pipeline pass produced."""
        out = self.last_out
        top = max(int(n) for n in self.N_LIST.split(","))
        m = runner.op("serialize.read_roots_s", "serialize",
                      lambda: serialize.read_roots(out / f"roots_n{top}.txt"))
        if m is not None:
            target = work_dir / f"roots_n{top}.txt"
            runner.op("serialize.write_roots_s", "serialize",
                      lambda: serialize.write_roots(target, m, FIG5),
                      gate=lambda _: None if target.read_bytes() == (out / target.name).read_bytes()
                      else "rewritten roots file differs from the CLI's")
        runner.op("serialize.read_region_grid_s", "serialize",
                  lambda: serialize.read_region_grid(out / "regions.txt"))


def _exit_gate(result):
    if result.returncode == 0:
        return None
    tail = (result.stderr or "").strip().splitlines()[-1:] or [""]
    return f"exit code {result.returncode}: {tail[0]}"


WORKLOADS = {"ladder": Ladder, "geometry": Geometry, "pipeline": Pipeline}
