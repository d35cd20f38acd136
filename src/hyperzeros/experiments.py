"""Quantitative clustering and convergence experiments, and the reports of ``verify``.

``EXPERIMENTS`` lists the reports in run order, each a function (schedule,
measures, data, options) -> (payload, summary line): ``measures`` maps each n,
in increasing order, to its roots; ``data(name, parse, writer)`` reads a data
file once per run; ``options`` holds ``test_points`` and ``eps_cells``.
``distance`` measures the zeros' distances to the loop ``level_1_2.csv``;
``convergence`` compares the empirical Cauchy transform with the designated
rational branch inside/outside that loop, and outside the two-slope
degenerate family records a skip and reads no file; ``kscore`` scores the
zeros near the singular set K of ``regions.txt`` against a uniform null.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp
import numpy as np

from . import serialize
from .errors import InvalidInputError
from .hyppoly import ParameterSchedule, build_polynomial
from .potential import LevelCurve, RegionGrid
from .rootfinding import (
    DEFAULT_PRECISION,
    RootCountingMeasure,
    cauchy_transform_at,
    find_roots,
)

NULL_SAMPLES = 20000


def points_to_polyline_distance(points: np.ndarray, polyline: np.ndarray,
                                closed: bool = True) -> np.ndarray:
    """Min distance from each point to a polyline (segment projections)."""
    a, b = (polyline, np.roll(polyline, -1)) if closed else (polyline[:-1], polyline[1:])
    ab = b - a
    ab2 = np.abs(ab) ** 2
    ab2[ab2 == 0] = 1.0
    out = np.empty(len(points))
    for k, z in enumerate(points):
        t = np.clip(((z - a) * np.conj(ab)).real / ab2, 0.0, 1.0)
        proj = a + t * ab
        out[k] = np.min(np.abs(z - proj))
    return out


def winding_number(polyline: np.ndarray, z: complex) -> int:
    """Winding number of a closed polyline around z (angle summation)."""
    v = polyline - z
    angles = np.angle(np.roll(v, -1) / v)
    return int(round(float(np.sum(angles)) / (2 * np.pi)))


def label_side(curve: LevelCurve, z: complex) -> str:
    """inside/outside by winding number of the traced closed loop; a point
    on the loop has neither side."""
    if not curve.closed:
        raise InvalidInputError("convergence labeling needs a closed loop")
    if points_to_polyline_distance(np.array([z], dtype=complex), curve.points)[0] == 0:
        raise InvalidInputError(f"test point {z} lies on the traced loop, so it has no side")
    return "inside" if winding_number(curve.points, z) != 0 else "outside"


@dataclass(frozen=True)
class DistanceReport:
    """Zero-to-curve distances for the roots passing a restriction predicate."""

    n: int
    restriction: str
    n_total: int
    n_restricted: int
    distances: np.ndarray
    vacuous: bool

    @property
    def max(self) -> float:
        return float(np.max(self.distances)) if len(self.distances) else float("nan")

    @property
    def mean(self) -> float:
        return float(np.mean(self.distances)) if len(self.distances) else float("nan")

    def quantile(self, q: float) -> float:
        return float(np.quantile(self.distances, q)) if len(self.distances) else float("nan")

    def summary(self) -> dict:
        return {
            "n": self.n,
            "restriction": self.restriction,
            "n_total": self.n_total,
            "n_restricted": self.n_restricted,
            "max": self.max,
            "mean": self.mean,
            "q50": self.quantile(0.5),
            "q90": self.quantile(0.9),
            "vacuous": self.vacuous,
        }


def zero_curve_distance(measure: RootCountingMeasure, curve: LevelCurve,
                        restriction=None, restriction_label: str = "all") -> DistanceReport:
    """Min distance of each (restricted) zero to the traced curve polyline.

    ``restriction`` is a predicate on complex numbers (e.g. a half-plane
    cutoff selecting the loop's side); an empty restricted set is reported
    as vacuous rather than an error.
    """
    if len(curve.points) < 2:
        raise InvalidInputError("curve polyline is empty")
    roots = measure.as_complex_array()
    chosen = roots if restriction is None else roots[[bool(restriction(z)) for z in roots]]
    d = points_to_polyline_distance(chosen, curve.points, closed=curve.closed)
    return DistanceReport(
        n=measure.n,
        restriction=restriction_label,
        n_total=len(roots),
        n_restricted=len(chosen),
        distances=d,
        vacuous=len(chosen) == 0,
    )


def halfplane_restriction(threshold: float):
    """The loop-side restriction Re z > threshold (threshold = eta/(eta+1))."""
    return lambda z: z.real > threshold


@dataclass(frozen=True)
class ConvergencePoint:
    z: complex
    side: str
    target: complex
    deviations: dict
    excluded: bool = False
    note: str = ""


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-point deviations |C_mu_n(z) - f_branch(z)| along an n ladder."""

    n_list: tuple
    points: tuple

    @property
    def monotone(self) -> bool:
        """Largest-n deviation below smallest-n deviation at every admissible point."""
        lo, hi = self.n_list[0], self.n_list[-1]
        return all(
            p.deviations[hi] < p.deviations[lo] for p in self.points if not p.excluded
        )

    def summary(self) -> dict:
        return {
            "n_list": list(self.n_list),
            "monotone_last_below_first": self.monotone,
            "points": [
                {
                    "z": [p.z.real, p.z.imag],
                    "side": p.side,
                    "target": [p.target.real, p.target.imag],
                    "deviations": {str(n): float(d) for n, d in p.deviations.items()},
                    "excluded": p.excluded,
                    "note": p.note,
                }
                for p in self.points
            ],
        }


def _designation_gap(schedule: ParameterSchedule):
    """Why ``schedule`` has no inside/outside branch designation, or ''."""
    if not schedule.is_degenerate:
        return "branch designation inside/outside is defined for degenerate schedules"
    return "" if len(schedule.alphas) == 2 else "inside-branch designation needs the two-slope family"


def cauchy_convergence(schedule: ParameterSchedule, n_list, test_points,
                       precision_bits: int = DEFAULT_PRECISION,
                       measures: dict = None) -> ConvergenceReport:
    """Deviation of the empirical Cauchy transform from the limit branch.

    For degenerate schedules the designated branches are -alpha_2/z inside
    the loop and 1/(z-1) outside.  ``test_points`` is a list of (z, side)
    pairs with side in {"inside", "outside"}; points within the cluster
    radius of a computed root are excluded with a note.  Pass ``measures``
    (n -> RootCountingMeasure) to reuse existing root computations.
    """
    if gap := _designation_gap(schedule):
        raise InvalidInputError(gap)
    n_list = sorted(n_list)
    if len(n_list) < 2:
        raise InvalidInputError("need at least two n values to compare")
    alpha2 = complex(schedule.alphas[1])
    got = dict(measures or {})
    for n in n_list:
        if n not in got:
            got[n] = find_roots(build_polynomial(schedule, n), precision_bits)
    out_points = []
    for z, side in test_points:
        z = complex(z)
        if side not in ("inside", "outside"):
            raise InvalidInputError(f"side must be inside/outside, got {side!r}")
        target = -alpha2 / z if side == "inside" else 1.0 / (z - 1.0)
        devs = {}
        excluded = False
        note = ""
        for n in n_list:
            m = got[n]
            dmin = float(np.min(np.abs(m.as_complex_array() - z)))
            if dmin < float(m.cluster_radius):
                excluded = True
                note = f"z within cluster radius of a root at n={n}"
                break
            c = cauchy_transform_at(m, z)
            devs[n] = float(abs(c - mp.mpc(target)))
        out_points.append(ConvergencePoint(z, side, target, devs, excluded, note))
    return ConvergenceReport(tuple(n_list), tuple(out_points))


@dataclass(frozen=True)
class ClusterScore:
    """Fraction of zeros near K, with a uniform-null comparison."""

    epsilon: float
    fraction_on_k: float
    fraction_on_k_in_domain: float
    null_fraction: float
    null_samples: int
    seed: int

    @property
    def ratio_over_null(self) -> float:
        if self.null_fraction == 0:
            return float("inf") if self.fraction_on_k > 0 else 0.0
        return self.fraction_on_k / self.null_fraction

    def summary(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "fraction_on_k": self.fraction_on_k,
            "fraction_on_k_in_domain": self.fraction_on_k_in_domain,
            "null_fraction": self.null_fraction,
            "ratio_over_null": self.ratio_over_null,
            "null_samples": self.null_samples,
            "seed": self.seed,
        }


def k_set_score(measure: RootCountingMeasure, grid: RegionGrid,
                      epsilon: float = None, seed: int = 20240901) -> ClusterScore:
    """Fraction of zeros within epsilon of the discrete set K.

    epsilon defaults to 3 cell diagonals (K is one cell thick; sub-cell
    distances are meaningless).  Also reports the fraction near K
    restricted to the approximate domain D (non-H_1 regions plus their
    boundary), and a deterministic uniform Monte-Carlo null of NULL_SAMPLES
    points over the box.  K is a set of cell centres, so each point is
    tested only against the K cells in a stencil around its own cell (see
    ``_near_cells``), with the outcome of a test against every K cell.
    """
    if epsilon is None:
        epsilon = 3.0 * grid.cell_diagonal
    if not grid.kmask.any():
        return ClusterScore(epsilon, 0.0, 0.0, 0.0, NULL_SAMPLES, seed)
    roots = measure.as_complex_array()
    xmin, xmax, ymin, ymax = grid.box
    inside_box = (
        (roots.real >= xmin) & (roots.real <= xmax)
        & (roots.imag >= ymin) & (roots.imag <= ymax)
    )
    if not np.all(inside_box):
        raise InvalidInputError(
            f"grid box {grid.box} does not cover the root cloud "
            f"({int((~inside_box).sum())} roots outside)"
        )
    frac = float(np.mean(_near_cells(roots, grid, grid.kmask, epsilon)))
    kmask_d = grid.kmask & grid.domain_mask()
    if kmask_d.any():
        frac_d = float(np.mean(_near_cells(roots, grid, kmask_d, epsilon)))
    else:
        frac_d = 0.0
    rng = np.random.default_rng(seed)
    U = rng.uniform(xmin, xmax, NULL_SAMPLES) + 1j * rng.uniform(ymin, ymax, NULL_SAMPLES)
    null_frac = float(np.mean(_near_cells(U, grid, grid.kmask, epsilon)))
    return ClusterScore(float(epsilon), frac, frac_d, null_frac, NULL_SAMPLES, seed)


def _near_cells(points: np.ndarray, grid: RegionGrid, mask: np.ndarray,
                epsilon: float) -> np.ndarray:
    """Whether each point lies within epsilon of the centre of a cell in ``mask``.

    Each point is compared only with the masked cells up to
    ceil(epsilon / cell) + 1 cells from its own cell along each axis: a
    centre within epsilon lies at most ceil(epsilon / cell) cells away, and
    the extra cell absorbs rounding.  The test is the one a search over every masked
    cell makes, |p - c| <= epsilon on the centres c = xs[ix] + 1j*ys[iy], so
    the outcome is the same.
    """
    res = grid.resolution
    xmin, xmax, ymin, ymax = grid.box
    hx, hy = (xmax - xmin) / res, (ymax - ymin) / res
    rx, ry = int(np.ceil(epsilon / hx)) + 1, int(np.ceil(epsilon / hy)) + 1
    cx = np.clip(np.floor((points.real - xmin) / hx), 0, res - 1).astype(np.int64)
    cy = np.clip(np.floor((points.imag - ymin) / hy), 0, res - 1).astype(np.int64)
    # the mask padded by the stencil radius, so no offset leaves the array
    padded = np.pad(mask, ((ry, ry), (rx, rx))).ravel()
    own = (cy + ry) * (res + 2 * rx) + cx + rx
    near = np.zeros(len(points), dtype=bool)
    for dy in range(-ry, ry + 1):
        for dx in range(-rx, rx + 1):
            k = np.flatnonzero(padded[own + (dy * (res + 2 * rx) + dx)])
            c = grid.xs[cx[k] + dx] + 1j * grid.ys[cy[k] + dy]
            near[k] |= np.abs(points[k] - c) <= epsilon
    return near


def _distance(schedule, measures, data, options):
    loop = data("level_1_2.csv", serialize.read_level_curve, "levels")
    eta = float(schedule.alphas[1].re)
    if eta == -1:
        raise InvalidInputError("distance: the loop-side cutoff Re z > eta/(eta + 1) is undefined "
                                "at eta = Re alpha_2 = -1")
    cutoff = eta / (eta + 1)
    rows = {str(n): zero_curve_distance(m, loop, halfplane_restriction(cutoff), f"Re z > {cutoff:.6g}")
            .summary() for n, m in measures.items()}
    maxes = [row["max"] for row in rows.values()]
    return {
        "pair": [1, 2],
        "restricted": rows,
        "unrestricted": {str(n): zero_curve_distance(m, loop).summary() for n, m in measures.items()},
        "max_decreasing": all(a > b for a, b in zip(maxes, maxes[1:])),
    }, f"distance: max over n {dict(zip(rows, maxes))}"


def _convergence(schedule, measures, data, options):
    if gap := _designation_gap(schedule):
        return {"skipped": gap}, f"convergence skipped: {gap}"
    loop = data("level_1_2.csv", serialize.read_level_curve, "levels")
    points = [(z, label_side(loop, z)) for z in options["test_points"] or [2.0 + 0j, 1.1 + 0j]]
    report = cauchy_convergence(schedule, list(measures), points, measures=measures)
    return report.summary(), f"convergence monotone: {report.monotone}"


def _kscore(schedule, measures, data, options):
    grid = data("regions.txt", serialize.read_region_grid, "regions")
    n = max(measures)
    score = k_set_score(measures[n], grid, options["eps_cells"] * grid.cell_diagonal)
    return {"n": n, **score.summary()}, (f"kscore: fraction {score.fraction_on_k:.3f} (null "
                                         f"{score.null_fraction:.3f}, ratio {score.ratio_over_null:.1f})")


EXPERIMENTS = {"distance": _distance, "convergence": _convergence, "kscore": _kscore}
