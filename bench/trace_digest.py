#!/usr/bin/env python3
"""Print a SHA-256 digest of each of a fixed list of level-curve traces and
region grids.

Usage, from the root of a checkout:

    python3 bench/trace_digest.py

Each line reads ``TAG POINTS DIGEST``.  The digest covers the traced points,
their residuals, ``closed``, ``hit_cut``, and the location and the four
directions of every saddle, so two checkouts trace bit-identical curves
exactly when ``diff`` finds no difference in their output.  The traces are
the closed-mode conjectured loops of K1, alpha = 1/2 - i, alpha = 2 + i and
FIG5, the same schedules forced into integral mode, and two traces of the
general schedule ND3.  Then a line ``TAG K_CELLS DIGEST`` for each of the
1600 x 1600 region grids of K1 and FIG5 on the box (-1, 2, -1.5, 1.5)
covers the grid's labels and K mask.  The package is imported from this
checkout's ``src``.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hyperzeros.exact import ComplexRational as CR  # noqa: E402
from hyperzeros.hyppoly import ParameterSchedule  # noqa: E402
from hyperzeros.potential import (  # noqa: E402
    HarmonicSystem,
    classify_regions,
    level_seed_on_ray,
    make_harmonic_system,
    trace_conjectured_loop,
    trace_level_curve,
)

K1 = ParameterSchedule.loop_2f1(1)
ALPHA = ParameterSchedule.loop_2f1(CR(Fraction(1, 2), -1))
ALPHA21 = ParameterSchedule.loop_2f1(CR(2, 1))
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
ND3 = ParameterSchedule((-1, CR(Fraction(1, 2), 1), 2), (0, 1, 0),
                        (1, CR(Fraction(3, 2), -1)), (0, 1))
REGION_BOX = (-1.0, 2.0, -1.5, 1.5)


def forced_integral(schedule):
    """The schedule's closed-mode system forced into integral mode, and the
    seed of its conjectured loop: on the ray from 1 along 1 - p_2."""
    closed = make_harmonic_system(schedule)
    seed = level_seed_on_ray(closed, (1, 2), 1.0, 1 - closed.branch_point_list[0])
    return HarmonicSystem(schedule, closed.basepoint, "integral", closed.curve, (), ()), seed


def traces():
    """(tag, thunk) for each trace; calling the thunk traces the curve."""
    k1, seed_k1 = forced_integral(K1)
    alpha, seed_alpha = forced_integral(ALPHA)
    alpha21, seed_alpha21 = forced_integral(ALPHA21)
    nd3 = make_harmonic_system(ND3)
    return [
        ("loop-K1", lambda: trace_conjectured_loop(make_harmonic_system(K1), 2, step=0.004)),
        ("loop-ALPHA", lambda: trace_conjectured_loop(make_harmonic_system(ALPHA), 2, step=0.004)),
        ("loop-ALPHA21", lambda: trace_conjectured_loop(make_harmonic_system(ALPHA21), 2,
                                                        step=0.004)),
        ("loop-FIG5-2", lambda: trace_conjectured_loop(make_harmonic_system(FIG5), 2, step=0.004)),
        ("loop-FIG5-3", lambda: trace_conjectured_loop(make_harmonic_system(FIG5), 3, step=0.004)),
        ("loop-FIG5-2-coarse", lambda: trace_conjectured_loop(make_harmonic_system(FIG5), 2,
                                                              step=0.01)),
        ("integral-K1", lambda: trace_level_curve(k1, (1, 2), seed_k1, step=0.01,
                                                  max_points=2000)),
        ("integral-ALPHA", lambda: trace_level_curve(alpha, (1, 2), seed_alpha, step=0.01,
                                                     max_points=2000)),
        ("integral-ALPHA21", lambda: trace_level_curve(alpha21, (1, 2), seed_alpha21, step=0.01,
                                                       max_points=2000)),
        ("nd3-left", lambda: trace_level_curve(nd3, (1, 2), -0.5 + 0.8j, step=0.02)),
        ("nd3-right", lambda: trace_level_curve(nd3, (1, 2), 1.5 + 0.5j, step=0.02,
                                                max_points=50)),
    ]


def digest_line(tag, curve):
    """``TAG POINTS DIGEST`` for one traced curve."""
    h = hashlib.sha256()
    h.update(np.asarray(curve.points, dtype=complex).tobytes())
    h.update(np.asarray(curve.residuals, dtype=float).tobytes())
    h.update(bytes([bool(curve.closed), bool(curve.hit_cut)]))
    for c in curve.critical_points:
        h.update(np.array([c.location], dtype=complex).tobytes())
        h.update(np.array(c.directions, dtype=float).tobytes())
    return f"{tag} {len(curve)} {h.hexdigest()}"


def region_line(tag, grid):
    """``TAG K_CELLS DIGEST`` for one region grid."""
    h = hashlib.sha256()
    h.update(np.asarray(grid.labels, dtype=np.int16).tobytes())
    h.update(np.asarray(grid.kmask, dtype=bool).tobytes())
    return f"{tag} {int(grid.kmask.sum())} {h.hexdigest()}"


def main():
    for tag, trace in traces():
        print(digest_line(tag, trace()), flush=True)
    for tag, schedule in (("regions-K1", K1), ("regions-FIG5", FIG5)):
        grid = classify_regions(make_harmonic_system(schedule), REGION_BOX, 1600)
        print(region_line(tag, grid), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
