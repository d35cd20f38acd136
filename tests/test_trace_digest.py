import dataclasses
import importlib.util
from pathlib import Path

import mpmath as mp
import numpy as np

from hyperzeros.algcurve import branches_at, build_curve
from hyperzeros.potential import classify_regions, make_harmonic_system, trace_level_curve

_SPEC = importlib.util.spec_from_file_location(
    "trace_digest", Path(__file__).resolve().parent.parent / "bench" / "trace_digest.py")
trace_digest = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trace_digest)


def _short_trace():
    # five points each way from a point of the K1 lemniscate's right lobe
    return trace_level_curve(make_harmonic_system(trace_digest.K1), (1, 2), 3 + 1j, step=0.01,
                             max_points=5)


def test_same_trace_same_line():
    first, second = (trace_digest.digest_line("short", _short_trace()) for _ in range(2))
    tag, points, digest = first.split()
    assert first == second
    assert (tag, points, len(digest)) == ("short", "11", 64)


def test_changed_residual_changes_digest():
    curve = _short_trace()
    residuals = curve.residuals.copy()
    residuals[3] = np.nextafter(residuals[3], 1.0)
    moved = dataclasses.replace(curve, residuals=residuals)
    assert trace_digest.digest_line("short", moved) != trace_digest.digest_line("short", curve)


def test_flipped_label_changes_region_line():
    grid = classify_regions(make_harmonic_system(trace_digest.K1), trace_digest.REGION_BOX, 20)
    labels = grid.labels.copy()
    labels[10, 10] = 3 - labels[10, 10]
    line = trace_digest.region_line("regions", grid)
    assert line == trace_digest.region_line("regions", dataclasses.replace(grid))
    assert line.split()[:2] == ["regions", str(int(grid.kmask.sum()))]
    assert trace_digest.region_line("regions", dataclasses.replace(grid, labels=labels)) != line


def test_moved_branch_value_changes_its_line():
    curve = build_curve(trace_digest.ND4)
    values = [w for z in trace_digest.branch_sample()[:2] for w in branches_at(curve, z, 128)]
    line = trace_digest.branches_line("branches", values)
    assert line.split()[:2] == ["branches", "8"]
    assert trace_digest.branches_line("branches", list(values)) == line
    # one unit in the last place of the real part's mantissa
    sign, man, exp, _ = values[5].real._mpf_
    real = mp.libmp.from_man_exp((-man if sign else man) + 1, exp)
    assert mp.make_mpf(real) != values[5].real
    values[5] = mp.make_mpc((real, values[5].imag._mpf_))
    assert trace_digest.branches_line("branches", values) != line
