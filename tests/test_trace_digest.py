import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

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
