from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from hyperzeros import serialize
from hyperzeros.errors import InvalidInputError
from hyperzeros.exact import ComplexRational
from hyperzeros.hyppoly import HypPolynomial, ParameterSchedule, build_polynomial
from hyperzeros.potential import classify_regions, make_harmonic_system, trace_conjectured_loop
from hyperzeros.rootfinding import find_roots

CR = ComplexRational
F = Fraction
K1 = ParameterSchedule.loop_2f1(1)
CONJ = ParameterSchedule.loop_2f1(CR(F(1, 2), -1))


class TestSchedule:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "sched.json"
        serialize.write_schedule(path, CONJ)
        back = serialize.read_schedule(path)
        assert back == CONJ

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": 2}')
        with pytest.raises(InvalidInputError):
            serialize.read_schedule(path)

    def test_hash_stable(self):
        assert serialize.schedule_hash(K1) == serialize.schedule_hash(
            ParameterSchedule.loop_2f1(1)
        )
        assert serialize.schedule_hash(K1) != serialize.schedule_hash(CONJ)


class TestPolynomial:
    def test_roundtrip_exact(self, tmp_path):
        p = build_polynomial(CONJ, 6)
        path = tmp_path / "poly.txt"
        serialize.write_polynomial(path, p)
        coeffs = serialize.read_polynomial_coeffs(path)
        assert tuple(coeffs) == p.coeffs

    def test_expected_rows(self, tmp_path):
        sched = ParameterSchedule((-1, 0), (0, 2), (0,), (2,))
        p = build_polynomial(sched, 2)
        path = tmp_path / "poly.txt"
        serialize.write_polynomial(path, p)
        rows = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert rows == ["0 1/1 0/1", "1 -4/3 0/1", "2 1/2 0/1"]


class TestRoots:
    def test_roundtrip_precision_faithful(self, tmp_path):
        m = find_roots(build_polynomial(K1, 8), 192)
        path = tmp_path / "roots.txt"
        serialize.write_roots(path, m, K1)
        back = serialize.read_roots(path)
        assert back.precision_bits == m.precision_bits
        assert back.n == m.n
        with mp.workprec(m.precision_bits + 16):
            for a, b in zip(m.roots, back.roots):
                assert abs(a - b) < mp.mpf(2) ** (-m.precision_bits + 8)

    def test_roundtrip_recomputes_clusters(self, tmp_path):
        # z^2 - 2z + 1: the double root at 1 is certified as a cluster
        m = find_roots(HypPolynomial.from_coefficients([1, -2, 1], K1, 2), 128)
        assert m.clusters == ((0, 1),)
        path = tmp_path / "roots.txt"
        serialize.write_roots(path, m, K1)
        back = serialize.read_roots(path)
        assert back.clusters == m.clusters
        assert back.certification_threshold == m.certification_threshold
        # the solver trace lives only in memory
        assert m.trace and back.trace == ()
        # the file carries no forward bounds, so none are claimed
        assert all(f == mp.inf for f in back.forward_error_bounds)

    def test_write_deterministic(self, tmp_path):
        m = find_roots(build_polynomial(K1, 5), 128)
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        serialize.write_roots(p1, m, K1)
        serialize.write_roots(p2, m, K1)
        assert p1.read_bytes() == p2.read_bytes()


class TestLevelCurve:
    def test_roundtrip(self, tmp_path):
        sys_ = make_harmonic_system(K1)
        curve = trace_conjectured_loop(sys_, 2, step=0.02)
        path = tmp_path / "level.csv"
        serialize.write_level_curve(path, curve)
        back = serialize.read_level_curve(path)
        assert back.pair == (1, 2)
        assert back.closed == curve.closed
        assert len(back.points) == len(curve.points)
        assert np.max(np.abs(back.points - curve.points)) < 1e-15


class TestRegions:
    def test_roundtrip_labels(self, tmp_path):
        grid = classify_regions(make_harmonic_system(K1), (-1.0, 2.0, -1.5, 1.5), 64)
        path = tmp_path / "regions.txt"
        serialize.write_region_grid(path, grid)
        back = serialize.read_region_grid(path)
        assert np.array_equal(back.labels, grid.labels)
        assert np.array_equal(back.kmask, grid.kmask)
        assert back.box == grid.box

    def test_k_cells_file(self, tmp_path):
        grid = classify_regions(make_harmonic_system(K1), (-1.0, 2.0, -1.5, 1.5), 64)
        path = tmp_path / "k.txt"
        serialize.write_k_cells(path, grid)
        pts = serialize.read_point_list(path)
        assert len(pts) == int(grid.kmask.sum())


class TestManifest:
    def test_manifest_written_with_hashes(self, tmp_path):
        sched_path = tmp_path / "s.json"
        serialize.write_schedule(sched_path, K1)
        serialize.write_manifest(tmp_path, "poly", {"n": 4}, {"schedule": sched_path})
        manifest = (tmp_path / "manifest_poly.json").read_text()
        assert "sha256:" in manifest
        assert '"n": 4' in manifest
