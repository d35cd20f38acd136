import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeros.errors import InvalidInputError
from hyperzeros.exact import ComplexRational
from hyperzeros.experiments import (
    NULL_SAMPLES,
    _near_cells,
    cauchy_convergence,
    k_set_score,
    halfplane_restriction,
    label_side,
    points_to_polyline_distance,
    winding_number,
    zero_curve_distance,
)
from hyperzeros.hyppoly import ParameterSchedule, build_polynomial
from hyperzeros.potential import (
    LevelCurve,
    RegionGrid,
    classify_regions,
    make_harmonic_system,
    trace_conjectured_loop,
)
from hyperzeros.rootfinding import RootCountingMeasure, find_roots

CR = ComplexRational
F = Fraction
K1 = ParameterSchedule.loop_2f1(1)


def fake_measure(points, precision=128):
    with mp.workprec(precision):
        roots = tuple(sorted((mp.mpc(z) for z in points), key=lambda z: (z.real, z.imag)))
        return RootCountingMeasure(
            roots=roots,
            precision_bits=precision,
            residual_bounds=tuple(mp.mpf(0) for _ in roots),
            forward_error_bounds=tuple(mp.mpf(0) for _ in roots),
            certification_threshold=mp.mpf(2) ** -32,
            clusters=(),
            source_n=len(roots),
        )


def square_loop():
    pts = [1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]
    return LevelCurve((1, 2), np.array(pts, dtype=complex), np.zeros(4), True, (), False)


class TestGeometry:
    def test_distance_zero_on_vertices(self):
        loop = square_loop()
        d = points_to_polyline_distance(loop.points.copy(), loop.points, closed=True)
        assert np.max(d) == 0.0

    def test_distance_center(self):
        loop = square_loop()
        d = points_to_polyline_distance(np.array([0j]), loop.points, closed=True)
        assert abs(d[0] - 1.0) < 1e-14

    def test_distance_to_open_polyline(self):
        # three sides of the square; 1.2 + 0.1i lies nearest to the missing
        # side from 1 - i to 1 + i, which an open polyline does not have
        poly = square_loop().points
        pts = np.array([1.2 + 0.1j, 0.1 - 1.5j, -1.3 + 0.2j, 0j, 2 - 2j])
        t = np.linspace(0, 1, 200001)
        dense = np.concatenate([a + t * (b - a) for a, b in zip(poly[:-1], poly[1:])])
        brute = [np.min(np.abs(z - dense)) for z in pts]
        d = points_to_polyline_distance(pts, poly, closed=False)
        assert d == pytest.approx(brute, abs=1e-5)
        assert d[0] > points_to_polyline_distance(pts[:1], poly, closed=True)[0] + 0.5

    def test_winding(self):
        loop = square_loop()
        assert winding_number(loop.points, 0j) in (-1, 1)
        assert winding_number(loop.points, 5 + 5j) == 0

    def test_label_side(self):
        loop = square_loop()
        assert label_side(loop, 0j) == "inside"
        assert label_side(loop, 3 + 0j) == "outside"

    @pytest.mark.parametrize("z", [1 + 1j, -1 - 1j, 1 + 0.5j, 0.25 - 1j])
    def test_point_on_the_loop_has_no_side(self, z):
        # a vertex used to divide by zero in the winding number
        with pytest.raises(InvalidInputError, match=re.escape(f"test point {z} lies on the traced loop")):
            label_side(square_loop(), z)

    def test_densification_stability(self):
        # refining the polyline changes distances only by the segment sag
        loop = square_loop()
        dense = []
        for a, b in zip(loop.points, np.roll(loop.points, -1)):
            dense.extend(a + (b - a) * t for t in np.linspace(0, 1, 50, endpoint=False))
        dense = np.array(dense)
        pts = np.array([0.3 + 0.4j, 1.5 - 0.2j, -0.7 + 0.9j])
        d1 = points_to_polyline_distance(pts, loop.points, closed=True)
        d2 = points_to_polyline_distance(pts, dense, closed=True)
        assert np.max(np.abs(d1 - d2)) < 1e-12


class TestDistanceReport:
    def test_roots_on_curve(self):
        loop = square_loop()
        m = fake_measure([1 + 1j, -1 - 1j])
        rep = zero_curve_distance(m, loop)
        assert rep.max == 0.0
        assert rep.n_restricted == 2

    def test_restriction_and_vacuous(self):
        loop = square_loop()
        m = fake_measure([1 + 1j, -1 - 1j])
        rep = zero_curve_distance(m, loop, halfplane_restriction(5.0), "Re z > 5")
        assert rep.vacuous
        assert rep.n_restricted == 0

    def test_statistics_order(self):
        loop = square_loop()
        m = fake_measure([0j, 1 + 1j, 2 + 2j])
        rep = zero_curve_distance(m, loop)
        assert rep.max >= rep.mean >= 0


class TestCauchyConvergence:
    def test_k1_decreasing(self):
        ns = [5, 10, 20]
        pts = [(2.0 + 0j, "outside"), (1.1 + 0j, "inside")]
        rep = cauchy_convergence(K1, ns, pts, precision_bits=128)
        assert rep.monotone
        for p in rep.points:
            devs = [p.deviations[n] for n in ns]
            assert devs[-1] < devs[0]

    def test_targets(self):
        ns = [4, 8]
        rep = cauchy_convergence(K1, ns, [(2.0 + 0j, "outside")], precision_bits=128)
        assert rep.points[0].target == 1.0  # 1/(z-1) at z=2

    def test_inside_target(self):
        rep = cauchy_convergence(K1, [4, 8], [(1.1 + 0j, "inside")], precision_bits=128)
        assert abs(rep.points[0].target + 1 / 1.1) < 1e-15

    def test_single_atom_transform_exact(self):
        # 2F1(-1, 3; 4; z) = 1 - (3/4) z: one root at 4/3, C(2) = 1/(2 - 4/3) = 3/2
        sched = ParameterSchedule((-1, 0), (0, 3), (0,), (3,))
        p = build_polynomial(sched, 1)
        m = find_roots(p, 128)
        from hyperzeros.rootfinding import cauchy_transform_at

        with mp.workprec(128):
            v = cauchy_transform_at(m, mp.mpc(2))
            assert abs(v - mp.mpf(3) / 2) < mp.mpf(2) ** -120

    def test_point_at_root_excluded(self):
        p = build_polynomial(K1, 1)
        m = find_roots(p, 128)
        root = complex(m.roots[0])
        rep = cauchy_convergence(K1, [1, 2], [(root, "outside")], precision_bits=128,
                                 measures={1: m})
        assert rep.points[0].excluded

    def test_nondegenerate_rejected(self):
        sched = ParameterSchedule((-1, 2), (0, 1), (3,), (1,))
        with pytest.raises(InvalidInputError):
            cauchy_convergence(sched, [4, 8], [(2.0, "outside")])

    def test_bad_side_rejected(self):
        with pytest.raises(InvalidInputError):
            cauchy_convergence(K1, [4, 8], [(2.0, "above")])


@pytest.fixture(scope="module")
def grid():
    return classify_regions(make_harmonic_system(K1), (-1.0, 2.0, -1.5, 1.5), 120)


class TestConjecture2Score:

    def test_roots_on_k_score_one(self, grid):
        kpts = grid.k_points()[:40]
        m = fake_measure(list(kpts))
        score = k_set_score(m, grid)
        assert score.fraction_on_k == 1.0
        assert score.ratio_over_null > 1

    def test_null_fraction_sensible(self, grid):
        m = fake_measure(list(grid.k_points()[:10]))
        score = k_set_score(m, grid)
        assert 0 < score.null_fraction < 0.5

    def test_epsilon_default_three_diagonals(self, grid):
        m = fake_measure(list(grid.k_points()[:5]))
        score = k_set_score(m, grid)
        assert abs(score.epsilon - 3 * grid.cell_diagonal) < 1e-12

    def test_grid_must_cover_roots(self, grid):
        m = fake_measure([10 + 10j])
        with pytest.raises(InvalidInputError):
            k_set_score(m, grid)

    def test_uniform_null_consistency(self, grid):
        # uniform points score like the null model (within 3 binomial sigmas)
        rng = np.random.default_rng(5)
        xmin, xmax, ymin, ymax = grid.box
        pts = rng.uniform(xmin, xmax, 400) + 1j * rng.uniform(ymin, ymax, 400)
        m = fake_measure(list(pts))
        score = k_set_score(m, grid)
        p = score.null_fraction
        sigma = (p * (1 - p) / 400) ** 0.5
        assert abs(score.fraction_on_k - p) < 3 * sigma + 1e-9


def _near_all_pairs(points, grid, mask, eps):
    """Within eps of some masked cell centre, by a search over every cell."""
    X, Y = np.meshgrid(grid.xs, grid.ys)
    centres = (X + 1j * Y)[mask]
    if not len(centres):
        return np.zeros(len(points), dtype=bool)
    return np.array([np.min(np.abs(p - centres)) <= eps for p in points])


class TestGridWindow:
    """The K-set score tests each point only against the K cells in its
    epsilon-window; the outcome must be that of the all-pairs search."""

    @settings(max_examples=80, deadline=None)
    @given(
        res=st.integers(2, 30),
        density=st.sampled_from([0.0, 0.02, 0.2, 0.7]),
        eps_cells=st.one_of(st.floats(0.05, 6.0), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
        corner=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
        size=st.tuples(st.floats(0.1, 5), st.floats(0.1, 5)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_all_pairs(self, res, density, eps_cells, corner, size, seed):
        rng = np.random.default_rng(seed)
        box = (corner[0], corner[0] + size[0], corner[1], corner[1] + size[1])
        labels = np.where(rng.random((res, res)) < density, 2, 1).astype(np.int16)
        grid = RegionGrid.from_labels(box, res, labels)
        xmin, xmax, ymin, ymax = box
        # cell edges, box edges and corners, and uniform points
        ex = xmin + (xmax - xmin) / res * rng.integers(0, res + 1, 25)
        ey = ymin + (ymax - ymin) / res * rng.integers(0, res + 1, 25)
        ux = rng.uniform(xmin, xmax, 25)
        uy = rng.uniform(ymin, ymax, 25)
        corners = np.array([xmin, xmax, xmax, xmin]) + 1j * np.array([ymin, ymin, ymax, ymax])
        points = np.concatenate([ux + 1j * uy, ex + 1j * uy, ux + 1j * ey, ex + 1j * ey, corners])
        eps = eps_cells * (xmax - xmin) / res
        for mask in (grid.kmask, grid.kmask & grid.domain_mask()):
            assert np.array_equal(_near_cells(points, grid, mask, eps),
                                  _near_all_pairs(points, grid, mask, eps))

    def test_score_fields_match_all_pairs(self, grid):
        rng = np.random.default_rng(11)
        xmin, xmax, ymin, ymax = grid.box
        pts = list(grid.k_points()[::7]) + list(rng.uniform(xmin, xmax, 60)
                                                + 1j * rng.uniform(ymin, ymax, 60))
        m = fake_measure(pts)
        roots = m.as_complex_array()
        eps = 3.0 * grid.cell_diagonal
        score = k_set_score(m, grid, seed=7)
        null_rng = np.random.default_rng(7)
        null = (null_rng.uniform(xmin, xmax, NULL_SAMPLES)
                + 1j * null_rng.uniform(ymin, ymax, NULL_SAMPLES))
        domain = grid.kmask & grid.domain_mask()
        assert score.fraction_on_k == float(np.mean(_near_all_pairs(roots, grid, grid.kmask, eps)))
        assert score.fraction_on_k_in_domain == float(np.mean(_near_all_pairs(roots, grid, domain, eps)))
        assert score.null_fraction == float(np.mean(_near_all_pairs(null, grid, grid.kmask, eps)))


class TestEndToEndK1:
    def test_small_ladder_distance_decreases(self):
        sys_ = make_harmonic_system(K1)
        loop = trace_conjectured_loop(sys_, 2, step=0.01)
        maxima = {}
        for n in (8, 16):
            m = find_roots(build_polynomial(K1, n), 128)
            rep = zero_curve_distance(m, loop, halfplane_restriction(0.5), "Re z > 1/2")
            maxima[n] = rep.max
        assert maxima[16] < maxima[8]
