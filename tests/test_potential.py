import math
from fractions import Fraction

import numpy as np
import pytest

from hyperzeros import potential
from hyperzeros.errors import (
    BranchCollisionError,
    InvalidInputError,
    NonConvergenceError,
    SaddleAtSeedError,
)
from hyperzeros.algcurve import w_coefficients
from hyperzeros.exact import ComplexRational
from hyperzeros.hyppoly import ParameterSchedule
from hyperzeros.potential import (
    _GK_X,
    _G7_W,
    _K15_W,
    MIN_BRANCH_SEPARATION,
    PSI_TIE_TOL,
    QUAD_TOL,
    REGION_BLOCK_BYTES,
    SINGULAR_GUARD,
    HarmonicSystem,
    RegionGrid,
    _BranchTracker,
    _crosses_cut,
    _integrate,
    classify_regions,
    harmonic_value_by_integration,
    level_seed_on_ray,
    make_harmonic_system,
    psi_value,
    trace_conjectured_loop,
    trace_level_curve,
)

CR = ComplexRational
F = Fraction

K1 = ParameterSchedule.loop_2f1(1)
ALPHA = CR(F(1, 2), -1)
CONJ = ParameterSchedule.loop_2f1(ALPHA)
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
ND3 = ParameterSchedule((-1, CR(F(1, 2), 1), 2), (0, 1, 0), (1, CR(F(3, 2), -1)), (0, 1))


@pytest.fixture(scope="module")
def sys_k1():
    return make_harmonic_system(K1)


@pytest.fixture(scope="module")
def sys_conj():
    return make_harmonic_system(CONJ)


@pytest.fixture(scope="module")
def sys_fig5():
    return make_harmonic_system(FIG5)


class TestClosedForms:
    def test_normalized_at_basepoint(self, sys_k1):
        p = sys_k1.basepoint
        assert sys_k1.harmonic(1, p) == 0.0
        assert sys_k1.harmonic(2, p) == 0.0

    def test_shift_matches_h1_at_branch_point(self, sys_conj):
        p2 = sys_conj.branch_point_list[0]
        assert abs(sys_conj.shifted(2, p2) - sys_conj.harmonic(1, p2)) < 1e-12

    def test_lemniscate_identity(self, sys_k1):
        # H~_2 - H_1 = 0 iff |z(1-z)| = 1/4
        for z in (1.2071067811865475, 0.5 + 0.001j, 1.1 + 0.2j):
            lhs = sys_k1.difference((1, 2), z)
            rhs = math.log(abs(z * (1 - z))) - math.log(0.25)
            assert abs(float(lhs) - rhs) < 1e-12

    def test_complex_slope_closed_form(self, sys_conj):
        # alpha = 1/2 - i at z = 2: H_2 = -(1/2) log 2 + const (Arg 2 = 0)
        p = sys_conj.basepoint
        expected = (-0.5 * math.log(2)
                    + 0.5 * math.log(abs(p)) - (-1.0) * np.angle(p))
        assert abs(sys_conj.harmonic(2, 2.0) - expected) < 1e-12

    def test_singularities_rejected(self, sys_k1):
        with pytest.raises(InvalidInputError):
            sys_k1.harmonic(1, 1.0)
        with pytest.raises(InvalidInputError):
            sys_k1.harmonic(2, 0.0)

    def test_closed_forms_need_degenerate(self):
        sched = ParameterSchedule((-1, 1), (0, 1), (F(9, 8),), (1,))
        sys_ = make_harmonic_system(sched, basepoint=2.0 + 1.0j)
        assert sys_.mode == "integral"
        with pytest.raises(InvalidInputError):
            sys_.harmonic(1, 2.0)


class TestIntegration:
    def test_agrees_with_closed_forms(self, sys_k1):
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 12:
            z = complex(rng.uniform(0.1, 2.5), rng.uniform(-1.5, 1.5))
            if abs(z) < 0.2 or abs(z - 1) < 0.2:
                continue
            for i in (1, 2):
                hv = float(sys_k1.harmonic(i, z))
                hq = harmonic_value_by_integration(sys_k1, i, z)
                assert abs(hv - hq) < 1e-10
            checked += 1

    def test_complex_slope_agreement(self, sys_conj):
        for z in (2.0 + 0.3j, 0.4 - 0.9j, 1.4 - 1.1j):
            for i in (1, 2):
                hv = float(sys_conj.harmonic(i, z))
                hq = harmonic_value_by_integration(sys_conj, i, z)
                assert abs(hv - hq) < 1e-10

    def test_closed_null_homotopic_path(self, sys_k1):
        v = harmonic_value_by_integration(
            sys_k1, 1, sys_k1.basepoint, path=[1.6 + 0.6j, 1.6 - 0.6j]
        )
        assert abs(v) < 1e-10

    def test_branch_one_is_log(self, sys_k1):
        z = 2.3 + 0.4j
        v = harmonic_value_by_integration(sys_k1, 1, z)
        expected = math.log(abs(1 - z)) - math.log(abs(1 - sys_k1.basepoint))
        assert abs(v - expected) < 1e-10

    @pytest.mark.parametrize("z", [1.5 - 0.005j, -0.6 + 0.01j])
    def test_paths_near_singularities(self, sys_k1, z):
        # the straight path from p = 1/2 passes within 0.01 of 1 or of 0
        for i in (1, 2):
            hv = float(sys_k1.harmonic(i, z))
            assert abs(harmonic_value_by_integration(sys_k1, i, z) - hv) < 1e-10

    @pytest.mark.parametrize("z", [0j, 1 + 0j])
    @pytest.mark.parametrize("i", [1, 2])
    def test_singular_endpoint_rejected(self, sys_k1, i, z):
        # the closed forms are singular at 0 and 1 for every branch, so the
        # quadrature rejects them as ``harmonic`` does
        with pytest.raises(InvalidInputError):
            harmonic_value_by_integration(sys_k1, i, z)

    def test_integral_mode_machinery(self):
        sched = ParameterSchedule((-1, 1), (0, 1), (F(9, 8),), (1,))
        sys_ = make_harmonic_system(sched, basepoint=2.0 + 1.0j)
        # a null-homotopic loop integrates to zero without closed forms
        v = harmonic_value_by_integration(
            sys_, 1, sys_.basepoint, path=[2.5 + 1.5j, 2.5 + 0.5j]
        )
        assert abs(v) < 1e-9

    def test_collision_on_path_through_branch_point(self):
        sched = ParameterSchedule((-1, 1), (0, 1), (F(9, 8),), (1,))
        sys_ = make_harmonic_system(sched, basepoint=2.0 + 1.0j)
        from hyperzeros.algcurve import branch_points, build_curve

        bp = branch_points(build_curve(sched), sched, 128).points[0]
        target = complex(bp) + (complex(bp) - 2.0 - 1.0j) * 0.2
        with pytest.raises((BranchCollisionError, NonConvergenceError)):
            harmonic_value_by_integration(sys_, 1, target, path=[complex(bp)])


class TestTrace:
    def test_lemniscate_loop(self, sys_k1):
        seed = level_seed_on_ray(sys_k1, (1, 2), 1.0, 1.0)
        curve = trace_level_curve(sys_k1, (1, 2), seed, step=0.005)
        assert curve.closed
        vals = np.abs(curve.points * (1 - curve.points))
        assert np.max(np.abs(vals - 0.25)) < 1e-10
        assert np.max(np.abs(curve.residuals)) < 1e-10

    def test_saddle_detected_on_loop(self, sys_k1):
        curve = trace_conjectured_loop(sys_k1, 2, step=0.005)
        assert curve.closed
        assert any(abs(c.location - 0.5) < 1e-9 for c in curve.critical_points)

    def test_seeding_at_saddle_reports_split(self, sys_k1):
        with pytest.raises(SaddleAtSeedError) as err:
            trace_level_curve(sys_k1, (1, 2), 0.5, step=0.005)
        assert len(err.value.directions) == 4
        dirs = sorted(set(round(d % math.pi, 9) for d in err.value.directions))
        # lemniscate crosses itself at 45 degrees at z = 1/2
        assert abs(dirs[0] - math.pi / 4) < 1e-6
        assert abs(dirs[1] - 3 * math.pi / 4) < 1e-6

    @pytest.mark.parametrize("seed", [0.5 + 1e-7, 0.5 + 1e-6j])
    def test_seed_near_saddle_reports_the_saddle(self, sys_k1, seed):
        # the corrected seed lies within the stall bound step/4096 of the
        # saddle, and the error names the saddle, not the seed
        with pytest.raises(SaddleAtSeedError) as err:
            trace_level_curve(sys_k1, (1, 2), seed, step=0.005)
        assert err.value.point == 0.5
        assert err.value.directions == pytest.approx(
            tuple(-math.pi / 4 + k * math.pi / 2 for k in range(4)))

    @pytest.mark.parametrize("pair, sign", [((1, 2), -1), ((2, 1), 1)])
    def test_critical_point_directions(self, sys_conj, pair, sign):
        # F'' = f_i' - f_j' at p = alpha/(1 + alpha) is -(1 + alpha)^3/alpha for
        # the pair (1, 2) and its negative for (2, 1); the level set
        # Re(F'' (z - p)^2) = 0 leaves p where F'' e^(2i theta) is imaginary
        (saddle,) = sys_conj.critical_points(pair)
        assert saddle.location == sys_conj.branch_point_list[0]
        alpha = complex(ALPHA)
        g2 = sign * (1 + alpha) ** 3 / alpha
        assert saddle.directions[0] == pytest.approx((math.pi / 2 - np.angle(g2)) / 2)
        assert np.diff(saddle.directions) == pytest.approx([math.pi / 2] * 3)
        assert np.abs((g2 * np.exp(2j * np.array(saddle.directions))).real) == pytest.approx(
            [0] * 4, abs=1e-12 * abs(g2))

    def test_conjectured_loop_complex_alpha(self, sys_conj):
        curve = trace_conjectured_loop(sys_conj, 2, step=0.004)
        assert curve.closed
        p2 = sys_conj.branch_point_list[0]
        assert np.min(np.abs(curve.points - p2)) < 1e-9
        eta, zeta = 0.5, -1.0
        lhs = (np.abs(curve.points) ** eta * np.abs(1 - curve.points)
               * np.exp(-zeta * np.angle(curve.points)))
        rhs = (abs(p2) ** eta * abs(1 - p2) * math.exp(-zeta * np.angle(p2)))
        assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("seed, max_points, expected", [
        # the left lobe's marches end at the saddle 1/2 and at the cut
        (-0.3 + 0.3j, 50000, (92, False, True, 1)),
        # the right lobe closes at the saddle 1/2, reached by both marches
        (3 + 1j, 50000, (185, True, False, 2)),
        # five points each way and the seed
        (3 + 1j, 5, (11, False, False, 0)),
    ], ids=["cut", "saddle", "max-points"])
    def test_stop_reasons(self, sys_k1, seed, max_points, expected):
        curve = trace_level_curve(sys_k1, (1, 2), seed, step=0.01, max_points=max_points)
        assert (len(curve), curve.closed, curve.hit_cut, len(curve.critical_points)) == expected
        assert all(c.location == 0.5 for c in curve.critical_points)
        assert np.max(np.abs(curve.residuals)) < 1e-10

    def test_same_index_rejected(self, sys_k1):
        with pytest.raises(InvalidInputError):
            trace_level_curve(sys_k1, (1, 1), 1.2)

    def test_far_seed_rejected(self, sys_k1):
        with pytest.raises(InvalidInputError):
            trace_level_curve(sys_k1, (1, 2), 50.0 + 50.0j)

    @pytest.mark.parametrize("pair", [(1, 5), (0, 2), (2, -1), (3, 1)])
    def test_pair_out_of_range_rejected(self, sys_k1, pair):
        # K1 has A = 2 branches; index 0 would wrap to the last branch
        with pytest.raises(InvalidInputError, match="out of range"):
            trace_level_curve(sys_k1, pair, 1.5)

    @pytest.mark.parametrize("step", [0.0, -1.0, math.nan, math.inf])
    def test_bad_step_rejected(self, sys_k1, step):
        with pytest.raises(InvalidInputError, match="step"):
            trace_level_curve(sys_k1, (1, 2), 1.2071067811865475, step=step)


# slopes i and 2i: H~_2 - H~_3 = -arg z + const, so the level set of the pair
# (2, 3) is a ray from 0, along which the tangent never turns
RAY = ParameterSchedule.diagonal((CR(0, 1), CR(0, 2)))


class TestTracePaths:
    """The stops and step controls of ``trace_level_curve``, each reached by
    an input of its own."""

    def test_closes_by_return_to_seed(self, sys_k1):
        # the oval |z (1 - z)| = 0.24 around 1 has no saddle: the forward
        # march comes back within step/2 of the seed, and no backward march runs
        curve = trace_level_curve(_forced_integral(sys_k1), (1, 2), 1.2, step=0.005)
        assert curve.closed and not curve.hit_cut and curve.critical_points == ()
        z = curve.points
        assert abs(z[-1] - z[0]) < 0.005 / 2 < abs(z[1] - z[0])
        assert np.max(np.abs(np.abs(z * (1 - z)) - 0.24)) < 1e-9

    def test_halves_where_the_tangent_turns(self, sys_k1):
        # at step 0.3 the lemniscate lobe turns by more than 0.45 per step, so
        # every step between the two saddle ends is halved to a quarter
        seed = level_seed_on_ray(sys_k1, (1, 2), 1.0, 1.0)
        curve = trace_level_curve(sys_k1, (1, 2), seed, step=0.3)
        assert curve.closed and [c.location for c in curve.critical_points] == [0.5, 0.5]
        inner = curve.points[1:-1]
        assert np.all(np.abs(np.diff(inner)) < 0.3 / 2)
        # the tangent i conj(f_1 - f_2), up to sign, turns at most 0.45 per step
        t = 1j * np.conj(1 / (inner - 1) + 1 / inner)
        turns = np.abs(np.angle(t[1:] / t[:-1]))
        assert np.all(np.minimum(turns, np.pi - turns) <= 0.45)
        assert np.max(np.abs(np.abs(inner * (1 - inner)) - 0.25)) < 1e-10

    def test_halves_on_failed_corrections_and_regrows(self, monkeypatch):
        # marching into 0 along the ray, the predictor overshoots and the
        # correction fails; the step halves, grows back after each accepted
        # point, and the march ends when it stalls below step/4096
        step = 0.7
        tries = []
        crosses_cut = potential._crosses_cut
        monkeypatch.setattr(potential, "_crosses_cut",
                            lambda a, b: tries.append((a, abs(b - a))) or crosses_cut(a, b))
        curve = trace_level_curve(make_harmonic_system(RAY), (2, 3), 1 + 1j, step=step,
                                  max_points=400)
        assert not curve.closed and not curve.hit_cut
        assert np.ptp(np.angle(curve.points)) < 1e-12
        # the predictor steps taken from each base point, in order
        runs = []
        for base, h in tries:
            if runs and runs[-1][0] == base:
                runs[-1][1].append(h)
            else:
                runs.append((base, [h]))
        seed = tries[0][0]
        # the ray never turns, so a step halved at one base point is a failed correction
        assert any(len(hs) > 1 for _, hs in runs)
        # a later base point starts from twice the step that last succeeded
        assert any(math.isclose(nxt[1][0], 2 * cur[1][-1])
                   for cur, nxt in zip(runs, runs[1:]) if nxt[0] != seed)
        assert min(h for _, h in tries) < step / 2048

    def test_ends_beyond_modulus_1e6(self):
        # outward along the ray the march stops once |z| > 1e6, long before
        # max_points; inward it reaches the cut
        curve = trace_level_curve(make_harmonic_system(RAY), (2, 3), 1 + 1j, step=1e4)
        assert not curve.closed and curve.hit_cut
        assert 1e6 < np.max(np.abs(curve.points)) < 1e6 + 2e4
        assert len(curve) < 200

    def test_flat_saddle_at_known_critical_point(self):
        # for alpha = -0.99 + 0.01i the saddle p = -49 + 50i is so flat
        # (|F''| = |alpha + 1|^3 / |alpha| ~ 3e-6) that |grad F| stays tiny far
        # from it; the march reaching it at step 1 stops at the known p itself
        sys_ = make_harmonic_system(ParameterSchedule.loop_2f1(CR(F(-99, 100), F(1, 100))))
        p = sys_.branch_point_list[0]
        loop = trace_conjectured_loop(sys_, 2, step=1.0)
        seed = min(loop.points, key=lambda z: abs(abs(z - p) - 3))
        curve = trace_level_curve(sys_, (1, 2), seed, step=1.0, max_points=3)
        (saddle,) = curve.critical_points
        assert saddle.location == p and p in curve.points
        # the level set crosses itself at right angles, one branch along
        # arg(i / F'')/2 with F'' = -(1 + alpha)^3 / alpha at p
        alpha = complex(sys_.schedule.alphas[1])
        along = np.angle(-1j * alpha / (1 + alpha) ** 3) / 2
        assert abs(math.remainder(saddle.directions[0] - along, math.pi)) < 1e-9
        assert np.diff(saddle.directions) == pytest.approx([math.pi / 2] * 3)


class TestIntegralModeTrace:
    def test_matches_closed_form_level_set(self, sys_k1):
        """Force integral mode on the k=1 system: the traced level set through a
        lemniscate point must coincide with the closed-form lemniscate."""
        from hyperzeros.potential import HarmonicSystem

        forced = HarmonicSystem(
            sys_k1.schedule, sys_k1.basepoint, "integral", sys_k1.curve, (), ()
        )
        seed = level_seed_on_ray(sys_k1, (1, 2), 1.0, 1.0)
        # at the seed the lexicographically sorted branches are (-1/z, 1/(z-1)),
        # so integral-mode pair (1, 2) traces the same difference up to sign
        curve = trace_level_curve(forced, (1, 2), seed, step=0.01, max_points=2000)
        assert len(curve.points) > 50
        vals = np.abs(curve.points * (1 - curve.points))
        assert np.max(np.abs(vals - 0.25)) < 1e-8

    @pytest.mark.parametrize("z", [0.6 - 0.02j, 0.9 + 0.01j])
    def test_level_function_matches_closed_form(self, sys_k1, z):
        """An integral-mode query agrees with the closed forms to the
        quadrature tolerance on a long segment that passes close to z = 1."""
        from hyperzeros.potential import HarmonicSystem, _IntegralLevelFunction

        forced = HarmonicSystem(
            sys_k1.schedule, sys_k1.basepoint, "integral", sys_k1.curve, (), ()
        )
        seed = 1.4 + 0.3j
        fun = _IntegralLevelFunction(forced, (1, 2), seed)
        exact = float(sys_k1.difference((1, 2), z) - sys_k1.difference((1, 2), seed))
        # the sorted branches at the seed are (-1/z, 1/(z-1)): the sign flips
        assert abs(fun.at(z)[0] + exact) < 1e-11

    def test_marches_both_ways_from_the_seed(self):
        # alpha = 2 + i forced into integral mode: the backward march starts
        # from the seed's anchor, not from where the forward march ended
        closed = make_harmonic_system(ParameterSchedule.loop_2f1(CR(2, 1)))
        seed = level_seed_on_ray(closed, (1, 2), 1.0, 1 - closed.branch_point_list[0])
        curve = trace_level_curve(_forced_integral(closed), (1, 2), seed, step=0.01)
        (k,) = np.flatnonzero(curve.points == seed)
        assert 0 < k < len(curve) - 1
        level = closed.difference((1, 2), curve.points) - closed.difference((1, 2), seed)
        assert np.max(np.abs(level)) < 1e-11

    def test_nd3_marches_reach_max_points_both_ways(self):
        # from 1.5 + 0.5i each march takes its 50 points: the backward one is
        # not left to integrate back from the far end of the forward one
        curve = trace_level_curve(make_harmonic_system(ND3), (1, 2), 1.5 + 0.5j, step=0.02,
                                  max_points=50)
        assert len(curve) == 2 * 50 + 1
        assert np.max(np.abs(curve.residuals)) < potential.TRACE_RESIDUAL_TOL

    def test_gradient_consistency(self):
        """Integral-mode H along a short segment matches its branch-value gradient."""
        sched = ParameterSchedule((-1, 1), (0, 1), (F(9, 8),), (1,))
        sys_ = make_harmonic_system(sched, basepoint=2.0 + 1.0j)
        z0 = 1.8 + 0.9j
        h = 1e-5
        v0 = harmonic_value_by_integration(sys_, 1, z0)
        v1 = harmonic_value_by_integration(sys_, 1, z0 + h)
        v2 = harmonic_value_by_integration(sys_, 1, z0 + 1j * h)
        from hyperzeros.potential import _BranchTracker

        tracker = _BranchTracker(sys_.curve)
        ws = sorted(tracker.all_branches(sys_.basepoint), key=lambda v: (v.real, v.imag))
        w = np.array([ws[0]])
        steps = 40
        for k in range(1, steps + 1):
            (w,), _ = tracker.track([sys_.basepoint + (z0 - sys_.basepoint) * k / steps], w)
        (w,) = w
        # gradient of Re int f ds is conj(f)
        assert abs((v1 - v0) / h - w.real) < 1e-4
        assert abs((v2 - v0) / h - (-w.imag)) < 1e-4


class TestIntegralWithoutBasepoint:
    """A general schedule's system has no basepoint unless one is given:
    level traces anchor at their seed, and only harmonic values need one."""

    def test_trace_from_seed(self):
        sys_ = make_harmonic_system(ND3)
        assert sys_.mode == "integral" and sys_.basepoint is None
        curve = trace_level_curve(sys_, (1, 2), -0.5 + 0.8j, step=0.02, max_points=20)
        assert len(curve) == 41 and curve.critical_points == ()
        assert np.max(np.abs(curve.residuals)) < potential.TRACE_RESIDUAL_TOL

    def test_harmonic_value_needs_basepoint(self):
        with pytest.raises(InvalidInputError, match="basepoint"):
            harmonic_value_by_integration(make_harmonic_system(ND3), 1, 1 + 1j)


def _reference_integrate(tracker, a, b, ws):
    """``_integrate`` as a chain of single-point steps, one ``np.roots`` solve
    per node: the reference the batched tracker must reproduce exactly."""

    def step(s, w_prev):
        coeffs = w_coefficients(tracker.m, tracker.n, s)
        if abs(coeffs[-1]) == 0 or abs(s) < SINGULAR_GUARD:
            raise InvalidInputError(f"branch values degenerate at z = {s}")
        branches = np.roots(coeffs[::-1])
        dists = np.abs(w_prev[:, None] - branches)
        w = branches[dists.argmin(axis=1)]
        sep = np.sort(np.abs(w[:, None] - branches), axis=1)[:, 1]
        if sep.min() < MIN_BRANCH_SEPARATION:
            raise BranchCollisionError("branches collide", where=s)
        return w, bool((dists.min(axis=1) <= sep / 4).all())

    ws = np.asarray(ws, dtype=complex)
    total = np.zeros_like(ws)
    limit = QUAD_TOL * max(1.0, abs(b - a))
    t, dt = 0.0, 1.0
    while t < 1.0 - 1e-15:
        dt = min(dt, 1.0 - t)
        a0 = a + (b - a) * t
        half = (b - a) * dt / 2
        w, vals = ws, []
        for x in _GK_X:
            w, ok = step(a0 + half * (1 + x), w)
            if not ok:
                break
            vals.append(w)
        if ok:
            vals = np.array(vals)
            kronrod = half * (_K15_W @ vals)
            err = float(np.max(np.abs(kronrod - half * (_G7_W @ vals))))
            ok = err <= limit
        if not ok:
            dt /= 2
            if dt < 1e-12:
                raise BranchCollisionError("quadrature step collapsed", where=a0)
            continue
        total += kronrod
        ws = w
        t += dt
        if err < QUAD_TOL / 100:
            dt *= 2
    return total, ws


def _forced_integral(system):
    return HarmonicSystem(system.schedule, system.basepoint, "integral", system.curve, (), ())


class TestBatchedTracker:
    """The batched tracker solves each quadrature step's nodes together; its
    integrals, end values and failures must equal single-point stepping."""

    # the second segment passes the branch point 1/2, where steps halve
    @pytest.mark.parametrize("a, b", [(1.4 + 0.3j, 0.9 + 0.6j), (0.3 + 0.05j, 0.7 + 0.01j)])
    def test_forced_integral_k1_segment(self, sys_k1, a, b):
        tracker = _BranchTracker(_forced_integral(sys_k1).curve)
        ws = tracker.select(a, (1, 2))
        got = _integrate(tracker.track, a, b, ws)
        ref = _reference_integrate(tracker, a, b, ws)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    @pytest.mark.parametrize("b", [0.5 + 1.0j, -1.0 + 0.5j, 0.3 - 1.2j])
    def test_nd3_integral_segment(self, b):
        sys_ = make_harmonic_system(ND3, basepoint=2.0 + 1.0j)
        tracker = _BranchTracker(sys_.curve)
        a = sys_.basepoint
        ws = tracker.select(a, (1, 2, 3))
        got = _integrate(tracker.track, a, b, ws)
        ref = _reference_integrate(tracker, a, b, ws)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])

    def test_margin_failure_before_degenerate_node_halves(self, sys_k1):
        # the first step's middle node is the pole z = 1, where A(z, .)
        # loses its leading coefficient; the branch 1/(z - 1) fails the
        # margin on the way there, so the step halves instead of raising
        tracker = _BranchTracker(_forced_integral(sys_k1).curve)
        a, b = 0.25 + 0.3j, 1.75 - 0.3j
        nodes = [a + (b - a) * 0.0 + (b - a) / 2 * (1 + x) for x in _GK_X]
        assert nodes[7] == 1.0
        ws = np.array(tracker.select(a, (1, 2)))
        values, ok = tracker.track(nodes, ws)
        assert not ok and len(values) < 7
        with pytest.raises(InvalidInputError):
            tracker.track(nodes[7:], ws)
        with pytest.raises(BranchCollisionError) as got:
            _integrate(tracker.track, a, b, ws)
        with pytest.raises(BranchCollisionError) as ref:
            _reference_integrate(tracker, a, b, ws)
        assert got.value.where == ref.value.where

    def test_one_point_track_matches_np_roots(self, sys_k1):
        tracker = _BranchTracker(_forced_integral(sys_k1).curve)
        z = 1.3 + 0.2j
        branches = np.roots(w_coefficients(tracker.m, tracker.n, z)[::-1])
        assert np.array_equal(tracker.all_branches(z), branches)
        (w,), ok = tracker.track([z], np.array([-0.7 + 0.1j]))
        assert ok and w == branches[np.abs(-0.7 + 0.1j - branches).argmin()]
        with pytest.raises(InvalidInputError):
            tracker.track([1.0 + 0j], w)


class TestIntegrationNearBranchPoints:
    """Closed-mode integrals whose steps lie wholly within 0.05 of a branch
    point, where nearest-value tracking would be ill-conditioned."""

    @pytest.mark.parametrize("z", [0.5 + 0j, 0.52 + 0j, 0.5 + 0.03j, 0.47 - 0.02j])
    @pytest.mark.parametrize("i", [1, 2])
    def test_target_near_basepoint(self, sys_k1, i, z):
        # the default basepoint is the branch point 1/2; z = 1/2 is a
        # zero-length segment
        hv = float(sys_k1.harmonic(i, z))
        assert abs(harmonic_value_by_integration(sys_k1, i, z) - hv) < 1e-10

    @pytest.mark.parametrize("i", [1, 2])
    def test_waypoint_at_branch_point(self, sys_k1, i):
        z = 1.3 + 0.4j
        path = [0.9 + 0.5j, 0.5 + 0j, 0.51 + 0.01j, 0.2 - 0.4j]
        hv = float(sys_k1.harmonic(i, z))
        assert abs(harmonic_value_by_integration(sys_k1, i, z, path=path) - hv) < 1e-10

    def test_target_near_other_branch_point(self, sys_conj):
        p2 = sys_conj.branch_point_list[0]
        sys_ = make_harmonic_system(CONJ, basepoint=1.5 + 0.5j)
        for z in (p2, p2 + 0.02, p2 - 0.01j):
            for i in (1, 2):
                hv = float(sys_.harmonic(i, z))
                assert abs(harmonic_value_by_integration(sys_, i, z) - hv) < 1e-10


class TestPsi:
    def test_inside_lobe_argmax_two(self, sys_k1):
        assert psi_value(sys_k1, 1.05).index == 2

    def test_far_outside_argmax_one(self, sys_k1):
        assert psi_value(sys_k1, 1e6 + 0j).index == 1

    def test_tie_on_curve(self, sys_k1):
        seed = level_seed_on_ray(sys_k1, (1, 2), 1.0, 1.0)
        pv = psi_value(sys_k1, seed)
        assert pv.tie
        assert pv.index == 1

    def test_permutation_invariance(self):
        a2, a3 = CR(0, 1), CR(1, 2)
        s1 = ParameterSchedule.diagonal((a2, a3))
        s2 = ParameterSchedule.diagonal((a3, a2))
        g1 = make_harmonic_system(s1, basepoint=0.5 + 0.5j)
        g2 = make_harmonic_system(s2, basepoint=0.5 + 0.5j)
        for z in (1.3 + 0.2j, 0.8 - 0.4j, 2.0 + 1.0j):
            v1 = psi_value(g1, z)
            v2 = psi_value(g2, z)
            assert abs(v1.value - v2.value) < 1e-12
            perm = {1: 1, 2: 3, 3: 2}
            assert v2.index == perm[v1.index] or v1.tie


class TestRegions:
    def test_two_labels_and_boundary_matches_trace(self, sys_k1):
        grid = classify_regions(sys_k1, (-1.0, 2.0, -1.5, 1.5), 200)
        assert grid.labels_present() == [1, 2]
        curve = trace_conjectured_loop(sys_k1, 2, step=0.01)
        kpts = grid.k_points()
        # traced curve and grid boundary agree within 2 cell diagonals
        for z in curve.points[:: max(1, len(curve.points) // 60)]:
            assert np.min(np.abs(kpts - z)) < 2 * grid.cell_diagonal

    def test_fig5_three_labels(self, sys_fig5):
        grid = classify_regions(sys_fig5, (-1.0, 2.0, -1.5, 1.5), 150)
        assert grid.labels_present() == [1, 2, 3]

    def test_single_region_no_k(self, sys_k1):
        grid = classify_regions(sys_k1, (50.0, 51.0, 50.0, 51.0), 32)
        assert grid.labels_present() == [1]
        assert int(grid.kmask.sum()) == 0

    def test_integral_mode_rejected(self):
        sched = ParameterSchedule((-1, 1), (0, 1), (F(9, 8),), (1,))
        sys_ = make_harmonic_system(sched, basepoint=2.0 + 1.0j)
        with pytest.raises(InvalidInputError):
            classify_regions(sys_, (-1, 2, -1, 1), 50)


class TestBatchedRegions:
    """The region grid and Psi computed from one shifted stack per grid must
    equal the per-branch ``shifted`` values stacked afterwards."""

    @staticmethod
    def reference_stack(sys_, z):
        stack = np.stack([sys_.shifted(i, z) for i in range(1, sys_.num_branches + 1)])
        return np.where(np.isfinite(stack), stack, -np.inf)

    # the odd resolution puts a row of cell centres on the Arg cut
    @pytest.mark.parametrize("family, box, res", [
        ("K1", (-1.0, 2.0, -1.5, 1.5), 200),
        ("K1", (-3.0, 2.5, -2.0, 2.0), 201),
        ("FIG5", (-1.0, 2.0, -1.5, 1.5), 150),
        ("FIG5", (-0.5, 1.5, -1.0, 1.0), 121),
    ])
    def test_labels_and_kmask(self, sys_k1, sys_fig5, family, box, res):
        sys_ = {"K1": sys_k1, "FIG5": sys_fig5}[family]
        grid = classify_regions(sys_, box, res)
        X, Y = np.meshgrid(*RegionGrid.cell_centres(box, res))
        labels = np.argmax(self.reference_stack(sys_, X + 1j * Y), axis=0).astype(np.int16) + 1
        assert np.array_equal(grid.labels, labels)
        assert np.array_equal(grid.kmask, RegionGrid.from_labels(box, res, labels).kmask)

    @pytest.mark.parametrize("z", [1.05, 1e6 + 0j, 0.3 + 0.4j, -1 + 0j, complex(-1, -0.0),
                                   2 - 1j, 0.5 + 0.5j, 1.2071067811865475])
    def test_psi_value(self, sys_k1, sys_fig5, z):
        for sys_ in (sys_k1, sys_fig5):
            vals = self.reference_stack(sys_, z)
            top = float(vals.max())
            near = np.flatnonzero(vals >= top - PSI_TIE_TOL)
            pv = psi_value(sys_, z)
            assert (pv.value, pv.index, pv.tie) == (top, int(near[0]) + 1, len(near) > 1)

    def test_singular_point_in_grid_rejected(self, sys_k1):
        with pytest.raises(InvalidInputError):
            classify_regions(sys_k1, (-1.0, 1.0, -1.0, 1.0), 3)


class TestRowBlocks:
    """Labelling the grid in blocks of rows gives the labels and K mask of
    one argmax over the whole grid's shifted stack."""

    # 700 rows do not split into whole blocks of 93, 50 rows fit in one
    # block, and 2 is the smallest grid
    @pytest.mark.parametrize("res", [700, 50, 2])
    @pytest.mark.parametrize("family", ["K1", "FIG5"])
    def test_matches_whole_grid(self, sys_k1, sys_fig5, family, res):
        sys_ = {"K1": sys_k1, "FIG5": sys_fig5}[family]
        box = (-1.1, 2.0, -1.5, 1.4)
        rows = REGION_BLOCK_BYTES // (16 * res)
        assert (res % rows != 0) if res == 700 else rows >= res
        grid = classify_regions(sys_, box, res)
        xs, ys = RegionGrid.cell_centres(box, res)
        labels = np.argmax(sys_.shifted_stack(xs + 1j * ys[:, None]), axis=0).astype(np.int16) + 1
        assert grid.labels.dtype == np.int16
        assert np.array_equal(grid.labels, labels)
        assert np.array_equal(grid.kmask, RegionGrid.from_labels(box, res, labels).kmask)


class TestClosedKernel:
    """A scalar query of the closed forms, the tracer's F and grad F, equals
    the array evaluation at that element bit for bit."""

    rng = np.random.default_rng(24)
    POINTS = np.concatenate([
        rng.uniform(-3, 3, 100) + 1j * rng.uniform(-3, 3, 100),
        # log-uniform radii about the singular points 0 and 1
        np.exp(rng.uniform(-25, 12, 50) + 1j * rng.uniform(-math.pi, math.pi, 50)),
        1 + np.exp(rng.uniform(-25, 2, 50) + 1j * rng.uniform(-math.pi, math.pi, 50)),
        [-1 + 0j, complex(-1, -0.0), 1e6, 2 * SINGULAR_GUARD, -2j * SINGULAR_GUARD,
         1 + 2 * SINGULAR_GUARD, 1 - 2j * SINGULAR_GUARD],
    ])

    @staticmethod
    def bits(values):
        return np.array(values).view(np.uint64)

    @pytest.mark.parametrize("schedule", [K1, CONJ, ParameterSchedule.loop_2f1(CR(2, 1)), FIG5],
                             ids=["K1", "alpha=1/2-i", "alpha=2+i", "FIG5"])
    def test_scalar_equals_array_element(self, schedule):
        sys_ = make_harmonic_system(schedule)
        branches = range(1, sys_.num_branches + 1)
        for i in branches:
            assert np.array_equal(self.bits([sys_.shifted(i, z) for z in self.POINTS]),
                                  self.bits(sys_.shifted(i, self.POINTS)))
        for pair in ((i, j) for i in branches for j in branches if i != j):
            fun = potential._ClosedLevelFunction(sys_, pair)
            f, g = zip(*(fun.at(z) for z in self.POINTS))
            hi, hj, fi, fj = sys_._kernel(self.POINTS, pair, pair)
            assert np.array_equal(self.bits(f), self.bits(hi - hj))
            assert np.array_equal(self.bits(f), self.bits(sys_.difference(pair, self.POINTS)))
            assert np.array_equal(self.bits(g), self.bits(np.conjugate(fi - fj)))

    @pytest.mark.parametrize("z", [0j, 0.5 * SINGULAR_GUARD, -0.5j * SINGULAR_GUARD, 1 + 0j,
                                   1 + 0.5 * SINGULAR_GUARD, 1 + 0.5j * SINGULAR_GUARD])
    def test_scalar_within_the_guard_rejected(self, sys_fig5, z):
        with pytest.raises(InvalidInputError, match="logarithmic singularities"):
            potential._ClosedLevelFunction(sys_fig5, (1, 2)).at(z)
        with pytest.raises(InvalidInputError, match="logarithmic singularities"):
            sys_fig5.difference((2, 3), z)


class TestCutBarrier:
    def test_crossing_predicate(self):
        assert _crosses_cut(-1 + 0.1j, -1 - 0.1j)
        assert not _crosses_cut(1 + 0.1j, 1 - 0.1j)
        assert not _crosses_cut(-1 + 0.1j, -1 + 0.2j)
        assert _crosses_cut(-1 + 0j, -2 + 0j)
