from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperzeros.errors import InvalidInputError, PoleError
from hyperzeros.exact import ComplexRational, poly_from_roots
from hyperzeros.hyppoly import HypPolynomial, ParameterSchedule, build_polynomial
from hyperzeros.rootfinding import (
    _cluster_radius,
    _find_clusters,
    cauchy_transform_at,
    find_roots,
    fraction_to_mpf,
    log_potential_at,
    solve_all_roots,
    to_big_complex,
    vieta_check,
)

CR = ComplexRational
F = Fraction

SCHED = ParameterSchedule.loop_2f1(1)


def poly_from(coeffs, n=None):
    n = n if n is not None else len(coeffs) - 1
    return HypPolynomial.from_coefficients(coeffs, SCHED, n)


def horner_exact_at(p, z, prec):
    with mp.workprec(prec):
        acc = mp.mpc(0)
        for c in reversed(p.coeffs):
            acc = acc * z + to_big_complex(c, prec)
        return acc


class TestConversions:
    def test_fraction_correctly_rounded(self):
        f = F(10**60 + 7, 3**41)
        for prec in (64, 128, 256):
            v = fraction_to_mpf(f, prec)
            with mp.workprec(prec + 64):
                exact = mp.mpf(f.numerator) / mp.mpf(f.denominator)
                assert abs(v - exact) <= abs(exact) * mp.mpf(2) ** (-prec)

    def test_complex_rational(self):
        z = to_big_complex(CR(F(1, 3), F(-2, 7)), 128)
        with mp.workprec(128):
            assert abs(z.real - mp.mpf(1) / 3) < mp.mpf(2) ** -126

    def test_rounded_inputs_honour_prec(self):
        # mpc, mpf and Python complex inputs round at prec, not at the
        # ambient context precision
        with mp.workprec(256):
            third = mp.mpc(1) / 3
        z = to_big_complex(third, 200)
        assert z.real._mpf_[3] == 200
        with mp.workprec(400):
            assert abs(z.real - mp.mpf(1) / 3) <= mp.mpf(2) ** -200
        with mp.workprec(256):
            z = to_big_complex(third, 64)
            assert z.real._mpf_[3] == 64
            assert to_big_complex(third.real, 64).real._mpf_[3] == 64
        with mp.workprec(20):
            z = to_big_complex(complex(1 / 3, 0.1), 64)
        assert (z.real, z.imag) == (mp.mpf(1 / 3), mp.mpf(0.1))


class TestFindRoots:
    def test_quadratic_factorization(self):
        m = find_roots(poly_from([-1, 0, 1]), 128)  # z^2 - 1
        assert m.n == 2
        with mp.workprec(128):
            assert abs(m.roots[0] + 1) < mp.mpf(2) ** -100
            assert abs(m.roots[1] - 1) < mp.mpf(2) ** -100

    def test_single_linear_root(self):
        # 2F1(-1, kn+1; kn+2; z) at k=1, n=1: 1 - (2/3) z, root 3/2
        p = build_polynomial(SCHED, 1)
        m = find_roots(p, 128)
        with mp.workprec(128):
            assert abs(m.roots[0] - mp.mpf(3) / 2) < mp.mpf(2) ** -120

    def test_quadratic_from_family(self):
        # 2F1(-2, 2; 3; z): roots 4/3 +- (sqrt2/3) i
        sched = ParameterSchedule((-1, 0), (0, 2), (0,), (2,))
        p = build_polynomial(sched, 2)
        m = find_roots(p, 192)
        with mp.workprec(192):
            expected_im = mp.sqrt(2) / 3
            lo, hi = m.roots
            assert abs(lo.real - mp.mpf(4) / 3) < mp.mpf(2) ** -150
            assert abs(lo.imag + expected_im) < mp.mpf(2) ** -150
            assert abs(hi.imag - expected_im) < mp.mpf(2) ** -150

    def test_mass_and_sorting(self):
        p = build_polynomial(SCHED, 12)
        m = find_roots(p, 128)
        assert m.n == 12
        with mp.workprec(m.precision_bits):
            assert m.total_mass() == 1
        keys = [(z.real, z.imag) for z in m.roots]
        assert keys == sorted(keys)

    def test_residuals_certified(self):
        p = build_polynomial(SCHED, 15)
        m = find_roots(p, 256)
        assert all(r < m.certification_threshold for r in m.residual_bounds)

    def test_determinism_bit_identical(self):
        p = build_polynomial(ParameterSchedule.loop_2f1(CR(F(1, 2), -1)), 10)
        m1 = find_roots(p, 192)
        m2 = find_roots(p, 192)
        assert all(a == b for a, b in zip(m1.roots, m2.roots))

    def test_truncated_polynomial_uses_true_root_count(self):
        # a_2 = -2 truncates at degree 2 although n = 6; the measure carries
        # the true two roots with weight 1/2 each
        sched = ParameterSchedule((-1, 0), (0, -2), (0,), (8,))
        with pytest.warns(UserWarning):
            p = build_polynomial(sched, 6)
        m = find_roots(p, 128)
        assert m.n == 2
        assert m.source_n == 6
        with mp.workprec(128):
            assert m.weight == mp.mpf(1) / 2

    @pytest.mark.parametrize("coeffs, at_origin", [([0, 0, -1, 0, 1], 2), ([0, 0, 0, 1], 3)])
    def test_roots_at_origin(self, coeffs, at_origin):
        # z^2 (z^2 - 1) and z^3: the exact zeros at 0 are merged into the sort
        p = poly_from(coeffs)
        m = find_roots(p, 128)
        assert m.n == p.degree
        keys = [(z.real, z.imag) for z in m.roots]
        assert keys == sorted(keys)
        zeros = [i for i, z in enumerate(m.roots) if z == 0]
        assert len(zeros) == at_origin
        assert all(m.residual_bounds[i] == 0 for i in zeros)
        assert all(m.forward_error_bounds[i] == 0 for i in zeros)
        with mp.workprec(128):
            others = [z for z in m.roots if z != 0]
            assert all(min(abs(z - 1), abs(z + 1)) < mp.mpf(2) ** -100 for z in others)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(InvalidInputError):
            find_roots(poly_from([0]), 128)

    def test_constant_rejected(self):
        with pytest.raises(InvalidInputError):
            find_roots(poly_from([1]), 128)

    def test_low_precision_rejected(self):
        with pytest.raises(InvalidInputError):
            find_roots(poly_from([-1, 0, 1]), 32)


def _trace_summary(trace):
    return [(t["phase"], t.get("working_bits"), t.get("sweeps")) for t in trace]


def _pow2(s):
    return CR(F(2) ** s)


class TestKernel:
    """The fixed-point Aberth sweeps keep the floating-point schedule."""

    @pytest.mark.parametrize("s", [-150, 150])
    def test_block_exponent(self, s):
        # 2^s (z^10 - 1): without the block exponent the s = -150 sweeps
        # never reach their noise floor
        coeffs = [-_pow2(s)] + [CR(0)] * 9 + [_pow2(s)]
        roots, residuals, forwards, prec, trace = solve_all_roots(coeffs, 128)
        assert _trace_summary(trace) == [("seed", 96, 6), ("refine", 192, 2)]
        with mp.workprec(prec):
            assert all(abs(z ** 10 - 1) < mp.mpf(2) ** -120 for z in roots)

    @pytest.mark.parametrize("s, expected", [
        (40, [("seed", 400, 12), ("refine", 528, 2)]),
        (-40, [("seed", 369, 12), ("refine", 497, 2)]),
    ])
    def test_roots_far_from_the_unit_circle(self, s, expected):
        # roots -k 2^s, k = 1..8: a 305- to 336-bit coefficient spread
        exact = [-CR(k) * _pow2(s) for k in range(1, 9)]
        roots, _, _, prec, trace = solve_all_roots(poly_from_roots(exact), 128)
        assert _trace_summary(trace) == expected
        with mp.workprec(prec):
            for z, w in zip(roots, sorted(exact, key=lambda x: x.re)):
                w = to_big_complex(w, prec)
                assert abs(z - w) < mp.mpf(2) ** -100 * abs(w)

    @pytest.mark.parametrize("n, expected", [
        (20, [("seed", 96, 21), ("refine", 594, 4)]),
        (40, [("seed", 102, 27), ("refine", 614, 17)]),
    ])
    def test_find_roots_keeps_schedule(self, n, expected):
        m = find_roots(build_polynomial(SCHED, n), 512)
        assert _trace_summary(m.trace) == expected
        assert all(t["active_left"] == 0 for t in m.trace)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=9)
        .filter(lambda c: c[-1] != (0, 0) and any(c[:-1])),
        st.integers(-200, 200),
    )
    def test_matches_polyroots(self, gauss, s):
        # Gaussian-integer coefficients times 2^s against mpmath's
        # Durand-Kerner solver as an independent oracle
        prec = 128
        coeffs = [CR(a, b) * _pow2(s) for a, b in gauss]
        roots, residuals, forwards, used, _ = solve_all_roots(coeffs, prec)
        assert len(roots) == len(coeffs) - 1
        assert all(r < mp.mpf(2) ** (-prec // 4) for r in residuals)
        at_origin = next(k for k, c in enumerate(gauss) if c != (0, 0))
        assert sum(1 for z in roots if z == 0) == at_origin
        with mp.workprec(2 * prec):
            try:
                oracle = mp.polyroots(
                    [mp.mpc(a, b) for a, b in reversed(gauss[at_origin:])],
                    maxsteps=400, extraprec=2 * prec,
                )
            except mp.NoConvergence:
                return  # a multiple root stalls the oracle; the residuals stand
            tol = mp.mpf(2) ** (-prec // 4)
            ours = [z for z in roots if z != 0]
            for z in ours:
                assert min(abs(z - w) - tol * abs(w) for w in oracle) <= 0
            for w in oracle:
                assert min(abs(z - w) for z in ours) <= tol * abs(w)


class TestClusters:
    def test_double_root(self):
        # (z - 1)^2 (z + 1): the double root forms the one cluster
        m = find_roots(poly_from([1, -1, -1, 1]), 128)
        assert m.clusters == ((1, 2),)

    @pytest.mark.parametrize("prec", [64, 128, 512])
    def test_screen_matches_all_pairs(self, prec):
        # the float64 screen drops no pair the all-pairs mpmath test joins
        rng = np.random.default_rng(7)
        r = _cluster_radius(prec)
        with mp.workprec(prec):
            base = [mp.mpc(*rng.normal(size=2)) * mp.mpf(2) ** int(k)
                    for k in rng.integers(-60, 60, size=12)]
            roots = []
            for z in base:
                roots += [z, z + r * (1 + abs(z)) * mp.mpf(0.999), z + r * (1 + abs(z)) * 1.001]
            roots += [mp.mpc(mp.inf, 0), mp.mpc(2) ** 2000, mp.mpc(2) ** -2000, mp.mpc(0)]
            roots.sort(key=lambda z: (z.real, z.imag))
            n = len(roots)
            joined = {(i, j) for i in range(n) for j in range(i + 1, n)
                      if abs(roots[i] - roots[j]) < r * (1 + abs(roots[i]))}
        expected = _components(n, joined)
        assert _find_clusters(roots, prec) == expected
        assert expected


def _components(n, edges):
    """Groups of size > 1 from an edge set, ordered by smallest member."""
    label = list(range(n))
    for i, j in sorted(edges):
        a, b = label[i], label[j]
        label = [a if x == b else x for x in label]
    groups = {}
    for i in range(n):
        groups.setdefault(label[i], []).append(i)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


class TestCauchyTransform:
    def test_single_atom(self):
        p = build_polynomial(SCHED, 1)  # root 3/2
        m = find_roots(p, 128)
        v = cauchy_transform_at(m, mp.mpc(2.5))
        assert abs(v - 1) < mp.mpf(2) ** -100

    def test_far_field(self):
        p = build_polynomial(SCHED, 8)
        m = find_roots(p, 128)
        z = mp.mpc(10) ** 6
        v = cauchy_transform_at(m, z)
        assert abs(v - 1 / z) / abs(1 / z) < 1e-5

    def test_two_path_identity(self):
        # (1/n) sum 1/(z - zeta) = p'(z)/(n p(z)), evaluated independently
        p = build_polynomial(SCHED, 10)
        m = find_roots(p, 256)
        dcoeffs = [p.coeffs[k] * k for k in range(1, p.degree + 1)]
        dp = HypPolynomial.from_coefficients(dcoeffs, SCHED, p.n)
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 20:
            z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
            if min(abs(z - r) for r in m.roots) < 0.05:
                continue
            lhs = cauchy_transform_at(m, z)
            with mp.workprec(256):
                rhs = horner_exact_at(dp, z, 256) / (p.degree * horner_exact_at(p, z, 256))
                assert abs(lhs - rhs) < mp.mpf(10) ** -20
            checked += 1

    def test_pole_error(self):
        p = build_polynomial(SCHED, 1)
        m = find_roots(p, 128)
        with pytest.raises(PoleError):
            cauchy_transform_at(m, m.roots[0])


class TestLogPotential:
    def test_unit_distance(self):
        p = build_polynomial(SCHED, 1)  # root 3/2
        m = find_roots(p, 128)
        assert abs(log_potential_at(m, mp.mpc(2.5))) < mp.mpf(2) ** -100

    def test_distance_e(self):
        p = build_polynomial(SCHED, 1)
        m = find_roots(p, 128)
        with mp.workprec(128):
            z = m.roots[0] + mp.exp(1)
            assert abs(log_potential_at(m, z) - 1) < mp.mpf(2) ** -90

    def test_matches_polynomial_modulus(self):
        # (1/n) log|p(z)/c_n| = (1/n) sum log|z - zeta|
        p = build_polynomial(SCHED, 10)
        m = find_roots(p, 256)
        z = mp.mpc(3, 1)
        lhs = log_potential_at(m, z)
        with mp.workprec(256):
            cn = to_big_complex(p.coeffs[-1], 256)
            rhs = (mp.log(abs(horner_exact_at(p, z, 256))) - mp.log(abs(cn))) / p.degree
            assert abs(lhs - rhs) < mp.mpf(10) ** -40


class TestVieta:
    def test_exact_quadratic(self):
        p = poly_from([-1, 0, 1])
        m = find_roots(p, 128)
        rep = vieta_check(p, m)
        with mp.workprec(160):
            assert abs(rep.sum_of_roots) < mp.mpf(2) ** -100
            assert abs(rep.product_of_roots + 1) < mp.mpf(2) ** -100

    def test_family_quadratic_values(self):
        # 2F1(-2, 2; 3; z): -c1/c2 = 8/3, product c0/c2 = 2
        sched = ParameterSchedule((-1, 0), (0, 2), (0,), (2,))
        p = build_polynomial(sched, 2)
        m = find_roots(p, 128)
        rep = vieta_check(p, m)
        with mp.workprec(160):
            assert abs(rep.expected_sum - mp.mpf(8) / 3) < mp.mpf(2) ** -120
            assert abs(rep.expected_product - 2) < mp.mpf(2) ** -120
        assert rep.max_deviation < mp.mpf(2) ** -64

    def test_deviation_small_midsize(self):
        p = build_polynomial(SCHED, 20)
        m = find_roots(p, 256)
        rep = vieta_check(p, m)
        assert rep.max_deviation < mp.mpf(2) ** -128
