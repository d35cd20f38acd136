from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from hyperzeros.errors import InvalidInputError, PoleError
from hyperzeros.exact import ComplexRational
from hyperzeros.hyppoly import HypPolynomial, ParameterSchedule, build_polynomial
from hyperzeros.rootfinding import (
    cauchy_transform_at,
    find_roots,
    fraction_to_mpf,
    log_potential_at,
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
