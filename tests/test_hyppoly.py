from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from math import comb, factorial

from hyperzeros.algcurve import build_curve
from hyperzeros.errors import DenominatorParameterError, InvalidInputError
from hyperzeros.exact import ComplexRational, poly_add, poly_is_zero, poly_mul
from hyperzeros.hyppoly import (
    HypPolynomial,
    ParameterSchedule,
    apply_delta,
    apply_hypergeometric_operator,
    build_polynomial,
    characteristic_roots,
    differential_operator,
    is_general_type,
    pochhammer,
    series_coefficient,
)

CR = ComplexRational
F = Fraction


def fixed_2f1(a2, b1):
    """Schedule encoding constant parameters: 2F1(-n, a2; b1; z)."""
    b1 = b1 if isinstance(b1, CR) else CR(b1)
    return ParameterSchedule((-1, 0), (0, a2), (0,), (b1 - 1,))


class TestPochhammer:
    def test_rising_product(self):
        assert pochhammer(CR(3), 2) == CR(12)

    def test_empty_product(self):
        assert pochhammer(CR(F(7, 3), F(1, 2)), 0) == CR(1)

    def test_hits_zero(self):
        assert pochhammer(CR(-2), 3) == CR(0)

    @given(st.fractions(min_value=-20, max_value=20, max_denominator=12),
           st.integers(min_value=0, max_value=12))
    def test_recurrence(self, a, k):
        x = CR(a)
        assert pochhammer(x, k + 1) == pochhammer(x, k) * (x + k)


class TestBuildPolynomial:
    def test_linear_case(self):
        # 2F1(-1, b; c; z) = 1 - (b/c) z
        p = build_polynomial(fixed_2f1(5, 7), 1)
        assert p.coeffs == (CR(1), CR(F(-5, 7)))

    def test_three_term_series(self):
        p = build_polynomial(fixed_2f1(2, 3), 2)
        assert p.coeffs == (CR(1), CR(F(-4, 3)), CR(F(1, 2)))

    def test_n_zero(self):
        p = build_polynomial(ParameterSchedule.loop_2f1(1), 0)
        assert p.coeffs == (CR(1),)
        assert p.degree == 0

    def test_denominator_violation_reports_index(self):
        bad = ParameterSchedule((-1, 1), (0, 1), (-1,), (0,))  # b_1(n) = -n + 1
        with pytest.raises(DenominatorParameterError) as err:
            build_polynomial(bad, 5)
        assert err.value.j == 1
        assert err.value.value == CR(-4)

    def test_early_truncation_warns_and_trims(self):
        # a_2(n) = -2 truncates at degree 2 although n = 6
        sched = fixed_2f1(-2, 9)
        with pytest.warns(UserWarning, match="truncated early"):
            p = build_polynomial(sched, 6)
        assert p.degree == 2
        assert p.n == 6

    def test_oracle_agreement_samples(self):
        cases = [
            (fixed_2f1(F(5, 2), F(7, 3)), 6),
            (fixed_2f1(CR(1, 1), CR(3, -1)), 5),
            (ParameterSchedule.loop_2f1(F(1, 2)), 7),
            (ParameterSchedule.diagonal((CR(0, 1), CR(1, 2))), 5),
        ]
        for sched, n in cases:
            p = build_polynomial(sched, n)
            for k in range(n + 1):
                assert p.coefficient(k) == series_coefficient(sched, n, k)

    def test_coefficient_recurrence_invariant(self):
        sched = ParameterSchedule.loop_2f1(2)
        n = 9
        p = build_polynomial(sched, n)
        a = sched.numerator_params(n)
        b = sched.denominator_params(n)
        for k in range(n):
            num = CR(1)
            for aj in a:
                num = num * (aj + k)
            den = CR(k + 1)
            for bj in b:
                den = den * (bj + k)
            assert p.coefficient(k + 1) == p.coefficient(k) * num / den


class TestOperator:
    def test_delta_on_monomial(self):
        assert apply_delta([CR(0), CR(0), CR(1)]) == [CR(0), CR(0), CR(2)]

    def test_annihilates_family_members(self):
        for sched, n in [
            (ParameterSchedule.loop_2f1(1), 12),
            (ParameterSchedule.loop_2f1(CR(F(1, 2), -1)), 9),
            (ParameterSchedule.diagonal((CR(0, 1), CR(1, 2))), 8),
            (fixed_2f1(F(5, 3), F(9, 4)), 10),
        ]:
            p = build_polynomial(sched, n)
            assert apply_hypergeometric_operator(p).is_zero()

    def test_annihilates_early_truncated_member(self):
        # the truncated series is still a solution of the equation
        sched = fixed_2f1(-2, 9)
        with pytest.warns(UserWarning):
            p = build_polynomial(sched, 6)
        assert p.degree == 2
        assert apply_hypergeometric_operator(p).is_zero()

    def test_nonmember_not_annihilated(self):
        sched = fixed_2f1(3, 5)
        q = HypPolynomial.from_coefficients([1, 1], sched, 1)  # 1 + z
        r = apply_hypergeometric_operator(q)
        # direct expansion: coefficient of z^0 is 1*b_1 - a_1 a_2 with a = (-1, 3), b = (5)
        assert r.coefficient(0) == CR(5) - CR(-1) * CR(3)
        assert not r.is_zero()

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.fractions(min_value=F(1, 4), max_value=4, max_denominator=6),
        st.fractions(min_value=-2, max_value=2, max_denominator=6),
    )
    def test_annihilation_property(self, n, slope, offset):
        sched = ParameterSchedule(
            (-1, CR(slope, 1)), (0, CR(offset)), (CR(slope, 1),), (CR(offset),)
        )
        p = build_polynomial(sched, n)
        assert apply_hypergeometric_operator(p).is_zero()


class TestCharacteristicRoots:
    def test_real_slope(self):
        roots = characteristic_roots(ParameterSchedule.loop_2f1(3))
        assert roots == [CR(1), CR(F(-1, 3))]

    def test_unit_slope(self):
        roots = characteristic_roots(ParameterSchedule.loop_2f1(1))
        assert roots == [CR(1), CR(-1)]

    def test_complex_slopes_exact(self):
        al2 = CR(F(1, 2), -1)
        al3 = CR(2, 1)
        sched = ParameterSchedule((-1, al2, al3), (0, 0, 0), (al2, al3), (0, 0))
        roots = characteristic_roots(sched)
        assert roots == [CR(1), CR(-1) / al2, CR(-1) / al3]
        # substituted back, the product vanishes exactly
        for lam in roots:
            prod = CR(1)
            for al in sched.alphas:
                prod = prod * (CR(1) + lam * al)
            assert prod == CR(0)

    def test_zero_slope_rejected(self):
        with pytest.raises(InvalidInputError):
            characteristic_roots(fixed_2f1(2, 3))


class TestGeneralType:
    def test_nonreal_slope_is_general(self):
        ok, msg = is_general_type(ParameterSchedule.loop_2f1(CR(F(1, 2), -1)))
        assert ok, msg

    def test_repeated_root(self):
        al = CR(2, 1)
        sched = ParameterSchedule((-1, al, al), (0, 0, 0), (al, al), (0, 0))
        ok, msg = is_general_type(sched)
        assert not ok
        assert "repeated" in msg

    def test_real_ray_clause(self):
        ok, msg = is_general_type(ParameterSchedule.loop_2f1(F(-1, 2)))
        assert not ok
        assert "(-inf, 1]" in msg

    def test_minus_one_clause(self):
        ok, msg = is_general_type(ParameterSchedule.loop_2f1(-1))
        assert not ok


class TestScheduleValidation:
    def test_first_slot_fixed(self):
        with pytest.raises(InvalidInputError):
            ParameterSchedule((1, 2), (0, 0), (2,), (0,))

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInputError):
            ParameterSchedule((-1, 2, 3), (0, 0, 0), (2,), (0,))

    def test_float_parameters_rejected(self):
        with pytest.raises(InvalidInputError):
            ParameterSchedule.loop_2f1(0.3)

    def test_degenerate_flag(self):
        assert ParameterSchedule.loop_2f1(CR(2, 1)).is_degenerate
        assert not ParameterSchedule((-1, 2), (0, 1), (3,), (1,)).is_degenerate


# the schedules whose curves the experiments trace: two-slope, the FIG5
# diagonal and the non-degenerate ND3 and ND4
ODE_SCHEDULES = {
    "K1": ParameterSchedule.loop_2f1(1),
    "a=2+i": ParameterSchedule.loop_2f1(CR(2, 1)),
    "FIG5": ParameterSchedule.diagonal((CR(0, 1), CR(1, 2))),
    "ND3": ParameterSchedule((-1, CR(F(1, 2), 1), 2), (0, 1, 0), (1, CR(F(3, 2), -1)), (0, 1)),
    "ND4": ParameterSchedule((-1, CR(F(1, 2), 1), 2, CR(F(3, 4), F(-1, 2))), (0, 1, 0, 0),
                             (1, CR(F(3, 2), -1), 3), (0, 1, 2)),
}


class TestDifferentialOperator:
    """The operator sum_m P_m(z) D^m in the d/dz basis, tied to p_n and to
    the limit curve."""

    @pytest.mark.parametrize("name", list(ODE_SCHEDULES))
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_annihilates_member(self, name, n):
        sched = ODE_SCHEDULES[name]
        p = build_polynomial(sched, n)
        ops = differential_operator(sched, n)
        assert len(ops) == sched.A + 1
        total, derivative = [], list(p.coeffs)
        for poly in ops:
            total = poly_add(total, poly_mul(list(poly), derivative))
            derivative = apply_delta(derivative)[1:]
        assert poly_is_zero(total)

    def test_gauss_equation(self):
        # A = 2: z (z - 1) D^2 + ((1 + a_1 + a_2) z - b_1) D + a_1 a_2;
        # K1 at n = 5 has a = (-5, 6) and b_1 = 7
        p0, p1, p2 = differential_operator(ODE_SCHEDULES["K1"], 5)
        assert (p0, p1, p2) == ((CR(-30),), (CR(-7), CR(2)), (CR(0), CR(-1), CR(1)))

    @pytest.mark.parametrize("name", list(ODE_SCHEDULES))
    def test_principal_symbol_is_the_curve(self, name):
        # P_m is a polynomial of degree <= A - m in n; D -> n w keeps the
        # coefficient of n^A, the (A - m)-th finite difference over
        # n = 0..A - m divided by (A - m)!, and that symbol is A(z, w)
        sched = ODE_SCHEDULES[name]
        A = sched.A
        at_n = [differential_operator(sched, n) for n in range(A + 1)]
        symbol = {}
        for m in range(A + 1):
            k = A - m
            lead = []
            for j in range(k + 1):
                term = [c * ((-1) ** (k - j) * comb(k, j)) for c in at_n[j][m]]
                lead = poly_add(lead, term)
            for power, c in enumerate(lead):
                if c:
                    symbol[(power, m)] = c / factorial(k)
        assert symbol == build_curve(sched).terms
