from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from hyperzeros.algcurve import (
    _sylvester_determinant,
    branch_points,
    branches_at,
    build_curve,
    discriminant_z,
    verify_rational_branches,
    w_coefficients,
)
from hyperzeros.errors import InvalidInputError
from hyperzeros.exact import (
    ComplexRational,
    parse_complex_rational,
    poly_divexact,
    poly_eval,
    poly_is_zero,
    poly_mul,
    poly_scale,
    poly_sub,
    poly_trim,
)
from hyperzeros.hyppoly import ParameterSchedule
from hyperzeros.rootfinding import to_big_complex

CR = ComplexRational
F = Fraction


# the non-degenerate schedules of the benchmark's geometry workload
ND3 = ParameterSchedule((-1, CR(F(1, 2), 1), 2), (0, 1, 0), (1, CR(F(3, 2), -1)), (0, 1))
ND4 = ParameterSchedule((-1, CR(F(1, 2), 1), 2, CR(F(3, 4), F(-1, 2))), (0, 1, 0, 0),
                        (1, CR(F(3, 2), -1), 3), (0, 1, 2))
ND5 = ParameterSchedule((-1, CR(F(1, 2), 1), 2, CR(F(3, 4), F(-1, 2)), CR(F(5, 3), F(1, 7))),
                        (0, 1, 0, 0, 0),
                        (1, CR(F(3, 2), -1), 3, CR(F(2, 5), F(1, 3))), (0, 1, 2, 0))


def curve_k(k):
    return build_curve(ParameterSchedule.loop_2f1(k))


def reference_determinant(rows):
    """Bareiss elimination on ComplexRational polynomials, the determinant
    that the Gaussian-integer one replaced."""
    m = [[list(e) for e in row] for row in rows]
    size = len(m)
    prev = [CR(1)]
    for k in range(size - 1):
        if poly_is_zero(m[k][k]):
            swap = next((r for r in range(k + 1, size) if not poly_is_zero(m[r][k])), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            m[k] = [poly_scale(e, CR(-1)) for e in m[k]]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = poly_sub(poly_mul(m[k][k], m[i][j]), poly_mul(m[i][k], m[k][j]))
                m[i][j] = poly_divexact(num, prev) if prev != [CR(1)] else num
            m[i][k] = []
        prev = m[k][k]
    return poly_trim(m[size - 1][size - 1])


def poly_rows(*rows):
    """Rows of constant polynomials from numbers, 0 as the zero polynomial."""
    return [[[CR(v)] if v else [] for v in row] for row in rows]


_gauss_rational = st.builds(
    lambda a, b, p, q: CR(F(a, p), F(b, q)),
    st.integers(-6, 6), st.integers(-6, 6),
    st.sampled_from([1, 2, 3, 4, 5, 7, 9]), st.sampled_from([1, 2, 3, 4, 5, 7, 9]),
)
_entry = st.lists(_gauss_rational, max_size=3)


@st.composite
def _matrices(draw):
    size = draw(st.integers(1, 5))
    rows = [[draw(_entry) for _ in range(size)] for _ in range(size)]
    if size > 1 and draw(st.booleans()):
        # a zero leading pivot forces the row swap
        rows[0][0] = []
    if size > 1 and draw(st.booleans()):
        # a repeated row makes the matrix singular
        rows[-1] = list(rows[0])
    return rows


class TestDeterminant:
    @settings(max_examples=80, deadline=None)
    @given(_matrices())
    def test_matches_complex_rational_bareiss(self, rows):
        assert _sylvester_determinant(rows) == reference_determinant(rows)

    def test_zero_leading_pivot_swaps_rows(self):
        assert _sylvester_determinant(poly_rows((0, 1), (1, 0))) == [CR(-1)]
        # the (1, 1) pivot vanishes after the first elimination step
        rows = poly_rows((1, 1, 0), (1, 1, 1), (0, 1, 1))
        assert _sylvester_determinant(rows) == [CR(-1)] == reference_determinant(rows)

    def test_singular_is_empty(self):
        assert _sylvester_determinant(poly_rows((1, 2), (2, 4))) == []
        assert _sylvester_determinant(poly_rows((0, 1), (0, 2))) == []
        z = [CR(0), CR(F(1, 3), 1)]
        assert _sylvester_determinant([[z, [CR(1)]], [poly_mul(z, z), z]]) == []

    def test_denominators_divided_out(self):
        rows = [[[CR(F(1, 2))], [CR(0, F(1, 3))]], [[CR(F(2, 5)), CR(1)], [CR(F(3, 7))]]]
        assert _sylvester_determinant(rows) == [CR(F(3, 14), F(-2, 15)), CR(0, F(-1, 3))]

    # recorded from the ComplexRational determinant
    ND3_DISC = ["0", "0", "0", "0", "-63/16+1*i", "-45/16+60*i", "1633/8+26*i",
                "-3857/8-140*i", "6077/16+53*i", "-1521/16"]
    ND4_DISC = ["0"] * 9 + [
        "4563/16+1521/4*i", "-46793/64-62047/32*i", "2692115/1024+19469/8*i",
        "-3063445/2048-5478873/1024*i", "-3905033/16384+3135543/4096*i",
        "-16717859/8192+1733189/2048*i", "178747919/65536+57939465/16384*i",
        "-74424051/65536-11019645/16384*i"]

    @pytest.mark.parametrize("sched, expected", [(ND3, ND3_DISC), (ND4, ND4_DISC)])
    def test_pinned_discriminants(self, sched, expected):
        assert discriminant_z(build_curve(sched)) == [parse_complex_rational(c) for c in expected]


class TestBuildCurve:
    def test_example_factored_form(self):
        # (-1, k | k): A(z,w) = (zw - 1)(zw + k) - w (zw + k)
        k = CR(3)
        curve = curve_k(3)
        for z, w in [(CR(2), CR(F(1, 3))), (CR(F(-1, 2), 1), CR(2, -1)), (CR(5), CR(0, 2))]:
            u = z * w
            expected = (u - 1) * (u + k) - w * (u + k)
            assert curve.evaluate(z, w) == expected
            assert curve.evaluate_structured(z, w) == expected

    def test_single_branch_curve(self):
        # A = 1, B = 0: A(z,w) = (zw - 1) - w = w(z - 1) - 1
        sched = ParameterSchedule((-1,), (0,), (), ())
        curve = build_curve(sched)
        z, w = CR(4), CR(F(2, 5))
        assert curve.evaluate(z, w) == w * (z - 1) - 1

    def test_structured_and_expanded_agree(self):
        sched = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
        curve = build_curve(sched)
        pts = [(CR(2), CR(F(1, 3), F(1, 5))), (CR(F(7, 3), -1), CR(F(-2, 7), F(1, 2)))]
        for z, w in pts:
            assert curve.evaluate(z, w) == curve.evaluate_structured(z, w)

    def test_leading_w_coefficient_is_zB_times_z_minus_1(self):
        for sched in (ParameterSchedule.loop_2f1(2),
                      ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))):
            curve = build_curve(sched)
            B = sched.B
            z = CR(F(5, 3), F(1, 7))
            coeffs = w_coefficients(curve.m_coeffs, curve.n_coeffs, z)
            assert coeffs[-1] == (z ** B) * (z - 1)

    def test_zero_slope_rejected(self):
        sched = ParameterSchedule((-1, 0), (0, 2), (0,), (2,))
        with pytest.raises(InvalidInputError):
            build_curve(sched)


class TestBranchesAt:
    def test_degenerate_closed_forms(self):
        sched = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
        curve = build_curve(sched)
        z = mp.mpc(0.7, 0.4)
        got = branches_at(curve, z, 128)
        with mp.workprec(192):
            # branch 1 is w = 1/(z - 1), branch i >= 2 is w = -alpha_i/z
            closed_forms = [1 / (z - 1)] + [-complex(al) / z for al in sched.alphas[1:]]
            expected = sorted(closed_forms, key=lambda v: (v.real, v.imag))
            for g, e in zip(got, expected):
                assert abs(g - e) < mp.mpf(2) ** -100

    def test_example_coincidence_at_branch_point(self):
        # double root in w: accuracy degrades to about the square root of
        # working precision at the coincidence
        curve = curve_k(1)
        got = branches_at(curve, mp.mpc(0.5), 128)
        assert all(abs(b + 2) < 1e-18 for b in got)
        assert abs(got[0] - got[1]) < 1e-18

    def test_example_values_at_two(self):
        curve = curve_k(1)
        got = branches_at(curve, mp.mpc(2), 128)
        with mp.workprec(160):
            assert abs(got[0] + 0.5) < mp.mpf(2) ** -100
            assert abs(got[1] - 1) < mp.mpf(2) ** -100

    def test_rejects_zero(self):
        with pytest.raises(InvalidInputError):
            branches_at(curve_k(1), mp.mpc(0), 128)

    def test_single_branch_certified_at_prec(self):
        # A = 1, B = 0: the one branch w = 1/(z - 1) is solved and rounded to
        # prec bits like the branches of every other degree
        curve = build_curve(ParameterSchedule((-1,), (0,), (), ()))
        z = mp.mpc(0.7, 0.4)
        (w,) = branches_at(curve, z, 128)
        assert max(w.real._mpf_[3], w.imag._mpf_[3]) <= 128
        with mp.workprec(192):
            assert abs(w - 1 / (z - 1)) < mp.mpf(2) ** -120

    @pytest.mark.parametrize("prec", [0, -3, -40])
    def test_precision_below_one_bit_rejected(self, prec):
        for sched in (ParameterSchedule.loop_2f1(1), ND3):
            curve = build_curve(sched)
            with pytest.raises(InvalidInputError, match="at least 1 bit"):
                branches_at(curve, mp.mpc(0.5, 0.2), prec)
            with pytest.raises(InvalidInputError, match="at least 1 bit"):
                branch_points(curve, sched, prec)

    def test_branch_count_and_residual(self):
        sched = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
        curve = build_curve(sched)
        z = mp.mpc(1.3, -0.2)
        ws = branches_at(curve, z, 192)
        assert len(ws) == 3
        with mp.workprec(224):
            for w in ws:
                u = z * w
                mv = sum(to_big_complex(c, 224) * u ** k for k, c in enumerate(curve.m_coeffs))
                nv = sum(to_big_complex(c, 224) * u ** k for k, c in enumerate(curve.n_coeffs))
                assert abs(mv - w * nv) < mp.mpf(2) ** -90


class TestBranchPoints:
    def test_example_half(self):
        bps = branch_points(curve_k(1), ParameterSchedule.loop_2f1(1), 128)
        assert bps.degenerate
        assert len(bps.points) == 1
        assert abs(bps.points[0] - 0.5) < 1e-30
        assert bps.exact_points[0] == CR(F(1, 2))

    def test_k_two(self):
        bps = branch_points(curve_k(2), ParameterSchedule.loop_2f1(2), 128)
        with mp.workprec(160):
            assert abs(bps.points[0] - mp.mpf(2) / 3) < mp.mpf(2) ** -100

    def test_complex_slope_exact(self):
        al = CR(F(1, 2), -1)
        sched = ParameterSchedule.loop_2f1(al)
        bps = branch_points(build_curve(sched), sched, 128)
        assert bps.exact_points[0] == al / (al + 1)

    def test_single_branch_no_points(self):
        sched = ParameterSchedule((-1,), (0,), (), ())
        bps = branch_points(build_curve(sched), sched, 128)
        assert bps.points == ()

    def test_disc_zeros_match_degenerate_points(self):
        # discriminant route (used for general schedules) cross-checks the
        # closed-form branch points of a degenerate schedule
        sched = ParameterSchedule.loop_2f1(1)
        disc = discriminant_z(curve_k(1))
        # disc vanishes at z = 1/2 (the branch point), and only at {0, 1} besides
        assert poly_eval(disc, CR(F(1, 2))) == CR(0)
        assert poly_eval(disc, CR(0)) == CR(0)
        assert poly_eval(disc, CR(1)) == CR(0)
        assert poly_eval(disc, CR(F(1, 3))) != CR(0)

    def test_general_route_on_nondegenerate(self):
        # slightly perturbed denominator slope: not degenerate, discriminant route
        sched = ParameterSchedule((-1, 1), (0, 1), (F(9, 8),), (1,))
        assert not sched.is_degenerate
        curve = build_curve(sched)
        bps = branch_points(curve, sched, 160)
        assert not bps.degenerate
        assert len(bps.points) >= 1
        # every reported point collapses two branches
        for p in bps.points:
            ws = branches_at(curve, p, 160)
            gaps = [abs(a - b) for i, a in enumerate(ws) for b in ws[i + 1:]]
            assert min(gaps) < 1e-20

    def test_general_route_on_five_slopes(self):
        # degree-25 discriminant: 8 branch points, 17 roots at the singular 0 and 1
        assert not ND5.is_degenerate
        curve = build_curve(ND5)
        assert len(discriminant_z(curve)) == 26
        bps = branch_points(curve, ND5, 160)
        assert len(bps.points) == 8
        assert len(bps.excluded_singular) == 17
        for p in bps.points:
            ws = branches_at(curve, p, 160)
            gaps = [abs(a - b) for i, a in enumerate(ws) for b in ws[i + 1:]]
            assert min(gaps) < 1e-20


class TestProp3:
    def test_two_slope_exact(self):
        rep = verify_rational_branches(ParameterSchedule.loop_2f1(CR(F(2, 3), F(1, 5))))
        assert rep.all_vanish
        assert len(rep.residual_polys) == 2

    def test_three_slope_exact(self):
        sched = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
        rep = verify_rational_branches(sched)
        assert rep.all_vanish
        assert len(rep.residual_polys) == 3
        assert all(poly_is_zero(list(r)) for r in rep.residual_polys)

    def test_precondition_failure(self):
        sched = ParameterSchedule((-1, 2), (0, 1), (3,), (1,))
        with pytest.raises(InvalidInputError):
            verify_rational_branches(sched)
