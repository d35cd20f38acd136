import cmath
import hashlib
import math
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mpmath.libmp import from_man_exp, round_nearest, to_fixed

from hyperzeros import rootfinding
from hyperzeros.errors import InvalidInputError, PoleError
from hyperzeros.exact import ComplexRational, poly_from_roots
from hyperzeros.hyppoly import HypPolynomial, ParameterSchedule, build_polynomial
from hyperzeros.rootfinding import (
    _fixed_coeffs,
    _fixed_horner,
    _newton_polygon_seeds,
    _certificates,
    _coeff_spread_bits,
    _cluster_radius,
    _find_clusters,
    _float_zeros,
    _loop_seeds,
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
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))
ND3 = ParameterSchedule((-1, CR(F(1, 2), 1), 2), (0, 1, 0), (1, CR(F(3, 2), -1)), (0, 1))


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

    @pytest.mark.parametrize("prec", [0, -3])
    def test_precision_below_one_bit_rejected(self, prec):
        # mpmath's division loops forever at 0 bits and rounds nonsense below
        for x in (CR(F(1, 3), 1), F(1, 3), 1.5, mp.mpc(1, 2)):
            with pytest.raises(InvalidInputError, match="at least 1 bit"):
                to_big_complex(x, prec)
        # the second list has its only root at the origin and rounds nothing
        for coeffs in ([CR(1), CR(1)], [CR(0), CR(1)]):
            with pytest.raises(InvalidInputError, match="at least 1 bit"):
                solve_all_roots(coeffs, prec)


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

    def test_bounds_hold_at_returned_roots(self):
        # the bounds are those of the roots as returned (rounded to
        # precision_bits), not of the unrounded working-precision iterates
        p = build_polynomial(SCHED, 20)
        m = find_roots(p, 512)
        wp = m.trace[-1]["working_bits"]
        with mp.workprec(wp):
            coeffs = [to_big_complex(c, wp) for c in p.coeffs]
            residuals, forwards = _certificates(coeffs, list(m.roots))
        with mp.workprec(m.precision_bits):
            assert m.residual_bounds == tuple(mp.mpf(r) for r in residuals)
            assert m.forward_error_bounds == tuple(mp.mpf(f) for f in forwards)

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


def _bits_digest(precision_bits, values):
    """sha256 of the precision and the raw mpmath tuples of ``values``."""
    parts = [precision_bits]
    for x in values:
        raw = x._mpc_ if hasattr(x, "_mpc_") else (x._mpf_,)
        parts.append(tuple(tuple(int(v) for v in r) for r in raw))
    return hashlib.sha256(repr(parts).encode()).hexdigest()


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
        assert _trace_summary(trace) == [("seed", 96, 6), ("rung", 192, 2), ("certify", 192, None)]
        with mp.workprec(prec):
            assert all(abs(z ** 10 - 1) < mp.mpf(2) ** -120 for z in roots)

    @pytest.mark.parametrize("prec, target", [(8, 73), (16, 81)])
    def test_target_rung_runs_below_the_seed(self, prec, target):
        # z^2 - 2 at prec bits: the 96-bit seed works above the target
        # prec + spread + 64, yet the target rung still runs and certifies
        roots, residuals, forwards, used, trace = solve_all_roots([CR(-2), CR(0), CR(1)], prec)
        assert _trace_summary(trace) == [("seed", 96, 4), ("rung", target, 1),
                                         ("certify", target, None)]
        assert used == prec
        with mp.workprec(64):
            assert [float(z.real) for z in roots] == pytest.approx([-2 ** 0.5, 2 ** 0.5],
                                                                   rel=2.0 ** (2 - prec))

    @pytest.mark.parametrize("s, expected", [
        (40, [("seed", 400, 12), ("rung", 528, 2), ("certify", 528, None)]),
        (-40, [("seed", 369, 12), ("rung", 497, 2), ("certify", 497, None)]),
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

    @pytest.mark.parametrize("s, expected", [
        (40, [("seed", 385, 93), ("rung", 513, 2), ("certify", 513, None)]),
        (60, [("seed", 545, 136), ("rung", 673, 3), ("certify", 673, None)]),
    ])
    def test_far_cluster_certifies_on_the_ladder(self, s, expected):
        # roots 2^s + k, k = 1..8: the Newton-polygon seeds converge slowly
        # on a cluster far from the origin.  At s = 60 rung 0 stops at the
        # sweep cap 120 + 2 degree, and the next rung finishes from its
        # iterates without a precision doubling
        exact = [_pow2(s) + CR(k) for k in range(1, 9)]
        roots, _, _, prec, trace = solve_all_roots(poly_from_roots(exact), 128)
        assert _trace_summary(trace) == expected
        assert prec == 128
        with mp.workprec(prec):
            for z, w in zip(roots, exact):
                w = to_big_complex(w, prec)
                assert abs(z - w) < mp.mpf(2) ** -100 * abs(w)

    @pytest.mark.parametrize("n, expected", [
        (20, [("seed", 594, 4), ("certify", 594, None)]),
        (40, [("seed", 614, 4), ("certify", 614, None)]),
    ])
    def test_find_roots_keeps_schedule(self, n, expected):
        # K1 polishes its float zeros in one phase at the target width
        # prec + spread + 64, above prec/2 + kappa + 64 at these n
        m = find_roots(build_polynomial(SCHED, n), 512)
        assert _trace_summary(m.trace) == expected
        assert m.trace[0]["rule"] == "electrostatic"
        assert all(t["active_left"] == 0 for t in m.trace if "sweeps" in t)

    @pytest.mark.parametrize("n, expected", [
        (20, [("seed", 96, 21), ("rung", 192, 3), ("rung", 384, 2), ("rung", 594, 2),
              ("certify", 594, None)]),
        (40, [("seed", 102, 27), ("rung", 204, 15), ("rung", 408, 3), ("rung", 614, 2),
              ("certify", 614, None)]),
    ])
    def test_polygon_seeds_keep_schedule(self, n, expected):
        # the same coefficients without seeds start on the Newton polygon
        _, _, _, _, trace = solve_all_roots(build_polynomial(SCHED, n).coeffs, 512)
        assert _trace_summary(trace) == expected
        assert trace[0]["rule"] == "polygon"

    def test_find_roots_counts_sum_paths(self):
        # K1 n = 40 on the polygon ladder: the float pass serves every update
        # of the lower rungs; the integer loop serves the 408-bit rung's last
        # sweeps, where the float error would show above the noise floor
        _, _, _, _, trace = solve_all_roots(build_polynomial(SCHED, 40).coeffs, 512)
        assert [(t["float_sums"], t["integer_sums"]) for t in trace if "sweeps" in t] == [
            (956, 0), (443, 0), (71, 40), (80, 0)]

    def test_doubling_refines_from_refined_iterates(self):
        # alpha = 2 + i, n = 40 on the polygon ladder misses the forward
        # bound at 128 bits; after the doubling the ladder continues from the
        # target rung's iterates, so the seed phase runs once
        coeffs = build_polynomial(ParameterSchedule.loop_2f1(CR(2, 1)), 40).coeffs
        _, _, _, used, trace = solve_all_roots(coeffs, 128)
        assert _trace_summary(trace) == [
            ("seed", 102, 25), ("rung", 230, 25), ("certify", 230, None),
            ("double-precision", None, None), ("rung", 358, 2), ("certify", 358, None),
        ]
        assert used == 256

    @pytest.mark.parametrize("sched, n, prec", [
        (SCHED, 40, 512),
        (FIG5, 10, 2048),
    ], ids=["K1-n40", "FIG5-n10"])
    def test_ladder_reaches_target_from_below(self, sched, n, prec):
        # on the polygon ladder each rung at most triples the working bits,
        # the last rung is the target, and the global convergence happens
        # below it
        p = build_polynomial(sched, n)
        roots, residuals, forwards, _, trace = solve_all_roots(p.coeffs, prec)
        with mp.workprec(64):
            spread = _coeff_spread_bits([to_big_complex(c, 64) for c in p.coeffs])
        bits = [t["working_bits"] for t in trace if "sweeps" in t]
        assert all(a < b <= 3 * a for a, b in zip(bits, bits[1:]))
        assert bits[-1] == prec + spread + 64
        # the margins are the worst floor(log2(bound / threshold)); frexp
        # gives x = f 2^e with f in [1/2, 1), so floor(log2 x) = e - 1
        with mp.workprec(bits[-1]):
            res_thr = mp.mpf(2) ** (-prec // 4)
            fwd_thr = mp.mpf(2) ** (-prec // 2)
            res_margin = max(mp.frexp(r / res_thr)[1] - 1 for r in residuals)
            fwd_margin = max(mp.frexp(f / (fwd_thr * (1 + abs(z))))[1] - 1
                             for f, z in zip(forwards, roots))
        assert res_margin < 0 and fwd_margin < 0
        assert trace[-1] == {"phase": "certify", "working_bits": bits[-1],
                             "residuals_ok": True, "forward_ok": True,
                             "residual_margin": res_margin, "forward_margin": fwd_margin}
        assert trace[-2]["sweeps"] <= 2

    @pytest.mark.parametrize("sched, n, prec, digest", [
        (SCHED, 20, 512, "68450424d8d5265d9b6f67858bdcade1c1bcea491ca77062779582ab0fdc1e45"),
        (FIG5, 10, 2048, "e6a90005d2fb9eb9d443dbb98adcf1153099aa4979d5af76671ee532a92d5788"),
    ], ids=["K1-n20", "FIG5-n10"])
    def test_root_bits_pinned(self, sched, n, prec, digest):
        # the exact bits of the roots and precision; a change to the
        # schedule or to the certificates may move the trace and the
        # bounds but not these
        m = find_roots(build_polynomial(sched, n), prec)
        assert _bits_digest(m.precision_bits, m.roots) == digest

    @pytest.mark.parametrize("sched, n, prec, digest", [
        (SCHED, 20, 512, "fc76e6f510e2f28a7f5f7f72e9c0b24be4e0bb2677136e05f087bc4cbb964fd2"),
        (FIG5, 10, 2048, "8bea24a4ee8c14d52928d4d464cff09b3bf263678ad454b16b1c1373414a7d6c"),
    ], ids=["K1-n20", "FIG5-n10"])
    def test_output_bits_pinned(self, sched, n, prec, digest):
        # the exact bits of the roots, bounds and precision
        m = find_roots(build_polynomial(sched, n), prec)
        values = m.roots + m.residual_bounds + m.forward_error_bounds
        assert _bits_digest(m.precision_bits, values) == digest

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


def _reference_pair_sum(xr, xi, zr, zi, b, extra):
    """The exact pairwise sum sum_j 1/(x - z_j) on the full grid 2^-b."""
    pair_num = 1 << (2 * b + extra)
    sr = si = 0
    for yr, yi in zip(zr, zi):
        ur = xr - yr
        ui = xi - yi
        uu = ur * ur + ui * ui
        if uu:
            t = pair_num // uu
            sr += ur * t
            si -= ui * t
    return sr >> extra, si >> extra


def _reference_aberth_phase(c, z, wp, spread, cap):
    """The Aberth sweeps with the exact pairwise sum on the full grid for
    every root update, as the solver ran before the sum was sized to the
    step's error budget; the returned counts put every sum on the integer
    path."""
    deg = len(c) - 1
    b = wp + spread + 4
    one = 1 << b
    cr, ci, _ = _fixed_coeffs(c, b)
    coeffs = [(r, i, math.isqrt(r * r + i * i)) for r, i in zip(cr[::-1], ci[::-1])]
    zr = [to_fixed(zk._mpc_[0], b) for zk in z]
    zi = [to_fixed(zk._mpc_[1], b) for zk in z]
    floor_shift = b - wp
    floor_scale = 8 * deg
    active = list(range(deg))
    sweeps = sums = 0
    while active and sweeps < cap:
        sweeps += 1
        extra = max(abs(v).bit_length() for v in zr + zi) + 1
        still = []
        for i in active:
            xr = zr[i]
            xi = zi[i]
            vr, vi, dr, di, pt = _fixed_horner(coeffs, xr, xi, b)
            dd = dr * dr + di * di
            if not dd:
                zr[i] = xr + (xr >> 20) + (one >> 20)
                zi[i] = xi + (xi >> 20)
                still.append(i)
                continue
            nr = ((vr * dr + vi * di) << b) // dd
            ni = ((vi * dr - vr * di) << b) // dd
            sr, si = _reference_pair_sum(xr, xi, zr, zi, b, extra)
            sums += 1
            er = one - ((nr * sr - ni * si) >> b)
            ei = -((nr * si + ni * sr) >> b)
            ee = er * er + ei * ei
            if ee:
                kr = ((nr * er + ni * ei) << b) // ee
                ki = ((ni * er - nr * ei) << b) // ee
            else:
                kr, ki = nr, ni
            zr[i] = xr - kr
            zi[i] = xi - ki
            if (kr * kr + ki * ki) * dd > ((floor_scale * pt) << floor_shift) ** 2:
                still.append(i)
        active = still
    z = [
        mp.make_mpc((from_man_exp(r, -b, wp, round_nearest), from_man_exp(i, -b, wp, round_nearest)))
        for r, i in zip(zr, zi)
    ]
    return z, sweeps, len(active), 0, sums


def _assert_matches_reference(coeffs, prec, seeds=None):
    """Solve ``coeffs`` with the solver's sums and with the exact-sum
    reference sweeps; every root lies within the sum of the two forward
    bounds of its nearest reference root, and no two share that root.
    Returns the solver's trace."""
    roots, _, forwards, used, trace = solve_all_roots(coeffs, prec, seeds)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rootfinding, "_aberth_phase", _reference_aberth_phase)
        ref_roots, _, ref_forwards, ref_used, _ = solve_all_roots(coeffs, prec, seeds)
    assert used == ref_used
    with mp.workprec(max(used, 64)):
        nearest = [min(range(len(ref_roots)), key=lambda j: abs(z - ref_roots[j])) for z in roots]
        assert sorted(nearest) == list(range(len(ref_roots)))
        for z, fz, j in zip(roots, forwards, nearest):
            assert abs(z - ref_roots[j]) <= fz + ref_forwards[j]
    return trace


def _sum_counts(trace):
    """(float_sums, integer_sums) over the trace's sweep records."""
    sweeps = [t for t in trace if "sweeps" in t]
    return sum(t["float_sums"] for t in sweeps), sum(t["integer_sums"] for t in sweeps)


class TestAberthSum:
    """The float copies and the one integer loop behind every Aberth sum."""

    @pytest.mark.parametrize("r, i", [
        (1 << 2100, 0),  # the quotient itself overflows
        (-(3 << 2072), 3 << 2072),  # both parts finite, the modulus overflows
        (1, -1),  # subnormal
        (0, 0),
    ], ids=["overflow", "modulus-overflow", "subnormal", "zero"])
    def test_float_copy_is_nan_outside_double_range(self, r, i):
        x = rootfinding._float_copy(r, i, 1 << 1050)
        assert math.isnan(x.real) and math.isnan(x.imag)
        # the NaN copy rejects every float sum that reads it, its own included
        zf = [1 + 1j, x, 2 - 1j]
        assert all(rootfinding._float_sum(zf, k) is None for k in range(3))

    @pytest.mark.parametrize("r, i, b", [
        (3, -5, 2),
        (1, 0, 1022),  # the smallest normal modulus
        (-(1 << 1000), 1 << 1001, 0),
        ((1 << 200) + 1, 7, 300),
    ], ids=["small", "smallest-normal", "large", "fine-grid"])
    def test_float_copy_is_the_rounded_grid_point(self, r, i, b):
        one = 1 << b
        assert rootfinding._float_copy(r, i, one) == complex(r / one, i / one)

    def test_degree_one_takes_integer_loop(self):
        # a lone root has no pairs: the empty float sum (A = 0) is rejected,
        # so 3 + z at 2048 bits, past the float pass's gate, solves
        assert rootfinding._float_sum([1.5 + 0j], 0) is None
        roots, residuals, _, used, _ = solve_all_roots([CR(3), CR(1)], 2048)
        assert used == 2048 and roots == [mp.mpc(-3)] and residuals[0] < mp.mpf(2) ** -2000
        m = find_roots(build_polynomial(SCHED, 1), 2048)
        assert m.n == 1 and m.precision_bits == 2048

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(8, 600), st.integers(1, 12), st.data())
    def test_pair_sum_matches_reference(self, b, deg, data):
        # random points of the grid 2^-b within |re|, |im| <= 2^(e - b), x
        # among them (u = 0); sh = 0 is the reference's full-grid loop, and
        # sh > 0 is that loop on the operands shifted onto the grid 2^-(b - sh),
        # with no guard bits left once sh >= extra
        e = data.draw(st.integers(1, b + 8))
        sh = data.draw(st.integers(1, b - 1))
        coord = st.integers(-(1 << e), 1 << e)
        zr = data.draw(st.lists(coord, min_size=deg, max_size=deg))
        zi = data.draw(st.lists(coord, min_size=deg, max_size=deg))
        i = data.draw(st.integers(0, deg - 1))
        xr, xi = zr[i], zi[i]
        extra = max(abs(v).bit_length() for v in zr + zi) + 1
        pair_sum = rootfinding._pair_sum
        full = _reference_pair_sum(xr, xi, zr, zi, b, extra)
        assert pair_sum(xr, xi, zr, zi, b, 0, extra) == full
        ex = max(extra - sh, 0)
        sr, si = _reference_pair_sum(xr >> sh, xi >> sh, [y >> sh for y in zr],
                                     [y >> sh for y in zi], b - sh, ex)
        assert pair_sum(xr, xi, zr, zi, b, sh, extra) == (sr << sh, si << sh)


class TestSumBudget:
    """The Aberth sum sized to the step's error budget keeps the exact-sum
    solver's roots."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=9)
        .filter(lambda c: c[-1] != (0, 0) and any(c[:-1])),
        st.integers(-200, 200),
    )
    def test_matches_exact_sum(self, gauss, s):
        # the strategy of test_matches_polyroots
        _assert_matches_reference([CR(a, b) * _pow2(s) for a, b in gauss], 128)

    @pytest.mark.parametrize("roots", [
        [_pow2(40) + CR(k) for k in range(1, 9)],
        [_pow2(60) + CR(k) for k in range(1, 9)],
        [-CR(k) * _pow2(40) for k in range(1, 9)],
        [-CR(k) * _pow2(-40) for k in range(1, 9)],
    ], ids=["cluster-2^40", "cluster-2^60", "2^40", "2^-40"])
    def test_far_inputs_match_exact_sum(self, roots):
        # each input takes both paths: floats in the global phase, and the
        # integer loop for the last sweeps or where a cluster's pairs are close
        trace = _assert_matches_reference(poly_from_roots(roots), 128)
        float_sums, integer_sums = _sum_counts(trace)
        assert float_sums > 0 and integer_sums > 0

    def test_float_sum_overflow_takes_integer_loop(self):
        # five roots near 2^-1000, 2^-1023 apart: each |1/d_j| is a finite
        # double, but near convergence A = sum |1/d_j| overflows, and those
        # updates take the integer loop in place of an infinite S_f
        roots = [_pow2(-1000) * (1 + CR(k) * _pow2(-23)) for k in range(5)]
        found, _, forwards, used, trace = solve_all_roots(poly_from_roots(roots), 64)
        assert used == 64
        with mp.workprec(128):
            exact = [to_big_complex(r, 128) for r in roots]
            nearest = [min(range(5), key=lambda j: abs(z - exact[j])) for z in found]
            assert sorted(nearest) == list(range(5))
            for z, fz, j in zip(found, forwards, nearest):
                assert abs(z - exact[j]) <= fz
        float_sums, integer_sums = _sum_counts(trace)
        assert float_sums > 0 and integer_sums > 0

    def test_integer_sums_take_coarse_grid(self):
        # K1 n = 40 on the polygon ladder: every integer sum of the 408-bit
        # rung runs on a grid coarser than 2^-b, and moves the step by less
        # than 2^-16 of the stop test's floor against the full-grid sum
        grids = []
        pair_sum = rootfinding._pair_sum
        aberth_sum = rootfinding._aberth_sum

        def logged_pair_sum(xr, xi, zr, zi, b, sh, extra):
            grids.append(b - sh)
            return pair_sum(xr, xi, zr, zi, b, sh, extra)

        def checked_aberth_sum(zr, zi, zf, i, nr, ni, dd, pt, b, tol_base, extra):
            grids.clear()
            sr, si, on_floats = aberth_sum(zr, zi, zf, i, nr, ni, dd, pt, b, tol_base, extra)
            if not on_floats:
                (h,) = grids
                assert h < b
                fr, fi = pair_sum(zr[i], zi[i], zr, zi, b, 0, extra)
                err = max(abs(sr - fr), abs(si - fi), 1)
                # log2 (|N|^2 |e|) against log2 tol, both from the grid values
                moved = math.log2(nr * nr + ni * ni) + math.log2(err) - 3 * b
                assert moved <= tol_base + math.log2(pt) - 0.5 * math.log2(dd) - 16
            return sr, si, on_floats

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rootfinding, "_pair_sum", logged_pair_sum)
            patch.setattr(rootfinding, "_aberth_sum", checked_aberth_sum)
            _, _, _, _, trace = solve_all_roots(build_polynomial(SCHED, 40).coeffs, 512)
        assert _sum_counts(trace) == (1550, 40)

    @pytest.mark.parametrize("sched, n, prec", [(SCHED, 40, 512), (FIG5, 10, 2048)],
                             ids=["K1-n40", "FIG5-n10"])
    def test_ladder_solves_match_exact_sum(self, sched, n, prec):
        # K1 from its float zeros, as find_roots solves it; FIG5 on the ladder
        p = build_polynomial(sched, n)
        stage = _float_zeros(p)
        trace = _assert_matches_reference(p.coeffs, prec, None if stage is None else stage[0])
        assert _sum_counts(trace)[0] > 0

    @pytest.mark.parametrize("coeffs", [
        [-_pow2(2200), CR(0), CR(1)],
        [-_pow2(-2200), CR(0), CR(1)],
        poly_from_roots([_pow2(1030)] + [-CR(k) for k in range(1, 8)]),
        poly_from_roots([_pow2(-1030)] + [-CR(k) for k in range(1, 8)]),
    ], ids=["2^1100", "2^-1100", "deg8-2^1030", "deg8-2^-1030"])
    def test_beyond_double_range_sums_in_integers(self, coeffs):
        # a root beyond double range has no float copy, so every sum takes
        # the integer loop on the full grid
        trace = _assert_matches_reference(coeffs, 64)
        float_sums, integer_sums = _sum_counts(trace)
        assert float_sums == 0 and integer_sums > 0


class TestPolygonSeeds:
    @pytest.mark.parametrize("s", [2200, -2200])
    def test_radius_beyond_double_range(self, s):
        # z^2 - 2^s: the seeds sit on the circle of radius 2^(s/2), and the
        # solve certifies at 64 bits in a few sweeps without a doubling
        coeffs = [-_pow2(s), CR(0), CR(1)]
        with mp.workprec(64):
            cw = [to_big_complex(c, 64) for c in coeffs]
            seeds = _newton_polygon_seeds(cw, 2)
            assert all(abs(mp.log(abs(z), 2) - s // 2) < 1e-9 for z in seeds)
        roots, residuals, forwards, prec, trace = solve_all_roots(coeffs, 64)
        assert prec == 64
        assert not any(t["phase"] == "double-precision" for t in trace)
        assert trace[0]["sweeps"] < 20
        with mp.workprec(64):
            assert [z / mp.mpf(2) ** (s // 2) for z in roots] == pytest.approx([-1, 1], abs=1e-15)


def _exact(x):
    """An mpf as an exact Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * F(man) * F(2) ** exp


def _assert_bounds_hold(coeffs, roots, residuals, forwards):
    """residual scale >= |p(z)| and forward |p'(z)| >= |p(z)| at each root,
    with p, p' and scale = max_k |c_k| |z|^k evaluated exactly in rationals
    at the rounded coefficients and the roots as given (compared squared)."""
    cs = [(_exact(c.real), _exact(c.imag)) for c in coeffs]
    for z, res, fwd in zip(roots, residuals, forwards):
        zr, zi = _exact(z.real), _exact(z.imag)
        pr = pi = dr = di = F(0)
        for ar, ai in reversed(cs):
            dr, di = dr * zr - di * zi + pr, dr * zi + di * zr + pi
            pr, pi = pr * zr - pi * zi + ar, pr * zi + pi * zr + ai
        p2 = pr * pr + pi * pi
        az2 = zr * zr + zi * zi
        scale2 = max((ar * ar + ai * ai) * az2 ** k for k, (ar, ai) in enumerate(cs))
        assert _exact(res) ** 2 * scale2 >= p2
        if fwd != mp.inf:
            assert _exact(fwd) ** 2 * (dr * dr + di * di) >= p2


class TestCertificates:
    """The certificates are upper bounds at the roots as returned."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=10)
        .filter(lambda c: c[-1] != (0, 0) and any(c[:-1])),
        st.integers(-200, 200),
    )
    def test_bounds_hold_exactly(self, gauss, s):
        # Gaussian-integer coefficients times 2^s, degree 2-9, at 128 bits
        coeffs = [CR(a, b) * _pow2(s) for a, b in gauss]
        roots, residuals, forwards, _, trace = solve_all_roots(coeffs, 128)
        wp = trace[-1]["working_bits"]
        at_origin = next(k for k, c in enumerate(gauss) if c != (0, 0))
        kept = [(z, r, f) for z, r, f in zip(roots, residuals, forwards) if z != 0]
        assert len(kept) == len(roots) - at_origin
        with mp.workprec(wp):
            cw = [to_big_complex(c, wp) for c in coeffs[at_origin:]]
        _assert_bounds_hold(cw, *zip(*kept))

    def test_points_off_the_default_grid(self):
        # z^2 - 2^-500 at +-2^-250 with imaginary parts of 2^-1400: the
        # points need a grid far finer than wp + spread + 4 bits
        wp = 192
        with mp.workprec(wp):
            coeffs = [to_big_complex(c, wp) for c in (-_pow2(-500), CR(0), CR(1))]
            tiny = mp.mpf(2) ** -1400
            points = [mp.mpc(mp.mpf(2) ** -250, tiny), mp.mpc(-(mp.mpf(2) ** -250), -3 * tiny)]
            assert min(x[2] for z in points for x in z._mpc_) < -(wp + 500 + 4)
            residuals, forwards = _certificates(coeffs, points)
        assert all(r < mp.mpf(2) ** -180 for r in residuals)
        _assert_bounds_hold(coeffs, points, residuals, forwards)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=3, max_size=10)
        .filter(lambda c: c[-1] != (0, 0) and c[0] != (0, 0)),
        st.integers(-60, 60),
        st.integers(4, 120),
    )
    def test_derivative_floor_below_derivative(self, gauss, s, k):
        # at the roots and at the roots moved by a relative 2^-k, every lower
        # bound on |p'| lies below |p'| evaluated at four times the precision
        coeffs = [CR(a, b) * _pow2(s) for a, b in gauss]
        roots, _, _, _, trace = solve_all_roots(coeffs, 128)
        wp = trace[-1]["working_bits"]
        floors = []
        derivative_floor = rootfinding._derivative_floor

        def logged_floor(c, grids, zk, est, err, b_max, scale_bits):
            dv, shift = derivative_floor(c, grids, zk, est, err, b_max, scale_bits)
            floors.append((zk, dv, shift))
            return dv, shift

        with mp.workprec(wp):
            cw = [to_big_complex(c, wp) for c in coeffs]
            moved = [z * (1 + mp.mpf(2) ** -k * mp.mpc(1, 1)) for z in roots]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rootfinding, "_derivative_floor", logged_floor)
                for points in (roots, moved):
                    _certificates(cw, points)
        assert len(floors) == 2 * len(roots)
        with mp.workprec(4 * wp):
            dcoeffs = [j * c for j, c in enumerate(cw)][:0:-1]
            for zk, dv, shift in floors:
                assert mp.ldexp(dv, -shift) <= abs(mp.polyval(dcoeffs, zk))

    def test_derivative_grid_refines_a_wrong_estimate(self):
        # z^2 - 1 at 2^-100 and 3: the gap product estimates |p'| = 2 |z| as
        # about 3 at both points, so the grid for p' at 2^-100, too coarse
        # by about 100 bits, is refined until p' holds 106 bits
        grids = []
        fixed_value = rootfinding._fixed_value

        def logged_value(coeffs, xr, xi, b):
            grids.append(b)
            return fixed_value(coeffs, xr, xi, b)

        with mp.workprec(512):
            coeffs = [to_big_complex(c, 512) for c in (CR(-1), CR(0), CR(1))]
            points = [mp.mpc(mp.mpf(2) ** -100, 0), mp.mpc(3, 0)]
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(rootfinding, "_fixed_value", logged_value)
                _, forwards = _certificates(coeffs, points)
        # at 2^-100 p on the 517-bit grid, then p' on a coarse grid and a
        # finer one; at 3 p, then p' on a coarse grid
        assert len(grids) == 5 and grids[1] < grids[2] < grids[0] == grids[3] == 517
        assert grids[4] < 517
        with mp.workprec(1024):
            for z, f in zip(points, forwards):
                exact = abs(z ** 2 - 1) / abs(2 * z)
                assert exact <= f <= exact * (1 + mp.mpf(2) ** -50)

    def test_far_cluster(self):
        # roots 2^40 + k, k = 1..8
        coeffs = poly_from_roots([_pow2(40) + CR(k) for k in range(1, 9)])
        roots, residuals, forwards, _, trace = solve_all_roots(coeffs, 128)
        wp = trace[-1]["working_bits"]
        with mp.workprec(wp):
            cw = [to_big_complex(c, wp) for c in coeffs]
        _assert_bounds_hold(cw, roots, residuals, forwards)


ALPHA_HALF = ParameterSchedule.loop_2f1(CR(F(1, 2), -1))
ALPHA_TWO = ParameterSchedule.loop_2f1(CR(2, 1))


def _log_g(alpha, z):
    """log G(z) = log(z - 1) + alpha log z on the principal branch."""
    return cmath.log(z - 1) + alpha * cmath.log(z)


def _nearest_match(m, roots, forwards):
    """Each root of ``m`` lies within the sum of the two forward bounds of
    its nearest root in ``roots``, and no two share that nearest root."""
    with mp.workprec(max(m.precision_bits, 64)):
        nearest = [min(range(len(roots)), key=lambda j: abs(z - roots[j])) for z in m.roots]
        assert sorted(nearest) == list(range(len(roots)))
        for z, fz, j in zip(m.roots, m.forward_error_bounds, nearest):
            assert abs(z - roots[j]) <= fz + forwards[j]


class TestLoopSeeds:
    """Two-slope degenerate schedules start the solve on their limit loop."""

    @pytest.mark.parametrize("sched", [SCHED, ALPHA_HALF, ALPHA_TWO], ids=["K1", "a=1/2-i", "a=2+i"])
    @pytest.mark.parametrize("n", [10, 40, 100])
    def test_seeds_are_loop_quantiles(self, sched, n):
        # seed k lies on |G| = |G(z*)| at arg G = arg G(z*) + 2 pi (k + 1/2)/n
        seeds = _loop_seeds(build_polynomial(sched, n))
        assert seeds is not None and len(seeds) == n
        alpha = complex(sched.alphas[1])
        saddle = _log_g(alpha, alpha / (1 + alpha))
        for k, z in enumerate(seeds):
            w = _log_g(alpha, z) - saddle
            assert abs(w.real) < 1e-12
            assert abs(math.remainder(w.imag - 2 * math.pi * (k + 0.5) / n, 2 * math.pi)) < 1e-12

    @pytest.mark.parametrize("sched", [SCHED, ALPHA_HALF, ALPHA_TWO], ids=["K1", "a=1/2-i", "a=2+i"])
    def test_find_roots_records_loop_rule(self, sched):
        # the loop seeds start the float stage, whose zeros seed the one phase
        m = find_roots(build_polynomial(sched, 10), 128)
        assert m.trace[0]["phase"] == "seed" and m.trace[0]["rule"] == "electrostatic"

    def _fallback(self, sched, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = build_polynomial(sched, n)
        assert _loop_seeds(p) is None
        m = find_roots(p, 128)
        assert m.trace[0]["rule"] == "polygon"
        return p

    def test_other_schedules_fall_back(self):
        self._fallback(FIG5, 10)
        self._fallback(ND3, 6)

    def test_trimmed_degree_falls_back(self):
        # a_2 = -n/2 truncates the series at degree n/2
        sched = ParameterSchedule((-1, CR(F(-1, 2))), (0, 0), (CR(F(-1, 2)),), (CR(F(1, 2)),))
        assert sched.is_degenerate
        assert self._fallback(sched, 6).degree == 3

    def test_alpha_zero_falls_back(self):
        self._fallback(ParameterSchedule.loop_2f1(0), 8)

    def test_failed_loop_check_falls_back(self):
        # for alpha = -2 + i/16 the real crossing x > 1 lies next to the
        # saddle z* = 2 + 0.06 i, the walk runs along the lobe through
        # infinity, and the seed polygon winds -1 times around both 0 and 1
        self._fallback(ParameterSchedule.loop_2f1(CR(-2, F(1, 16))), 10)

    def test_seed_count_checked(self):
        with pytest.raises(InvalidInputError):
            solve_all_roots([CR(-1), CR(0), CR(1)], 128, seeds=[0.5j])

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(st.integers(-3, 12), st.integers(-8, 8), st.integers(6, 24))
    def test_loop_or_fallback(self, re4, im4, n):
        # alpha = (re4 + i im4)/4 in [-3/4, 3] x [-2, 2]
        sched = ParameterSchedule.loop_2f1(CR(F(re4, 4), F(im4, 4)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                p = build_polynomial(sched, n)
            except InvalidInputError:
                assume(False)
        seeds = _loop_seeds(p)
        if seeds is None:
            return
        alpha = complex(sched.alphas[1])
        level = _log_g(alpha, alpha / (1 + alpha)).real
        assert all(abs(_log_g(alpha, z).real - level) < 1e-12 for z in seeds)
        # the float stage converges, and its zeros certify in one phase
        m = find_roots(p, 128)
        assert m.trace[0]["rule"] == "electrostatic" and m.trace[0]["iterations"] < 12
        assert [t["phase"] for t in m.trace] == ["seed", "certify"]
        roots, _, forwards, _, _ = solve_all_roots(p.coeffs, 128)
        _nearest_match(m, roots, forwards)


def _condition_of(coeffs, roots, prec):
    """max_k log2(sum |c_j| |z_k|^j / |p'(z_k)|) at the roots, in mpmath."""
    with mp.workprec(prec):
        cs = [to_big_complex(c, prec) for c in coeffs]
        worst = -mp.inf
        for z in roots:
            pt = sum(abs(c) * abs(z) ** j for j, c in enumerate(cs))
            dp = mp.polyval([j * c for j, c in enumerate(cs)][:0:-1], z)
            worst = max(worst, mp.log(pt / abs(dp), 2))
        return float(worst)


class TestFloatZeros:
    """Two-slope members: float zeros from the differential equation, then
    one certified Aberth phase sized from their condition."""

    @pytest.mark.parametrize("sched", [SCHED, ALPHA_HALF, ALPHA_TWO], ids=["K1", "a=1/2-i", "a=2+i"])
    def test_trace_record(self, sched):
        p = build_polynomial(sched, 30)
        m = find_roots(p, 256)
        seed, certify = m.trace
        assert seed["phase"] == "seed" and seed["rule"] == "electrostatic"
        assert 1 <= seed["iterations"] < 12 and 0 <= seed["residual"] <= 1e-10
        assert seed["active_left"] == 0
        with mp.workprec(64):
            spread = _coeff_spread_bits([to_big_complex(c, 64) for c in p.coeffs])
        assert seed["working_bits"] == max(256 + spread + 64, 128 + seed["kappa_bits"] + 64)
        assert certify["residuals_ok"] and certify["forward_ok"]
        # kappa read off the float zeros is the certified roots' condition
        assert abs(seed["kappa_bits"] - _condition_of(p.coeffs, m.roots, 256)) <= 1
        assert m.precision_bits == 256

    @pytest.mark.parametrize("sched", [SCHED, ALPHA_HALF, ALPHA_TWO], ids=["K1", "a=1/2-i", "a=2+i"])
    def test_float_zeros_are_the_roots(self, sched):
        p = build_polynomial(sched, 40)
        zeros, iterations, residual = _float_zeros(p)
        m = find_roots(p, 128)
        for z in zeros:
            assert min(abs(z - complex(r)) for r in m.roots) <= 1e-13 * abs(z)

    def test_alpha_two_certifies_without_doubling(self):
        # the ladder doubles to 256 bits here (test_doubling_refines_from_refined_iterates)
        p = build_polynomial(ALPHA_TWO, 40)
        m = find_roots(p, 128)
        assert m.precision_bits == 128
        assert [t["phase"] for t in m.trace] == ["seed", "certify"]
        assert m.trace[0]["rule"] == "electrostatic"
        roots, _, forwards, used, _ = solve_all_roots(p.coeffs, 128)
        assert used == 256
        _nearest_match(m, roots, forwards)

    @pytest.mark.parametrize("step", [
        lambda a, b: b * math.nan,  # a non-finite iterate
        lambda a, b: b / 2,  # half steps: no convergence in 12 iterations
    ], ids=["non-finite", "slow"])
    def test_failed_stage_falls_back(self, step):
        p = build_polynomial(SCHED, 20)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(rootfinding, "_lu_solve", step)
            assert _float_zeros(p) is None
            m = find_roots(p, 256)
        assert m.trace[0]["rule"] == "polygon"
        roots, residuals, forwards, prec, _ = solve_all_roots(p.coeffs, 256)
        assert (m.roots, m.residual_bounds, m.precision_bits) == (tuple(roots), tuple(residuals), prec)

    def test_lu_solve_matches_linalg(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30))
        b = rng.normal(size=30) + 1j * rng.normal(size=30)
        x = rootfinding._lu_solve(a.copy(), b.copy())
        assert np.allclose(x, np.linalg.solve(a, b), rtol=0, atol=1e-12)
        # a row exchange is needed at the first step
        a = np.array([[0, 1], [2, 3]], dtype=complex)
        assert list(rootfinding._lu_solve(a, np.array([1, 5], dtype=complex))) == [1, 1]

    @pytest.mark.parametrize("seeds", [[1.5, 1.5], [1.5, complex(math.inf, 0)], [1.5, math.nan]])
    def test_seeds_must_be_finite_and_distinct(self, seeds):
        with pytest.raises(InvalidInputError):
            solve_all_roots([CR(-2), CR(0), CR(1)], 128, seeds=seeds)


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
