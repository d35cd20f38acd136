"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy root
computations (n up to 100 at 512 bits) are shared across criteria through
module-scope fixtures; the full suite targets a few minutes on a desktop.
"""

from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from hyperzeros import serialize
from hyperzeros.algcurve import branch_points, build_curve, discriminant_z, verify_rational_branches
from hyperzeros.exact import ComplexRational
from hyperzeros.experiments import (
    k_set_score,
    halfplane_restriction,
    zero_curve_distance,
)
from hyperzeros.hyppoly import (
    ParameterSchedule,
    apply_hypergeometric_operator,
    build_polynomial,
    series_coefficient,
)
from hyperzeros.potential import classify_regions, make_harmonic_system, trace_conjectured_loop
from hyperzeros.rootfinding import (
    cauchy_transform_at,
    find_roots,
    solve_all_roots,
    to_big_complex,
    vieta_check,
)

CR = ComplexRational
F = Fraction

PRECISION = 512
RESIDUAL_TOL = mp.mpf(2) ** -128
TWO_PATH_TOL = mp.mpf(10) ** -20
TRACE_TOL = 1e-10

K1 = ParameterSchedule.loop_2f1(1)
K2 = ParameterSchedule.loop_2f1(2)
A_HALF_MINUS_I = ParameterSchedule.loop_2f1(CR(F(1, 2), -1))
A_TWO_PLUS_I = ParameterSchedule.loop_2f1(CR(2, 1))
FIG5 = ParameterSchedule.diagonal((CR(0, 1), CR(1, 2)))


def _report(num, desc, ok, detail=""):
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {desc}  {detail}")
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _random_valid_schedule(rng):
    """A random rational schedule whose denominators stay valid for n <= 20."""
    A = int(rng.integers(2, 4))
    alphas = [CR(-1)]
    cs = [CR(0)]
    betas = []
    ds = []
    for _ in range(A - 1):
        alphas.append(CR(F(int(rng.integers(1, 7)), int(rng.integers(1, 5))),
                         F(int(rng.integers(-3, 4)), 2)))
        cs.append(CR(F(int(rng.integers(-4, 5)), 3)))
    for _ in range(A - 1):
        # positive real slope with positive offset keeps b_j(n) off the
        # nonpositive integers for every n
        betas.append(CR(F(int(rng.integers(1, 7)), int(rng.integers(1, 5))),
                        F(int(rng.integers(-3, 4)), 2)))
        ds.append(CR(F(int(rng.integers(0, 5)), 3)))
    return ParameterSchedule(alphas, cs, betas, ds)


@pytest.fixture(scope="module")
def measures_k1():
    return {n: find_roots(build_polynomial(K1, n), PRECISION) for n in (25, 50, 100)}


@pytest.fixture(scope="module")
def loop_k1():
    return trace_conjectured_loop(make_harmonic_system(K1), 2, step=0.004)


def test_criterion_1_exactness_gate():
    rng = np.random.default_rng(20240801)
    checked = 0
    ok = True
    while checked < 20:
        sched = _random_valid_schedule(rng)
        n = int(rng.integers(1, 21))
        try:
            sched.validate_at(n)
        except Exception:
            continue
        p = build_polynomial(sched, n)
        image = apply_hypergeometric_operator(p)
        if not image.is_zero():
            ok = False
            break
        checked += 1
    _report(1, "operator annihilates 20 random family members exactly (n <= 20)", ok,
            f"checked={checked}")


def test_criterion_2_series_oracle():
    sched = ParameterSchedule((-1, 0), (0, 2), (0,), (2,))
    p = build_polynomial(sched, 2)
    ok = p.coeffs == (CR(1), CR(F(-4, 3)), CR(F(1, 2)))
    rng = np.random.default_rng(20240802)
    agree = 0
    while agree < 10:
        s = _random_valid_schedule(rng)
        n = int(rng.integers(1, 9))
        try:
            s.validate_at(n)
        except Exception:
            continue
        q = build_polynomial(s, n)
        if not all(q.coefficient(k) == series_coefficient(s, n, k) for k in range(n + 1)):
            ok = False
            break
        agree += 1
    _report(2, "coefficients match the term-by-term series oracle exactly", ok,
            f"fixed case + {agree} random cases")


def test_criterion_3_root_certification(measures_k1):
    worst_res = mp.mpf(0)
    worst_vieta = mp.mpf(0)
    for n, m in measures_k1.items():
        p = build_polynomial(K1, n)
        worst_res = max(worst_res, max(m.residual_bounds))
        rep = vieta_check(p, m)
        worst_vieta = max(worst_vieta, rep.max_deviation)
    ok = worst_res < RESIDUAL_TOL and worst_vieta < RESIDUAL_TOL
    _report(3, "512-bit roots for n in {25,50,100}: residuals and Vieta below 2^-128",
            ok, f"worst residual 2^{mp.nstr(mp.log(worst_res, 2), 4)}, "
                f"worst Vieta 2^{mp.nstr(mp.log(worst_vieta, 2), 4)}")


def test_criterion_4_transform_two_path_identity(measures_k1):
    m = measures_k1[50]
    p = build_polynomial(K1, 50)
    dcoeffs = [p.coeffs[k] * k for k in range(1, p.degree + 1)]
    rng = np.random.default_rng(20240803)
    worst = mp.mpf(0)
    checked = 0
    while checked < 100:
        z = mp.mpc(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if min(abs(z - r) for r in m.roots) < 0.05:
            continue
        lhs = cauchy_transform_at(m, z)
        with mp.workprec(256):
            pv = mp.mpc(0)
            for c in reversed(p.coeffs):
                pv = pv * z + to_big_complex(c, 256)
            dv = mp.mpc(0)
            for c in reversed(dcoeffs):
                dv = dv * z + to_big_complex(c, 256)
            rhs = dv / (p.degree * pv)
            worst = max(worst, abs(lhs - rhs))
        checked += 1
    ok = worst < TWO_PATH_TOL
    _report(4, "Cauchy transform equals p'/(n p) to 1e-20 at 100 random z (n=50)",
            ok, f"worst |diff| = {mp.nstr(worst, 4)}")


def test_criterion_5_rational_branch_gate():
    two = verify_rational_branches(ParameterSchedule.loop_2f1(CR(F(3, 4), F(1, 3))))
    three = verify_rational_branches(FIG5)
    ok = two.all_vanish and three.all_vanish
    _report(5, "rational branches annihilate A(z,w) exactly (A in {2,3})", ok,
            f"branches checked: {len(two.residual_polys) + len(three.residual_polys)}")


def test_criterion_6_branch_points():
    ok = True
    details = []
    for sched, k in ((K1, 1), (K2, 2)):
        curve = build_curve(sched)
        bps = branch_points(curve, sched, 192)
        expected = CR(F(k, k + 1))
        ok &= bps.exact_points == (expected,)
        with mp.workprec(224):
            ok &= abs(bps.points[0] - to_big_complex(expected, 224)) < mp.mpf(2) ** -180
        # independent route: zeros of the exact w-discriminant
        disc = discriminant_z(curve)
        roots, _, _, _, _ = solve_all_roots([to_big_complex(c, 224) for c in disc], 192)
        with mp.workprec(224):
            target = to_big_complex(expected, 224)
            nontrivial = [r for r in roots if abs(r) > 1e-20 and abs(r - 1) > 1e-20]
            ok &= all(abs(r - target) < mp.mpf(2) ** -90 for r in nontrivial)
        details.append(f"k={k}: p={k}/{k + 1}, discriminant zeros agree")
    # at k = 1 the level constant through p = 1/2 is |p^k (1-p)| = 1/4 = k^k/(k+1)^(k+1)
    p_half = F(1, 2)
    ok &= p_half ** 1 * (1 - p_half) == F(1 ** 1, 2 ** 2) == F(1, 4)
    _report(6, "branch points k/(k+1) match the discriminant route; constant 1/4 at k=1",
            ok, "; ".join(details))


def test_criterion_7_level_tracer(loop_k1):
    vals = np.abs(loop_k1.points * (1 - loop_k1.points))
    worst = float(np.max(np.abs(vals - 0.25)))
    saddle = any(abs(c.location - 0.5) < 1e-9 for c in loop_k1.critical_points)
    ok = worst < TRACE_TOL and loop_k1.closed and saddle
    _report(7, "k=1 lemniscate trace: residual < 1e-10, closed, saddle at 1/2 detected",
            ok, f"max ||z(1-z)|-1/4| = {worst:.2e}, points={len(loop_k1)}")


def test_criterion_8_proved_clustering(measures_k1, loop_k1):
    maxima = {}
    for n, m in measures_k1.items():
        rep = zero_curve_distance(m, loop_k1, halfplane_restriction(0.5), "Re z > 1/2")
        maxima[n] = rep.max
    decreasing = maxima[25] > maxima[50] > maxima[100]
    halved = maxima[100] <= maxima[25] / 2
    _report(8, "k=1 restricted max distance decreases over n in {25,50,100}, "
               "n=100 at most half of n=25",
            decreasing and halved,
            f"max distances: {({n: round(v, 5) for n, v in maxima.items()})}")


@pytest.mark.parametrize("sched,eta,label", [
    (A_HALF_MINUS_I, 0.5, "alpha = 1/2 - i"),
    (A_TWO_PLUS_I, 2.0, "alpha = 2 + i"),
])
def test_criterion_9_conjecture1_evidence(sched, eta, label):
    loop = trace_conjectured_loop(make_harmonic_system(sched), 2, step=0.004)
    maxima = {}
    for n in (10, 50, 100):
        m = find_roots(build_polynomial(sched, n), PRECISION)
        rep = zero_curve_distance(m, loop, halfplane_restriction(eta / (eta + 1)),
                                  f"Re z > {eta / (eta + 1):.4g}")
        maxima[n] = rep.max
    ok = maxima[10] > maxima[50] > maxima[100]
    _report(9, f"restricted distance to the conjectured loop tightens ({label})", ok,
            f"max distances: {({n: round(v, 5) for n, v in maxima.items()})}")


def test_criterion_10_cauchy_convergence(measures_k1):
    devs_out = {}
    devs_in = {}
    for n, m in measures_k1.items():
        with mp.workprec(PRECISION):
            devs_out[n] = abs(cauchy_transform_at(m, mp.mpc(2)) - 1)
            devs_in[n] = abs(cauchy_transform_at(m, mp.mpc("1.1")) + 1 / mp.mpf("1.1"))
    ok = (devs_out[25] > devs_out[50] > devs_out[100]
          and devs_in[25] > devs_in[50] > devs_in[100])
    _report(10, "|C(2) - 1| and |C(1.1) + 1/1.1| decrease over n in {25,50,100}", ok,
            f"outside: {({n: float(mp.nstr(v, 4)) for n, v in devs_out.items()})}, "
            f"inside: {({n: float(mp.nstr(v, 4)) for n, v in devs_in.items()})}")


def test_criterion_11_kscore_evidence():
    m = find_roots(build_polynomial(FIG5, 100), PRECISION)
    grid = classify_regions(make_harmonic_system(FIG5), (-1.0, 2.0, -1.5, 1.5), 400)
    score = k_set_score(m, grid)
    ok = score.ratio_over_null >= 5.0
    _report(11, "3F2 figure parameters: K-clustering beats the uniform null by >= 5x",
            ok, f"fraction {score.fraction_on_k:.3f}, null {score.null_fraction:.3f}, "
                f"ratio {score.ratio_over_null:.1f}")


def test_criterion_12_determinism(tmp_path, measures_k1, loop_k1):
    files = {}
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        for n in (25, 50, 100):
            if tag == "a":
                m = measures_k1[n]
            else:
                m = find_roots(build_polynomial(K1, n), PRECISION)
            serialize.write_roots(d / f"roots_n{n}.txt", m, K1)
        loop = loop_k1 if tag == "a" else trace_conjectured_loop(
            make_harmonic_system(K1), 2, step=0.004
        )
        serialize.write_level_curve(d / "level_1_2.csv", loop)
        maxima = {}
        for n in (25, 50, 100):
            m = serialize.read_roots(d / f"roots_n{n}.txt")
            rep = zero_curve_distance(m, loop, halfplane_restriction(0.5), "Re z > 1/2")
            maxima[str(n)] = rep.summary()
        serialize.write_report(d / "report_distance.json", maxima)
        files[tag] = sorted(p.name for p in d.iterdir())
    ok = True
    for name in files["a"]:
        ok &= ((tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes())
    _report(12, "rerunning criteria 3 and 8 reproduces byte-identical data files", ok,
            f"{len(files['a'])} files compared")
