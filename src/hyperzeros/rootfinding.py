"""Certified multiprecision zeros of exact polynomials.

All zeros are found simultaneously by Ehrlich-Aberth iteration seeded on
Newton-polygon circles (radii from the coefficient-based root-magnitude
bound), with companion-matrix eigenvalues as a deterministic fallback for
hard seeds.  Coefficients of this polynomial family span hundreds of orders
of magnitude, so the working precision carries the coefficient spread on
top of the requested precision, and every root is certified a posteriori by
a running-error Horner bound.  If certification fails the solve is retried
at doubled precision, up to a hard cap.

The solver has one entry, ``solve_all_roots``, which takes a plain
coefficient list (exact ComplexRationals or already-rounded mpcs) and
rounds it at each working precision; ``find_roots`` wraps it for exact
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import from_int, mpf_div, round_nearest

from .errors import InvalidInputError, NonConvergenceError, PoleError
from .exact import ComplexRational
from .hyppoly import HypPolynomial

DEFAULT_PRECISION = 512
MAX_PRECISION = 4096


def fraction_to_mpf(f: Fraction, prec: int) -> mp.mpf:
    """Correctly rounded conversion of an exact rational at ``prec`` bits.

    Built from raw libmp values so the ambient context precision cannot
    re-round the result.
    """
    return mp.make_mpf(
        mpf_div(from_int(f.numerator), from_int(f.denominator), prec, round_nearest)
    )


def to_big_complex(x, prec: int) -> mp.mpc:
    """Correctly rounded conversion of a ComplexRational (or number) at ``prec`` bits."""
    if isinstance(x, ComplexRational):
        return mp.make_mpc(
            (fraction_to_mpf(x.re, prec)._mpf_, fraction_to_mpf(x.im, prec)._mpf_)
        )
    if isinstance(x, (int, Fraction)):
        return mp.make_mpc((fraction_to_mpf(Fraction(x), prec)._mpf_, mp.mpf(0)._mpf_))
    return mp.mpc(x)


def _residual_threshold(prec):
    """Bound a certified root's relative backward residual must beat."""
    return mp.mpf(2) ** (-prec // 4)


def _forward_threshold(prec):
    """Bound a certified root's relative forward error must beat."""
    return mp.mpf(2) ** (-prec // 2)


def _cluster_radius(prec):
    """Relative distance within which roots count as one cluster."""
    return mp.mpf(2) ** (-prec // 8)


def _coeff_spread_bits(coeffs) -> int:
    """log2 of max|c_k| over min(|c_0|, |c_n|): precision lost to scaling."""
    with mp.workprec(64):
        mags = [abs(c) for c in coeffs]
        top = max(mags)
        ends = min(m for m in (mags[0], mags[-1]) if m > 0)
        if top <= ends:
            return 0
        return int(mp.ceil(mp.log(top / ends, 2)))


def _newton_polygon_seeds(coeffs, degree):
    """Initial guesses on circles whose radii come from the Newton polygon.

    The upper convex hull of (k, log|c_k|) splits the index range into edges;
    each edge of horizontal length m contributes m seeds on a circle of
    radius exp(slope), which estimates the magnitudes of m roots.
    """
    logs = []
    for k, c in enumerate(coeffs):
        a = abs(c)
        logs.append(-math.inf if a == 0 else float(mp.log(a)))
    hull = []
    for k in range(degree + 1):
        if logs[k] == -math.inf:
            continue
        while len(hull) >= 2:
            (k1, v1), (k2, v2) = hull[-2], hull[-1]
            if (v2 - v1) * (k - k2) <= (logs[k] - v2) * (k2 - k1):
                hull.pop()
            else:
                break
        hull.append((k, logs[k]))
    seeds = []
    for e in range(len(hull) - 1):
        (k1, v1), (k2, v2) = hull[e], hull[e + 1]
        m = k2 - k1
        r = math.exp((v1 - v2) / m)
        for j in range(m):
            # fixed irrational-ish offsets break the rotational symmetry that
            # locks simultaneous iterations
            th = 2.0 * math.pi * j / m + 0.4 + float(e)
            seeds.append(mp.mpc(r * math.cos(th), r * math.sin(th)))
    return seeds


def _companion_seeds(coeffs, degree):
    """Fallback seeds from float64 companion eigenvalues; None if not finite."""
    try:
        cf = np.array([complex(c) for c in coeffs], dtype=complex)
    except (OverflowError, ValueError):
        return None
    if not np.all(np.isfinite(cf)) or cf[-1] == 0:
        return None
    with np.errstate(all="ignore"):
        try:
            rts = np.roots(cf[::-1])
        except np.linalg.LinAlgError:
            return None
    if len(rts) != degree or not np.all(np.isfinite(rts)):
        return None
    rts = sorted(rts, key=lambda z: (z.real, z.imag))
    return [mp.mpc(z) for z in rts]


def _horner(c, ca, cp, z):
    """(p(z), sum |c_k| |z|^k, p'(z)) by Horner's rule.

    ``ca`` holds the |c_k| and ``cp`` the coefficients of p'; the middle
    value is the running-error sum that scales the evaluation noise.
    """
    deg = len(c) - 1
    az = abs(z)
    pv = c[deg]
    pt = ca[deg]
    for k in range(deg - 1, -1, -1):
        pv = pv * z + c[k]
        pt = pt * az + ca[k]
    dv = cp[deg - 1]
    for k in range(deg - 2, -1, -1):
        dv = dv * z + cp[k]
    return pv, pt, dv


def _aberth_phase(c, z, noise_unit, cap):
    """Run Ehrlich-Aberth sweeps until every root's correction sinks below its
    evaluation-noise floor; returns (z, sweeps, active_left).

    Updates are applied sequentially within a sweep (simultaneous updates can
    lock symmetric pairs into 2-cycles).  The iteration is single-threaded and
    fully deterministic.
    """
    deg = len(c) - 1
    ca = [abs(ck) for ck in c]
    cp = [c[k] * k for k in range(1, deg + 1)]
    active = list(range(deg))
    sweeps = 0
    while active and sweeps < cap:
        sweeps += 1
        still = []
        for i in active:
            zi = z[i]
            pv, pt, dv = _horner(c, ca, cp, zi)
            if dv == 0:
                # nudge off the exact critical point of p'
                z[i] = zi * (1 + mp.mpf(2) ** -20) + mp.mpf(2) ** -20
                still.append(i)
                continue
            newton = pv / dv
            s = mp.mpc(0)
            for j in range(deg):
                if j != i:
                    s += 1 / (zi - z[j])
            den = 1 - newton * s
            corr = newton / den if den != 0 else newton
            z[i] = zi - corr
            if abs(corr) > 4 * noise_unit * pt / abs(dv):
                still.append(i)
        active = still
    return z, sweeps, len(active)


def _certificates(c, z):
    """Per-root residual and forward-error bounds at the current precision.

    residual: (|p(z)| + noise) / max-term scale, an upper bound on the
    relative backward error; forward: (|p(z)| + noise) / |p'(z)|, a
    first-order bound on the distance to the nearby true root.
    """
    deg = len(c) - 1
    ca = [abs(ck) for ck in c]
    cp = [c[k] * k for k in range(1, deg + 1)]
    unit = mp.mpf(2 * deg) * mp.eps
    residuals = []
    forwards = []
    for zi in z:
        pv, pt, dv = _horner(c, ca, cp, zi)
        az = abs(zi)
        scale = mp.mpf(0)
        zp = mp.mpf(1)
        for k in range(deg + 1):
            t = ca[k] * zp
            if t > scale:
                scale = t
            zp *= az
        noise = unit * pt
        num = abs(pv) + noise
        residuals.append(num / scale if scale > 0 else mp.mpf(0))
        forwards.append(num / abs(dv) if dv != 0 else mp.inf)
    return residuals, forwards


def _solve_nonzero(c, precision_bits, max_precision_bits):
    """Aberth with precision doubling for a coefficient list with c[0] != 0.

    Returns the unsorted (roots, residuals, forwards, precision_used, trace).
    """
    degree = len(c) - 1
    with mp.workprec(64):
        spread = _coeff_spread_bits([to_big_complex(ck, 64) for ck in c])
    wp1 = max(96, spread + 64)
    trace = []
    prec = precision_bits
    z = None
    tried_companion = False
    while True:
        wp2 = prec + spread + 64
        with mp.workprec(wp1):
            c1 = [to_big_complex(ck, wp1) for ck in c]
            if z is None:
                z = _newton_polygon_seeds(c1, degree)
            noise1 = mp.mpf(2 * degree) * mp.mpf(2) ** (-wp1)
            z = [mp.mpc(zi) for zi in z]
            z, sw1, left1 = _aberth_phase(c1, z, noise1, cap=60)
        trace.append({"phase": "seed", "working_bits": wp1, "sweeps": sw1, "active_left": left1})
        if left1 > degree // 2 and not tried_companion:
            # seeding failed badly; fall back to companion eigenvalues
            tried_companion = True
            with mp.workprec(wp1):
                seeds = _companion_seeds(c1, degree)
            if seeds is not None:
                z = seeds
                trace.append({"phase": "companion-reseed", "working_bits": 53})
                continue
        with mp.workprec(wp2):
            c2 = [to_big_complex(ck, wp2) for ck in c]
            noise2 = mp.mpf(2 * degree) * mp.mpf(2) ** (-wp2)
            z = [mp.mpc(zi) for zi in z]
            z, sw2, left2 = _aberth_phase(c2, z, noise2, cap=120 + 2 * degree)
            residuals, forwards = _certificates(c2, z)
            res_thr = _residual_threshold(prec)
            res_ok = all(r < res_thr for r in residuals)
            fwd_thr = _forward_threshold(prec)
            cluster_rad = _cluster_radius(prec)

            def _fwd_passes(i):
                # a Newton-style forward bound degrades like noise^(1/m) at an
                # m-fold root; clustered roots are certified by residual alone
                # and reported in the measure's cluster diagnostic
                if forwards[i] < fwd_thr * (1 + abs(z[i])):
                    return True
                gap = min(abs(z[i] - z[j]) for j in range(degree) if j != i) if degree > 1 else mp.inf
                return gap < cluster_rad * (1 + abs(z[i]))

            fwd_ok = all(_fwd_passes(i) for i in range(degree))
        trace.append(
            {"phase": "refine", "working_bits": wp2, "sweeps": sw2, "active_left": left2,
             "residuals_ok": res_ok, "forward_ok": fwd_ok}
        )
        if left2 == 0 and res_ok and fwd_ok:
            return z, residuals, forwards, prec, trace
        if prec >= max_precision_bits:
            raise NonConvergenceError(
                f"root finding did not certify at {prec} bits "
                f"(active={left2}, residuals_ok={res_ok}, forward_ok={fwd_ok})",
                trace=trace,
            )
        prec = min(2 * prec, max_precision_bits)
        trace.append({"phase": "double-precision", "target_bits": prec})


def solve_all_roots(coeffs, precision_bits, max_precision_bits=MAX_PRECISION):
    """Find all roots of sum_k coeffs[k] z^k with certification.

    ``coeffs`` holds exact ComplexRationals or already-rounded mpcs.  Each
    working precision rounds the list afresh with ``to_big_complex``, so
    the accuracy of rounded input caps what can be certified.  Zero low
    coefficients give exact roots at the origin with zero bounds; the
    remaining roots come from the list with those coefficients stripped.

    Returns (roots, residuals, forwards, precision_used, trace), rounded to
    ``precision_used`` bits and sorted lexicographically by (re, im).
    Raises NonConvergenceError with the iteration trace when even the
    precision cap fails to certify.
    """
    degree = len(coeffs) - 1
    if degree < 1:
        raise InvalidInputError("polynomial must have at least one root")
    zeros_at_origin = 0
    while zeros_at_origin < degree and not coeffs[zeros_at_origin]:
        zeros_at_origin += 1
    if zeros_at_origin == degree:
        z, residuals, forwards, prec, trace = [], [], [], precision_bits, []
    else:
        z, residuals, forwards, prec, trace = _solve_nonzero(
            coeffs[zeros_at_origin:], precision_bits, max_precision_bits
        )
    with mp.workprec(prec):
        out = [mp.mpc(0)] * zeros_at_origin + [mp.mpc(zi) for zi in z]
        residuals = [mp.mpf(0)] * zeros_at_origin + list(residuals)
        forwards = [mp.mpf(0)] * zeros_at_origin + list(forwards)
        order = sorted(range(degree), key=lambda i: (out[i].real, out[i].imag))
        out = [out[i] for i in order]
        residuals = [mp.mpf(residuals[i]) for i in order]
        forwards = [mp.mpf(forwards[i]) for i in order]
    return out, residuals, forwards, prec, trace


@dataclass(frozen=True)
class RootCountingMeasure:
    """The zeros of a polynomial, each carrying weight 1/(number of zeros).

    ``roots`` are sorted lexicographically by (re, im) and counted with
    multiplicity; ``clusters`` lists index groups closer together than the
    cluster radius 2^(-precision_bits/8) (a diagnostic -- the atoms keep
    unit weight).  A forward bound of infinity means the bound is unknown.
    """

    roots: tuple
    precision_bits: int
    residual_bounds: tuple
    forward_error_bounds: tuple
    certification_threshold: object
    clusters: tuple
    source_n: int

    @property
    def n(self) -> int:
        return len(self.roots)

    @property
    def weight(self):
        return mp.mpf(1) / self.n

    @property
    def cluster_radius(self):
        return _cluster_radius(self.precision_bits)

    @classmethod
    def from_roots(cls, roots, precision_bits, residual_bounds, forward_error_bounds, source_n):
        """The measure on sorted ``roots``, with its certification threshold
        and clusters derived from ``precision_bits``."""
        with mp.workprec(precision_bits):
            clusters = _find_clusters(roots, _cluster_radius(precision_bits))
        return cls(
            roots=tuple(roots),
            precision_bits=precision_bits,
            residual_bounds=tuple(residual_bounds),
            forward_error_bounds=tuple(forward_error_bounds),
            certification_threshold=_residual_threshold(precision_bits),
            clusters=clusters,
            source_n=source_n,
        )

    def total_mass(self) -> Fraction:
        """Exactly 1: n atoms of weight 1/n (computed in rational arithmetic)."""
        return Fraction(1, self.n) * self.n

    def as_complex_array(self) -> np.ndarray:
        return np.array([complex(z) for z in self.roots])


def _find_clusters(roots, radius):
    n = len(roots)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) < radius * (1 + abs(roots[i])):
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


def find_roots(p: HypPolynomial, precision_bits: int = DEFAULT_PRECISION,
               max_precision_bits: int = MAX_PRECISION) -> RootCountingMeasure:
    """All zeros of ``p`` with multiplicity, as a root-counting measure.

    Deterministic for fixed inputs.  Raises NonConvergenceError (with the
    iteration trace) if certification fails even at ``max_precision_bits``.
    """
    if precision_bits < 64:
        raise InvalidInputError("precision_bits must be at least 64")
    if p.is_zero():
        raise InvalidInputError("cannot root-find the zero polynomial")
    if p.degree < 1:
        raise InvalidInputError("constant polynomial has no roots")
    roots, residuals, forwards, prec, _trace = solve_all_roots(
        p.coeffs, precision_bits, max_precision_bits
    )
    return RootCountingMeasure.from_roots(roots, prec, residuals, forwards, p.n)


def _check_not_pole(m: RootCountingMeasure, z):
    guard = _forward_threshold(m.precision_bits)
    for zeta in m.roots:
        if abs(z - zeta) <= guard * (1 + abs(zeta)):
            raise PoleError(f"evaluation point {z} coincides with a root within {guard}")


def cauchy_transform_at(m: RootCountingMeasure, z) -> mp.mpc:
    """Empirical Cauchy transform (1/n) sum 1/(z - zeta_nu).

    Sign convention: the transform equals p'/(n p); see the package notes on
    conventions.  Raises PoleError when z is within the certified guard
    distance of a root.
    """
    with mp.workprec(m.precision_bits):
        zz = mp.mpc(z)
        _check_not_pole(m, zz)
        total = mp.mpc(0)
        for zeta in m.roots:
            total += 1 / (zz - zeta)
        return total / m.n


def log_potential_at(m: RootCountingMeasure, z) -> mp.mpf:
    """Logarithmic potential (1/n) sum log|z - zeta_nu|."""
    with mp.workprec(m.precision_bits):
        zz = mp.mpc(z)
        _check_not_pole(m, zz)
        total = mp.mpf(0)
        for zeta in m.roots:
            total += mp.log(abs(zz - zeta))
        return total / m.n


@dataclass(frozen=True)
class VietaReport:
    sum_of_roots: object
    expected_sum: object
    product_of_roots: object
    expected_product: object
    sum_deviation: object
    product_deviation: object

    @property
    def max_deviation(self):
        return max(self.sum_deviation, self.product_deviation)


def vieta_check(p: HypPolynomial, m: RootCountingMeasure) -> VietaReport:
    """Compare sum/product of computed roots against exact coefficient ratios."""
    if p.degree != m.n:
        raise InvalidInputError(f"degree {p.degree} != number of roots {m.n}")
    prec = m.precision_bits + 32
    with mp.workprec(prec):
        s = mp.mpc(0)
        prod = mp.mpc(1)
        for z in m.roots:
            s += z
            prod *= z
        cn = to_big_complex(p.coeffs[-1], prec)
        c0 = to_big_complex(p.coeffs[0], prec)
        cn1 = to_big_complex(p.coefficient(p.degree - 1), prec)
        exp_sum = -cn1 / cn
        exp_prod = c0 / cn if p.degree % 2 == 0 else -c0 / cn
        dev_s = abs(s - exp_sum) / max(abs(exp_sum), mp.mpf(1))
        dev_p = abs(prod - exp_prod) / max(abs(exp_prod), mp.mpf(1))
        return VietaReport(s, exp_sum, prod, exp_prod, dev_s, dev_p)
