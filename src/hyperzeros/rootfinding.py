"""Certified multiprecision zeros of exact polynomials.

All zeros are found simultaneously by Ehrlich-Aberth iteration seeded on
Newton-polygon circles (radii from the coefficient-based root-magnitude
bound), with companion-matrix eigenvalues as a deterministic fallback for
hard seeds.  Coefficients of this polynomial family span hundreds of orders
of magnitude, so the working precision carries the coefficient spread on
top of the requested precision.  The sweeps run in fixed point on Gaussian
integers (CPython ints) after a block exponent scales the coefficients, and
stop at the noise floor of a floating-point evaluation at the working
precision.  Every root is then certified a posteriori in mpmath by a
running-error Horner bound, so a fault in the sweeps can cost iterations
or a precision doubling but never a false certificate.  If certification
fails the solve is retried at doubled precision, up to a hard cap.

The solver has one entry, ``solve_all_roots``, which takes a plain
coefficient list (exact ComplexRationals or already-rounded mpcs) and
rounds it at each working precision; ``find_roots`` wraps it for exact
polynomials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
import numpy as np
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpc_pos,
    mpf_div,
    round_nearest,
    to_fixed,
)

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
    """Correctly rounded conversion of a ComplexRational (or number) at ``prec`` bits.

    Every input type is rounded at ``prec`` itself, independent of the
    ambient context precision.
    """
    if isinstance(x, ComplexRational):
        return mp.make_mpc(
            (fraction_to_mpf(x.re, prec)._mpf_, fraction_to_mpf(x.im, prec)._mpf_)
        )
    if isinstance(x, (int, Fraction)):
        return mp.make_mpc((fraction_to_mpf(Fraction(x), prec)._mpf_, fzero))
    if hasattr(x, "_mpc_"):
        v = x._mpc_
    elif hasattr(x, "_mpf_"):
        v = (x._mpf_, fzero)
    else:
        # Python floats and complexes convert exactly at 53 bits
        v = (from_float(float(x.real)), from_float(float(x.imag)))
    return mp.make_mpc(mpc_pos(v, prec, round_nearest))


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


def _aberth_phase(c, z, wp, spread, cap):
    """Run Ehrlich-Aberth sweeps until every root's correction sinks below its
    evaluation-noise floor; returns (z, sweeps, active_left).

    The sweeps run in fixed point on Gaussian integers.  The coefficients are
    first scaled by one power of two, a block exponent that leaves the roots
    unchanged, so that max|c_k| lies in [1, 2).  Coefficients and iterates
    then become (re, im) integer pairs on the grid 2^-b, b = wp + spread + 4.
    Horner's rule for p and p', the running-error sum pt = sum |c_k| |z|^k,
    the Newton quotient, the Aberth sum and the correction are integer
    operations; the iterates come back as mpcs rounded to ``wp`` bits.

    A root stays active while |corr| |p'| > 4 u pt, u = 2 deg 2^-wp, which is
    the floating-point Horner noise model at ``wp`` bits; the test is squared
    and compared exactly in integers.  Rounding on the grid perturbs p(z) by
    at most 4 (deg + 1) 2^-b max(1, |z|)^deg, and pt >= 2^-spread
    max(1, |z|)^deg because both end coefficients lie within 2^spread of the
    largest.  The kernel's own error therefore stays below a quarter of u pt,
    and the stop test sees the noise floor of a wp-bit evaluation.

    Updates are applied sequentially within a sweep (simultaneous updates can
    lock symmetric pairs into 2-cycles).  The iteration is single-threaded and
    fully deterministic.
    """
    deg = len(c) - 1
    b = wp + spread + 4
    one = 1 << b
    # block exponent: c_k * 2^shift lands on the grid with max|c_k| in [1, 2)
    top = max(x[2] + x[3] for ck in c for x in ck._mpc_ if x[1])
    shift = b + 1 - top
    cr = [to_fixed(ck._mpc_[0], shift) for ck in c]
    ci = [to_fixed(ck._mpc_[1], shift) for ck in c]
    if max(r * r + i * i for r, i in zip(cr, ci)) >> (2 * b + 2):
        cr = [r >> 1 for r in cr]
        ci = [i >> 1 for i in ci]
    ca = [math.isqrt(r * r + i * i) for r, i in zip(cr, ci)]
    lower = list(zip(cr[deg - 1::-1], ci[deg - 1::-1], ca[deg - 1::-1]))
    zr = [to_fixed(zk._mpc_[0], b) for zk in z]
    zi = [to_fixed(zk._mpc_[1], b) for zk in z]
    floor_shift = b - wp
    floor_scale = 8 * deg
    active = list(range(deg))
    sweeps = 0
    while active and sweeps < cap:
        sweeps += 1
        # 1/(z_i - z_j) = conj(u) 2^2b / |u|^2 on the grid takes one division,
        # t = 2^(2b + extra) // |u|^2; extra >= bits of u keeps each term
        # within two grid units.  u = 0 (j = i, or an iterate that coincides
        # with z_i) adds nothing.
        extra = max(abs(v).bit_length() for v in zr + zi) + 1
        pair_num = 1 << (2 * b + extra)
        still = []
        for i in active:
            xr = zr[i]
            xi = zi[i]
            vr = cr[deg]
            vi = ci[deg]
            pt = ca[deg]
            dr = di = 0
            az = math.isqrt(xr * xr + xi * xi)
            # three-product complex multiply by z: with k = xr (wr + wi),
            # w z = (k - wi (xr + xi)) + i (k + wr (xi - xr))
            xs = xr + xi
            xd = xi - xr
            for ar, ai, aa in lower:
                k = xr * (dr + di)
                dr, di = ((k - di * xs) >> b) + vr, ((k + dr * xd) >> b) + vi
                k = xr * (vr + vi)
                vr, vi = ((k - vi * xs) >> b) + ar, ((k + vr * xd) >> b) + ai
                pt = ((pt * az) >> b) + aa
            dd = dr * dr + di * di
            if not dd:
                # nudge off the exact critical point of p': z (1 + 2^-20) + 2^-20
                zr[i] = xr + (xr >> 20) + (one >> 20)
                zi[i] = xi + (xi >> 20)
                still.append(i)
                continue
            nr = ((vr * dr + vi * di) << b) // dd
            ni = ((vi * dr - vr * di) << b) // dd
            sr = si = 0
            for yr, yi in zip(zr, zi):
                ur = xr - yr
                ui = xi - yi
                uu = ur * ur + ui * ui
                if uu:
                    t = pair_num // uu
                    sr += ur * t
                    si -= ui * t
            sr >>= extra
            si >>= extra
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
            z, sw1, left1 = _aberth_phase(c1, z, wp1, spread, cap=60)
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
            z, sw2, left2 = _aberth_phase(c2, z, wp2, spread, cap=120 + 2 * degree)
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
    ``trace`` holds the solver's per-phase records (phase, working bits,
    sweeps, roots left active, certificate outcomes) when the measure comes
    from ``find_roots``; it is empty for a measure read from a file and takes
    no part in equality.
    """

    roots: tuple
    precision_bits: int
    residual_bounds: tuple
    forward_error_bounds: tuple
    certification_threshold: object
    clusters: tuple
    source_n: int
    trace: tuple = field(default=(), compare=False)

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
    def from_roots(cls, roots, precision_bits, residual_bounds, forward_error_bounds, source_n,
                   trace=()):
        """The measure on sorted ``roots``, with its certification threshold
        and clusters derived from ``precision_bits``."""
        clusters = _find_clusters(roots, precision_bits)
        return cls(
            roots=tuple(roots),
            precision_bits=precision_bits,
            residual_bounds=tuple(residual_bounds),
            forward_error_bounds=tuple(forward_error_bounds),
            certification_threshold=_residual_threshold(precision_bits),
            clusters=clusters,
            source_n=source_n,
            trace=tuple(trace),
        )

    def total_mass(self) -> Fraction:
        """Exactly 1: n atoms of weight 1/n (computed in rational arithmetic)."""
        return Fraction(1, self.n) * self.n

    def as_complex_array(self) -> np.ndarray:
        return np.array([complex(z) for z in self.roots])


def _find_clusters(roots, precision_bits):
    """Index groups of ``roots`` within the cluster radius of each other.

    Roots i < j join when |z_i - z_j| < r (1 + |z_i|), r = 2^(-precision_bits/8),
    tested in mpmath at ``precision_bits``.  A float64 screen first rules out
    the pairs whose distance exceeds that bound by more than a relative
    2^-40 plus 2^-900: the margin covers the rounding of the float
    conversion, subnormals included, and of the mpmath test.  Every other
    pair, non-finite ones included, gets the mpmath test, so the groups are
    those of testing all pairs.
    """
    n = len(roots)
    parent = list(range(n))
    radius = _cluster_radius(precision_bits)
    rad = math.ldexp(1.0, -precision_bits // 8)
    eps = 2.0 ** -40
    with np.errstate(all="ignore"):
        zf = np.array([complex(z) for z in roots], dtype=complex)
        mag = np.abs(zf)
        dist = np.abs(zf[:, None] - zf[None, :])
        lower = dist * (1 - eps) - eps * (mag[:, None] + mag[None, :])
        far = np.isfinite(lower) & (lower > rad * (1 + mag[:, None]) * (1 + eps) + 2.0 ** -900)
    if rad == 0.0:
        # the radius underflows float64, so the screen bounds nothing
        far[:] = False

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    with mp.workprec(precision_bits):
        for i, j in np.argwhere(np.triu(~far, 1)).tolist():
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
    roots, residuals, forwards, prec, trace = solve_all_roots(
        p.coeffs, precision_bits, max_precision_bits
    )
    return RootCountingMeasure.from_roots(roots, prec, residuals, forwards, p.n, trace)


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
