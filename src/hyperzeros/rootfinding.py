"""Certified multiprecision zeros of exact polynomials.

All zeros are found simultaneously by Ehrlich-Aberth iteration.  For a
two-slope degenerate schedule ``find_roots`` first solves the zeros in
complex128 from the hypergeometric differential equation itself: at a zero
z_k of p_n the equation reads
P_1(z_k) + 2 P_2(z_k) sum_{j != k} 1/(z_k - z_j) = 0,
Stieltjes' electrostatic system (C. R. Acad. Sci. Paris 100, 1885;
Szego, Orthogonal Polynomials, 6.7), which Newton solves from the mass
quantiles of the limit loop (``_loop_seeds``, ``_float_zeros``).  One Aberth
phase then polishes these float zeros at a width sized from their condition
kappa = max log2(sum |c_k||z_k|^k / |p'(z_k)|), read off the float zeros
(the adaptive-precision Aberth polish of MPSolve; Bini & Robol, J. Comput.
Appl. Math. 272, 2014).  Every other input, and a two-slope one whose float
stage fails, is seeded on Newton-polygon circles (radii from the
coefficient-based root-magnitude bound) and climbs a ladder of working
precisions, rung 0 starting from the seeds and each later rung from the
previous rung's iterates.  Coefficients of this polynomial family span
hundreds of orders of magnitude, so the target working precision carries the
coefficient spread on top of the requested precision.  The sweeps run in
fixed point on Gaussian integers (CPython ints) after a block exponent
scales the coefficients, and stop at the noise floor of a floating-point
evaluation at the phase's precision.  Only the pairwise Aberth sum is sized
to the step's error budget: an error e in it moves the step by about
|N|^2 e, N = p/p', so most root updates of a high-degree solve take it in
complex128 from float copies of the iterates, and the rest take one exact
integer loop on a grid just fine enough for the step (the mixed
float/multiprecision Aberth of MPSolve, ibid.); an iterate outside double
range has a NaN copy, which sends every sum that reads it to that loop on
the full grid.  Every root is then certified a posteriori at the target
width by a running-error Horner bound, in the same fixed-point arithmetic:
the certificates evaluate p on the sweeps' grid and p' on a grid just fine
enough for the 53 bits the forward bound keeps, add the rounding errors as
explicit terms, and carry the term magnitudes as floats with integer
exponents, rounded outward.  A fault in the sweeps or the float stage can
therefore cost iterations or a precision doubling but never a false
certificate.  If certification fails the target doubles and the solve
continues from the last iterates, up to a hard cap.

The solver has one entry, ``solve_all_roots``, which takes a plain
coefficient list (exact ComplexRationals or already-rounded mpcs) and
rounds it at each working precision, and optionally float approximations
of the roots; ``find_roots`` wraps it for exact polynomials.  Only the
float stage imports numpy, so solves without it run without numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp
from mpmath.libmp import (
    from_float,
    from_int,
    from_man_exp,
    fzero,
    mpc_pos,
    mpf_div,
    mpf_shift,
    round_ceiling,
    round_nearest,
    to_fixed,
)

from .errors import InvalidInputError, NonConvergenceError, PoleError
from .exact import ComplexRational
from .hyppoly import HypPolynomial, differential_operator

DEFAULT_PRECISION = 512
MAX_PRECISION = 4096

# A phase takes the complex128 pass over the Aberth sum once the degree
# times the grid's bits b reaches this bound; below it every sum takes the
# integer loop.  Whole phases on random degree-4 to 12 polynomials, float
# pass on against off (2-core Xeon, CPython 3.11), break even near
# deg b = 1600 and gain 3-6% at deg b = 2000 for every degree measured; at
# deg b = 800 the pass costs 2-16%.
_FLOAT_SUM_MIN_WORK = 1800
_FLOAT_TINY = 2.0 ** -1022  # the smallest normal double
_FLOAT_CLOSE = 2.0 ** 40  # |1/d_j| |z_i| at or above this: the pair is close


def checked_precision(bits: int) -> int:
    """``bits``, or InvalidInputError when it is below 1: mpmath rounds
    nonsense at 0 bits and loops forever at some inputs."""
    if bits < 1:
        raise InvalidInputError(f"precision must be at least 1 bit, got {bits}")
    return bits


def fraction_to_mpf(f: Fraction, prec: int) -> mp.mpf:
    """Correctly rounded conversion of an exact rational at ``prec`` >= 1 bits.

    Built from raw libmp values so the ambient context precision cannot
    re-round the result.  ``to_big_complex`` checks ``prec`` first.
    """
    return mp.make_mpf(
        mpf_div(from_int(f.numerator), from_int(f.denominator), prec, round_nearest)
    )


def to_big_complex(x, prec: int) -> mp.mpc:
    """Correctly rounded conversion of a ComplexRational (or number) at ``prec`` bits.

    Every input type is rounded at ``prec`` itself, independent of the
    ambient context precision.  A ``prec`` below 1 bit raises
    InvalidInputError.
    """
    checked_precision(prec)
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
    radius exp(slope), which estimates the magnitudes of m roots.  The logs
    need only float accuracy, so they come from ``_magnitude``.  A radius
    beyond about 2^+-1000 is carried as a float times 2^e, so the seeds
    leave double range without overflowing or collapsing to 0.
    """
    logs = []
    for c in coeffs:
        m, e = _magnitude(c)
        logs.append(-math.inf if m == 0 else math.log(m) + e * math.log(2))
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
        log_r = (v1 - v2) / m
        scale = round(log_r / math.log(2)) if abs(log_r) > 700 else 0
        r = math.exp(log_r - scale * math.log(2))
        for j in range(m):
            # fixed irrational-ish offsets break the rotational symmetry that
            # locks simultaneous iterations
            th = 2.0 * math.pi * j / m + 0.4 + float(e)
            seeds.append(mp.mpc(mp.ldexp(r * math.cos(th), scale),
                                mp.ldexp(r * math.sin(th), scale)))
    return seeds


def _loop_seeds(p: HypPolynomial):
    """n seeds at the mass quantiles of the limit loop, or None.

    For a two-slope degenerate schedule, 2F1(-n, alpha n + c; alpha n + c' + 1; z),
    the zeros go to the loop |G(z)| = |G(z*)| around z = 1, where
    G(z) = (z - 1) z^alpha (principal branch) and z* = alpha/(1 + alpha) is
    the saddle of Phi = log G at which the loop meets the lobe around 0.
    The loop carries the density |d Im Phi|/2 pi, so the seeds are the n
    points with arg G = arg G(z*) + 2 pi (k + 1/2)/n.  The walk starts at
    the loop's crossing x > 1 of the real axis, found by bisection on
    log|G(x)|, and follows arg G up to the last quantile before the saddle
    and down to the first one after it, by Newton on log G in steps of at
    most 0.1 in arg G.  It stops half a quantile short of the saddle, so no
    step crosses onto the lobe around 0.

    The seeds start the float stage (``_float_zeros``).  None, so that the
    Newton-polygon ladder runs, for every other schedule (decided first), a
    degree below n, a zero constant term, alpha in {0, -1}, a failed
    bisection or Newton solve, and a seed polygon that does not wind once
    around 1 and zero times around 0.
    """
    s = p.schedule
    if s.A != 2 or not s.is_degenerate:
        return None
    n = p.degree
    alpha = complex(s.alphas[1])
    if n != p.n or not p.coeffs[0] or alpha in (0, -1):
        return None
    two_pi = 2 * math.pi

    def log_g(z):
        return cmath.log(z - 1) + alpha * cmath.log(z)

    def on_loop(z, t):
        # Newton on log G(z) = level + i t, arg G taken modulo 2 pi
        for _ in range(40):
            w = log_g(z) - complex(level, t)
            w = complex(w.real, math.remainder(w.imag, two_pi))
            if abs(w) < 1e-13:
                return z
            z -= w / (1 / (z - 1) + alpha / z)
        raise ValueError("no Newton convergence on the loop")

    try:
        saddle = log_g(alpha / (1 + alpha))
        level = saddle.real
        lo, hi = 1.0, 2.0
        while math.log(hi - 1) + alpha.real * math.log(hi) < level:
            lo, hi = hi, 2 * hi
            if hi > 2.0 ** 64:
                return None
        while lo < (mid := 0.5 * (lo + hi)) < hi:
            if math.log(mid - 1) + alpha.real * math.log(mid) < level:
                lo = mid
            else:
                hi = mid
        # the crossing's position along the loop: its arg G less the saddle's
        u = (alpha.imag * math.log(hi) - saddle.imag) % two_pi
        quantiles = [two_pi * (k + 0.5) / n for k in range(n)]
        split = sum(1 for q in quantiles if q < u)
        seeds = [None] * n
        for ks in (range(split, n), range(split - 1, -1, -1)):
            z, pos = complex(hi), u
            for k in ks:
                steps = math.ceil(abs(quantiles[k] - pos) / 0.1)
                for j in range(1, steps + 1):
                    z = on_loop(z, saddle.imag + pos + (quantiles[k] - pos) * j / steps)
                seeds[k], pos = z, quantiles[k]
        windings = [
            round(sum(cmath.phase((seeds[k] - q) / (seeds[k - 1] - q)) for k in range(n)) / two_pi)
            for q in (1, 0)
        ]
    except (ValueError, ZeroDivisionError, OverflowError):
        return None
    return seeds if windings == [1, 0] else None


def _lu_solve(a, b):
    """x with a x = b, for a square complex array ``a`` and a vector ``b``,
    both overwritten: Gaussian elimination with partial pivoting, then back
    substitution, in elementwise numpy.  No BLAS or LAPACK routine runs, so
    the bits do not depend on the thread count (``numpy.linalg.solve``'s
    do).  A zero pivot gives non-finite entries."""
    import numpy as np

    n = len(b)
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            b[[k, p]] = b[[p, k]]
        col = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.multiply.outer(col, a[k, k + 1:])
        b[k + 1:] -= col * b[k]
    for k in range(n - 1, -1, -1):
        b[k] /= a[k, k]
        b[:k] -= a[:k, k] * b[k]
    return b


def _float_zeros(p: HypPolynomial):
    """The zeros of a two-slope member ``p`` in complex128, solved from its
    differential equation by Newton from its loop seeds (``_loop_seeds``);
    None when ``p`` has none or Newton fails.

    The operator L = P_2 D^2 + P_1 D + P_0 (``differential_operator``)
    annihilates p = c_n prod_j (z - z_j).  At a zero z_k, p'' / p' =
    2 S_1 with S_s = sum_{j != k} (z_k - z_j)^-s, so L p(z_k) = 0 reads
    F_k = P_1(z_k) + 2 P_2(z_k) S_1 = 0, one equation per zero that never
    touches the coefficients (Stieltjes' electrostatic system).  A solution
    with distinct z_k is the zero set of p: L lowers the degree of a
    degree-n polynomial (a_1 = -n), and L q vanishes at the n zeros of
    q = prod (z - z_k), so L q = 0 and q is a multiple of p, the one
    polynomial solution when the series runs to degree n.  The Jacobian is
    dense and analytic,
    J_kj = 2 P_2(z_k) / (z_k - z_j)^2 off the diagonal and
    J_kk = P_1'(z_k) + 2 P_2'(z_k) S_1 - 2 P_2(z_k) S_2, and each Newton
    step solves it by ``_lu_solve``.  The iteration stops after the step
    in which every z_k moved by at most 2^-40 |z_k|.

    Returns (zeros, iterations, residual), residual the largest
    |F_k| / (|P_1(z_k)| + 2 |P_2(z_k)| sum_j |z_k - z_j|^-1), or None when
    there are no loop seeds, 12 iterations do not converge, an iterate is not finite, two zeros are
    closer than 2^-40 |z_k|, or the residual exceeds 1e-10.  numpy is
    imported here only.
    """
    seeds = _loop_seeds(p)
    if seeds is None:
        return None
    import numpy as np

    _, p1, p2 = ([complex(c) for c in poly] for poly in differential_operator(p.schedule, p.n))
    d1, d2 = ([k * c for k, c in enumerate(poly)][1:] for poly in (p1, p2))

    def at(poly, x):
        v = np.zeros_like(x)
        for c in reversed(poly):
            v = v * x + c
        return v

    def inverse_gaps(z):
        gaps = z[:, None] - z[None, :]
        np.fill_diagonal(gaps, 1)
        inv = 1 / gaps
        np.fill_diagonal(inv, 0)
        return inv

    z = np.array(seeds, dtype=complex)
    diagonal = np.diag_indices(len(z))
    with np.errstate(all="ignore"):
        for iterations in range(1, 13):
            inv = inverse_gaps(z)
            inv2 = inv * inv
            s1 = inv.sum(axis=1)
            v1, v2 = at(p1, z), at(p2, z)
            jac = 2 * v2[:, None] * inv2
            jac[diagonal] = at(d1, z) + 2 * at(d2, z) * s1 - 2 * v2 * inv2.sum(axis=1)
            step = _lu_solve(jac, v1 + 2 * v2 * s1)
            z = z - step
            if not np.isfinite(z).all():
                return None
            if (np.abs(step) <= 2.0 ** -40 * np.abs(z)).all():
                break
        else:
            return None
        inv = inverse_gaps(z)
        if not np.isfinite(inv).all() or (np.abs(inv) * np.abs(z)[:, None] >= _FLOAT_CLOSE).any():
            return None
        v1, v2 = at(p1, z), at(p2, z)
        residual = float(np.max(np.abs(v1 + 2 * v2 * inv.sum(axis=1))
                                / (np.abs(v1) + 2 * np.abs(v2) * np.abs(inv).sum(axis=1))))
    if not residual <= 1e-10:
        return None
    return [complex(x) for x in z], iterations, residual


def _fixed_coeffs(c, b):
    """The coefficients scaled by one power of two, as integer pairs on the grid 2^-b.

    The block exponent puts max|c_k| in [1, 2) and leaves the roots
    unchanged.  Returns (cr, ci, shift): cr[k] + i ci[k] is c_k 2^shift
    truncated to an integer, so it stands for c_k 2^(shift - b) on the grid.
    """
    top = max(x[2] + x[3] for ck in c for x in ck._mpc_ if x[1])
    shift = b + 1 - top
    cr = [to_fixed(ck._mpc_[0], shift) for ck in c]
    ci = [to_fixed(ck._mpc_[1], shift) for ck in c]
    if max(r * r + i * i for r, i in zip(cr, ci)) >> (2 * b + 2):
        cr = [r >> 1 for r in cr]
        ci = [i >> 1 for i in ci]
        shift -= 1
    return cr, ci, shift


def _fixed_horner(coeffs, xr, xi, b):
    """(p(z), p'(z), pt) on the grid 2^-b by Horner's rule, p and p' as
    integer pairs.

    ``coeffs`` holds (re, im, modulus) grid triples from the leading
    coefficient down, and z = (xr + i xi) 2^-b.  Each product with z is
    exact in integers and then truncated onto the grid by one shift per
    component.  Every truncation, that of the coefficients onto the grid
    included, errs by less than sqrt(2) 2^-b, so with z on the grid the
    results differ from p and p' of the untruncated coefficients by less
    than 4 (deg + 1) 2^-b max(1, |z|)^deg and 2 (deg + 1)^2 2^-b
    max(1, |z|)^deg.  pt = sum |c_k| |z|^k is the running-error sum of the
    moduli, truncated likewise.
    """
    terms = iter(coeffs)
    vr, vi, pt = next(terms)
    dr = di = 0
    az = math.isqrt(xr * xr + xi * xi)
    # three-product complex multiply by z: with k = xr (wr + wi),
    # w z = (k - wi (xr + xi)) + i (k + wr (xi - xr))
    xs = xr + xi
    xd = xi - xr
    for ar, ai, aa in terms:
        k = xr * (dr + di)
        dr, di = ((k - di * xs) >> b) + vr, ((k + dr * xd) >> b) + vi
        k = xr * (vr + vi)
        vr, vi = ((k - vi * xs) >> b) + ar, ((k + vr * xd) >> b) + ai
        pt = ((pt * az) >> b) + aa
    return vr, vi, dr, di, pt


def _fixed_value(coeffs, xr, xi, b):
    """p(z) alone on the grid 2^-b, as an integer pair: the p part of
    ``_fixed_horner``, for (re, im) grid pairs from the leading coefficient
    down, with the same error bound."""
    terms = iter(coeffs)
    vr, vi = next(terms)
    xs = xr + xi
    xd = xi - xr
    for ar, ai in terms:
        k = xr * (vr + vi)
        vr, vi = ((k - vi * xs) >> b) + ar, ((k + vr * xd) >> b) + ai
    return vr, vi


def _float_copy(r, i, one):
    """The complex128 copy of the grid point (r + i i) / one, or NaN, which
    ``_float_sum`` rejects, when its modulus is not finite and normal."""
    try:
        x = complex(r / one, i / one)
        if _FLOAT_TINY <= math.hypot(x.real, x.imag) < math.inf:
            return x
    except OverflowError:
        pass
    return complex(math.nan, math.nan)


def _float_sum(zf, i):
    """(S, A, top) over the complex128 copies ``zf``: S = sum_j 1/d_j,
    A = sum_j |1/d_j| and top = max_j |1/d_j|, d_j = z_i - z_j over j != i;
    None when a pair is close, |d_j| <= 2^-40 |z_i|, or A is not finite and
    normal, which a NaN copy (``_float_copy``) always makes it, and the
    empty sum of degree 1 (A = 0) does too.  Each |1/d_j| can be finite
    while A overflows; a finite A keeps S finite, since rounding is
    monotone and |S| <= A term by term."""
    x = zf[i]
    try:
        rs = [1 / (x - y) for y in zf[:i]] + [1 / (x - y) for y in zf[i + 1:]]
        ars = [abs(r) for r in rs]
    except (ZeroDivisionError, OverflowError):
        return None
    top = max(ars, default=0.0)
    total = sum(ars)
    if not (_FLOAT_TINY <= total < math.inf and top * abs(x) < _FLOAT_CLOSE):
        return None
    return sum(rs), total, top


def _float_to_grid(x, b):
    """floor(x 2^b) for a finite float x, exactly: to_fixed(from_float(x), b)
    in an eighth of its time."""
    m, e = math.frexp(x)
    k = int(m * 9007199254740992.0)  # the 53-bit mantissa, an integer
    e += b - 53
    return k << e if e >= 0 else k >> -e


def _pair_sum(xr, xi, zr, zi, b, sh, extra):
    """sum_j 1/(x - z_j) on the grid 2^-b, x and the z_j as integer pairs on
    it, by the exact loop on the grid 2^-h, h = b - sh (sh = 0: the full grid).

    1/u = conj(u) 2^2h / |u|^2 takes one division, t = 2^(2h + ex) // |u|^2,
    ex = max(extra - sh, 0); extra >= bits of the operands keeps each term
    within two units of 2^-h.  u = 0 (z_j = x) adds nothing.
    """
    ex = extra
    if sh:
        ex = max(extra - sh, 0)
        xr >>= sh
        xi >>= sh
        zr = [y >> sh for y in zr]
        zi = [y >> sh for y in zi]
    num = 1 << (2 * (b - sh) + ex)
    sr = si = 0
    for yr, yi in zip(zr, zi):
        ur = xr - yr
        ui = xi - yi
        uu = ur * ur + ui * ui
        if uu:
            t = num // uu
            sr += ur * t
            si -= ui * t
    return (sr >> ex) << sh, (si >> ex) << sh


def _aberth_sum(zr, zi, zf, i, nr, ni, dd, pt, b, tol_base, extra):
    """(sr, si, on_floats): the Aberth sum of root i on the grid 2^-b, as
    accurate as the step needs (see ``_aberth_phase``); ``zf`` is None
    below the float pass's gate."""
    sh = 0
    sums = None if zf is None else _float_sum(zf, i)
    if sums is not None:
        s, total, top = sums
        nn = nr * nr + ni * ni
        log_n = 0.5 * nn.bit_length() - b
        log_tol = tol_base + pt.bit_length() - 0.5 * dd.bit_length()
        log_a = math.log2(total)
        if not nn or log_n + log_a >= -45 or 2 * log_n + log_a - 48 <= log_tol:
            return _float_to_grid(s.real, b), _float_to_grid(s.imag, b), True
        h = math.ceil(2 * log_n + math.log2(top) + log_a - log_tol) + 24
        sh = b - min(b, max(h, 1))
    return *_pair_sum(zr[i], zi[i], zr, zi, b, sh, extra), False


def _aberth_phase(c, z, wp, spread, cap):
    """Run Ehrlich-Aberth sweeps until every root's correction sinks below its
    evaluation-noise floor; returns (z, sweeps, active_left, float_sums,
    integer_sums).

    The sweeps run in fixed point on Gaussian integers.  ``_fixed_coeffs``
    scales the coefficients by a block exponent and puts them, like the
    iterates, on the grid 2^-b, b = wp + spread + 4, as (re, im) integer
    pairs.  Horner's rule for p, p' and the running-error sum
    pt = sum |c_k| |z|^k (``_fixed_horner``), the Newton quotient
    N = p/p' and the correction N/(1 - N S) are integer operations; the
    iterates come back as mpcs rounded to ``wp`` bits.

    A root stays active while |corr| |p'| > 4 u pt, u = 2 deg 2^-wp, which is
    the floating-point Horner noise model at ``wp`` bits; the test is squared
    and compared exactly in integers.  Rounding on the grid perturbs p(z) by
    at most 4 (deg + 1) 2^-b max(1, |z|)^deg, and pt >= 2^-spread
    max(1, |z|)^deg because both end coefficients lie within 2^spread of the
    largest.  The kernel's own error therefore stays below a quarter of u pt,
    and the stop test sees the noise floor of a wp-bit evaluation.

    The Aberth sum S = sum_j 1/(z_i - z_j) is computed only as accurately as
    the step needs: an error e in S moves the correction by about |N|^2 |e|,
    against the stop test's floor tol = 8 deg pt 2^-wp / |p'|, and each
    update picks its sum once (``_aberth_sum``).  When the degree times b is
    at least ``_FLOAT_SUM_MIN_WORK``, a complex128 pass over float copies of
    the iterates, refreshed as each root moves (``_float_sum``), gives
    S_f = sum 1/d_j, A = sum |1/d_j| and max |1/d_j|; a copy whose modulus
    is not finite and normal is NaN (``_float_copy``), and so is A then.
    S_f is taken when no pair is close (|d_j| > 2^-40 |z_i|, A finite and
    normal) and either |N| A >= 2^-45 (the global phase, where the float
    error is below the step's own) or |N|^2 A 2^-50 <= tol/4 (the float
    error is below the noise floor).  Otherwise the exact integer loop
    (``_pair_sum``) runs on the grid 2^-h, h = min(b, ceil(log2(|N|^2 B /
    tol)) + 24), B = sum |1/d_j|^2 bounded by A max |1/d_j|, or on the full
    grid 2^-b when the float pass rejects the sum or the phase is below the
    gate.  The log2 estimates come from ``bit_length`` and only pick a
    path: the fixed point is still p(z) = 0, and the certificates alone
    decide what is reported, so a wrong choice can cost sweeps but never a
    false certificate.  ``float_sums`` and ``integer_sums`` count the root
    updates on each path.

    Updates are applied sequentially within a sweep (simultaneous updates can
    lock symmetric pairs into 2-cycles).  The iteration is single-threaded and
    fully deterministic.
    """
    deg = len(c) - 1
    b = wp + spread + 4
    one = 1 << b
    cr, ci, _ = _fixed_coeffs(c, b)
    coeffs = [(r, i, math.isqrt(r * r + i * i)) for r, i in zip(cr[::-1], ci[::-1])]
    zr = [to_fixed(zk._mpc_[0], b) for zk in z]
    zi = [to_fixed(zk._mpc_[1], b) for zk in z]
    floor_shift = b - wp
    floor_scale = 8 * deg
    # log2 tol = log2(8 deg) - wp + log2 pt - log2 |p'|, pt and p' on one grid
    tol_base = math.log2(floor_scale) - wp
    zf = ([_float_copy(r, i, one) for r, i in zip(zr, zi)]
          if deg * b >= _FLOAT_SUM_MIN_WORK else None)
    float_sums = updates = 0
    active = list(range(deg))
    sweeps = 0
    while active and sweeps < cap:
        sweeps += 1
        # every update but a nudge takes one sum
        updates += len(active)
        extra = max(map(int.bit_length, zr + zi)) + 1
        still = []
        for i in active:
            xr = zr[i]
            xi = zi[i]
            vr, vi, dr, di, pt = _fixed_horner(coeffs, xr, xi, b)
            dd = dr * dr + di * di
            if not dd:
                # nudge off the exact critical point of p': z (1 + 2^-20) + 2^-20
                zr[i] = xr + (xr >> 20) + (one >> 20)
                zi[i] = xi + (xi >> 20)
                updates -= 1
            else:
                nr = ((vr * dr + vi * di) << b) // dd
                ni = ((vi * dr - vr * di) << b) // dd
                sr, si, on_floats = _aberth_sum(zr, zi, zf, i, nr, ni, dd, pt, b, tol_base,
                                                extra)
                float_sums += on_floats
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
            if zf is not None:
                zf[i] = _float_copy(zr[i], zi[i], one)
            if not dd or (kr * kr + ki * ki) * dd > ((floor_scale * pt) << floor_shift) ** 2:
                still.append(i)
        active = still
    z = [
        mp.make_mpc((from_man_exp(r, -b, wp, round_nearest), from_man_exp(i, -b, wp, round_nearest)))
        for r, i in zip(zr, zi)
    ]
    return z, sweeps, len(active), float_sums, updates - float_sums


def _magnitude(v):
    """(m, e) with |v| = m 2^e to within a relative 2^-51 and m in [0.5, 1),
    for an mpc v; (0.0, 0) at 0.

    The top 53 bits of each component's mantissa become a float, so only
    correctly rounded float operations follow and the result is the same
    on every IEEE-754 platform.
    """
    parts = [(float(man >> (bc - 53)) if bc > 53 else float(man), exp + max(bc - 53, 0))
             for _, man, exp, bc in v._mpc_ if man]
    if not parts:
        return 0.0, 0
    top = max(e for _, e in parts)
    m, de = math.frexp(math.sqrt(sum(math.ldexp(t * t, 2 * (e - top)) for t, e in parts)))
    return m, top + de


def _ceil_scaled(x, e):
    """ceil(x 2^e) for a float x >= 0 and an integer e, exactly."""
    num, den = x.as_integer_ratio()
    if e >= 0:
        num <<= e
    else:
        den <<= -e
    return -(-num // den)


def _log2_gap_products(zf):
    """sum_{j != k} log2 |z_k - z_j| for each point z_k of the complex list
    ``zf``: log2 of |p'(z_k) / c_n| when the points are the roots of p.
    -inf where two points coincide, and inf or NaN where a gap is not
    finite."""
    out = []
    for k, x in enumerate(zf):
        gaps = [abs(x - y) for y in zf[:k]] + [abs(x - y) for y in zf[k + 1:]]
        out.append(sum(map(math.log2, gaps)) if all(gaps) else -math.inf)
    return out


def _condition_bits(c, zf):
    """kappa = max_k log2(pt(z_k) / (|c_n| prod_{j != k} |z_k - z_j|)),
    rounded up and at least 0, for the distinct float approximations ``zf``
    of the roots of sum_k c_k z^k (mpcs, c_0 != 0), pt = sum_k |c_k| |z|^k.

    At the roots the denominator is |p'(z_k)|, so kappa is the bits a
    wp-bit evaluation of p loses to cancellation in the forward error
    |p| / |p'|.  Only float accuracy is needed: the |c_k| are
    ``_magnitude`` mantissas and exponents, and pt is summed in log2.
    """
    logs = [math.log2(m) + e if m else -math.inf for m, e in map(_magnitude, c)]
    worst = -math.inf
    for x, gaps in zip(zf, _log2_gap_products(zf)):
        lz = math.log2(abs(x)) if x else -math.inf
        terms = [logs[0]] + [lc + k * lz for k, lc in enumerate(logs[1:], 1)]
        top = max(terms)
        lpt = top + math.log2(sum(2.0 ** (t - top) for t in terms))
        worst = max(worst, lpt - logs[-1] - gaps)
    return math.ceil(max(0.0, worst))


def _grid(c, grids, b):
    """(pairs, derivative pairs, shift): the coefficients of p = sum_k c_k z^k
    and of p' on the grid 2^-b as (re, im) integer pairs from the leading
    coefficient down (``_fixed_coeffs``), the pairs of p' being k times
    those of c_k; cached in ``grids``."""
    if b not in grids:
        cr, ci, shift = _fixed_coeffs(c, b)
        grids[b] = (list(zip(cr[::-1], ci[::-1])),
                    [(k * cr[k], k * ci[k]) for k in range(len(c) - 1, 0, -1)], shift)
    return grids[b]


def _derivative_floor(c, grids, zk, est, err, b_max, scale_bits):
    """(dv, shift) with |p'(z_k)| >= dv 2^-shift for p = sum_k c_k z^k.

    p' is evaluated by Horner (``_fixed_value``) on its own coefficients
    k c_k, on the grid 2^-b with b the multiple of 64 at which the error
    term ``err`` (in grid units) should stay below 2^-106 of |p'|: twice the
    53 bits of p' that the forward bound keeps, so that the bound, rounded
    up at 53 bits, moves only when it lies within 2^-53 of its units of a
    rounding step.  ``est`` estimates log2 |p'(z_k)|, and the grid integers
    of the coefficients are c_k 2^(b + scale_bits).  A grid that misses
    that accuracy is refined (by what the measured |p'| lacks, or twice the
    bits when |p'| is not above the error), up to ``b_max``, where the
    result stands as it is; a non-finite ``est`` starts there.

    z_k is truncated onto the grid, off by less than sqrt(2) 2^-b; with
    |c_k| 2^scale_bits < 2 that moves p' (in those units) by at most
    sqrt(2) 2^-b sum_k 2 k (k - 1) max(1, |z|)^(k - 2) <
    (deg + 1)^3 2^-b max(1, |z|)^deg (the constant's slack covers the
    truncation's own step outward), and Horner at the truncated point errs
    like ``_fixed_horner``'s p' by less than 2 (deg + 1)^2 2^-b
    max(1, |z|)^deg, so ``err`` = 2 (deg + 1)^3 max(1, |z|)^deg covers both.
    ``grids`` caches the coefficient pairs per grid (``_grid``).
    """
    bits = err.bit_length() + 107
    b = b_max if not math.isfinite(est) else min(b_max, max(64, 64 * math.ceil(
        (bits - est - scale_bits) / 64)))
    while True:
        _, coeffs, shift = _grid(c, grids, b)
        dr, di = _fixed_value(coeffs, to_fixed(zk._mpc_[0], b), to_fixed(zk._mpc_[1], b), b)
        mod = math.isqrt(dr * dr + di * di)
        if mod >> 106 >= err or b == b_max:
            return mod - err, shift
        more = bits + 1 - mod.bit_length() if mod > 2 * err else b
        b = min(b_max, b + 64 * math.ceil(more / 64))


def _certificates(c, z):
    """Per-root residual and forward-error bounds of sum_k c_k z^k at ``z``.

    residual: (|p(z)| + noise) / scale, scale = max_k |c_k| |z|^k, an upper
    bound on the relative backward error; forward: (|p(z)| + noise) / |p'(z)|,
    a first-order bound on the distance to the nearby true root.  The noise
    term 2 deg eps pt, pt = sum_k |c_k| |z|^k and eps that of the ambient
    mpmath precision wp, is the floating-point Horner noise model at wp bits.

    p comes from the Aberth kernel's fixed-point Horner (``_fixed_value``)
    on the grid 2^-b, b = wp + spread + 4 or finer where a point needs it,
    so that every point of ``z`` lies on the grid exactly.  Its rounding
    errors enter as explicit terms: |p| is bounded above by its integer
    modulus plus 1 plus 4 (deg + 1) max(1, |z|)^deg grid units.  |p'| is
    bounded below on a coarser grid of its own (``_derivative_floor``),
    sized from log2 |c_n| + sum_{j != k} log2 |z_k - z_j| over the points
    (``_log2_gap_products``), which is log2 |p'(z_k)| when they are the
    roots, and never finer than b.

    pt, scale and max(1, |z|)^deg need only a few bits, so they are float
    mantissas with integer exponents (``_magnitude``), each power |z|^k and
    term |c_k| |z|^k off by less than a relative (k + 1) 2^-50.5; a relative
    (deg + 4) 2^-48, four times the worst case, widens them upward and
    scale downward.  The divisions round up at 53 bits, and a |p'| whose
    bound is not positive gives an infinite forward bound, so both results
    are upper bounds.
    """
    deg = len(c) - 1
    wp = mp.mp.prec
    mags = [_magnitude(ck) for ck in c]
    spread = (max(e for m, e in mags if m)
              - min(e for m, e in (mags[0], mags[-1]) if m) + 1)
    slack = (deg + 4) * 2.0 ** -48
    p_err = 4 * (deg + 1)
    d_err = 2 * (deg + 1) ** 3
    lead = math.log2(mags[-1][0]) + mags[-1][1]
    estimates = [lead + g for g in _log2_gap_products([complex(zk) for zk in z])]
    grids = {}
    residuals = []
    forwards = []
    for zk, est in zip(z, estimates):
        # the coarsest grid of at least wp + spread + 4 bits that holds z_k
        b = max([wp + spread + 4] + [-x[2] for x in zk._mpc_ if x[1]])
        coeffs, _, shift = _grid(c, grids, b)
        vr, vi = _fixed_value(coeffs, to_fixed(zk._mpc_[0], b), to_fixed(zk._mpc_[1], b), b)
        # the nonzero terms |c_k| |z|^k as normalized (mantissa, exponent),
        # with |z|^k = pm 2^pe
        zm, ze = _magnitude(zk)
        terms = [mags[0]] if mags[0][0] else []
        pm, pe = 1.0, 0
        for cm, ce in mags[1:]:
            pm, de = math.frexp(pm * zm)
            pe += ze + de
            m, de = math.frexp(cm * pm)
            if m:
                terms.append((m, ce + pe + de))
        top = max(e for _, e in terms)
        scale = max(m for m, e in terms if e == top) * (1 - slack)
        pt = sum(math.ldexp(m, e - top) for m, e in terms) * (1 + slack)
        # p is an integer times 2^-shift: on that scale the noise
        # 2 deg 2^(1 - wp) pt is 4 deg pt 2^(shift - wp), and the grid
        # errors take max(1, |z|)^deg, pm 2^pe widened like pt
        noise = 4 * deg * _ceil_scaled(pt, top + shift - wp)
        zpow = pm * (1 + slack)
        pv = (math.isqrt(vr * vr + vi * vi) + 1 + noise
              + max(p_err, _ceil_scaled(p_err * zpow, pe)))
        dv, d_shift = _derivative_floor(c, grids, zk, est,
                                        max(d_err, _ceil_scaled(d_err * zpow, pe)), b, shift - b)
        scale = mpf_shift(from_float(scale), top)
        residuals.append(mp.make_mpf(mpf_div(from_man_exp(pv, -shift), scale, 53, round_ceiling)))
        forwards.append(mp.make_mpf(mpf_div(from_man_exp(pv, -shift), from_man_exp(dv, -d_shift),
                                            53, round_ceiling))
                        if dv > 0 else mp.inf)
    return residuals, forwards


def _margin_bits(bounds, limits):
    """The worst floor(log2(bound / limit)) over the roots, clamped to
    +-MAX_PRECISION, so an infinite bound reads MAX_PRECISION; negative
    when every bound beats its limit."""
    worst = -MAX_PRECISION
    for x, lim in zip(bounds, limits):
        if x == mp.inf:
            return MAX_PRECISION
        _, _, exp, bc = (x / lim)._mpf_
        worst = max(worst, exp + bc - 1)
    return min(worst, MAX_PRECISION)


def _solve_nonzero(c, precision_bits, seeds=None):
    """Certified Aberth for a list with c[0] != 0, from float approximations
    of the roots (``seeds``) or on a ladder of working precisions.

    With ``seeds`` one phase, the ``seed`` record (rule ``seeds``), runs
    from them at the target max(prec + spread + 64, prec/2 + kappa + 64)
    bits, kappa from the seeds (``_condition_bits``, recorded as
    ``kappa_bits``): the forward bound |p| / |p'| at a wp-bit noise floor is
    about 2^(kappa - wp), and it must beat 2^(-prec/2).  No rung runs below
    that width, where it would scramble the seeds.

    Without ``seeds`` rung 0, the ``seed`` record (rule ``polygon``), starts
    at max(96, spread + 64) bits from the Newton-polygon circles; every later
    rung reruns the same sweeps from the previous rung's iterates at twice
    the precision, or at the target prec + spread + 64 once that is within
    a factor of 3.  The target rung always runs, below rung 0 if a low
    ``prec`` puts it there.  Rung 0 runs below the roots' condition for
    large two-slope members, so there the global convergence happens at
    the target width, not on the low rungs.

    Every phase has the same sweep cap, 120 + 2 degree; a rung that reaches
    it hands its iterates on to the next rung, which finishes the work.  The
    certificates run once per target; their ``certify`` record carries the
    outcomes and the worst margins floor(log2(bound / threshold)) over the
    roots, ``residual_margin`` and ``forward_margin`` (``_margin_bits``).  A
    failure doubles ``prec`` and continues from the last iterates.  Returns
    the unsorted (roots, residuals, forwards, precision_used, trace), the
    roots rounded to precision_used bits and the bounds evaluated there.
    """
    degree = len(c) - 1
    with mp.workprec(64):
        c64 = [to_big_complex(ck, 64) for ck in c]
        spread = _coeff_spread_bits(c64)
    kappa = None if seeds is None else _condition_bits(c64, seeds)
    wp, phase = max(96, spread + 64), "seed"
    trace = []
    prec = precision_bits
    while True:
        target = prec + spread + 64
        if kappa is not None:
            target = max(target, prec // 2 + kappa + 64)
        while True:
            if phase == "rung":
                # Aberth converges cubically near the roots, so from within a
                # factor of 3 of the target one rung reaches it
                wp = target if 3 * wp >= target else 2 * wp
            elif seeds is not None:
                wp = target
            with mp.workprec(wp):
                cw = [to_big_complex(ck, wp) for ck in c]
                if phase == "seed":
                    z = (_newton_polygon_seeds(cw, degree) if seeds is None
                         else [to_big_complex(s, wp) for s in seeds])
                z, sweeps, left, float_sums, integer_sums = _aberth_phase(
                    cw, z, wp, spread, cap=120 + 2 * degree)
            record = {"phase": phase, "working_bits": wp, "sweeps": sweeps, "active_left": left,
                      "float_sums": float_sums, "integer_sums": integer_sums}
            if phase == "seed":
                record["rule"] = "polygon" if seeds is None else "seeds"
                if seeds is not None:
                    record["kappa_bits"] = kappa
            trace.append(record)
            # the polygon's target rung runs even when its seed already works
            # at or above it
            done = wp == target and (phase == "rung" or seeds is not None)
            phase = "rung"
            if done:
                break
        with mp.workprec(wp):
            zr = [to_big_complex(zi, prec) for zi in z]
            residuals, forwards = _certificates(cw, zr)
            res_thr = _residual_threshold(prec)
            res_ok = all(r < res_thr for r in residuals)
            # a Newton-style forward bound degrades like noise^(1/m) at an
            # m-fold root; clustered roots are certified by residual alone
            # and reported in the measure's cluster diagnostic
            fwd_thr = _forward_threshold(prec)
            fwd_lims = [fwd_thr * (1 + abs(zi)) for zi in zr]
            loose = [i for i in range(degree) if not forwards[i] < fwd_lims[i]]
            fwd_ok = not loose or set(loose) <= {i for g in _find_clusters(zr, prec) for i in g}
            trace.append({"phase": "certify", "working_bits": wp, "residuals_ok": res_ok,
                          "forward_ok": fwd_ok,
                          "residual_margin": _margin_bits(residuals, [res_thr] * degree),
                          "forward_margin": _margin_bits(forwards, fwd_lims)})
        if left == 0 and res_ok and fwd_ok:
            return zr, residuals, forwards, prec, trace
        if prec >= MAX_PRECISION:
            raise NonConvergenceError(
                f"root finding did not certify at {prec} bits "
                f"(active={left}, residuals_ok={res_ok}, forward_ok={fwd_ok})",
                trace=trace,
            )
        prec = min(2 * prec, MAX_PRECISION)
        trace.append({"phase": "double-precision", "target_bits": prec})


def solve_all_roots(coeffs, precision_bits, seeds=None):
    """Find all roots of sum_k coeffs[k] z^k with certification.

    ``coeffs`` holds exact ComplexRationals or already-rounded mpcs.  Each
    working precision rounds the list afresh with ``to_big_complex``, so
    the accuracy of rounded input caps what can be certified.  Zero low
    coefficients give exact roots at the origin with zero bounds; the
    remaining roots come from the list with those coefficients stripped.
    ``seeds``, when given, are float approximations of those remaining
    roots, one each, finite and distinct: one Aberth phase polishes them at
    a width sized from their condition, in place of the Newton-polygon
    circles and the precision ladder (``_solve_nonzero``).

    Returns (roots, residuals, forwards, precision_used, trace), rounded to
    ``precision_used`` bits and sorted lexicographically by (re, im).  A
    precision below 1 bit raises InvalidInputError, as in ``to_big_complex``.
    Raises NonConvergenceError with the iteration trace when even the
    precision cap fails to certify.
    """
    degree = len(coeffs) - 1
    if degree < 1:
        raise InvalidInputError("polynomial must have at least one root")
    checked_precision(precision_bits)
    zeros_at_origin = 0
    while zeros_at_origin < degree and not coeffs[zeros_at_origin]:
        zeros_at_origin += 1
    if seeds is not None:
        seeds = [complex(s) for s in seeds]
        if len(seeds) != degree - zeros_at_origin:
            raise InvalidInputError(
                f"{len(seeds)} seeds for {degree - zeros_at_origin} nonzero roots")
        if len(set(seeds)) < len(seeds) or not all(map(cmath.isfinite, seeds)):
            raise InvalidInputError("seeds must be finite and distinct")
    if zeros_at_origin == degree:
        z, residuals, forwards, prec, trace = [], [], [], precision_bits, []
    else:
        z, residuals, forwards, prec, trace = _solve_nonzero(
            coeffs[zeros_at_origin:], precision_bits, seeds
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
    ``trace`` holds the solver's records when the measure comes from
    ``find_roots``: one per Aberth phase (working bits, sweeps, roots left
    active; the first, ``seed``, names its rule), one per certification
    (certificate outcomes and their worst log2 margins) and one per
    precision doubling.  It is empty for a measure read from a file and
    takes no part in equality.
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

    def as_complex_array(self):
        """The roots as a numpy complex array."""
        import numpy as np

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
    zf = [complex(z) for z in roots]
    mag = [math.hypot(z.real, z.imag) for z in zf]

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    with mp.workprec(precision_bits):
        for i in range(n):
            zi, mi = zf[i], mag[i]
            # a radius that underflows float64 bounds nothing
            bound = rad * (1 + mi) * (1 + eps) + 2.0 ** -900 if rad else math.inf
            for j in range(i + 1, n):
                d = zi - zf[j]
                lower = math.hypot(d.real, d.imag) * (1 - eps) - eps * (mi + mag[j])
                if bound < lower < math.inf:
                    continue
                if abs(roots[i] - roots[j]) < radius * (1 + abs(roots[i])):
                    parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return tuple(tuple(g) for g in groups.values() if len(g) > 1)


def find_roots(p: HypPolynomial, precision_bits: int = DEFAULT_PRECISION) -> RootCountingMeasure:
    """All zeros of ``p`` with multiplicity, as a root-counting measure.

    For a two-slope degenerate schedule the zeros are first solved in
    complex128 from the differential equation, starting on the limit loop
    (``_loop_seeds``, ``_float_zeros``), and one certified Aberth phase
    polishes them (``solve_all_roots`` with seeds).  Every other schedule,
    and a two-slope one whose float stage fails, takes the Newton-polygon
    ladder.  The trace's ``seed`` record names the rule that ran:
    ``electrostatic``, with ``kappa_bits``, the Newton ``iterations`` and
    the float stage's relative ``residual``, or ``polygon``.  Deterministic
    for fixed inputs, whatever the BLAS thread count.  Raises
    NonConvergenceError (with the iteration trace) if certification fails
    even at MAX_PRECISION bits.
    """
    if precision_bits < 64:
        raise InvalidInputError("precision_bits must be at least 64")
    if p.is_zero():
        raise InvalidInputError("cannot root-find the zero polynomial")
    if p.degree < 1:
        raise InvalidInputError("constant polynomial has no roots")
    stage = _float_zeros(p)
    roots, residuals, forwards, prec, trace = solve_all_roots(
        p.coeffs, precision_bits, None if stage is None else stage[0])
    if stage is not None:
        trace[0] = dict(trace[0], rule="electrostatic", iterations=stage[1], residual=stage[2])
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
