"""Harmonic branch potentials, level-curve tracing, and region decomposition.

Each branch w = f_i(z) of the limit curve integrates to a harmonic function
H_i(z) = Re int_p^z f_i(s) ds on a simply connected set avoiding {0, 1}.
For degenerate schedules the branches are rational and the H_i have closed
forms; otherwise values are obtained by quadrature along paths with branch
tracking.  One routine does all quadrature, for harmonic values and for
integral-mode level curves alike: adaptive Gauss-Kronrod 7/15 steps that
integrate every branch together and take their error estimate from the
embedded Gauss rule.  Each mode has one source of branch values at the
nodes: closed mode evaluates the rational branches, and integral mode alone
tracks the roots of A(z, .) from node to node.

Shifted copies H~_i = H_i + (H_1(p_i) - H_i(p_i)) agree with H_1 at the
branch point p_i; their pairwise level sets carry the conjectured zero
clusters, and the pointwise maximum of the shifted branches cuts the plane
into regions whose boundary is the discrete singular set K.

Arg is the principal branch in (-pi, pi]; the cut on the negative real axis
is treated as a barrier: traces stop there and the region grid never
compares labels across it.

A level-curve trace marches from its seed in both directions, and each march
stops for one reason: "closed" (back at the seed), "saddle" (at a known
critical point), "cut" (at the Arg-cut barrier) or "end" (the step stalls,
|z| exceeds 1e6, or ``max_points`` is reached).  ``LevelCurve`` records the
first two as ``closed`` and the third as ``hit_cut``.
"""

from __future__ import annotations

import cmath
import copy
import math
from dataclasses import dataclass

import numpy as np

from .algcurve import BivariateCurve, build_curve, companion_matrices
from .errors import (
    BranchCollisionError,
    InvalidInputError,
    SaddleAtSeedError,
)
from .hyppoly import ParameterSchedule

TRACE_RESIDUAL_TOL = 1e-12
QUAD_TOL = 1e-12
MIN_BRANCH_SEPARATION = 1e-9
SINGULAR_GUARD = 1e-13
# a region grid is labelled in blocks of rows holding about 1 MiB of complex
# cell centres, so its peak memory does not grow with the resolution squared
REGION_BLOCK_BYTES = 1 << 20


@dataclass(frozen=True)
class CriticalPoint:
    """A critical point of a pair difference and the four directions
    (radians) in which its level set leaves it."""

    location: complex
    directions: tuple


@dataclass(frozen=True)
class HarmonicSystem:
    """Branch potentials H_i and their shifted copies for one schedule.

    ``mode`` is "closed" (degenerate schedules, closed forms) or "integral"
    (general schedules, path quadrature).  ``offsets[i-1]`` is the constant
    C_i with H~_i = H_i + C_i; only differences H~_i - H~_j and region
    labels are basepoint-independent.  In integral mode the offsets are not
    defined (no canonical branch-to-branch-point pairing is constructed),
    the basepoint may be None, and operations that need them reject the system.
    """

    schedule: ParameterSchedule
    basepoint: complex | None
    mode: str
    curve: BivariateCurve
    offsets: tuple
    branch_point_list: tuple

    @property
    def num_branches(self) -> int:
        return self.schedule.A

    # -- closed forms --------------------------------------------------------

    def _require_closed(self, what):
        if self.mode != "closed":
            raise InvalidInputError(
                f"{what} needs closed forms; this system is in integral mode "
                "(non-degenerate schedule)"
            )

    def __post_init__(self):
        # the closed forms' constants, in the float expressions of their
        # formulas: log|1 - p| for H_1, and per branch i >= 2 the factors
        # -Re alpha_i and Im alpha_i of log|z| and Arg z, the terms
        # Re alpha_i log|p| and Im alpha_i Arg p, and the numerator -alpha_i
        # of f_i
        if self.mode == "closed":
            p = self.basepoint
            terms = [math.log(abs(1 - p))]
            for al in map(complex, self.schedule.alphas[1:]):
                terms.append((-al.real, al.imag, al.real * math.log(abs(p)),
                              al.imag * cmath.phase(p), -al))
            object.__setattr__(self, "_terms", terms)

    def harmonic(self, i: int, z):
        """H_i(z) from the closed forms (degenerate mode only); i is 1-based.

        H_1(z) = log|1-z| - log|1-p|; for i >= 2, with alpha_i = ax + i ay,
        H_i(z) = -ax log|z| + ay Arg z + ax log|p| - ay Arg p.
        Accepts scalars or numpy arrays.
        """
        return self._public(z, (i,), shift=False)[0]

    def shifted(self, i: int, z):
        """H~_i = H_i + C_i (C_1 = 0)."""
        return self._public(z, (i,))[0]

    def difference(self, pair, z):
        """H~_i(z) - H~_j(z) for the pair (i, j)."""
        hi, hj = self._public(z, pair)
        return hi - hj

    def shifted_stack(self, z) -> np.ndarray:
        """H~_1(z), ..., H~_A(z) stacked along a new first axis, with
        non-finite values taken as -inf so they never achieve the maximum."""
        stack = np.array(self._public(z, range(1, self.num_branches + 1)))
        stack[~np.isfinite(stack)] = -np.inf
        return stack

    def _public(self, z, branches, shift=True):
        """The kernel's values for any scalar or array z, a scalar as a float."""
        self._require_closed("closed-form harmonic values")
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = self._kernel(z if z.shape else z[()], branches, shift=shift)
        return [h if h.shape else float(h) for h in out]

    def _kernel(self, z, branches, slopes=(), shift=True):
        """The closed forms at z, a complex numpy scalar or array: H_i(z),
        plus C_i when ``shift``, for each 1-based i of ``branches``, then the
        branch value f_i(z), 1/(z-1) or -alpha_i/z, for each i of ``slopes``.

        |z| and |1 - z| are taken once, for the singular check and the logs,
        and log|z| and Arg z once for every i >= 2.  A scalar goes through
        the numpy ufuncs an array does, in the same order, so its values
        equal the array's at that element bit for bit.
        """
        r, r1 = np.abs(z), np.abs(z - 1.0)
        near = (r < SINGULAR_GUARD) | (r1 < SINGULAR_GUARD)
        if near.any() if near.shape else near:
            raise InvalidInputError(
                "harmonic branch potentials have logarithmic singularities at 0 and 1"
            )
        out = []
        polar = None
        for i in branches:
            if i == 1:
                h = np.log(r1)
                h -= self._terms[0]
            else:
                if polar is None:
                    polar = np.log(r), np.arctan2(z.imag, z.real)
                neg_re, im, re_log_p, im_arg_p, _ = self._terms[i - 1]
                h = neg_re * polar[0]
                h += im * polar[1]
                h += re_log_p
                h -= im_arg_p
            if shift:
                h += self.offsets[i - 1]
            out.append(h)
        out += [1.0 / (z - 1.0) if i == 1 else self._terms[i - 1][4] / z for i in slopes]
        return out

    def critical_points(self, pair):
        """The known critical points of the pair difference, the tracer's
        saddles, each with its four outgoing level-set directions.

        In closed mode f_1 - f_i vanishes exactly at the branch point p_i;
        differences of two rational branches i, j >= 2 have constant
        numerator and no finite critical points.  Integral mode lists none.
        The directions at p are (pi/2 - arg F'')/2 + k pi/2 for the second
        derivative F'' = f_i' - f_j' at p, where f_1' = -1/(z-1)^2 and
        f_i' = alpha_i/z^2.
        """
        if not (self.mode == "closed" and min(pair) == 1 < max(pair)):
            return []
        p = self.branch_point_list[max(pair) - 2]
        alphas = self.schedule.alphas
        di, dj = (-1.0 / (p - 1.0) ** 2 if k == 1 else complex(alphas[k - 1]) / p ** 2
                  for k in pair)
        base = (math.pi / 2 - cmath.phase(di - dj)) / 2
        return [CriticalPoint(p, tuple(base + k * math.pi / 2 for k in range(4)))]


def make_harmonic_system(schedule: ParameterSchedule, basepoint=None) -> HarmonicSystem:
    """Build the harmonic system for a schedule.

    Degenerate schedules get closed-form mode with the basepoint defaulting
    to the first branch point p_2 = alpha_2/(alpha_2 + 1); general schedules
    get integral mode, where the basepoint stays None unless given.
    """
    curve = build_curve(schedule)
    if schedule.is_degenerate:
        bpts = []
        for al in schedule.alphas[1:]:
            a = complex(al)
            if a == -1:
                raise InvalidInputError("alpha_i = -1 puts a branch point at infinity")
            bpts.append(a / (a + 1))
        if basepoint is None and not bpts:
            raise InvalidInputError("one slope has no branch point p_2 for the default basepoint")
        p = complex(basepoint) if basepoint is not None else bpts[0]
        if abs(p) < SINGULAR_GUARD or abs(p - 1) < SINGULAR_GUARD:
            raise InvalidInputError("basepoint must avoid the singular points 0 and 1")
        sys0 = HarmonicSystem(schedule, p, "closed", curve, (0.0,) * schedule.A, tuple(bpts))
        offsets = [0.0]
        for i in range(2, schedule.A + 1):
            pi = bpts[i - 2]
            offsets.append(float(sys0.harmonic(1, pi) - sys0.harmonic(i, pi)))
        return HarmonicSystem(schedule, p, "closed", curve, tuple(offsets), tuple(bpts))
    p = complex(basepoint) if basepoint is not None else None
    return HarmonicSystem(schedule, p, "integral", curve, (), ())


# -- branch tracking along paths ---------------------------------------------


def _degenerate(z) -> InvalidInputError:
    return InvalidInputError(f"branch values degenerate at z = {z}")


class _BranchTracker:
    """Follows branches of A(z, w) = 0 along points by nearest continuation."""

    def __init__(self, curve: BivariateCurve):
        self.m = [complex(c) for c in curve.m_coeffs]
        self.n = [complex(c) for c in curve.n_coeffs]

    def branches(self, zs) -> np.ndarray:
        """The branch values at each point of ``zs``, one row per point.

        The rows are w = u/z for the eigenvalues u of the companion matrices
        that ``np.roots`` builds for the u-polynomials z M(u) - u N(u),
        solved in one stacked call.  They end before the first point where
        the leading coefficient z - 1 vanishes, z is at the singular 0, or
        the matrix is not finite; the caller raises there when it reaches
        that point.
        """
        zs = np.asarray(zs, dtype=complex)
        mats, finite = companion_matrices(self.m, self.n, zs)
        usable = finite & (np.abs(zs) >= SINGULAR_GUARD)
        stop = len(zs) if usable.all() else int(usable.argmin())
        return np.linalg.eigvals(mats[:stop]) / zs[:stop, None]

    def select(self, z: complex, indices) -> list:
        """The branch values at z with the given 1-based indices, branches
        ordered lexicographically by (re, im)."""
        ws = self.branches([z])
        if not len(ws):
            raise _degenerate(z)
        ws = sorted(ws[0], key=lambda v: (v.real, v.imag))
        if not all(1 <= i <= len(ws) for i in indices):
            raise InvalidInputError(f"branch indices {tuple(indices)} out of range 1..{len(ws)}")
        return [ws[i - 1] for i in indices]

    def track(self, zs, w) -> tuple:
        """Continue the branches with values ``w`` (an array) through the
        points ``zs`` in turn.

        At each point every value moves to its nearest branch there.  Returns
        (values, margin_ok): ``values[k]`` holds the values at ``zs[k]`` for
        each point reached.  The walk stops after the first point where some
        move exceeds a quarter of the separation from its branch to the
        nearest other branch, with margin_ok False (the caller should shorten
        its step).

        All points are solved by one ``branches`` call.  The nearest-branch
        index maps are composed row by row; then the collision and margin
        checks run on all rows at once, and the walk is cut at the first row
        that fails.  At that row a separation below MIN_BRANCH_SEPARATION
        raises BranchCollisionError before a margin failure counts, and a
        degenerate point raises InvalidInputError only when every point
        before it passed.
        """
        ws = self.branches(zs)
        if not len(ws):
            raise _degenerate(zs[0])
        # chosen[r] holds the branches of row r that the values follow, which
        # they reached by moving moved[r]; nearest[r][i] is the branch of row
        # r + 1 nearest to branch i of row r, at distance gap[r][i]
        dists = np.abs(w[:, None] - ws[0])
        gaps = np.abs(ws[:-1, :, None] - ws[1:, None, :])
        nearest, gap = gaps.argmin(axis=2), gaps.min(axis=2)
        chosen = [dists.argmin(axis=1).tolist()]
        for step in nearest.tolist():
            chosen.append([step[c] for c in chosen[-1]])
        rows, chosen = np.arange(len(ws))[:, None], np.array(chosen)
        values = ws[rows, chosen]
        if ws.shape[1] > 1:
            moved = np.concatenate([dists.min(axis=1)[None], gap[rows[:-1], chosen[:-1]]])
            # the distance from each followed branch to its nearest other one
            # (the smallest distance is 0, its own)
            sep = np.sort(np.abs(ws[:, :, None] - ws[:, None, :]), axis=2)[rows, chosen, 1]
            collided = sep.min(axis=1) < MIN_BRANCH_SEPARATION
            failed = collided | ~(moved <= sep / 4).all(axis=1)
            if failed.any():
                k = int(failed.argmax())
                if collided[k]:
                    raise BranchCollisionError(
                        f"branches collide near z = {zs[k]} (separation {sep[k].min():.2e}); "
                        "reroute the path",
                        where=zs[k],
                    )
                return values[:k + 1], False
        if len(ws) < len(zs):
            raise _degenerate(zs[len(ws)])
        return values, True


# QUADPACK's qk15 Gauss-Kronrod 7/15 rule on [-1, 1]: the nodes x >= 0 from
# the outside in, their Kronrod weights, and their Gauss weights (0 at the
# Kronrod-only nodes).
_QK15 = np.array([
    (0.9914553711208126, 0.022935322010529224, 0.0),
    (0.9491079123427585, 0.06309209262997856, 0.1294849661688697),
    (0.8648644233597691, 0.10479001032225019, 0.0),
    (0.7415311855993945, 0.14065325971552592, 0.27970539148927664),
    (0.5860872354676911, 0.1690047266392679, 0.0),
    (0.4058451513773972, 0.19035057806478542, 0.3818300505051189),
    (0.20778495500789848, 0.20443294007529889, 0.0),
    (0.0, 0.20948214108472782, 0.4179591836734694),
])
# all 15 nodes in ascending order, then the step's end x = 1 with weight 0
_GK_X, _K15_W, _G7_W = np.concatenate([_QK15 * (-1, 1, 1), _QK15[-2::-1], [(1, 0, 0)]]).T


def _integrate(branch_values, a: complex, b: complex, ws):
    """Integrals of branches along the segment [a, b]; returns
    (integrals, ws_end).

    ``ws`` holds the values at a of the branches to integrate.
    ``branch_values(nodes, ws)`` gives their values at each step's 16 nodes
    as (values, ok), one row per node reached, with ok False when the step
    should be shortened: ``_BranchTracker.track`` in integral mode, the
    closed-form branches in closed mode.  Each step is a Gauss-Kronrod 7/15
    pass whose error estimate |K15 - G7| reuses the step's own nodes.  A
    step is halved when that estimate exceeds QUAD_TOL * max(1, |b - a|) or
    ok is False, and doubled after an estimate below QUAD_TOL / 100.  A step
    below 1e-12 of the segment raises BranchCollisionError so the caller can
    reroute.
    """
    ws = np.asarray(ws, dtype=complex)
    total = np.zeros_like(ws)
    limit = QUAD_TOL * max(1.0, abs(b - a))
    t = 0.0
    dt = 1.0
    while t < 1.0 - 1e-15:
        dt = min(dt, 1.0 - t)
        a0 = a + (b - a) * t
        half = (b - a) * dt / 2
        nodes = [a0 + half * (1 + x) for x in _GK_X]
        vals, ok = branch_values(nodes, ws)
        if ok:
            kronrod = half * (_K15_W @ vals)
            err = float(np.max(np.abs(kronrod - half * (_G7_W @ vals))))
            ok = err <= limit
        if not ok:
            dt /= 2
            if dt < 1e-12:
                raise BranchCollisionError(
                    f"quadrature step collapsed near {a0}; branch margin or "
                    "accuracy unattainable (reroute the path)",
                    where=a0,
                )
            continue
        total += kronrod
        ws = vals[-1]
        t += dt
        if err < QUAD_TOL / 100:
            dt *= 2
    return total, ws


def harmonic_value_by_integration(sys: HarmonicSystem, i: int, z, path=None) -> float:
    """H_i(z) = Re int_p^z f_i(s) ds by adaptive quadrature.

    The path (polyline from the basepoint to z, default the straight
    segment) must avoid {0, 1}, and in integral mode the branch points.
    Each segment is one ``_integrate`` call.  In closed mode the quadrature evaluates the
    rational branch f_i at each step's nodes, and a node within
    SINGULAR_GUARD of 0 or 1 raises InvalidInputError.  In integral mode it
    tracks the branch to the nearest value, steps shorten where it nears
    another branch, and a genuine collision raises BranchCollisionError so
    the caller can reroute.  A system without a basepoint raises
    InvalidInputError.
    """
    if sys.basepoint is None:
        raise InvalidInputError("harmonic values need the system's basepoint, none was given")
    pts = [sys.basepoint] + ([complex(w) for w in path] if path else []) + [complex(z)]
    if sys.mode == "closed":
        def branch_values(nodes, _ws):
            return sys._kernel(np.array(nodes), (), (i,))[0][:, None], True

        w = sys._kernel(np.complex128(sys.basepoint), (), (i,))
    else:
        tracker = _BranchTracker(sys.curve)
        branch_values = tracker.track
        w = tracker.select(sys.basepoint, (i,))
    total = 0j
    for a, b in zip(pts[:-1], pts[1:]):
        seg, w = _integrate(branch_values, a, b, w)
        total += seg[0]
    return float(total.real)


# -- level curves -------------------------------------------------------------


@dataclass(frozen=True)
class LevelCurve:
    """A traced level curve of H~_i - H~_j = 0.

    ``points`` is an ordered polyline; ``residuals`` the per-point values of
    the implicit function; ``critical_points`` any saddles encountered
    (each with its four outgoing level-set directions); ``hit_cut`` whether
    the trace stopped at the Arg-cut barrier.
    """

    pair: tuple
    points: np.ndarray
    residuals: np.ndarray
    closed: bool
    critical_points: tuple
    hit_cut: bool

    def __len__(self):
        return len(self.points)


class _ClosedLevelFunction:
    """F = H~_i - H~_j from the closed forms, with its gradient as the complex
    number conj(f_i - f_j)."""

    def __init__(self, sys, pair):
        self.sys = sys
        self.pair = pair

    def at(self, z):
        """(F, grad F) at z, from one kernel call."""
        hi, hj, fi, fj = self.sys._kernel(np.complex128(z), self.pair, self.pair)
        return float(hi - hj), complex(fi - fj).conjugate()

    def commit(self):
        pass


class _IntegralLevelFunction:
    """F for integral mode: increments of Re int (f_i - f_j) from an anchor.

    The anchor starts at the seed with F = 0 (the traced curve is the level
    set through the seed).  Queries integrate from the anchor along a
    straight segment with branch tracking, and the gradient is
    conj(w_i - w_j) from the branch values they end with; ``commit`` moves
    the anchor to the last point queried, an accepted trace point, so error
    does not accumulate over rejected corrector excursions.
    """

    def __init__(self, sys, pair, seed):
        self.tracker = _BranchTracker(sys.curve)
        self.wi, self.wj = self.tracker.select(seed, pair)
        self.anchor = complex(seed)
        self.f_anchor = 0.0
        self._last = None

    def at(self, z):
        """(F, grad F) at z."""
        z = complex(z)
        if z == self.anchor:
            f, wi, wj = self.f_anchor, self.wi, self.wj
        else:
            (ii, ij), (wi, wj) = _integrate(self.tracker.track, self.anchor, z, (self.wi, self.wj))
            f = float(self.f_anchor + (ii - ij).real)
        self._last = (z, f, wi, wj)
        return f, complex(np.conjugate(wi - wj))

    def commit(self):
        self.anchor, self.f_anchor, self.wi, self.wj = self._last


def _crosses_cut(a: complex, b: complex) -> bool:
    """Does the segment a->b cross the barrier cut {re < 0, im = 0}?"""
    if a.imag == 0 and a.real < 0:
        return True
    if (a.imag > 0) == (b.imag > 0):
        return False
    t = a.imag / (a.imag - b.imag)
    x = a.real + t * (b.real - a.real)
    return x < 0


def _newton_correct(fun, z):
    """Newton steps onto F = 0; (z, F, grad F) at the last point queried,
    with z None if |F| stays above TRACE_RESIDUAL_TOL after 40 steps or the
    gradient vanishes."""
    for _ in range(41):
        f, g = fun.at(z)
        if abs(f) < TRACE_RESIDUAL_TOL:
            return z, f, g
        g2 = abs(g) ** 2
        if g2 == 0:
            break
        z = z - f * g / g2
    return None, f, g


def trace_level_curve(sys: HarmonicSystem, pair, seed, step: float = 0.005,
                      max_points: int = 50000) -> LevelCurve:
    """Predictor-corrector trace of the implicit curve H~_i - H~_j = 0.

    The seed is first Newton-corrected onto the curve; the trace then
    marches from it forward and, unless the forward march closes, backward
    from it again.  Each
    march stops for one reason: "closed" on returning within step/2 of the
    start, "saddle" within ``step`` of a point of ``sys.critical_points``
    (reported at that point, with its four outgoing directions), "cut" at
    the Arg-cut barrier, or "end" when the step stalls below step/4096, |z|
    exceeds 1e6 or ``max_points`` is reached; integral mode has no saddle
    stop.  The curve is closed when a march closes or both marches end at
    the same saddle, and ``hit_cut`` when either march reached the cut.
    Every emitted point has implicit residual below ``TRACE_RESIDUAL_TOL``.
    InvalidInputError rejects a pair outside 1..A or with i = j, and a step
    that is not positive and finite; SaddleAtSeedError a corrected seed
    within the stall bound step/4096 of a critical point.

    In integral mode the curve traced is the level set of H_i - H_j through
    the seed (offsets are a closed-form construct).
    """
    i, j = pair
    if i == j:
        raise InvalidInputError("level curve needs two distinct branch indices")
    if not (1 <= i <= sys.num_branches and 1 <= j <= sys.num_branches):
        raise InvalidInputError(
            f"branch indices {tuple(pair)} out of range 1..{sys.num_branches}")
    if not 0 < step < math.inf:
        raise InvalidInputError(f"trace step must be positive and finite, got {step}")
    if sys.mode == "closed":
        fun = _ClosedLevelFunction(sys, pair)
    else:
        fun = _IntegralLevelFunction(sys, pair, seed)
    known_criticals = sys.critical_points(pair)

    z0, f0, g0 = _newton_correct(fun, complex(seed))
    if z0 is None:
        raise InvalidInputError(
            f"seed {seed} could not be corrected onto the level curve "
            f"(residual {f0:.3e}); seed closer to the curve"
        )
    fun.commit()
    at_seed = next((c for c in known_criticals if abs(z0 - c.location) < step / 4096), None)
    if at_seed is not None:
        raise SaddleAtSeedError(at_seed.location, at_seed.directions)

    def march(fun, direction_sign):
        """(points, residuals, saddle, stop) of one march from z0, with
        ``fun`` anchored at z0; saddle is the critical point it stopped at,
        or None."""
        pts = []
        res = []
        z = z0
        tangent = direction_sign * 1j * g0 / abs(g0)
        h = step
        while len(pts) < max_points:
            # halve the step until the corrected point lies within 3h and the
            # tangent turns at most 0.45; h <= step, so at most 13 halvings
            # reach step/4096, where the loop stalls or accepts the turn
            while True:
                zp = z + h * tangent
                if _crosses_cut(z, zp):
                    return pts, res, None, "cut"
                try:
                    zc, fc, g = _newton_correct(fun, zp)
                except BranchCollisionError:
                    # the curve runs into a branch collision (integral mode);
                    # shorten, then give up on this direction
                    zc = None
                if zc is None or abs(zc - z) > 3 * h:
                    h /= 2
                    if h < step / 4096:
                        return pts, res, None, "end"
                    continue
                t_new = 1j * g / abs(g)
                if (t_new.conjugate() * tangent).real < 0:
                    t_new = -t_new
                turn = abs(cmath.phase(t_new / tangent))
                if turn > 0.45 and h > step / 4096:
                    h /= 2
                    continue
                saddle = next((c for c in known_criticals if abs(zc - c.location) < step), None)
                break
            if saddle is not None:
                pts.append(saddle.location)
                res.append(fun.at(saddle.location)[0])
                return pts, res, saddle, "saddle"
            fun.commit()
            pts.append(zc)
            res.append(fc)
            z = zc
            tangent = t_new
            if turn < 0.1 and h < step:
                h = min(step, 2 * h)
            if len(pts) >= 10 and abs(z - z0) < step / 2:
                return pts, res, None, "closed"
            if abs(z) > 1e6:
                break
        return pts, res, None, "end"

    # each march starts from the seed's anchor, so the forward one gets a copy
    fw_pts, fw_res, fw_saddle, fw_stop = march(copy.copy(fun), +1)
    bw_pts, bw_res, bw_saddle, bw_stop = (
        march(fun, -1) if fw_stop != "closed" else ([], [], None, None))
    # both marches ending at the same saddle close the loop there
    closed = "closed" in (fw_stop, bw_stop) or (fw_saddle is not None and fw_saddle == bw_saddle)
    return LevelCurve(
        pair=tuple(pair),
        points=np.array(bw_pts[::-1] + [z0] + fw_pts, dtype=complex),
        residuals=np.array(bw_res[::-1] + [f0] + fw_res, dtype=float),
        closed=closed,
        critical_points=tuple(c for c in (bw_saddle, fw_saddle) if c is not None),
        hit_cut="cut" in (fw_stop, bw_stop),
    )


def level_seed_on_ray(sys: HarmonicSystem, pair, origin, direction) -> complex:
    """A point on the level set of the pair difference along origin + t*direction.

    Bisects the sign change of F along the ray; origin is typically a
    logarithmic singularity of one branch so F covers both signs.
    """
    sys._require_closed("ray seeding")
    d = complex(direction)
    d /= abs(d)
    o = complex(origin)
    lo, hi = 1e-9, 64.0
    flo = float(sys.difference(pair, o + lo * d))
    fhi = float(sys.difference(pair, o + hi * d))
    while flo * fhi > 0 and hi < 1e9:
        hi *= 2
        fhi = float(sys.difference(pair, o + hi * d))
    if flo * fhi > 0:
        raise InvalidInputError("no sign change of the level function along the ray")
    # bisect in the geometric mean until the bracket holds no float between
    while lo < (mid := math.sqrt(lo * hi)) < hi:
        fm = float(sys.difference(pair, o + mid * d))
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return o + mid * d


def trace_conjectured_loop(sys: HarmonicSystem, i: int = 2, step: float = 0.004) -> LevelCurve:
    """The level curve H~_1 = H~_i through the branch point p_i, traced as the
    lobe that winds around z = 1.

    Seeded on the ray from 1 pointing away from p_i so the trace starts on
    the lobe; the loop self-intersects at p_i (a saddle), where the trace
    closes.
    """
    sys._require_closed("the conjectured loop")
    seed = level_seed_on_ray(sys, (1, i), 1.0, 1 - sys.branch_point_list[i - 2])
    return trace_level_curve(sys, (1, i), seed, step=step)


# -- Psi and regions ----------------------------------------------------------


@dataclass(frozen=True)
class PsiValue:
    value: float
    index: int
    tie: bool


PSI_TIE_TOL = 1e-10


def psi_value(sys: HarmonicSystem, z) -> PsiValue:
    """Max over {H_1, H~_2, ..., H~_A} with the achieving (1-based) index.

    Ties within 1e-10 are broken by the smallest index and reported (the
    region grid takes the plain argmax, since its labels carry no ties).
    """
    vals = sys.shifted_stack(z)
    top = float(vals.max())
    near = np.flatnonzero(vals >= top - PSI_TIE_TOL)
    return PsiValue(top, int(near[0]) + 1, len(near) > 1)


@dataclass(frozen=True)
class RegionGrid:
    """Per-cell argmax labels over a box, with the boundary cells K.

    ``labels[iy, ix]`` is the 1-based branch index achieving the maximum at
    the cell center; ``kmask`` marks cells whose 4-neighbors carry a
    different label (pairs straddling the Arg-cut barrier are never
    compared).
    """

    box: tuple
    resolution: int
    labels: np.ndarray
    kmask: np.ndarray
    xs: np.ndarray
    ys: np.ndarray

    @staticmethod
    def cell_centres(box, resolution: int):
        """The x and y coordinates of the cell centres of the grid over ``box``."""
        xmin, xmax, ymin, ymax = box
        xs = xmin + (np.arange(resolution) + 0.5) * (xmax - xmin) / resolution
        ys = ymin + (np.arange(resolution) + 0.5) * (ymax - ymin) / resolution
        return xs, ys

    @classmethod
    def from_labels(cls, box, resolution: int, labels: np.ndarray) -> "RegionGrid":
        """The grid over ``box`` with the given labels and the K mask they imply."""
        xs, ys = cls.cell_centres(box, resolution)
        kmask = np.zeros_like(labels, dtype=bool)
        diff_v = labels[:-1, :] != labels[1:, :]
        # vertical neighbor pairs straddling the cut {re < 0, im = 0} are barriers
        straddle = (np.sign(ys[:-1]) != np.sign(ys[1:]))[:, None] & (xs < 0)
        diff_v &= ~straddle
        kmask[:-1, :] |= diff_v
        kmask[1:, :] |= diff_v
        diff_h = labels[:, :-1] != labels[:, 1:]
        kmask[:, :-1] |= diff_h
        kmask[:, 1:] |= diff_h
        return cls(tuple(box), resolution, labels, kmask, xs, ys)

    @property
    def cell_width(self) -> float:
        return self.xs[1] - self.xs[0] if len(self.xs) > 1 else 0.0

    @property
    def cell_height(self) -> float:
        return self.ys[1] - self.ys[0] if len(self.ys) > 1 else 0.0

    @property
    def cell_diagonal(self) -> float:
        return math.hypot(self.cell_width, self.cell_height)

    def k_points(self) -> np.ndarray:
        X, Y = np.meshgrid(self.xs, self.ys)
        return (X + 1j * Y)[self.kmask]

    def labels_present(self):
        # one comparison per value: np.unique sorts a copy of the grid, and
        # np.bincount widens one to 64 bits
        labels = self.labels
        lo, hi = (int(labels.min()), int(labels.max())) if labels.size else (1, 0)
        return [v for v in range(lo, hi + 1) if (labels == v).any()]

    def domain_mask(self) -> np.ndarray:
        """Approximation of the domain D: non-H_1 cells dilated by one cell."""
        inner = self.labels != 1
        out = inner.copy()
        out[1:, :] |= inner[:-1, :]
        out[:-1, :] |= inner[1:, :]
        out[:, 1:] |= inner[:, :-1]
        out[:, :-1] |= inner[:, 1:]
        return out


def classify_regions(sys: HarmonicSystem, box, resolution: int) -> RegionGrid:
    """Label every grid cell by the branch achieving Psi at its center.

    ``box`` is (xmin, xmax, ymin, ymax); the grid has resolution x resolution
    cells.  Boundary cells (label different from a 4-neighbor, cut-barrier
    pairs excluded) make up the discrete singular set K.  The labels are
    computed in blocks of rows of about ``REGION_BLOCK_BYTES`` of complex
    cell centres each.
    """
    sys._require_closed("region classification")
    xmin, xmax, ymin, ymax = box
    if not (xmin < xmax and ymin < ymax):
        raise InvalidInputError(f"empty box {box}")
    res = int(resolution)
    if res < 2:
        raise InvalidInputError("resolution must be at least 2")
    xs, ys = RegionGrid.cell_centres(box, res)
    labels = np.ones((res, res), dtype=np.int16)
    rows = max(1, REGION_BLOCK_BYTES // (16 * res))
    branches = range(1, sys.num_branches + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        for r in range(0, res, rows):
            _label_block(sys._kernel(xs + 1j * ys[r:r + rows, None], branches),
                         labels[r:r + rows])
    return RegionGrid.from_labels(box, res, labels)


def _label_block(values, labels):
    """Label each cell of a block of rows, its labels all 1, by the 1-based
    index of the largest of the arrays ``values``, which are overwritten.  A
    strictly greater value wins, so ties keep the lower index, as with
    argmax; non-finite values count as -inf."""
    for i, h in enumerate(values, 1):
        if not np.isfinite(h.sum()):
            h[~np.isfinite(h)] = -np.inf
        if i == 1:
            best = h
        else:
            labels[h > best] = i
            np.maximum(best, h, out=best)
