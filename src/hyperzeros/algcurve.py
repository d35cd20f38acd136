"""The limiting algebraic curve of the Cauchy transform.

For a schedule with slopes alpha_1..alpha_A (numerator) and beta_1..beta_B
(denominator), the limit transform w(z) satisfies

    A(z, w) = prod_i (z w + alpha_i) - w prod_j (z w + beta_j) = 0,

kept both in structured form M(u) - w N(u) with u = z w (M, N univariate
with elementary-symmetric coefficients) and fully expanded.  When the
denominator slopes repeat the numerator ones (beta_i = alpha_{i+1}) the
curve splits into rational branches w = 1/(z-1) and w = -alpha_i/z, which
this module certifies by exact substitution.  For any other schedule the
branch points are the zeros of the exact w-discriminant, the Sylvester
resultant of A and dA/dw, whose determinant runs on Gaussian-integer
polynomials (``exact``) and comes back as exact complex rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .errors import InvalidInputError
from .exact import (
    ONE,
    ZERO,
    ComplexRational,
    gauss_poly_divexact,
    gauss_poly_from,
    gauss_poly_mul_sub,
    poly_add,
    poly_eval,
    poly_from_roots,
    poly_is_zero,
    poly_mul,
    poly_pow,
    poly_scale,
    poly_trim,
)
from .hyppoly import ParameterSchedule
from .rootfinding import checked_precision, solve_all_roots, to_big_complex


def w_coefficients(m_coeffs, n_coeffs, z):
    """Coefficients in w of A(z, w) = M(zw) - w N(zw): m_k z^k - n_(k-1) z^(k-1).

    Works in whatever arithmetic ``z`` and the coefficient lists carry:
    exact, mpmath or Python complex.  Each entry starts from 0, as a
    zero-initialised accumulator would, so a -0.0 component of a float
    product comes out as +0.0.
    """
    powers = [z ** k for k in range(len(m_coeffs))]
    out = []
    for k, m in enumerate(m_coeffs):
        c = 0 + m * powers[k]
        if k:
            c = c - n_coeffs[k - 1] * powers[k - 1]
        out.append(c)
    return out


@dataclass(frozen=True)
class BivariateCurve:
    """A(z, w) in structured and expanded form.

    ``m_coeffs``/``n_coeffs`` are the univariate coefficients of M and N in
    u = z w.  ``terms`` maps (j, k) -> exact coefficient of z^j w^k.
    """

    alphas: tuple
    betas: tuple
    m_coeffs: tuple
    n_coeffs: tuple
    terms: dict

    @property
    def degree_w(self) -> int:
        return len(self.alphas)

    def evaluate(self, z, w):
        """A(z, w) for exact arguments."""
        total = ZERO
        for (j, k), a in self.terms.items():
            total = total + a * (z ** j) * (w ** k)
        return total

    def evaluate_structured(self, z, w):
        """M(zw) - w N(zw), the structured route (used to cross-check terms)."""
        u = z * w
        return poly_eval(self.m_coeffs, u) - w * poly_eval(self.n_coeffs, u)


def build_curve(schedule: ParameterSchedule) -> BivariateCurve:
    """Expand A(z, w) exactly from the schedule slopes.

    Requires A = B + 1 (built into the schedule) and all alpha_i nonzero;
    a zero slope degenerates the pencil and is rejected.
    """
    for i, al in enumerate(schedule.alphas, start=1):
        if not al:
            raise InvalidInputError(f"alpha_{i} = 0: degenerate pencil, no limit curve")
    # M(u) = prod (u + alpha_i) and N(u) = prod (u + beta_j)
    m = poly_from_roots([-a for a in schedule.alphas])
    n = poly_from_roots([-b for b in schedule.betas])
    terms = {}
    for k, c in enumerate(m):
        if c:
            terms[(k, k)] = terms.get((k, k), ZERO) + c
    for k, c in enumerate(n):
        if c:
            terms[(k, k + 1)] = terms.get((k, k + 1), ZERO) - c
    terms = {jk: c for jk, c in terms.items() if c}
    return BivariateCurve(
        alphas=schedule.alphas,
        betas=schedule.betas,
        m_coeffs=tuple(m),
        n_coeffs=tuple(n),
        terms=terms,
    )


def branches_at(curve: BivariateCurve, z, precision_bits: int = 128):
    """The A roots in w of A(z, .), sorted lexicographically by (re, im).

    z must avoid 0 (all terms carry z w, the equation degenerates) and
    should avoid 1 and branch points (there the returned list contains
    coinciding values).  A precision below 1 bit raises InvalidInputError.
    """
    wp = checked_precision(precision_bits) + 32
    with mp.workprec(wp):
        zz = mp.mpc(z)
        if abs(zz) < mp.mpf(2) ** (-precision_bits // 2):
            raise InvalidInputError(
                "branches_at rejected z = 0: the leading w-coefficient z^B (z-1) "
                "vanishes and the curve degenerates there"
            )
        coeffs = w_coefficients(
            [to_big_complex(c, wp) for c in curve.m_coeffs],
            [to_big_complex(c, wp) for c in curve.n_coeffs],
            zz,
        )
        if not coeffs[-1]:
            raise InvalidInputError(
                f"leading w-coefficient of A({z}, .) vanishes (z in {{0, 1}}?)"
            )
        roots, _, _, _, _ = solve_all_roots(coeffs, precision_bits)
        return roots


@dataclass(frozen=True)
class BranchPointSet:
    """Zeros of the w-discriminant of A(z, .), excluding the singular z in {0, 1}."""

    points: tuple
    degenerate: bool
    exact_points: tuple
    residual_bounds: tuple
    excluded_singular: tuple


def _sylvester_determinant(rows):
    """Fraction-free (Bareiss) determinant of a matrix of exact polynomials.

    Each row is scaled by the lcm of its entries' denominators, so the
    elimination runs on Gaussian-integer polynomials, where every division
    by the previous pivot is exact; the product of the row scales is divided
    out once at the end.  Returns the trimmed ComplexRational polynomial,
    [] for a singular matrix.
    """
    m = []
    scale = 1
    for row in rows:
        s = math.lcm(*(d for e in row for c in e for d in (c.re.denominator, c.im.denominator)))
        scale *= s
        m.append([gauss_poly_from(e, s) for e in row])
    size = len(m)
    prev = [(1, 0)]
    for k in range(size - 1):
        if not m[k][k]:
            swap = next((r for r in range(k + 1, size) if m[r][k]), None)
            if swap is None:
                return []
            m[k], m[swap] = m[swap], m[k]
            # a row swap flips the sign of the determinant
            m[k] = [[(-a, -b) for a, b in e] for e in m[k]]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = gauss_poly_mul_sub(m[k][k], m[i][j], m[i][k], m[k][j])
                m[i][j] = gauss_poly_divexact(num, prev) if prev != [(1, 0)] else num
            m[i][k] = []
        prev = m[k][k]
    return [ComplexRational(Fraction(a, scale), Fraction(b, scale))
            for a, b in m[size - 1][size - 1]]


def discriminant_z(curve: BivariateCurve):
    """Resultant_w(A, dA/dw) as an exact univariate polynomial in z."""
    A = curve.degree_w
    # w-coefficients of A and dA/dw, as polynomials in z
    p = [poly_trim([curve.terms.get((j, k), ZERO) for j in range(A + 1)]) for k in range(A + 1)]
    q = [poly_scale(p[k], ComplexRational(k)) for k in range(1, A + 1)]
    dp = A
    dq = A - 1
    size = dp + dq
    rows = []
    for r in range(dq):
        row = [[] for _ in range(size)]
        for k in range(dp + 1):
            row[r + k] = list(p[dp - k])
        rows.append(row)
    for r in range(dp):
        row = [[] for _ in range(size)]
        for k in range(dq + 1):
            row[r + k] = list(q[dq - k])
        rows.append(row)
    return _sylvester_determinant(rows)


def branch_points(curve: BivariateCurve, schedule: ParameterSchedule,
                  precision_bits: int = 128) -> BranchPointSet:
    """Points where branches collide.

    Degenerate case: exactly p_i = alpha_i / (alpha_i + 1) (the collisions of
    branch i with branch 1; collisions among the rational branches i, j >= 2
    are z-independent and excluded for distinct slopes).  General case: the
    zeros of the w-discriminant, found at high precision and certified by
    residual.  z in {0, 1} is excluded as singular, not branching.
    """
    if schedule.is_degenerate:
        exact = []
        for i, al in enumerate(schedule.alphas[1:], start=2):
            if al == ComplexRational(-1):
                raise InvalidInputError(f"alpha_{i} = -1 puts the branch point at infinity")
            exact.append(al / (al + 1))
        seen = []
        for p in exact:
            if p not in seen:
                seen.append(p)
        pts = tuple(to_big_complex(p, precision_bits) for p in seen)
        return BranchPointSet(
            points=pts,
            degenerate=True,
            exact_points=tuple(seen),
            residual_bounds=tuple(mp.mpf(0) for _ in seen),
            excluded_singular=(),
        )
    disc = discriminant_z(curve)
    if not disc:
        raise InvalidInputError("discriminant vanishes identically: curve is non-reduced")
    if len(disc) == 1:
        return BranchPointSet((), False, (), (), ())
    roots, residuals, _, prec, _ = solve_all_roots(
        [to_big_complex(c, precision_bits + 64) for c in disc], precision_bits
    )
    guard = mp.mpf(2) ** (-precision_bits // 2)
    kept = []
    kept_res = []
    excluded = []
    with mp.workprec(precision_bits):
        for r, res in zip(roots, residuals):
            if abs(r) < guard or abs(r - 1) < guard:
                excluded.append(mp.mpc(r))
            else:
                kept.append(mp.mpc(r))
                kept_res.append(res)
    return BranchPointSet(
        points=tuple(kept),
        degenerate=False,
        exact_points=(),
        residual_bounds=tuple(kept_res),
        excluded_singular=tuple(excluded),
    )


@dataclass(frozen=True)
class RationalBranchReport:
    """Exact residuals of the rational branches substituted into A(z, w)."""

    branch_names: tuple
    residual_polys: tuple

    @property
    def all_vanish(self) -> bool:
        return all(poly_is_zero(r) for r in self.residual_polys)


def verify_rational_branches(schedule: ParameterSchedule) -> RationalBranchReport:
    """Substitute w = 1/(z-1) and w = -alpha_i/z into A(z, w) symbolically.

    The substitution is done as rational functions: with w = P/Q the
    cleared numerator sum_{j,k} a_{jk} z^j P^k Q^(A-k) must vanish
    identically.  Requires the degenerate slope pattern; exact vanishing is
    certified coefficient by coefficient.
    """
    if not schedule.is_degenerate:
        raise InvalidInputError(
            "verify_rational_branches requires beta_i = alpha_{i+1} for all i "
            f"(betas={[str(b) for b in schedule.betas]}, "
            f"alphas={[str(a) for a in schedule.alphas]})"
        )
    curve = build_curve(schedule)
    A = curve.degree_w
    substitutions = [("w = 1/(z-1)", [ONE], [ComplexRational(-1), ONE])]
    for i, al in enumerate(schedule.alphas[1:], start=2):
        substitutions.append((f"w = -alpha_{i}/z", [-al], [ZERO, ONE]))
    names = []
    residuals = []
    for name, P, Q in substitutions:
        total = []
        for (j, k), a in sorted(curve.terms.items()):
            term = poly_scale(
                poly_mul(
                    poly_mul([ZERO] * j + [ONE], poly_pow(P, k)),
                    poly_pow(Q, A - k),
                ),
                a,
            )
            total = poly_add(total, term)
        names.append(name)
        residuals.append(tuple(total))
    return RationalBranchReport(tuple(names), tuple(residuals))
