"""Generalized hypergeometric polynomials with n-linear parameter schedules.

A schedule fixes slopes and offsets so that the numerator parameters are
a_i(n) = alpha_i * n + c_i and the denominator parameters are
b_j(n) = beta_j * n + d_j + 1.  The first slot is always a_1(n) = -n, which
truncates the series to a degree-n polynomial.  Construction and the
application of the defining differential operator are exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import DenominatorParameterError, InvalidInputError
from .exact import (
    MINUS_ONE,
    ONE,
    ZERO,
    ComplexRational,
    is_nonpositive_integer,
    poly_trim,
)


def _as_cr(x) -> ComplexRational:
    if isinstance(x, ComplexRational):
        return x
    if isinstance(x, (int, Fraction)):
        return ComplexRational(x)
    if isinstance(x, complex):
        if x.real != int(x.real) or x.imag != int(x.imag):
            raise InvalidInputError(
                f"float-valued parameter {x!r}: supply an exact rational instead"
            )
        return ComplexRational(int(x.real), int(x.imag))
    raise InvalidInputError(f"cannot interpret {x!r} as an exact complex rational")


def pochhammer(a: ComplexRational, k: int) -> ComplexRational:
    """Rising factorial a (a+1) ... (a+k-1); equals 1 for k = 0."""
    if k < 0:
        raise InvalidInputError("pochhammer requires k >= 0")
    a = _as_cr(a)
    out = ONE
    for m in range(k):
        out = out * (a + m)
    return out


@dataclass(frozen=True)
class ParameterSchedule:
    """Slopes and offsets of the n-linear parameter family.

    ``alphas``/``cs`` have length A (numerator side), ``betas``/``ds`` length
    B = A - 1.  The first numerator slot must encode a_1(n) = -n, i.e.
    alphas[0] = -1 and cs[0] = 0.
    """

    alphas: tuple
    cs: tuple
    betas: tuple
    ds: tuple

    def __init__(self, alphas: Sequence, cs: Sequence, betas: Sequence, ds: Sequence):
        object.__setattr__(self, "alphas", tuple(_as_cr(x) for x in alphas))
        object.__setattr__(self, "cs", tuple(_as_cr(x) for x in cs))
        object.__setattr__(self, "betas", tuple(_as_cr(x) for x in betas))
        object.__setattr__(self, "ds", tuple(_as_cr(x) for x in ds))
        if len(self.alphas) < 1:
            raise InvalidInputError("schedule needs at least one numerator slot")
        if len(self.alphas) != len(self.betas) + 1:
            raise InvalidInputError(
                f"need A = B + 1; got A = {len(self.alphas)}, B = {len(self.betas)}"
            )
        if len(self.cs) != len(self.alphas) or len(self.ds) != len(self.betas):
            raise InvalidInputError("offset lists must match slope lists in length")
        if self.alphas[0] != MINUS_ONE or self.cs[0] != ZERO:
            raise InvalidInputError(
                "first numerator slot must be -n (alphas[0] = -1, cs[0] = 0)"
            )

    @property
    def A(self) -> int:
        return len(self.alphas)

    @property
    def B(self) -> int:
        return len(self.betas)

    def numerator_params(self, n: int):
        """The instantiated a_i(n), i = 1..A."""
        return [a * n + c for a, c in zip(self.alphas, self.cs)]

    def denominator_params(self, n: int):
        """The instantiated b_j(n), j = 1..B."""
        return [b * n + d + 1 for b, d in zip(self.betas, self.ds)]

    def validate_at(self, n: int) -> None:
        """Reject denominator parameters that zero a Pochhammer factor.

        b_j(n) must not be a nonpositive integer >= -n, which would make a
        denominator factor vanish within the truncated range.
        """
        for j, b in enumerate(self.denominator_params(n), start=1):
            if is_nonpositive_integer(b) and b.re >= -n:
                raise DenominatorParameterError(j, b, n)

    @property
    def is_degenerate(self) -> bool:
        """True when beta_i = alpha_{i+1} for all i (rational-branch case)."""
        return all(b == a for b, a in zip(self.betas, self.alphas[1:]))

    # -- families used throughout the experiments ---------------------------

    @classmethod
    def loop_2f1(cls, alpha, offset=1):
        """2F1 family with a_2 = alpha n + offset, b_1 = alpha n + offset + 1."""
        alpha = _as_cr(alpha)
        offset = _as_cr(offset)
        return cls((MINUS_ONE, alpha), (ZERO, offset), (alpha,), (offset,))

    @classmethod
    def diagonal(cls, slopes):
        """Degenerate family with a_i = alpha_i n and b_i = alpha_i n + 1."""
        slopes = tuple(_as_cr(s) for s in slopes)
        return cls(
            (MINUS_ONE,) + slopes,
            (ZERO,) * (len(slopes) + 1),
            slopes,
            (ZERO,) * len(slopes),
        )


@dataclass(frozen=True)
class HypPolynomial:
    """A polynomial with exact complex-rational coefficients.

    ``coeffs[k]`` is the coefficient of z^k, trimmed to the true degree.
    ``n`` records the instantiation integer of the originating schedule
    (the true degree may be smaller if the series truncated early).
    """

    coeffs: tuple
    schedule: ParameterSchedule
    n: int

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> ComplexRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def is_zero(self) -> bool:
        return all(not c for c in self.coeffs)

    @classmethod
    def from_coefficients(cls, coeffs, schedule, n):
        coeffs = poly_trim([_as_cr(c) for c in coeffs])
        if not coeffs:
            coeffs = [ZERO]
        return cls(tuple(coeffs), schedule, n)


def build_polynomial(schedule: ParameterSchedule, n: int) -> HypPolynomial:
    """Construct the degree-n member of the family by the exact term recurrence.

    coeffs[k+1]/coeffs[k] = prod_j (a_j + k) / (prod_j (b_j + k) (k+1)).  The
    a_1 = -n factor truncates the series at k = n.  If another numerator
    parameter is a negative integer of smaller magnitude the polynomial
    truncates earlier; it is built at its true degree and a warning is issued
    because downstream normalization must use the true root count.
    """
    if n < 0:
        raise InvalidInputError("n must be a nonnegative integer")
    schedule.validate_at(n)
    a = schedule.numerator_params(n)
    b = schedule.denominator_params(n)
    coeffs = [ONE]
    term = ONE
    for k in range(n):
        for aj in a:
            term = term * (aj + k)
        for bj in b:
            term = term / (bj + k)
        term = term / (k + 1)
        coeffs.append(term)
    trimmed = poly_trim(coeffs)
    if not trimmed:
        trimmed = [ONE]
    if len(trimmed) - 1 < n:
        culprits = [
            (i, ai)
            for i, ai in enumerate(a[1:], start=2)
            if is_nonpositive_integer(ai) and -n < ai.re <= 0
        ]
        warnings.warn(
            f"series truncated early: degree {len(trimmed) - 1} < n = {n} "
            f"(numerator parameters {culprits} are small negative integers)",
            stacklevel=2,
        )
    return HypPolynomial(tuple(trimmed), schedule, n)


def series_coefficient(schedule: ParameterSchedule, n: int, k: int) -> ComplexRational:
    """Independent oracle: coefficient k as a ratio of Pochhammer products.

    Deliberately avoids the recurrence used by ``build_polynomial`` so the
    two code paths check each other.
    """
    a = schedule.numerator_params(n)
    b = schedule.denominator_params(n)
    num = ONE
    for aj in a:
        num = num * pochhammer(aj, k)
    den = ONE
    for bj in b:
        den = den * pochhammer(bj, k)
    fact = ONE
    for m in range(1, k + 1):
        fact = fact * m
    return num / (den * fact)


def apply_delta(coeffs):
    """The operator z d/dz on a coefficient list: z^k is an eigenvector with eigenvalue k."""
    return [c * k for k, c in enumerate(coeffs)]


def apply_hypergeometric_operator(p: HypPolynomial) -> HypPolynomial:
    """Apply the defining differential operator exactly, in the z d/dz basis.

    With D = z d/dz the operator is (1/z) D prod_j (D + b_j - 1) minus
    prod_i (D + a_i); on a monomial z^k the first part contributes
    k prod_j (k - 1 + b_j) z^(k-1) and the second prod_i (k + a_i) z^k.
    Members produced by ``build_polynomial`` are annihilated exactly.
    """
    a = p.schedule.numerator_params(p.n)
    b = p.schedule.denominator_params(p.n)
    deg = p.degree
    out = []
    for m in range(deg + 1):
        up = p.coefficient(m + 1) * (m + 1)
        for bj in b:
            up = up * (bj + m)
        down = p.coefficient(m)
        for aj in a:
            down = down * (aj + m)
        out.append(up - down)
    return HypPolynomial.from_coefficients(out, p.schedule, p.n)


def characteristic_roots(schedule: ParameterSchedule):
    """Exact roots of the characteristic product prod_i (1 + lambda alpha_i).

    The first slot gives lambda_1 = 1; the others lambda_i = -1/alpha_i.
    Rejects schedules with a zero slope (degenerate pencil).
    """
    for i, al in enumerate(schedule.alphas, start=1):
        if not al:
            raise InvalidInputError(f"alpha_{i} = 0: degenerate pencil has no characteristic roots")
    return [MINUS_ONE / al for al in schedule.alphas]


def is_general_type(schedule: ParameterSchedule):
    """Check the simple-roots condition; returns (flag, diagnostic).

    Requires (a) the alpha_i, i >= 2, pairwise distinct, (b) none equal to -1,
    and (c) no -alpha_i on the real interval (-inf, 1].
    """
    tail = schedule.alphas[1:]
    seen = {}
    for i, al in enumerate(tail, start=2):
        if al in seen:
            return False, f"repeated root: alpha_{seen[al]} = alpha_{i} = {al}"
        seen[al] = i
    for i, al in enumerate(tail, start=2):
        if al == MINUS_ONE:
            return False, f"alpha_{i} = -1 collides with the truncation slope"
    for i, al in enumerate(tail, start=2):
        neg = -al
        if neg.is_real and neg.re <= 1:
            return False, f"-alpha_{i} = {neg} lies in (-inf, 1]"
    return True, "general type"
