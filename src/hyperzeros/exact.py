"""Exact complex-rational arithmetic and univariate polynomial helpers.

Everything in this module is exact: unbounded integers underneath, no
rounding anywhere.  All higher modules that claim zero-tolerance results
(operator annihilation, rational-branch residuals, resultants) reduce to
arithmetic here.  Polynomials come in two forms: lists of ComplexRational,
and lists of Gaussian integers as (re, im) int pairs, which skip the gcd
normalisation of every Fraction operation.  The discriminant's
fraction-free determinant runs on the second form.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction

from .errors import InvalidInputError

_NUMERIC = (int, Fraction)


class ComplexRational:
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("ComplexRational is immutable")

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ComplexRational):
            return other
        if isinstance(other, _NUMERIC):
            return ComplexRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return ComplexRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero ComplexRational")
        return ComplexRational(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return NotImplemented
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return f"ComplexRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_complex_rational(self)

    # -- queries ------------------------------------------------------------

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    @property
    def is_real(self):
        return self.im == 0

    def __complex__(self):
        return complex(self.re, self.im)


ZERO = ComplexRational(0)
ONE = ComplexRational(1)
MINUS_ONE = ComplexRational(-1)


def is_nonpositive_integer(x: ComplexRational) -> bool:
    return x.im == 0 and x.re.denominator == 1 and x.re <= 0


# -- text form "p/q+r/s*i" --------------------------------------------------

_CR_FULL = _re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)\s*(?P<sign>[+-])\s*(?P<im>\d+(?:/\d+)?)\s*\*\s*i\s*$"
)
_CR_REAL = _re.compile(r"^\s*(?P<re>[+-]?\d+(?:/\d+)?)\s*$")
_CR_IMAG = _re.compile(r"^\s*(?P<im>[+-]?\d+(?:/\d+)?)\s*\*\s*i\s*$")


def parse_complex_rational(text: str) -> ComplexRational:
    """Parse the exchange form ``p/q+r/s*i`` (also accepts ``p/q`` and ``r/s*i``).

    Raises InvalidInputError on any other text, a zero denominator included.
    """
    try:
        m = _CR_FULL.match(text)
        if m:
            im = Fraction(m.group("im"))
            if m.group("sign") == "-":
                im = -im
            return ComplexRational(Fraction(m.group("re")), im)
        m = _CR_REAL.match(text)
        if m:
            return ComplexRational(Fraction(m.group("re")))
        m = _CR_IMAG.match(text)
        if m:
            return ComplexRational(0, Fraction(m.group("im")))
    except ZeroDivisionError:
        raise InvalidInputError(f"zero denominator in complex rational {text!r}") from None
    raise InvalidInputError(f"cannot parse complex rational {text!r}")


def format_fraction(f: Fraction) -> str:
    """``num/den`` with the denominator written even when it is 1."""
    return f"{f.numerator}/{f.denominator}"


def format_complex_rational(x: ComplexRational) -> str:
    """Canonical exchange form with explicit positive denominators."""
    sign = "+" if x.im >= 0 else "-"
    return f"{format_fraction(x.re)}{sign}{format_fraction(abs(x.im))}*i"


# -- exact univariate polynomials -------------------------------------------
#
# A polynomial is a list of ComplexRational, index k = coefficient of z^k,
# trimmed so the last entry is nonzero (the zero polynomial is []).


def poly_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def poly_is_zero(p):
    return all(not c for c in p)


def poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else ZERO
        b = q[k] if k < len(q) else ZERO
        out.append(a + b)
    return poly_trim(out)


def poly_sub(p, q):
    return poly_add(p, [-c for c in q])


def poly_scale(p, c):
    if not c:
        return []
    return [ci * c for ci in p]


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return poly_trim(out)


def poly_pow(p, k):
    out = [ONE]
    for _ in range(k):
        out = poly_mul(out, p)
    return out


def poly_eval(p, z: ComplexRational) -> ComplexRational:
    out = ZERO
    for c in reversed(p):
        out = out * z + c
    return out


def poly_divexact(p, q):
    """Quotient p / q when the division is exact; raises otherwise.

    The ComplexRational counterpart of ``gauss_poly_divexact``.
    """
    p = poly_trim(p)
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return []
    out = [ZERO] * (len(p) - len(q) + 1)
    rem = list(p)
    lead = q[-1]
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(q) - 1] / lead
        out[k] = c
        if c:
            for j, b in enumerate(q):
                rem[k + j] = rem[k + j] - c * b
    if not poly_is_zero(rem):
        raise ArithmeticError("polynomial division was not exact")
    return poly_trim(out)


def poly_from_roots(roots):
    out = [ONE]
    for r in roots:
        out = poly_mul(out, [-r, ONE])
    return out


# -- Gaussian-integer polynomials -------------------------------------------
#
# A list of (re, im) int pairs, index k = coefficient of z^k, trimmed like
# the ComplexRational form.


def gauss_poly_from(p, scale):
    """The trimmed Gaussian-integer polynomial scale * p, for a
    ComplexRational list ``p`` whose denominators all divide ``scale``."""
    return gauss_poly_trim([(c.re.numerator * (scale // c.re.denominator),
                             c.im.numerator * (scale // c.im.denominator)) for c in p])


def gauss_poly_trim(p):
    while p and p[-1] == (0, 0):
        p.pop()
    return p


def gauss_poly_mul_sub(a, b, c, d):
    """a b - c d for Gaussian-integer polynomials, trimmed."""
    n = max(len(a) + len(b), len(c) + len(d)) - 1
    re = [0] * n
    im = [0] * n
    for i, (ar, ai) in enumerate(a):
        for j, (br, bi) in enumerate(b):
            re[i + j] += ar * br - ai * bi
            im[i + j] += ar * bi + ai * br
    for i, (cr, ci) in enumerate(c):
        for j, (dr, di) in enumerate(d):
            re[i + j] -= cr * dr - ci * di
            im[i + j] -= cr * di + ci * dr
    return gauss_poly_trim(list(zip(re, im)))


def gauss_poly_divexact(p, q):
    """Quotient p / q of Gaussian-integer polynomials when it is exact.

    Raises ArithmeticError when a coefficient of the quotient is not a
    Gaussian integer or the remainder is not zero, as ``poly_divexact``
    does for an inexact division.
    """
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    if not p:
        return []
    qr, qi = q[-1]
    norm = qr * qr + qi * qi
    rem_re = [c[0] for c in p]
    rem_im = [c[1] for c in p]
    out = [(0, 0)] * (len(p) - len(q) + 1)
    for k in range(len(out) - 1, -1, -1):
        pr, pi = rem_re[k + len(q) - 1], rem_im[k + len(q) - 1]
        # (pr + i pi) / (qr + i qi) = (pr + i pi)(qr - i qi) / norm
        cr, xr = divmod(pr * qr + pi * qi, norm)
        ci, xi = divmod(pi * qr - pr * qi, norm)
        if xr or xi:
            raise ArithmeticError("polynomial division was not exact")
        out[k] = (cr, ci)
        if cr or ci:
            for j, (br, bi) in enumerate(q):
                rem_re[k + j] -= cr * br - ci * bi
                rem_im[k + j] -= cr * bi + ci * br
    if any(rem_re) or any(rem_im):
        raise ArithmeticError("polynomial division was not exact")
    return gauss_poly_trim(out)
