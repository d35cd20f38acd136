from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperzeros.errors import InvalidInputError
from hyperzeros.exact import (
    ComplexRational,
    format_complex_rational,
    gauss_poly_divexact,
    gauss_poly_from,
    gauss_poly_mul_sub,
    parse_complex_rational,
    poly_add,
    poly_divexact,
    poly_eval,
    poly_from_roots,
    poly_is_zero,
    poly_mul,
    poly_sub,
)

CR = ComplexRational


def test_basic_arithmetic_exact():
    a = CR(Fraction(1, 3), Fraction(-2, 7))
    b = CR(Fraction(5, 11), Fraction(4, 9))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * 0 == CR(0)
    assert -(-a) == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        CR(1) / CR(0)


def test_mixed_coercion():
    a = CR(Fraction(1, 2), 1)
    assert a + 1 == CR(Fraction(3, 2), 1)
    assert 2 * a == CR(1, 2)
    assert 1 / CR(0, 1) == CR(0, -1)


def test_powers():
    i = CR(0, 1)
    assert i ** 2 == CR(-1)
    assert i ** 0 == CR(1)
    assert (CR(2) ** 10) == CR(1024)


rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, rationals, rationals, rationals)
def test_mul_div_roundtrip(ar, ai, br, bi):
    a = CR(ar, ai)
    b = CR(br, bi)
    if not b:
        return
    assert (a * b) / b == a
    assert (a / b) * b == a


@given(rationals, rationals)
def test_text_roundtrip(re, im):
    x = CR(re, im)
    assert parse_complex_rational(format_complex_rational(x)) == x


def test_parse_forms():
    assert parse_complex_rational("1/2+3/4*i") == CR(Fraction(1, 2), Fraction(3, 4))
    assert parse_complex_rational("-1/2-3/4*i") == CR(Fraction(-1, 2), Fraction(-3, 4))
    assert parse_complex_rational("-3") == CR(-3)
    assert parse_complex_rational("-2/5*i") == CR(0, Fraction(-2, 5))
    with pytest.raises(InvalidInputError):
        parse_complex_rational("1.5+2i")


@pytest.mark.parametrize("text", ["1/0", "0/1+1/0*i", "3/0*i", "-2/0-1/1*i"])
def test_parse_zero_denominator(text):
    # a zero denominator is invalid input, not an arithmetic fault
    with pytest.raises(InvalidInputError, match="zero denominator"):
        parse_complex_rational(text)


def test_poly_helpers():
    p = [CR(1), CR(2), CR(1)]  # (1+z)^2
    q = [CR(1), CR(1)]
    assert poly_mul(q, q) == p
    assert poly_divexact(p, q) == q
    assert poly_is_zero(poly_sub(p, p))
    assert poly_eval(p, CR(2)) == CR(9)
    assert poly_add(p, [CR(-1)])[0] == CR(0)


def test_poly_divexact_rejects_inexact():
    with pytest.raises(ArithmeticError):
        poly_divexact([CR(1), CR(1)], [CR(1), CR(2)])


def test_poly_from_roots():
    p = poly_from_roots([CR(1), CR(-1)])
    assert p == [CR(-1), CR(0), CR(1)]


def test_gauss_poly_from_scales_and_trims():
    p = [CR(Fraction(1, 2), Fraction(-1, 3)), CR(2), CR(0)]
    assert gauss_poly_from(p, 6) == [(3, -2), (12, 0)]
    assert gauss_poly_from([CR(0)], 1) == []


gauss_polys = st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), max_size=4).map(
    lambda p: gauss_poly_from([CR(a, b) for a, b in p], 1))


@given(gauss_polys, gauss_polys, gauss_polys, gauss_polys)
def test_gauss_mul_sub_and_divexact(a, b, c, d):
    prod = gauss_poly_mul_sub(a, b, c, d)
    to_cr = lambda p: [CR(x, y) for x, y in p]
    assert to_cr(prod) == poly_sub(poly_mul(to_cr(a), to_cr(b)), poly_mul(to_cr(c), to_cr(d)))
    if b:
        assert gauss_poly_divexact(gauss_poly_mul_sub(a, b, [], []), b) == a


def test_gauss_poly_divexact_rejects_inexact():
    # a quotient coefficient outside the Gaussian integers: (1 + z) / (1 + 2z)
    with pytest.raises(ArithmeticError):
        gauss_poly_divexact([(1, 0), (1, 0)], [(1, 0), (2, 0)])
    # Gaussian-integer quotient z - 1 with remainder 2: (z^2 + 1) / (z + 1)
    with pytest.raises(ArithmeticError):
        gauss_poly_divexact([(1, 0), (0, 0), (1, 0)], [(1, 0), (1, 0)])
    # (1 + i) / 2 is not a Gaussian integer
    with pytest.raises(ArithmeticError):
        gauss_poly_divexact([(1, 1)], [(2, 0)])
    assert gauss_poly_divexact([(2, 2)], [(1, 1)]) == [(2, 0)]
