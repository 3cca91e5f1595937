import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from shearkit.dynamics import AutoSeq, ShearFlow
from shearkit.errors import RegimeMismatch
from shearkit.fields import flow_nilpotent, parse_vector_field
from shearkit.poly import parse_poly
from shearkit.scalars import Scalar

rationals = st.fractions(
    min_value=Fraction(-8), max_value=Fraction(8), max_denominator=6
)
exact_scalars = st.builds(Scalar.exact, rationals, rationals)


def test_exact_arithmetic_is_error_free():
    a = Scalar.exact(Fraction(1, 3), 2)
    b = Scalar.exact(Fraction(-2, 7), Fraction(5, 2))
    assert (a + b).re == Fraction(1, 3) - Fraction(2, 7)
    assert (a - b).im == 2 - Fraction(5, 2)
    prod = a * b
    # (1/3 + 2i)(-2/7 + 5/2 i) = (1/3 * -2/7 - 2 * 5/2) + (1/3 * 5/2 + 2 * -2/7) i
    assert prod.re == Fraction(1, 3) * Fraction(-2, 7) - 2 * Fraction(5, 2)
    assert prod.im == Fraction(1, 3) * Fraction(5, 2) + 2 * Fraction(-2, 7)


def test_division_inverts_multiplication():
    a = Scalar.exact(Fraction(3, 4), Fraction(-1, 2))
    b = Scalar.exact(2, 5)
    assert (a * b) / b == a
    assert (a / b) * b == a


def test_fractions_stay_reduced_with_positive_denominator():
    s = Scalar.exact(Fraction(2, 4), Fraction(-3, -9))
    assert s.re == Fraction(1, 2) and s.re.denominator == 2
    assert s.im == Fraction(1, 3) and s.im.denominator == 3


def test_powers_including_negative():
    lam = Scalar.exact(2)
    assert lam**3 == Scalar.exact(8)
    assert lam**-1 == Scalar.exact(Fraction(1, 2))
    assert lam**0 == Scalar.exact(1)


@settings(max_examples=60, deadline=None)
@given(a=exact_scalars, b=exact_scalars, c=exact_scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: Scalar(0.5), TypeError),
        (lambda: Scalar(Fraction(1, 2), 0.25), TypeError),
        (lambda: Scalar.exact(0.5), RegimeMismatch),
        (lambda: flow_nilpotent(parse_vector_field("[x2; 0]"), 0.5), RegimeMismatch),
        (
            lambda: AutoSeq(2, (ShearFlow(0, parse_poly("x2", 2), 0.5),)).apply_exact(
                (Scalar.exact(1), Scalar.exact(2))
            ),
            RegimeMismatch,
        ),
    ],
    ids=["float-part", "mixed-parts", "exact-float", "flow-time", "apply-exact-time"],
)
def test_floats_are_rejected_at_exact_entry_points(make, error):
    with pytest.raises(error):
        make()


def test_equality():
    assert Scalar.exact(1, 2) == Scalar.exact(1, 2)
    assert not Scalar.exact(0).__bool__()


# -- the canonical (a + b i)/d triple against a Fraction-pair reference model --

_BIG = 2**80
wide_rationals = st.one_of(
    rationals,
    st.builds(
        Fraction,
        st.integers(min_value=-_BIG, max_value=_BIG),
        st.integers(min_value=1, max_value=_BIG),
    ),
)
wide_scalars = st.builds(Scalar.exact, wide_rationals, wide_rationals)
# a small value set, so that equal scalars built independently are common
tiny_rationals = st.sampled_from(
    [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2, 4), Fraction(-3, 6)]
)
tiny_scalars = st.builds(Scalar.exact, tiny_rationals, tiny_rationals)
plain_numbers = st.one_of(st.integers(min_value=-(2**70), max_value=2**70), wide_rationals)


def _model(s):
    return (s.re, s.im)


def _model_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _model_div(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm)


def _assert_canonical(s):
    assert type(s.a) is int and type(s.b) is int and type(s.d) is int
    assert s.d > 0
    assert math.gcd(s.a, s.b, s.d) == 1


@settings(max_examples=150, deadline=None)
@given(x=wide_scalars, y=wide_scalars, k=st.integers(min_value=-3, max_value=3))
def test_operations_match_the_fraction_pair_model(x, y, k):
    mx, my = _model(x), _model(y)
    results = [
        (x + y, (mx[0] + my[0], mx[1] + my[1])),
        (x - y, (mx[0] - my[0], mx[1] - my[1])),
        (x * y, _model_mul(mx, my)),
        (-x, (-mx[0], -mx[1])),
    ]
    if not y.is_zero():
        results.append((x / y, _model_div(mx, my)))
    if k >= 0 or not x.is_zero():
        expected = (Fraction(1), Fraction(0))
        for _ in range(abs(k)):
            expected = _model_mul(expected, mx)
        if k < 0:
            expected = _model_div((Fraction(1), Fraction(0)), expected)
        results.append((x**k, expected))
    for value, expected in results:
        _assert_canonical(value)
        assert _model(value) == expected


@settings(max_examples=150, deadline=None)
@given(x=wide_scalars, k=plain_numbers)
def test_mixed_int_and_fraction_operands(x, k):
    mx, mk = _model(x), (Fraction(k), Fraction(0))
    results = [
        (x + k, (mx[0] + mk[0], mx[1])),
        (k + x, (mx[0] + mk[0], mx[1])),
        (x - k, (mx[0] - mk[0], mx[1])),
        (k - x, (mk[0] - mx[0], -mx[1])),
        (x * k, _model_mul(mx, mk)),
        (k * x, _model_mul(mk, mx)),
    ]
    if k != 0:
        results.append((x / k, _model_div(mx, mk)))
    if not x.is_zero():
        results.append((k / x, _model_div(mk, mx)))
    for value, expected in results:
        _assert_canonical(value)
        assert _model(value) == expected


def test_division_by_zero_keeps_its_message():
    for zero in (Scalar.exact(0), 0, Fraction(0)):
        with pytest.raises(ZeroDivisionError, match="scalar division by zero"):
            Scalar.exact(1, 2) / zero


@settings(max_examples=200, deadline=None)
@given(x=tiny_scalars, y=tiny_scalars)
def test_equality_is_model_equality_with_equal_hashes(x, y):
    assert (x == y) == (_model(x) == _model(y))
    if x == y:
        assert hash(x) == hash(y)
    # an equal value reached through arithmetic has the same triple
    z = (x + y) - y
    assert z == x and hash(z) == hash(x)


@settings(max_examples=200, deadline=None)
@given(x=wide_scalars)
def test_to_complex_is_bit_identical_to_float_of_the_parts(x):
    expected = complex(float(x.re), float(x.im))
    got = x.to_complex()
    assert struct.pack("<dd", got.real, got.imag) == struct.pack(
        "<dd", expected.real, expected.imag
    )


def test_to_complex_with_parts_above_two_to_the_sixty():
    x = Scalar.exact(Fraction(2**61 + 1, 3**40), Fraction(-(2**67) - 5, 2**63 + 7))
    assert x.d > 2**60
    expected = complex(float(x.re), float(x.im))
    got = x.to_complex()
    assert struct.pack("<dd", got.real, got.imag) == struct.pack(
        "<dd", expected.real, expected.imag
    )
