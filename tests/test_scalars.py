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
