import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shearkit.errors import ArityMismatch, ParseError
from shearkit.poly import (
    MonomialBasis,
    Poly,
    _scalar_sign_body,
    _trusted_poly,
    format_poly,
    parse_poly,
)
from shearkit.scalars import Scalar

from conftest import (
    gaussian_rationals,
    model_eval_complex,
    model_scalar_sign_body,
    random_exact_poly,
)


def P(text, n):
    return parse_poly(text, n)


class TestParsing:
    def test_two_term_example(self):
        p = P("x1^2*x2 - (1/2)*x3", 3)
        assert len(p.terms) == 2
        assert p.degree == 3
        assert p.coefficient((2, 1, 0)) == Scalar.exact(1)
        assert p.coefficient((0, 0, 1)) == Scalar.exact(Fraction(-1, 2))

    def test_zero(self):
        p = P("0", 2)
        assert p.is_zero()
        assert p.degree == -1

    def test_gaussian_coefficient(self):
        p = P("(3+2i)*x2", 2)
        assert len(p.terms) == 1
        assert p.coefficient((0, 1)) == Scalar.exact(3, 2)

    def test_imaginary_literals(self):
        assert P("2i", 1).constant_term() == Scalar.exact(0, 2)
        assert P("1/2i", 1).constant_term() == Scalar.exact(0, Fraction(1, 2))
        assert P("i", 1).constant_term() == Scalar.exact(0, 1)
        assert P("-i*x1", 1).coefficient((1,)) == Scalar.exact(0, -1)

    def test_whitespace_insensitive(self):
        assert P(" 3 * x1 ^ 2 - 1 / 2 ", 2) == P("3*x1^2-1/2", 2)

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as info:
            P("x1 + @", 2)
        assert info.value.position == 5

    def test_variable_out_of_range(self):
        with pytest.raises(ParseError) as info:
            P("x3", 2)
        assert "x3" in str(info.value)

    def test_unbalanced_parenthesis(self):
        with pytest.raises(ParseError):
            P("(x1 + 1", 2)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            P("x1^-2", 2)

    def test_zero_denominator_is_a_parse_error(self):
        with pytest.raises(ParseError):
            P("1/0", 2)
        with pytest.raises(ParseError):
            P("1 / 0", 2)

    @pytest.mark.parametrize(
        "text, exp, re, im",
        [
            ("3", (0,), Fraction(3), Fraction(0)),
            ("3/6", (0,), Fraction(1, 2), Fraction(0)),
            # a spaced "p / q" divides exactly: two ints must not give a float
            ("1 / 2", (0,), Fraction(1, 2), Fraction(0)),
            ("1/2 / 3", (0,), Fraction(1, 6), Fraction(0)),
            ("2i", (0,), Fraction(0), Fraction(2)),
            ("x1^2", (2,), Fraction(1), Fraction(0)),
            ("x1^6", (6,), Fraction(1), Fraction(0)),
            ("(1/2)*x1^6", (6,), Fraction(1, 2), Fraction(0)),
        ],
    )
    def test_literals_give_the_scalars_of_a_fraction_model(self, text, exp, re, im):
        coeff = P(text, 1).coefficient(exp)
        model = Scalar.exact(re, im)
        assert (coeff.a, coeff.b, coeff.d) == (model.a, model.b, model.d)
        assert {type(coeff.a), type(coeff.b), type(coeff.d)} == {int}

    def test_fractional_exponent_rejected(self):
        # "6/2" after "^" is a rational literal, not the exponent 3, so it fails like "2/3"
        for text in ("x1^2/3", "x1^6/2", "x1^4/2*x1", "x1/2", "x1^6 / 2"):
            with pytest.raises(ParseError):
                P(text, 1)

    # str.isdigit passes superscripts, which int() refuses, and other scripts' digits,
    # which int() reads as 0-9: only ASCII digits may form a number or an index
    @pytest.mark.parametrize(
        "text, position",
        [("x\u00b2", 0), ("x1^\u00b2", 3), ("1/\u00b2", 2), ("12\u00b2", 2),
         ("\u0663*x1", 0), ("x\u0661", 0), ("x1^\u0662", 3), ("1/\u0662", 2)],
    )
    def test_non_ascii_digits_are_a_parse_error(self, text, position):
        with pytest.raises(ParseError) as info:
            P(text, 2)
        assert info.value.position == position

    def test_implicit_multiplication_rejected(self):
        with pytest.raises(ParseError) as info:
            P("2x1", 2)
        assert "trailing" in str(info.value)


class TestFormatting:
    CORPUS = [
        "0",
        "1",
        "-1/2",
        "x1",
        "-x1 + 1",
        "3*x1^2*x2 - (1/2+2i)*x3",
        "x1^2 - x2^2",
        "2i*x1 + (1-i)*x2",
        "x1*x2*x3 + 5",
        "-2/3*x2^4 + x1*x2 - i",
    ]

    @pytest.mark.parametrize("text", CORPUS)
    def test_format_parse_is_identity_on_canonical_corpus(self, text):
        n = 3
        assert format_poly(parse_poly(text, n)) == text

    def test_parse_format_round_trip_random(self, rng):
        for _ in range(60):
            p = random_exact_poly(rng, 3, 5)
            assert parse_poly(format_poly(p), 3) == p

    # integers (the direct path, big ones too), then rationals and Gaussian values
    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(-(10**40), 10**40).map(Scalar.exact),
            gaussian_rationals,
            st.builds(
                lambda a, b, d: Scalar.exact(Fraction(a, d), Fraction(b, d)),
                st.integers(-(10**20), 10**20),
                st.integers(-(10**20), 10**20),
                st.integers(1, 10**6),
            ),
        )
    )
    @example(Scalar.exact(0))
    @example(Scalar.exact(-1))
    @example(Scalar.exact(Fraction(4, 2)))
    @example(Scalar.exact(Fraction(-7, 3)))
    @example(Scalar.exact(0, -1))
    @example(Scalar.exact(-2, 1))
    def test_sign_body_matches_the_fraction_model(self, value):
        assert _scalar_sign_body(value) == model_scalar_sign_body(value)


class TestRingOperations:
    def test_difference_of_squares(self):
        n = 2
        lhs = (P("x1+x2", n)) * (P("x1-x2", n))
        assert lhs == P("x1^2-x2^2", n)

    def test_power_rule(self):
        p = P("x1^2*x2", 2)
        assert p.partial(0) == P("2*x1*x2", 2)

    def test_partial_kills_missing_variable(self):
        assert P("x2^3", 2).partial(0).is_zero()

    def test_ring_axioms_randomized(self, rng):
        for _ in range(40):
            a = random_exact_poly(rng, 2, 3)
            b = random_exact_poly(rng, 2, 3)
            c = random_exact_poly(rng, 2, 3)
            assert (a + b) + c == a + (b + c)
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_leibniz_rule(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        r = random.Random(seed)
        p = random_exact_poly(r, 3, 4)
        q = random_exact_poly(r, 3, 4)
        i = data.draw(st.integers(0, 2))
        assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            P("x1", 1) + P("x1", 2)


class TestEvaluation:
    def test_direct_substitution(self):
        p = P("x1^2*x2", 2)
        value = p.evaluate([Scalar.exact(2), Scalar.exact(3)])
        assert value == Scalar.exact(12)

    def test_constant_term_at_origin(self, rng):
        for _ in range(10):
            p = random_exact_poly(rng, 3, 4)
            origin = [Scalar.exact(0)] * 3
            assert p.evaluate(origin) == p.constant_term()

    def test_constructed_variety_point(self):
        # (t, 1/t) lies on x1*x2 = 1
        p = P("x1*x2 - 1", 2)
        point = [Scalar.exact(2), Scalar.exact(Fraction(1, 2))]
        assert p.evaluate(point).is_zero()

    def test_evaluation_is_multiplicative(self, rng):
        for _ in range(25):
            p = random_exact_poly(rng, 2, 3)
            q = random_exact_poly(rng, 2, 3)
            z = [Scalar.exact(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(2)]
            assert (p * q).evaluate(z) == p.evaluate(z) * q.evaluate(z)

    def test_eval_complex_matches_exact(self):
        p = P("x1^2 - 2i*x2", 2)
        exact = p.evaluate([Scalar.exact(1, 1), Scalar.exact(3)])
        numeric = p.eval_complex([1 + 1j, 3 + 0j])
        assert abs(exact.to_complex() - numeric) < 1e-12


# up to 1e100, so that a cube stays finite (a Python complex power raises
# OverflowError past the float range) while a product of cubes overflows
_part = st.floats(-1e100, 1e100, allow_subnormal=False) | st.sampled_from([0.0, -0.0, 1.0])
_value = st.builds(complex, _part, _part)


@st.composite
def _evaluation_cases(draw):
    """A polynomial with exponents 0-3 and coefficients that include exactly 1,
    and at least two points, evaluated as tuples and as an (nvars, k) batch."""
    nvars = draw(st.integers(1, 3))
    coeff = st.just(Scalar.exact(1)) | gaussian_rationals
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    poly = Poly(nvars, draw(st.dictionaries(exps, coeff, max_size=4)))
    points = draw(st.lists(st.tuples(*[_value] * nvars), min_size=2, max_size=5))
    return poly, points


def _same_where_finite(value, expected):
    value, expected = np.asarray(value), np.asarray(expected)
    finite = np.isfinite(expected)
    assert np.array_equal(np.isfinite(value), finite)
    assert np.array_equal(value[finite], expected[finite])


@settings(max_examples=300, deadline=None)
@given(_evaluation_cases())
def test_eval_complex_matches_the_model_where_finite(case):
    poly, points = case
    for point in points:
        _same_where_finite(poly.eval_complex(point), model_eval_complex(poly, point))
    batch = np.array(points, dtype=complex).T
    before = batch.tobytes()
    with np.errstate(all="ignore"):
        value = np.broadcast_to(poly.eval_complex(batch), len(points))
        assert batch.tobytes() == before
        _same_where_finite(value, np.broadcast_to(model_eval_complex(poly, batch), len(points)))
        # numpy rounds an in-place complex product on a length-1 array like
        # Python's unfused formula and every other product with its vector
        # loop, so the model's one-column value can differ in the last bit;
        # eval_complex multiplies out of place and rounds alike at every width
        column = np.broadcast_to(poly.eval_complex(batch[:, :1]), 1)
    _same_where_finite(column, value[:1])


def test_eval_complex_of_a_variable_is_its_row():
    batch = np.array([[1 + 2j, -0.5j], [3.0, 4 - 1j]])
    assert np.shares_memory(P("x2", 2).eval_complex(batch), batch)
    assert P("0", 2).eval_complex(batch) == 0j
    assert P("1", 2).eval_complex(batch) == 1 + 0j


def _same_bits(value, expected):
    assert type(value) is type(expected)
    assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()


@settings(max_examples=200, deadline=None)
@given(_evaluation_cases())
def test_eval_complex_does_not_depend_on_when_its_plan_was_built(case):
    poly, points = case
    batch = np.array(points, dtype=complex).T
    inputs = [batch, batch[:, :1], *points]
    builders = [lambda: Poly(poly.nvars, poly.terms),
                lambda: _trusted_poly(poly.nvars, dict(poly.terms))]
    with np.errstate(all="ignore"):
        # each evaluation as the first call of a copy whose plan is not built yet
        first = [build().eval_complex(point) for build in builders for point in inputs]
        for k, build in enumerate(builders):
            copy = build()
            fresh_key = build().key()
            values = [copy.eval_complex(point) for point in inputs]
            for value, expected in zip(values, first[k * len(inputs):]):
                _same_bits(value, expected)
            assert copy == build() and build() == copy and copy == poly
            assert copy.key() == fresh_key == poly.key()
            wide = np.broadcast_to(values[0], len(points))
            _same_where_finite(wide, np.broadcast_to(model_eval_complex(poly, batch), len(points)))
            # the one-column batch matches the wide batch, as in the model test above
            _same_where_finite(np.broadcast_to(values[1], 1), wide[:1])
            for value, point in zip(values[2:], points):
                _same_where_finite(value, model_eval_complex(poly, point))


def test_eval_complex_of_a_variable_is_its_row_on_a_second_call():
    batch = np.array([[1 + 2j, -0.5j], [3.0, 4 - 1j]])
    variable, zero, one = P("x2", 2), P("0", 2), P("1", 2)
    for _ in range(2):
        assert np.shares_memory(variable.eval_complex(batch), batch)
        assert zero.eval_complex(batch) == 0j
        assert one.eval_complex(batch) == 1 + 0j


class TestSubstitution:
    def test_binomial_expansion(self):
        p = P("x1^2", 2)
        image = p.substitute([P("x1+x2", 2), P("x2", 2)])
        assert image == P("x1^2+2*x1*x2+x2^2", 2)

    def test_identity_map(self, rng):
        identity = [P("x1", 3), P("x2", 3), P("x3", 3)]
        for _ in range(10):
            p = random_exact_poly(rng, 3, 4)
            assert p.substitute(identity) == p

    def test_unipotent_shear_substitution(self):
        p = P("x2", 2)
        assert p.substitute([P("x1", 2), P("x2 + x1^2", 2)]) == P("x2 + x1^2", 2)

    def test_degree_bound(self, rng):
        p = random_exact_poly(rng, 2, 3)
        comps = [random_exact_poly(rng, 2, 2) for _ in range(2)]
        image = p.substitute(comps)
        if not image.is_zero() and not p.is_zero():
            assert image.degree <= p.degree * max(1, max(c.degree for c in comps))


class TestMonomialBasis:
    @pytest.mark.parametrize("nvars,degree", [(1, 5), (2, 4), (3, 6), (4, 3)])
    def test_size_matches_binomial(self, nvars, degree):
        basis = MonomialBasis(nvars, degree)
        assert len(basis) == math.comb(nvars + degree, degree)

    def test_graded_lex_order(self):
        basis = MonomialBasis(2, 2)
        assert basis.exponents == (
            (0, 0),
            (0, 1),
            (1, 0),
            (0, 2),
            (1, 1),
            (2, 0),
        )

    def test_index_round_trip(self):
        basis = MonomialBasis(3, 4)
        for i, exp in enumerate(basis.exponents):
            assert basis.index_of(exp) == i


def test_zero_coefficients_are_never_stored(rng):
    p = P("x1 - x1", 2)
    assert p.terms == {}
    q = random_exact_poly(rng, 2, 3)
    cancel = q - q
    assert cancel.terms == {}
