import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shearkit.errors import PreconditionError
from shearkit.fields import (
    NilpotencyVerdict,
    PolyMap,
    VectorField,
    annihilation_order,
    flow_nilpotent,
    flow_semisimple,
    format_vector_field,
    kernel_basis,
    lie_bracket,
    nilpotency_report,
    parse_vector_field,
    pushforward,
)
from shearkit.poly import MonomialBasis, Poly, grlex_key, parse_poly
from shearkit.scalars import Scalar

from conftest import (
    bracket_by_definition,
    gaussian_rationals,
    model_apply,
    model_nullspace,
    numeric_bracket,
    random_exact_poly,
    random_field,
    random_triangular_field,
)


def F(text):
    return parse_vector_field(text)


def P(text, n):
    return parse_poly(text, n)


class TestBracketAndApply:
    def test_hand_expanded_bracket(self):
        # independent hand expansion: [x2 d1, x1 d2] = x2 d2 - x1 d1
        assert F("[x2; 0]").bracket(F("[0; x1]")) == F("[-x1; x2]")

    def test_antisymmetry_randomized(self, rng):
        for _ in range(15):
            v = random_field(rng, 2, 3)
            assert v.bracket(v).is_zero()
            w = random_field(rng, 2, 3)
            assert (v.bracket(w) + w.bracket(v)).is_zero()

    def test_bracket_difference_spans_shear_target(self):
        # [x2^2 d1, x1 d2] - [x1 x2^2 d1, d2] = x2^2 d2
        lhs = F("[x2^2; 0]").bracket(F("[0; x1]")) - F("[x1*x2^2; 0]").bracket(F("[0; 1]"))
        assert lhs == F("[0; x2^2]")

    def test_jacobi_identity_randomized(self, rng):
        for _ in range(8):
            u = random_field(rng, 2, 2)
            v = random_field(rng, 2, 2)
            w = random_field(rng, 2, 2)
            total = (
                u.bracket(v).bracket(w)
                + v.bracket(w).bracket(u)
                + w.bracket(u).bracket(v)
            )
            assert total.is_zero()

    def test_bracket_matches_finite_differences(self, rng):
        for _ in range(5):
            v = random_field(rng, 2, 3)
            w = random_field(rng, 2, 3)
            symbolic = v.bracket(w)
            z = (0.3 + 0.1j, -0.2 + 0.25j)
            numeric = numeric_bracket(v, w, z)
            for a, b in zip(symbolic.eval_complex(z), numeric):
                assert abs(a - b) < 1e-5

    def test_apply_examples(self):
        assert F("[1; 0]").apply(P("x1*x2", 2)) == P("x2", 2)
        assert F("[x2; 0]").apply(P("x1^2", 2)) == P("2*x1*x2", 2)
        assert F("[x2; x1]").apply(P("5", 2)).is_zero()

    def test_apply_is_a_derivation(self, rng):
        for _ in range(15):
            v = random_field(rng, 3, 2)
            f = random_exact_poly(rng, 3, 3)
            g = random_exact_poly(rng, 3, 3)
            assert v.apply(f * g) == v.apply(f) * g + f * v.apply(g)

    def test_apply_to_coordinates_gives_components(self, rng):
        for _ in range(10):
            v = random_field(rng, 3, 3)
            for i in range(3):
                assert v.apply(Poly.variable(3, i)) == v.components[i]


class TestNilpotency:
    def test_coordinate_derivation_orders(self):
        report = nilpotency_report(F("[1; 0]"))
        assert report.verdict is NilpotencyVerdict.NILPOTENT
        assert report.orders == (2, 1)

    def test_semisimple_is_not_nilpotent(self):
        report = nilpotency_report(F("[x1; 0]"), cap=10)
        assert report.verdict is NilpotencyVerdict.NOT_NILPOTENT_WITHIN_CAP

    def test_quadratic_shear(self):
        report = nilpotency_report(F("[x2^2; 0]"))
        assert report.is_nilpotent()
        assert report.orders == (2, 1)

    def test_triangular_fields_are_nilpotent(self, rng):
        for _ in range(10):
            v = random_triangular_field(rng, 3, 2)
            report = nilpotency_report(v)
            assert report.is_nilpotent()
            for i, order in enumerate(report.orders):
                iterate = Poly.variable(3, i)
                for _ in range(order):
                    iterate = v.apply(iterate)
                assert iterate.is_zero()
                assert v.apply(iterate).is_zero()

    def test_annihilation_order_on_functions(self):
        v = F("[x2; 0]")
        assert annihilation_order(v, P("x1", 2)) == 2
        assert annihilation_order(v, P("x1^2", 2)) == 3
        assert annihilation_order(F("[x1; 0]"), P("x1", 2), cap=6) is None


class TestKernelBasis:
    def test_coordinate_derivation_kernel(self):
        assert kernel_basis(F("[1; 0]"), 2) == [P("1", 2), P("x2", 2), P("x2^2", 2)]

    def test_weight_zero_kernel_of_diagonal_field(self):
        # weights (1, -1): kernel spanned by monomials with balanced exponents
        assert kernel_basis(F("[x1; -x2]"), 2) == [P("1", 2), P("x1*x2", 2)]

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_count_matches_closed_form(self, degree):
        basis = kernel_basis(parse_vector_field("[1; 0; 0]"), degree)
        assert len(basis) == math.comb(degree + 2, 2)

    def test_kernel_elements_are_annihilated(self, rng):
        for _ in range(5):
            v = random_triangular_field(rng, 3, 2)
            for b in kernel_basis(v, 2):
                assert v.apply(b).is_zero()


def _lifted(poly, nvars):
    terms = {exp + (0,): coeff for exp, coeff in poly.terms.items()}
    return Poly(nvars + 1, terms)


def _symbolic_time_flow(field, cap=30):
    """Independent oracle: flow components as polynomials in (x, t).

    Builds sum_k t^k/k! V^k(x_i) with t as an extra variable, using only
    repeated derivation application.
    """
    n = field.nvars
    components = []
    for i in range(n):
        term = Poly.variable(n, i)
        total = _lifted(term, n)
        k = 0
        while not term.is_zero():
            k += 1
            if k > cap:
                raise AssertionError("field not nilpotent at test cap")
            term = field.apply(term)
            t_power = [0] * n + [k]
            factor = Poly.monomial(
                n + 1, tuple(t_power), Scalar.exact(Fraction(1, math.factorial(k)))
            )
            total = total + _lifted(term, n) * factor
        components.append(total)
    return components


class TestFlows:
    def test_quadratic_shear_flow(self):
        flow = flow_nilpotent(F("[x2^2; 0]"), 1)
        assert flow.components == (P("x1 + x2^2", 2), P("x2", 2))
        assert flow.inverse.components == (P("x1 - x2^2", 2), P("x2", 2))

    def test_zero_time_is_identity(self, rng):
        v = random_triangular_field(rng, 3, 2)
        assert flow_nilpotent(v, 0) == PolyMap.identity(3)

    def test_one_parameter_group_law(self, rng):
        for _ in range(5):
            v = random_triangular_field(rng, 2, 2)
            s = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            t = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            left = flow_nilpotent(v, s).compose(flow_nilpotent(v, t))
            assert left == flow_nilpotent(v, s + t)

    def test_rejects_non_nilpotent(self):
        with pytest.raises(PreconditionError):
            flow_nilpotent(F("[x1; 0]"), 1)

    def test_exponential_formula_on_functions(self, rng):
        # f o exp(tV) = sum t^k/k! V^k(f), exactly
        for _ in range(5):
            v = random_triangular_field(rng, 3, 2)
            f = random_exact_poly(rng, 3, 3)
            t = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            flow = flow_nilpotent(v, t)
            series = Poly.zero(3)
            term = f
            k = 0
            while not term.is_zero():
                factor = Scalar.exact(t**k * Fraction(1, math.factorial(k)))
                series = series + term.scale(factor)
                term = v.apply(term)
                k += 1
            assert f.substitute(flow.components) == series

    def test_flow_matches_symbolic_time_series(self, rng):
        # dual route: build the series with t as an extra variable, then
        # specialize; also gives the exact d/dt at zero
        for _ in range(4):
            v = random_triangular_field(rng, 2, 2)
            symbolic = _symbolic_time_flow(v)
            t = Fraction(3, 7)
            flow = flow_nilpotent(v, t)
            specialize = [P("x1", 2), P("x2", 2), Poly.constant(2, Scalar.exact(t))]
            for i in range(2):
                assert symbolic[i].substitute(specialize) == flow.components[i]

    def test_time_derivative_at_zero_is_the_field(self, rng):
        for _ in range(4):
            v = random_triangular_field(rng, 3, 2)
            symbolic = _symbolic_time_flow(v)
            for i in range(3):
                linear_part = Poly(
                    3,
                    {
                        exp[:3]: coeff
                        for exp, coeff in symbolic[i].terms.items()
                        if exp[3] == 1
                    },
                )
                assert linear_part == v.components[i]


class TestSemisimpleFlow:
    def test_diagonal_action(self):
        flow = flow_semisimple([1, -1], Scalar.exact(2))
        assert flow.components == (P("2*x1", 2), P("1/2*x2", 2))

    def test_identity_at_one(self):
        assert flow_semisimple([3, 5], Scalar.exact(1)) == PolyMap.identity(2)

    def test_composition_multiplies_factors(self):
        a = flow_semisimple([1, -1], Scalar.exact(2))
        b = flow_semisimple([1, -1], Scalar.exact(3))
        assert a.compose(b) == flow_semisimple([1, -1], Scalar.exact(6))

    def test_zero_factor_rejected(self):
        with pytest.raises(PreconditionError):
            flow_semisimple([1], Scalar.exact(0))


class TestPolyMap:
    def test_with_inverse_verifies(self):
        with pytest.raises(PreconditionError):
            PolyMap.with_inverse(
                [P("x1 + x2^2", 2), P("x2", 2)],
                [P("x1 + x2^2", 2), P("x2", 2)],
            )

    def test_compose_evaluate(self):
        phi = PolyMap([P("x1 + x2", 2), P("x2", 2)])
        psi = PolyMap([P("x1", 2), P("x2 + 1", 2)])
        composed = phi.compose(psi)
        point = [Scalar.exact(1), Scalar.exact(2)]
        assert composed.evaluate(point) == phi.evaluate(psi.evaluate(point))


class TestPushforward:
    def test_identity_map(self, rng):
        v = random_field(rng, 2, 2)
        assert pushforward(v, PolyMap.identity(2)) == v

    def test_shear_commutes_with_translation_direction(self):
        phi = PolyMap.with_inverse(
            [P("x1 + x2^2", 2), P("x2", 2)],
            [P("x1 - x2^2", 2), P("x2", 2)],
        )
        assert pushforward(F("[1; 0]"), phi) == F("[1; 0]")

    def test_missing_inverse_rejected(self):
        phi = PolyMap([P("x1 + x2^2", 2), P("x2", 2)])
        with pytest.raises(PreconditionError):
            pushforward(F("[1; 0]"), phi)

    def test_naturality_on_brackets(self, rng):
        phi = flow_nilpotent(F("[x2^2; 0]"), Fraction(1, 2))
        for _ in range(5):
            v = random_field(rng, 2, 2)
            w = random_field(rng, 2, 2)
            assert pushforward(v.bracket(w), phi) == pushforward(v, phi).bracket(
                pushforward(w, phi)
            )

    def test_pushforward_conjugates_the_flow(self):
        # the defining property: the flow of the pushed field is the
        # conjugated flow, exactly
        v = F("[x2^2; 0]")
        phi = flow_nilpotent(F("[0; x1]"), 1)
        t = Fraction(2, 3)
        left = flow_nilpotent(pushforward(v, phi), t)
        right = phi.compose(flow_nilpotent(v, t)).compose(phi.inverse)
        assert left == right


def test_field_text_round_trip(rng):
    for _ in range(10):
        v = random_field(rng, 3, 3)
        assert parse_vector_field(format_vector_field(v)) == v


def test_lie_bracket_function_alias():
    assert lie_bracket(F("[x2; 0]"), F("[0; x1]")) == F("[-x1; x2]")


# ---------------------------------------------------------------------------
# The bracket kernel against the definition
# ---------------------------------------------------------------------------


def _polys(nvars):
    """Polynomials of degree <= 3 per variable with at most 4 terms; zero included."""
    return st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * nvars), gaussian_rationals, max_size=4
    ).map(lambda terms: Poly(nvars, terms))


def _fields(nvars):
    return st.lists(_polys(nvars), min_size=nvars, max_size=nvars).map(VectorField)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(_fields(n), _polys(n))))
@example((F("[1]"), P("x1^3", 1)))
@example((F("[x2; -x1]"), P("x1^2 + x2^2", 2)))  # the images cancel
@example((F("[0; (1+i)*x1]"), P("x1*x2^2 - i*x2", 2)))
@example((F("[x1; x2; x3]"), Poly.zero(3)))
@example((F("[0; 0]"), P("x1*x2", 2)))
def test_apply_matches_the_model(case):
    v, f = case
    image = v.apply(f)
    assert image == model_apply(v, f)
    assert image.nvars == v.nvars
    assert all(not coeff.is_zero() for coeff in image.terms.values())


@st.composite
def field_pairs(draw):
    """(v, w) in 1-3 variables; w is often v, -v or zero, where terms cancel."""
    nvars = draw(st.integers(1, 3))
    v = draw(_fields(nvars))
    kind = draw(st.sampled_from(["other", "same", "negated", "zero", "zero-first"]))
    if kind == "other":
        return v, draw(_fields(nvars))
    if kind == "same":
        return v, v
    if kind == "negated":
        return v, -v
    if kind == "zero":
        return v, VectorField.zero(nvars)
    return VectorField.zero(nvars), v


@settings(max_examples=300, deadline=None)
@given(field_pairs())
@example((F("[x2; 0]"), F("[0; x1]")))
@example((F("[x1^2; x1*x2]"), F("[x1^2; x1*x2]")))
@example((F("[(1+i)*x1*x2; -x2^2]"), F("[(-1-i)*x1*x2; x2^2]")))
@example((F("[x1]"), F("[0]")))
def test_bracket_kernel_matches_the_definition(pair):
    v, w = pair
    bracket = v.bracket(w)
    assert bracket == bracket_by_definition(v, w)
    assert bracket.nvars == v.nvars
    for comp in bracket.components:
        assert comp.nvars == v.nvars
        assert all(not coeff.is_zero() for coeff in comp.terms.values())


# ---------------------------------------------------------------------------
# kernel_basis against a dense kernel
# ---------------------------------------------------------------------------


def _dense_kernel_basis(field, degree):
    """Kernel from the dense matrix of monomial images, by the test-side model."""
    basis = MonomialBasis(field.nvars, degree).exponents
    images = [model_apply(field, Poly.monomial(field.nvars, exp, Scalar.exact(1))) for exp in basis]
    monomials = sorted({mon for image in images for mon in image.terms}, key=grlex_key)
    rows = [[image.coefficient(mon) for image in images] for mon in monomials]
    kernel = [
        Poly(field.nvars, {exp: value for exp, value in zip(basis, vec)})
        for vec in model_nullspace(rows, len(basis))
    ]
    return sorted(kernel, key=lambda p: grlex_key(max(p.terms, key=grlex_key)))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(_fields), st.integers(0, 3))
@example(F("[x1; x2; x3]"), 3)  # Euler field: only the constants
@example(F("[x1; 2*x2]"), 2)
@example(F("[0; 0]"), 2)  # everything is in the kernel
@example(F("[1; 0]"), 3)
@example(F("[x2; 0; (1+i)*x1]"), 3)
def test_kernel_basis_matches_the_dense_model(field, degree):
    kernel = kernel_basis(field, degree)
    assert kernel == _dense_kernel_basis(field, degree)
    for k in kernel:
        assert field.apply(k).is_zero()
