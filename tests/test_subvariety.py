import hashlib
import json
from fractions import Fraction

import pytest

from shearkit.density import replay_closure
from shearkit.errors import PreconditionError
from shearkit.linalg import TrackedSpan
from shearkit.poly import MonomialBasis, Poly, format_poly, format_scalar, parse_poly
from shearkit.scalars import Scalar
from shearkit.subvariety import (
    SubvarietyInput,
    build_vanishing_shear,
    codim2_module_certificate,
    eliminate_direction,
    verify_codim2_identity,
    verify_local_identities,
)

from conftest import random_exact_poly, random_exact_scalar


def P(text, n):
    return parse_poly(text, n)


def axis_line_in_three_space():
    """X = {x1 = x2 = 0}, the third coordinate axis."""
    return SubvarietyInput(3, (P("x1", 3), P("x2", 3)))


class TestEliminateDirection:
    def test_axis_line_first_direction(self):
        result = eliminate_direction(axis_line_in_three_space(), 0, 1)
        assert result.elements == (P("x2", 3),)

    def test_origin_in_plane(self):
        data = SubvarietyInput(2, (P("x1", 2), P("x2", 2)))
        result = eliminate_direction(data, 0, 1)
        assert result.elements == (P("x2", 2),)

    def test_third_direction_still_projects_to_a_point(self):
        # projecting the x3-axis along e3 collapses it to the origin of
        # the (x1, x2) plane, so both x1 and x2 qualify
        result = eliminate_direction(axis_line_in_three_space(), 2, 1)
        assert result.elements == (P("x2", 3), P("x1", 3))

    def test_empty_at_too_small_degree(self):
        # twisted-cubic style generators have degree 2 and 3; nothing of
        # degree <= 1 lies in the truncated span
        data = SubvarietyInput(
            3, (P("x2 - x1^2", 3), P("x3 - x1^3", 3))
        )
        result = eliminate_direction(data, 1, 1)
        assert result.elements == ()

    def test_degree_zero_is_empty_for_proper_ideals(self):
        result = eliminate_direction(axis_line_in_three_space(), 0, 0)
        assert result.elements == ()

    def test_combinations_replay_exactly(self, rng):
        data = SubvarietyInput(
            3, (P("x1 + x2^2", 3), P("x2*x3", 3))
        )
        result = eliminate_direction(data, 0, 3)
        for element, combo in zip(result.elements, result.combinations):
            rebuilt = Poly.zero(3)
            for coeff, (exp, gen_idx) in combo:
                term = data.generators[gen_idx] * Poly.monomial(3, exp, coeff)
                rebuilt = rebuilt + term
            assert rebuilt == element
            assert element.partial(0).is_zero()

    @pytest.mark.parametrize(
        "generators, digest",
        [
            (("x1", "x2 - x3^2"), "c8fba93588be9b17c4ae20fc139d8e8dcd801b133aa7f570bff9bd1af124fc1b"),
            (("x1*x2", "x3"), "91d784343a55e5f9acf86b5bbbfe5dedd6166e578495c39f26379423aa75f25e"),
        ],
    )
    def test_elements_and_combinations_keep_their_bytes(self, generators, digest):
        data = SubvarietyInput(3, tuple(P(g, 3) for g in generators))
        lines = []
        for axis in range(3):
            for degree in range(5):
                result = eliminate_direction(data, axis, degree)
                lines.append(f"axis {axis} degree {degree}")
                for element, combo in zip(result.elements, result.combinations):
                    lines.append(format_poly(element))
                    lines.extend(
                        f"  {format_scalar(c)} {exp} {gen_idx}" for c, (exp, gen_idx) in combo
                    )
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


class TestVanishingShear:
    def test_assembled_field(self):
        data = axis_line_in_three_space()
        shear = build_vanishing_shear(data, 0, P("x2", 3), 1)
        assert shear.field.components[0] == P("x2", 3)
        assert shear.field.components[1].is_zero()
        assert len(shear.projection_forms) == 2

    def test_symmetric_direction(self):
        data = axis_line_in_three_space()
        shear = build_vanishing_shear(data, 1, P("x1", 3), 1)
        assert shear.field.components[1] == P("x1", 3)

    def test_zero_h_rejected(self):
        with pytest.raises(PreconditionError):
            build_vanishing_shear(axis_line_in_three_space(), 0, P("0", 3), 1)

    def test_h_depending_on_direction_rejected(self):
        with pytest.raises(PreconditionError):
            build_vanishing_shear(axis_line_in_three_space(), 0, P("x1", 3), 1)

    def test_h_outside_span_rejected(self):
        with pytest.raises(PreconditionError):
            build_vanishing_shear(axis_line_in_three_space(), 0, P("x3", 3), 1)

    def test_accepts_exactly_the_span_of_the_eliminated_elements(self, rng):
        def in_element_span(data, axis, h, degree):
            # the model: h against a fresh span of eliminate_direction's elements
            degree = max(degree, h.degree)
            basis = MonomialBasis(3, degree)
            span = TrackedSpan()
            for element in eliminate_direction(data, axis, degree).elements:
                span.insert(basis.coords(element))
            return span.contains(basis.coords(h))

        verdicts = []
        while len(verdicts) < 60:
            gens = [random_exact_poly(rng, 3, 2, max_terms=2) for _ in range(2)]
            if any(g.is_zero() for g in gens):
                continue
            data = SubvarietyInput(3, tuple(gens))
            axis, degree = rng.randrange(3), rng.randint(1, 3)
            others = [i for i in range(3) if i != axis]
            elements = eliminate_direction(data, axis, degree).elements
            candidates = [random_exact_poly(rng, 3, degree, allowed_vars=others)]
            if elements:
                combo = sum((e.scale(random_exact_scalar(rng)) for e in elements), Poly.zero(3))
                candidates += [combo, combo + candidates[0]]
            for h in candidates:
                if h.is_zero():
                    continue
                expected = in_element_span(data, axis, h, degree)
                try:
                    build_vanishing_shear(data, axis, h, degree)
                    accepted = True
                except PreconditionError:
                    accepted = False
                assert accepted == expected, (gens, axis, degree, h)
                verdicts.append(expected)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_field_vanishes_at_sampled_variety_points(self, rng):
        data = axis_line_in_three_space()
        shear = build_vanishing_shear(data, 0, P("x2", 3), 1)
        for _ in range(200):
            t = Scalar.exact(
                Fraction(rng.randint(-50, 50), rng.randint(1, 9)),
                Fraction(rng.randint(-10, 10)),
            )
            point = [Scalar.exact(0), Scalar.exact(0), t]
            assert all(v.is_zero() for v in shear.field.evaluate(point))


class TestCodim2Identity:
    def test_quoted_instance_on_the_axis_line(self):
        check = verify_codim2_identity(
            P("1", 3), P("x2", 3), P("1", 3), P("x1", 3)
        )
        assert check.holds
        # the identity target x1*x2*d2 vanishes on {x1 = x2 = 0}
        target = P("x1", 3) * P("x2", 3)
        assert target.evaluate(
            [Scalar.exact(0), Scalar.exact(0), Scalar.exact(7)]
        ).is_zero()

    def test_all_constants_reduce_to_base_identity(self):
        assert verify_codim2_identity(P("1", 2), P("1", 2), P("1", 2), P("1", 2)).holds

    def test_randomized_admissible_inputs(self, rng):
        for _ in range(40):
            n = rng.choice([2, 3])
            not1 = [i for i in range(n) if i != 0]
            not2 = [i for i in range(n) if i != 1]
            f1 = random_exact_poly(rng, n, 3, allowed_vars=not1)
            h1 = random_exact_poly(rng, n, 3, allowed_vars=not1)
            f2 = random_exact_poly(rng, n, 3, allowed_vars=not2)
            h2 = random_exact_poly(rng, n, 3, allowed_vars=not2)
            assert verify_codim2_identity(f1, h1, f2, h2).holds

    def test_precondition_violations_are_listed(self):
        with pytest.raises(PreconditionError) as info:
            verify_codim2_identity(P("x1", 2), P("x1", 2), P("1", 2), P("1", 2))
        assert len(info.value.violations) == 2


class TestLocalIdentities:
    def test_simple_chart(self):
        report = verify_local_identities(
            P("x2^2", 3), P("1", 3), 0, P("x3", 3), P("x3", 3)
        )
        assert all(check.holds for check in report.checks)

    def test_zero_functions_hold_trivially(self):
        report = verify_local_identities(
            P("x2^2", 3), P("1", 3), 0, P("0", 3), P("0", 3)
        )
        assert all(check.holds for check in report.checks)

    def test_nontrivial_denominator_power(self):
        report = verify_local_identities(
            P("x2*x3", 3), P("x3", 3), 1, P("x3", 3), P("x3", 3)
        )
        assert all(check.holds for check in report.checks)

    def test_randomized_charts(self, rng):
        for _ in range(25):
            r = random_exact_poly(rng, 3, 3, allowed_vars=[1, 2])
            h = random_exact_poly(rng, 3, 2, allowed_vars=[2])
            f = random_exact_poly(rng, 3, 3, allowed_vars=[1, 2])
            g = random_exact_poly(rng, 3, 3, allowed_vars=[1, 2])
            s = rng.choice([0, 1, 2])
            report = verify_local_identities(r, h, s, f, g)
            assert all(check.holds for check in report.checks)

    def test_malformed_h_rejected(self):
        with pytest.raises(PreconditionError):
            verify_local_identities(
                P("x2", 3), P("x2", 3), 1, P("x3", 3), P("x3", 3)
            )


class TestCodim2Certificate:
    def test_axis_line_certificate(self):
        cert = codim2_module_certificate(axis_line_in_three_space(), 3)
        assert cert.h1 == P("x2", 3)
        assert cert.h2 == P("x1", 3)
        assert cert.axes == (0, 1)
        assert cert.all_targets_established
        assert replay_closure(cert.closure)

    def test_point_in_plane(self):
        data = SubvarietyInput(2, (P("x1", 2), P("x2", 2)))
        cert = codim2_module_certificate(data, 2)
        assert cert.h1 == P("x2", 2)
        assert cert.h2 == P("x1", 2)
        assert cert.all_targets_established
        coefficients = [
            t.target.components[t.target.components[0].is_zero()]
            for t in cert.closure.targets
        ]
        # every target coefficient is divisible by x1*x2 up to the bound
        for coeff in coefficients:
            assert all(exp[0] >= 1 and exp[1] >= 1 for exp in coeff.terms)

    def test_empty_subvariety_reduces_to_plain_density(self):
        data = SubvarietyInput(2, (P("1", 2),))
        cert = codim2_module_certificate(data, 2)
        assert cert.h1 == P("1", 2)
        assert cert.h2 == P("1", 2)
        assert cert.all_targets_established

    def test_monotone_in_target_degree(self):
        data = axis_line_in_three_space()
        lo = codim2_module_certificate(data, 2)
        hi = codim2_module_certificate(data, 3)
        assert lo.all_targets_established and hi.all_targets_established
        lo_keys = {t.target.key() for t in lo.closure.targets}
        hi_keys = {t.target.key() for t in hi.closure.targets if t.established}
        assert lo_keys <= hi_keys

    def test_propagates_missing_direction(self):
        # a hypersurface projects dominantly along every direction inside
        # it; at this bound no second direction is found
        data = SubvarietyInput(
            3, (P("x2 - x1^2", 3), P("x3 - x1^3", 3))
        )
        with pytest.raises(PreconditionError):
            codim2_module_certificate(data, 1)

    def test_json_document_shape(self):
        cert = codim2_module_certificate(axis_line_in_three_space(), 2)
        doc = cert.to_json_dict()
        assert doc["kind"] == "codim2-module-certificate"
        assert doc["h1"] == "x2"
        assert doc["h2"] == "x1"
        json.dumps(doc)


class TestSubvarietyInput:
    def test_rejects_zero_generator(self):
        with pytest.raises(PreconditionError):
            SubvarietyInput(2, (P("0", 2),))

    def test_rejects_one_variable(self):
        with pytest.raises(PreconditionError):
            SubvarietyInput(1, (P("x1", 1),))

    def test_json_round_trip(self):
        data = axis_line_in_three_space()
        doc = data.to_json_dict()
        rebuilt = SubvarietyInput.from_json_dict(json.loads(json.dumps(doc)))
        assert rebuilt == data
