import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from shearkit.dynamics import (
    AutoSeq,
    BracketPair,
    DiagonalFlow,
    GridSpec,
    OvershearFlow,
    Shear,
    ShearFlow,
    approximate_isotopy,
    attracting_shear_composition,
    autoseq_from_json_dict,
    autoseq_to_json_dict,
    basin_sample,
    commutator_step,
    decompose_field,
    fit_loglog_slope,
    integrate_flow,
    measure_convergence,
    primitive_target,
    radial_contraction,
    sample_ball,
    trotter_compose,
)
from shearkit.errors import ArityMismatch, PreconditionError
from shearkit.fields import VectorField, parse_vector_field
from shearkit.poly import Poly, parse_poly
from shearkit.scalars import Scalar

from conftest import random_field


def F(text):
    return parse_vector_field(text)


def P(text, n):
    return parse_poly(text, n)


def _distance(a, b):
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


class TestDecomposition:
    def test_pure_shear_monomial(self):
        prims = decompose_field(F("[x2^2; 0]"))
        assert len(prims) == 1
        assert isinstance(prims[0], Shear)

    def test_quoted_bracket_pair(self):
        prims = decompose_field(F("[0; x2^2]"))
        assert len(prims) == 1
        pair = prims[0]
        assert isinstance(pair, BracketPair)
        assert pair.axis == 1 and pair.aux == 0
        assert pair.f1 == P("x2^2", 2)
        assert pair.f2 == P("1", 2)

    def test_recomposition_is_exact(self, rng):
        for nvars in (2, 3):
            for _ in range(10):
                field = random_field(rng, nvars, 4)
                total = VectorField.zero(nvars)
                for prim in decompose_field(field):
                    total = total + primitive_target(prim, nvars)
                assert (total - field).is_zero()

    def test_bracket_pair_identity_reverified_at_construction(self):
        with pytest.raises(PreconditionError):
            BracketPair(1, 0, P("x1", 2), P("1", 2))

    def test_one_variable_rejected(self):
        with pytest.raises(PreconditionError):
            decompose_field(VectorField([P("x1", 1)]))


class TestElementaryFlows:
    def test_shear_flow_is_exact_and_invertible(self):
        step = ShearFlow(0, P("x2^2", 2), 0.75)
        z = (0.2 + 0.1j, -0.3 + 0.4j)
        image = step.apply(z)
        assert image[1] == z[1]
        assert abs(image[0] - (z[0] + 0.75 * z[1] ** 2)) < 1e-15
        assert step.inverse().apply(image) == z

    def test_overshear_flow(self):
        step = OvershearFlow(0, P("x2", 2), 0.5)
        z = (1.0 + 0j, 2.0 + 0j)
        image = step.apply(z)
        assert abs(image[0] - cmath.exp(1.0) * 1.0) < 1e-12
        back = step.inverse().apply(image)
        assert _distance(back, z) < 1e-12

    def test_diagonal_flow(self):
        step = DiagonalFlow((1, -1), 2.0)
        assert step.apply((1 + 0j, 1 + 0j)) == (2 + 0j, 0.5 + 0j)
        assert step.inverse().apply((2 + 0j, 0.5 + 0j)) == (1 + 0j, 1 + 0j)

    def test_shear_coefficient_constraint(self):
        with pytest.raises(PreconditionError):
            ShearFlow(0, P("x1", 2), 1.0)


class TestAutoSeq:
    def test_inverse_law_floating(self):
        seq = attracting_shear_composition()
        inverse = seq.inverse()
        for z in sample_ball(2, 1.0, 100, seed=23):
            back = inverse.apply(seq.apply(z))
            assert _distance(back, z) <= 1e-12 * max(1.0, _distance(z, (0, 0)))

    def test_exact_inverse_for_rational_shears(self):
        from fractions import Fraction

        seq = AutoSeq.from_application_order(
            2,
            [
                ShearFlow(0, P("x2^2", 2), Scalar.exact(Fraction(1, 3))),
                ShearFlow(1, P("x1", 2), Scalar.exact(2)),
            ],
        )
        point = (Scalar.exact(Fraction(1, 7)), Scalar.exact(Fraction(-2, 5), 1))
        image = seq.apply_exact(point)
        back = seq.inverse().apply_exact(image)
        assert back == point

    def test_right_to_left_composition_order(self):
        # elements[0] is outermost: apply shear first, then scale
        seq = AutoSeq(2, (DiagonalFlow((1, 1), 2.0), ShearFlow(0, P("x2", 2), 1.0)))
        assert seq.apply((0, 1)) == (2 + 0j, 2 + 0j)

    def test_exact_times_also_evaluate_numerically(self):
        from fractions import Fraction

        step = ShearFlow(0, P("x2", 2), Scalar.exact(Fraction(1, 2)))
        assert step.apply((0, 1)) == (0.5 + 0j, 1 + 0j)

    def test_json_round_trip(self):
        seq = attracting_shear_composition()
        doc = autoseq_to_json_dict(seq)
        rebuilt = autoseq_from_json_dict(json.loads(json.dumps(doc)))
        z = (0.3 + 0.2j, -0.1 + 0.5j)
        assert rebuilt.apply(z) == seq.apply(z)

    @pytest.mark.parametrize("weights", [(1,), (1, 1, 1)])
    def test_diagonal_weight_count_must_match_nvars(self, weights):
        # a wrong weight count would truncate the point or broadcast the weights
        wrong = DiagonalFlow(weights, 0.5)
        with pytest.raises(ArityMismatch):
            AutoSeq(2, [wrong]).apply((1, 1))
        with pytest.raises(ArityMismatch):
            AutoSeq(2, [wrong]).apply_array(np.ones((2, 3), dtype=complex))
        with pytest.raises(ArityMismatch):
            AutoSeq.from_application_order(2, [ShearFlow(0, P("x2", 2), 1.0), wrong])
        right = AutoSeq(2, [DiagonalFlow((1, 2), 0.5)])
        assert right.apply((1, 1)) == (0.5 + 0j, 0.25 + 0j)
        assert right.apply_array(np.ones((2, 1), dtype=complex)).tolist() == [[0.5], [0.25]]


class TestCommutatorStep:
    def test_measured_order_against_closed_form(self):
        a = F("[x2; 0]")
        b = F("[0; x1]")
        points = sample_ball(2, 0.5, 25)
        s_values = [0.4, 0.2, 0.1, 0.05]
        errors = []
        for s in s_values:
            seq = commutator_step(a, b, s)
            worst = 0.0
            for z in points:
                truth = (cmath.exp(-s) * z[0], cmath.exp(s) * z[1])
                worst = max(worst, _distance(seq.apply(z), truth))
            errors.append(worst)
        slope = fit_loglog_slope(s_values, errors)
        assert 1.3 <= slope <= 2.1

    def test_commuting_fields_compose_to_identity(self):
        seq = commutator_step(F("[1; 0]"), F("[0; 1]"), 0.3)
        z = (0.4 + 0.1j, -0.2 + 0.3j)
        assert _distance(seq.apply(z), z) < 1e-15

    def test_zero_time_is_identity(self):
        seq = commutator_step(F("[x2; 0]"), F("[0; x1]"), 0.0)
        z = (0.5 + 0j, 0.25 + 0j)
        assert seq.apply(z) == z

    def test_non_integrable_input_rejected(self):
        with pytest.raises(PreconditionError):
            commutator_step(F("[x1^2; 0]"), F("[0; x1]"), 0.1)


class TestTrotter:
    def test_single_shear_is_exact_for_any_step_count(self):
        prims = decompose_field(F("[x2^2; 0]"))
        for m in (1, 3, 8):
            seq = trotter_compose(prims, 2, 0.7, m)
            for z in sample_ball(2, 1.0, 10):
                truth = (z[0] + 0.7 * z[1] ** 2, z[1])
                assert _distance(seq.apply(z), truth) < 1e-13

    def test_commuting_shears_are_exact(self):
        # f(x1) d2 and g(x1) d2 commute; so do their flows
        field = F("[0; x1^2 + 2*x1]")
        prims = decompose_field(field)
        assert all(isinstance(p, Shear) for p in prims)
        for z in sample_ball(2, 1.0, 10):
            truth = (z[0], z[1] + 0.7 * (z[0] ** 2 + 2 * z[0]))
            seq = trotter_compose(prims, 2, 0.7, 2)
            assert _distance(seq.apply(z), truth) < 1e-13

    def test_riccati_convergence_order(self):
        field = F("[0; x2^2]")
        prims = decompose_field(field)
        total_time = 0.5

        def closed_form(z):
            return (z[0], z[1] / (1 - total_time * z[1]))

        report = measure_convergence(
            lambda m: trotter_compose(prims, 2, total_time, m),
            closed_form,
            [8, 16, 32, 64],
            2,
            0.5,
        )
        assert report.monotone_decreasing
        assert 0.8 <= report.order <= 1.5

    def test_two_shear_first_order_splitting(self):
        field = F("[x2; x1]")
        prims = decompose_field(field)
        assert all(isinstance(p, Shear) for p in prims)
        total_time = 0.5

        def closed_form(z):
            c, s = cmath.cosh(total_time), cmath.sinh(total_time)
            return (c * z[0] + s * z[1], s * z[0] + c * z[1])

        report = measure_convergence(
            lambda m: trotter_compose(prims, 2, total_time, m, "plain"),
            closed_form,
            [8, 16, 32, 64],
            2,
            0.5,
        )
        assert 0.8 <= report.order <= 1.5

    def test_report_helper_with_oracle_reference(self):
        from shearkit.dynamics import trotter_convergence_report

        report = trotter_convergence_report(
            F("[0; x2^2]"), 0.5, [8, 16, 32], 0.4, sample_count=8
        )
        assert report.monotone_decreasing
        assert report.order >= 0.8
        doc = report.to_json_dict()
        assert doc["step_counts"] == [8, 16, 32]

    def test_plain_scheme_converges_slower(self):
        field = F("[0; x2^2]")
        prims = decompose_field(field)
        total_time = 0.5

        def closed_form(z):
            return (z[0], z[1] / (1 - total_time * z[1]))

        report = measure_convergence(
            lambda m: trotter_compose(prims, 2, total_time, m, "plain"),
            closed_form,
            [8, 16, 32, 64],
            2,
            0.5,
        )
        assert report.monotone_decreasing
        assert report.order < 0.8


class TestIsotopy:
    def test_constant_translation_is_exact(self):
        seq, report = approximate_isotopy(
            lambda t: F("[1; 0]"), 1.0, 1, [4, 8, 16], 0.5, sample_count=8
        )
        assert max(report.max_errors) < 1e-9

    def test_autonomous_matches_direct_composition(self):
        field = F("[0; x2^2]")
        _seq, report = approximate_isotopy(
            lambda t: field, 0.5, 1, [8, 16, 32], 0.5, sample_count=10
        )
        assert report.monotone_decreasing
        assert report.order >= 0.8

    def test_linear_field_through_bracket_pairs(self):
        field = F("[x1; -x2]")
        _seq, report = approximate_isotopy(
            lambda t: field, 0.5, 1, [8, 16, 32, 64], 0.5, sample_count=10
        )
        assert report.order >= 0.8

    def test_field_table_input(self):
        table = [F("[1; 0]"), F("[0; 1]")]
        seq, _report = approximate_isotopy(
            table, 1.0, 2, [2, 4, 8], 0.5, sample_count=5
        )
        z = seq.apply((0, 0))
        assert _distance(z, (0.5, 0.5)) < 1e-9


class TestOracle:
    def test_rk4_matches_riccati(self):
        field = F("[0; x2^2]")
        z0 = (0.1 + 0.1j, 0.3 - 0.2j)
        end = integrate_flow(lambda t: field, z0, 0.5)
        truth = (z0[0], z0[1] / (1 - 0.5 * z0[1]))
        assert _distance(end, truth) < 1e-9

    def test_rk4_time_dependent(self):
        # dz1/dt = t, so z1(1) = z1(0) + 1/2
        def field_at(t):
            return VectorField(
                [Poly.constant(2, Scalar.exact(Fraction(t))), Poly.zero(2)]
            )

        end = integrate_flow(field_at, (0, 0), 1.0)
        assert abs(end[0] - 0.5) < 1e-9


class TestBasin:
    def test_global_linear_contraction_attracts_everything(self):
        seq = radial_contraction(2)
        grid = GridSpec.real_plane(2, 21, 21, (-2, 2), (-2, 2))
        result = basin_sample(seq, (0, 0), grid)
        counts = result.counts()
        assert counts["attracted"] == 21 * 21
        assert counts["escaped"] == 0

    def test_attracting_composition_shows_both_classes(self):
        seq = attracting_shear_composition()
        grid = GridSpec.real_plane(2, 60, 60, (-3, 3), (-3, 3))
        result = basin_sample(seq, (0, 0), grid)
        counts = result.counts()
        assert counts["attracted"] > 0
        assert counts["escaped"] > 0

    def test_hand_iterated_points_agree(self):
        # direct iteration oracle on a few fixed points
        seq = attracting_shear_composition()
        inside = (0.05, 0.05)
        outside = (0.0, 3.0)
        z = inside
        for _ in range(200):
            z = seq.apply(z)
        assert _distance(z, (0, 0)) < 1e-6
        w = outside
        escaped = False
        for _ in range(200):
            w = seq.apply(w)
            if _distance(w, (0, 0)) > 1e6:
                escaped = True
                break
        assert escaped

    def test_empty_grid(self):
        seq = radial_contraction(2)
        grid = GridSpec.real_plane(2, 0, 0, (0, 0), (0, 0))
        result = basin_sample(seq, (0, 0), grid)
        assert result.counts() == {"attracted": 0, "escaped": 0, "undecided": 0}

    def test_moving_point_rejected(self):
        seq = AutoSeq(2, (ShearFlow(0, P("1", 2), 1.0),))
        grid = GridSpec.real_plane(2, 2, 2, (-1, 1), (-1, 1))
        with pytest.raises(PreconditionError):
            basin_sample(seq, (0, 0), grid)

    def test_non_attracting_fixed_point_warns(self):
        seq = AutoSeq(2, (DiagonalFlow((1, 1), 2.0),))
        grid = GridSpec.real_plane(2, 4, 4, (-1, 1), (-1, 1))
        with pytest.warns(UserWarning):
            result = basin_sample(seq, (0, 0), grid, max_iter=50)
        assert result.contraction_warning

    def test_deterministic_artifacts(self, tmp_path):
        seq = attracting_shear_composition()
        grid = GridSpec.real_plane(2, 30, 30, (-3, 3), (-3, 3))
        paths = []
        for run in range(2):
            result = basin_sample(seq, (0, 0), grid)
            csv = tmp_path / f"run{run}.csv"
            pgm = tmp_path / f"run{run}.pgm"
            result.write_csv(csv)
            result.write_pgm(pgm)
            paths.append((csv.read_bytes(), pgm.read_bytes()))
        assert paths[0] == paths[1]

    def test_complex_line_slice(self):
        seq = radial_contraction(2)
        direction = (1 + 0j, 0.5 + 0j)
        grid = GridSpec(
            (0j, 0j),
            direction,
            tuple(1j * d for d in direction),
            8,
            8,
            (-1, 1),
            (-1, 1),
        )
        result = basin_sample(seq, (0, 0), grid)
        assert result.counts()["attracted"] == 64


class TestGridSpec:
    def test_point_layout(self):
        grid = GridSpec.real_plane(2, 3, 3, (-1, 1), (0, 2))
        assert grid.point(0, 0) == (-1 + 0j, 0j)
        assert grid.point(2, 2) == (1 + 0j, 2 + 0j)
        assert grid.point(1, 1) == (0j, 1 + 0j)

    def test_json_round_trip(self):
        grid = GridSpec.real_plane(2, 5, 7, (-2, 2), (-1, 1))
        doc = grid.to_json_dict()
        rebuilt = GridSpec.from_json_dict(json.loads(json.dumps(doc)))
        assert rebuilt == grid
