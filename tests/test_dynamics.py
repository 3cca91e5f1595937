import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from shearkit import dynamics
from shearkit.dynamics import (
    _approximant_ends,
    _classify_integrable,
    _primitive_step,
    _report_against,
    _sample_batch,
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
from shearkit.fields import VectorField, parse_vector_field, shear_pair_fields
from shearkit.poly import Poly, parse_poly
from shearkit.scalars import Scalar
from shearkit.serialize import canonical_dumps

from conftest import gaussian_rationals, nan_blind_bits, random_field


def F(text):
    return parse_vector_field(text)


def P(text, n):
    return parse_poly(text, n)


def _distance(a, b):
    return math.sqrt(sum(abs(x - y) ** 2 for x, y in zip(a, b)))


def _column(z):
    """One point as the (nvars, 1) batch the oracle takes."""
    return np.array(z, dtype=complex).reshape(-1, 1)


def _strictly_decreasing(errors):
    return all(a > b for a, b in zip(errors, errors[1:]))


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

    def test_field_along_two_axes_rejected(self):
        with pytest.raises(PreconditionError, match="one component expected"):
            commutator_step(F("[x2; 0]"), F("[x2; x1]"), 0.1)


@pytest.mark.parametrize("scheme", ["symmetric", "plain"])
def test_bracket_pair_factors_are_the_flows_of_its_identity_fields(scheme):
    # the splitting reads a pair's factors off the pair; classifying the four fields of
    # its shear identity must give the same flows
    pair = BracketPair(1, 0, P("x2*x3 + 1", 3), P("x1^2 - 3*x3", 3))
    fields = shear_pair_fields(3, pair.aux, pair.axis, pair.f1, pair.f2)
    want = {(OvershearFlow if over else ShearFlow, axis, str(coeff))
            for axis, coeff, over in map(_classify_integrable, fields)}
    got = {(type(f), f.axis, str(f.coeff)) for f in _primitive_step(pair, 0.01, scheme)}
    assert got == want and len(want) == 4


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
        assert _strictly_decreasing(report.max_errors)
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
        _, report = approximate_isotopy(
            [F("[0; x2^2]")], 0.5, 1, [8, 16, 32], 0.4, sample_count=8
        )
        assert _strictly_decreasing(report.max_errors)
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
        assert _strictly_decreasing(report.max_errors)
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
        assert _strictly_decreasing(report.max_errors)
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
        end = integrate_flow(lambda t: field, _column(z0), 0.5)[:, 0]
        truth = (z0[0], z0[1] / (1 - 0.5 * z0[1]))
        assert _distance(end, truth) < 1e-9

    def test_rk4_time_dependent(self):
        # dz1/dt = t, so z1(1) = z1(0) + 1/2
        def field_at(t):
            return VectorField(
                [Poly.constant(2, Scalar.exact(Fraction(t))), Poly.zero(2)]
            )

        end = integrate_flow(field_at, _column((0, 0)), 1.0)[:, 0]
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

    @pytest.mark.parametrize("fixed_point", [
        (math.nan, 0), (complex(0, math.nan), 0), (math.inf, 0), (0, complex(math.inf, 0)),
    ])
    def test_non_finite_fixed_point_rejected(self, fixed_point):
        # inf - inf makes the drift NaN, which the spectral estimate cannot take
        grid = GridSpec.real_plane(2, 2, 2, (-1, 1), (-1, 1))
        with pytest.raises(PreconditionError, match="not a fixed point"):
            basin_sample(radial_contraction(2), fixed_point, grid)

    @pytest.mark.parametrize("keywords, message", [
        ({"attract_radius": math.nan}, "attract radius"),
        ({"attract_radius": 0.0}, "attract radius"),
        ({"attract_radius": -1e-6}, "attract radius"),
        ({"attract_radius": math.inf}, "attract radius"),
        ({"escape_radius": math.nan}, "escape radius"),
        ({"escape_radius": 0.0}, "escape radius"),
        ({"escape_radius": -1e6}, "escape radius"),
    ])
    def test_bad_radius_rejected(self, keywords, message):
        grid = GridSpec.real_plane(2, 2, 2, (-1, 1), (-1, 1))
        with pytest.raises(PreconditionError, match=message):
            basin_sample(radial_contraction(2), (0, 0), grid, **keywords)

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


# ---------------------------------------------------------------------------
# One numeric path: single points are one-column batches
# ---------------------------------------------------------------------------

small_complex = st.builds(
    complex, st.floats(-1, 1, allow_subnormal=False), st.floats(-1, 1, allow_subnormal=False)
)


@st.composite
def polys(draw, nvars, free_of=None):
    """Up to three terms of degree <= 2 with Gaussian-rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        exp = tuple(
            0 if i == free_of else draw(st.integers(0, 2)) for i in range(nvars)
        )
        re, im = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        terms[exp] = Scalar.exact(Fraction(re, draw(st.integers(1, 4))), im)
    return Poly(nvars, terms)


@st.composite
def flows(draw, nvars):
    kind = draw(st.sampled_from(["shear", "overshear", "diagonal"]))
    if kind == "diagonal":
        weights = tuple(draw(st.integers(-2, 2)) for _ in range(nvars))
        factor = draw(small_complex.filter(lambda f: abs(f) > 0.25))
        return DiagonalFlow(weights, factor)
    axis = draw(st.integers(0, nvars - 1))
    coeff = draw(polys(nvars, free_of=axis))
    time = draw(small_complex) / 2
    return (ShearFlow if kind == "shear" else OvershearFlow)(axis, coeff, time)


@st.composite
def sequences_and_batches(draw):
    nvars = draw(st.integers(2, 3))
    seq = AutoSeq(nvars, draw(st.lists(flows(nvars), min_size=0, max_size=5)))
    count = draw(st.integers(1, 6))
    batch = np.array(
        [[draw(small_complex) for _ in range(count)] for _ in range(nvars)], dtype=complex
    )
    return seq, batch


def _term_size(flow, column):
    """|t| * sum |c| |p^e| over the coefficient's terms: the size of t*coeff(p)
    before any cancellation, which bounds its rounding error."""
    return abs(complex(flow.time)) * sum(
        abs(c.to_complex()) * np.prod(np.abs(column) ** np.array(exp))
        for exp, c in flow.coeff.terms.items()
    )


def _rounding_bound(flow, column, image):
    """Entrywise bound on |apply - apply_array| for one factor on one column.

    The two can differ in the last ulp of every operation (numpy's
    vectorized complex loops).  A diagonal factor's error is relative to
    the image.  A shear adds t*coeff(p), whose error is relative to the
    terms before they cancel.  An overshear multiplies by exp(t*coeff(p)),
    which turns the argument's absolute error into a relative one, so its
    bound grows with |t*coeff(p)|.
    """
    bound = np.abs(image)
    if isinstance(flow, ShearFlow):
        bound[flow.axis] = max(bound[flow.axis], abs(column[flow.axis]) + _term_size(flow, column))
    elif isinstance(flow, OvershearFlow):
        bound[flow.axis] *= 1 + _term_size(flow, column)
    # results in the subnormal range round absolutely
    return 1e-13 * bound + 1e-300


@settings(max_examples=200, deadline=None)
@given(sequences_and_batches())
@example((
    AutoSeq(3, [
        ShearFlow(0, P("0", 3), 0), ShearFlow(0, P("0", 3), 0),
        OvershearFlow(2, P("-x1*x2^2", 3), 0.5),
        DiagonalFlow((-1, -1, 0), 0.5j), DiagonalFlow((-2, -2, 0), 0.375 + 0.0078125j),
    ]),
    np.array([[0.5 + 1j, 0.5 + 0.5j], [0.5 + 0.5j, 0.5 + 0.5j], [1j, 1j]]),
))
def test_single_point_is_a_column_of_the_batch(case):
    # apply is apply_array on one column, so the sequence is checked factor by
    # factor: each factor's column against its batch at rounding level, and the
    # sequence against the fold of its factors bit for bit.  Rounding errors
    # compound along the sequence (an ulp in an exp argument of 800 moves a
    # 4e193 image by 1e-13 of itself), so the sequence has no single tolerance.
    seq, batch = case
    state = batch
    points = [tuple(batch[:, k].tolist()) for k in range(batch.shape[1])]
    for flow in reversed(seq.elements):
        images = flow.apply_array(state)
        for k in range(batch.shape[1]):
            point = flow.apply(tuple(state[:, k].tolist()))
            assert type(point) is tuple and all(type(v) is complex for v in point)
            point = np.array(point)
            finite = np.isfinite(images[:, k])
            # an overflow gives inf+nanj on both sides, which no tolerance matches
            assert np.array_equal(np.isfinite(point), finite)
            gap = np.abs(point - images[:, k])[finite]
            # a NaN bound (an infinite term size times a zero image) bounds nothing
            assert not np.any(gap > _rounding_bound(flow, state[:, k], images[:, k])[finite])
            points[k] = flow.apply(points[k])
        state = images
    assert seq.apply_array(batch).tobytes() == state.tobytes()
    for k, folded in enumerate(points):
        point = seq.apply(tuple(batch[:, k].tolist()))
        assert type(point) is tuple and all(type(v) is complex for v in point)
        assert np.array(point).tobytes() == np.array(folded).tobytes()


@settings(max_examples=100, deadline=None)
@given(sequences_and_batches())
# a unit shear by x2, whose coefficient evaluates to the batch's own row
@example((AutoSeq(2, [ShearFlow(0, P("x2", 2), 0.5), OvershearFlow(1, P("x1", 2), 0.25j),
                      DiagonalFlow((1, 2), 0.5 + 0.5j), ShearFlow(1, P("x1", 2), 1)]),
          np.array([[1 + 2j, -0.5j, 0.0], [3.0, 4 - 1j, -2j]])))
def test_numeric_flows_leave_their_input_unchanged(case):
    seq, batch = case
    before = batch.tobytes()
    with np.errstate(all="ignore"):
        seq.apply_array(batch)
        for flow in seq.elements:
            flow.apply_array(batch)
        field = F("[x1*x2; x1]" if seq.nvars == 2 else "[x2*x3; x1; 0]")
        integrate_flow(lambda _t: field, batch, 0.1, max_doublings=2)
    assert batch.tobytes() == before


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(polys(n), st.lists(st.tuples(*[small_complex] * n), min_size=1, max_size=6))
))
def test_poly_eval_complex_broadcasts_over_columns(case):
    poly, points = case
    values = np.broadcast_to(poly.eval_complex(np.array(points, dtype=complex).T), len(points))
    for value, point in zip(values, points):
        expected = poly.eval_complex(point)
        assert abs(value - expected) <= 1e-14 * max(1.0, abs(expected))


def _per_point_report_errors(build, reference, step_counts, nvars, radius, sample_count, seed):
    """Reference model: one point at a time through the tuple interface."""
    points = sample_ball(nvars, radius, sample_count, seed)
    truths = [reference(z) for z in points]
    errors = []
    for m in step_counts:
        seq = build(m)
        worst = 0.0
        for z, truth in zip(points, truths):
            worst = max(worst, _distance(seq.apply(z), truth))
        errors.append(worst)
    return errors


@pytest.mark.parametrize("scheme", ["symmetric", "plain"])
@pytest.mark.parametrize("field_text", ["[0; x2^2]", "[x1*x2; x2^2]", "[x2; x1]"])
def test_batched_convergence_matches_the_per_point_loop(field_text, scheme):
    field = F(field_text)
    prims = decompose_field(field)
    total_time = 0.4

    def build(m):
        return trotter_compose(prims, 2, total_time, m, scheme)

    def reference(z):
        return tuple(integrate_flow(lambda _t: field, _column(z), total_time)[:, 0])

    args = ([4, 8, 16], 2, 0.5, 12, 7)
    report = measure_convergence(build, reference, *args)
    expected = _per_point_report_errors(build, reference, *args)
    assert report.max_errors == pytest.approx(expected, rel=1e-12, abs=1e-300)
    assert report.order == pytest.approx(-fit_loglog_slope([4, 8, 16], expected), rel=1e-9)
    assert (report.step_counts, report.radius, report.sample_count, report.seed) == (
        (4, 8, 16), 0.5, 12, 7
    )


@st.composite
def isotopy_cases(draw):
    """A table of 1-3 fields in 2-3 variables, each of 1-3 terms of degree <= 2
    with Gaussian-rational coefficients, a scheme and 3-4 distinct unsorted counts."""
    nvars = draw(st.integers(2, 3))
    table = []
    for _ in range(draw(st.integers(1, 3))):
        components = [{} for _ in range(nvars)]
        for _ in range(draw(st.integers(1, 3))):
            factors = draw(st.lists(st.integers(0, nvars - 1), max_size=2))
            exp = tuple(factors.count(i) for i in range(nvars))
            components[draw(st.integers(0, nvars - 1))][exp] = draw(gaussian_rationals)
        table.append(VectorField([Poly(nvars, terms) for terms in components]))
    counts = draw(st.lists(st.integers(1, 7), min_size=3, max_size=4, unique=True))
    return table, draw(st.sampled_from(["symmetric", "plain"])), counts, draw(st.integers(1, 5))


def _per_count_model(table, total_time, scheme):
    """Reference model: each step count's sequence built and applied on its own."""
    nvars, dt = table[0].nvars, total_time / len(table)

    def build(m):
        seq = AutoSeq(nvars, ())
        for field in table:
            seq = seq.then(trotter_compose(decompose_field(field), nvars, dt, m, scheme))
        return seq

    return build


@settings(max_examples=60, deadline=None)
@given(isotopy_cases())
# a constant complex coefficient, an overshear from a linear component, three slices
@example(([F("[2+i; 3*x1]"), F("[x1; -x2]"), F("[x2^2; 1/2]")], "plain", [5, 2, 7], 4))
def test_batched_approximants_match_each_sequence_bit_for_bit(case):
    table, scheme, counts, sample_count = case
    total_time, radius, seed = 0.5, 0.5, 11
    nvars, dt = table[0].nvars, total_time / len(table)
    build = _per_count_model(table, total_time, scheme)
    batch = _sample_batch(nvars, radius, sample_count, seed)
    primitives = [decompose_field(field) for field in table]
    with np.errstate(all="ignore"):
        ends, _ = _approximant_ends(primitives, dt, counts, scheme, batch)
        expected = [build(m).apply_array(batch) for m in counts]
        truths = batch
        for field in table:
            truths = integrate_flow(lambda _t, f=field: f, truths, dt)
    assert [nan_blind_bits(end) for end in ends] == [nan_blind_bits(end) for end in expected]

    def outcome(run):
        try:
            return run()
        except PreconditionError as refused:
            return str(refused)

    got = outcome(lambda: approximate_isotopy(
        table, total_time, len(table), counts, radius, sample_count, seed, scheme
    ))
    want = outcome(lambda: _report_against(expected, truths, counts, radius, seed))
    if isinstance(want, str):
        assert got == want
    else:
        seq, report = got
        assert report == want
        # the JSON text, not the dicts, so that a signed zero in a time counts
        assert _sequence_text(seq) == _sequence_text(build(max(counts)))


def _sequence_text(seq):
    return canonical_dumps(autoseq_to_json_dict(seq))


@pytest.mark.parametrize("scheme", ["symmetric", "plain"])
def test_isotopy_sequence_needs_neither_trotter_compose_nor_then(monkeypatch, scheme):
    table = [F("[x1*x2; x2^2]"), F("[2+i; 3*x1]"), F("[x1; -x2]")]
    counts, total_time = [3, 8, 5], 0.5
    want = _sequence_text(_per_count_model(table, total_time, scheme)(max(counts)))

    def refuse(*_args, **_kwargs):
        raise AssertionError("approximate_isotopy rebuilt its sequence")

    monkeypatch.setattr(dynamics, "trotter_compose", refuse)
    monkeypatch.setattr(AutoSeq, "then", refuse)
    seq, _ = approximate_isotopy(table, total_time, len(table), counts, 0.5, 4, 11, scheme)
    assert _sequence_text(seq) == want


@pytest.mark.parametrize("xs", [[8, 8, 8], [8, 16, 8]])
def test_slope_fit_refuses_repeated_xs(xs):
    with pytest.raises(PreconditionError):
        fit_loglog_slope(xs, [1.0, 0.5, 0.25])
