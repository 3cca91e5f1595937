import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shearkit.density import (
    BasisRecord,
    _exact_det,
    LieClosureCertificate,
    TargetRecord,
    check_compatibility,
    closure_from_json_dict,
    determinant_poly,
    isotropy_update,
    lie_closure,
    matrix_variable,
    monomial_field_targets,
    orbit_span_closure,
    replay_closure,
    replay_compatibility,
    sample_sl_points,
    shear_generator_family,
    sl_pair_derivations,
    verify_compat_identity,
    verify_on_variety,
    verify_shear_identity,
)
from shearkit.errors import PreconditionError
from shearkit.fields import VectorField, parse_vector_field
from shearkit.linalg import TrackedSpan
from shearkit.poly import MonomialBasis, Poly, parse_poly
from shearkit.scalars import Scalar

from conftest import bracket_by_definition, gaussian_rationals, random_exact_poly


def F(text):
    return parse_vector_field(text)


def P(text, n):
    return parse_poly(text, n)


class TestShearIdentity:
    def test_quoted_instance(self):
        check = verify_shear_identity(P("x2", 2), P("x1", 2))
        assert check.holds and check.residual.is_zero()

    def test_constant_case(self):
        assert verify_shear_identity(P("1", 2), P("1", 2)).holds

    def test_three_variables(self):
        assert verify_shear_identity(P("x2^3", 3), P("x1^2+1", 3)).holds

    def test_randomized_admissible_instances(self, rng):
        for _ in range(30):
            n = rng.choice([2, 3])
            f1 = random_exact_poly(rng, n, 3, allowed_vars=[i for i in range(n) if i != 0])
            f2 = random_exact_poly(rng, n, 3, allowed_vars=[i for i in range(n) if i != 1])
            assert verify_shear_identity(f1, f2).holds

    def test_precondition_violation_is_an_error_not_a_verdict(self):
        with pytest.raises(PreconditionError) as info:
            verify_shear_identity(P("x1", 2), P("x1", 2))
        assert "f1" in str(info.value)


class TestCompatIdentity:
    def test_coordinate_pair_witness(self):
        check = verify_compat_identity(
            F("[1; 0]"), F("[0; 1]"), P("x1", 2), P("1", 2), P("1", 2)
        )
        assert check.holds

    def test_shifted_second_derivation(self):
        # d2 = x1 d/dx2 is nilpotent; a = x1 still works
        check = verify_compat_identity(
            F("[1; 0]"), F("[0; x1]"), P("x1", 2), P("x2", 2), P("x1", 2)
        )
        assert check.holds

    def test_zero_f1_is_trivially_true(self):
        check = verify_compat_identity(
            F("[1; 0]"), F("[0; 1]"), P("x1", 2), P("0", 2), P("1", 2)
        )
        assert check.holds

    def test_degree_zero_witness_rejected(self):
        with pytest.raises(PreconditionError):
            verify_compat_identity(
                F("[1; 0]"), F("[0; 1]"), P("x2", 2), P("1", 2), P("1", 2)
            )

    def test_randomized_admissible_instances(self, rng):
        d1 = F("[1; 0; 0]")
        d2 = F("[0; 0; 1]")
        for _ in range(20):
            # a = x1*k(x2) + c(x2) has degree exactly 1 when k is nonzero
            k = random_exact_poly(rng, 3, 2, allowed_vars=[1])
            if k.is_zero():
                k = P("1", 3)
            c = random_exact_poly(rng, 3, 2, allowed_vars=[1])
            a = P("x1", 3) * k + c
            f1 = random_exact_poly(rng, 3, 3, allowed_vars=[1, 2])
            f2 = random_exact_poly(rng, 3, 3, allowed_vars=[0, 1])
            assert verify_compat_identity(d1, d2, a, f1, f2).holds


def _brute_force_product_monomials(ker1_exps, ker2_exps, degree):
    """Independent oracle: all product monomials of two monomial kernels."""
    out = set()
    for e1 in ker1_exps:
        for e2 in ker2_exps:
            exp = tuple(a + b for a, b in zip(e1, e2))
            if sum(exp) <= degree:
                out.add(exp)
    return out


class TestCompatibility:
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_coordinate_pair_on_plane(self, degree):
        verdict = check_compatibility(F("[1; 0]"), F("[0; 1]"), degree)
        assert verdict.condition_one.kind == "full-span"
        assert verdict.condition_two.kind == "witness-found"
        assert verdict.condition_two.a == P("x1", 2)
        assert verdict.condition_two.b == P("1", 2)
        assert verdict.established
        assert replay_compatibility(verdict, F("[1; 0]"), F("[0; 1]"))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_coordinate_pair_in_three_variables(self, degree):
        verdict = check_compatibility(F("[1; 0; 0]"), F("[0; 1; 0]"), degree)
        assert verdict.condition_one.kind == "full-span"

    def test_same_direction_pair_not_established(self):
        # d2 = x1 d/dx1 is diagonal; kernels both avoid x1, so products
        # miss every monomial containing x1
        verdict = check_compatibility(F("[1; 0]"), F("[x1; 0]"), 2)
        assert verdict.condition_one.kind == "not-established"
        assert verdict.condition_two.kind == "not-established"
        ker = [(0, b) for b in range(3)]
        attainable = _brute_force_product_monomials(ker, ker, 2)
        assert (1, 0) not in attainable

    def test_degenerate_diagonal_pair_not_established(self):
        # d1 = d/dx2, d2 = x2 d/dx2: both kernels are polynomials in x1
        verdict = check_compatibility(F("[0; 1]"), F("[0; x2]"), 3)
        assert verdict.condition_one.kind == "not-established"
        assert verdict.condition_two.kind == "not-established"
        ker = [(a, 0) for a in range(4)]
        attainable = _brute_force_product_monomials(ker, ker, 3)
        assert all(exp[1] == 0 for exp in attainable)

    def test_candidate_ideal_search(self):
        # d2 = x1 d/dx1 - x2 d/dx2: products span the monomials with
        # x2-exponent >= x1-exponent, which swallow the truncated ideal
        # of x2^2 at degree 4 without being the full span
        verdict = check_compatibility(
            F("[1; 0]"), F("[x1; -x2]"), 4, candidate_ideals=[P("x2^2", 2)]
        )
        assert verdict.condition_one.kind == "ideal-found"
        assert verdict.condition_one.witness_ideal == P("x2^2", 2)
        assert replay_compatibility(verdict, F("[1; 0]"), F("[x1; -x2]"))

    def test_witness_combines_kernel_elements(self):
        # d1^2 sends the d2-invariants x2 and x1*x3 to 1 and 2, so the
        # witness is a kernel vector of d1^2 with two entries
        d1, d2 = F("[1; x1; 1]"), F("[x1; 0; -x3]")
        verdict = check_compatibility(d1, d2, 3)
        assert verdict.condition_two.a == P("x1*x3 - 2*x2", 3)
        assert verdict.condition_two.b == P("x3 - x1", 3)
        assert replay_compatibility(verdict, d1, d2)

    def test_unusable_candidate_stays_not_established(self):
        # any ideal of the full ring contains x1-multiples, which the
        # x1-free product span of the same-direction pair cannot reach
        verdict = check_compatibility(
            F("[1; 0]"), F("[x1; 0]"), 2, candidate_ideals=[P("x2", 2)]
        )
        assert verdict.condition_one.kind == "not-established"

    def test_monotone_in_degree(self):
        for degree in (2, 3):
            lo = check_compatibility(F("[1; 0]"), F("[0; 1]"), degree)
            hi = check_compatibility(F("[1; 0]"), F("[0; 1]"), degree + 1)
            assert lo.established and hi.established

    def test_rejects_non_nilpotent_first_derivation(self):
        with pytest.raises(PreconditionError):
            check_compatibility(F("[x1; 0]"), F("[0; 1]"), 2)


class TestLieClosure:
    @pytest.mark.parametrize("degree", [2, 3, 4])
    def test_shear_family_span_dimension(self, degree):
        gens = shear_generator_family(degree, 2)
        targets = monomial_field_targets(2, degree)
        cert = lie_closure(gens, degree, targets=targets)
        assert cert.span_dimension == 2 * math.comb(degree + 2, 2)
        assert cert.all_targets_established
        assert replay_closure(cert)

    def test_single_abelian_generator(self):
        cert = lie_closure([F("[1; 0]")], 2, targets=[F("[x1; 0]")])
        assert cert.span_dimension == 1
        assert not cert.targets[0].established

    def test_sl2_style_generators_contain_diagonal(self):
        cert = lie_closure(
            [F("[x2; 0]"), F("[0; x1]")], 1, targets=[F("[x1; -x2]")]
        )
        assert cert.targets[0].established
        assert replay_closure(cert)

    def test_monotone_in_degree_cap(self):
        gens = shear_generator_family(2, 2)
        targets = monomial_field_targets(2, 2)
        lo = lie_closure(gens, 2, targets=targets)
        hi = lie_closure(gens, 3, targets=targets)
        for a, b in zip(lo.targets, hi.targets):
            if a.established:
                assert b.established

    def test_certificate_json_round_trip(self):
        gens = shear_generator_family(2, 2)
        cert = lie_closure(gens, 2, targets=monomial_field_targets(2, 2))
        doc = cert.to_json_dict()
        text = json.dumps(doc, sort_keys=True)
        rebuilt = closure_from_json_dict(json.loads(text))
        assert replay_closure(rebuilt)
        assert rebuilt.span_dimension == cert.span_dimension

    def test_overweight_generator_rejected(self):
        with pytest.raises(PreconditionError):
            lie_closure([F("[x2^3; 0]")], 2)

    def test_target_beyond_cap_is_not_established(self):
        cert = lie_closure([F("[1; 0]")], 1, targets=[F("[x1^5; 0]")])
        assert not cert.targets[0].established
        assert cert.targets[0].reason == "target degree exceeds the cap"


def _set_index(doc, kind, past_end):
    """Move one index of a closure document out of its range [0, size).

    The index becomes `size`, or `index - size`: the negative index that
    Python would wrap to the same entry, so only a range check can catch it.
    """
    basis = doc["basis"]
    if kind == "generator-left":
        k = next(k for k, rec in enumerate(basis) if rec["source_kind"] == "generator")
        entry, key, size = basis[k], "left", len(doc["generators"])
    elif kind in ("bracket-left", "bracket-right"):
        # a bracket record may only name the k fields rebuilt before it
        k = next(k for k, rec in enumerate(basis) if rec["source_kind"] == "bracket")
        entry, key, size = basis[k], kind.removeprefix("bracket-"), k
    elif kind == "correction":
        k = next(k for k, rec in enumerate(basis) if rec["corrections"])
        entry, key, size = basis[k]["corrections"][0], 1, k
    else:
        target = next(t for t in doc["targets"] if t["established"])
        entry, key, size = target["combination"][0], 1, len(basis)
    entry[key] = size if past_end else entry[key] - size


@pytest.mark.parametrize("past_end", [False, True], ids=["negative-alias", "too-large"])
@pytest.mark.parametrize(
    "kind", ["generator-left", "bracket-left", "bracket-right", "correction", "target"]
)
def test_replay_rejects_an_index_out_of_range(kind, past_end):
    cert = lie_closure(shear_generator_family(3, 2), 3, targets=monomial_field_targets(2, 3))
    doc = json.loads(json.dumps(cert.to_json_dict()))
    assert replay_closure(closure_from_json_dict(doc))
    _set_index(doc, kind, past_end)
    assert not replay_closure(closure_from_json_dict(doc))


# ---------------------------------------------------------------------------
# lie_closure against a plain reference loop
# ---------------------------------------------------------------------------


def _reference_closure(generators, degree_cap, depth_cap, targets):
    """Every pair after the depth and degree filters, brackets from the definition."""
    nvars = generators[0].nvars
    basis = MonomialBasis(nvars, degree_cap)

    def coords(field):
        return {
            i * len(basis) + k: c
            for i, comp in enumerate(field.components)
            for k, c in basis.coords(comp).items()
        }

    span = TrackedSpan()
    fields, records = [], []
    discarded = 0

    def insert(raw, kind, left, right, depth):
        row = span.insert(coords(raw), source=(kind, left, right))
        if row is None:
            return
        scale, corrections = span.scales[row], tuple(span.corrections[row])
        combined = raw.scale(scale)
        for coeff, idx in corrections:
            combined = combined + fields[idx].scale(coeff)
        fields.append(combined)
        records.append(BasisRecord(kind, left, right, scale, corrections, depth))

    for k, gen in enumerate(generators):
        if not gen.is_zero():
            insert(gen, "generator", k, None, 0)
    frontier = list(range(len(fields)))
    while frontier:
        round_start = len(fields)
        for j in frontier:
            for i in range(j):
                depth = max(records[i].depth, records[j].depth) + 1
                if depth > depth_cap:
                    continue
                if fields[i].degree + fields[j].degree - 1 > degree_cap:
                    discarded += 1
                    continue
                bracket = bracket_by_definition(fields[i], fields[j])
                if bracket.is_zero():
                    continue
                if bracket.degree > degree_cap:
                    discarded += 1
                    continue
                insert(bracket, "bracket", i, j, depth)
        frontier = list(range(round_start, len(fields)))

    target_records = []
    for target in targets:
        if target.degree > degree_cap:
            target_records.append(
                TargetRecord(target, False, None, "target degree exceeds the cap")
            )
            continue
        remainder, combo = span.reduce(coords(target))
        if remainder:
            target_records.append(TargetRecord(target, False, None, "not in the truncated span"))
        else:
            target_records.append(TargetRecord(target, True, tuple(combo)))
    return LieClosureCertificate(
        nvars, degree_cap, depth_cap, list(generators), records, target_records,
        len(fields), max((rec.depth for rec in records), default=0), discarded,
    )


def _assert_closure_matches_reference(generators, degree_cap, depth_cap, targets):
    cert = lie_closure(generators, degree_cap, depth_cap, targets)
    expected = _reference_closure(generators, degree_cap, depth_cap, targets)
    assert cert.to_json_dict() == expected.to_json_dict()
    assert replay_closure(cert)
    return cert


@st.composite
def _exponent(draw, nvars, degree):
    """An exponent vector of total degree <= degree."""
    exp = []
    for _ in range(nvars):
        exp.append(draw(st.integers(0, degree - sum(exp))))
    return draw(st.permutations(exp))


@st.composite
def homogeneous_families(draw):
    """Random monomial fields and same-weight sums; all weight-homogeneous."""
    nvars = draw(st.integers(1, 3))
    degree_cap = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        exp = tuple(draw(_exponent(nvars, degree_cap)))
        index = draw(st.integers(0, nvars - 1))
        weight = [e - (k == index) for k, e in enumerate(exp)]
        comps = [Poly.zero(nvars)] * nvars
        if draw(st.booleans()):
            comps[index] = Poly.monomial(nvars, exp, draw(gaussian_rationals))
        else:
            # every x^(w + e_k) d/dx_k of the same weight w, with random coefficients
            for k in range(nvars):
                shifted = [w + (j == k) for j, w in enumerate(weight)]
                if min(shifted) >= 0:
                    comps[k] = Poly.monomial(nvars, shifted, draw(gaussian_rationals))
        gens.append(VectorField(comps))
    return gens, degree_cap, draw(st.integers(1, 4))


@st.composite
def inhomogeneous_families(draw):
    """Random fields whose terms mostly have different weights."""
    nvars = draw(st.integers(1, 3))
    degree_cap = draw(st.integers(1, 3))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        comps = []
        for _ in range(nvars):
            terms = {
                tuple(draw(_exponent(nvars, degree_cap))): draw(gaussian_rationals)
                for _ in range(draw(st.integers(0, 2)))
            }
            comps.append(Poly(nvars, terms))
        gens.append(VectorField(comps))
    return gens, degree_cap, draw(st.integers(1, 3))


@settings(max_examples=80, deadline=None)
@given(homogeneous_families())
@example(([F("[x2^2; 0]"), F("[0; x1]")], 3, 6))
@example((shear_generator_family(3, 2), 3, 6))
@example((shear_generator_family(2, 3), 2, 6))
@example(([F("[x2; 0]"), F("[0; x1]"), F("[x1; -x2]")], 2, 4))
def test_closure_matches_reference_on_homogeneous_families(family):
    gens, degree_cap, depth_cap = family
    _assert_closure_matches_reference(
        gens, degree_cap, depth_cap, monomial_field_targets(gens[0].nvars, degree_cap)
    )


@settings(max_examples=60, deadline=None)
@given(inhomogeneous_families())
@example(([F("[1; 0; 0]"), F("[0; x1 - x3^2; 0]")], 2, 3))
def test_closure_matches_reference_on_inhomogeneous_families(family):
    gens, degree_cap, depth_cap = family
    _assert_closure_matches_reference(
        gens, degree_cap, depth_cap, monomial_field_targets(gens[0].nvars, degree_cap)
    )


@pytest.mark.parametrize(
    "generators, degree_cap",
    [
        # not weight-homogeneous: x2 - x3^2 mixes the weights of x2 and x3^2
        (["[x2 - x3^2; 0; 0]", "[0; x3^2; 0]", "[0; 0; x1*x2]", "[x3; 0; 1]"], 3),
        # homogeneous; [x3^3 d1, x3^3 d2] has weight (-1, -1, 6), a space of
        # dimension 0 beyond the cap, so it must be discarded, not skipped
        (["[x3^3; 0; 0]", "[0; x3^3; 0]", "[x1; 0; 0]", "[0; 0; x1*x2]"], 4),
    ],
    ids=["inhomogeneous", "homogeneous"],
)
def test_closure_matches_reference_when_the_cap_discards(generators, degree_cap):
    gens = [parse_vector_field(text) for text in generators]
    cert = _assert_closure_matches_reference(
        gens, degree_cap, 3, monomial_field_targets(gens[0].nvars, degree_cap)
    )
    assert cert.discarded_brackets > 0


class TestOrbitSpan:
    def test_rank_one_update_reaches_full_plane(self):
        e1 = [Scalar.exact(1), Scalar.exact(0)]
        e2 = [Scalar.exact(0), Scalar.exact(1)]
        update = isotropy_update(e2, e1)  # w -> w + (e2 . w) e1
        report = orbit_span_closure([e2], [update])
        assert report.dimension == 2
        assert report.full

    def test_no_maps_no_growth(self):
        e1 = [Scalar.exact(1), Scalar.exact(0), Scalar.exact(0)]
        report = orbit_span_closure([e1], [])
        assert report.dimension == 1
        assert not report.full

    def test_spanning_seeds_stay_full(self):
        basis = [
            [Scalar.exact(1 if i == j else 0) for j in range(3)] for i in range(3)
        ]
        update = isotropy_update(basis[0], basis[2])
        report = orbit_span_closure(basis, [update])
        assert report.full

    def test_invariant_under_reordering(self):
        e1 = [Scalar.exact(1), Scalar.exact(0), Scalar.exact(0)]
        e2 = [Scalar.exact(0), Scalar.exact(1), Scalar.exact(0)]
        m1 = isotropy_update(e2, e1)
        m2 = isotropy_update(e1, [Scalar.exact(0), Scalar.exact(0), Scalar.exact(1)])
        a = orbit_span_closure([e1, e2], [m1, m2])
        b = orbit_span_closure([e2, e1], [m2, m1])
        assert a.dimension == b.dimension
        assert a.basis == b.basis


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_exact_det_matches_the_determinant_polynomial(data):
    n = data.draw(st.integers(1, 5))
    rows = data.draw(
        st.lists(st.lists(gaussian_rationals, min_size=n, max_size=n), min_size=n, max_size=n)
    )
    if data.draw(st.booleans()):
        # singular: the zero 1x1 matrix, or one row a multiple (possibly zero) of another
        i, j = data.draw(st.permutations(range(n)))[:2] if n > 1 else (0, 0)
        c = Scalar.exact(0) if n == 1 else data.draw(gaussian_rationals)
        rows[j] = [c * x for x in rows[i]]
        assert _exact_det(rows).is_zero()
    point = [x for row in rows for x in row]
    assert _exact_det(rows) == determinant_poly(n).evaluate(point)


class TestSpecialLinearDemo:
    def test_sampled_points_have_exact_determinant_one(self):
        det = determinant_poly(2)
        for point in sample_sl_points(2, 25, seed=5):
            assert det.evaluate(point) == Scalar.exact(1)

    def test_identity_matrix_satisfies_constraint(self):
        det = determinant_poly(3)
        identity = [
            Scalar.exact(1 if i == j else 0) for i in range(3) for j in range(3)
        ]
        assert det.evaluate(identity) == Scalar.exact(1)

    def test_three_by_three_sampling(self):
        det = determinant_poly(3)
        points = sample_sl_points(3, 100, seed=11)
        assert len(points) == 100
        one = Scalar.exact(1)
        for point in points:
            assert (det.evaluate(point) - one).is_zero()

    def test_tangency_is_symbolic_and_sampled(self):
        d1, d2 = sl_pair_derivations(2)
        det = determinant_poly(2)
        assert d1.apply(det).is_zero()
        assert d2.apply(det).is_zero()

    def test_row_shear_values(self):
        d1, d2 = sl_pair_derivations(2)
        assert d1.apply(matrix_variable(2, 0, 0)) == matrix_variable(2, 1, 0)
        assert d1.apply(matrix_variable(2, 1, 0)).is_zero()
        assert d2.apply(matrix_variable(2, 1, 1)) == matrix_variable(2, 0, 1)

    def test_verify_on_variety_detects_perturbation(self):
        d1, _ = sl_pair_derivations(2)
        det = determinant_poly(2)
        ideal = [det - P("1", 4)]
        points = sample_sl_points(2, 50, seed=3)
        same = verify_on_variety(d1, d1, ideal, points)
        assert same.holds_on_samples and same.points_tested == 50
        perturbed = d1 + VectorField.monomial(4, 0, P("x1", 4))
        broken = verify_on_variety(d1, perturbed, ideal, points)
        assert not broken.holds_on_samples
        assert broken.failures

    def test_off_variety_point_is_a_precondition_error(self):
        d1, d2 = sl_pair_derivations(2)
        det = determinant_poly(2)
        bad_point = [Scalar.exact(1)] * 4
        with pytest.raises(PreconditionError):
            verify_on_variety(d1, d2, [det - P("1", 4)], [bad_point])
