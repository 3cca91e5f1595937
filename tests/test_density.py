import json
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from shearkit import density, subvariety
from shearkit.density import (
    BasisRecord,
    _ideal_ceiling,
    _product_span,
    _weight,
    _weight_bracket,
    LieClosureCertificate,
    TargetRecord,
    check_compatibility,
    closure_from_json_dict,
    degree_one_violations,
    determinant_poly,
    exact_det,
    isotropy_update,
    left_multiplier_trace,
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
    verify_shear_identity,
)
from shearkit.errors import ArityMismatch, PreconditionError, ShearKitError
from shearkit.fields import VectorField, kernel_basis, parse_vector_field
from shearkit.linalg import TrackedSpan, nullspace
from shearkit.poly import MonomialBasis, Poly, grlex_key, parse_poly
from shearkit.scalars import ONE, Scalar
from shearkit.subvariety import SubvarietyInput, codim2_module_certificate

from conftest import (
    bracket_by_definition,
    gaussian_rationals,
    model_degree_one_witness,
    random_exact_poly,
)


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


@pytest.mark.parametrize(
    "a, violations",
    [
        ("x1", []),
        ("1", ["a must have degree exactly 1 with respect to d1 (d1(a) = 0)"]),
        ("x2", ["a must lie in Ker d2",
                "a must have degree exactly 1 with respect to d1 (d1(a) = 0)"]),
        ("x1^2", ["d1(a) must lie in Ker d1"]),
        ("x1*x2", ["a must lie in Ker d2"]),
    ],
)
def test_degree_one_violations_name_each_failed_condition(a, violations):
    # one rule for verify_compat_identity, replay_compatibility and sl-demo's witness
    d1, d2 = F("[1; 0]"), F("[0; 1]")
    b, found = degree_one_violations(d1, d2, P(a, 2))
    assert b == d1.apply(P(a, 2)) and found == violations
    if violations:
        with pytest.raises(PreconditionError) as raised:
            verify_compat_identity(d1, d2, P(a, 2), P("x2", 2), P("x1", 2))
        assert raised.value.violations == violations


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

    # any ideal of the full ring contains x1-multiples, which the x1-free product
    # span of the same-direction pair cannot reach; a zero candidate and one above
    # the degree bound have no multiples at all, so only their guard rejects them
    @pytest.mark.parametrize("candidate", ["x2", "0", "x2^3"])
    def test_unusable_candidate_stays_not_established(self, candidate):
        verdict = check_compatibility(
            F("[1; 0]"), F("[x1; 0]"), 2, candidate_ideals=[P(candidate, 2)]
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


@st.composite
def _triangular_field(draw, nvars):
    """Locally nilpotent: in a drawn variable order, component k uses only earlier variables."""
    order = draw(st.permutations(range(nvars)))
    comps = [Poly.zero(nvars)] * nvars
    for k, i in enumerate(order):
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            exp = [0] * nvars
            for _ in range(draw(st.integers(0, 2 if k else 0))):
                exp[draw(st.sampled_from(order[:k]))] += 1
            terms[tuple(exp)] = draw(gaussian_rationals)
        comps[i] = Poly(nvars, terms)
    return VectorField(comps)


@st.composite
def compatibility_inputs(draw):
    """d1 triangular; d2 triangular or diagonal, sum c_i x_i d/dx_i with small integer c_i."""
    nvars = draw(st.integers(2, 4))
    d1 = draw(_triangular_field(nvars))
    if draw(st.booleans()):
        d2 = draw(_triangular_field(nvars))
    else:
        weights = draw(st.lists(st.integers(-2, 2), min_size=nvars, max_size=nvars))
        d2 = VectorField([
            Poly.monomial(nvars, [int(k == i) for k in range(nvars)], Scalar.exact(c))
            for i, c in enumerate(weights)
        ])
    return d1, d2, draw(st.integers(1, 4))


@settings(max_examples=60, deadline=None)
@given(compatibility_inputs())
# candidates 1, x3, x2 and higher ones, several with d1(a) != 0: the smallest, x3, wins
@example((F("[0; 1; 1]"), F("[1; 0; 0]"), 3))
@example((F("[1; x1; 1]"), F("[x1; 0; -x3]"), 3))
@example((F("[0; x1]"), F("[x1; -x2]"), 4))
def test_witness_is_the_smallest_reduced_candidate(inputs):
    d1, d2, degree = inputs
    for field in (d1, d2):
        leading = [grlex_key(max(p.terms, key=grlex_key)) for p in kernel_basis(field, degree)]
        assert all(lo < hi for lo, hi in zip(leading, leading[1:]))
    two = check_compatibility(d1, d2, degree).condition_two
    expected = model_degree_one_witness(d1, d2, degree)
    if expected is None:
        assert (two.kind, two.a, two.b) == ("not-established", None, None)
    else:
        assert (two.kind, two.a, two.b) == ("witness-found", *expected)


# small Gaussian integers a + b i, zero included
_gaussian_integers = st.builds(Scalar.exact, st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def _small_derivation(draw, nvars, diagonal):
    """Diagonal, sum c_i x_i d/dx_i, or nilpotent triangular: in a drawn variable
    order, component k is a polynomial in the variables before it."""
    order = draw(st.permutations(range(nvars)))
    comps = [Poly.zero(nvars)] * nvars
    for k, i in enumerate(order):
        unit = tuple(int(v == i) for v in range(nvars))
        exps = [unit] if diagonal else [
            tuple(draw(st.integers(0, 2)) if v in order[:k] else 0 for v in range(nvars))
            for _ in range(draw(st.integers(0, 2)))
        ]
        comps[i] = Poly(nvars, {exp: draw(_gaussian_integers) for exp in exps})
    return VectorField(comps)


@st.composite
def small_compatibility_inputs(draw):
    """(d1, d2, degree, candidate): d1 nilpotent, d2 nilpotent or diagonal, n <= 3, d <= 5."""
    nvars = draw(st.integers(1, 3))
    d1 = draw(_small_derivation(nvars, False))
    d2 = draw(_small_derivation(nvars, draw(st.booleans())))
    candidate = Poly.monomial(nvars, [draw(st.integers(0, 2)) for _ in range(nvars)], ONE)
    return d1, d2, draw(st.integers(0, 5)), candidate


def _kernel_basis_through_apply(field, degree):
    """kernel_basis through `VectorField.apply` on one `Poly` per basis monomial."""
    basis = MonomialBasis(field.nvars, degree)
    columns = [field.apply(Poly.monomial(field.nvars, exp, ONE)).terms for exp in basis]
    return [
        Poly(field.nvars, {basis.exponents[i]: value for i, value in vec.items()})
        for vec in nullspace(columns)
    ]


def _product_span_through_poly(basis, ker1, ker2):
    """The product span from `Poly` products and `basis.coords`, with no sources."""
    span = TrackedSpan()
    for k1 in ker1:
        for k2 in ker2:
            product = k1 * k2
            if product.degree <= basis.degree:
                span.insert(basis.coords(product))
    return span


def _assert_rows_rebuild_from_sources(span, basis, ker1, ker2):
    """Each source (i, j) is a product within the bound, and each row equals
    sum c * ker1[i] * ker2[j] over its expanded sources."""
    assert all(
        i in range(len(ker1)) and j in range(len(ker2))
        and ker1[i].degree + ker2[j].degree <= basis.degree
        for i, j in span.sources
    )
    for row, vector in enumerate(span.vectors):
        total = Poly.zero(basis.nvars)
        for (i, j), coeff in span.expand_row(row).items():
            total = total + (ker1[i] * ker2[j]).scale(coeff)
        assert basis.coords(total) == vector


@pytest.mark.parametrize("d1,d2,degree", [
    ("[1; 0; 0]", "[0; 0; 1]", 4),
    ("[0; x1; x2]", "[1; 0; 0]", 5),
    ("[0; x1]", "[x1; -x2]", 6),
    ("[0; 0; x1]", "[0; 0; x2]", 5),
])
def test_product_span_rows_expand_into_kernel_products(d1, d2, degree):
    d1, d2 = F(d1), F(d2)
    basis = MonomialBasis(d1.nvars, degree)
    ker1, ker2 = kernel_basis(d1, degree), kernel_basis(d2, degree)
    span = _product_span(basis, ker1, ker2)
    assert span.dimension == check_compatibility(d1, d2, degree).product_span_dimension
    _assert_rows_rebuild_from_sources(span, basis, ker1, ker2)


@settings(max_examples=60, deadline=None)
@given(small_compatibility_inputs())
@example((F("[1; 0]"), F("[x1; -x2]"), 4, P("x2^2", 2)))
@example((F("[0; 1; x1]"), F("[(1+i)*x1; 0; -2*x3]"), 4, P("x1", 3)))
@example((F("[0; x1; x2]"), F("[1; 0; 0]"), 5, P("1", 3)))
def test_compatibility_matches_the_poly_product_model(inputs):
    d1, d2, degree, candidate = inputs
    for field in (d1, d2):
        assert kernel_basis(field, degree) == _kernel_basis_through_apply(field, degree)
    basis = MonomialBasis(d1.nvars, degree)
    ker1, ker2 = kernel_basis(d1, degree), kernel_basis(d2, degree)
    span = _product_span(basis, ker1, ker2)
    model = _product_span_through_poly(basis, ker1, ker2)
    assert span.pivots == model.pivots
    _assert_rows_rebuild_from_sources(span, basis, ker1, ker2)

    verdict = check_compatibility(d1, d2, degree, candidate_ideals=[candidate])
    assert verdict.product_span_dimension == model.dimension
    if model.dimension == len(basis):
        kind = "full-span"
    elif candidate.degree <= degree and all(
        model.contains(basis.coords(candidate * Poly.monomial(d1.nvars, exp, ONE)))
        for exp in MonomialBasis(d1.nvars, degree - candidate.degree)
    ):
        kind = "ideal-found"
    else:
        kind = "not-established"
    assert verdict.condition_one.kind == kind
    expected_two = model_degree_one_witness(d1, d2, degree)
    two = verdict.condition_two
    assert (two.a, two.b) == (expected_two or (None, None))


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
# the generators of codim2 on the axis line x1 = x2 = 0 at target degree 1
@example(([F(t) for t in ("[x2; 0; 0]", "[x1*x2; 0; 0]", "[x2^2; 0; 0]", "[x2*x3; 0; 0]",
                          "[0; x1; 0]", "[0; x1^2; 0]", "[0; x1*x2; 0]", "[0; x1*x3; 0]")], 3, 6))
@example((shear_generator_family(2, 4), 2, 3))
def test_closure_matches_reference_on_homogeneous_families(family):
    gens, degree_cap, depth_cap = family
    _assert_closure_matches_reference(
        gens, degree_cap, depth_cap, monomial_field_targets(gens[0].nvars, degree_cap)
    )


@st.composite
def ideal_families(draw):
    """Weight-homogeneous families without a constant term and with a component
    that is zero in every generator: a proper monomial ideal I and a nonempty Z."""
    nvars = draw(st.integers(2, 3))
    degree_cap = draw(st.integers(1, 3))
    live = draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=nvars - 1, unique=True))
    gens = []
    for _ in range(draw(st.integers(1, 5))):
        exp = tuple(draw(_exponent(nvars, degree_cap).filter(any)))
        index = draw(st.sampled_from(live))
        weight = [e - (k == index) for k, e in enumerate(exp)]
        comps = [Poly.zero(nvars)] * nvars
        # the field x^exp d/dx_index, or every live x^(w + e_k) d/dx_k of its weight w
        for k in [index] if draw(st.booleans()) else live:
            shifted = [w + (j == k) for j, w in enumerate(weight)]
            if min(shifted) >= 0 and any(shifted):
                comps[k] = Poly.monomial(nvars, shifted, draw(gaussian_rationals))
        gens.append(VectorField(comps))
    return gens, degree_cap, draw(st.integers(1, 4))


@settings(max_examples=80, deadline=None)
@given(ideal_families())
# I = (x1, x2) and Z = {3}: the generators of codim2 on the axis line at target degree 1
@example(([F(t) for t in ("[x2; 0; 0]", "[x1*x2; 0; 0]", "[x2^2; 0; 0]", "[x2*x3; 0; 0]",
                          "[0; x1; 0]", "[0; x1^2; 0]", "[0; x1*x2; 0]", "[0; x1*x3; 0]")], 3, 4))
# a non-reduced I = (x1^2, x2) with Z = {3}
@example(([F(t) for t in ("[x2; 0; 0]", "[x2^2; 0; 0]", "[0; x1^2; 0]", "[0; x1^3; 0]")], 3, 4))
def test_closure_matches_reference_on_proper_ideal_families(family):
    gens, degree_cap, depth_cap = family
    _assert_closure_matches_reference(
        gens, degree_cap, depth_cap, monomial_field_targets(gens[0].nvars, degree_cap)
    )


def _basis_fields(cert):
    """The basis fields, rebuilt from the records as `replay_closure` rebuilds them."""
    fields = []
    for rec in cert.basis:
        if rec.source_kind == "generator":
            raw = cert.generators[rec.left]
        else:
            raw = fields[rec.left].bracket(fields[rec.right])
        combined = raw.scale(rec.scale)
        for coeff, idx in rec.corrections:
            combined = combined + fields[idx].scale(coeff)
        fields.append(combined)
    return fields


def _divergence(field):
    return sum((comp.partial(i) for i, comp in enumerate(field.components)), Poly.zero(field.nvars))


def _ceiling_model(generators, basis, powers, graph=None):
    """dim L'(J, Z) per grade up to the cap, as the nullity of the grade's monomial fields
    under V -> (V_k mod J, div V mod J), or L(J, Z) when some generator's divergence
    leaves J.  J is the ideal of the graph x_k = graph[k], where p lies in J iff it
    vanishes after the substitution, or else the monomial ideal of the generators,
    where p mod J drops the terms that some generator monomial divides."""
    n = basis.nvars
    if graph:
        point = [graph.get(k, Poly.variable(n, k)) for k in range(n)]

        def normal(p):
            return p.substitute(point)
    else:
        monomials = [exp for gen in generators for comp in gen.components for exp in comp.terms]

        def normal(p):
            return Poly(n, {
                exp: c for exp, c in p.terms.items()
                if not any(all(e >= m for e, m in zip(exp, mono)) for mono in monomials)
            })

    refine = all(normal(_divergence(gen)).is_zero() for gen in generators)
    live = [i for i in range(n) if any(not gen.components[i].is_zero() for gen in generators)]
    grades = {}
    for exp in basis:
        for i in live:
            field = VectorField.monomial(n, i, Poly.monomial(n, exp, Scalar.exact(1)))
            image = {(i, m): c for m, c in normal(field.components[i]).terms.items()}
            if refine:
                image.update({(-1, m): c for m, c in normal(_divergence(field)).terms.items()})
            weight = [e - (k == i) for k, e in enumerate(exp)]
            grades.setdefault(sum(w * m for w, m in zip(weight, powers)), []).append(image)
    model = {}
    for grade, images in grades.items():
        labels, span = {}, TrackedSpan()
        for image in images:
            span.insert({labels.setdefault(label, len(labels)): c for label, c in image.items()})
        if len(images) > span.dimension:
            model[grade] = len(images) - span.dimension
    return model


def _coset(reduced, weight):
    """The representative of weight + (the Q-span of the reduced rows) that is 0 at every pivot."""
    vec = [Scalar.exact(w) for w in weight]
    for pivot, row in reduced.items():
        factor = vec[pivot]
        if factor:
            for k, c in row.items():
                vec[k] = vec[k] - factor * c
    return tuple(vec)


def _assert_rows_within_ceiling(cert, graph=None):
    generators = [gen for gen in cert.generators if not gen.is_zero()]
    pieces = [density._weight_pieces(gen) for gen in generators]
    basis = MonomialBasis(cert.nvars, cert.degree_cap)
    powers = density._grading(pieces, basis)

    def key(weight):
        return sum(w * m for w, m in zip(weight, powers))

    # the finest grading: two weights up to the cap share a key iff they differ by a
    # rational combination of the differences between one generator's piece weights
    diffs = TrackedSpan()
    for p in pieces:
        first = next(iter(p))
        for w in p:
            diff = [a - b for a, b in zip(w, first)]
            diffs.insert({k: Scalar.exact(d) for k, d in enumerate(diff) if d})
    reduced = diffs.reduced_rows()
    weights = {exp[:i] + (exp[i] - 1,) + exp[i + 1:] for exp in basis for i in range(cert.nvars)}
    cosets = {}
    for w in weights:
        cosets.setdefault(key(w), set()).add(_coset(reduced, w))
    assert all(len(found) == 1 for found in cosets.values())
    assert len(set().union(*cosets.values())) == len(cosets)

    on_graph = None if graph is None else density._graph_images(generators, graph, cert.nvars)
    ceiling = _ideal_ceiling(basis, pieces, powers, on_graph)
    # a grade of count 0 may be listed or not: either way its pairs are skipped
    model = _ceiling_model(generators, basis, powers, graph)
    assert {g: c for g, c in ceiling.items() if c} == model
    rows = {}
    for field in _basis_fields(cert):
        grades = {key(w) for w in density._weight_pieces(field)}
        assert len(grades) == 1  # every row is homogeneous
        (grade,) = grades
        rows[grade] = rows.get(grade, 0) + 1
    assert all(count <= ceiling[grade] for grade, count in rows.items())
    # the ceiling is reached: those grades' later brackets are not computed
    assert any(count == ceiling[grade] for grade, count in rows.items())


def _codim2_closure(generators, nvars, degree):
    data = SubvarietyInput(nvars, tuple(P(g, nvars) for g in generators))
    return codim2_module_certificate(data, degree).closure


# families whose generators each have one weight: the grading is by weight, and J is
# the generators' monomial ideal (codim2 on a coordinate subspace passes no graph)
@pytest.mark.parametrize(
    "build",
    [
        lambda: lie_closure(shear_generator_family(5, 2), 5),
        lambda: lie_closure(shear_generator_family(3, 3), 3),
        lambda: _codim2_closure(["x1", "x2"], 3, 4),
        lambda: _codim2_closure(["x1*x2", "x3"], 3, 4),
        lambda: _codim2_closure(["x1^2", "x2"], 3, 4),
        lambda: _codim2_closure(["x1", "x2"], 4, 3),
    ],
    ids=["shear2-D5", "shear3-D3", "codim2-axis-d4", "codim2-monomial-ideal-d4",
         "codim2-square-d4", "codim2-axis-c4-d3"],
)
def test_no_weight_holds_more_rows_than_its_ceiling(build):
    _assert_rows_within_ceiling(build())


def _graph_closure(generators, graph, degree):
    """codim2 on X = V(generators) in C^3, which `subvariety._graph` reads as this graph."""
    data = SubvarietyInput(3, tuple(P(g, 3) for g in generators))
    assert subvariety._graph(data) == {k: P(q, 3) for k, q in graph.items()}
    return codim2_module_certificate(data, degree).closure, {k: P(q, 3) for k, q in graph.items()}


@pytest.mark.parametrize(
    "build",
    [
        lambda: _graph_closure(["x1", "x2-x3^2"], {0: "0", 1: "x3^2"}, 3),
        lambda: _graph_closure(["x1-x3^2", "x2-x3^3"], {0: "x3^2", 1: "x3^3"}, 3),
        # div(x1 d/dx1) = 1 leaves J = (x1): L(J, Z) is the ceiling, not L'(J, Z)
        lambda: (lie_closure([F("[x1; 0]"), F("[0; x1^2]"), F("[x1*x2; x1]")], 3), None),
    ],
    ids=["codim2-parabola-d3", "codim2-twisted-cubic-d3", "divergence-outside-J-D3"],
)
def test_no_grade_holds_more_rows_than_its_ceiling(build):
    cert, graph = build()
    _assert_rows_within_ceiling(cert, graph)


@pytest.mark.parametrize(
    "build",
    [
        lambda: lie_closure(shear_generator_family(4), 4),
        lambda: _codim2_closure(["x1", "x2"], 3, 3),
        lambda: _codim2_closure(["x1*x2", "x3"], 3, 4),
        lambda: _codim2_closure(["x1", "x2-x3^2"], 3, 3),
    ],
    ids=["shear2-D4", "codim2-axis-d3", "codim2-monomial-ideal-d4", "codim2-parabola-d3"],
)
def test_closure_span_holds_the_certificate_provenance(build):
    cert = build()
    basis = MonomialBasis(cert.nvars, cert.degree_cap)
    span = TrackedSpan()
    records, _ = density._closure(cert.generators, basis, span, cert.depth_cap)
    # so span.expand_row(k) is row k over the sources, as the record says
    assert records == cert.basis
    assert span.dimension == len(records)
    for k, rec in enumerate(records):
        assert span.scales[k] == rec.scale
        assert tuple(span.corrections[k]) == rec.corrections


@pytest.mark.parametrize(
    "build",
    [
        lambda: _codim2_closure(["x1", "x2-x3^2"], 3, 3),
        lambda: lie_closure([F("[x2 + x2^2; 0]"), F("[0; x1]")], 4),
    ],
    ids=["codim2-parabola-d3", "mixed-weights-D4"],
)
def test_inhomogeneous_closure_brackets_in_weight_coordinates(monkeypatch, build):
    calls = []
    bracket = VectorField.bracket
    monkeypatch.setattr(VectorField, "bracket", lambda *args: calls.append(1) or bracket(*args))
    cert = build()
    assert any(_weight(gen) is None for gen in cert.generators)
    assert cert.span_dimension > len(cert.generators) and not calls


def test_codim2_axis_skips_the_brackets_above_the_ceiling(monkeypatch):
    # skipping only the weights whose whole space is spanned leaves 35,385 brackets here
    calls = []
    bracket = density._weight_bracket
    monkeypatch.setattr(density, "_weight_bracket", lambda *args: calls.append(1) or bracket(*args))
    _codim2_closure(["x1", "x2"], 3, 6)
    assert len(calls) <= 35_385 // 10


def test_a_graph_ideal_must_be_a_graph_that_holds_every_generator_component():
    # x1 d/dx1 is not zero on the graph x1 = x3^2, so that ideal bounds nothing
    with pytest.raises(PreconditionError, match="does not vanish on the graph"):
        lie_closure([F("[x1; 0; 0]"), F("[0; x3; 0]")], 3, ideal={0: P("x3^2", 3)})
    # x1 = x2, x2 = x3 is no graph over x3: substitution would not test membership
    with pytest.raises(PreconditionError, match="depends on a graph coordinate"):
        lie_closure([F("[x1 - x2; 0; 0]")], 3, ideal={0: P("x2", 3), 1: P("x3", 3)})
    # with every q_k = 0 the graph is x1 = 0, which x2 d/dx2 does not vanish on either
    with pytest.raises(PreconditionError, match="does not vanish on the graph"):
        lie_closure([F("[x1; 0; 0]"), F("[0; x2; 0]")], 3, ideal={0: P("0", 3)})
    # a key outside the coordinates, or a value in other variables, is no graph in C^3
    for ideal in ({3: P("0", 3)}, {-1: P("0", 3)}, {0: P("x2", 2)}):
        with pytest.raises(PreconditionError, match="is no value of one of 3 coordinates"):
            lie_closure([F("[x1; 0; 0]")], 3, ideal=ideal)


def test_codim2_parabola_skips_the_brackets_above_the_ceiling(monkeypatch):
    # bracketing every pair within the caps computes 63,938 piece brackets here
    calls = []
    bracket = density._weight_bracket
    monkeypatch.setattr(density, "_weight_bracket", lambda *args: calls.append(1) or bracket(*args))
    _codim2_closure(["x1", "x2-x3^2"], 3, 6)
    assert len(calls) <= 63_938 // 5


@st.composite
def graph_subvarieties(draw):
    """X = {x1 = c x3^a, x2 = c' x3^b} in C^3 (c = 0 included) and a target degree."""
    a, b = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    gens = []
    for k, e in ((0, a), (1, b)):
        q = Poly.monomial(3, (0, 0, e), draw(gaussian_rationals))
        gens.append(Poly.variable(3, k) - q)
    return SubvarietyInput(3, tuple(gens)), draw(st.integers(max(1, a, b), 3))


@settings(max_examples=25, deadline=None)
@given(graph_subvarieties())
@example((SubvarietyInput(3, (P("x1", 3), P("x2-x3^2", 3))), 2))
@example((SubvarietyInput(3, (P("x1-x3^2", 3), P("x2-x3^3", 3))), 3))
def test_codim2_on_a_graph_matches_reference(case):
    data, degree = case
    assert subvariety._graph(data) is not None
    closure = codim2_module_certificate(data, degree).closure
    expected = _reference_closure(
        closure.generators, closure.degree_cap, closure.depth_cap,
        [record.target for record in closure.targets],
    )
    assert closure.to_json_dict() == expected.to_json_dict()


@st.composite
def _weight_field(draw, nvars):
    """(weight, {i: c_i}) with every c_i x^(weight + e_i) d/dx_i a polynomial field."""
    weight = tuple(draw(st.lists(st.integers(-1, 2), min_size=nvars, max_size=nvars)))
    coords = {}
    for i in range(nvars):
        if all(w + (k == i) >= 0 for k, w in enumerate(weight)):
            c = draw(gaussian_rationals)
            if c:
                coords[i] = c
    return weight, coords


def _from_weight_coords(nvars, weight, coords):
    comps = [Poly.zero(nvars)] * nvars
    for i, c in coords.items():
        comps[i] = Poly.monomial(nvars, [w + (k == i) for k, w in enumerate(weight)], c)
    return VectorField(comps)


@st.composite
def homogeneous_pairs(draw):
    nvars = draw(st.integers(1, 4))
    alpha, c = draw(_weight_field(nvars))
    if draw(st.booleans()):
        beta, d = draw(_weight_field(nvars))
    else:
        # a multiple of the first field, whose bracket with it is zero
        factor = draw(gaussian_rationals)
        beta, d = alpha, {i: factor * v for i, v in c.items() if factor}
    return nvars, (alpha, c), (beta, d)


@settings(max_examples=200, deadline=None)
@given(homogeneous_pairs())
@example((2, ((-1, 1), {0: Scalar.exact(1)}), ((1, -1), {1: Scalar.exact(1)})))
@example((3, ((0, 0, 0), {0: Scalar.exact(1)}), ((0, 0, 0), {1: Scalar.exact(2)})))
@example((3, ((-1, 0, 2), {0: Scalar.exact(1)}), ((0, -1, 1), {1: Scalar.exact(1, 1)})))
def test_weight_coordinate_bracket_is_the_lie_bracket(pair):
    nvars, (alpha, c), (beta, d) = pair
    v = _from_weight_coords(nvars, alpha, c)
    w = _from_weight_coords(nvars, beta, d)
    weight = tuple(a + b for a, b in zip(alpha, beta))
    closed_form = _from_weight_coords(nvars, weight, _weight_bracket(alpha, c, beta, d))
    assert closed_form == v.bracket(w)
    assert closed_form == bracket_by_definition(v, w)


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
        assert exact_det(rows).is_zero()
    point = [x for row in rows for x in row]
    assert exact_det(rows) == determinant_poly(n).evaluate(point)


def test_determinant_poly_refuses_more_terms_than_the_basis_budget():
    # 9! = 362,880 terms, over poly.MAX_BASIS_SIZE, refused before any is built
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match="362880 terms"):
            determinant_poly(9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def _left_multiplication(n, matrix):
    """The field M -> A M, c_ij -> sum_k A_ik c_kj, for A = matrix."""
    return VectorField([
        sum((matrix_variable(n, k, j).scale(matrix[i][k]) for k in range(n)), Poly.zero(n * n))
        for i in range(n) for j in range(n)
    ])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_left_multiplier_trace_is_jacobis_factor(data):
    n = data.draw(st.integers(1, 5))
    matrix = data.draw(st.lists(
        st.lists(_gaussian_integers, min_size=n, max_size=n), min_size=n, max_size=n
    ))
    trace = sum((matrix[i][i] for i in range(n)), Scalar.exact(0))
    if data.draw(st.booleans()):
        matrix[-1][-1] = matrix[-1][-1] - trace
        trace = Scalar.exact(0)
    d = _left_multiplication(n, matrix)
    assert left_multiplier_trace(d, n) == trace
    det = determinant_poly(n)
    assert d.apply(det) == det.scale(trace)
    with pytest.raises(ArityMismatch):
        left_multiplier_trace(d, n + 1)

    # each refused shape, added to component c_ij with a nonzero coefficient c
    i, j, k, l = (data.draw(st.integers(0, n - 1)) for _ in range(4))
    c = data.draw(_gaussian_integers.filter(bool))
    nonlinear = data.draw(st.sampled_from([
        Poly.constant(n * n, c), matrix_variable(n, k, j) * matrix_variable(n, l, j).scale(c)
    ]))
    shapes = [(nonlinear, "own column")]
    if n > 1:
        other = (j + 1 + l % (n - 1)) % n
        # a term from another column, and A_ik changed in column j only
        shapes += [(matrix_variable(n, k, other).scale(c), "own column"),
                   (matrix_variable(n, k, j).scale(c), "different matrices")]
    for extra, message in shapes:
        comps = list(d.components)
        comps[i * n + j] = comps[i * n + j] + extra
        with pytest.raises(PreconditionError, match=message):
            left_multiplier_trace(VectorField(comps), n)


class TestSpecialLinearDemo:
    def test_sampled_points_have_exact_determinant_one(self):
        det = determinant_poly(2)
        for point in sample_sl_points(2, 25, seed=5):
            assert det.evaluate(point) == Scalar.exact(1)

    def test_sampler_raises_when_the_solved_entry_misses_det_one(self, monkeypatch):
        # an explicit check, which python -O keeps: every det reads 2, so the solved
        # entry gives det 2 and the sampler must refuse the matrix
        monkeypatch.setattr(density, "exact_det", lambda entries: ONE + ONE)
        with pytest.raises(ShearKitError, match="missed determinant one"):
            sample_sl_points(2, 1, seed=5)

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
