"""Shear fields vanishing on a codimension >= 2 algebraic subset.

Given generators of the defining ideal of X inside complex n-space, a
complete shear vanishing on X is built by projecting along a coordinate
direction: any polynomial h that avoids the projection direction and
lies in the (degree-truncated) ideal span yields the field h * d/dx_i,
which integrates to automorphisms fixing X pointwise.  Pairs of such
directions feed the bracket identity

    [f1 h1 d1, x1 f2 h2 d2] - [x1 f1 h1 d1, f2 h2 d2] = f1 f2 h1 h2 d2

whose right side sweeps out coefficient ideals, giving a truncated
module certificate.

Ideal membership is approximated throughout by linear algebra on the
span of monomial multiples of the generators up to a degree bound, so
all verdicts are one-sided; no Groebner machinery is used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ArityMismatch, PreconditionError
from .density import (
    DEFAULT_BRACKET_DEPTH,
    IdentityCheck,
    LieClosureCertificate,
    _check,
    lie_closure,
)
from .linalg import TrackedSpan
from .poly import MAX_BASIS_SIZE, MonomialBasis, Poly, grlex_key, monomial_multiples, parse_poly
from .scalars import ONE, Scalar
from .fields import VectorField, shear_pair_residual
from . import serialize

__all__ = [
    "SubvarietyInput",
    "EliminationResult",
    "VanishingShear",
    "eliminate_direction",
    "build_vanishing_shear",
    "verify_codim2_identity",
    "LocalIdentityReport",
    "verify_local_identities",
    "Codim2Certificate",
    "codim2_module_certificate",
]

# verify_local_identities refuses N^2 past this for the N = C(s + t - 1, s) terms of h^s: with
# h = x3 + ... + x(t + 2), t = 2 to 4, its checks took 30 to 70 us x N^2 on a 2-CPU Xeon, and
# the largest runs it accepts (t = 2 to 5, n up to 12) took 0.9 to 1.6 s there.  A product weighs
# 1 + s * b / LOCAL_TRIPLE_BITS_PER_PRODUCT for the b coefficient bits of h beyond a unit's: at
# s = 172, 123456789*x3 + 987654321*x4 (b = 29) took 17 times as long as x3 + x4 there
LOCAL_TRIPLE_MAX_PRODUCTS = 30_000
LOCAL_TRIPLE_BITS_PER_PRODUCT = 300


@dataclass(frozen=True)
class SubvarietyInput:
    """Defining data for X: ideal generators plus a codimension assertion.

    The codimension >= 2 claim belongs to the caller; it is spot-checked
    only through the existence of two independent directions with
    nonzero elimination output.
    """

    nvars: int
    generators: tuple[Poly, ...]

    def __post_init__(self):
        if self.nvars < 2:
            raise PreconditionError("subvariety constructions need at least two variables")
        if not self.generators:
            raise PreconditionError("at least one ideal generator is required")
        for gen in self.generators:
            if gen.nvars != self.nvars:
                raise ArityMismatch("ideal generators disagree on variable count")
            if gen.is_zero():
                raise PreconditionError("ideal generators must be nonzero")

    def to_json_dict(self) -> dict:
        return {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "subvariety-input",
            "nvars": self.nvars,
            "generators": [serialize.poly_to_text(g) for g in self.generators],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SubvarietyInput":
        serialize.require_keys(doc, "ideal file", nvars=int, generators=[str])
        nvars = doc["nvars"]
        gens = tuple(parse_poly(g, nvars) for g in doc["generators"])
        return cls(nvars, gens)


@dataclass(frozen=True)
class EliminationResult:
    """Polynomials without the projection coordinate inside the truncated span.

    `combinations[k]` expresses `elements[k]` as an exact sum of
    monomial multiples of the ideal generators: a list of
    (coefficient, (monomial exponent, generator index)) pairs.
    """

    axis: int
    degree: int
    elements: tuple[Poly, ...]
    combinations: tuple[tuple[tuple[Scalar, tuple[tuple[int, ...], int]], ...], ...]


def _ideal_span(
    data: SubvarietyInput, axis: int, basis: MonomialBasis
) -> tuple[TrackedSpan, dict[tuple[int, ...], int]]:
    """The span of every monomial multiple x^e * gen of degree <= basis.degree.

    Returns the span, whose row sources are (e, generator index), and its
    coordinate of each monomial: the `basis.coords` index, shifted by
    len(basis) when the monomial is free of x_axis.  So a row is free of
    x_axis exactly when its pivot is at least len(basis).
    """
    shift = len(basis)
    position = {exp: i + (0 if exp[axis] else shift) for i, exp in enumerate(basis)}
    span = TrackedSpan()
    for gen_idx, gen in enumerate(data.generators):
        for exp, product in monomial_multiples(gen, basis.degree):
            coords = {position[mon]: c for mon, c in product.terms.items()}
            span.insert(coords, source=(exp, gen_idx))
    return span, position


def eliminate_direction(
    data: SubvarietyInput, axis: int, degree: int
) -> EliminationResult:
    """Basis of {g : deg g <= degree, g has no x_axis, g in the truncated span}.

    The truncated span is generated by all monomial multiples m * gen of
    the ideal generators with total degree <= degree.  An empty result
    is a value, not an error: nothing vanishing on the projection was
    found at this bound.
    """
    n = data.nvars
    if not 0 <= axis < n:
        raise ArityMismatch(f"axis {axis} out of range for {n} variables")
    if degree < 0:
        raise ValueError("degree bound must be non-negative")
    basis = MonomialBasis(n, degree)
    shift = len(basis)
    span, _ = _ideal_span(data, axis, basis)
    rows = sorted((pivot, idx) for idx, pivot in enumerate(span.pivots) if pivot >= shift)
    elements = tuple(
        Poly(n, {basis.exponents[i - shift]: value for i, value in span.vectors[idx].items()})
        for _, idx in rows
    )
    combinations = tuple(
        tuple(sorted(
            ((value, source) for source, value in span.expand_row(idx).items()),
            key=lambda item: (item[1][1], grlex_key(item[1][0])),
        ))
        for _, idx in rows
    )
    return EliminationResult(axis, degree, elements, combinations)


@dataclass(frozen=True)
class VanishingShear:
    """A complete field h(projected coordinates) * d/dx_axis vanishing on X.

    `projection_forms` are the n-1 coordinate functions annihilating the
    direction; h involves only those, so the field is constant along its
    own direction and integrates to the exact shear x_axis += t*h.
    """

    axis: int
    direction: tuple[Scalar, ...]
    projection_forms: tuple[Poly, ...]
    h: Poly
    field: VectorField
    degree: int


def build_vanishing_shear(
    data: SubvarietyInput, axis: int, h: Poly, degree: int
) -> VanishingShear:
    """Assemble h * d/dx_axis and re-verify both defining invariants.

    h must be nonzero, free of x_axis, and inside the truncated ideal
    span at the given degree bound (as produced by eliminate_direction).
    """
    n = data.nvars
    if not 0 <= axis < n:
        raise ArityMismatch(f"axis {axis} out of range for {n} variables")
    if h.nvars != n:
        raise ArityMismatch("h disagrees with the ambient variable count")
    violations = []
    if h.is_zero():
        violations.append("h must be nonzero")
    elif not h.partial(axis).is_zero():
        violations.append("h must be constant along the shear direction")
    if violations:
        raise PreconditionError(violations)
    # h is free of x_axis, so only the rows free of x_axis, the span of
    # eliminate_direction's elements, can reduce it
    span, position = _ideal_span(data, axis, MonomialBasis(n, max(degree, h.degree)))
    if not span.contains({position[mon]: c for mon, c in h.terms.items()}):
        raise PreconditionError("h does not lie in the truncated ideal span at this degree bound")
    direction = tuple(Scalar.exact(1 if i == axis else 0) for i in range(n))
    forms = tuple(Poly.variable(n, i) for i in range(n) if i != axis)
    field = VectorField.monomial(n, axis, h)
    return VanishingShear(axis, direction, forms, h, field, degree)


def verify_codim2_identity(f1: Poly, h1: Poly, f2: Poly, h2: Poly) -> IdentityCheck:
    """Check [f1 h1 d1, x1 f2 h2 d2] - [x1 f1 h1 d1, f2 h2 d2] = f1 f2 h1 h2 d2.

    This is the shear identity of `verify_shear_identity` at f1*h1 and
    f2*h2 (`fields.shear_pair_residual`); the preconditions are checked
    factor by factor, so a violation names the factor at fault.
    """
    if len({f1.nvars, h1.nvars, f2.nvars, h2.nvars}) != 1:
        raise ArityMismatch("operands disagree on variable count")
    n = f1.nvars
    if n < 2:
        raise PreconditionError("the identity needs at least two variables")
    violations = []
    if not f1.partial(0).is_zero():
        violations.append("f1 must not depend on x1")
    if not h1.partial(0).is_zero():
        violations.append("h1 must not depend on x1")
    if not f2.partial(1).is_zero():
        violations.append("f2 must not depend on x2")
    if not h2.partial(1).is_zero():
        violations.append("h2 must not depend on x2")
    if violations:
        raise PreconditionError(violations)
    return _check(shear_pair_residual(n, 0, 1, f1 * h1, f2 * h2))


@dataclass(frozen=True)
class LocalIdentityReport:
    """The three local bracket identities around a projected chart."""

    checks: tuple[IdentityCheck, IdentityCheck, IdentityCheck]


def verify_local_identities(
    r: Poly, h: Poly, s: int, f: Poly, g: Poly
) -> LocalIdentityReport:
    """Check the three local chart identities exactly.

    With nu1 = d/dx1, nu2 = h^s d/dx2 + (dr/dx2) d/dx1 and
    xi = h^s x1 - r, the displayed identities are

        [f nu1, xi g nu1]                         = h^s f g nu1
        [xi nu2, x2 xi nu1] - [x2 xi nu2, xi nu1] = h^s xi^2 nu1
        [xi nu2, x2 f nu1]  - [x2 xi nu2, f nu1]  = h^s xi f nu1

    where r has no x1, h has no x1 or x2, s >= 0, and f, g have no x1.
    """
    if len({r.nvars, h.nvars, f.nvars, g.nvars}) != 1:
        raise ArityMismatch("operands disagree on variable count")
    n = r.nvars
    if n < 2:
        raise PreconditionError("the local identities need at least two variables")
    violations = []
    terms, unit = max(len(h.terms), 1), LOCAL_TRIPLE_BITS_PER_PRODUCT
    # the numerator and denominator bits of h's largest coefficient (a + b i)/d beyond 1/1's
    bits = max((max(abs(c.a), abs(c.b)).bit_length() + c.d.bit_length() - 2
                for c in h.terms.values()), default=0)
    if not isinstance(s, int) or s < 0:
        violations.append("exponent s must be a non-negative integer")
    # h**s takes s products, and each of the N <= C(s + t - 1, s) terms of h^s is a product of
    # s of the t terms of h; the bracket products such as h^s * xi * p take about N^2 more, and
    # every product weighs w = (unit + s * b) / unit.  s alone bounds that work from below, so a
    # huge s never reaches the binomial
    elif s > MAX_BASIS_SIZE or (
        s * (size := math.comb(s + terms - 1, s)) * (weight := unit + s * bits)
        > MAX_BASIS_SIZE * unit or size**2 * weight > LOCAL_TRIPLE_MAX_PRODUCTS * unit
    ):
        violations.append(
            f"exponent s = {s} is over budget: with t = {terms} terms and b = {bits} coefficient "
            f"bits in h, h^s has up to N = C(s + t - 1, s) terms and a product weighs w = 1 + s * "
            f"b / {unit}; s * N * w must be at most {MAX_BASIS_SIZE} and N^2 * w at most "
            f"{LOCAL_TRIPLE_MAX_PRODUCTS}"
        )
    if not r.partial(0).is_zero():
        violations.append("r must not depend on x1")
    if not h.partial(0).is_zero():
        violations.append("h must not depend on x1")
    if not h.partial(1).is_zero():
        violations.append("h must not depend on x2")
    if not f.partial(0).is_zero():
        violations.append("f must not depend on x1")
    if not g.partial(0).is_zero():
        violations.append("g must not depend on x1")
    if violations:
        raise PreconditionError(violations)

    hs = h**s
    x1 = Poly.variable(n, 0)
    x2 = Poly.variable(n, 1)
    xi = hs * x1 - r
    nu1 = VectorField.coordinate(n, 0)
    nu2_comps = [Poly.zero(n)] * n
    nu2_comps[1] = hs
    nu2_comps[0] = r.partial(1)
    nu2 = VectorField(nu2_comps)

    def pair_residual(p: Poly) -> VectorField:
        # the second (p = xi) and third (p = f) identity share this shape
        return (
            nu2.mul_poly(xi).bracket(nu1.mul_poly(x2 * p))
            - nu2.mul_poly(x2 * xi).bracket(nu1.mul_poly(p))
            - nu1.mul_poly(hs * xi * p)
        )

    first = nu1.mul_poly(f).bracket(nu1.mul_poly(xi * g)) - nu1.mul_poly(hs * f * g)
    return LocalIdentityReport(
        (_check(first), _check(pair_residual(xi)), _check(pair_residual(f)))
    )


@dataclass
class Codim2Certificate:
    """Truncated module certificate for fields vanishing on X.

    Establishes, by replayable bracket combinations, that monomial
    fields with coefficients in the principal ideal of h1*h2 lie in the
    Lie span of complete fields vanishing on X, up to the degree bound.
    """

    data: SubvarietyInput
    axes: tuple[int, int]
    h1: Poly
    h2: Poly
    degree: int
    closure: LieClosureCertificate

    @property
    def all_targets_established(self) -> bool:
        return self.closure.all_targets_established

    def to_json_dict(self) -> dict:
        doc = self.closure.to_json_dict()
        doc["kind"] = "codim2-module-certificate"
        doc["input"] = self.data.to_json_dict()
        doc["axes"] = [self.axes[0] + 1, self.axes[1] + 1]
        doc["h1"] = serialize.poly_to_text(self.h1)
        doc["h2"] = serialize.poly_to_text(self.h2)
        doc["target_degree"] = self.degree
        return doc


def _graph(data: SubvarietyInput) -> dict[int, Poly] | None:
    """{k: q_k} when each generator is c * (x_k - q_k) and x_k lies in no other term of any.

    X is then the graph x_k = q_k over the other coordinates, and its ideal,
    the ideal of the generators, is the polynomials that vanish after x_k -> q_k.
    """
    n = data.nvars
    terms = [exp for gen in data.generators for exp in gen.terms]
    graph = {}
    for gen in data.generators:
        for k in range(n):
            unit = tuple(int(m == k) for m in range(n))
            if unit in gen.terms and sum(exp[k] > 0 for exp in terms) == 1:
                c = gen.terms[unit]
                graph[k] = (Poly.monomial(n, unit, c) - gen).scale(ONE / c)
                break
        else:
            return None
    return graph


def codim2_module_certificate(
    data: SubvarietyInput,
    degree: int,
    degree_cap: int | None = None,
    depth_cap: int = DEFAULT_BRACKET_DEPTH,
) -> Codim2Certificate:
    """Build the vanishing generator family and certify ideal targets.

    Picks the first two coordinate directions with nonzero elimination
    output, forms the family {f h_i d_i, x_j f h_i d_i} of complete
    fields vanishing on X (f monomial in Ker d_i), and runs the Lie
    closure against every monomial target with coefficient in the
    principal ideal of h1*h2 up to `degree`.  When X is a graph x_k = q_k
    over the other coordinates (`_graph`), the closure's ceiling counts the
    fields with components and divergence in the ideal of X, which is
    membership by substitution; otherwise it uses the generators' monomial
    ideal.  Either way the certificate is the same.
    """
    if degree < 0:
        raise ValueError("degree bound must be non-negative")
    if degree_cap is None:
        degree_cap = 2 * degree
    n = data.nvars
    found: list[tuple[int, Poly]] = []
    for axis in range(n):
        if len(found) == 2:
            break
        result = eliminate_direction(data, axis, degree)
        if result.elements:
            found.append((axis, result.elements[0]))
    if len(found) < 2:
        raise PreconditionError(
            "codimension >= 2 spot-check failed: fewer than two directions "
            f"admit vanishing functions at degree {degree}"
        )
    (axis1, h1), (axis2, h2) = found
    if degree_cap < min(h1.degree, h2.degree):
        raise PreconditionError(
            f"the degree cap (--degree-cap) {degree_cap} is below the degree of both "
            f"h1 = {h1} ({h1.degree}) and h2 = {h2} ({h2.degree}): no generator fits under it"
        )

    generators = []
    seen = set()

    def add(index: int, coefficient: Poly) -> None:
        if coefficient.is_zero() or coefficient.degree > degree_cap:
            return
        field = VectorField.monomial(n, index, coefficient)
        key = field.key()
        if key in seen:
            return
        seen.add(key)
        generators.append(field)

    for axis, h in ((axis1, h1), (axis2, h2)):
        budget = degree_cap - h.degree
        if budget < 0:
            continue
        for exp in MonomialBasis(n, budget):
            if exp[axis] != 0:
                continue
            f = Poly.monomial(n, exp, Scalar.exact(1))
            coefficient = f * h
            add(axis, coefficient)
            for j in (axis1, axis2):
                add(axis, coefficient * Poly.variable(n, j))

    targets = [
        VectorField.monomial(n, axis, multiple)
        for _, multiple in monomial_multiples(h1 * h2, degree)
        for axis in (axis1, axis2)
    ]

    closure = lie_closure(generators, degree_cap, depth_cap, targets, ideal=_graph(data))
    return Codim2Certificate(data, (axis1, axis2), h1, h2, degree, closure)
