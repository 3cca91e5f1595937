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

from dataclasses import dataclass
from typing import Sequence

from .errors import ArityMismatch, PreconditionError
from .density import (
    DEFAULT_BRACKET_DEPTH,
    IdentityCheck,
    LieClosureCertificate,
    _check,
    lie_closure,
)
from .linalg import TrackedSpan
from .poly import MonomialBasis, Poly, grlex_key
from .scalars import Scalar
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
        gens = tuple(serialize.poly_from_text(g, nvars) for g in doc["generators"])
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
    # order coordinates so monomials containing x_axis come first; rows whose
    # pivot falls in the trailing block are then exactly the axis-free ones
    bad = [exp for exp in basis.exponents if exp[axis] > 0]
    good = [exp for exp in basis.exponents if exp[axis] == 0]
    ordered = bad + good
    position = {exp: i for i, exp in enumerate(ordered)}
    first_good = len(bad)

    span = TrackedSpan()
    for gen_idx, gen in enumerate(data.generators):
        gen_deg = gen.degree
        if gen_deg > degree:
            continue
        for exp in MonomialBasis(n, degree - gen_deg):
            product = gen * Poly.monomial(n, exp, Scalar.exact(1))
            if product.is_zero() or product.degree > degree:
                continue
            coords = {position[mon]: c for mon, c in product.terms.items()}
            span.insert(coords, source=(exp, gen_idx))

    elements = []
    for row_idx in range(span.dimension):
        if span.pivots[row_idx] < first_good:
            continue
        terms = {
            ordered[i]: value for i, value in span.vectors[row_idx].items()
        }
        poly = Poly(n, terms)
        flat = span.expand_row(row_idx)
        combo = tuple(sorted(
            ((value, source) for source, value in flat.items()),
            key=lambda item: (item[1][1], grlex_key(item[1][0])),
        ))
        elements.append((span.pivots[row_idx], poly, combo))
    elements.sort(key=lambda item: item[0])
    polys = tuple(p for _, p, _ in elements)
    combinations = tuple(c for _, _, c in elements)
    return EliminationResult(axis, degree, polys, combinations)


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
    result = eliminate_direction(data, axis, max(degree, h.degree))
    span = TrackedSpan()
    basis = MonomialBasis(n, max(degree, h.degree))
    for element in result.elements:
        span.insert(basis.coords(element))
    if not span.contains(basis.coords(h)):
        raise PreconditionError(
            "h does not lie in the truncated ideal span at this degree bound"
        )
    direction = tuple(
        Scalar.exact(1 if i == axis else 0) for i in range(n)
    )
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

    @property
    def all_hold(self) -> bool:
        return all(check.holds for check in self.checks)


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
    if not isinstance(s, int) or s < 0:
        violations.append("exponent s must be a non-negative integer")
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
    principal ideal of h1*h2 up to `degree`.
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

    hh = h1 * h2
    targets = []
    if hh.degree <= degree:
        for exp in MonomialBasis(n, degree - hh.degree):
            m = Poly.monomial(n, exp, Scalar.exact(1))
            for axis in (axis1, axis2):
                targets.append(VectorField.monomial(n, axis, m * hh))

    closure = lie_closure(generators, degree_cap, depth_cap, targets)
    return Codim2Certificate(data, (axis1, axis2), h1, h2, degree, closure)
