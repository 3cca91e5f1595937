"""Criteria engine: bracket-identity verifiers and span certificates.

The operations here turn the generation criteria for Lie algebras of
completely integrable polynomial vector fields into machine-checkable
objects.  All arithmetic is exact and every certificate is
one-sided: a success is an exact, replayable containment at a truncated
degree, a failure establishes nothing.

Conventions used throughout:

* a shear is f * d/dx_i with f independent of x_i; its bracket with a
  coordinate-multiplied shear spans coefficient ideals,
* compatibility of a pair (d1, d2) of derivations asks (i) that products
  of their kernels span an ideal and (ii) that some a in Ker d2 has
  d1(a) in Ker d1 minus zero,
* Lie-closure certificates record, for every basis element and every
  established target, an exact combination over the generators that can
  be replayed independently.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from operator import add, ge, mul, sub
from typing import Callable, Sequence

from .errors import ArityMismatch, PreconditionError, ShearKitError
from .fields import (
    NilpotencyVerdict,
    VectorField,
    kernel_basis,
    nilpotency_report,
    parse_vector_field,
    shear_pair_residual,
)
# no code here calls rref; perfbench/tracing.py patches the name density.rref
from .linalg import TrackedSpan, _sub_scaled, nullspace, rref  # noqa: F401
from .poly import (
    MAX_BASIS_SIZE, MonomialBasis, Poly, _trusted_poly, format_scalar, monomial_multiples,
    parse_scalar,
)
from .scalars import ONE, ZERO, Scalar
from . import serialize

__all__ = [
    "IdentityCheck",
    "verify_shear_identity",
    "verify_compat_identity",
    "ConditionOne",
    "ConditionTwo",
    "CompatibilityVerdict",
    "check_compatibility",
    "replay_compatibility",
    "LieClosureCertificate",
    "lie_closure",
    "replay_closure",
    "closure_from_json_dict",
    "shear_generator_family",
    "monomial_field_targets",
    "OrbitSpanReport",
    "orbit_span_closure",
    "isotropy_update",
    "determinant_terms",
    "determinant_poly",
    "matrix_variable",
    "sl_pair_derivations",
    "sample_sl_points",
    "DEFAULT_BRACKET_DEPTH",
    "DEFAULT_SEED",
]

DEFAULT_BRACKET_DEPTH = 6
# the seed of every sampler (sample_sl_points here, dynamics.sample_ball) and of the CLI
DEFAULT_SEED = 1729


# ---------------------------------------------------------------------------
# Identity verifiers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """Exact verdict for one displayed bracket identity."""

    holds: bool
    residual: VectorField

    def __bool__(self) -> bool:
        return self.holds


def _check(residual: VectorField) -> IdentityCheck:
    return IdentityCheck(residual.is_zero(), residual)


def verify_shear_identity(f1: Poly, f2: Poly) -> IdentityCheck:
    """Check [f1 d1, x1 f2 d2] - [x1 f1 d1, f2 d2] = f1 f2 d2 exactly.

    Requires f1 in Ker d1 and f2 in Ker d2 (d_i the coordinate
    derivations); violations raise instead of producing a verdict.
    """
    if f1.nvars != f2.nvars:
        raise ArityMismatch("operands disagree on variable count")
    n = f1.nvars
    if n < 2:
        raise PreconditionError("the shear identity needs at least two variables")
    violations = []
    if not f1.partial(0).is_zero():
        violations.append("f1 must not depend on x1")
    if not f2.partial(1).is_zero():
        violations.append("f2 must not depend on x2")
    if violations:
        raise PreconditionError(violations)
    return _check(shear_pair_residual(n, 0, 1, f1, f2))


def verify_compat_identity(
    d1: VectorField, d2: VectorField, a: Poly, f1: Poly, f2: Poly
) -> IdentityCheck:
    """Check [a f1 d1, f2 d2] - [f1 d1, a f2 d2] = -b f1 f2 d2 with b = d1(a)."""
    if len({d1.nvars, d2.nvars, a.nvars, f1.nvars, f2.nvars}) != 1:
        raise ArityMismatch("operands disagree on variable count")
    violations = []
    if not d1.apply(f1).is_zero():
        violations.append("f1 must lie in Ker d1")
    if not d2.apply(f2).is_zero():
        violations.append("f2 must lie in Ker d2")
    if not d2.apply(a).is_zero():
        violations.append("a must lie in Ker d2")
    b = d1.apply(a)
    if b.is_zero():
        violations.append("a must have degree exactly 1 with respect to d1 (d1(a) = 0)")
    elif not d1.apply(b).is_zero():
        violations.append("d1(a) must lie in Ker d1")
    if violations:
        raise PreconditionError(violations)
    lhs = d1.mul_poly(a * f1).bracket(d2.mul_poly(f2)) - d1.mul_poly(f1).bracket(
        d2.mul_poly(a * f2)
    )
    rhs = d2.mul_poly(b * f1 * f2).scale(Scalar.exact(-1))
    return _check(lhs - rhs)


# ---------------------------------------------------------------------------
# Compatibility checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionOne:
    """Span(Ker d1 * Ker d2) versus an ideal, at truncated degree."""

    kind: str  # "full-span" | "ideal-found" | "not-established"
    degree: int
    witness_ideal: Poly | None = None

    @property
    def established(self) -> bool:
        return self.kind != "not-established"


@dataclass(frozen=True)
class ConditionTwo:
    """Degree-1 witness a in Ker d2 with b = d1(a) in Ker d1 minus zero."""

    kind: str  # "witness-found" | "not-established"
    a: Poly | None = None
    b: Poly | None = None

    @property
    def established(self) -> bool:
        return self.kind == "witness-found"


@dataclass(frozen=True)
class CompatibilityVerdict:
    nvars: int
    degree: int
    condition_one: ConditionOne
    condition_two: ConditionTwo
    product_span_dimension: int

    @property
    def established(self) -> bool:
        return self.condition_one.established and self.condition_two.established

    def to_json_dict(self) -> dict:
        doc = {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "compatibility-verdict",
            "nvars": self.nvars,
            "degree": self.degree,
            "product_span_dimension": self.product_span_dimension,
            "condition_one": {
                "kind": self.condition_one.kind,
                "degree": self.condition_one.degree,
            },
            "condition_two": {"kind": self.condition_two.kind},
            "established": self.established,
        }
        if self.condition_one.witness_ideal is not None:
            doc["condition_one"]["witness_ideal"] = serialize.poly_to_text(
                self.condition_one.witness_ideal
            )
        if self.condition_two.a is not None:
            doc["condition_two"]["a"] = serialize.poly_to_text(self.condition_two.a)
            doc["condition_two"]["b"] = serialize.poly_to_text(self.condition_two.b)
        return doc


def check_compatibility(
    d1: VectorField,
    d2: VectorField,
    degree: int,
    candidate_ideals: Sequence[Poly] = (),
) -> CompatibilityVerdict:
    """One-sided compatibility verdict for a pair of derivations.

    d1 must be locally nilpotent; d2 locally nilpotent or diagonal.
    Condition (i) checks whether the pairwise products of the truncated
    kernels span every polynomial of degree <= degree (full span), or
    failing that, whether the principal ideal of a supplied candidate h
    is contained in the product span up to the bound.  Condition (ii)
    solves the linear conditions for a degree-1 witness exactly and
    returns the graded-lex-smallest one.
    """
    if d1.nvars != d2.nvars:
        raise ArityMismatch("derivations disagree on variable count")
    if degree < 0:
        raise ValueError("degree bound must be non-negative")
    report1 = nilpotency_report(d1)
    if report1.verdict is not NilpotencyVerdict.NILPOTENT:
        raise PreconditionError(
            f"d1 must be locally nilpotent (verdict {report1.verdict.value})"
        )
    # d2 is diagonal, sum c_i x_i d/dx_i, exactly when every term has weight 0
    if _weight(d2) != (0,) * d2.nvars:
        report2 = nilpotency_report(d2)
        if report2.verdict is not NilpotencyVerdict.NILPOTENT:
            raise PreconditionError(
                "d2 must be locally nilpotent or diagonal "
                f"(verdict {report2.verdict.value})"
            )
    n = d1.nvars
    basis = MonomialBasis(n, degree)
    ker1 = kernel_basis(d1, degree)
    ker2 = kernel_basis(d2, degree)

    # kernel elements are nonzero and Q(i)[x] has no zero divisors, so each
    # product is nonzero and its degree is the sum of its factors' degrees
    degrees2 = [k2.degree for k2 in ker2]
    span = TrackedSpan()
    for k1 in ker1:
        room = degree - k1.degree
        for k2, deg2 in zip(ker2, degrees2):
            if deg2 <= room:
                span.insert(basis.coords(k1 * k2))

    if span.dimension == len(basis):
        condition_one = ConditionOne("full-span", degree)
    else:
        condition_one = ConditionOne("not-established", degree)
        for h in candidate_ideals:
            # an empty set of multiples would pass all() vacuously
            if h.is_zero() or h.degree > degree:
                continue
            if all(
                span.contains(basis.coords(multiple))
                for _, multiple in monomial_multiples(h, degree)
            ):
                condition_one = ConditionOne("ideal-found", degree, h)
                break

    condition_two = _degree_one_witness(d1, ker2, n)
    return CompatibilityVerdict(n, degree, condition_one, condition_two, span.dimension)


def _degree_one_witness(d1: VectorField, ker2: Sequence[Poly], nvars: int) -> ConditionTwo:
    # column j is the sparse image d1^2(ker2[j]), keyed by the monomials it reaches
    columns = [d1.apply(d1.apply(k)).terms for k in ker2]
    # ker2 is reduced echelon, ascending by leading monomial, and each kernel vector is
    # e_j minus earlier columns: so are the candidates, and the first witness is the smallest
    for vec in nullspace(columns):
        a = Poly.zero(nvars)
        for col, coeff in vec.items():
            a = a + ker2[col].scale(coeff)
        b = d1.apply(a)
        if not b.is_zero():
            return ConditionTwo("witness-found", a, b)
    return ConditionTwo("not-established")


def replay_compatibility(
    verdict: CompatibilityVerdict, d1: VectorField, d2: VectorField
) -> bool:
    """Re-check every established piece of a compatibility verdict exactly."""
    ok = True
    two = verdict.condition_two
    if two.established:
        a, b = two.a, two.b
        ok = ok and d2.apply(a).is_zero()
        ok = ok and d1.apply(a) == b
        ok = ok and not b.is_zero()
        ok = ok and d1.apply(b).is_zero()
    one = verdict.condition_one
    if one.established:
        fresh = check_compatibility(
            d1,
            d2,
            verdict.degree,
            candidate_ideals=[one.witness_ideal] if one.witness_ideal else (),
        )
        ok = ok and fresh.condition_one.kind == one.kind
    return ok


# ---------------------------------------------------------------------------
# Lie-closure certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasisRecord:
    """Provenance of one span basis element.

    The element equals ``scale * raw + sum(c_k * basis_k)`` where raw is
    either a generator or the bracket of two earlier basis elements.
    """

    source_kind: str  # "generator" | "bracket"
    left: int
    right: int | None
    scale: Scalar
    corrections: tuple[tuple[Scalar, int], ...]
    depth: int


@dataclass(frozen=True)
class TargetRecord:
    target: VectorField
    established: bool
    combination: tuple[tuple[Scalar, int], ...] | None
    reason: str = ""


@dataclass
class LieClosureCertificate:
    """Replayable record of a truncated Lie-closure computation."""

    nvars: int
    degree_cap: int
    depth_cap: int
    generators: list[VectorField]
    basis: list[BasisRecord]
    targets: list[TargetRecord]
    span_dimension: int
    bracket_depth_reached: int
    discarded_brackets: int

    @property
    def all_targets_established(self) -> bool:
        return all(t.established for t in self.targets)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "lie-closure-certificate",
            "nvars": self.nvars,
            "degree_cap": self.degree_cap,
            "depth_cap": self.depth_cap,
            "generators": [serialize.field_to_text(g) for g in self.generators],
            "basis": [
                {
                    "source_kind": rec.source_kind,
                    "left": rec.left,
                    "right": rec.right,
                    "scale": format_scalar(rec.scale),
                    "corrections": serialize.combination_to_json(rec.corrections),
                    "depth": rec.depth,
                }
                for rec in self.basis
            ],
            "targets": [
                {
                    "field": serialize.field_to_text(t.target),
                    "established": t.established,
                    "combination": (
                        serialize.combination_to_json(t.combination)
                        if t.combination is not None
                        else None
                    ),
                    "reason": t.reason,
                }
                for t in self.targets
            ],
            "span_dimension": self.span_dimension,
            "bracket_depth_reached": self.bracket_depth_reached,
            "discarded_brackets": self.discarded_brackets,
        }


def closure_from_json_dict(doc: dict) -> LieClosureCertificate:
    nvars = doc["nvars"]
    generators = [parse_vector_field(g, nvars) for g in doc["generators"]]
    basis = [
        BasisRecord(
            rec["source_kind"],
            rec["left"],
            rec["right"],
            parse_scalar(rec["scale"]),
            tuple(serialize.combination_from_json(rec["corrections"])),
            rec["depth"],
        )
        for rec in doc["basis"]
    ]
    targets = [
        TargetRecord(
            parse_vector_field(t["field"], nvars),
            t["established"],
            (
                tuple(serialize.combination_from_json(t["combination"]))
                if t["combination"] is not None
                else None
            ),
            t.get("reason", ""),
        )
        for t in doc["targets"]
    ]
    return LieClosureCertificate(
        nvars,
        doc["degree_cap"],
        doc["depth_cap"],
        generators,
        basis,
        targets,
        doc["span_dimension"],
        doc["bracket_depth_reached"],
        doc["discarded_brackets"],
    )


def _weight_pieces(field: VectorField) -> dict[tuple[int, ...], dict[int, Scalar]]:
    """The field as weight w -> {i: c_i}, its terms c_i x^(w + e_i) d/dx_i of weight w."""
    pieces: dict[tuple[int, ...], dict[int, Scalar]] = {}
    for i, comp in enumerate(field.components):
        for exp, c in comp.terms.items():
            pieces.setdefault(exp[:i] + (exp[i] - 1,) + exp[i + 1 :], {})[i] = c
    return pieces


def _weight(field: VectorField) -> tuple[int, ...] | None:
    """The weight a - e_i shared by every term x^a d/dx_i, or None if they differ."""
    pieces = _weight_pieces(field)
    return next(iter(pieces)) if len(pieces) == 1 else None


def _monomial_coords(
    pieces: dict[tuple[int, ...], dict[int, Scalar]], basis: MonomialBasis
) -> dict[int, Scalar]:
    """Coordinates of c_i x^(w + e_i) d/dx_i at i * len(basis) + index of x^(w + e_i)."""
    size = len(basis)
    return {
        i * size + basis.index_of(w[:i] + (w[i] + 1,) + w[i + 1 :]): c
        for w, coords in pieces.items()
        for i, c in coords.items()
    }


def _grading(
    pieces: list[dict[tuple[int, ...], dict[int, Scalar]]], basis: MonomialBasis
) -> list[int]:
    """Integer multipliers m such that the key sum(w_k * m_k) grades every field in `pieces`.

    The weights of one field's pieces differ by vectors that the integer forms
    lambda_t, a basis of the forms vanishing on all those differences, kill.
    The key of w is sum_t radix^t * lambda_t(w), so it adds as w does, and two
    weights of fields or of pairs within the cap (entries in [-2, cap + 1]) get
    one key iff every lambda_t agrees on them: the finest grading, up to
    torsion, in which every field is homogeneous.  When every field has one
    piece the forms are the coordinates, and the grade is the weight.
    """
    n, radix = basis.nvars, basis.degree + 4
    diffs = [tuple(map(sub, w, first)) for p in pieces for first, *rest in [p] for w in rest]
    forms = []
    columns = [{t: Scalar.exact(d[k]) for t, d in enumerate(diffs) if d[k]} for k in range(n)]
    for vec in nullspace(columns):
        scale = math.lcm(*(c.d for c in vec.values()))
        forms.append([vec[k].a * (scale // vec[k].d) if k in vec else 0 for k in range(n)])
    radix *= max((sum(map(abs, form)) for form in forms), default=1)
    return [sum(form[k] * radix**t for t, form in enumerate(forms)) for k in range(n)]


def _ideal_ceiling(
    basis: MonomialBasis,
    pieces: list[dict[tuple[int, ...], dict[int, Scalar]]],
    powers: list[int],
    on_graph: Callable[[tuple[int, ...]], Poly] | None = None,
) -> dict[int, int]:
    """Grade key -> dimension of that grade of L'(J, Z) within the cap, which holds the closure.

    The fields are `pieces`, graded by the multipliers `powers`.  Z is the
    components that are zero in every field, and L(J, Z) every V with V_k in J
    for all k and V_k = 0 for k in Z: a Lie algebra, as each term of
    [V, W]_k = sum_j V_j d_j W_k - W_j d_j V_k has a factor V_j or W_j in J.
    So is L'(J, Z), the V in it with div V in J, since div [V, W] =
    V(div W) - W(div V) and V(f) lies in J for every f.  It holds the fields
    when each one's divergence lies in J; otherwise L(J, Z) is counted.  J is
    the ideal of a graph that holds every component of the fields, given by
    `_graph_images`' `on_graph`, or else the monomial ideal that their
    monomials generate.
    """
    live = sorted({i for p in pieces for coords in p.values() for i in coords})
    if on_graph is not None:
        return _graph_ceiling(basis, pieces, powers, on_graph, live)
    monomials = {
        w[:i] + (w[i] + 1,) + w[i + 1 :] for p in pieces for w, coords in p.items() for i in coords
    }
    unit = (0,) * basis.nvars in monomials  # then every monomial lies in J
    minimal: list[tuple[int, ...]] = []  # otherwise x^e does iff one of these divides it
    if not unit:
        for g in sorted(monomials, key=sum):
            if not any(all(map(ge, g, h)) for h in minimal):
                minimal.append(g)
    member = [exp for exp in basis if unit or any(all(map(ge, exp, g)) for g in minimal)]
    ceiling: dict[int, int] = {}
    for exp in member:
        k = sum(map(mul, exp, powers))
        for i in live:
            ceiling[k - powers[i]] = ceiling.get(k - powers[i], 0) + 1
    if unit:
        return ceiling
    # div(x^(w + e_i) d/dx_i) = (w_i + 1) x^w: for w >= 0 with x^w outside J, a nonzero
    # functional on the fields of weight w in L(J, Z), whose kernel is those in L'(J, Z)
    inside = set(member)
    if all(
        w in inside or min(w) < 0 or not _div_coefficient(w, coords)
        for p in pieces
        for w, coords in p.items()
    ):
        below = {exp[:i] + (exp[i] - 1,) + exp[i + 1 :] for exp in member for i in live if exp[i]}
        for w in below - inside:
            ceiling[sum(map(mul, w, powers))] -= 1
    return ceiling


def _div_coefficient(w: tuple[int, ...], coords: dict[int, Scalar]) -> Scalar:
    """s with div(sum of c_i x^(w + e_i) d/dx_i) = s x^w."""
    return sum((c * (w[i] + 1) for i, c in coords.items()), ZERO)


def _graph_images(
    generators: list[VectorField], graph: dict[int, Poly], nvars: int
) -> Callable[[tuple[int, ...]], Poly] | None:
    """x^exp -> its value on the graph x_k = graph[k], cached; None when every q_k is 0.

    Raises unless each key is a coordinate and each q_k has `nvars` variables
    and is free of every key, so that p lies in the ideal J = (x_k - q_k) iff
    it is zero after x_k -> q_k, and unless every generator component lies in
    J.  With every q_k = 0 the graph is a coordinate subspace, and the
    generators' monomial ideal, which its ideal (x_k) holds, gives the ceiling.
    """
    for k, q in graph.items():
        if k not in range(nvars) or q.nvars != nvars:
            raise PreconditionError(f"graph entry {k!r} is no value of one of {nvars} coordinates")
        if any(exp[j] for exp in q.terms for j in graph):
            raise PreconditionError("a graph value depends on a graph coordinate")
    point = [graph.get(k, Poly.variable(nvars, k)) for k in range(nvars)]
    images = {(0,) * nvars: Poly.constant(nvars, 1)}

    def on_graph(exp: tuple[int, ...]) -> Poly:
        """x^exp on the graph, cached with every divisor that it meets."""
        found = images.get(exp)
        if found is None:
            t = next(t for t, e in enumerate(exp) if e)
            found = images[exp] = on_graph(exp[:t] + (exp[t] - 1,) + exp[t + 1 :]) * point[t]
        return found

    for gen in generators:
        for comp in gen.components:
            image: dict = {}  # minus the component on the graph
            for exp, c in comp.terms.items():
                if found := on_graph(exp).terms:
                    _sub_scaled(image, c, found)
            if image:
                raise PreconditionError("a generator component does not vanish on the graph")
    return on_graph if any(graph.values()) else None


def _graph_ceiling(
    basis: MonomialBasis,
    pieces: list[dict[tuple[int, ...], dict[int, Scalar]]],
    powers: list[int],
    on_graph: Callable[[tuple[int, ...]], Poly],
    live: list[int],
) -> dict[int, int]:
    """`_ideal_ceiling` for J the ideal of a graph, with `_graph_images`' `on_graph`.

    p lies in J iff it vanishes on the graph.  A grade's count is the
    nullity of its monomial fields x^(w + e_i) d/dx_i, i live, under
    V -> (each V_k and div V on the graph).
    """
    refine = True
    for p in pieces:
        div: dict = {}
        for w, coords in p.items():
            if s := _div_coefficient(w, coords):
                _sub_scaled(div, -s, on_graph(w).terms)
        refine = refine and not div
    grades: dict[int, list[dict]] = {}
    for exp in basis:
        k = sum(map(mul, exp, powers))
        image = on_graph(exp).terms
        for i in live:
            column = {(i, m): c for m, c in image.items()}
            if refine and exp[i]:
                below = on_graph(exp[:i] + (exp[i] - 1,) + exp[i + 1 :]).terms
                column.update({(-1, m): c * exp[i] for m, c in below.items()})
            grades.setdefault(k - powers[i], []).append(column)
    # a grade whose columns all vanish on the graph needs no elimination
    return {g: len(nullspace(cols)) if any(cols) else len(cols) for g, cols in grades.items()}


def _pairing(coords: dict[int, Scalar], weight: tuple[int, ...]) -> Scalar:
    """<c, w> = sum of c_m * w_m."""
    total = None
    for m, c in coords.items():
        if weight[m]:
            term = c * weight[m]
            total = term if total is None else total + term
    return ZERO if total is None else total


def _weight_bracket(
    alpha: tuple[int, ...], c: dict[int, Scalar], beta: tuple[int, ...], d: dict[int, Scalar]
) -> dict[int, Scalar]:
    """Weight coordinates of [V, W] for V = (alpha, c) and W = (beta, d).

    The coefficient of x^(alpha + beta + e_k) d/dx_k in [V, W] is
    sum_i c_i d_k (beta + e_k)_i - d_i c_k (alpha + e_k)_i, so
    [V, W] = <c, beta> d - <d, alpha> c, of weight alpha + beta.
    """
    s = _pairing(c, beta)
    out = {k: s * v for k, v in d.items()} if s else {}
    t = _pairing(d, alpha)
    if t:
        _sub_scaled(out, t, c)
    return out


def _closure(
    generators: list[VectorField],
    basis: MonomialBasis,
    span: TrackedSpan,
    depth_cap: int,
    on_graph: Callable[[tuple[int, ...]], Poly] | None = None,
) -> tuple[list[BasisRecord], int]:
    """Close the generators under brackets in weight coordinates, reducing in `span`.

    Row k holds its weight pieces; the bracket of two rows is the sum of
    `_weight_bracket` over their piece pairs.  Round r brackets each row of
    depth r - 1 (the frontier) with every earlier row; no earlier row is
    deeper, so every bracket has depth r.  A bracket's degree is at most
    the sum of its factors' degrees minus one, so row j meets only the
    earlier rows within the cap; the rest count as discarded.  Every row is
    homogeneous in `_grading`'s grading: the generators are, so are their
    brackets, and the span reduces a vector only by rows of its pivot's
    grade.  A pair is skipped once the rows of its grade reach
    `_ideal_ceiling`'s count: the bracket is then zero or dependent.
    """
    size, degree_cap = len(basis), basis.degree
    rows: list[tuple[tuple[tuple[int, ...], dict[int, Scalar]], ...]] = []
    grades: list[int] = []
    degrees: list[int] = []
    records: list[BasisRecord] = []
    # the nonzero generators' weight pieces, by generator index
    pieces = {k: p for k, gen in enumerate(generators) if (p := _weight_pieces(gen))}
    powers = _grading(list(pieces.values()), basis)
    # grade key -> its ceiling minus the rows of that grade
    free = _ideal_ceiling(basis, list(pieces.values()), powers, on_graph)

    def insert(parts, kind: str, left: int, right: int | None, depth: int) -> None:
        row = span.insert(_monomial_coords(parts, basis), source=(kind, left, right))
        if row is None:
            return
        # the normalized row, split back into its weight pieces
        parts = {}
        for idx, c in span.vectors[row].items():
            i, m = divmod(idx, size)
            exp = basis.exponents[m]
            parts.setdefault(exp[:i] + (exp[i] - 1,) + exp[i + 1 :], {})[i] = c
        rows.append(tuple(parts.items()))
        grade = sum(map(mul, next(iter(parts)), powers))
        grades.append(grade)
        free[grade] -= 1
        degrees.append(max(map(sum, parts)) + 1)
        corrections = tuple(span.corrections[row])
        records.append(BasisRecord(kind, left, right, span.scales[row], corrections, depth))

    for k, p in pieces.items():
        insert(p, "generator", k, None, 0)
    discarded = 0
    frontier = list(range(len(rows)))
    depth = 1
    while frontier and depth <= depth_cap:
        round_start = len(rows)
        for j in frontier:
            room = degree_cap + 1 - degrees[j]
            near = [i for i in range(j) if degrees[i] <= room]
            discarded += j - len(near)
            right, grade = rows[j], grades[j]
            for i in near:
                if not free.get(grades[i] + grade):
                    continue
                parts = {}
                for alpha, c in rows[i]:
                    for beta, d in right:
                        piece = _weight_bracket(alpha, c, beta, d)
                        if not piece:
                            continue
                        weight = tuple(map(add, alpha, beta))
                        merged = parts.setdefault(weight, piece)
                        if merged is not piece:  # add the piece to the part of its weight
                            _sub_scaled(merged, -ONE, piece)
                            if not merged:
                                del parts[weight]
                if parts:
                    insert(parts, "bracket", i, j, depth)
        frontier = list(range(round_start, len(rows)))
        depth += 1
    return records, discarded


def lie_closure(
    generators: Sequence[VectorField],
    degree_cap: int,
    depth_cap: int = DEFAULT_BRACKET_DEPTH,
    targets: Sequence[VectorField] = (),
    *,
    ideal: dict[int, Poly] | None = None,
) -> LieClosureCertificate:
    """Close the linear span of the generators under brackets, with caps.

    Brackets whose coefficient degree exceeds `degree_cap` are discarded
    (counted in the certificate), so failure to establish a target is
    uninformative.  Every basis element and every established target
    records an exact combination over the generators.

    Fields are graded by weight: x^a d/dx_i has weight a - e_i.  Every
    field is the sum of its weight pieces, a piece of weight a being
    {i: c_i}, meaning sum c_i x^(a + e_i) d/dx_i, and the bracket of the
    pieces (a, c) and (b, d) is <c, b> d - <d, a> c, of weight a + b.  So
    the bracket of two basis elements is the sum of the brackets of their
    piece pairs, and it goes into one span in monomial coordinates.

    Every family gets one ceiling.  In the finest grading of the weights in
    which each generator is homogeneous (the weight itself when each has one
    piece), every basis element is homogeneous too.  The closure lies in the
    Lie algebra of fields with components in an ideal J, zero on every
    component that all generators leave zero, and with divergence in J when
    each generator's is; a pair is skipped once the span holds all of its
    grade.  J is the generators' monomial ideal, or the ideal of a graph,
    which must hold every generator component: `ideal` maps k to q_k, free
    of every key, for J = (x_k - q_k), and codim2 passes it when X is one.
    Any other `ideal` raises PreconditionError, whatever the q_k are.
    The certificate is byte-identical to bracketing and reducing every pair.
    """
    generators = list(generators)
    if not generators:
        raise PreconditionError("lie_closure needs at least one generator")
    nvars = generators[0].nvars
    for gen in generators:
        if gen.nvars != nvars:
            raise ArityMismatch("generators disagree on variable count")
        if gen.degree > degree_cap:
            raise PreconditionError(
                f"generator {gen} exceeds the coefficient degree cap {degree_cap}"
            )
    on_graph = None if ideal is None else _graph_images(generators, ideal, nvars)
    basis = MonomialBasis(nvars, degree_cap)
    span = TrackedSpan()
    records, discarded = _closure(generators, basis, span, depth_cap, on_graph)
    depth_reached = max((rec.depth for rec in records), default=0)

    target_records = []
    for target in targets:
        if target.nvars != nvars:
            raise ArityMismatch("target disagrees on variable count")
        if target.degree > degree_cap:
            target_records.append(
                TargetRecord(target, False, None, "target degree exceeds the cap")
            )
            continue
        remainder, combo = span.reduce(_monomial_coords(_weight_pieces(target), basis))
        if remainder:
            target_records.append(
                TargetRecord(target, False, None, "not in the truncated span")
            )
        else:
            target_records.append(TargetRecord(target, True, tuple(combo)))

    return LieClosureCertificate(
        nvars,
        degree_cap,
        depth_cap,
        generators,
        records,
        target_records,
        len(records),
        depth_reached,
        discarded,
    )


def replay_closure(cert: LieClosureCertificate) -> bool:
    """Rebuild every basis element and established target from the record.

    Returns True iff every recorded combination reproduces its field
    exactly (zero residual).  An index out of range also makes it False:
    a generator index must lie in [0, len(generators)), and every other
    index in [0, number of fields rebuilt so far).
    """
    fields: list[VectorField] = []
    for rec in cert.basis:
        if rec.source_kind == "generator" and _in_range(len(cert.generators), rec.left):
            raw = cert.generators[rec.left]
        elif rec.source_kind == "bracket" and _in_range(len(fields), rec.left, rec.right):
            raw = fields[rec.left].bracket(fields[rec.right])
        else:
            return False
        if not _in_range(len(fields), *(idx for _, idx in rec.corrections)):
            return False
        combined = raw.scale(rec.scale)
        for coeff, idx in rec.corrections:
            combined = combined + fields[idx].scale(coeff)
        if combined.degree > cert.degree_cap:
            return False
        fields.append(combined)
    if len(fields) != cert.span_dimension:
        return False
    for record in cert.targets:
        if not record.established:
            continue
        if not _in_range(len(fields), *(idx for _, idx in record.combination)):
            return False
        total = VectorField.zero(cert.nvars)
        for coeff, idx in record.combination:
            total = total + fields[idx].scale(coeff)
        if not (total - record.target).is_zero():
            return False
    return True


def _in_range(size: int, *indices) -> bool:
    """True when every index is an int in [0, size); a negative one would wrap."""
    return all(isinstance(i, int) and 0 <= i < size for i in indices)


def shear_generator_family(degree: int, nvars: int = 2) -> list[VectorField]:
    """The family {f d/dx_i, x_i f d/dx_i} with monomial f in Ker d/dx_i.

    Only generators whose coefficient degree fits under `degree` are
    emitted, so the family is directly usable as lie_closure input with
    degree_cap = degree.
    """
    if nvars < 2:
        raise PreconditionError("the shear family needs at least two variables")
    gens = []
    for i in range(nvars):
        kernel_exponents = [
            exp for exp in MonomialBasis(nvars, degree) if exp[i] == 0
        ]
        for exp in kernel_exponents:
            f = Poly.monomial(nvars, exp, Scalar.exact(1))
            gens.append(VectorField.monomial(nvars, i, f))
            if sum(exp) + 1 <= degree:
                lifted = f * Poly.variable(nvars, i)
                gens.append(VectorField.monomial(nvars, i, lifted))
    return gens


def monomial_field_targets(nvars: int, degree: int) -> list[VectorField]:
    """All monomial fields m * d/dx_i with deg m <= degree."""
    targets = []
    for i in range(nvars):
        for exp in MonomialBasis(nvars, degree):
            targets.append(
                VectorField.monomial(nvars, i, Poly.monomial(nvars, exp, Scalar.exact(1)))
            )
    return targets


# ---------------------------------------------------------------------------
# Orbit span closure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrbitSpanReport:
    """Smallest subspace containing the seeds and invariant under the maps."""

    dimension: int
    ambient_dimension: int
    full: bool
    basis: tuple[tuple[Scalar, ...], ...]
    seed_count: int
    map_count: int


def orbit_span_closure(
    seeds: Sequence[Sequence[Scalar]], maps: Sequence[Sequence[Sequence[Scalar]]]
) -> OrbitSpanReport:
    """Close span(seeds) under the given linear maps, to a fixpoint."""
    seeds = [list(v) for v in seeds]
    if not seeds:
        raise PreconditionError("orbit_span_closure needs at least one seed vector")
    n = len(seeds[0])
    for v in seeds:
        if len(v) != n:
            raise ArityMismatch("seed vectors disagree on dimension")
    matrices = [[list(row) for row in m] for m in maps]
    for m in matrices:
        if len(m) != n or any(len(row) != n for row in m):
            raise ArityMismatch("linear maps must be square of matching dimension")

    span = TrackedSpan()
    for v in seeds:
        span.insert({i: x for i, x in enumerate(v) if x})
    # the span's rows span the same space as the vectors inserted so far,
    # so closing the rows under the maps closes the span
    cursor = 0
    while cursor < span.dimension:
        row = span.vectors[cursor]
        cursor += 1
        for m in matrices:
            image = (sum((m[i][j] * x for j, x in row.items()), ZERO) for i in range(n))
            span.insert({i: x for i, x in enumerate(image) if x})

    reduced = span.reduced_rows()
    basis = tuple(
        tuple(reduced[p].get(j, ZERO) for j in range(n)) for p in sorted(reduced)
    )
    return OrbitSpanReport(
        dimension=span.dimension,
        ambient_dimension=n,
        full=span.dimension == n,
        basis=basis,
        seed_count=len(seeds),
        map_count=len(matrices),
    )


def isotropy_update(df: Sequence[Scalar], direction: Sequence[Scalar]) -> list[list[Scalar]]:
    """The linearized flow action w -> w + df(w) * direction as a matrix."""
    n = len(direction)
    if len(df) != n:
        raise ArityMismatch("differential and direction disagree on dimension")
    one = Scalar.exact(1)
    zero = Scalar.exact(0)
    return [
        [
            (one if i == j else zero) + direction[i] * df[j]
            for j in range(n)
        ]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# Random-point identity testing on the special linear group
# ---------------------------------------------------------------------------


def matrix_variable(n: int, row: int, col: int) -> Poly:
    """The coordinate c_{row,col} (0-based) on the space of n x n matrices."""
    return Poly.variable(n * n, row * n + col)


def _parity(perm: Sequence[int]) -> int:
    """0 for an even permutation of range(len(perm)), 1 for an odd one."""
    # the sign is (-1)^(n - cycles): each swap below puts one entry in place
    p, swaps = list(perm), 0
    for i in range(len(p)):
        while p[i] != i:
            j = p[i]
            p[i], p[j] = p[j], j
            swaps += 1
    return swaps & 1


def determinant_terms(n: int) -> int:
    """n!, the n x n determinant's term count; refused past MAX_BASIS_SIZE."""
    terms = math.factorial(n)
    if terms > MAX_BASIS_SIZE:
        raise PreconditionError(
            f"the {n}x{n} determinant has {terms} terms, more than {MAX_BASIS_SIZE}"
        )
    return terms


def determinant_poly(n: int) -> Poly:
    """Determinant as a polynomial on the n^2 matrix entries."""
    determinant_terms(n)
    nvars = n * n
    signs = (ONE, -ONE)
    terms: dict[tuple[int, ...], Scalar] = {}
    for perm in itertools.permutations(range(n)):
        exp = [0] * nvars
        for row, col in enumerate(perm):
            exp[row * n + col] += 1
        terms[tuple(exp)] = signs[_parity(perm)]
    return _trusted_poly(nvars, terms)


def sl_pair_derivations(n: int) -> tuple[VectorField, VectorField]:
    """The row-shear derivations d1(c_{1j}) = c_{nj} and d2(c_{nj}) = c_{1j}.

    Written on the ambient matrix space; both are tangent to the
    determinant-1 subvariety.
    """
    if n < 2:
        raise PreconditionError("the special linear demo needs n >= 2")
    nvars = n * n
    comps1 = [Poly.zero(nvars)] * nvars
    comps2 = [Poly.zero(nvars)] * nvars
    for j in range(n):
        comps1[0 * n + j] = matrix_variable(n, n - 1, j)
        comps2[(n - 1) * n + j] = matrix_variable(n, 0, j)
    return VectorField(comps1), VectorField(comps2)


def _exact_det(entries: list[list[Scalar]]) -> Scalar:
    """Determinant of a square matrix over Q(i), read off a `TrackedSpan` of its rows."""
    span = TrackedSpan()
    for row in entries:
        if span.insert({j: v for j, v in enumerate(row) if v}) is None:
            return ZERO
    # row r of the span is scales[r] * entries[r] plus earlier rows, zero before
    # its pivot and 1 at it: sorted by pivot, the rows form a unit triangle
    det = -ONE if _parity(span.pivots) else ONE
    for scale in span.scales:
        det = det / scale
    return det


def sample_sl_points(n: int, count: int, seed: int = DEFAULT_SEED) -> list[tuple[Scalar, ...]]:
    """Exact Gaussian-rational matrices of determinant one, flattened row-major.

    Entries are drawn as small Gaussian integers and entry (1,1) is then
    solved for via its cofactor; draws with a vanishing cofactor are
    retried.
    """
    if n < 2:
        raise PreconditionError("n must be at least 2")
    rng = random.Random(seed)
    points = []
    attempts = 0
    limit = max(200, count * 200)
    while len(points) < count:
        attempts += 1
        if attempts > limit:
            raise ShearKitError("exhausted retries while sampling determinant-1 points")
        entries = [
            [
                Scalar.exact(rng.randint(-3, 3), rng.randint(-1, 1))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        minor = [row[1:] for row in entries[1:]]
        cofactor = _exact_det(minor)
        if cofactor.is_zero():
            continue
        entries[0][0] = Scalar.exact(0)
        rest = _exact_det(entries)
        entries[0][0] = (Scalar.exact(1) - rest) / cofactor
        assert (_exact_det(entries) - Scalar.exact(1)).is_zero()
        points.append(tuple(value for row in entries for value in row))
    return points
