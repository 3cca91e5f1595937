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
from operator import add
from typing import Sequence

from .errors import ArityMismatch, PreconditionError, ShearKitError
from .fields import (
    DEFAULT_NILPOTENCY_CAP,
    NilpotencyVerdict,
    VectorField,
    kernel_basis,
    nilpotency_report,
    shear_pair_residual,
)
from .linalg import TrackedSpan, nullspace, rref
from .poly import MAX_BASIS_SIZE, MonomialBasis, Poly, grlex_key
from .scalars import ZERO, Scalar
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
    "determinant_poly",
    "matrix_variable",
    "sl_pair_derivations",
    "sample_sl_points",
    "VarietyCheck",
    "verify_on_variety",
    "DEFAULT_BRACKET_DEPTH",
]

DEFAULT_BRACKET_DEPTH = 6


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


def _echelon_polys(polys: Sequence[Poly], nvars: int) -> list[Poly]:
    """Canonical reduced basis of the span, rows by descending leading monomial."""
    monomials = sorted(
        {exp for p in polys for exp in p.terms}, key=grlex_key, reverse=True
    )
    index = {exp: i for i, exp in enumerate(monomials)}
    zero = Scalar.exact(0)
    rows = []
    for p in polys:
        row = [zero] * len(monomials)
        for exp, coeff in p.terms.items():
            row[index[exp]] = coeff
        rows.append(row)
    reduced, _pivots = rref(rows)
    out = []
    for row in reduced:
        terms = {
            monomials[i]: value for i, value in enumerate(row) if not value.is_zero()
        }
        out.append(Poly(nvars, terms))
    return out


def check_compatibility(
    d1: VectorField,
    d2: VectorField,
    degree: int,
    candidate_ideals: Sequence[Poly] = (),
    cap: int = DEFAULT_NILPOTENCY_CAP,
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
    report1 = nilpotency_report(d1, cap)
    if report1.verdict is not NilpotencyVerdict.NILPOTENT:
        raise PreconditionError(
            f"d1 must be locally nilpotent (verdict {report1.verdict.value})"
        )
    # d2 is diagonal, sum c_i x_i d/dx_i, exactly when every term has weight 0
    if _weight(d2) != (0,) * d2.nvars:
        report2 = nilpotency_report(d2, cap)
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
            if h.is_zero() or h.degree > degree:
                continue
            h_deg = h.degree
            multiples_ok = True
            for exp in MonomialBasis(n, degree - h_deg):
                multiple = h * Poly.monomial(n, exp, Scalar.exact(1))
                if not span.contains(basis.coords(multiple)):
                    multiples_ok = False
                    break
            if multiples_ok:
                condition_one = ConditionOne("ideal-found", degree, h)
                break

    condition_two = _degree_one_witness(d1, ker2, n)
    return CompatibilityVerdict(n, degree, condition_one, condition_two, span.dimension)


def _degree_one_witness(d1: VectorField, ker2: Sequence[Poly], nvars: int) -> ConditionTwo:
    # column j is the sparse image d1^2(ker2[j]), one row per monomial reached
    rows: dict[tuple[int, ...], int] = {}
    columns = []
    for k in ker2:
        image = d1.apply(d1.apply(k))
        columns.append({rows.setdefault(exp, len(rows)): c for exp, c in image.terms.items()})
    candidates = []
    for vec in nullspace(columns):
        a = Poly.zero(nvars)
        for col, coeff in vec.items():
            a = a + ker2[col].scale(coeff)
        if not a.is_zero():
            candidates.append(a)
    if not candidates:
        return ConditionTwo("not-established")
    for a in reversed(_echelon_polys(candidates, nvars)):
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
                    "scale": serialize.scalar_to_text(rec.scale),
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
    generators = [serialize.field_from_text(g, nvars) for g in doc["generators"]]
    basis = [
        BasisRecord(
            rec["source_kind"],
            rec["left"],
            rec["right"],
            serialize.scalar_from_text(rec["scale"]),
            tuple(serialize.combination_from_json(rec["corrections"])),
            rec["depth"],
        )
        for rec in doc["basis"]
    ]
    targets = [
        TargetRecord(
            serialize.field_from_text(t["field"], nvars),
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


def _field_coords(field: VectorField, basis: MonomialBasis) -> dict[int, Scalar]:
    size = len(basis)
    return {
        i * size + k: c
        for i, comp in enumerate(field.components)
        for k, c in basis.coords(comp).items()
    }


def _weight(field: VectorField) -> tuple[int, ...] | None:
    """The weight a - e_i shared by every term x^a d/dx_i, or None if they differ."""
    weight = None
    for i, comp in enumerate(field.components):
        for exp in comp.terms:
            term_weight = list(exp)
            term_weight[i] -= 1
            term_weight = tuple(term_weight)
            if weight is None:
                weight = term_weight
            elif term_weight != weight:
                return None
    return weight


def _weight_space_dimension(weight: tuple[int, ...]) -> int:
    """Dimension of the fields of this weight: the number of i with weight + e_i >= 0."""
    return sum(
        all(w + (k == i) >= 0 for k, w in enumerate(weight)) for i in range(len(weight))
    )


def lie_closure(
    generators: Sequence[VectorField],
    degree_cap: int,
    depth_cap: int = DEFAULT_BRACKET_DEPTH,
    targets: Sequence[VectorField] = (),
) -> LieClosureCertificate:
    """Close the linear span of the generators under brackets, with caps.

    Brackets whose coefficient degree exceeds `degree_cap` are discarded
    (counted in the certificate), so failure to establish a target is
    uninformative.  Every basis element and every established target
    records an exact combination over the generators.

    Fields are graded by weight: x^a d/dx_i has weight a - e_i, brackets
    add weights, and the fields of weight w span a space of dimension
    #{i : w + e_i >= 0}.  When every nonzero generator is
    weight-homogeneous, so is every basis element, and a pair that passes
    the depth and degree filters is skipped, unbracketed, once the span
    holds that many basis elements of the pair's summed weight.  Such a
    bracket is zero or dependent and would add no record, and the skip
    comes after the filters that count `discarded_brackets`, so the
    certificate is the same with or without it.  A family with a
    non-homogeneous generator, such as x2 - x3^2, brackets every pair.
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
    basis = MonomialBasis(nvars, degree_cap)
    span = TrackedSpan()
    fields: list[VectorField] = []
    degrees: list[int] = []  # fields[k].degree, which is costly to recompute per pair
    records: list[BasisRecord] = []
    discarded = 0

    # When graded, every row is homogeneous (a reduction only subtracts rows
    # whose pivot has the work vector's weight), so rows_of_weight[w] is the
    # dimension of the span's piece of weight w.
    gen_weights = {
        k: _weight(gen) for k, gen in enumerate(generators) if not gen.is_zero()
    }
    graded = None not in gen_weights.values()
    weights: list[tuple[int, ...]] = []  # fields[k]'s weight, when graded
    rows_of_weight: dict[tuple[int, ...], int] = {}
    weight_dims: dict[tuple[int, ...], int] = {}

    def insert(raw: VectorField, kind: str, left: int, right: int | None, depth: int,
               weight: tuple[int, ...] | None) -> bool:
        row = span.insert(_field_coords(raw, basis), source=(kind, left, right))
        if row is None:
            return False
        scale = span.scales[row]
        corrections = tuple(span.corrections[row])
        combined = raw.scale(scale)
        for coeff, idx in corrections:
            combined = combined + fields[idx].scale(coeff)
        fields.append(combined)
        degrees.append(combined.degree)
        records.append(BasisRecord(kind, left, right, scale, corrections, depth))
        if graded:
            weights.append(weight)
            rows_of_weight[weight] = rows_of_weight.get(weight, 0) + 1
        return True

    for k, weight in gen_weights.items():
        insert(generators[k], "generator", k, None, 0, weight)

    # Round r brackets each row of depth r - 1 (the frontier) with every
    # earlier row; no earlier row is deeper, so every bracket has depth r.
    frontier = list(range(len(fields)))
    depth = 1
    while frontier and depth <= depth_cap:
        round_start = len(fields)
        for j in frontier:
            # a bracket's degree is at most the sum of its factors' degrees minus one
            room = degree_cap + 1 - degrees[j]
            weight_j = weights[j] if graded else None
            near = [i for i in range(j) if degrees[i] <= room]
            discarded += j - len(near)
            for i in near:
                weight = None
                if graded:
                    # [V_a, V_b] lies in V_{a+b}: when the span already holds
                    # that whole weight space, the bracket is zero or dependent
                    weight = tuple(map(add, weights[i], weight_j))
                    dim = weight_dims.get(weight)
                    if dim is None:
                        dim = weight_dims[weight] = _weight_space_dimension(weight)
                    if rows_of_weight.get(weight, 0) == dim:
                        continue
                bracket = fields[i].bracket(fields[j])
                if bracket.is_zero():
                    continue
                # a homogeneous bracket has degree deg_i + deg_j - 1, which passed `room`
                if not graded and bracket.degree > degree_cap:
                    discarded += 1
                    continue
                insert(bracket, "bracket", i, j, depth, weight)
        frontier = list(range(round_start, len(fields)))
        depth += 1

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
        remainder, combo = span.reduce(_field_coords(target, basis))
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
        len(fields),
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


def determinant_poly(n: int) -> Poly:
    """Determinant as a polynomial on the n^2 matrix entries."""
    if math.factorial(n) > MAX_BASIS_SIZE:
        raise PreconditionError(
            f"the {n}x{n} determinant has {math.factorial(n)} terms, "
            f"more than {MAX_BASIS_SIZE}"
        )
    nvars = n * n
    terms: dict[tuple[int, ...], Scalar] = {}
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        sign = Scalar.exact(-1 if inversions % 2 else 1)
        exp = [0] * nvars
        for row, col in enumerate(perm):
            exp[row * n + col] += 1
        terms[tuple(exp)] = sign
    return Poly(nvars, terms)


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
    """Determinant of a square matrix by exact Gaussian elimination over Q(i)."""
    rows = [list(row) for row in entries]
    det = Scalar.exact(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return Scalar.exact(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        head = rows[col]
        det = det * head[col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / head[col]
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], head)]
    return det


def sample_sl_points(n: int, count: int, seed: int = 1729) -> list[tuple[Scalar, ...]]:
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


@dataclass(frozen=True)
class VarietyCheck:
    """Sampled-evaluation verdict; evidence, not a proof."""

    holds_on_samples: bool
    points_tested: int
    failures: tuple[tuple[int, int], ...]
    note: str = (
        "verified by exact evaluation at sampled variety points; "
        "this is randomized identity-testing evidence, not a proof"
    )


def verify_on_variety(
    lhs: VectorField,
    rhs: VectorField,
    ideal_generators: Sequence[Poly],
    points: Sequence[Sequence[Scalar]],
) -> VarietyCheck:
    """Evaluate lhs - rhs at sampled points of the variety, exactly."""
    if lhs.nvars != rhs.nvars:
        raise ArityMismatch("fields disagree on variable count")
    for p_idx, point in enumerate(points):
        for g_idx, gen in enumerate(ideal_generators):
            if not gen.evaluate(point).is_zero():
                raise PreconditionError(
                    f"point {p_idx} does not annihilate ideal generator {g_idx}"
                )
    diff = lhs - rhs
    failures = []
    for p_idx, point in enumerate(points):
        for c_idx, comp in enumerate(diff.components):
            if not comp.evaluate(point).is_zero():
                failures.append((p_idx, c_idx))
    return VarietyCheck(not failures, len(points), tuple(failures))


