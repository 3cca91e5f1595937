"""Polynomial vector fields as derivations of the coordinate ring.

A field V = (V_1, ..., V_n) acts on a polynomial f as
V(f) = sum_i V_i * df/dx_i, and [V, W] is the usual commutator of
derivations.  Locally nilpotent fields integrate to polynomial
one-parameter groups via a finite exponential series; diagonal
semi-simple fields integrate to coordinate scalings.  Text form for a
field is ``[p1; p2; ...; pn]`` with each component in the polynomial
grammar.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import factorial
from operator import add
from typing import Mapping, Sequence

from .errors import ArityMismatch, ParseError, PreconditionError, RegimeMismatch
from .linalg import nullspace
from .poly import MonomialBasis, Poly, _trusted_poly, format_poly, parse_poly
from .scalars import ONE, Scalar

__all__ = [
    "VectorField",
    "PolyMap",
    "NilpotencyVerdict",
    "NilpotencyReport",
    "lie_bracket",
    "shear_pair_fields",
    "shear_pair_residual",
    "nilpotency_report",
    "annihilation_order",
    "kernel_basis",
    "flow_nilpotent",
    "flow_semisimple",
    "pushforward",
    "parse_vector_field",
    "format_vector_field",
    "DEFAULT_NILPOTENCY_CAP",
]

DEFAULT_NILPOTENCY_CAP = 64


class VectorField:
    """Immutable n-tuple of polynomials; component i multiplies d/dx_i."""

    __slots__ = ("nvars", "components")

    def __init__(self, components: Sequence[Poly]):
        components = tuple(components)
        if not components:
            raise ArityMismatch("a vector field needs at least one component")
        nvars = components[0].nvars
        for comp in components:
            if comp.nvars != nvars:
                raise ArityMismatch("vector field components disagree on variable count")
        self.nvars = nvars
        self.components = components

    @classmethod
    def zero(cls, nvars: int) -> "VectorField":
        return cls([Poly.zero(nvars)] * nvars)

    @classmethod
    def coordinate(cls, nvars: int, index: int) -> "VectorField":
        """The coordinate derivation d/dx_index."""
        return cls.monomial(nvars, index, Poly.constant(nvars, 1))

    @classmethod
    def monomial(cls, nvars: int, index: int, coefficient: Poly) -> "VectorField":
        """The field coefficient * d/dx_index."""
        comps = [Poly.zero(nvars)] * nvars
        comps[index] = coefficient
        return cls(comps)

    @property
    def degree(self) -> int:
        return max(comp.degree for comp in self.components)

    def is_zero(self) -> bool:
        return all(comp.is_zero() for comp in self.components)

    def _check_arity(self, other: "VectorField") -> None:
        if self.nvars != other.nvars:
            raise ArityMismatch(f"fields use {self.nvars} and {other.nvars} variables")

    def apply(self, f: Poly) -> Poly:
        """Derivation action: sum_i V_i * df/dx_i."""
        if f.nvars != self.nvars:
            raise ArityMismatch(f"polynomial uses {f.nvars} variables, field {self.nvars}")
        return _trusted_poly(self.nvars, _derivative_terms(self.components, f.terms))

    def bracket(self, other: "VectorField") -> "VectorField":
        """Lie bracket [self, other], componentwise self(W_k) - other(V_k).

        Both actions accumulate into one exponent -> coefficient dict per
        component, with no intermediate polynomial.  The arithmetic is
        exact, so the result does not depend on the order of summation.
        """
        self._check_arity(other)
        out = []
        for v_k, w_k in zip(self.components, other.components):
            acc: dict[tuple[int, ...], Scalar] = {}
            _add_derivative(acc, self.components, w_k.terms, 1)
            _add_derivative(acc, other.components, v_k.terms, -1)
            out.append(_trusted_poly(self.nvars, {exp: c for exp, c in acc.items() if c}))
        return VectorField(out)

    def __add__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        self._check_arity(other)
        return VectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VectorField") -> "VectorField":
        if not isinstance(other, VectorField):
            return NotImplemented
        self._check_arity(other)
        return VectorField([a - b for a, b in zip(self.components, other.components)])

    def __neg__(self) -> "VectorField":
        return VectorField([-c for c in self.components])

    def scale(self, factor: Scalar) -> "VectorField":
        return VectorField([c.scale(factor) for c in self.components])

    def mul_poly(self, f: Poly) -> "VectorField":
        return VectorField([c * f for c in self.components])

    def evaluate(self, point: Sequence[Scalar]) -> list[Scalar]:
        return [comp.evaluate(point) for comp in self.components]

    def eval_complex(self, point: Sequence[complex]) -> list[complex]:
        return [comp.eval_complex(point) for comp in self.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField):
            return NotImplemented
        return self.nvars == other.nvars and self.components == other.components

    __hash__ = None

    def key(self):
        return tuple(comp.key() for comp in self.components)

    def __str__(self) -> str:
        return format_vector_field(self)

    def __repr__(self) -> str:
        return f"VectorField({format_vector_field(self)!r})"


def _add_derivative(
    acc: dict[tuple[int, ...], Scalar], components: Sequence[Poly], f_terms: Mapping, sign: int
) -> None:
    """Add sign * sum_j components[j] * df/dx_j into `acc`, term by term.

    This is the one implementation of the derivation action.  It reads f
    as exponent -> coefficient terms, so no caller builds a `Poly` for f;
    `acc` may end up holding zero coefficients, which the caller drops.
    """
    if not f_terms:
        return
    for j, comp in enumerate(components):
        c_terms = comp.terms
        if not c_terms:
            continue
        for exp, coeff in f_terms.items():
            power = exp[j]
            if not power:
                continue
            lowered = list(exp)
            lowered[j] = power - 1
            factor = coeff * (sign * power)
            for c_exp, c_coeff in c_terms.items():
                key = tuple(map(add, c_exp, lowered))
                term = c_coeff * factor
                cur = acc.get(key)
                acc[key] = term if cur is None else cur + term


def _derivative_terms(components: Sequence[Poly], f_terms: Mapping) -> dict[tuple[int, ...], Scalar]:
    """The terms of sum_j components[j] * df/dx_j, zeros dropped."""
    acc: dict[tuple[int, ...], Scalar] = {}
    _add_derivative(acc, components, f_terms, 1)
    return {exp: c for exp, c in acc.items() if c}


def lie_bracket(v: VectorField, w: VectorField) -> VectorField:
    return v.bracket(w)


def shear_pair_fields(nvars: int, aux: int, axis: int, f1: Poly, f2: Poly):
    """The four factors, in order, of the Andersen-Lempert shear identity

        [f1 d_aux, x_aux f2 d_axis] - [x_aux f1 d_aux, f2 d_axis] = f1 f2 d_axis,

    where d_k = d/dx_k; it holds when f1 is free of x_aux and f2 of x_axis.
    """
    x_aux = Poly.variable(nvars, aux)
    return (
        VectorField.monomial(nvars, aux, f1),
        VectorField.monomial(nvars, axis, x_aux * f2),
        VectorField.monomial(nvars, aux, x_aux * f1),
        VectorField.monomial(nvars, axis, f2),
    )


def shear_pair_residual(nvars: int, aux: int, axis: int, f1: Poly, f2: Poly) -> VectorField:
    """Left side minus right side of the shear identity; see `shear_pair_fields`."""
    a1, b1, a2, b2 = shear_pair_fields(nvars, aux, axis, f1, f2)
    return a1.bracket(b1) - a2.bracket(b2) - VectorField.monomial(nvars, axis, f1 * f2)


def parse_vector_field(text: str, nvars: int | None = None) -> VectorField:
    """Parse ``[p1; p2; ...; pn]``; nvars defaults to the component count."""
    stripped = text.strip()
    if not stripped.startswith("[") or not stripped.endswith("]"):
        raise ParseError("vector field text must be wrapped in brackets", 0)
    inner = stripped[1:-1]
    parts = inner.split(";")
    if nvars is None:
        nvars = len(parts)
    if len(parts) != nvars:
        raise ParseError(f"expected {nvars} components, found {len(parts)}", 0)
    return VectorField([parse_poly(part, nvars) for part in parts])


def format_vector_field(field: VectorField) -> str:
    return "[" + "; ".join(format_poly(c) for c in field.components) + "]"


# ---------------------------------------------------------------------------
# Nilpotency
# ---------------------------------------------------------------------------


class NilpotencyVerdict(Enum):
    NILPOTENT = "nilpotent"
    NOT_NILPOTENT_WITHIN_CAP = "not-nilpotent-within-cap"


@dataclass(frozen=True)
class NilpotencyReport:
    """Outcome of iterating a field on the coordinate functions.

    `orders` holds, per coordinate, the smallest k with V^k(x_i) = 0.
    For polynomial rings nilpotency on all coordinates already implies
    nilpotency on every polynomial (apply the Leibniz rule to monomials),
    so a NILPOTENT verdict is a proof, while NOT_NILPOTENT_WITHIN_CAP is
    only the honest one-sided statement that the cap was hit.
    """

    verdict: NilpotencyVerdict
    orders: tuple[int, ...] | None
    cap: int

    def is_nilpotent(self) -> bool:
        return self.verdict is NilpotencyVerdict.NILPOTENT


def nilpotency_report(field: VectorField, cap: int = DEFAULT_NILPOTENCY_CAP) -> NilpotencyReport:
    if cap < 1:
        raise ValueError("cap must be at least 1")
    orders = []
    for i in range(field.nvars):
        order = annihilation_order(field, Poly.variable(field.nvars, i), cap)
        if order is None:
            return NilpotencyReport(NilpotencyVerdict.NOT_NILPOTENT_WITHIN_CAP, None, cap)
        orders.append(order)
    return NilpotencyReport(NilpotencyVerdict.NILPOTENT, tuple(orders), cap)


def annihilation_order(field: VectorField, f: Poly, cap: int = DEFAULT_NILPOTENCY_CAP) -> int | None:
    """Smallest k <= cap with V^k(f) = 0, or None if the cap binds."""
    current = f
    for k in range(cap + 1):
        if current.is_zero():
            return k
        current = field.apply(current)
    return None


# ---------------------------------------------------------------------------
# Kernel computation
# ---------------------------------------------------------------------------


def kernel_basis(field: VectorField, degree: int) -> list[Poly]:
    """Exact basis of {f : deg f <= degree, V(f) = 0}, echelonized.

    Solves V(f) = 0 by exact elimination of sparse columns: column i is
    the image V(x^e_i) of the term {e_i: 1}, built with no `Poly`, keyed
    by the monomials it reaches, which `nullspace` numbers as rows.  Each
    basis vector is e_j minus earlier columns, so the result is the
    reduced echelon basis, ascending by leading monomial x^e_j.
    """
    basis = MonomialBasis(field.nvars, degree)
    columns = [_derivative_terms(field.components, {exp: ONE}) for exp in basis]
    return [
        _trusted_poly(field.nvars, {basis.exponents[i]: value for i, value in vec.items()})
        for vec in nullspace(columns)
    ]


# ---------------------------------------------------------------------------
# Polynomial maps and flows
# ---------------------------------------------------------------------------


class PolyMap:
    """Polynomial self-map of complex n-space, optionally with an exact inverse."""

    __slots__ = ("nvars", "components", "inverse")

    def __init__(self, components: Sequence[Poly], inverse: "PolyMap | None" = None):
        components = tuple(components)
        if not components:
            raise ArityMismatch("a polynomial map needs at least one component")
        nvars = components[0].nvars
        if len(components) != nvars:
            raise ArityMismatch(
                f"map has {len(components)} components on {nvars} variables"
            )
        for comp in components:
            if comp.nvars != nvars:
                raise ArityMismatch("map components disagree on variable count")
        self.nvars = nvars
        self.components = components
        self.inverse = inverse

    @classmethod
    def identity(cls, nvars: int) -> "PolyMap":
        out = cls([Poly.variable(nvars, i) for i in range(nvars)])
        out.inverse = out
        return out

    @classmethod
    def with_inverse(cls, components, inverse_components, verify: bool = True) -> "PolyMap":
        forward = cls(components)
        backward = cls(inverse_components)
        forward.inverse = backward
        backward.inverse = forward
        if verify:
            ident = [Poly.variable(forward.nvars, i) for i in range(forward.nvars)]
            if (
                [c.substitute(backward.components) for c in forward.components] != ident
                or [c.substitute(forward.components) for c in backward.components] != ident
            ):
                raise PreconditionError("stored inverse does not invert the map exactly")
        return forward

    def compose(self, other: "PolyMap") -> "PolyMap":
        """self after other."""
        if self.nvars != other.nvars:
            raise ArityMismatch("composed maps disagree on variable count")
        comps = [c.substitute(other.components) for c in self.components]
        out = PolyMap(comps)
        if self.inverse is not None and other.inverse is not None:
            inv = [c.substitute(self.inverse.components) for c in other.inverse.components]
            backward = PolyMap(inv)
            out.inverse = backward
            backward.inverse = out
        return out

    def evaluate(self, point: Sequence[Scalar]) -> list[Scalar]:
        return [comp.evaluate(point) for comp in self.components]

    def eval_complex(self, point: Sequence[complex]) -> list[complex]:
        return [comp.eval_complex(point) for comp in self.components]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.components == other.components

    __hash__ = None

    def __str__(self) -> str:
        return "[" + "; ".join(format_poly(c) for c in self.components) + "]"

    def __repr__(self) -> str:
        return f"PolyMap({str(self)!r})"


def _as_exact_scalar(t) -> Scalar:
    if isinstance(t, Scalar):
        return t
    if isinstance(t, (int, Fraction)):
        return Scalar.exact(t)
    raise RegimeMismatch("exact flows take exact time values")


def flow_nilpotent(field: VectorField, t) -> PolyMap:
    """Exact time-t flow of a locally nilpotent field, with exact inverse.

    Component i is the finite series sum_k t^k/k! V^k(x_i); the inverse
    is the same series at -t.  The field must be nilpotent within
    DEFAULT_NILPOTENCY_CAP applications.
    """
    report = nilpotency_report(field)
    if not report.is_nilpotent():
        raise PreconditionError(
            f"flow_nilpotent needs a nilpotent field (verdict {report.verdict.value})"
        )
    t = _as_exact_scalar(t)

    def series(time: Scalar) -> list[Poly]:
        comps = []
        for i in range(field.nvars):
            term = Poly.variable(field.nvars, i)
            total = term
            k = 0
            while True:
                k += 1
                term = field.apply(term)
                if term.is_zero():
                    break
                factor = time**k * Scalar.exact(Fraction(1, factorial(k)))
                total = total + term.scale(factor)
            comps.append(total)
        return comps

    return PolyMap.with_inverse(series(t), series(-t))


def flow_semisimple(weights: Sequence[int], lam: Scalar) -> PolyMap:
    """Diagonal torus action x_i -> lam**w_i * x_i with exact inverse."""
    if isinstance(lam, (int, Fraction)):
        lam = Scalar.exact(lam)
    if lam.is_zero():
        raise PreconditionError("flow_semisimple needs a nonzero multiplier")
    nvars = len(weights)
    if nvars == 0:
        raise ArityMismatch("weights must be non-empty")
    for w in weights:
        if not isinstance(w, int):
            raise ValueError("weights must be integers")

    def build(multiplier: Scalar) -> list[Poly]:
        return [
            Poly.variable(nvars, i).scale(multiplier**weights[i])
            for i in range(nvars)
        ]

    inv = ONE / lam
    return PolyMap.with_inverse(build(lam), build(inv), verify=False)


def pushforward(field: VectorField, phi: PolyMap) -> VectorField:
    """Conjugated field (Dphi . V) o phi^{-1}; phi must carry its inverse.

    Component k of Dphi . V is V(phi_k).
    """
    if phi.inverse is None:
        raise PreconditionError("pushforward needs a map with a stored exact inverse")
    return VectorField(
        [field.apply(phi_k).substitute(phi.inverse.components) for phi_k in phi.components]
    )
