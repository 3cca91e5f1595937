"""Numeric flow approximation by compositions of exactly integrable maps.

Any polynomial field decomposes into primitives whose flows are known in
closed form: shears (coefficient free of the flow direction) integrate
to x_i += t*f, coordinate-multiplied shears integrate to the entire map
x_i *= exp(t*f), and diagonal fields to coordinate scalings.  A field
component c*x^a*d/dx_i whose coefficient involves x_i is not itself
integrable in this sense, but it is the value of the bracket identity

    [f1 dj, xj f2 di] - [xj f1 dj, f2 di] = f1 f2 di

on four integrable factors, so its flow can be approximated by group
commutators of exact elementary automorphisms.  Splitting those steps
over m substeps and measuring against an independent Runge-Kutta oracle
quantifies the approximation; iterating an attracting composition
samples its basin, a Fatou-Bieberbach style domain.

Every elementary flow has one numeric body, the in-place `update`, on an
(nvars, k) complex array of k points; `AutoSeq.update` runs the factors'
updates in turn on the same array.  `apply_array` is `update` on a copy
(one copy for a whole `AutoSeq`), and `apply` on a one-column batch, so
single points and batches share their arithmetic.
`apply_exact` is the separate exact-Scalar regime for shears.  The
Runge-Kutta oracle `integrate_flow` takes the same (nvars, k) arrays,
with step control per point: a round runs one step count, or two, L and
2L, side by side in one loop when the last differences show that L will
not settle every point; `approximate_isotopy` runs its substep counts
side by side too, from one table of each time slice's splitting factors,
which also gives its returned sequence.  Every column's arithmetic is
that of its run alone, so each point's endpoint is bit for bit the one
it would get by itself, one step count at a time.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .density import DEFAULT_SEED
from .errors import ArityMismatch, PreconditionError, RegimeMismatch, ShearKitError
from .fields import VectorField, _as_exact_scalar, shear_pair_residual
from .poly import Poly, grlex_key, parse_poly
from .scalars import Scalar
from . import serialize

__all__ = [
    "ShearFlow",
    "OvershearFlow",
    "DiagonalFlow",
    "AutoSeq",
    "Shear",
    "BracketPair",
    "decompose_field",
    "primitive_target",
    "commutator_step",
    "trotter_compose",
    "approximate_isotopy",
    "ConvergenceReport",
    "measure_convergence",
    "integrate_flow",
    "sample_ball",
    "fit_loglog_slope",
    "GridSpec",
    "BasinResult",
    "basin_sample",
    "attracting_shear_composition",
    "radial_contraction",
    "autoseq_to_json_dict",
    "autoseq_from_json_dict",
    "DEFAULT_SEED",
]


# ---------------------------------------------------------------------------
# Elementary exactly-integrable automorphisms
# ---------------------------------------------------------------------------


def _shear_coefficient(axis: int, coeff: Poly) -> Poly:
    if not coeff.partial(axis).is_zero():
        raise PreconditionError(
            f"shear coefficient must not depend on x{axis + 1}"
        )
    return coeff


def _time_complex(time) -> "complex | np.ndarray":
    """A flow's time as a complex; a per-column time array passes through."""
    if isinstance(time, np.ndarray):
        return time
    return time.to_complex() if isinstance(time, Scalar) else complex(time)


def _apply_point(flow, point: Sequence[complex]) -> tuple[complex, ...]:
    """Evaluate `flow.apply_array` at one point, as a one-column batch."""
    column = np.array(point, dtype=complex).reshape(-1, 1)
    return tuple(flow.apply_array(column)[:, 0].tolist())


def _apply_array(flow, points: np.ndarray) -> np.ndarray:
    """Evaluate `flow.update` on a copy of `points`."""
    out = points.copy()
    flow.update(out)
    return out


@dataclass(frozen=True)
class ShearFlow:
    """Exact time-t flow of coeff * d/dx_axis with coeff free of x_axis.

    The time is a complex number in the numeric pipeline; an exact
    Scalar time makes the whole flow evaluable without rounding through
    apply_exact.  The batched approximants give `update` a complex array
    of per-column times instead.
    """

    axis: int
    coeff: Poly
    time: "complex | Scalar"

    def __post_init__(self):
        _shear_coefficient(self.axis, self.coeff)

    def update(self, z: np.ndarray) -> None:
        # the coefficient is free of x_axis, so it may be read before the add
        z[self.axis] += _time_complex(self.time) * self.coeff.eval_complex(z)

    apply_array = _apply_array
    apply = _apply_point

    def apply_exact(self, point: Sequence[Scalar], time: Scalar) -> tuple[Scalar, ...]:
        out = list(point)
        out[self.axis] = out[self.axis] + time * self.coeff.evaluate(point)
        return tuple(out)

    def inverse(self) -> "ShearFlow":
        return ShearFlow(self.axis, self.coeff, -self.time)


@dataclass(frozen=True)
class OvershearFlow:
    """Exact flow of x_axis * coeff * d/dx_axis: multiplies x_axis by exp(t*coeff).

    The field is completely integrable but not locally nilpotent, so its
    flow is entire holomorphic rather than polynomial.
    """

    axis: int
    coeff: Poly
    time: complex

    def __post_init__(self):
        _shear_coefficient(self.axis, self.coeff)

    def update(self, z: np.ndarray) -> None:
        z[self.axis] *= np.exp(self.time * self.coeff.eval_complex(z))

    apply_array = _apply_array
    apply = _apply_point

    def inverse(self) -> "OvershearFlow":
        return OvershearFlow(self.axis, self.coeff, -self.time)


@dataclass(frozen=True)
class DiagonalFlow:
    """Coordinate scaling x_i -> factor**weights[i] * x_i."""

    weights: tuple[int, ...]
    factor: complex

    def __post_init__(self):
        if self.factor == 0:
            raise PreconditionError("diagonal flow needs a nonzero factor")

    def update(self, z: np.ndarray) -> None:
        z *= np.array([self.factor**w for w in self.weights])[:, None]

    apply_array = _apply_array
    apply = _apply_point

    def inverse(self) -> "DiagonalFlow":
        return DiagonalFlow(self.weights, 1.0 / self.factor)


ElementaryFlow = ShearFlow | OvershearFlow | DiagonalFlow


class AutoSeq:
    """Composition of elementary automorphisms, evaluated right to left.

    `elements[0]` is the outermost factor (applied last).  Every element
    carries its exact inverse; reversing and inverting the list yields
    the exact inverse sequence.  `update` maps a batch of points, shape
    (nvars, k), in place through every factor; `apply_array` runs it on a
    copy and `apply` on a one-column batch.
    """

    __slots__ = ("nvars", "elements")

    def __init__(self, nvars: int, elements: Sequence[ElementaryFlow]):
        self.nvars = nvars
        self.elements = tuple(elements)
        for element in self.elements:
            if isinstance(element, DiagonalFlow) and len(element.weights) != nvars:
                raise ArityMismatch(
                    f"diagonal element has {len(element.weights)} weights, expected {nvars}"
                )

    @classmethod
    def from_application_order(
        cls, nvars: int, steps: Sequence[ElementaryFlow]
    ) -> "AutoSeq":
        return cls(nvars, tuple(reversed(list(steps))))

    def __len__(self) -> int:
        return len(self.elements)

    def apply(self, point: Sequence[complex]) -> tuple[complex, ...]:
        if len(point) != self.nvars:
            raise ArityMismatch(f"point has {len(point)} coordinates, expected {self.nvars}")
        return _apply_point(self, point)

    def update(self, z: np.ndarray) -> None:
        if z.shape[0] != self.nvars:
            raise ArityMismatch("point array has the wrong leading dimension")
        for element in reversed(self.elements):
            element.update(z)

    apply_array = _apply_array

    def apply_exact(self, point: Sequence[Scalar]) -> tuple[Scalar, ...]:
        """Exact evaluation; requires every element to be a shear with exact data."""
        z = tuple(point)
        for element in reversed(self.elements):
            if not isinstance(element, ShearFlow):
                raise RegimeMismatch("exact evaluation supports shear elements only")
            z = element.apply_exact(z, _as_exact_scalar(element.time))
        return z

    def inverse(self) -> "AutoSeq":
        return AutoSeq(
            self.nvars, tuple(e.inverse() for e in reversed(self.elements))
        )

    def then(self, outer: "AutoSeq") -> "AutoSeq":
        """The composition outer o self."""
        if outer.nvars != self.nvars:
            raise ArityMismatch("composed sequences disagree on variable count")
        return AutoSeq(self.nvars, outer.elements + self.elements)

    def __repr__(self) -> str:
        return f"AutoSeq(nvars={self.nvars}, {len(self.elements)} factors)"


def autoseq_to_json_dict(seq: AutoSeq) -> dict:
    elements = []
    for element in seq.elements:
        if isinstance(element, (ShearFlow, OvershearFlow)):
            t = _time_complex(element.time)
            elements.append(
                {
                    "kind": "shear" if isinstance(element, ShearFlow) else "overshear",
                    "axis": element.axis + 1,
                    "coeff": serialize.poly_to_text(element.coeff),
                    "time": [t.real, t.imag],
                }
            )
        elif isinstance(element, DiagonalFlow):
            f = complex(element.factor)
            elements.append(
                {
                    "kind": "diagonal",
                    "weights": list(element.weights),
                    "factor": [f.real, f.imag],
                }
            )
        else:
            raise TypeError(f"unknown element {element!r}")
    return {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "autoseq",
        "nvars": seq.nvars,
        "elements": elements,
    }


def autoseq_from_json_dict(doc: dict) -> AutoSeq:
    serialize.require_keys(doc, "automorphism sequence", nvars=int, elements=list)
    nvars = doc["nvars"]
    elements: list[ElementaryFlow] = []
    for entry in doc["elements"]:
        kind = serialize.require_keys(entry, "sequence element", kind=str)["kind"]
        if kind in ("shear", "overshear"):
            serialize.require_keys(
                entry, f"{kind} element", axis=int, coeff=str, time=(float, float)
            )
            flow = ShearFlow if kind == "shear" else OvershearFlow
            elements.append(
                flow(
                    entry["axis"] - 1,
                    parse_poly(entry["coeff"], nvars),
                    complex(*entry["time"]),
                )
            )
        elif kind == "diagonal":
            serialize.require_keys(
                entry, "diagonal element", weights=[int], factor=(float, float)
            )
            elements.append(DiagonalFlow(tuple(entry["weights"]), complex(*entry["factor"])))
        else:
            raise ShearKitError(f"unknown element kind {kind!r}")
    return AutoSeq(nvars, elements)


# ---------------------------------------------------------------------------
# Decomposition into complete primitives
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Shear:
    """Primitive f * d/dx_axis with f free of x_axis; its flow is exact."""

    axis: int
    coeff: Poly

    def __post_init__(self):
        _shear_coefficient(self.axis, self.coeff)


@dataclass(frozen=True)
class BracketPair:
    """Primitive realizing f1*f2*d/dx_axis as a difference of two brackets.

    The brackets are the shear identity on the four integrable factors of
    `fields.shear_pair_fields`, re-verified exactly at construction time.
    The splitting reads them off the pair as (axis, f, is_overshear) triples,
    not as fields: x_aux f1 d_aux is the overshear of f1, the others shears.
    """

    axis: int
    aux: int
    f1: Poly
    f2: Poly

    def __post_init__(self):
        if self.axis == self.aux:
            raise PreconditionError("bracket pair needs a distinct auxiliary direction")
        if not self.f1.partial(self.aux).is_zero():
            raise PreconditionError("f1 must not depend on the auxiliary variable")
        if not self.f2.partial(self.axis).is_zero():
            raise PreconditionError("f2 must not depend on the target variable")
        residual = shear_pair_residual(self.f1.nvars, self.aux, self.axis, self.f1, self.f2)
        if not residual.is_zero():
            raise PreconditionError("bracket-pair identity failed to verify")


CompletePrimitive = Shear | BracketPair


def primitive_target(primitive: CompletePrimitive, nvars: int) -> VectorField:
    """The field a primitive stands for."""
    if isinstance(primitive, Shear):
        return VectorField.monomial(nvars, primitive.axis, primitive.coeff)
    return VectorField.monomial(nvars, primitive.axis, primitive.f1 * primitive.f2)


def decompose_field(field: VectorField) -> list[CompletePrimitive]:
    """Split a field, monomial by monomial, into complete primitives.

    A monomial c*x^a*d/dx_i with a_i = 0 is already a shear.  Otherwise
    the smallest auxiliary index j != i is used: f2 = xj^{a_j} and
    f1 = c*x^a / xj^{a_j} give a BracketPair whose identity target is
    the monomial.  The targets sum to the field exactly.
    """
    n = field.nvars
    if n < 2:
        raise PreconditionError("decomposition needs at least two variables")
    primitives: list[CompletePrimitive] = []
    for i, comp in enumerate(field.components):
        for exp in sorted(comp.terms, key=grlex_key):
            coeff = comp.terms[exp]
            if exp[i] == 0:
                primitives.append(Shear(i, Poly.monomial(n, exp, coeff)))
                continue
            j = min(k for k in range(n) if k != i)
            f2 = Poly.monomial(
                n, tuple(exp[k] if k == j else 0 for k in range(n)), Scalar.exact(1)
            )
            f1 = Poly.monomial(
                n, tuple(0 if k == j else exp[k] for k in range(n)), coeff
            )
            primitives.append(BracketPair(i, j, f1, f2))
    return primitives


# ---------------------------------------------------------------------------
# Splitting schemes
# ---------------------------------------------------------------------------


def _classify_integrable(field: VectorField) -> tuple[int, Poly, bool]:
    """Recognize f*d/dx_i (shear) or x_i*f*d/dx_i (overshear), exactly.

    Returns (axis, f, is_overshear); anything else is rejected, since no
    exact elementary flow is available for it.
    """
    nonzero = [i for i, c in enumerate(field.components) if not c.is_zero()]
    if len(nonzero) != 1:
        raise PreconditionError("not an elementary integrable field (one component expected)")
    axis = nonzero[0]
    coeff = field.components[axis]
    if coeff.partial(axis).is_zero():
        return axis, coeff, False
    # try the overshear shape x_axis * f with f free of x_axis
    lowered = {}
    for exp, value in coeff.terms.items():
        if exp[axis] != 1:
            raise PreconditionError(
                "not an elementary integrable field (coefficient must be free of "
                "its direction variable or linear in it)"
            )
        new_exp = list(exp)
        new_exp[axis] = 0
        lowered[tuple(new_exp)] = value
    return axis, Poly(field.nvars, lowered), True


def _commutator_factors(
    a: tuple[int, Poly, bool], b: tuple[int, Poly, bool], a_time: complex
) -> list[ElementaryFlow]:
    """Group-commutator factors approximating exp(a^2 [A, B]) as a map.

    A and B come as `_classify_integrable` triples.  Flows compose
    anti-homomorphically with the field bracket (pulling back functions
    reverses products), so the map realizing [A, B] applies the flows in
    the order A(-a), B(-a), A(a), B(a), returned in application order.
    """
    return [
        (OvershearFlow if overshear else ShearFlow)(axis, coeff, time)
        for time in (-a_time, a_time)
        for axis, coeff, overshear in (a, b)
    ]


def commutator_step(a_field: VectorField, b_field: VectorField, s: float) -> AutoSeq:
    """Group-commutator fragment approximating exp(s*[A, B]).

    Both inputs must be exactly integrable elementary fields (shears or
    coordinate-multiplied shears).  The four factors use time sqrt(s),
    so the local error is of order s**(3/2).
    """
    if s < 0:
        raise PreconditionError("commutator_step takes a non-negative time")
    nvars = a_field.nvars
    if nvars != b_field.nvars:
        raise ArityMismatch("fields disagree on variable count")
    factors = _commutator_factors(
        _classify_integrable(a_field), _classify_integrable(b_field), math.sqrt(s)
    )
    return AutoSeq.from_application_order(nvars, factors)


def _primitive_step(primitive: CompletePrimitive, dt: float, scheme: str) -> list[ElementaryFlow]:
    """Application-ordered factors advancing one primitive by time dt."""
    if isinstance(primitive, Shear):
        return [ShearFlow(primitive.axis, primitive.coeff, dt)]
    axis, aux, f1, f2 = primitive.axis, primitive.aux, primitive.f1, primitive.f2
    a1, b1 = (aux, f1, False), (axis, Poly.variable(f2.nvars, aux) * f2, False)
    a2, b2 = (aux, f1, True), (axis, f2, False)
    if scheme == "plain":
        a = cmath.sqrt(dt)
        # exp(dt [A1,B1]) then exp(-dt [A2,B2]) = exp(dt [B2,A2])
        return _commutator_factors(b2, a2, a) + _commutator_factors(a1, b1, a)
    if scheme == "symmetric":
        a = cmath.sqrt(dt / 2.0)
        # each palindromic pair K(a) K(-a) cancels the order-s^{3/2} term
        return (
            _commutator_factors(b2, a2, -a)
            + _commutator_factors(b2, a2, a)
            + _commutator_factors(a1, b1, -a)
            + _commutator_factors(a1, b1, a)
        )
    raise ValueError(f"unknown splitting scheme {scheme!r}")


def trotter_compose(
    primitives: Sequence[CompletePrimitive],
    nvars: int,
    total_time: float,
    steps: int,
    scheme: str = "symmetric",
) -> AutoSeq:
    """Compose elementary steps (product over primitives)**steps.

    Shear primitives contribute their exact flows; bracket pairs are
    realized by group commutators at each substep.  The symmetric scheme
    pairs each commutator with its time-reversed copy, which restores
    first-order accuracy in the step count; the plain scheme uses single
    commutators and converges like steps**(-1/2).
    """
    if steps < 1:
        raise PreconditionError("steps must be at least 1")
    per_step = [f for p in primitives for f in _primitive_step(p, total_time / steps, scheme)]
    return AutoSeq.from_application_order(nvars, per_step * steps)


# ---------------------------------------------------------------------------
# Error measurement against an independent oracle
# ---------------------------------------------------------------------------


def sample_ball(nvars: int, radius: float, count: int, seed: int = DEFAULT_SEED) -> list[tuple[complex, ...]]:
    """Deterministic sample of points in the complex ball of given radius."""
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        raw = rng.standard_normal(2 * nvars)
        norm = float(np.linalg.norm(raw))
        if norm == 0:
            raw = np.ones(2 * nvars)
            norm = float(np.linalg.norm(raw))
        shell = radius * float(rng.uniform()) ** (1.0 / (2 * nvars))
        scaled = raw / norm * shell
        points.append(tuple(complex(scaled[2 * i], scaled[2 * i + 1]) for i in range(nvars)))
    return points


# two successive oracle estimates of a point that agree within this are final
_ORACLE_TOL = 1e-10


def _side_by_side(counts: list[int], z: np.ndarray, advance) -> list[np.ndarray]:
    """z's blocks of columns, each run for its own entry of `counts` (finest first).

    `advance(z, active, steps)` moves the first `active` blocks in place.  A block
    whose count is done leaves z, and a C-contiguous copy of the rest goes on.
    """
    z = np.ascontiguousarray(z)
    width = z.shape[1] // len(counts)
    ends, done = [], 0
    for active in range(len(counts), 0, -1):
        advance(z, active, counts[active - 1] - done)
        done = counts[active - 1]
        ends.append(z[:, -width:])
        z = np.ascontiguousarray(z[:, :-width])
    return ends[::-1]


def integrate_flow(
    field_at: Callable[[float], VectorField],
    start: np.ndarray,
    total_time: float,
    max_doublings: int = 16,
) -> np.ndarray:
    """Classical fixed-step fourth-order integration with Richardson control.

    `start` is an (nvars, k) complex array of k start points, and the
    value is the (nvars, k) array of their endpoints.  Every point runs
    at 32 steps first; each doubling reruns, from their start points,
    only the points still refining, and a point keeps its finer estimate
    as soon as two successive ones agree within _ORACLE_TOL.  A point
    whose estimate is non-finite (a pole; NaN never agrees) keeps it at
    once, and one that never agrees keeps its last estimate.

    A round runs one step count L, or two, 2L and L, side by side in one
    loop (`_side_by_side`): after L steps the loop goes on with the 2L
    half alone.  The rules above then settle the counts in order.  Two
    counts cost 2L steps against L + 2L one at a time, but 2L against L
    when every point settles at L, so a round pairs only when some
    point's last difference, shrunk 16-fold as a fourth-order method's
    does per doubling, still misses _ORACLE_TOL.  The first round pairs
    32 with 64 unless max_doublings is 0, since no point settles at 32.
    Step sizes are per-column complex arrays holding the values a scalar
    step is cast to, `field_at` is evaluated at each count's own time,
    once over every column when the counts get the same field object,
    and the stages run into buffers through the textbook expressions'
    ufuncs in their order.  So each column does the arithmetic of its run
    alone, and each point's endpoint is bit for bit the one it would get
    alone, one step count at a time.  Independent of the composition
    pipeline.
    """
    starts = np.array(start, dtype=complex)

    def fill(field: VectorField, z: np.ndarray, out: np.ndarray) -> None:
        # a constant component evaluates to a scalar, which broadcasts
        for i, value in enumerate(field.eval_complex(z)):
            out[i] = value

    def rhs(z: np.ndarray, times: list[float], out: np.ndarray) -> None:
        """The field at each step count's own time on that count's columns, into out."""
        first = field_at(times[0])
        # a round has one or two counts; one field object for both is evaluated once
        if len(times) == 1 or (second := field_at(times[1])) is first:
            fill(first, z, out)
        else:
            for field, zs, outs in zip((first, second), np.hsplit(z, 2), np.hsplit(out, 2)):
                fill(field, zs, outs)

    def advance(z: np.ndarray, active: int, steps: int) -> None:
        del hs[active:], times[active:]
        width = z.shape[1] // active
        h, half, sixth = (np.tile(np.repeat(np.array([x / d for x in hs], dtype=complex), width),
                                  (z.shape[0], 1)) for d in (1, 2, 6))
        k1, k2, k3, k4, arg = (np.empty_like(z) for _ in range(5))
        for _ in range(steps):
            rhs(z, times, k1)
            mids = [t + x / 2 for t, x in zip(times, hs)]
            rhs(np.add(z, np.multiply(half, k1, out=arg), out=arg), mids, k2)
            rhs(np.add(z, np.multiply(half, k2, out=arg), out=arg), mids, k3)
            times[:] = [t + x for t, x in zip(times, hs)]
            rhs(np.add(z, np.multiply(h, k3, out=arg), out=arg), times, k4)
            # z + sixth * (k1 + 2 * k2 + 2 * k3 + k4); numpy takes a scalar loop for a
            # product written over a one-element input, so only exact sums are in place
            np.add(k1, np.multiply(2, k2, out=arg), out=k1)
            np.add(k1, np.multiply(2, k3, out=arg), out=k1)
            np.add(k1, k4, out=k1)
            np.add(z, np.multiply(sixth, k1, out=arg), out=z)

    last = max(max_doublings, 0)
    # NaN, which no estimate agrees with, stands in before the first one
    estimate = np.full_like(starts, np.nan)
    # each point's difference between its last two estimates
    gap = np.full(starts.shape[1], np.inf)
    active = np.arange(starts.shape[1])
    level = 0
    while active.size and level <= last:
        pair = level < last and not np.all(gap[active] / 16 < _ORACLE_TOL)
        counts = [64 << level, 32 << level] if pair else [32 << level]
        # each count's step size and time, which `advance` reads and steps
        hs, times = [total_time / steps for steps in counts], [0.0] * len(counts)
        ends = _side_by_side(counts, np.tile(starts[:, active], len(counts)), advance)[::-1]
        # each active point's column in the round's endpoint arrays
        rows = np.arange(active.size)
        for finer in ends:
            if not active.size:
                break
            finer = finer[:, rows]
            gap[active] = np.max(np.abs(finer - estimate[:, active]), axis=0)
            refining = ~(gap[active] < _ORACLE_TOL) & np.all(np.isfinite(finer), axis=0)
            estimate[:, active] = finer
            active, rows = active[refining], rows[refining]
            level += 1
    return estimate


def fit_loglog_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Least-squares slope of log(y) against log(x); needs >= 3 distinct xs."""
    if len(xs) < 3 or len(xs) != len(ys):
        raise PreconditionError("slope fitting needs at least three matched samples")
    if len(set(xs)) != len(xs):
        raise PreconditionError(f"slope fitting needs distinct x values, got {list(xs)}")
    floor = 1e-300
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.maximum(np.asarray(ys, dtype=float), floor))
    slope, _intercept = np.polyfit(lx, ly, 1)
    return float(slope)


@dataclass(frozen=True)
class ConvergenceReport:
    """Max errors over fixed sample points, one entry per step count.

    `order` is the fitted decay exponent: error ~ step_count**(-order).
    """

    step_counts: tuple[int, ...]
    max_errors: tuple[float, ...]
    order: float
    radius: float
    sample_count: int
    seed: int

    def to_json_dict(self) -> dict:
        return {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "convergence-report",
            "step_counts": list(self.step_counts),
            "max_errors": list(self.max_errors),
            "order": self.order,
            "radius": self.radius,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }


def _sample_batch(nvars: int, radius: float, sample_count: int, seed: int) -> np.ndarray:
    """`sample_ball` as an (nvars, sample_count) array, one point per column."""
    points = sample_ball(nvars, radius, sample_count, seed)
    return np.array(points, dtype=complex).reshape(-1, nvars).T


def measure_convergence(
    build: Callable[[int], AutoSeq],
    reference: Callable[[tuple[complex, ...]], tuple[complex, ...]],
    step_counts: Sequence[int],
    nvars: int,
    radius: float,
    sample_count: int = 25,
    seed: int = DEFAULT_SEED,
) -> ConvergenceReport:
    """Max-error report for a family of approximants against a reference map."""
    batch = _sample_batch(nvars, radius, sample_count, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        truths = np.array(
            [reference(tuple(z)) for z in batch.T.tolist()], dtype=complex
        ).reshape(-1, nvars).T
        ends = [build(m).apply_array(batch) for m in step_counts]
    return _report_against(ends, truths, step_counts, radius, seed)


def _report_against(
    ends: Sequence[np.ndarray], truths: np.ndarray, step_counts: Sequence[int], radius: float, seed: int
) -> ConvergenceReport:
    """Max errors of each step count's endpoints of the sample against its truths."""
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        for end in ends:
            dist = np.sqrt(np.sum(np.abs(end - truths) ** 2, axis=0))
            errors.append(float(np.max(dist, initial=0.0)))
    if not all(math.isfinite(e) for e in errors):
        raise PreconditionError(
            f"the approximants or the reference overflow on the ball of radius {radius}"
        )
    order = -fit_loglog_slope(list(step_counts), errors)
    return ConvergenceReport(
        tuple(step_counts), tuple(errors), order, radius, truths.shape[1], seed
    )


def _approximant_ends(slice_primitives: Sequence, dt_slice: float, step_counts: Sequence[int],
                      scheme: str, batch: np.ndarray) -> tuple[list, list]:
    """The batch mapped by each step count's slices of `trotter_compose`, bit for bit,
    and each slice's one-step factors at the largest count, in application order.

    `_primitive_step` gives every dt the same factors up to their times, so factor q is
    one flow with each count's own time on its columns; each time is real or imaginary,
    so numpy's products with it equal Python's.  A one-point batch, whose one-element
    rows numpy multiplies in place in a scalar loop, takes each count's own flow."""
    counts = sorted(set(step_counts), reverse=True)
    width, z = batch.shape[1], np.tile(batch, len(counts))
    finest = []
    for primitives in slice_primitives:
        factors = list(zip(*(
            [f for p in primitives for f in _primitive_step(p, dt_slice / m, scheme)]
            for m in counts
        )))
        finest.append([q[0] for q in factors])
        times = [np.repeat(np.array([f.time for f in q], dtype=complex), width) for q in factors]

        def advance(z: np.ndarray, active: int, steps: int) -> None:
            if width == 1:
                blocks = [z[:, c:c + 1] for c in range(active)]
                updates = [(f.update, block) for q in factors for f, block in zip(q, blocks)]
            else:
                flows = [type(q[0])(q[0].axis, q[0].coeff, row[:active * width])
                         for q, row in zip(factors, times)]
                updates = [(flow.update, z) for flow in flows]
            for _ in range(steps):
                for update, block in updates:
                    update(block)

        z = np.hstack(_side_by_side(counts, z, advance))
    ends = dict(zip(counts, np.hsplit(z, len(counts))))
    return [ends[m] for m in step_counts], finest


def approximate_isotopy(
    field_at: Callable[[float], VectorField] | Sequence[VectorField],
    total_time: float,
    slices: int,
    substep_counts: Sequence[int],
    radius: float,
    sample_count: int = 25,
    seed: int = DEFAULT_SEED,
    scheme: str = "symmetric",
) -> tuple[AutoSeq, ConvergenceReport]:
    """Split a time-dependent field slice by slice into elementary steps.

    Each of the `slices` time slices uses the field sampled at its
    midpoint; the finest entry of `substep_counts` provides the returned
    sequence, and all entries feed the convergence report against the
    Runge-Kutta oracle.  The report runs every entry's steps side by
    side, with per-column times (`_approximant_ends`); its one-step
    factors at the finest count, m times per slice, are the sequence.
    """
    if slices < 1:
        raise PreconditionError("slices must be at least 1")
    if not substep_counts or min(substep_counts) < 1:
        raise PreconditionError("at least one substep count is required, each at least 1")
    table = list(field_at) if isinstance(field_at, Sequence) else None
    if table is not None and len(table) != slices:
        raise ArityMismatch("field table length must equal the slice count")
    dt_slice = total_time / slices
    slice_fields = table or [field_at((k + 0.5) * dt_slice) for k in range(slices)]
    nvars = slice_fields[0].nvars
    if any(f.nvars != nvars for f in slice_fields):
        sizes = ", ".join(str(f.nvars) for f in slice_fields)
        raise ArityMismatch(f"isotopy fields disagree on their variable count: {sizes}")
    slice_primitives = [decompose_field(f) for f in slice_fields]

    batch = _sample_batch(nvars, radius, sample_count, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        if table is not None:
            # a table means piecewise-constant data; integrate slice by slice
            # so the oracle never steps across a discontinuity
            truths = batch
            for slice_field in table:
                truths = integrate_flow(lambda _t, f=slice_field: f, truths, dt_slice)
        else:
            truths = integrate_flow(field_at, batch, total_time)
        ends, finest = _approximant_ends(slice_primitives, dt_slice, substep_counts, scheme, batch)
    report = _report_against(ends, truths, substep_counts, radius, seed)
    # elements run outermost first: the last slice's last step leads
    per_slice = (step[::-1] * max(substep_counts) for step in reversed(finest))
    return AutoSeq(nvars, chain.from_iterable(per_slice)), report


# ---------------------------------------------------------------------------
# Basin sampling
# ---------------------------------------------------------------------------


def _ramp(lo: float, hi: float, n: int, index):
    """Value at an int or int-array index of n evenly spaced values from lo to hi
    (lo if n <= 1); one expression for both, as np.linspace rounds differently."""
    lo, hi = float(lo), float(hi)
    if n <= 1:
        return np.full(np.shape(index), lo) if isinstance(index, np.ndarray) else lo
    return lo + (hi - lo) * index / (n - 1)


@dataclass(frozen=True)
class GridSpec:
    """A two-real-parameter slice of complex n-space.

    Grid point (row, col) maps to origin + u*axis_u + v*axis_v with u
    running along columns and v along rows; axis vectors may be complex,
    so a complex coordinate line is the special case axis_v = i*axis_u.
    `points` broadcasts `point` over the whole grid, bit for bit.
    """

    origin: tuple[complex, ...]
    axis_u: tuple[complex, ...]
    axis_v: tuple[complex, ...]
    nu: int
    nv: int
    u_range: tuple[float, float]
    v_range: tuple[float, float]

    def __post_init__(self):
        n = len(self.origin)
        if len(self.axis_u) != n or len(self.axis_v) != n:
            raise ArityMismatch("grid axes disagree with the origin dimension")
        if self.nu < 0 or self.nv < 0:
            raise PreconditionError("grid sizes must be non-negative")

    def parameter(self, row: int, col: int) -> tuple[float, float]:
        return _ramp(*self.u_range, self.nu, col), _ramp(*self.v_range, self.nv, row)

    def parameters(self) -> tuple[np.ndarray, np.ndarray]:
        """The u value of every column and the v value of every row."""
        return self.parameter(np.arange(self.nv), np.arange(self.nu))

    def point(self, row: int, col: int) -> tuple[complex, ...]:
        # the real parameters scale each part on its own: a complex product
        # would round signed zeros one way in Python and another in numpy
        u, v = self.parameter(row, col)
        return tuple(
            complex(o.real + u * a.real + v * b.real, o.imag + u * a.imag + v * b.imag)
            for o, a, b in zip(self.origin, self.axis_u, self.axis_v)
        )

    def points(self) -> np.ndarray:
        """All grid points as an (nvars, nv*nu) array; column row*nu + col is point(row, col)."""
        u, v = self.parameters()
        o, a, b = (np.array(x, dtype=complex).reshape(-1, 1, 1)
                   for x in (self.origin, self.axis_u, self.axis_v))
        out = np.empty((len(self.origin), self.nv, self.nu), dtype=complex)
        np.add(o.real + u * a.real, v[:, None] * b.real, out=out.real)
        np.add(o.imag + u * a.imag, v[:, None] * b.imag, out=out.imag)
        return out.reshape(len(self.origin), self.nv * self.nu)

    @classmethod
    def real_plane(
        cls,
        nvars: int,
        nu: int,
        nv: int,
        u_range: tuple[float, float],
        v_range: tuple[float, float],
    ) -> "GridSpec":
        origin = (0j,) * nvars
        e1 = tuple(1 + 0j if i == 0 else 0j for i in range(nvars))
        e2 = tuple(1 + 0j if i == 1 else 0j for i in range(nvars))
        return cls(origin, e1, e2, nu, nv, u_range, v_range)

    def to_json_dict(self) -> dict:
        def vec(v):
            return [[z.real, z.imag] for z in v]

        return {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "grid-spec",
            "origin": vec(self.origin),
            "axis_u": vec(self.axis_u),
            "axis_v": vec(self.axis_v),
            "nu": self.nu,
            "nv": self.nv,
            "u_range": list(self.u_range),
            "v_range": list(self.v_range),
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GridSpec":
        def vec(entries):
            return tuple(complex(a, b) for a, b in entries)

        pair = (float, float)
        serialize.require_keys(
            doc, "grid spec", origin=[pair], axis_u=[pair], axis_v=[pair],
            nu=int, nv=int, u_range=pair, v_range=pair,
        )
        return cls(
            vec(doc["origin"]),
            vec(doc["axis_u"]),
            vec(doc["axis_v"]),
            doc["nu"],
            doc["nv"],
            tuple(doc["u_range"]),
            tuple(doc["v_range"]),
        )


ATTRACTED, ESCAPED, UNDECIDED = "attracted", "escaped", "undecided"
# PGM grey level of each class, in the key order of `BasinResult.counts`
_CLASS_CODES = {ATTRACTED: 255, ESCAPED: 0, UNDECIDED: 128}
_CODE_LABELS = np.full(256, None, dtype=object)
_CODE_LABELS[list(_CLASS_CODES.values())] = list(_CLASS_CODES)


@dataclass(eq=False)
class BasinResult:
    """Classification grid for iteration of an automorphism sequence.

    `codes` (uint8 PGM grey levels), `iterations` and `overflowed` are (nv, nu)
    arrays; `classes` decodes the codes, so classes[row][col] == "attracted".
    """

    grid: GridSpec
    fixed_point: tuple[complex, ...]
    codes: np.ndarray
    iterations: np.ndarray
    overflowed: np.ndarray
    attract_radius: float
    escape_radius: float
    max_iter: int
    spectral_radius_estimate: float
    contraction_warning: bool

    @property
    def classes(self) -> np.ndarray:
        return _CODE_LABELS[self.codes]

    def counts(self) -> dict[str, int]:
        tally = np.bincount(self.codes.ravel(), minlength=256)
        return {label: int(tally[code]) for label, code in _CLASS_CODES.items()}

    def write_csv(self, path) -> None:
        u, v = self.grid.parameters()
        # one ",class,iters" tail per distinct pair on the grid, not per max_iter
        keys, index = np.unique(self.iterations.ravel() * 256 + self.codes.ravel(), return_inverse=True)
        table = np.array([f",{_CODE_LABELS[k & 255]},{k >> 8}\n" for k in keys.tolist()], dtype=object)
        tails = table[index].reshape(self.codes.shape)
        parts = np.empty((self.grid.nu, 4), dtype=object)  # row, "col,re," head, im, tail
        parts[:, 1] = [f"{col},{x:.17g}," for col, x in enumerate(u.tolist())]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("row,col,re,im,class,iters\n")
            # one joined string per row keeps the peak memory flat
            for row, y in enumerate(v.tolist()):
                parts[:, 0], parts[:, 2], parts[:, 3] = f"{row},", f"{y:.17g}", tails[row]
                handle.write("".join(parts.ravel().tolist()))

    def write_pgm(self, path) -> None:
        header = f"P5\n{self.grid.nu} {self.grid.nv}\n255\n".encode("ascii")
        with open(path, "wb") as handle:
            handle.write(header + self.codes.tobytes())


def _estimate_spectral_radius(
    seq: AutoSeq, fixed_point: tuple[complex, ...], h: float = 1e-6
) -> float:
    # column 0 is the fixed point, column j + 1 bumps its coordinate j
    n = seq.nvars
    columns = np.repeat(np.array(fixed_point, dtype=complex)[:, None], n + 1, axis=1)
    columns[range(n), range(1, n + 1)] += h
    images = seq.apply_array(columns)
    jac = (images[:, 1:] - images[:, :1]) / h
    return float(np.max(np.abs(np.linalg.eigvals(jac))))


# basin_sample refuses a supplied fixed point that the map moves by more than this
_FIXED_POINT_TOL = 1e-9


def basin_sample(
    seq: AutoSeq,
    fixed_point: Sequence[complex],
    grid: GridSpec,
    max_iter: int = 500,
    attract_radius: float = 1e-6,
    escape_radius: float = 1e6,
) -> BasinResult:
    """Classify grid points by iterating the sequence.

    A point is Attracted once it enters the attract_radius ball around
    the fixed point, Escaped once it leaves the escape_radius ball or
    overflows (recorded with a flag), and Undecided at max_iter.  The
    result is deterministic for a fixed grid and thresholds.  Each
    iteration maps the still-active columns of `GridSpec.points` in place
    and, when some of them finished, scatters their verdicts into the
    result arrays by fancy indexing and drops them.  The attract radius
    must be positive and finite, the escape radius positive (inf allowed).
    """
    # NaN fails every comparison below
    if not 0 < attract_radius < math.inf:
        raise PreconditionError(
            f"attract radius must be positive and finite, got {attract_radius}"
        )
    if not escape_radius > 0:
        raise PreconditionError(f"escape radius must be positive, got {escape_radius}")
    fixed_point = tuple(complex(v) for v in fixed_point)
    if len(fixed_point) != seq.nvars:
        raise ArityMismatch("fixed point dimension disagrees with the sequence")
    with np.errstate(over="ignore", invalid="ignore"):
        moved = seq.apply(fixed_point)
    drift = math.sqrt(sum(abs(a - b) ** 2 for a, b in zip(moved, fixed_point)))
    if not drift <= _FIXED_POINT_TOL:
        raise PreconditionError(
            f"supplied point moves by {drift:.3e} under the map; not a fixed point"
        )
    spectral = _estimate_spectral_radius(seq, fixed_point)
    warning = spectral >= 1.0
    if warning:
        import warnings

        warnings.warn(
            f"fixed point is not attracting (spectral radius estimate {spectral:.3f})",
            stacklevel=2,
        )

    total = grid.nu * grid.nv
    codes = np.full(total, _CLASS_CODES[UNDECIDED], dtype=np.uint8)
    iterations = np.full(total, max_iter, dtype=np.int64)
    overflowed = np.zeros(total, dtype=bool)
    fp = np.array(fixed_point, dtype=complex)[:, None]
    active = np.arange(total)
    current = grid.points()
    for it in range(1, max_iter + 1):
        if active.size == 0:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            seq.update(current)
            # squared in place; no (nvars, k) temporary outlives this block
            dist = np.abs(current - fp)
            np.square(dist, out=dist)
            dist = np.sqrt(dist.sum(axis=0))
        # a non-finite coordinate makes dist inf or NaN, which fails
        # dist < escape_radius; so dist <= attract_radius (finite) means finite
        attracted = dist <= attract_radius
        done = attracted | ~(dist < escape_radius)
        if not done.any():
            continue
        finished = active.compress(done)
        codes[finished] = np.where(
            attracted.compress(done), _CLASS_CODES[ATTRACTED], _CLASS_CODES[ESCAPED]
        )
        iterations[finished] = it
        overflowed[finished] = ~np.isfinite(current.compress(done, axis=1)).all(axis=0)
        # compress is several times faster than boolean-mask indexing here
        keep = ~done
        active, current = active.compress(keep), current.compress(keep, axis=1)
    return BasinResult(
        grid,
        fixed_point,
        codes.reshape(grid.nv, grid.nu),
        iterations.reshape(grid.nv, grid.nu),
        overflowed.reshape(grid.nv, grid.nu),
        attract_radius,
        escape_radius,
        max_iter,
        spectral,
        warning,
    )


# ---------------------------------------------------------------------------
# Built-in demonstration maps
# ---------------------------------------------------------------------------


def attracting_shear_composition(quadratic: float = 1.0, contraction: float = 0.5) -> AutoSeq:
    """Contracting quadratic automorphism of the plane built from exact pieces.

    Application order: the shear x1 += quadratic*x2^2, then the swap
    (x1, x2) -> (x2, -x1) via three unit shears, then scaling by the
    contraction factor.  The origin is an attracting fixed point and far
    points along x2 escape, so the basin shows both classes.
    """
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    steps = [
        ShearFlow(0, x2 * x2, complex(quadratic)),
        ShearFlow(0, x2, 1.0),
        ShearFlow(1, x1, -1.0),
        ShearFlow(0, x2, 1.0),
        DiagonalFlow((1, 1), complex(contraction)),
    ]
    return AutoSeq.from_application_order(2, steps)


def radial_contraction(nvars: int = 2, rate: float = 1.0) -> AutoSeq:
    """Time-one flow of -rate * sum x_i d/dx_i: scaling by exp(-rate)."""
    return AutoSeq(nvars, (DiagonalFlow((1,) * nvars, cmath.exp(-rate)),))
