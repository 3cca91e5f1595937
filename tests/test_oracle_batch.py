"""The batched Runge-Kutta oracle gives every column its solo run."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from shearkit import dynamics
from shearkit.dynamics import (
    AutoSeq,
    approximate_isotopy,
    decompose_field,
    integrate_flow,
    measure_convergence,
    trotter_compose,
)
from shearkit.fields import VectorField, parse_vector_field
from shearkit.poly import Poly
from shearkit.scalars import Scalar


def _solo_flow(field_at, start, total_time, tol=1e-10, max_doublings=16):
    """Reference model: the one-point integrator the batch replaced."""

    def rhs(t, z):
        return np.array(field_at(t).eval_complex(tuple(z)), dtype=complex)

    def run(steps):
        z = np.array(start, dtype=complex)
        h = total_time / steps
        t = 0.0
        for _ in range(steps):
            k1 = rhs(t, z)
            k2 = rhs(t + h / 2, z + h / 2 * k1)
            k3 = rhs(t + h / 2, z + h / 2 * k2)
            k4 = rhs(t + h, z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return z

    steps, estimate = 32, run(32)
    for _ in range(max_doublings):
        if not np.all(np.isfinite(estimate)):
            break
        steps *= 2
        finer = run(steps)
        if float(np.max(np.abs(finer - estimate))) < tol:
            return tuple(finer.tolist())
        estimate = finer
    return tuple(estimate.tolist())


def _assert_same_column(got, want):
    got, want = np.asarray(got), np.asarray(want)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tolist() == pytest.approx(want[finite].tolist(), rel=1e-12, abs=1e-300)


small = st.builds(
    lambda re, im, d: Scalar.exact(Fraction(re, d), im),
    st.integers(-2, 2), st.integers(-1, 1), st.integers(1, 4),
)


@st.composite
def components(draw, nvars):
    """A constant (possibly zero) or up to three terms of degree <= 2."""
    if draw(st.booleans()):
        return Poly.constant(nvars, draw(small))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exp = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[exp] = draw(small)
    return Poly(nvars, terms)


small_complex = st.complex_numbers(max_magnitude=0.5, allow_nan=False, allow_infinity=False)


@st.composite
def fields_and_batches(draw):
    nvars = draw(st.integers(1, 3))
    field = VectorField([draw(components(nvars)) for _ in range(nvars)])
    count = draw(st.integers(1, 6))
    batch = np.array(
        [[draw(small_complex) for _ in range(count)] for _ in range(nvars)], dtype=complex
    )
    return field, batch


@settings(max_examples=40, deadline=None)
@given(fields_and_batches())
def test_each_column_is_its_solo_run(case):
    field, batch = case
    total_time = 0.25

    def field_at(_t):
        return field

    with np.errstate(over="ignore", invalid="ignore"):
        ends = integrate_flow(field_at, batch, total_time, max_doublings=6)
        assert ends.shape == batch.shape
        for k in range(batch.shape[1]):
            start = tuple(batch[:, k].tolist())
            _assert_same_column(ends[:, k], _solo_flow(field_at, start, total_time, max_doublings=6))
        one = integrate_flow(field_at, batch[:, :1], total_time, max_doublings=6)
    assert one.shape == (batch.shape[0], 1)
    _assert_same_column(one[:, 0], ends[:, 0])


def test_a_pole_column_freezes_without_slowing_the_others():
    # x2' = x2^2 from x2 = 3 meets its pole at t = 1/3 < 0.5; the finite
    # points refine on without it
    field = parse_vector_field("[0; x2^2]", 2)
    finite = [(0.1, 0.2), (-0.3j, 0.5 + 0.25j), (1, -0.4)]
    calls, widths = 0, []

    class Recording:
        def eval_complex(self, z):
            widths.append(z.shape[1])
            return field.eval_complex(z)

    def field_at(_t):
        nonlocal calls
        calls += 1
        return Recording()

    alone = integrate_flow(field_at, np.array(finite, dtype=complex).T, 0.5)
    calls_alone, calls, widths = calls, 0, []
    mixed = np.array(finite[:1] + [(0, 3)] + finite[1:], dtype=complex).T
    with np.errstate(over="ignore", invalid="ignore"):
        ends = integrate_flow(field_at, mixed, 0.5)
    assert calls <= calls_alone
    # the first round (32 and 64 steps side by side, one evaluation per step count and
    # stage) sees all four columns, every later round at most the finite three
    first_round = (32 + 64) * 4
    assert widths[:first_round] == [4] * first_round and max(widths[first_round:]) <= 3
    assert not np.all(np.isfinite(ends[:, 1]))
    for got, start, together in zip(np.delete(ends, 1, axis=1).T, finite, alone.T):
        _assert_same_column(got, _solo_flow(lambda _t: field, start, 0.5))
        column = np.array(start, dtype=complex).reshape(-1, 1)
        _assert_same_column(got, integrate_flow(lambda _t: field, column, 0.5)[:, 0])
        _assert_same_column(got, together)


@pytest.mark.parametrize("slices", [1, 4])
def test_one_oracle_call_per_slice(monkeypatch, slices):
    texts = ("[0; x2^2]", "[x1*x2; x2^2]", "[0; x1]", "[x2; 0]")
    table = [parse_vector_field(text, 2) for text in texts[:slices]]
    total_time, dt = 0.5, 0.5 / slices

    def build(m):
        seq = AutoSeq(2, ())
        for field in table:
            seq = seq.then(trotter_compose(decompose_field(field), 2, dt, m))
        return seq

    def reference(z):
        for field in table:
            z = _solo_flow(lambda _t, f=field: f, z, dt)
        return z

    expected = measure_convergence(build, reference, [4, 8, 16], 2, 0.5, 10)
    calls = 0
    original = dynamics.integrate_flow

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(dynamics, "integrate_flow", counting)
    _seq, report = approximate_isotopy(table, total_time, slices, [4, 8, 16], 0.5, 10)
    assert calls == slices
    assert report.max_errors == pytest.approx(expected.max_errors, rel=1e-12, abs=1e-300)
    assert report.order == pytest.approx(expected.order, rel=1e-9)
    assert (report.step_counts, report.sample_count, report.seed) == (
        expected.step_counts, expected.sample_count, expected.seed
    )


def _sequential_batch(field_at, start, total_time, max_doublings=16, tol=1e-10):
    """Reference model: the batched oracle that runs one step count at a time.

    Each doubling reruns the still-refining columns from their start
    points at the next step count, with scalar step sizes.
    """
    starts = np.array(start, dtype=complex)

    def rhs(t, z):
        out = np.empty_like(z)
        for i, value in enumerate(field_at(t).eval_complex(z)):
            out[i] = value
        return out

    def run(steps, z):
        h = total_time / steps
        t = 0.0
        for _ in range(steps):
            k1 = rhs(t, z)
            k2 = rhs(t + h / 2, z + h / 2 * k1)
            k3 = rhs(t + h / 2, z + h / 2 * k2)
            k4 = rhs(t + h, z + h * k3)
            z = z + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        return z

    steps, estimate = 32, run(32, starts)
    active = np.arange(starts.shape[1])
    for _ in range(max_doublings):
        active = active[np.all(np.isfinite(estimate[:, active]), axis=0)]
        if not active.size:
            break
        steps *= 2
        finer = run(steps, starts[:, active])
        agreed = np.max(np.abs(finer - estimate[:, active]), axis=0) < tol
        estimate[:, active] = finer
        active = active[~agreed]
    return estimate


def _bits(values):
    """The bytes of a complex array, with every NaN part made one NaN.

    IEEE 754 leaves the sign and payload of a NaN result open, and
    numpy's vector lanes and scalar tails set them differently by
    column position; every other bit must match.
    """
    parts = np.array(values, dtype=complex).view(float).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


_RICCATI = parse_vector_field("[0; x2^2]", 2)
_PAIR = parse_vector_field("[x1*x2; x2^2]", 2)


# changes at t = 1/8 and 1/4; x2' = x2^2 throughout, so x2 = 3 still meets its pole at 1/3
_SWITCHING = [parse_vector_field(text, 2) for text in ("[x1*x2; x2^2]", "[x2; x2^2]", "[1; x2^2]")]


def _switching(t):
    return _SWITCHING[min(int(t * 8), 2)]


class _Fresh:
    """A field that is a new object at every call, so no two step counts share one."""

    def __init__(self, field):
        self.eval_complex = field.eval_complex


@pytest.mark.parametrize("max_doublings", [0, 1, 2, 5])
@pytest.mark.parametrize(
    "field_at",
    [lambda _t: _PAIR, lambda _t: _Fresh(_RICCATI), _switching],
    ids=["one-object-callable", "fresh-object-callable", "time-dependent-callable"],
)
def test_bits_equal_the_sequential_batch(field_at, max_doublings):
    rng = np.random.default_rng(7)
    batch = 0.6 * (rng.standard_normal((2, 12)) + 1j * rng.standard_normal((2, 12)))
    # x2' = x2^2 from x2 = c has its pole at t = 1/c: before 0.45 for c = 3, 2.32 and 2.27,
    # whose estimates turn non-finite at 32, 64 and 128 steps; just after it for c = 2.2,
    # which takes more doublings than any cap here; the origin; and four columns whose
    # two estimates agree first at 128, 256, 512 and 1024 steps
    columns = [(0, 3), (0.1, 2.32), (0.2j, 2.27), (0.1, 2.2), (0, 0),
               (0.1, 0.7), (0.1, 1.0), (0.1, 1.3), (0.1, 1.5)]
    batch[:, 3:] = np.array(columns, dtype=complex).T
    with np.errstate(over="ignore", invalid="ignore"):
        # a total time that is not a power of two, so h/6 rounds
        got = integrate_flow(field_at, batch, 0.45, max_doublings)
        want = _sequential_batch(field_at, batch, 0.45, max_doublings)
    assert not np.all(np.isfinite(want[:, 3]))
    assert _bits(got) == _bits(want)


@pytest.mark.parametrize(
    "column, settles_at, steps",
    [
        ((0, 0), 64, 64),
        ((0.1, 0.7), 128, 64 + 128),
        ((0.1, 1.0), 256, 64 + 256),
        ((0.1, 1.3), 512, 64 + 256 + 512),
        ((0.1, 1.5), 1024, 64 + 256 + 1024),
    ],
)
def test_rounds_take_fewer_steps_than_one_count_at_a_time(column, settles_at, steps):
    # a point whose estimates agree first at `settles_at` steps runs 32, 64, ..., settles_at
    # one count at a time; a round pairs two counts only when the last difference, shrunk
    # 16-fold, misses the tolerance, so an even settling level costs no wasted 2L half
    evals = 0

    class Counting:
        def eval_complex(self, z):
            nonlocal evals
            evals += 1
            return _RICCATI.eval_complex(z)

    counting = Counting()
    start = np.array([column], dtype=complex).T
    got = integrate_flow(lambda _t: counting, start, 0.45)
    got_steps, evals = evals // 4, 0
    want = _sequential_batch(lambda _t: counting, start, 0.45)
    assert evals // 4 == 2 * settles_at - 32
    assert got_steps == steps < evals // 4
    assert _bits(got) == _bits(want)


def test_a_one_slice_table_reports_as_its_constant_callable():
    field = parse_vector_field("[x1*x2; x2^2]", 2)
    from_table = approximate_isotopy([field], 0.5, 1, [4, 8, 16], 0.5, 10)
    from_callable = approximate_isotopy(lambda _t: field, 0.5, 1, [4, 8, 16], 0.5, 10)
    assert from_table[1] == from_callable[1]
