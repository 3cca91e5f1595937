"""The array-native basin path against per-point reference models.

`GridSpec.points`, `BasinResult.write_csv`/`write_pgm` and the overflow
flags of `basin_sample` are checked against straightforward one-point-at-
a-time models: `GridSpec.point`, a per-point file writer, and direct
iteration of `AutoSeq.apply`.
"""

import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from shearkit.dynamics import (
    GridSpec,
    attracting_shear_composition,
    autoseq_from_json_dict,
    basin_sample,
    radial_contraction,
)

_CODES = {"attracted": 255, "undecided": 128, "escaped": 0}

# signed zeros included: the grid must keep the sign of a zero coordinate
coordinate = st.floats(-1e3, 1e3, allow_subnormal=False) | st.sampled_from([0.0, -0.0])
complex_value = st.builds(complex, coordinate, coordinate)
bound = st.floats(-10, 10, allow_subnormal=False) | st.integers(-10, 10)


@st.composite
def grids(draw):
    vec = st.tuples(*[complex_value] * draw(st.integers(1, 3)))
    return GridSpec(
        draw(vec),
        draw(vec),
        draw(vec),
        draw(st.integers(0, 5)),
        draw(st.integers(0, 5)),
        (draw(bound), draw(bound)),
        (draw(bound), draw(bound)),
    )


@settings(max_examples=300, deadline=None)
@given(grids())
# v * axis_v underflows to a zero whose sign a fused complex product flips
@example(GridSpec((complex(-0.0, 0.0),), (complex(-0.0, 0.0),), (complex(-3.048641114334584e-144, -0.0),),
                  1, 2, (0.0, 0.0), (0.0, 1.528995890157635e-283)))
def test_point_array_matches_scalar_points(grid):
    points = grid.points()
    assert points.shape == (len(grid.origin), grid.nu * grid.nv)
    u, v = grid.parameters()
    for row in range(grid.nv):
        for col in range(grid.nu):
            column = points[:, row * grid.nu + col].tolist()
            assert [repr(z) for z in column] == [repr(z) for z in grid.point(row, col)]
            assert repr((u[col].item(), v[row].item())) == repr(
                tuple(float(t) for t in grid.parameter(row, col))
            )


def test_parameters_keep_the_ramp_rounding():
    # linspace rounds some interior values differently; the grid must not
    grid = GridSpec.real_plane(2, 7, 3, (-3, 3.1), (0.1, 0.7))
    u, v = grid.parameters()
    assert u.tolist() == [-3 + (3.1 - -3) * k / 6 for k in range(7)]
    assert v.tolist() == [0.1 + (0.7 - 0.1) * k / 2 for k in range(3)]
    assert GridSpec.real_plane(2, 1, 0, (-0.0, 2), (5, 6)).parameters()[0].tolist() == [-0.0]


def _reference_csv(result) -> bytes:
    """The per-point CSV writer: one parameter call and one line per point."""
    grid = result.grid
    lines = ["row,col,re,im,class,iters\n"]
    for row in range(grid.nv):
        for col in range(grid.nu):
            u, v = grid.parameter(row, col)
            lines.append(
                f"{row},{col},{u:.17g},{v:.17g},"
                f"{result.classes[row][col]},{int(result.iterations[row][col])}\n"
            )
    return "".join(lines).encode("utf-8")


def _reference_pgm(result) -> bytes:
    grid = result.grid
    body = bytes(
        _CODES[result.classes[row][col]]
        for row in range(grid.nv)
        for col in range(grid.nu)
    )
    return f"P5\n{grid.nu} {grid.nv}\n255\n".encode("ascii") + body


small = st.floats(-3, 3, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.tuples(small, small),
    st.tuples(small, small),
    st.integers(1, 12),
)
def test_files_match_the_per_point_writer(nu, nv, u_range, v_range, max_iter):
    grid = GridSpec.real_plane(2, nu, nv, u_range, v_range)
    result = basin_sample(attracting_shear_composition(), (0, 0), grid, max_iter=max_iter)
    with tempfile.TemporaryDirectory() as tmp:
        csv, pgm = Path(tmp) / "basin.csv", Path(tmp) / "basin.pgm"
        result.write_csv(csv)
        result.write_pgm(pgm)
        assert csv.read_bytes() == _reference_csv(result)
        assert pgm.read_bytes() == _reference_pgm(result)


def test_csv_table_is_bounded_by_the_grid_not_by_max_iter():
    # a table indexed by (code, iteration) up to max_iter would need 256e9 entries
    grid = GridSpec.real_plane(2, 3, 2, (-3, 3), (-3, 3))
    result = basin_sample(radial_contraction(), (0, 0), grid, max_iter=10**9)
    assert result.classes.tolist() == [["attracted"] * 3] * 2
    assert result.iterations.max() <= 16
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "basin.csv"
        result.write_csv(csv)
        assert csv.read_bytes() == _reference_csv(result)


def test_counts_tally_the_codes_in_a_fixed_key_order():
    grid = GridSpec.real_plane(2, 9, 7, (-3, 3), (-3, 3))
    result = basin_sample(attracting_shear_composition(), (0, 0), grid, max_iter=5)
    counts = result.counts()
    assert list(counts) == ["attracted", "escaped", "undecided"]
    labels = [result.classes[row][col] for row in range(7) for col in range(9)]
    assert counts == {label: labels.count(label) for label in counts}
    assert all(counts.values())


def _iterate_one(seq, z, max_iter, attract_radius=1e-6, escape_radius=1e6, fixed_point=0):
    """(class, iterations, overflowed) of one point by direct iteration."""
    for it in range(1, max_iter + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            z = seq.apply(z)
            dist = float(np.sqrt(np.sum(np.abs(np.array(z) - np.array(fixed_point)) ** 2)))
        if not all(math.isfinite(c.real) and math.isfinite(c.imag) for c in z):
            return "escaped", it, True
        if dist <= attract_radius:
            return "attracted", it, False
        if dist >= escape_radius:
            return "escaped", it, False
    return "undecided", max_iter, False


def test_overflow_flags_mark_exactly_the_non_finite_escapes():
    # x1 += 1e4 * x2^2 overflows at once for |x2| beyond ~1.3e152, while
    # the x2 = 0 row escapes by radius or is attracted.  With no escape
    # radius a point escapes once its distance overflows, or earlier if an
    # orbit with |x2| between ~1.3e152 and ~1.3e154 overflows in the shear
    seq = attracting_shear_composition(quadratic=1e4)
    overflow_escapes = radius_escapes = 0
    for grid, escape_radius in (
        (GridSpec.real_plane(2, 9, 9, (-1e200, 1e200), (-1e200, 1e200)), 1e6),
        (GridSpec.real_plane(2, 11, 11, (-3, 3), (-1e160, 1e160)), 1e6),
        (GridSpec.real_plane(2, 11, 11, (-20, 20), (-20, 20)), math.inf),
    ):
        result = basin_sample(seq, (0, 0), grid, max_iter=40, escape_radius=escape_radius)
        for row in range(grid.nv):
            for col in range(grid.nu):
                label, iters, overflowed = _iterate_one(
                    seq, grid.point(row, col), 40, escape_radius=escape_radius
                )
                assert result.classes[row][col] == label
                assert result.iterations[row][col] == iters
                assert bool(result.overflowed[row][col]) is overflowed
                overflow_escapes += overflowed
                radius_escapes += label == "escaped" and not overflowed
    late_overflows = result.overflowed & (result.iterations > 1)
    assert overflow_escapes and radius_escapes and late_overflows.any()


def test_result_arrays_have_grid_shape():
    grid = GridSpec.real_plane(2, 5, 3, (-1, 1), (-1, 1))
    result = basin_sample(radial_contraction(2), (0, 0), grid)
    for array in (result.codes, result.iterations, result.overflowed, result.classes):
        assert array.shape == (3, 5)
    assert result.codes.dtype == np.uint8
    assert not result.overflowed.any()


def _shifts(fixed, sign):
    """Unit shears adding sign * p coordinate by coordinate, as JSON elements."""
    return [
        {"kind": "shear", "axis": i + 1, "coeff": "1", "time": [sign * p.real, sign * p.imag]}
        for i, p in enumerate(fixed)
    ]


@st.composite
def maps_with_fixed_points(draw):
    """(map, fixed point): random overshear and diagonal factors, which fix the
    origin, conjugated by the translation to the fixed point."""
    nvars = draw(st.integers(1, 3))
    part = st.floats(-1, 1, allow_subnormal=False)
    fixed = draw(st.just((0j,) * nvars) | st.tuples(*[st.builds(complex, part, part)] * nvars))
    steps = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            axis = draw(st.integers(1, nvars))
            others = [f"x{k}" for k in range(1, nvars + 1) if k != axis]
            factors = draw(st.lists(st.sampled_from(others), max_size=2)) if others else []
            steps.append({"kind": "overshear", "axis": axis, "coeff": "*".join(factors) or "1",
                          "time": [draw(part), draw(part)]})
        else:
            modulus, angle = draw(st.floats(0.2, 1.2)), draw(st.floats(-math.pi, math.pi))
            weights = draw(st.lists(st.integers(-1, 2), min_size=nvars, max_size=nvars))
            steps.append({"kind": "diagonal", "weights": weights,
                          "factor": [modulus * math.cos(angle), modulus * math.sin(angle)]})
    # z_i + (-p_i) is 0 exactly at z = p, so p is fixed bit for bit
    application_order = _shifts(fixed, -1) + steps + _shifts(fixed, 1)
    doc = {"nvars": nvars, "elements": application_order[::-1]}
    return autoseq_from_json_dict(doc), fixed


@settings(max_examples=150, deadline=None)
@given(
    maps_with_fixed_points(),
    st.integers(0, 4),
    st.integers(0, 4),
    st.tuples(small, small),
    st.tuples(small, small),
    st.integers(1, 25),
    st.floats(1e-9, 1.0),
    st.floats(1e-3, 1e8) | st.just(math.inf),
    st.data(),
)
def test_basin_matches_direct_iteration(
    case, nu, nv, u_range, v_range, max_iter, attract_radius, escape_radius, data
):
    seq, fixed = case
    direction = st.tuples(*[st.builds(complex, small, small)] * seq.nvars)
    grid = GridSpec(fixed, data.draw(direction), data.draw(direction), nu, nv, u_range, v_range)
    points = grid.points()
    before = points.tobytes()
    with np.errstate(all="ignore"):
        image = seq.apply_array(points)
        assert points.tobytes() == before
        seq.update(points)
    assert points.tobytes() == image.tobytes()
    with warnings.catch_warnings():
        # the random maps need not attract at the fixed point
        warnings.simplefilter("ignore", UserWarning)
        result = basin_sample(
            seq, fixed, grid, max_iter=max_iter,
            attract_radius=attract_radius, escape_radius=escape_radius,
        )
    for row in range(nv):
        for col in range(nu):
            label, iters, overflowed = _iterate_one(
                seq, grid.point(row, col), max_iter, attract_radius, escape_radius, fixed
            )
            assert result.classes[row][col] == label
            assert result.iterations[row][col] == iters
            assert bool(result.overflowed[row][col]) is overflowed
