"""The Runge-Kutta oracle stops on a non-finite estimate."""

import numpy as np

from shearkit.dynamics import integrate_flow
from shearkit.fields import parse_vector_field


def test_integrate_flow_stops_at_a_pole():
    # x2' = x2^2 from x2 = 3 meets its pole at t = 1/3 < 0.5, so every
    # estimate is non-finite; NaN never agrees within tol, and doubling on
    # would cost twice the previous run each time
    field = parse_vector_field("[0; x2^2]", 2)
    calls = 0

    def field_at(_t):
        nonlocal calls
        calls += 1
        return field

    with np.errstate(over="ignore", invalid="ignore"):
        end = integrate_flow(field_at, np.array([[0], [3]], dtype=complex), 0.5)
    assert calls <= (32 + 64) * 4
    assert end.shape == (2, 1)
    assert not np.all(np.isfinite(end))
