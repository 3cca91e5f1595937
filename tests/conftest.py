"""Shared random generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from shearkit.poly import Poly
from shearkit.fields import VectorField
from shearkit.scalars import Scalar

# every run draws the same examples, so a failure reproduces and a pass repeats
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture
def rng():
    return random.Random(20240811)


# small Gaussian rationals (a + b i)/d, zero included
gaussian_rationals = st.builds(
    lambda a, b, d: Scalar.exact(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 4),
)


def nan_blind_bits(values):
    """The bytes of a complex array, with every NaN part made one NaN.

    IEEE 754 leaves the sign and payload of a NaN result open, and
    numpy's vector lanes and scalar tails set them differently by
    column position; every other bit must match.
    """
    parts = np.array(values, dtype=complex).view(float).copy()
    parts[np.isnan(parts)] = np.nan
    return parts.tobytes()


def random_exact_scalar(rng, imaginary=True, nonzero=False):
    while True:
        re = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2)) if imaginary and rng.random() < 0.4 else Fraction(0)
        if not nonzero or re != 0 or im != 0:
            return Scalar.exact(re, im)


def random_exact_poly(rng, nvars, degree, max_terms=4, allowed_vars=None, imaginary=True):
    """Random sparse polynomial; allowed_vars restricts the support."""
    if allowed_vars is None:
        allowed_vars = list(range(nvars))
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exp = [0] * nvars
        budget = rng.randint(0, degree)
        for _ in range(budget):
            exp[rng.choice(allowed_vars)] += 1
        terms[tuple(exp)] = random_exact_scalar(rng, imaginary)
    return Poly(nvars, terms)


def random_field(rng, nvars, degree, max_terms=3):
    return VectorField(
        [random_exact_poly(rng, nvars, degree, max_terms) for _ in range(nvars)]
    )


def random_triangular_field(rng, nvars, degree):
    """Strictly triangular, hence locally nilpotent: component i uses x_{i+1}.."""
    comps = []
    for i in range(nvars):
        later = list(range(i + 1, nvars))
        if not later:
            comps.append(Poly.zero(nvars))
        else:
            comps.append(
                random_exact_poly(rng, nvars, degree, max_terms=2, allowed_vars=later)
            )
    return VectorField(comps)


def numeric_bracket(v, w, point, h=1e-6):
    """Finite-difference Lie bracket at a point; independent of the symbolic path."""
    n = v.nvars

    def jacobian_times(field, other_value, z):
        out = [0j] * n
        for j in range(n):
            zp = list(z)
            zm = list(z)
            zp[j] += h
            zm[j] -= h
            fp = field.eval_complex(tuple(zp))
            fm = field.eval_complex(tuple(zm))
            for k in range(n):
                out[k] += (fp[k] - fm[k]) / (2 * h) * other_value[j]
        return out

    vz = v.eval_complex(point)
    wz = w.eval_complex(point)
    dw_v = jacobian_times(w, vz, point)
    dv_w = jacobian_times(v, wz, point)
    return [a - b for a, b in zip(dw_v, dv_w)]


def model_apply(v, f):
    """V(f) = sum_i V_i * df/dx_i with Poly operations; independent of `VectorField.apply`."""
    total = Poly.zero(v.nvars)
    for i, comp in enumerate(v.components):
        total = total + comp * f.partial(i)
    return total


def bracket_by_definition(v, w):
    """[V, W]_k = V(W_k) - W(V_k), through the model derivation action."""
    return VectorField(
        [model_apply(v, w_k) - model_apply(w, v_k) for v_k, w_k in zip(v.components, w.components)]
    )


def model_eval_complex(poly, point):
    """Term-by-term numeric evaluation from a 0j seed, every factor applied:
    the reference for `Poly.eval_complex`, which skips the identity steps."""
    total = 0j
    for exp, coeff in poly.terms.items():
        term = coeff.to_complex()
        for value, e in zip(point, exp):
            if e:
                term *= value**e
        total += term
    return total


def model_rref(rows):
    """Dense Gauss-Jordan reference: (reduced nonzero rows, pivot columns)."""
    work = [list(row) for row in rows]
    if not work:
        return [], []
    pivots = []
    rank = 0
    for col in range(len(work[0])):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        lead = work[rank][col]
        work[rank] = [v / lead for v in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def model_nullspace(rows, ncols):
    """Dense kernel basis read off the model rref: one vector per free column."""
    reduced, pivots = model_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Scalar.exact(0)] * ncols
        vec[free] = Scalar.exact(1)
        for row, pivot_col in zip(reduced, pivots):
            vec[pivot_col] = -row[free]
        basis.append(vec)
    return basis


def _model_kernel(apply, polys):
    """Basis of {sum c_j polys[j] : apply(sum) = 0}, by the model nullspace."""
    images = [apply(p) for p in polys]
    monomials = sorted({exp for image in images for exp in image.terms})
    rows = [[image.coefficient(exp) for image in images] for exp in monomials]
    kernel = []
    for vec in model_nullspace(rows, len(polys)):
        total = Poly.zero(polys[0].nvars)
        for coeff, p in zip(vec, polys):
            total = total + p.scale(coeff)
        kernel.append(total)
    return kernel


def model_degree_one_witness(d1, d2, degree):
    """The smallest degree-one witness (a, b = d1(a)) up to `degree`, or None.

    The candidates a span {a in Ker d2 : d1^2(a) = 0}.  They are put in
    reduced echelon form through `model_rref`, monomials in descending
    graded-lex order, and scanned from the smallest leading monomial
    for the first a with d1(a) != 0.
    """
    n = d1.nvars
    one = Scalar.exact(1)
    monomials = [
        exp for exp in itertools.product(range(degree + 1), repeat=n) if sum(exp) <= degree
    ]
    ker2 = _model_kernel(
        lambda p: model_apply(d2, p), [Poly.monomial(n, exp, one) for exp in monomials]
    )
    candidates = _model_kernel(lambda p: model_apply(d1, model_apply(d1, p)), ker2)
    columns = sorted(
        {exp for a in candidates for exp in a.terms}, key=lambda e: (sum(e), e), reverse=True
    )
    reduced, _ = model_rref([[a.coefficient(exp) for exp in columns] for a in candidates])
    for row in reversed(reduced):
        a = Poly(n, dict(zip(columns, row)))
        b = model_apply(d1, a)
        if not b.is_zero():
            return a, b
    return None


def model_scalar_sign_body(value):
    """Display sign and unsigned body of a coefficient, every part through `Fraction`:
    the reference for `poly._scalar_sign_body`, which formats integers directly."""
    re, im = value.re, value.im
    if im == 0:
        return (-1 if re < 0 else 1), str(abs(re))
    if re == 0:
        mag = abs(im)
        return (-1 if im < 0 else 1), "i" if mag == 1 else f"{mag}i"
    sign = -1 if re < 0 else 1
    re, im = re * sign, im * sign
    im_part = "i" if abs(im) == 1 else f"{abs(im)}i"
    return sign, f"({re}{'+' if im > 0 else '-'}{im_part})"
