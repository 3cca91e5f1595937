"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and bound is pinned here, not configurable.
"""

import cmath
import json
import math
import random
import time
from fractions import Fraction

import pytest

from shearkit.density import (
    check_compatibility,
    closure_from_json_dict,
    determinant_poly,
    lie_closure,
    matrix_variable,
    monomial_field_targets,
    replay_closure,
    replay_compatibility,
    sample_sl_points,
    shear_generator_family,
    sl_pair_derivations,
    verify_compat_identity,
    verify_shear_identity,
)
from shearkit.dynamics import (
    GridSpec,
    attracting_shear_composition,
    basin_sample,
    commutator_step,
    decompose_field,
    fit_loglog_slope,
    measure_convergence,
    sample_ball,
    trotter_compose,
)
from shearkit.fields import parse_vector_field
from shearkit.poly import Poly, parse_poly
from shearkit.scalars import Scalar
from shearkit.subvariety import (
    SubvarietyInput,
    codim2_module_certificate,
    verify_codim2_identity,
    verify_local_identities,
)


def F(text):
    return parse_vector_field(text)


def P(text, n):
    return parse_poly(text, n)


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert ok, detail


def _random_poly(rng, nvars, degree, allowed):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exp = [0] * nvars
        for _ in range(rng.randint(0, degree)):
            exp[rng.choice(allowed)] += 1
        terms[tuple(exp)] = Scalar.exact(
            Fraction(rng.randint(-3, 3), rng.randint(1, 2)), rng.randint(-1, 1)
        )
    return Poly(nvars, terms)


def test_criterion_1_identity_suite():
    """All displayed bracket identities, 100 randomized instances each."""
    started = time.time()
    rng = random.Random(101)
    trials = 100
    shear_ok = compat_ok = codim2_ok = local_ok = 0
    for _ in range(trials):
        n = rng.choice([2, 3])
        not1 = [i for i in range(n) if i != 0]
        not2 = [i for i in range(n) if i != 1]
        f1 = _random_poly(rng, n, 3, not1)
        f2 = _random_poly(rng, n, 3, not2)
        if verify_shear_identity(f1, f2).holds:
            shear_ok += 1
    for _ in range(trials):
        n = rng.choice([2, 3])
        d1 = F("[1; 0]") if n == 2 else F("[1; 0; 0]")
        d2 = F("[0; 1]") if n == 2 else F("[0; 0; 1]")
        shared = [i for i in range(n) if i not in (0, n - 1)]
        k = _random_poly(rng, n, 2, shared) if shared else Poly.constant(n, rng.randint(1, 3))
        if k.is_zero():
            k = Poly.constant(n, 1)
        c = _random_poly(rng, n, 2, shared) if shared else Poly.zero(n)
        a = Poly.variable(n, 0) * k + c
        f1 = _random_poly(rng, n, 3, [i for i in range(n) if i != 0])
        f2 = _random_poly(rng, n, 3, [i for i in range(n) if i != n - 1])
        if verify_compat_identity(d1, d2, a, f1, f2).holds:
            compat_ok += 1
    for _ in range(trials):
        n = rng.choice([2, 3])
        not1 = [i for i in range(n) if i != 0]
        not2 = [i for i in range(n) if i != 1]
        if verify_codim2_identity(
            _random_poly(rng, n, 3, not1),
            _random_poly(rng, n, 3, not1),
            _random_poly(rng, n, 3, not2),
            _random_poly(rng, n, 3, not2),
        ).holds:
            codim2_ok += 1
    for _ in range(trials):
        n = 3
        r = _random_poly(rng, n, 3, [1, 2])
        h = _random_poly(rng, n, 2, [2])
        f = _random_poly(rng, n, 3, [1, 2])
        g = _random_poly(rng, n, 3, [1, 2])
        s = rng.choice([0, 1, 2])
        if all(check.holds for check in verify_local_identities(r, h, s, f, g).checks):
            local_ok += 1
    elapsed = time.time() - started
    ok = (
        shear_ok == compat_ok == codim2_ok == local_ok == trials
        and elapsed < 60.0
    )
    _report(
        1,
        ok,
        f"identity suite {shear_ok}/{compat_ok}/{codim2_ok}/{local_ok} of "
        f"{trials} each, {elapsed:.1f}s (< 60s)",
    )


CLOSURE_CERTS = []


def test_criterion_2_plane_density_certificate():
    """Shear-family closure reaches the full truncated span at each cap."""
    started = time.time()
    ok = True
    details = []
    for degree in (2, 3, 4):
        gens = shear_generator_family(degree, 2)
        targets = monomial_field_targets(2, degree)
        cert = lie_closure(gens, degree, targets=targets)
        CLOSURE_CERTS.append(cert)
        expected = 2 * math.comb(degree + 2, 2)
        established = sum(1 for t in cert.targets if t.established)
        details.append(f"D={degree}: span {cert.span_dimension}/{expected}, "
                       f"targets {established}/{len(targets)}")
        ok = ok and cert.span_dimension == expected and established == len(targets)
    elapsed = time.time() - started
    ok = ok and elapsed < 120.0
    _report(2, ok, "; ".join(details) + f", {elapsed:.1f}s (< 2min)")


def _independent_product_span_misses(ker1_exps, ker2_exps, degree, missing_exp):
    """Brute-force oracle with raw arithmetic: is a monomial unreachable?"""
    attainable = set()
    for e1 in ker1_exps:
        for e2 in ker2_exps:
            exp = tuple(a + b for a, b in zip(e1, e2))
            if sum(exp) <= degree:
                attainable.add(exp)
    return missing_exp not in attainable


def test_criterion_3_compatibility_verdicts():
    """Positive verdicts for the coordinate pair, negatives match brute force."""
    ok = True
    details = []
    for degree in range(1, 7):
        verdict = check_compatibility(F("[1; 0]"), F("[0; 1]"), degree)
        good = (
            verdict.condition_one.kind == "full-span"
            and verdict.condition_two.a == P("x1", 2)
            and verdict.condition_two.b == P("1", 2)
            and replay_compatibility(verdict, F("[1; 0]"), F("[0; 1]"))
        )
        ok = ok and good
    details.append("coordinate pair full-span with witness (x1, 1) for d<=6")

    neg1 = check_compatibility(F("[1; 0]"), F("[x1; 0]"), 2)
    ker = [(0, b) for b in range(3)]
    oracle1 = _independent_product_span_misses(ker, ker, 2, (1, 0))
    ok = ok and neg1.condition_one.kind == "not-established" and oracle1
    ok = ok and neg1.condition_two.kind == "not-established"

    neg2 = check_compatibility(F("[0; 1]"), F("[0; x2]"), 3)
    ker2 = [(a, 0) for a in range(4)]
    oracle2 = _independent_product_span_misses(ker2, ker2, 3, (0, 1))
    ok = ok and neg2.condition_one.kind == "not-established" and oracle2
    ok = ok and neg2.condition_two.kind == "not-established"
    details.append("designed negatives not-established, matching brute-force span")
    _report(3, ok, "; ".join(details))


def test_criterion_4_codim2_certificate():
    """Module certificate for the third coordinate axis in 3-space."""
    started = time.time()
    data = SubvarietyInput(3, (P("x1", 3), P("x2", 3)))
    cert = codim2_module_certificate(data, 3)
    CLOSURE_CERTS.append(cert.closure)
    established = sum(1 for t in cert.closure.targets if t.established)
    elapsed = time.time() - started
    hh = cert.h1 * cert.h2
    coefficients_in_ideal = all(
        exp[0] >= 1 and exp[1] >= 1
        for t in cert.closure.targets
        for comp in t.target.components
        for exp in comp.terms
    )
    ok = (
        cert.h1 == P("x2", 3)
        and cert.h2 == P("x1", 3)
        and hh == P("x1*x2", 3)
        and established == len(cert.closure.targets) > 0
        and coefficients_in_ideal
        and elapsed < 120.0
    )
    _report(
        4,
        ok,
        f"h1={cert.h1}, h2={cert.h2}, targets {established}/"
        f"{len(cert.closure.targets)}, {elapsed:.1f}s (< 2min)",
    )


def test_criterion_5_sl2_demo():
    """Row-shear derivations on determinant-1 matrices, 50+ exact points."""
    n = 2
    d1, d2 = sl_pair_derivations(n)
    det = determinant_poly(n)
    points = sample_sl_points(n, 50, seed=2024)
    failures = 0
    one = Scalar.exact(1)
    for point in points:
        if not (det.evaluate(point) - one).is_zero():
            failures += 1
        if not d1.apply(det).evaluate(point).is_zero():
            failures += 1
        if not d2.apply(det).evaluate(point).is_zero():
            failures += 1
    a = matrix_variable(n, 0, 0)
    b = d1.apply(a)
    witness_ok = (
        d2.apply(a).is_zero()
        and b == matrix_variable(n, 1, 0)
        and not b.is_zero()
        and d1.apply(b).is_zero()
    )
    ok = failures == 0 and witness_ok and len(points) >= 50
    _report(
        5,
        ok,
        f"{len(points)} points, {failures} failures, witness a=c11 with "
        f"d1(a)=c21 in Ker d1 minus zero",
    )


def test_criterion_6_splitting_convergence():
    """Trotter order for the quadratic shear; commutator order for the swap pair."""
    started = time.time()
    field = F("[0; x2^2]")
    total_time = 0.5
    primitives = decompose_field(field)

    def closed_form(z):
        return (z[0], z[1] / (1 - total_time * z[1]))

    report = measure_convergence(
        lambda m: trotter_compose(primitives, 2, total_time, m),
        closed_form,
        [8, 16, 32, 64],
        2,
        0.5,
    )
    trotter = report.max_errors
    trotter_ok = all(a > b for a, b in zip(trotter, trotter[1:])) and 0.8 <= report.order <= 1.5

    a, b = F("[x2; 0]"), F("[0; x1]")
    points = sample_ball(2, 0.5, 25)
    s_values = [0.4, 0.2, 0.1, 0.05]
    errors = []
    for s in s_values:
        seq = commutator_step(a, b, s)
        worst = 0.0
        for z in points:
            truth = (cmath.exp(-s) * z[0], cmath.exp(s) * z[1])
            worst = max(
                worst,
                math.sqrt(sum(abs(p - q) ** 2 for p, q in zip(seq.apply(z), truth))),
            )
        errors.append(worst)
    commutator_slope = fit_loglog_slope(s_values, errors)
    commutator_ok = 1.3 <= commutator_slope <= 2.1
    elapsed = time.time() - started
    ok = trotter_ok and commutator_ok and elapsed < 60.0
    _report(
        6,
        ok,
        f"trotter order {report.order:.2f} in [0.8, 1.5], errors "
        f"{['%.1e' % e for e in report.max_errors]} monotone; commutator "
        f"slope {commutator_slope:.2f} in [1.3, 2.1]; {elapsed:.1f}s (< 1min)",
    )


def test_criterion_7_basin(tmp_path):
    """200x200 basin grid: disk attracted, both classes, byte-identical runs."""
    started = time.time()
    seq = attracting_shear_composition()
    grid = GridSpec.real_plane(2, 200, 200, (-3, 3), (-3, 3))
    artifacts = []
    for run in range(2):
        result = basin_sample(seq, (0, 0), grid)
        csv = tmp_path / f"basin{run}.csv"
        pgm = tmp_path / f"basin{run}.pgm"
        result.write_csv(csv)
        result.write_pgm(pgm)
        artifacts.append((csv.read_bytes(), pgm.read_bytes()))
    counts = result.counts()
    disk_total = disk_attracted = 0
    for row in range(200):
        for col in range(200):
            point = grid.point(row, col)
            if math.sqrt(sum(abs(v) ** 2 for v in point)) <= 0.1:
                disk_total += 1
                if result.classes[row][col] == "attracted":
                    disk_attracted += 1
    elapsed = time.time() - started
    ok = (
        disk_total > 0
        and disk_attracted / disk_total >= 0.99
        and counts["attracted"] > 0
        and counts["escaped"] > 0
        and artifacts[0] == artifacts[1]
        and elapsed < 120.0
    )
    _report(
        7,
        ok,
        f"disk {disk_attracted}/{disk_total} attracted (>= 99%), classes "
        f"{counts}, byte-identical artifacts, {elapsed:.1f}s (< 2min)",
    )


def test_criterion_8_replay_integrity():
    """Every established membership replays to an exact zero residual."""
    certs = list(CLOSURE_CERTS)
    if not certs:
        for degree in (2, 3):
            certs.append(
                lie_closure(
                    shear_generator_family(degree, 2),
                    degree,
                    targets=monomial_field_targets(2, degree),
                )
            )
        certs.append(
            codim2_module_certificate(
                SubvarietyInput(3, (P("x1", 3), P("x2", 3))), 2
            ).closure
        )
    replayed = 0
    ok = True
    for cert in certs:
        ok = ok and replay_closure(cert)
        rebuilt = closure_from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
        ok = ok and replay_closure(rebuilt)
        replayed += sum(1 for t in cert.targets if t.established)
    verdict = check_compatibility(F("[1; 0]"), F("[0; 1]"), 4)
    ok = ok and replay_compatibility(verdict, F("[1; 0]"), F("[0; 1]"))
    _report(
        8,
        ok,
        f"{len(certs)} certificates, {replayed} established memberships "
        "replayed exactly (in memory and through JSON)",
    )
