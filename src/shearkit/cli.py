"""Command-line front end.

Subcommands: verify-identity, compat, closure, codim2, sl-demo,
decompose, approx, basin.  Inputs are inline strings or files in the
polynomial / vector-field grammar; artifacts are canonical JSON, CSV or
PGM so identical invocations (including the seed) are byte-identical.
Exit code 0 means every requested verdict was established, 1 means some
verdict was not established, 2 means a usage or input error.

The exact subcommands (verify-identity, compat, closure, codim2,
sl-demo) never load numpy: `dynamics`, the one module that needs it, is
imported inside the decompose, approx and basin handlers only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from .errors import ShearKitError
from . import density, serialize, subvariety
from .fields import parse_vector_field
from .poly import MAX_BASIS_SIZE, parse_poly, parse_scalar
from .subvariety import SubvarietyInput

EXIT_OK = 0
EXIT_NOT_ESTABLISHED = 1
EXIT_USAGE = 2

# sl-demo refuses trials x (n! + SL_DEMO_POINT_WORK) past SL_DEMO_MAX_WORK.  The
# default -n 8 with 50 trials is 2,041,000 and runs in 0.7 s on a 2-CPU Xeon, so a
# unit is about 0.3 us there; drawing and solving one point exactly takes about 500
# units at n = 4 (0.17 ms), where n! alone would undercount the run.  The largest
# run the budget accepts takes 0.4 to 1.9 s for n = 2 to 8 there
SL_DEMO_MAX_WORK = 4_000_000
SL_DEMO_POINT_WORK = 500

SL_DEMO_NOTE = (
    "verified by exact evaluation at sampled variety points; "
    "this is randomized identity-testing evidence, not a proof"
)


def _require_positive(args, *names: str) -> None:
    for name in names:
        value = getattr(args, name)
        # NaN fails both comparisons
        if value is not None and not 0 < value < math.inf:
            raise ShearKitError(f"parameter {name} must be positive and finite, got {value}")


# grid sizes, iteration counts and substep counts become numpy int64 values or sizes
_MAX_COUNT = 2**63 - 1


def _require_count(name: str, *values: int, limit: int = _MAX_COUNT) -> None:
    if any(value > limit for value in values):
        raise ShearKitError(f"{name} must be at most {limit}, got {max(values)}")


def _source(args, first: str, second: str, required: bool = True) -> str | None:
    """Which of two flags for one input was given; refuses both, and neither if required."""
    given = [name for name in (first, second) if getattr(args, name) is not None]
    flags = [f"--{name.replace('_', '-')}" for name in (first, second)]
    if len(given) == 2:
        raise ShearKitError(f"{flags[0]} and {flags[1]} are two sources of one input; give one")
    if required and not given:
        raise ShearKitError(f"provide {flags[0]} or {flags[1]}")
    return given[0] if given else None


def _emit(document: dict, output: str | None) -> None:
    text = serialize.canonical_dumps(document)
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _read_fields_file(path: str, nvars: int | None):
    fields = []
    for lineno, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            fields.append(parse_vector_field(line, nvars))
        except ShearKitError as exc:
            raise ShearKitError(f"{path}:{lineno}: {exc}") from exc
        if nvars is None:
            nvars = fields[-1].nvars
    return fields


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


# identity name -> (operand flags in the verifier's argument order, verifier)
_IDENTITIES = {
    "andersen-lempert": (("f1", "f2"), density.verify_shear_identity),
    "al": (("f1", "f2"), density.verify_shear_identity),
    "compat-pair": (("d1", "d2", "a", "f1", "f2"), density.verify_compat_identity),
    "codim2-pair": (("f1", "h1", "f2", "h2"), subvariety.verify_codim2_identity),
    "local-triple": (("r", "h", "s", "f", "g"), subvariety.verify_local_identities),
}
# how each operand flag's text is read; -s is already an int
_OPERAND_PARSERS = {"d1": parse_vector_field, "d2": parse_vector_field, "s": lambda value, _nvars: value}


def _run_verify_identity(args) -> int:
    _require_positive(args, "nvars")
    flags, verify = _IDENTITIES[args.name]
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        raise ShearKitError(f"identity {args.name!r} needs {', '.join(missing)}")
    operands = [
        _OPERAND_PARSERS.get(flag, parse_poly)(getattr(args, flag), args.nvars) for flag in flags
    ]
    verdict = verify(*operands)
    if isinstance(verdict, subvariety.LocalIdentityReport):
        results = {f"local-{i}": check for i, check in enumerate(verdict.checks, 1)}
    else:
        # one identity, one check, labelled by the full name ("al" is its alias)
        results = {"andersen-lempert" if args.name == "al" else args.name: verdict}
    checks = {label: check.holds for label, check in results.items()}
    established = all(checks.values())
    _emit(
        {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "identity-verdicts",
            "identity": args.name,
            "checks": checks,
            "residuals": {
                label: serialize.field_to_text(check.residual)
                for label, check in results.items()
            },
            "established": established,
        },
        args.output,
    )
    print("established" if established else "failed", file=sys.stderr)
    return EXIT_OK if established else EXIT_NOT_ESTABLISHED


def _run_compat(args) -> int:
    _require_positive(args, "degree")
    d1 = parse_vector_field(args.d1)
    d2 = parse_vector_field(args.d2, d1.nvars)
    candidates = [parse_poly(text, d1.nvars) for text in args.candidate]
    verdict = density.check_compatibility(d1, d2, args.degree, candidates)
    _emit(verdict.to_json_dict(), args.output)
    return EXIT_OK if verdict.established else EXIT_NOT_ESTABLISHED


def _run_closure(args) -> int:
    _require_positive(args, "degree_cap", "depth")
    for name in ("shear_family", "monomial_targets"):
        value = getattr(args, name)
        if value is not None and value < 0:
            raise ShearKitError(f"parameter {name} must be non-negative, got {value}")
    if _source(args, "generators", "shear_family") == "generators":
        generators = _read_fields_file(args.generators, None)
        if not generators:
            raise ShearKitError("generators file is empty")
        nvars = generators[0].nvars
    else:
        generators = density.shear_generator_family(args.shear_family, 2)
        nvars = 2
    if _source(args, "targets", "monomial_targets", required=False) == "targets":
        targets = _read_fields_file(args.targets, nvars)
    elif args.monomial_targets is not None:
        targets = density.monomial_field_targets(nvars, args.monomial_targets)
    else:
        targets = []
    cert = density.lie_closure(generators, args.degree_cap, args.depth, targets)
    _emit(cert.to_json_dict(), args.output)
    return EXIT_OK if cert.all_targets_established else EXIT_NOT_ESTABLISHED


def _load_subvariety(args) -> SubvarietyInput:
    if _source(args, "ideal", "gens") == "ideal":
        doc = json.loads(Path(args.ideal).read_text(encoding="utf-8"))
        return SubvarietyInput.from_json_dict(doc)
    if args.nvars is None:
        raise ShearKitError("--gens needs -n/--nvars")
    return SubvarietyInput(args.nvars, tuple(parse_poly(g, args.nvars) for g in args.gens))


def _run_codim2(args) -> int:
    _require_positive(args, "degree", "depth")
    data = _load_subvariety(args)
    cert = subvariety.codim2_module_certificate(
        data, args.degree, args.degree_cap, args.depth
    )
    _emit(cert.to_json_dict(), args.output)
    return EXIT_OK if cert.all_targets_established else EXIT_NOT_ESTABLISHED


def _run_sl_demo(args) -> int:
    _require_positive(args, "n", "trials")
    # sample sizes share the monomial bases' size budget
    _require_count("--trials", args.trials, limit=MAX_BASIS_SIZE)
    n = args.n
    d1, d2 = density.sl_pair_derivations(n)
    work = args.trials * (density.determinant_terms(n) + SL_DEMO_POINT_WORK)
    if work > SL_DEMO_MAX_WORK:
        raise ShearKitError(
            f"--trials {args.trials} at n = {n} is {work} units of work "
            f"(trials x ({n}! + {SL_DEMO_POINT_WORK})), more than {SL_DEMO_MAX_WORK}"
        )
    det = density.determinant_poly(n)
    # sample_sl_points solves each point onto det = 1 exactly, so no premise is re-checked
    points = density.sample_sl_points(n, args.trials, args.seed)
    images = [d1.apply(det), d2.apply(det)]
    tangency_symbolic = all(image.is_zero() for image in images)
    tangency_on_samples = all(
        image.evaluate(point).is_zero() for point in points for image in images
    )
    a = density.matrix_variable(n, 0, 0)
    b = d1.apply(a)
    witness_ok = (
        d2.apply(a).is_zero() and not b.is_zero() and d1.apply(b).is_zero()
    )
    holds = tangency_symbolic and tangency_on_samples and witness_ok
    _emit(
        {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "sl-demo",
            "n": n,
            "points_tested": len(points),
            "tangency_symbolic": tangency_symbolic,
            "tangency_on_samples": tangency_on_samples,
            "witness": {
                "a": serialize.poly_to_text(a),
                "b": serialize.poly_to_text(b),
                "holds": witness_ok,
            },
            "holds": holds,
            "note": SL_DEMO_NOTE,
            "seed": args.seed,
        },
        args.output,
    )
    return EXIT_OK if holds else EXIT_NOT_ESTABLISHED


def _run_decompose(args) -> int:
    from . import dynamics

    field = parse_vector_field(args.field)
    primitives = dynamics.decompose_field(field)
    listing = []
    for prim in primitives:
        if isinstance(prim, dynamics.Shear):
            listing.append(
                {
                    "kind": "shear",
                    "axis": prim.axis + 1,
                    "coeff": serialize.poly_to_text(prim.coeff),
                }
            )
        else:
            listing.append(
                {
                    "kind": "bracket-pair",
                    "axis": prim.axis + 1,
                    "aux": prim.aux + 1,
                    "f1": serialize.poly_to_text(prim.f1),
                    "f2": serialize.poly_to_text(prim.f2),
                }
            )
    _emit(
        {
            "schema_version": serialize.SCHEMA_VERSION,
            "kind": "decomposition",
            "field": serialize.field_to_text(field),
            "primitives": listing,
        },
        args.output,
    )
    return EXIT_OK


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _run_approx(args) -> int:
    _require_positive(args, "time", "steps", "points", "radius")
    substeps = _parse_int_list(args.substeps)
    if not substeps or any(m < 1 for m in substeps):
        raise ShearKitError("--substeps needs positive step counts, e.g. 8,16,32")
    _require_count("--substeps", *substeps)
    # the report fits the convergence order over the step counts (dynamics.fit_loglog_slope)
    if len(substeps) < 3:
        raise ShearKitError("slope fitting needs at least three matched samples")
    if len(set(substeps)) != len(substeps):
        raise ShearKitError(f"slope fitting needs distinct x values, got {substeps}")
    _require_count("--points", args.points, limit=MAX_BASIS_SIZE)
    if _source(args, "isotopy", "field") == "isotopy":
        doc = serialize.require_keys(
            json.loads(Path(args.isotopy).read_text(encoding="utf-8")),
            "isotopy file",
            fields=[str],
        )
        table = [parse_vector_field(text) for text in doc["fields"]]
        slices = len(table)
        if args.steps not in (None, slices):
            raise ShearKitError(f"--steps {args.steps} differs from the file's {slices} fields")
    else:
        field = parse_vector_field(args.field)
        slices = 1 if args.steps is None else args.steps
    if slices * max(substeps) > MAX_BASIS_SIZE:
        raise ShearKitError(
            f"time slices times the largest substep count must be at most {MAX_BASIS_SIZE}, "
            f"got {slices} x {max(substeps)}"
        )
    from . import dynamics

    seq, report = dynamics.approximate_isotopy(
        table if args.isotopy else [field] * slices,
        args.time,
        slices,
        substeps,
        args.radius,
        args.points,
        args.seed,
        args.scheme,
    )
    document = {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "approximation-run",
        "sequence_length": len(seq),
        "scheme": args.scheme,
        "report": report.to_json_dict(),
    }
    if args.save_sequence:
        Path(args.save_sequence).write_text(
            serialize.canonical_dumps(dynamics.autoseq_to_json_dict(seq)) + "\n",
            encoding="utf-8",
        )
    _emit(document, args.output)
    return EXIT_OK


def _run_basin(args) -> int:
    from . import dynamics

    _require_positive(args, "max_iter", "attract_radius", "escape_radius")
    _require_count("--max-iter", args.max_iter)
    _require_count("--nu/--nv", args.nu, args.nv)
    if not all(-math.inf < bound < math.inf for bound in args.u + args.v):
        raise ShearKitError(f"--u and --v must be finite, got {args.u} and {args.v}")
    if _source(args, "map", "builtin") == "map":
        doc = json.loads(Path(args.map).read_text(encoding="utf-8"))
        seq = dynamics.autoseq_from_json_dict(doc)
    elif args.builtin == "attracting-shears":
        seq = dynamics.attracting_shear_composition()
    else:
        seq = dynamics.radial_contraction()
    if args.grid:
        grid = dynamics.GridSpec.from_json_dict(
            json.loads(Path(args.grid).read_text(encoding="utf-8"))
        )
    else:
        grid = dynamics.GridSpec.real_plane(
            seq.nvars, args.nu, args.nv, tuple(args.u), tuple(args.v)
        )
    fixed_point = tuple(
        parse_scalar(part).to_complex() for part in args.fixed_point.split(",")
    )
    result = dynamics.basin_sample(
        seq,
        fixed_point,
        grid,
        max_iter=args.max_iter,
        attract_radius=args.attract_radius,
        escape_radius=args.escape_radius,
    )
    result.write_csv(args.csv)
    if args.pgm:
        result.write_pgm(args.pgm)
    summary = {
        "schema_version": serialize.SCHEMA_VERSION,
        "kind": "basin-summary",
        "counts": result.counts(),
        "spectral_radius_estimate": result.spectral_radius_estimate,
        "contraction_warning": result.contraction_warning,
        "grid": grid.to_json_dict(),
    }
    _emit(summary, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by `run`."""
    parser = argparse.ArgumentParser(
        prog="shearkit",
        description="Exact density certificates and shear-automorphism numerics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, seeded=False):
        # only the subcommands that sample points take a seed
        if seeded:
            p.add_argument("--seed", type=int, default=density.DEFAULT_SEED)
        p.add_argument("-o", "--output", help="write the JSON artifact here")

    p = sub.add_parser("verify-identity", help="check a named bracket identity exactly")
    p.add_argument("name", choices=list(_IDENTITIES))
    p.add_argument("-n", "--nvars", type=int, required=True)
    for flag in ("--f1", "--f2", "--h1", "--h2", "--a", "--d1", "--d2", "--r", "--h", "--f", "--g"):
        p.add_argument(flag)
    p.add_argument("-s", type=int, default=0)
    common(p)
    p.set_defaults(handler=_run_verify_identity)

    p = sub.add_parser("compat", help="compatibility verdict for a pair of derivations")
    p.add_argument("--d1", required=True)
    p.add_argument("--d2", required=True)
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("--candidate", action="append", default=[],
                   help="candidate principal-ideal generator (repeatable)")
    common(p)
    p.set_defaults(handler=_run_compat)

    p = sub.add_parser("closure", help="Lie-closure span certificate")
    p.add_argument("--generators", help="file with one vector field per line")
    p.add_argument("--shear-family", type=int,
                   help="use the plane shear family at this degree")
    p.add_argument("--targets", help="file with one target field per line")
    p.add_argument("--monomial-targets", type=int,
                   help="target all monomial fields up to this degree")
    p.add_argument("-D", "--degree-cap", type=int, required=True)
    p.add_argument("--depth", type=int, default=density.DEFAULT_BRACKET_DEPTH)
    common(p)
    p.set_defaults(handler=_run_closure)

    p = sub.add_parser("codim2", help="vanishing-module certificate for a subvariety")
    p.add_argument("--ideal", help="JSON file with nvars and generators")
    p.add_argument("--gens", nargs="+", help="ideal generators inline")
    p.add_argument("-n", "--nvars", type=int)
    p.add_argument("-d", "--degree", type=int, required=True)
    p.add_argument("-D", "--degree-cap", type=int, default=None)
    p.add_argument("--depth", type=int, default=density.DEFAULT_BRACKET_DEPTH)
    common(p)
    p.set_defaults(handler=_run_codim2)

    p = sub.add_parser("sl-demo", help="random-point identity tests on determinant-1 matrices")
    p.add_argument("-n", type=int, default=2)
    p.add_argument("--trials", type=int, default=50)
    common(p, seeded=True)
    p.set_defaults(handler=_run_sl_demo)

    p = sub.add_parser("decompose", help="split a field into complete primitives")
    p.add_argument("--field", required=True)
    common(p)
    p.set_defaults(handler=_run_decompose)

    p = sub.add_parser("approx", help="flow approximation with a convergence report")
    p.add_argument("--field", help="autonomous field in bracket grammar")
    p.add_argument("--isotopy", help="JSON file with per-slice fields")
    p.add_argument("-T", "--time", type=float, default=1.0)
    p.add_argument("--steps", type=int, help="time slices (default 1; an isotopy file fixes them)")
    p.add_argument("--substeps", default="8,16,32,64")
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--points", type=int, default=25)
    p.add_argument("--scheme", choices=["symmetric", "plain"], default="symmetric")
    p.add_argument("--save-sequence", help="write the finest automorphism sequence here")
    common(p, seeded=True)
    p.set_defaults(handler=_run_approx)

    p = sub.add_parser("basin", help="classify a grid under iteration")
    p.add_argument("--map", help="automorphism sequence JSON file")
    p.add_argument("--builtin", choices=["attracting-shears", "radial-contraction"])
    p.add_argument("--grid", help="grid spec JSON file")
    p.add_argument("--nu", type=int, default=200)
    p.add_argument("--nv", type=int, default=200)
    p.add_argument("--u", type=float, nargs=2, default=[-3.0, 3.0])
    p.add_argument("--v", type=float, nargs=2, default=[-3.0, 3.0])
    p.add_argument("--fixed-point", default="0,0")
    p.add_argument("--max-iter", type=int, default=500)
    p.add_argument("--attract-radius", type=float, default=1e-6)
    p.add_argument("--escape-radius", type=float, default=1e6)
    p.add_argument("--csv", required=True)
    p.add_argument("--pgm")
    common(p)
    p.set_defaults(handler=_run_basin)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.handler(args)
    except ShearKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
