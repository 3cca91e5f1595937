"""Only the numeric layer loads numpy.

`dynamics` is the one module that needs numpy.  The package resolves
its names on first access, and the CLI imports it inside the numeric
handlers, so each check here starts a fresh interpreter: one that has
never imported numpy or `shearkit.dynamics`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import shearkit

# `from shearkit import *` with every module imported eagerly: the exported
# names and the submodules that the package's own imports load
STAR_NAMES = {
    "ArityMismatch", "AutoSeq", "BasinResult", "BracketPair", "Codim2Certificate",
    "CompatibilityVerdict", "ConvergenceReport", "DiagonalFlow", "GridSpec", "IdentityCheck",
    "LieClosureCertificate", "MonomialBasis", "NilpotencyReport", "NilpotencyVerdict",
    "OrbitSpanReport", "OvershearFlow", "ParseError", "Poly", "PolyMap", "PreconditionError",
    "RegimeMismatch", "Scalar", "Shear", "ShearFlow", "ShearKitError", "SubvarietyInput",
    "VanishingShear", "VectorField", "annihilation_order", "approximate_isotopy",
    "attracting_shear_composition", "basin_sample", "build_vanishing_shear",
    "check_compatibility", "codim2_module_certificate", "commutator_step", "decompose_field",
    "density", "determinant_poly", "dynamics", "eliminate_direction", "errors", "fields",
    "flow_nilpotent", "flow_semisimple", "format_poly", "format_scalar", "format_vector_field",
    "isotropy_update", "kernel_basis", "lie_bracket", "lie_closure", "linalg",
    "monomial_field_targets", "nilpotency_report", "orbit_span_closure", "parse_poly",
    "parse_scalar", "parse_vector_field", "poly", "primitive_target", "pushforward",
    "radial_contraction", "replay_closure", "replay_compatibility", "sample_sl_points",
    "scalars", "serialize", "shear_generator_family", "sl_pair_derivations", "subvariety",
    "trotter_compose", "verify_codim2_identity", "verify_compat_identity",
    "verify_local_identities", "verify_shear_identity",
}

EXACT_RUNS = [
    ["verify-identity", "andersen-lempert", "--f1", "x2", "--f2", "x1", "-n", "2"],
    ["compat", "--d1", "[1;0]", "--d2", "[0;1]", "-d", "3"],
    ["closure", "--shear-family", "3", "--monomial-targets", "3", "-D", "3"],
    ["codim2", "--gens", "x1", "x2", "-n", "3", "-d", "2"],
    ["sl-demo", "-n", "3", "--trials", "3"],
]
APPROX_RUN = ["approx", "--field", "[0; x2^2]", "--substeps", "4,8,16", "--points", "3"]


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run `python *args` in a new interpreter that finds this checkout's package."""
    paths = [str(Path(shearkit.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=True
    )


def _last_json_line(done: subprocess.CompletedProcess):
    return json.loads(done.stdout.splitlines()[-1])


_STAR_SCRIPT = """
import json
namespace = {}
exec("from shearkit import *", namespace)
import shearkit
print(json.dumps({
    "names": sorted(set(namespace) - {"__builtins__"}),
    "same_object": shearkit.AutoSeq is shearkit.dynamics.AutoSeq,
    "unknown_name": hasattr(shearkit, "no_such_name"),
    "dir_covers_all": set(shearkit.__all__) <= set(dir(shearkit)),
}))
"""


def test_star_import_binds_every_name_of_the_eager_package():
    result = _last_json_line(_fresh_python("-c", _STAR_SCRIPT))
    assert set(result["names"]) == STAR_NAMES
    assert len(STAR_NAMES) == 76
    assert result["same_object"] is True
    assert result["unknown_name"] is False
    assert result["dir_covers_all"] is True


_EXACT_SCRIPT = """
import json, sys
from shearkit import cli
runs, approx, out = json.loads(sys.argv[1])
codes = [cli.run(argv + ["-o", f"{out}/exact-{i}.json"]) for i, argv in enumerate(runs)]
loaded = [name for name in ("numpy", "shearkit.dynamics") if name in sys.modules]
approx_code = cli.run(approx + ["-o", f"{out}/approx.json"])
print(json.dumps({"codes": codes, "loaded": loaded, "approx_code": approx_code}))
"""


def test_exact_subcommands_run_without_numpy(tmp_path):
    payload = json.dumps([EXACT_RUNS, APPROX_RUN, str(tmp_path)])
    result = _last_json_line(_fresh_python("-c", _EXACT_SCRIPT, payload))
    assert result["codes"] == [0] * len(EXACT_RUNS)
    assert result["loaded"] == []
    # the numeric layer still loads on demand, in the same process
    assert result["approx_code"] == 0
    fresh = tmp_path / "approx-fresh.json"
    _fresh_python("-m", "shearkit.cli", *APPROX_RUN, "-o", str(fresh))
    assert (tmp_path / "approx.json").read_bytes() == fresh.read_bytes()
