"""Job pools, set-up inputs and the correctness gate of the benchmark.

A workload is a fixed pool of `shearkit` command lines.  Every pool
entry names the kind of artifact it writes, which selects its check:

* ``exact``  -- closure, codim2 and compat JSON: exit code and sha256 of
  the artifact bytes must equal the recorded ones;
* ``approx`` -- approximation report: exit code and ``sequence_length``
  and ``step_counts`` exact, every ``max_errors`` entry within a
  relative 1e-9, ``order`` within 1e-6;
* ``basin``  -- basin grid: exit code exact, the classes in the CSV and
  in the PGM each agree with the recorded grid on at least 99.9% of the
  points, and the summary counts equal the CSV's.

The recorded values live in ``reference.json`` beside this file and are
written by ``record.py``.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import zlib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

APPROX_REL_TOL = 1e-9
ORDER_ABS_TOL = 1e-6
BASIN_MIN_AGREEMENT = 0.999

# PGM grey levels written by shearkit for each basin class
CLASS_CODES = {"attracted": 255, "undecided": 128, "escaped": 0}


@dataclass(frozen=True)
class Entry:
    """One pool entry: a CLI argument list and the kind of check it gets.

    ``{work}`` in an argument is replaced by the run's work directory.
    """

    name: str
    kind: str
    argv: tuple[str, ...]


def _closure(name, *argv):
    return Entry(name, "exact", ("closure",) + argv)


def _codim2(name, *argv):
    return Entry(name, "exact", ("codim2",) + argv)


def _compat(name, d1, d2, degree, *extra):
    return Entry(name, "exact", ("compat", "--d1", d1, "--d2", d2, "-d", str(degree)) + extra)


def _approx(name, *argv):
    return Entry(name, "approx", ("approx",) + argv)


def _basin(name, builtin, size):
    n = str(size)
    return Entry(name, "basin", ("basin", "--builtin", builtin, "--nu", n, "--nv", n))


# Every pool has an odd number of entries, so the median job latency falls
# inside one entry's samples and not on the gap between two entries.
POOLS: dict[str, tuple[Entry, ...]] = {
    # Lie-closure certificates: brackets and TrackedSpan inserts, no rref
    "closure": (
        _closure("shear2-D4", "--shear-family", "4", "--monomial-targets", "4", "-D", "4"),
        _closure("shear2-D7", "--shear-family", "7", "--monomial-targets", "7", "-D", "7"),
        _closure("shear3-D3", "--generators", "{work}/shear3-D3.txt", "--monomial-targets", "3", "-D", "3"),
        _closure("shear3-D4", "--generators", "{work}/shear3-D4.txt", "--monomial-targets", "4", "-D", "4"),
        _codim2("codim2-axis-d2", "--gens", "x1", "x2", "-n", "3", "-d", "2"),
        _codim2("codim2-axis-d3", "--gens", "x1", "x2", "-n", "3", "-d", "3"),
        _codim2("codim2-parabola-d3", "--gens", "x1", "x2-x3^2", "-n", "3", "-d", "3"),
    ),
    # compatibility verdicts: dense kernel_basis -> nullspace -> rref, no brackets
    "compat": (
        _compat("translations3-d4", "[1;0;0]", "[0;0;1]", 4),
        _compat("translations3-d5", "[1;0;0]", "[0;0;1]", 5),
        _compat("translations3-d6", "[1;0;0]", "[0;0;1]", 6),
        _compat("triangular-d5", "[0;x1;x2]", "[1;0;0]", 5),
        _compat("translations2-d8", "[1;0]", "[0;1]", 8),
        _compat("diagonal-d6", "[0;x1]", "[x1;-x2]", 6),
        _compat("candidate-d5", "[0;0;x1]", "[0;0;x2]", 5, "--candidate", "x1"),
    ),
    # flow approximation: tuple AutoSeq.apply per point and the RK4 oracle
    "approx": (
        _approx("square-m16-p50", "--field", "[0; x2^2]", "--substeps", "2,4,8,16", "--points", "50"),
        _approx("square-m64-p25", "--field", "[0; x2^2]", "--substeps", "8,16,32,64", "--points", "25"),
        _approx("pair-m64-p25", "--field", "[x1*x2; x2^2]", "--substeps", "8,16,32,64", "--points", "25"),
        _approx("isotopy4-m16-p25", "--isotopy", "{work}/isotopy4.json", "--steps", "4",
                "--substeps", "4,8,16", "--points", "25"),
        _approx("pair-plain-m32-p25", "--field", "[x1*x2; x2^2]", "--scheme", "plain",
                "--substeps", "4,8,16,32", "--points", "25"),
    ),
    # basin grids: numpy apply_array over a shrinking active set
    "basin": (
        _basin("shears-100", "attracting-shears", 100),
        _basin("shears-200", "attracting-shears", 200),
        _basin("shears-250", "attracting-shears", 250),
        _basin("radial-100", "radial-contraction", 100),
        _basin("radial-150", "radial-contraction", 150),
    ),
}

# the untimed warm-up job of each workload: its cheapest entry
WARMUP = {
    "closure": "shear2-D4",
    "compat": "translations3-d4",
    "approx": "pair-plain-m32-p25",
    "basin": "shears-100",
}

ISOTOPY_FIELDS = ["[0; x2^2]", "[x1*x2; x2^2]", "[0; x1]", "[x2; 0]"]


def write_inputs(work: Path) -> None:
    """Write the generator and isotopy files that pool entries read."""
    from shearkit.density import shear_generator_family
    from shearkit.fields import format_vector_field

    work.mkdir(parents=True, exist_ok=True)
    for degree in (3, 4):
        lines = [format_vector_field(g) for g in shear_generator_family(degree, 3)]
        (work / f"shear3-D{degree}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    (work / "isotopy4.json").write_text(
        json.dumps({"fields": ISOTOPY_FIELDS}) + "\n", encoding="utf-8"
    )


def output_paths(entry: Entry, work: Path) -> dict[str, Path]:
    """Files the entry writes: always a JSON artifact, plus CSV and PGM for basins."""
    paths = {"json": work / f"{entry.name}.json"}
    if entry.kind == "basin":
        paths["csv"] = work / f"{entry.name}.csv"
        paths["pgm"] = work / f"{entry.name}.pgm"
    return paths


def job_argv(entry: Entry, work: Path) -> list[str]:
    argv = [arg.replace("{work}", str(work)) for arg in entry.argv]
    paths = output_paths(entry, work)
    if entry.kind == "basin":
        argv += ["--csv", str(paths["csv"]), "--pgm", str(paths["pgm"])]
    return argv + ["-o", str(paths["json"])]


# ---------------------------------------------------------------------------
# Reference values
# ---------------------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def pgm_body(data: bytes) -> tuple[int, int, bytes]:
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"255":
        raise ValueError("not a binary PGM written by shearkit")
    nu, nv = (int(x) for x in parts[1].split())
    return nu, nv, parts[3]


def csv_codes(text: str) -> tuple[bytes, dict[str, int]]:
    """Class codes in row-major order and the class counts of a basin CSV."""
    lines = text.splitlines()
    if not lines or lines[0] != "row,col,re,im,class,iters":
        raise ValueError("unexpected basin CSV header")
    codes = bytearray()
    counts = dict.fromkeys(CLASS_CODES, 0)
    for line in lines[1:]:
        label = line.split(",")[4]
        codes.append(CLASS_CODES[label])
        counts[label] += 1
    return bytes(codes), counts


def record_entry(entry: Entry, exit_code: int, paths: dict[str, Path]) -> dict:
    """The reference record of one finished job."""
    ref = {"exit": exit_code}
    raw = paths["json"].read_bytes()
    if entry.kind == "exact":
        ref["sha256"] = hashlib.sha256(raw).hexdigest()
    elif entry.kind == "approx":
        doc = json.loads(raw)
        ref["sequence_length"] = doc["sequence_length"]
        ref["step_counts"] = doc["report"]["step_counts"]
        ref["max_errors"] = doc["report"]["max_errors"]
        ref["order"] = doc["report"]["order"]
    else:
        nu, nv, body = pgm_body(paths["pgm"].read_bytes())
        ref["nu"], ref["nv"] = nu, nv
        ref["grid"] = base64.b64encode(zlib.compress(body, 9)).decode("ascii")
    return ref


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------


def _agreement(got: bytes, want: bytes) -> float:
    if len(got) != len(want):
        return 0.0
    same = sum(1 for a, b in zip(got, want) if a == b)
    return same / len(want) if want else 1.0


def check(entry: Entry, exit_code: int, paths: dict[str, Path], ref: dict) -> str | None:
    """Compare a finished job with its reference; returns why it failed, or None."""
    if exit_code != ref["exit"]:
        return f"exit code {exit_code}, expected {ref['exit']}"
    if not paths["json"].is_file():
        return "no JSON artifact written"
    raw = paths["json"].read_bytes()
    if entry.kind == "exact":
        if hashlib.sha256(raw).hexdigest() != ref["sha256"]:
            return "artifact digest differs from the reference"
        return None
    doc = json.loads(raw)
    if entry.kind == "approx":
        report = doc["report"]
        if doc["sequence_length"] != ref["sequence_length"]:
            return f"sequence_length {doc['sequence_length']}, expected {ref['sequence_length']}"
        if report["step_counts"] != ref["step_counts"]:
            return "step_counts differ from the reference"
        if len(report["max_errors"]) != len(ref["max_errors"]):
            return "max_errors has the wrong length"
        for got, want in zip(report["max_errors"], ref["max_errors"]):
            if not math.isclose(got, want, rel_tol=APPROX_REL_TOL, abs_tol=0.0):
                return f"max_errors entry {got!r} differs from {want!r}"
        if not abs(report["order"] - ref["order"]) <= ORDER_ABS_TOL:
            return f"order {report['order']!r} differs from {ref['order']!r}"
        return None
    want = zlib.decompress(base64.b64decode(ref["grid"]))
    for key in ("csv", "pgm"):
        if not paths[key].is_file():
            return f"no {key.upper()} written"
    csv_classes, csv_counts = csv_codes(paths["csv"].read_text(encoding="utf-8"))
    nu, nv, pgm_classes = pgm_body(paths["pgm"].read_bytes())
    if (nu, nv) != (ref["nu"], ref["nv"]):
        return f"grid is {nu}x{nv}, expected {ref['nu']}x{ref['nv']}"
    for label, codes in (("CSV", csv_classes), ("PGM", pgm_classes)):
        share = _agreement(codes, want)
        if share < BASIN_MIN_AGREEMENT:
            return f"{label} classes agree with the reference on {share:.4%} of points"
    if doc["counts"] != csv_counts:
        return "summary counts disagree with the CSV"
    return None
