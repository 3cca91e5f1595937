"""Check that the correctness gate catches wrong results.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Each case runs one pool entry through the benchmark's own pass loop
with a CLI stand-in that calls the real ``shearkit.cli.run`` and then
damages the result: one coefficient of a closure certificate changed,
basin classes flipped beyond the 0.1% tolerance, approximation errors
moved beyond their tolerance, an unexpected exit code, a traceback.
Each must count as exactly one failed job.  Two controls damage less
than the tolerance and must pass.  Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import math
import random
import shutil
import sys

import jobs
import worker


class Tampering:
    """Stands in for shearkit.cli: runs the real job, then applies `damage`."""

    def __init__(self, cli, damage):
        self.cli = cli
        self.damage = damage

    def run(self, argv):
        exit_code = self.cli.run(argv)
        return self.damage(argv, exit_code)


def _artifact(argv, flag):
    return argv[argv.index(flag) + 1]


def change_one_coefficient(argv, exit_code):
    path = _artifact(argv, "-o")
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    target = next(t for t in doc["targets"] if t["established"])
    coeff, index = target["combination"][0]
    target["combination"][0] = [coeff + "+1", index]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
    return exit_code


def flip_classes(share):
    """Damage that turns `share` of the attracted points into escaped ones, consistently."""

    def damage(argv, exit_code):
        csv_path, pgm_path, json_path = (_artifact(argv, f) for f in ("--csv", "--pgm", "-o"))
        with open(csv_path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with open(pgm_path, "rb") as handle:
            pgm = handle.read()
        body = bytearray(jobs.pgm_body(pgm)[2])
        header = pgm[: len(pgm) - len(body)]
        to_flip = math.ceil(share * (len(lines) - 1))
        flipped = 0
        for i in range(1, len(lines)):
            if flipped == to_flip:
                break
            fields = lines[i].split(",")
            if fields[4] == "attracted":
                fields[4] = "escaped"
                lines[i] = ",".join(fields)
                body[i - 1] = jobs.CLASS_CODES["escaped"]
                flipped += 1
        with open(csv_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        with open(pgm_path, "wb") as handle:
            handle.write(header + bytes(body))
        with open(json_path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["counts"]["attracted"] -= flipped
        doc["counts"]["escaped"] += flipped
        with open(json_path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return exit_code

    return damage


def scale_errors(factor):
    def damage(argv, exit_code):
        path = _artifact(argv, "-o")
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
        doc["report"]["max_errors"] = [e * factor for e in doc["report"]["max_errors"]]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        return exit_code

    return damage


def wrong_exit_code(argv, exit_code):
    return exit_code + 1


def raise_error(argv, exit_code):
    raise RuntimeError("injected failure")


CASES = [
    # (name, workload, entry, damage, failures expected)
    ("closure coefficient changed", "closure", "shear2-D4", change_one_coefficient, 1),
    ("codim2 coefficient changed", "closure", "codim2-axis-d2", change_one_coefficient, 1),
    ("basin classes flipped on 0.2% of points", "basin", "shears-100", flip_classes(0.002), 1),
    ("basin classes flipped on 0.05% of points", "basin", "shears-200", flip_classes(0.0005), 0),
    ("approx errors off by 1e-6 relative", "approx", "pair-plain-m32-p25", scale_errors(1 + 1e-6), 1),
    ("approx errors off by 1e-12 relative", "approx", "pair-plain-m32-p25", scale_errors(1 + 1e-12), 0),
    ("unexpected exit code", "compat", "translations3-d4", wrong_exit_code, 1),
    ("unexpected exit code on a verdict that exits 1", "compat", "diagonal-d6", wrong_exit_code, 1),
    ("traceback", "closure", "shear2-D4", raise_error, 1),
]


def main() -> int:
    from shearkit import cli

    work = jobs.HERE / "out" / "selftest-work"
    reference = jobs.load_reference()
    bad = 0
    try:
        jobs.write_inputs(work)
        for name, workload, entry_name, damage, expected in CASES:
            entry = next(e for e in jobs.POOLS[workload] if e.name == entry_name)
            outcome = worker.run_passes(
                Tampering(cli, damage), [entry], work, reference[workload],
                random.Random(0), seconds=0, min_passes=1,
            )
            failures = len(outcome["errors"])
            ok = failures == expected and len(outcome["samples"]) == 1
            bad += not ok
            reason = outcome["errors"][0] if outcome["errors"] else "passed the gate"
            print(f"{'ok' if ok else 'FAIL'}: {name}: {failures} failed job(s), "
                  f"expected {expected} ({reason[:120]})")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
