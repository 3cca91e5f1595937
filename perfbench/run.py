"""shearkit benchmark: job mixes through the CLI entry point, checked job by job.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload closure --seed 1 --seconds 12 --trace 0

Workloads are listed in ``BENCHMARK.json`` and defined in ``jobs.py``.
With ``--trace 0`` the last line of standard output carries the
end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced pass.  The line before it is a JSON record of the
environment, the calibration loop, per-entry latencies and failures,
also written to ``perfbench/out/``.

Each run starts fresh worker processes (``worker.py``): a few that only
set up, for the median set-up time, and one that sets up and measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent

SETUP_PROBES = 4  # set-up-only processes; with the measuring one, five set-ups
PROBE_TIMEOUT_S = 30
DEADLINE_S = 170  # the whole run, probes and calibration included
TAIL_BEYOND = 10  # samples the tail percentile leaves beyond it


def calibration_s(repeats: int = 5) -> list[float]:
    """Times of a fixed pure-Python Fraction loop; recorded, never used to scale."""
    out = []
    for _ in range(repeats):
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 3000):
            acc += Fraction(1, k) * Fraction(k + 1, k + 2)
            if k % 64 == 0:
                acc = Fraction(acc.numerator % 1000003, acc.denominator % 1000003 or 1)
        out.append(time.perf_counter() - start)
    return out


def environment(numpy_version: str | None) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def spawn(root: Path, args, mode: str, tag: str, timeout: float) -> dict:
    """Run one worker process to completion and return its JSON result.

    On timeout the worker is killed and waited for before the error propagates.
    """
    out = HERE / "out"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
        "--work", str(out / f"work-{os.getpid()}-{tag}"),
    ]
    if mode == "trace":
        command += ["--spans", str(out / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    command += ["--spawned-at", repr(time.perf_counter())]
    proc = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=timeout, check=False
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile that leaves TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n


def end_to_end(run: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and the facts that explain them."""
    latencies = [latency for _, latency in run["samples"]]
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "jobs_per_s": (len(latencies) / sum(latencies), "1/s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
    }
    facts = {"samples": len(latencies), "job_tail_pct": tail_pct, "passes": len(run["pass_times"])}
    return metrics, facts


def entry_medians(run: dict) -> dict[str, float]:
    by_entry: dict[str, list[float]] = {}
    for name, latency in run["samples"]:
        by_entry.setdefault(name, []).append(latency)
    return {name: statistics.median(v) for name, v in sorted(by_entry.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shearkit" / "cli.py").is_file():
        print("error: run from the root of a shearkit checkout (no src/shearkit here)",
              file=sys.stderr)
        return 2
    if args.workload not in jobs.POOLS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(jobs.POOLS)}",
              file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)

    deadline = time.monotonic() + DEADLINE_S
    calibration_start = calibration_s()
    try:
        probes = [
            spawn(root, args, "setup", f"probe{i}", PROBE_TIMEOUT_S) for i in range(SETUP_PROBES)
        ]
        run = spawn(root, args, "trace" if args.trace else "run", "main",
                    deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    calibration_end = calibration_s()

    setups = [p["setup_s"] for p in probes] + [run["setup_s"]]
    phases = [run["untraced"]] + ([run["traced"]] if args.trace else [])
    errors = [f"warm-up: {p['warmup_error']}" for p in probes + [run] if p["warmup_error"]]
    errors += [e for phase in phases for e in phase["errors"]]
    attempted = sum(len(phase["samples"]) for phase in phases)
    failed = sum(len(phase["errors"]) for phase in phases)

    metrics, facts = end_to_end(run["untraced"], setups)
    metrics["peak_rss_mib"] = (run["peak_rss_mib"], "MiB")
    if args.trace:
        metrics = run["layers"]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(run.get("numpy")),
        "calibration_s": {"start": calibration_start, "end": calibration_end},
        "setup_runs_s": setups,
        "fail_frac": {"failed": failed, "attempted": attempted,
                      "value": failed / attempted if attempted else 0.0},
        "entry_p50_s": entry_medians(run["untraced"]),
        **facts,
        "errors": errors[:20],
    }
    if args.trace:
        detail["traced_entry_p50_s"] = entry_medians(run["traced"])
    summary = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(detail, result=summary)
    result_path = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
