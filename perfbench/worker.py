"""One workload process: set up, run passes over the pool, check every job.

Started by ``run.py`` from the root of a source checkout, never by hand.
It imports shearkit from ``src/``, writes the pool's input files, runs
one untimed warm-up job and then, unless ``--mode setup`` asks for the
set-up only, runs passes over the pool in one closed loop: each pass is
every pool entry once, in an order drawn from ``--seed``.  Each job is
``shearkit.cli.run(argv)`` in this process, timed alone and then checked
against the reference.  The last line of standard output is a JSON
object with the raw samples; ``run.py`` turns it into metrics.

``--mode trace`` runs an untraced phase and then a traced phase with
the same rules, and also replays every Lie-closure certificate.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402

# passes of the untimed and traced phases, at least; 11 passes keep at
# least 11 samples of the slowest entry, so the tail percentile that
# leaves ten samples beyond it always falls among them
MIN_PASSES = 11
MIN_PASSES_TRACE_UNTRACED = 3
MIN_PASSES_TRACED = 2


def run_job(cli, entry: jobs.Entry, work: Path, ref: dict) -> tuple[float, str | None, dict]:
    """Run one job; returns its latency, why it failed (or None) and its files."""
    paths = jobs.output_paths(entry, work)
    for path in paths.values():
        path.unlink(missing_ok=True)
    argv = jobs.job_argv(entry, work)
    start = time.perf_counter()
    try:
        exit_code = cli.run(argv)
    except Exception:  # a traceback is a failed job, not a failed run
        latency = time.perf_counter() - start
        return latency, "traceback: " + traceback.format_exc(limit=3).replace("\n", " | "), paths
    latency = time.perf_counter() - start
    try:
        error = jobs.check(entry, exit_code, paths, ref)
    except (ValueError, KeyError, TypeError, OSError) as exc:
        error = f"unreadable artifact: {exc!r}"
    return latency, error, paths


def run_passes(cli, pool, work, ref, rng, seconds, min_passes, extras=None):
    """Passes over the pool until `seconds` have gone and `min_passes` are done.

    A pass's time is the sum of its job latencies; the checks between
    jobs are the client's work and are left out.
    """
    samples: list[tuple[str, float]] = []
    errors: list[str] = []
    pass_times: list[float] = []
    started = time.perf_counter()
    while len(pass_times) < min_passes or time.perf_counter() - started < seconds:
        busy = 0.0
        for entry in rng.sample(pool, len(pool)):
            if extras is not None:
                extras.tracer.job = f"{len(pass_times)}:{entry.name}"
            latency, error, paths = run_job(cli, entry, work, ref[entry.name])
            if error is None and extras is not None:
                error = extras.after_job(entry, paths)
            busy += latency
            samples.append((entry.name, latency))
            if error is not None:
                errors.append(f"{entry.name}: {error}")
        pass_times.append(busy)
    return {"samples": samples, "errors": errors, "pass_times": pass_times}


class TraceExtras:
    """What the traced phase measures beside the tracer: replays, bits, bytes."""

    _INT = re.compile(r"\d+")

    def __init__(self, tracer):
        from shearkit import density

        self.density = density
        self.tracer = tracer
        self.coeff_bits_max = 0
        self.artifact_bytes = 0

    def after_job(self, entry, paths):
        """Measure a checked job's artifacts and replay its certificate, if any."""
        self.artifact_bytes += sum(p.stat().st_size for p in paths.values() if p.is_file())
        if entry.kind != "exact":
            return None
        text = paths["json"].read_text(encoding="utf-8")
        bits = max((int(m).bit_length() for m in self._INT.findall(text)), default=0)
        self.coeff_bits_max = max(self.coeff_bits_max, bits)
        if entry.argv[0] not in ("closure", "codim2"):
            return None
        self.tracer.job += ":replay"
        cert = self.density.closure_from_json_dict(json.loads(text))
        if not self.density.replay_closure(cert):
            return "replay_closure rejected the certificate"
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(jobs.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="perf_counter reading of the parent just before the spawn")
    parser.add_argument("--work", required=True, help="scratch directory for inputs and artifacts")
    parser.add_argument("--spans", help="where the traced phase writes its spans")
    args = parser.parse_args(argv)

    from shearkit import cli

    work = Path(args.work)
    try:
        jobs.write_inputs(work)
        pool = jobs.POOLS[args.workload]
        ref = jobs.load_reference()[args.workload]
        warmup = next(e for e in pool if e.name == jobs.WARMUP[args.workload])
        _, warmup_error, _ = run_job(cli, warmup, work, ref[warmup.name])
        setup_s = time.perf_counter() - args.spawned_at
        result = {"setup_s": setup_s, "warmup_error": warmup_error}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        import numpy

        result["numpy"] = numpy.__version__
        rng = random.Random(args.seed)
        if args.mode == "run":
            result["untraced"] = run_passes(cli, pool, work, ref, rng, args.seconds, MIN_PASSES)
        else:
            from tracing import Tracer, layer_metrics

            half = args.seconds / 2
            result["untraced"] = run_passes(
                cli, pool, work, ref, rng, half, MIN_PASSES_TRACE_UNTRACED
            )
            tracer = Tracer()
            extras = TraceExtras(tracer)
            tracer.install()
            try:
                result["traced"] = run_passes(
                    cli, pool, work, ref, rng, half, MIN_PASSES_TRACED, extras
                )
            finally:
                tracer.uninstall()
            if args.spans:
                tracer.write(Path(args.spans))
            rates = {
                phase: len(result[phase]["samples"]) / sum(result[phase]["pass_times"])
                for phase in ("untraced", "traced")
            }
            result["layers"] = layer_metrics(
                tracer,
                len(result["traced"]["pass_times"]),
                {
                    "coeff_bits_max": extras.coeff_bits_max,
                    "artifact_bytes": extras.artifact_bytes,
                    "untraced_jobs_per_s": rates["untraced"],
                    "traced_jobs_per_s": rates["traced"],
                },
            )
        result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
