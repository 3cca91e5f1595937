"""Write ``reference.json``: the expected result of every pool entry.

Run from the root of a source checkout whose outputs are trusted:

    python3 perfbench/record.py

Each entry runs once through ``shearkit.cli.run`` and its exit code and
artifacts are recorded as ``jobs.check`` compares them.  Recording at a
later commit would move the reference along with any change in the
program's results, so re-record only when a change to the pool needs it
and say so where the change is described.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import jobs  # noqa: E402


def main() -> int:
    from shearkit import cli

    work = jobs.HERE / "out" / "record-work"
    reference: dict[str, dict] = {}
    try:
        jobs.write_inputs(work)
        for workload, pool in jobs.POOLS.items():
            reference[workload] = {}
            for entry in pool:
                paths = jobs.output_paths(entry, work)
                exit_code = cli.run(jobs.job_argv(entry, work))
                reference[workload][entry.name] = jobs.record_entry(entry, exit_code, paths)
                print(f"{workload}/{entry.name}: exit {exit_code}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    jobs.REFERENCE_PATH.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
