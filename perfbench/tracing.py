"""In-memory span tracer that wraps shearkit's layer functions from outside.

`Tracer.install()` replaces functions and methods at the names their
callers look up (module attributes and class attributes) with timing
wrappers; `uninstall()` puts the originals back.  Nothing under ``src/``
changes.

Two kinds of span are kept:

* recorded spans -- one record per call: name, start, end, parent
  record, job id, plus the time covered by counted children;
* counted spans -- hot leaf-level calls (scalar arithmetic, polynomial
  products, ...), of which there are millions per pass.  They are
  summed per name in memory: calls, total time and self time, and each
  call's duration is charged to its parent so that parent self times
  stay exact.

A span's self time is its duration minus the time its child spans
cover.  For recorded spans it is computed from the records after the
run; for counted spans it is summed as the calls return.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path

# (module, class or None, attribute, span name, recorded)
_TARGETS = [
    ("scalars", "Scalar", "__add__", "scalars.arith", False),
    ("scalars", "Scalar", "__radd__", "scalars.arith", False),
    ("scalars", "Scalar", "__sub__", "scalars.arith", False),
    ("scalars", "Scalar", "__rsub__", "scalars.arith", False),
    ("scalars", "Scalar", "__mul__", "scalars.arith", False),
    ("scalars", "Scalar", "__rmul__", "scalars.arith", False),
    ("scalars", "Scalar", "__truediv__", "scalars.arith", False),
    ("scalars", "Scalar", "__rtruediv__", "scalars.arith", False),
    ("scalars", "Scalar", "__neg__", "scalars.arith", False),
    ("scalars", "Scalar", "__pow__", "scalars.arith", False),
    ("scalars", "Scalar", "to_complex", "scalars.to_complex", False),
    ("poly", "Poly", "__mul__", "poly.mul", False),
    ("poly", "Poly", "eval_complex", "poly.eval_complex", False),
    ("fields", "VectorField", "apply", "fields.apply", False),
    ("fields", "VectorField", "eval_complex", "fields.eval_complex", False),
    ("fields", "VectorField", "bracket", "fields.bracket", True),
    ("fields", None, "kernel_basis", "fields.kernel_basis", True),
    ("density", None, "kernel_basis", "fields.kernel_basis", True),
    ("linalg", None, "rref", "linalg.rref", True),
    ("density", None, "rref", "linalg.rref", True),
    ("linalg", None, "nullspace", "linalg.nullspace", True),
    ("fields", None, "nullspace", "linalg.nullspace", True),
    ("density", None, "nullspace", "linalg.nullspace", True),
    ("linalg", "TrackedSpan", "insert", "linalg.insert", True),
    # the private reduction loop is shared by insert, reduce and contains
    ("linalg", "TrackedSpan", "_reduce", "linalg.reduce", False),
    ("density", None, "lie_closure", "density.lie_closure", True),
    ("subvariety", None, "lie_closure", "density.lie_closure", True),
    ("density", None, "check_compatibility", "density.check_compatibility", True),
    ("density", None, "replay_closure", "density.replay_closure", True),
    ("subvariety", None, "eliminate_direction", "subvariety.eliminate_direction", True),
    ("subvariety", None, "codim2_module_certificate", "subvariety.codim2", True),
    ("dynamics", "AutoSeq", "apply", "dynamics.autoseq_apply", True),
    ("dynamics", "AutoSeq", "apply_array", "dynamics.apply_array", True),
    ("dynamics", None, "trotter_compose", "dynamics.trotter_compose", True),
    ("dynamics", None, "integrate_flow", "dynamics.integrate_flow", True),
    ("dynamics", None, "basin_sample", "dynamics.basin_sample", True),
    ("serialize", None, "canonical_dumps", "serialize.dumps", True),
    ("cli", None, "run", "cli", True),
]


class Tracer:
    """Spans and counters of one traced phase."""

    def __init__(self) -> None:
        self.records: list[list] = []  # [name, start, end, parent, job, counted_child_s]
        self.counted: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: Counter = Counter()
        self.open: Counter = Counter()  # span names currently on the stack
        self.job = ""
        self._stack: list[list] = []  # [child_s, counted_child_s, record index]
        self._saved: list[tuple[object, str, object]] = []

    # -- hooks that count work at the layer boundary ------------------------

    def _hook(self, name, args, kwargs, result):
        c = self.counters
        if name == "linalg.insert":
            source = kwargs.get("source", args[2] if len(args) > 2 else None)
            if result is not None:
                c["linalg.rows_inserted"] += 1
                c["linalg.row_nnz_total"] += len(args[0].vectors[result])
                c["linalg.span_dim_max"] = max(c["linalg.span_dim_max"], result + 1)
                if isinstance(source, tuple) and source and source[0] == "bracket":
                    c["density.brackets_inserted"] += 1
        elif name == "fields.bracket":
            if self.open["density.lie_closure"]:
                c["density.brackets_tried"] += 1
        elif name == "fields.eval_complex":
            if self.open["dynamics.integrate_flow"]:
                c["dynamics.oracle_rhs_evals"] += 1
        elif name == "dynamics.autoseq_apply":
            c["dynamics.factor_applications"] += len(args[0].elements)
        elif name == "dynamics.apply_array":
            if self.open["dynamics.basin_sample"]:
                c["dynamics.basin_point_iters"] += args[1].shape[1]
        elif name == "linalg.rref":
            rows = args[0]
            c["linalg.rref_cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif name == "fields.kernel_basis":
            c["fields.kernel_dim_total"] += len(result)
        elif name == "density.lie_closure":
            c["density.discarded_brackets"] += result.discarded_brackets

    _HOOKED = frozenset({
        "linalg.insert", "fields.bracket", "fields.eval_complex",
        "dynamics.autoseq_apply", "dynamics.apply_array", "linalg.rref",
        "fields.kernel_basis", "density.lie_closure",
    })

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name: str, recorded: bool):
        stack = self._stack
        records = self.records
        opened = self.open
        clock = time.perf_counter
        hook = self._hook if name in self._HOOKED else None
        if not recorded:
            slot = self.counted.setdefault(name, [0, 0.0, 0.0])

            def counted(*args, **kwargs):
                frame = [0.0, 0.0, -1]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = clock() - start
                    stack.pop()
                    slot[0] += 1
                    slot[1] += dur
                    slot[2] += dur - frame[0]
                    if stack:
                        parent = stack[-1]
                        parent[0] += dur
                        parent[1] += dur
                if hook is not None:
                    hook(name, args, kwargs, result)
                return result

            return counted

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent[2] if parent else -1, self.job, 0.0]
            frame = [0.0, 0.0, len(records)]
            records.append(record)
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                opened[name] -= 1
                record[1] = start
                record[2] = end
                record[5] = frame[1]
                if parent is not None:
                    parent[0] += end - start
            if hook is not None:
                hook(name, args, kwargs, result)
            return result

        return spanned

    def install(self) -> None:
        import importlib

        wrapped: dict[int, object] = {}
        for module_name, class_name, attr, name, recorded in _TARGETS:
            module = importlib.import_module(f"shearkit.{module_name}")
            owner = getattr(module, class_name) if class_name else module
            original = owner.__dict__[attr] if class_name else getattr(module, attr)
            key = id(original)
            if key not in wrapped:
                wrapped[key] = self._wrap(original, name, recorded)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[key])

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def span_totals(self) -> dict[str, list]:
        """name -> [calls, total_s, self_s] over recorded and counted spans."""
        child_s = [0.0] * len(self.records)
        for name, start, end, parent, _job, _counted in self.records:
            if parent >= 0:
                child_s[parent] += end - start
        totals = {name: list(v) for name, v in self.counted.items()}
        for i, (name, start, end, _parent, _job, counted_s) in enumerate(self.records):
            slot = totals.setdefault(name, [0, 0.0, 0.0])
            dur = end - start
            slot[0] += 1
            slot[1] += dur
            slot[2] += dur - child_s[i] - counted_s
        return totals

    def write(self, path: Path) -> None:
        """Write every record, then the counted spans and counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, counted_s in self.records:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "job": job, "counted_child_s": counted_s,
                }) + "\n")
            for name, (calls, total, self_s) in sorted(self.counted.items()):
                handle.write(json.dumps({
                    "counted": name, "calls": calls, "total_s": total, "self_s": self_s,
                }) + "\n")
            handle.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def _frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, passes: int, extra: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per pass over the pool, as name -> (value, unit).

    `extra` carries what the worker measures outside the tracer:
    coefficient bits, artifact bytes and the two phases' pass rates.
    """
    totals = tracer.span_totals()
    c = tracer.counters

    def calls(name):
        return totals.get(name, [0, 0.0, 0.0])[0] / passes

    def total(name):
        return totals.get(name, [0, 0.0, 0.0])[1] / passes

    def self_s(name):
        return totals.get(name, [0, 0.0, 0.0])[2] / passes

    kernel_calls = totals.get("fields.kernel_basis", [0])[0]
    insert_calls = totals.get("linalg.insert", [0])[0]
    untraced, traced = extra["untraced_jobs_per_s"], extra["traced_jobs_per_s"]
    m = {
        "scalars.arith_calls": (calls("scalars.arith"), "count"),
        "scalars.arith_self_s": (self_s("scalars.arith"), "s"),
        "scalars.to_complex_calls": (calls("scalars.to_complex"), "count"),
        "scalars.coeff_bits_max": (extra["coeff_bits_max"], "bit"),
        "poly.mul_calls": (calls("poly.mul"), "count"),
        "poly.mul_self_s": (self_s("poly.mul"), "s"),
        "poly.eval_complex_calls": (calls("poly.eval_complex"), "count"),
        "poly.eval_complex_self_s": (self_s("poly.eval_complex"), "s"),
        "fields.bracket_calls": (calls("fields.bracket"), "count"),
        "fields.bracket_self_s": (self_s("fields.bracket"), "s"),
        "fields.apply_calls": (calls("fields.apply"), "count"),
        "fields.apply_self_s": (self_s("fields.apply"), "s"),
        "fields.kernel_basis_calls": (calls("fields.kernel_basis"), "count"),
        "fields.kernel_basis_s": (total("fields.kernel_basis"), "s"),
        "fields.kernel_dim": (_frac(c["fields.kernel_dim_total"], kernel_calls), "count"),
        "linalg.rref_calls": (calls("linalg.rref"), "count"),
        "linalg.rref_s": (total("linalg.rref"), "s"),
        "linalg.rref_cells": (c["linalg.rref_cells"] / passes, "count"),
        "linalg.insert_calls": (calls("linalg.insert"), "count"),
        "linalg.insert_self_s": (self_s("linalg.insert"), "s"),
        "linalg.rows_inserted": (c["linalg.rows_inserted"] / passes, "count"),
        "linalg.insert_useful_frac": (_frac(c["linalg.rows_inserted"], insert_calls), "ratio"),
        "linalg.reduce_calls": (calls("linalg.reduce"), "count"),
        "linalg.reduce_self_s": (self_s("linalg.reduce"), "s"),
        "linalg.span_dim": (c["linalg.span_dim_max"], "count"),
        "linalg.row_nnz_mean": (_frac(c["linalg.row_nnz_total"], c["linalg.rows_inserted"]), "count"),
        "density.lie_closure_s": (total("density.lie_closure"), "s"),
        "density.brackets_tried": (c["density.brackets_tried"] / passes, "count"),
        "density.bracket_useful_frac": (
            _frac(c["density.brackets_inserted"], c["density.brackets_tried"]), "ratio"),
        "density.discarded_brackets": (c["density.discarded_brackets"] / passes, "count"),
        "density.replay_closure_calls": (calls("density.replay_closure"), "count"),
        "density.replay_closure_s": (total("density.replay_closure"), "s"),
        "density.check_compatibility_s": (total("density.check_compatibility"), "s"),
        "subvariety.eliminate_direction_s": (total("subvariety.eliminate_direction"), "s"),
        "subvariety.codim2_s": (total("subvariety.codim2"), "s"),
        "dynamics.autoseq_apply_calls": (calls("dynamics.autoseq_apply"), "count"),
        "dynamics.autoseq_apply_self_s": (self_s("dynamics.autoseq_apply"), "s"),
        "dynamics.factor_applications": (c["dynamics.factor_applications"] / passes, "count"),
        "dynamics.trotter_compose_s": (total("dynamics.trotter_compose"), "s"),
        "dynamics.integrate_flow_calls": (calls("dynamics.integrate_flow"), "count"),
        "dynamics.integrate_flow_s": (total("dynamics.integrate_flow"), "s"),
        "dynamics.oracle_rhs_evals": (c["dynamics.oracle_rhs_evals"] / passes, "count"),
        "dynamics.apply_array_calls": (calls("dynamics.apply_array"), "count"),
        "dynamics.apply_array_s": (total("dynamics.apply_array"), "s"),
        "dynamics.basin_point_iters": (c["dynamics.basin_point_iters"] / passes, "count"),
        "dynamics.basin_sample_s": (total("dynamics.basin_sample"), "s"),
        "serialize.dumps_s": (total("serialize.dumps"), "s"),
        "serialize.artifact_bytes": (extra["artifact_bytes"] / passes, "B"),
        "cli.self_s": (self_s("cli"), "s"),
        "trace.untraced_jobs_per_s": (untraced, "1/s"),
        "trace.traced_jobs_per_s": (traced, "1/s"),
        "trace.overhead_frac": (_frac(untraced - traced, untraced), "ratio"),
        "trace.passes": (passes, "count"),
        "trace.spans_recorded": (len(tracer.records) / passes, "count"),
    }
    return m
