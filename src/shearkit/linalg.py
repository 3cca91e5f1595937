"""Exact linear algebra over `Scalar` entries.

Every entry is an exact Gaussian rational: no pivot thresholds, no
tolerances.  `TrackedSpan` is the one elimination engine: an
incremental echelon span over sparse index->Scalar dicts that also
remembers how each row was built from the inserted source vectors,
which is what makes emitted certificates replayable.  `nullspace`
reads the kernel off the dependent sparse columns; it numbers their
row labels itself, so a caller passes zero-free term dicts as they are.
`rref`, a dense view of the reduced row echelon form, has no caller
in the package; it stays for callers outside it.  Both results are
canonical, so they do not depend on the engine.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

from .scalars import ONE, ZERO, Scalar

__all__ = ["rref", "nullspace", "TrackedSpan"]


def _sub_scaled(target: dict, coeff: Scalar, row: dict, skip: int | None = None) -> None:
    """target -= coeff * row outside index `skip`, dropping entries that cancel."""
    for key, val in row.items():
        if key == skip:
            continue
        cur = target.get(key)
        s = -(coeff * val) if cur is None else cur - coeff * val
        if s.is_zero():
            target.pop(key, None)
        else:
            target[key] = s


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    span = TrackedSpan()
    for row in rows:
        span.insert({j: v for j, v in enumerate(row) if v})
    ncols = len(rows[0]) if rows else 0
    reduced = span.reduced_rows()
    pivots = sorted(reduced)
    return [[reduced[p].get(j, ZERO) for j in range(ncols)] for p in pivots], pivots


def nullspace(columns: Sequence[Mapping[Hashable, Scalar]]) -> list[dict[int, Scalar]]:
    """Deterministic kernel basis of the matrix with these sparse columns.

    A column maps hashable row labels, such as exponents, to its nonzero
    entries; `nullspace` numbers the labels itself.  One vector (column
    index -> entry) per free column, ascending: column j is free iff it
    depends on the columns before it, and its basis vector is e_j minus
    that dependency, whatever the row order.
    """
    rows: dict[Hashable, int] = {}
    span = TrackedSpan()
    basis = []
    for j, column in enumerate(columns):
        remainder, combo = span.reduce(
            {rows.setdefault(label, len(rows)): value for label, value in column.items()}
        )
        if remainder:
            span._append(remainder, combo, j)
            continue
        vec = {j: ONE}
        for src, coeff in span.expand_combination(combo).items():
            vec[src] = -coeff
        basis.append(vec)
    return basis


class TrackedSpan:
    """Incremental echelon span over sparse exact vectors.

    The pivot of a row is its smallest nonzero index and pivots are
    pairwise distinct; rows are immutable once inserted, so the recorded
    provenance ``row = scale * source + sum(c_k * row_k)`` over earlier
    rows stays valid forever, any member of the span can be replayed
    from the original sources, and each row's flattened provenance is
    computed once.
    """

    def __init__(self) -> None:
        self.vectors: list[dict[int, Scalar]] = []
        self.pivots: list[int] = []
        self.sources: list[object] = []
        self.scales: list[Scalar] = []
        self.corrections: list[list[tuple[Scalar, int]]] = []
        self._by_pivot: dict[int, int] = {}
        self._expanded: dict[int, dict[object, Scalar]] = {}

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def _reduce(self, vector: dict[int, Scalar]) -> tuple[dict[int, Scalar], list[tuple[Scalar, int]]]:
        """`reduce`, smallest pivot first: the remainder's smallest index is no pivot."""
        by_pivot, rows = self._by_pivot, self.vectors
        work = dict(vector)
        combo: list[tuple[Scalar, int]] = []
        while work:
            pivot = min(work)
            row_idx = by_pivot.get(pivot)
            if row_idx is None:
                break
            # the row is 1 at its pivot, so that entry cancels exactly
            factor = work.pop(pivot)
            _sub_scaled(work, factor, rows[row_idx], pivot)
            combo.append((factor, row_idx))
        return work, combo

    def reduce(self, vector: dict[int, Scalar]) -> tuple[dict[int, Scalar], list[tuple[Scalar, int]]]:
        """Remainder after reduction and the row combination removed.

        An empty remainder means the vector lies in the span and equals
        ``sum(c_k * row_k)`` over the returned combination.
        """
        return self._reduce(vector)

    def contains(self, vector: dict[int, Scalar]) -> bool:
        remainder, _ = self.reduce(vector)
        return not remainder

    def insert(self, vector: dict[int, Scalar], source: object = None) -> int | None:
        """Insert a vector; returns the new row index, or None if dependent."""
        remainder, combo = self._reduce(vector)
        if not remainder:
            return None
        return self._append(remainder, combo, source)

    def _append(
        self, remainder: dict[int, Scalar], combo: list[tuple[Scalar, int]], source: object
    ) -> int:
        """Store a nonzero reduction remainder as a new normalized row."""
        pivot = min(remainder)
        lead = remainder[pivot]
        normalized = {idx: val / lead for idx, val in remainder.items()}
        inv = ONE / lead
        # row = inv * vector - sum(factor * inv * row_k) over the reduction combo
        corrections = [(-(factor * inv), idx) for factor, idx in combo]
        row_idx = len(self.vectors)
        self.vectors.append(normalized)
        self.pivots.append(pivot)
        self.sources.append(source)
        self.scales.append(inv)
        self.corrections.append(corrections)
        self._by_pivot[pivot] = row_idx
        return row_idx

    def reduced_rows(self) -> dict[int, dict[int, Scalar]]:
        """Pivot -> row of the reduced row echelon form of the span."""
        out: dict[int, dict[int, Scalar]] = {}
        for pivot in sorted(self._by_pivot, reverse=True):
            row = dict(self.vectors[self._by_pivot[pivot]])
            # every row already in `out` is zero at every other pivot
            for other in [k for k in row if k != pivot and k in out]:
                _sub_scaled(row, row[other], out[other])
            out[pivot] = row
        return out

    def _flatten(self, row_idx: int) -> dict[object, Scalar]:
        out = self._expanded.get(row_idx)
        if out is None:
            out = {self.sources[row_idx]: self.scales[row_idx]}
            for coeff, other in self.corrections[row_idx]:
                _sub_scaled(out, -coeff, self._flatten(other))
            self._expanded[row_idx] = out
        return out

    def expand_row(self, row_idx: int) -> dict[object, Scalar]:
        """Flatten a row's provenance to coefficients over the inserted sources."""
        return dict(self._flatten(row_idx))

    def expand_combination(
        self, combination: Sequence[tuple[Scalar, int]]
    ) -> dict[object, Scalar]:
        """Flatten a row combination to coefficients over the inserted sources."""
        out: dict[object, Scalar] = {}
        for coeff, row_idx in combination:
            _sub_scaled(out, -coeff, self._flatten(row_idx))
        return out
