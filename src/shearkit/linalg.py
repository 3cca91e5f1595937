"""Exact linear algebra over `Scalar` entries.

Every entry is an exact Gaussian rational: no pivot thresholds, no
tolerances.  Vectors are either dense lists or sparse index->Scalar
dicts; `TrackedSpan` additionally remembers how each echelon row was
built from the inserted source vectors, which is what makes emitted
certificates replayable.
"""

from __future__ import annotations

from typing import Sequence

from .scalars import Scalar

__all__ = ["rref", "nullspace", "TrackedSpan"]


def rref(rows: Sequence[Sequence[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot column indices)."""
    work = [list(row) for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if not work[r][col].is_zero():
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        factor = work[rank][col]
        work[rank] = [v / factor if v else v for v in work[rank]]
        for r in range(len(work)):
            if r != rank and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [a - f * b if b else a for a, b in zip(work[r], work[rank])]
        pivots.append(col)
        rank += 1
    return work[:rank], pivots


def nullspace(rows: Sequence[Sequence[Scalar]], ncols: int) -> list[list[Scalar]]:
    """Deterministic kernel basis: one vector per free column, ascending."""
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    zero = Scalar.exact(0)
    one = Scalar.exact(1)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        for row, pivot_col in zip(reduced, pivots):
            if not row[free].is_zero():
                vec[pivot_col] = -row[free]
        basis.append(vec)
    return basis


class TrackedSpan:
    """Incremental echelon span over sparse exact vectors.

    The pivot of a row is its smallest nonzero index and pivots are
    pairwise distinct; rows are immutable once inserted, so the recorded
    provenance ``row = scale * source + sum(c_k * row_k)`` over earlier
    rows stays valid forever and any member of the span can be replayed
    from the original sources.
    """

    def __init__(self) -> None:
        self.vectors: list[dict[int, Scalar]] = []
        self.pivots: list[int] = []
        self.sources: list[object] = []
        self.scales: list[Scalar] = []
        self.corrections: list[list[tuple[Scalar, int]]] = []
        self._by_pivot: dict[int, int] = {}

    @property
    def dimension(self) -> int:
        return len(self.vectors)

    def _reduce(self, vector: dict[int, Scalar]) -> tuple[dict[int, Scalar], list[tuple[Scalar, int]]]:
        work = dict(vector)
        combo: list[tuple[Scalar, int]] = []
        while work:
            pivot = min(work)
            row_idx = self._by_pivot.get(pivot)
            if row_idx is None:
                break
            factor = work[pivot]
            row = self.vectors[row_idx]
            for idx, val in row.items():
                cur = work.get(idx)
                s = -(factor * val) if cur is None else cur - factor * val
                if s.is_zero():
                    work.pop(idx, None)
                else:
                    work[idx] = s
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
        pivot = min(remainder)
        lead = remainder[pivot]
        normalized = {idx: val / lead for idx, val in remainder.items()}
        inv = lead.one_like() / lead
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

    def expand_row(self, row_idx: int) -> dict[object, Scalar]:
        """Flatten a row's provenance to coefficients over the inserted sources."""
        memo: dict[int, dict[object, Scalar]] = {}

        def flatten(idx: int) -> dict[object, Scalar]:
            if idx in memo:
                return memo[idx]
            out: dict[object, Scalar] = {self.sources[idx]: self.scales[idx]}
            for coeff, other in self.corrections[idx]:
                for src, val in flatten(other).items():
                    cur = out.get(src)
                    s = coeff * val if cur is None else cur + coeff * val
                    if s.is_zero():
                        out.pop(src, None)
                    else:
                        out[src] = s
            memo[idx] = out
            return out

        return flatten(row_idx)

    def expand_combination(
        self, combination: Sequence[tuple[Scalar, int]]
    ) -> dict[object, Scalar]:
        """Flatten a row combination to coefficients over the inserted sources."""
        out: dict[object, Scalar] = {}
        for coeff, row_idx in combination:
            for src, val in self.expand_row(row_idx).items():
                cur = out.get(src)
                s = coeff * val if cur is None else cur + coeff * val
                if s.is_zero():
                    out.pop(src, None)
                else:
                    out[src] = s
        return out
