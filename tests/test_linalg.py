import random
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from shearkit.linalg import TrackedSpan, nullspace, rref
from shearkit.scalars import Scalar

from conftest import model_nullspace, model_rref


def S(x):
    return Scalar.exact(Fraction(x))


def test_rref_small_system():
    rows = [[S(1), S(2), S(3)], [S(2), S(4), S(7)], [S(0), S(1), S(1)]]
    reduced, pivots = rref(rows)
    assert pivots == [0, 1, 2]
    assert len(reduced) == 3


def test_rref_detects_dependency():
    rows = [[S(1), S(2)], [S(2), S(4)]]
    reduced, pivots = rref(rows)
    assert pivots == [0]
    assert len(reduced) == 1
    assert reduced[0] == [S(1), S(2)]


def test_nullspace_vectors_annihilate_matrix():
    rows = [[S(1), S(1), S(0)], [S(0), S(1), S(1)]]
    kernel = nullspace(_columns(rows, 3))
    assert len(kernel) == 1
    vec = kernel[0]
    for row in rows:
        total = Scalar.exact(0)
        for j, b in vec.items():
            total = total + row[j] * b
        assert total.is_zero()


class TestTrackedSpan:
    def test_dimension_and_membership(self):
        span = TrackedSpan()
        assert span.insert({0: S(1), 1: S(2)}, "a") == 0
        assert span.insert({1: S(1)}, "b") == 1
        assert span.insert({0: S(3), 1: S(4)}, "c") is None
        assert span.dimension == 2
        remainder, combo = span.reduce({0: S(2), 1: S(10)})
        assert not remainder
        reconstructed = {}
        for coeff, idx in combo:
            for key, value in span.vectors[idx].items():
                cur = reconstructed.get(key, Scalar.exact(0)) + coeff * value
                if cur.is_zero():
                    reconstructed.pop(key, None)
                else:
                    reconstructed[key] = cur
        assert reconstructed == {0: S(2), 1: S(10)}

    def test_expansion_replays_to_sources(self):
        span = TrackedSpan()
        sources = {
            "u": {0: S(2), 1: S(1)},
            "v": {0: S(1), 1: S(1), 2: S(1)},
            "w": {1: S(1), 2: S(3)},
        }
        for tag, vec in sources.items():
            span.insert(dict(vec), tag)
        for row_idx in range(span.dimension):
            flat = span.expand_row(row_idx)
            rebuilt: dict[int, Scalar] = {}
            for tag, coeff in flat.items():
                for key, value in sources[tag].items():
                    cur = rebuilt.get(key, Scalar.exact(0)) + coeff * value
                    if cur.is_zero():
                        rebuilt.pop(key, None)
                    else:
                        rebuilt[key] = cur
            assert rebuilt == span.vectors[row_idx]


# ---------------------------------------------------------------------------
# The span-backed rref and nullspace against the dense model in conftest
# ---------------------------------------------------------------------------


def _sparse(row):
    return {j: v for j, v in enumerate(row) if v}


def _columns(rows, ncols):
    """The sparse columns of a dense matrix, as `nullspace` takes them."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(ncols)]


gaussian = st.builds(
    lambda a, b, d: Scalar.exact(Fraction(a, d), Fraction(b, d)),
    st.integers(-3, 3),
    st.integers(-3, 3),
    st.integers(1, 4),
)
entries = st.one_of(st.just(Scalar.exact(0)), gaussian)


@st.composite
def matrices(draw):
    """(ncols, rows): small, with zero entries and dependent rows common."""
    nrows = draw(st.integers(0, 5))
    ncols = draw(st.integers(0, 5))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    if rows and draw(st.booleans()):
        i = draw(st.integers(0, nrows - 1))
        j = draw(st.integers(0, nrows - 1))
        c = draw(gaussian)
        rows.insert(draw(st.integers(0, nrows)), [c * a + b for a, b in zip(rows[i], rows[j])])
    return ncols, rows


IMAG = Scalar.exact(0, 1)


@settings(max_examples=300, deadline=None)
@given(matrices())
@example((0, []))
@example((3, []))
@example((0, [[], []]))
@example((3, [[S(0), S(0), S(0)], [S(0), S(0), S(0)]]))
@example((3, [[S(0), S(1), S(2)], [S(0), IMAG, S(0)]]))
@example((2, [[S(1), IMAG], [IMAG, S(-1)]]))
@example((3, [[S(1), S(0), S(0)], [S(0), S(1), S(0)], [S(0), S(0), IMAG]]))
def test_span_views_match_the_dense_model(matrix):
    ncols, rows = matrix
    expected_rows, expected_pivots = model_rref(rows)
    assert rref(rows) == (expected_rows, expected_pivots)
    kernel = nullspace(_columns(rows, ncols))
    assert kernel == [_sparse(vec) for vec in model_nullspace(rows, ncols)]
    # rows numbered on first sight: tuple labels met in a shuffled order give the same kernel
    order = list(range(len(rows)))
    random.Random(6 * len(rows) + ncols).shuffle(order)
    relabeled = [{("row", i): rows[i][j] for i in order if rows[i][j]} for j in range(ncols)]
    assert nullspace(relabeled) == kernel

    span = TrackedSpan()
    for row in rows:
        span.insert(_sparse(row))
    assert span.reduced_rows() == {
        p: _sparse(row) for row, p in zip(expected_rows, expected_pivots)
    }

    assert len(kernel) == ncols - len(expected_pivots)
    for vec in kernel:
        for row in rows:
            assert sum((row[j] * b for j, b in vec.items()), Scalar.exact(0)).is_zero()


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_memoized_expansion_replays_after_later_inserts(matrix):
    _ncols, rows = matrix
    span = TrackedSpan()
    for tag, row in enumerate(rows):
        span.insert(_sparse(row), tag)
        # expand every row now, so later rows are built on memoized ones
        for row_idx in range(span.dimension):
            span.expand_row(row_idx)[object()] = S(1)  # callers get a copy
    for row_idx in range(span.dimension):
        rebuilt: dict[int, Scalar] = {}
        for tag, coeff in span.expand_row(row_idx).items():
            for key, value in _sparse(rows[tag]).items():
                cur = rebuilt.get(key, Scalar.exact(0)) + coeff * value
                if cur.is_zero():
                    rebuilt.pop(key, None)
                else:
                    rebuilt[key] = cur
        assert rebuilt == span.vectors[row_idx]
