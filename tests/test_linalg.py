from fractions import Fraction

from shearkit.linalg import TrackedSpan, nullspace, rref
from shearkit.scalars import Scalar


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
    kernel = nullspace(rows, 3)
    assert len(kernel) == 1
    vec = kernel[0]
    for row in rows:
        total = Scalar.exact(0)
        for a, b in zip(row, vec):
            total = total + a * b
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
