import random
from fractions import Fraction

import pytest

from liekernel.errors import DimensionMismatch, LieKernelError
from liekernel.linalg import (Subspace, det, inverse, is_positive_definite,
                              nullspace, rank, rref)


def random_matrix(rng, rows, cols, span=6):
    return [tuple(Fraction(rng.randint(-span, span), rng.randint(1, 4))
                  for _ in range(cols)) for _ in range(rows)]


def test_rref_known():
    red, pivots = rref([(1, 2, 3), (2, 4, 6), (1, 0, 1)])
    assert pivots == [0, 1]
    assert red == [(1, 0, 1), (0, 1, 1)]


def test_rank_bareiss_agrees_with_rref():
    rng = random.Random(11)
    for _ in range(120):
        m = random_matrix(rng, rng.randint(1, 7), rng.randint(1, 7))
        assert rank(m) == len(rref(m)[0])


def test_nullspace_is_kernel():
    rng = random.Random(12)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = random_matrix(rng, rows, cols)
        basis = nullspace(m, cols)
        assert len(basis) == cols - rank(m)
        for v in basis:
            assert all(type(x) is int for x in v.values())
            assert all(sum(r[i] * v.get(i, 0) for i in range(cols)) == 0
                       for r in m)


def test_det_and_inverse():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n, n)
        d = det(m)
        if d == 0:
            with pytest.raises(LieKernelError):
                inverse(m)
            continue
        inv = inverse(m)
        prod = [[sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        assert prod == [[Fraction(int(i == j)) for j in range(n)]
                        for i in range(n)]
    for m in ([(1, 2)], [(1,), (2,)], [(1, 0), (0, 1, 0)]):
        with pytest.raises(DimensionMismatch):
            inverse(m)


def test_positive_definite():
    assert is_positive_definite([(2, 1), (1, 2)])
    assert not is_positive_definite([(1, 2), (2, 1)])
    assert not is_positive_definite([(0, 0), (0, 1)])


def test_subspace_reduce_idempotent_and_coset_stable():
    rng = random.Random(14)
    space = Subspace(4, [(1, 0, 2, 0), (0, 1, 1, 1)])
    for _ in range(30):
        v = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
        r = space.reduce(v)
        assert space.reduce(r) == r
        member = tuple(
            x + 3 * a + 2 * b for x, a, b in
            zip(v, space.basis[0], space.basis[1]))
        assert space.reduce(member) == r


def test_subspace_coordinates_and_equality():
    s1 = Subspace(3, [(1, 1, 0), (0, 0, 1)])
    s2 = Subspace(3, [(2, 2, 2), (0, 0, 5)])
    assert s1 == s2
    assert s1.contains((3, 3, 7))
    assert not s1.contains((1, 0, 0))
    assert s1.coordinates((3, 3, 7)) == (Fraction(3), Fraction(7))
    assert s1.coordinates((1, 0, 0)) is None


@pytest.mark.parametrize("column", [-1, 3, 5])
@pytest.mark.parametrize("build", [
    lambda rows: Subspace(3, rows),
    lambda rows: rref(rows, 3),
    lambda rows: nullspace(rows, 3),
    lambda rows: Subspace(3, [(1, 0, 0)]).reduce(rows[0]),
], ids=["Subspace", "rref", "nullspace", "reduce"])
def test_sparse_column_outside_the_matrix_is_rejected(build, column):
    with pytest.raises(DimensionMismatch):
        build([{column: 1}, {0: 1}])
