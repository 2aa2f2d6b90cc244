"""Differential tests of the sparse integer kernel in `linalg`.

Small random rational matrices (sparse and dense, tall and wide, with zero
rows, empty, and with large coefficients) go through every public routine
and are compared against the old dense elimination in `dense_oracle` or
against sympy.  Betti numbers of permuted, rescaled direct sums are checked
against Kunneth products.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

import dense_oracle
from liekernel import LieAlgebra, betti, parse_algebra
from liekernel.errors import LieKernelError
from liekernel.linalg import (Subspace, det, inverse, nullspace, rank, rref,
                              solve)

SMALL = st.fractions(min_value=-6, max_value=6, max_denominator=4)
LARGE = st.builds(Fraction, st.integers(-10**30, 10**30),
                  st.integers(1, 10**12))
EXAMPLES = settings(max_examples=60, deadline=None)


@st.composite
def matrices(draw, rows=None, cols=None):
    nrows = draw(st.integers(0, 6)) if rows is None else rows
    ncols = draw(st.integers(0, 6)) if cols is None else cols
    value = LARGE if draw(st.booleans()) else SMALL
    if draw(st.booleans()):  # sparse: three cells in four are zero
        value = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                          st.just(Fraction(0)), value)
    m = [tuple(draw(value) for _ in range(ncols)) for _ in range(nrows)]
    if m and draw(st.booleans()):
        m[draw(st.integers(0, len(m) - 1))] = (Fraction(0),) * ncols
    return m


@st.composite
def square_matrices(draw):
    n = draw(st.integers(0, 5))
    return draw(matrices(rows=n, cols=n))


def width(m):
    return len(m[0]) if m else 0


def sparse_rows(m):
    return [{j: x for j, x in enumerate(row) if x} for row in m]


def to_sympy(m, ncols):
    return sympy.Matrix(len(m), ncols, [sympy.Rational(x.numerator, x.denominator)
                                        for row in m for x in row])


def from_sympy(v):
    return tuple(Fraction(int(x.p), int(x.q)) for x in v)


@EXAMPLES
@given(matrices())
def test_rank_and_rref_match_dense_oracle(m):
    expected = dense_oracle.rref(m)
    assert rref(m) == expected
    assert rref(sparse_rows(m), width(m)) == expected
    assert rank(m) == dense_oracle.rank(m) == len(expected[1])
    assert rank(sparse_rows(m), width(m)) == len(expected[1])


@EXAMPLES
@given(matrices())
def test_nullspace_matches_sympy(m):
    ncols = width(m)
    expected = [from_sympy(v) for v in to_sympy(m, ncols).nullspace()]
    if ncols:
        assert nullspace(m, ncols) == expected
        assert nullspace(sparse_rows(m), ncols) == expected


@EXAMPLES
@given(matrices(), st.data())
def test_solve_matches_sympy(m, data):
    ncols = width(m)
    b = tuple(data.draw(SMALL) for _ in m)
    try:
        sol, params = to_sympy(m, ncols).gauss_jordan_solve(
            sympy.Matrix(len(m), 1, list(b)))
    except ValueError:  # sympy: the system is inconsistent
        assert solve(m, b) is None
        return
    expected = from_sympy(sol.subs({t: 0 for t in params}))
    assert solve(m, b) == expected


@EXAMPLES
@given(square_matrices())
def test_det_and_inverse_match_sympy(m):
    s = to_sympy(m, len(m))
    d = s.det()
    assert det(m) == Fraction(int(d.p), int(d.q))
    if d == 0:
        with pytest.raises(LieKernelError):
            inverse(m)
    else:
        assert inverse(m) == [from_sympy(s.inv().row(i)) for i in range(len(m))]


@EXAMPLES
@given(matrices(), st.data())
def test_subspace_equality_unchanged(m, data):
    ncols = width(m)
    space = Subspace(ncols, m)
    assert space.basis == dense_oracle.rref(m)[0]
    # the same span, given as shuffled sparse rows plus combinations of them
    mixed = sparse_rows(data.draw(st.permutations(m)))
    for row in m[:2]:
        f = data.draw(SMALL)
        mixed.append({j: f * x for j, x in enumerate(row) if x})
    other = Subspace(ncols, mixed)
    assert other == space and hash(other) == hash(space)


COMPONENTS = {
    "(0,0,12)": (1, 2, 2, 1),
    "(0,21)": (1, 1, 0),
    "(-2.23,2.13,-2.12)": (1, 0, 0, 1),
    "(0,0,12,13)": (1, 2, 2, 2, 1),
    "(0,21+31,31)": (1, 1, 0, 0),
    "(0,21,0,43)": (1, 2, 1, 0, 0),
    "(0,21,1/2.31)": (1, 1, 0, 0),
}
NONZERO = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


def kunneth(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@settings(max_examples=15, deadline=None)
@given(st.lists(st.sampled_from(sorted(COMPONENTS)), min_size=2, max_size=3)
       .filter(lambda names: sum(len(COMPONENTS[t]) - 1 for t in names) <= 9),
       st.data())
def test_betti_of_permuted_rescaled_sums_is_kunneth(names, data):
    g = parse_algebra(names[0])
    expected = COMPONENTS[names[0]]
    for name in names[1:]:
        g = g.direct_sum(parse_algebra(name))
        expected = kunneth(expected, COMPONENTS[name])
    n = g.n
    perm = data.draw(st.permutations(range(n)))
    s = [data.draw(NONZERO) for _ in range(n)]
    # basis e'_i = s_i e_perm(i)
    c = [[[g.c[perm[i]][perm[j]][perm[k]] * s[i] * s[j] / s[k]
           for k in range(n)] for j in range(n)] for i in range(n)]
    assert betti(LieAlgebra(c)).betti == expected
