"""Differential tests of the sparse integer kernel in `linalg`.

Small random rational matrices (sparse and dense, tall and wide, with zero
rows, empty, and with large coefficients) go through every public routine
and are compared against the old dense elimination in `dense_oracle` or
against sympy.  The packed rank mod p is checked on integer rows against
sympy's rank over GF(p) and the exact rank.  Betti numbers of permuted,
rescaled direct sums are checked against Kunneth products.
"""

from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import dense_oracle
from liekernel import LieAlgebra, betti, linalg, parse_algebra
from liekernel.errors import LieKernelError
from liekernel.g2flow import Poly
from liekernel.linalg import (Subspace, combine, det, inverse, nullspace, rank,
                              rank_mod_p, rref)

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


RINGS = {"int": st.integers(-10**20, 10**20), "Fraction": SMALL,
         "Poly": st.lists(SMALL, max_size=3).map(Poly)}


@st.composite
def row_combinations(draw):
    """(c, row) pairs over one ring, rows sparse dicts on a few keys."""
    value = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    row = st.dictionaries(st.integers(0, 5), value, max_size=4)
    return draw(st.lists(st.tuples(value, row), max_size=5))


@st.composite
def integer_rows(draw, p):
    """Integer dict rows on columns 0..7: small entries, multiples of p,
    entries far beyond p and explicit zeros; some rows empty or all zero,
    and some the sum of two others."""
    value = st.one_of(st.integers(-4, 4), st.integers(-5, 5).map(p.__mul__),
                      st.integers(-10**40, 10**40),
                      st.integers(-3, 3).map(lambda a: a * p + 1))
    rows = draw(st.lists(st.dictionaries(st.integers(0, 7), value,
                                         max_size=8), max_size=8))
    for _ in range(draw(st.integers(0, 2))):
        if rows:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            rows.append({j: a.get(j, 0) + b.get(j, 0) for j in {*a, *b}})
    if draw(st.booleans()):
        rows.append({j: 0 for j in draw(st.sets(st.integers(0, 7)))})
    return rows


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
    # int rows take the fast path of `_sparse`, and the pivots come back
    d = lcm(*(x.denominator for row in m for x in row))
    ints = [{j: int(x * d) for j, x in row.items()} for row in sparse_rows(m)]
    pivots = set()
    assert rank(ints, width(m), pivots=pivots) == len(expected[1])
    assert sorted(pivots) == expected[1]


@EXAMPLES
@given(matrices())
def test_nullspace_matches_sympy(m):
    ncols = width(m)
    expected = [from_sympy(v) for v in to_sympy(m, ncols).nullspace()]
    if ncols:
        pivots = dense_oracle.rref(m)[1]
        free = [f for f in range(ncols) if f not in pivots]
        for basis in (nullspace(m, ncols), nullspace(sparse_rows(m), ncols)):
            assert all(type(x) is int for v in basis for x in v.values())
            assert [tuple(Fraction(v.get(j, 0), v[f]) for j in range(ncols))
                    for v, f in zip(basis, free, strict=True)] == expected


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
@given(st.sampled_from((2, 3, linalg.PRIME)), st.data())
def test_packed_rank_is_the_rank_mod_p_with_independent_pivots(p, data):
    rows = data.draw(integer_rows(p))
    saved, linalg.PRIME = linalg.PRIME, p
    try:
        rho, pivots = rank_mod_p(rows)
    finally:
        linalg.PRIME = saved
    field = sympy.GF(p)
    assert rho == DomainMatrix([[field(r.get(j, 0)) for j in range(8)]
                                for r in rows], (len(rows), 8), field).rank()
    assert rho <= rank(rows, 8)
    # the pivot columns are independent over Q: the rows have exact rank
    # rho on them
    assert pivots == sorted(set(pivots)) and len(pivots) == rho
    assert rank([{j: r[j] for j in pivots if j in r} for r in rows], 8) == rho


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


@EXAMPLES
@given(matrices(), st.booleans(), st.data())
def test_subspace_matches_the_dense_oracle(m, as_dicts, data):
    ncols = width(m)
    old = dense_oracle.Subspace(ncols, m)
    new = Subspace(ncols, sparse_rows(m) if as_dicts else m)
    assert new.pivots == old.pivots and new.dim == old.dim
    assert new.basis == old.basis
    value = LARGE if data.draw(st.booleans()) else SMALL
    v = tuple(data.draw(value) for _ in range(ncols))
    coeffs = [data.draw(SMALL) for _ in old.basis]
    member = tuple(sum((f * row[j] for f, row in zip(coeffs, old.basis)),
                       Fraction(0)) for j in range(ncols))
    for probe in (v, member, tuple(map(sum, zip(v, member)))):
        reduced = {j: x for j, x in enumerate(old.reduce(probe)) if x}
        for given_as in (probe, {j: x for j, x in enumerate(probe) if x}):
            assert new.contains(given_as) == old.contains(probe)
            assert new.reduce(given_as) == reduced
            assert new.coordinates(given_as) == old.coordinates(probe)
    # the same span from shuffled rows plus a combination, and another span
    same = list(data.draw(st.permutations(m)))
    if m:
        same.append(tuple(map(sum, zip(*m[:2]))))
    for rows in (same, data.draw(matrices(cols=ncols))):
        other = Subspace(ncols, rows)
        assert (other == new) == (dense_oracle.Subspace(ncols, rows) == old)
        if other == new:
            assert hash(other) == hash(new)


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


@EXAMPLES
@given(row_combinations())
def test_combine_is_the_sum_of_the_scaled_rows(terms):
    keys = {k for _, row in terms for k in row}
    expected = {k: sum((c * row[k] for c, row in terms if k in row), 0)
                for k in keys}
    assert combine(terms) == expected
    assert combine(iter(terms)) == expected  # any iterable, read once


def test_combine_of_nothing_is_empty_and_a_cancelled_key_stays():
    assert combine([]) == {}
    assert combine([(2, {})]) == {}
    for one in (1, Fraction(1), Poly.const(1)):
        total = combine([(one, {0: 2 * one, 1: one}), (-2 * one, {0: one})])
        assert list(total) == [0, 1]
        assert not total[0] and total[1] == one
