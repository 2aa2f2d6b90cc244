"""The per-algebra context: sparse structure constants and one cached complex.

Sparse `bracket`, `ad` and `ad_multivector` are compared against the dense
formulas in `dense_oracle` on permuted, rescaled direct sums of corpus
fixtures.  The cached complex is checked for identity, for not outliving
its algebra, and for being the only complex the corpus checks build.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from liekernel import cohomology, parse_algebra
from liekernel.cohomology import CEComplex, betti, complex_of
from liekernel.corpus import check_algebra
from liekernel.errors import JacobiError
from liekernel.exterior import KVector, multi_indices
from liekernel.families import load_corpus
from liekernel.kernelmap import LieKernel, ad_multivector, dP
from liekernel.liealg import LieAlgebra

from conftest import random_form

FIXTURES = {e.name: e.algebra for e in load_corpus() if e.algebra.n <= 4}
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = SMALL.filter(bool)


@st.composite
def algebras(draw):
    """A direct sum of one to three fixtures, n <= 9, in a permuted basis
    e'_i = s_i e_perm(i) with nonzero rational s_i."""
    names = draw(st.lists(st.sampled_from(sorted(FIXTURES)), min_size=1,
                          max_size=3)
                 .filter(lambda ns: sum(FIXTURES[t].n for t in ns) <= 9))
    g = FIXTURES[names[0]]
    for name in names[1:]:
        g = g.direct_sum(FIXTURES[name])
    n = g.n
    perm = draw(st.permutations(range(n)))
    s = [draw(NONZERO) for _ in range(n)]
    return LieAlgebra([[[g.c[perm[i]][perm[j]][perm[k]] * s[i] * s[j] / s[k]
                         for k in range(n)] for j in range(n)]
                       for i in range(n)])


def vectors(n):
    return st.lists(SMALL, min_size=n, max_size=n).map(tuple)


@settings(max_examples=25, deadline=None)
@given(algebras(), st.data())
def test_sparse_bracket_and_ad_match_dense_oracle(g, data):
    x, y, z = (data.draw(vectors(g.n)) for _ in range(3))
    assert g.bracket(x, y) == dense_oracle.bracket(g.c, x, y)
    assert g.ad(z) == dense_oracle.ad(g.c, z)
    for k in range(1, min(g.n, 3) + 1):
        p = KVector.from_terms(g.n, {
            ixs: data.draw(SMALL) for ixs in multi_indices(g.n, k)}, k)
        assert ad_multivector(g, z, p) == dense_oracle.ad_multivector(g.c, z, p)


def test_one_complex_per_algebra():
    g = parse_algebra("(0,21+31,31,2.41+32)")
    cx = complex_of(g)
    assert complex_of(g) is cx
    assert LieKernel(g).complex is cx
    assert CEComplex(g) is not cx  # an explicit complex is a fresh one
    assert betti(g) == betti(g, CEComplex(g))


def test_failed_jacobi_is_not_cached():
    g = parse_algebra("(0,0,12,34)", validate=False)
    for _ in range(2):
        with pytest.raises(JacobiError):
            complex_of(g)


def test_algebra_is_freed_without_the_cyclic_gc(rng):
    gc.collect()
    gc.disable()
    try:
        g = parse_algebra("(0,21+31,31,2.41+32)")
        betti(g)
        kernel = LieKernel(g)
        dP(g, random_form(rng, g.n, 2))
        ref = weakref.ref(g)
        del g, kernel
        assert ref() is None
    finally:
        gc.enable()


def test_check_algebra_builds_one_complex_per_algebra(monkeypatch):
    """g and g + R get one complex each; the codimension-one characterisation
    may add one for the derived ideal, of dimension n - 1."""
    built = []
    init = CEComplex.__init__

    def counting_init(self, algebra, *args, **kwargs):
        built.append(algebra.n)
        init(self, algebra, *args, **kwargs)

    monkeypatch.setattr(cohomology.CEComplex, "__init__", counting_init)
    for entry in load_corpus():
        n = entry.algebra.n
        built.clear()
        assert all(check_algebra(entry, triples=1).values())
        assert sorted(built) in ([n, n + 1], [n - 1, n, n + 1]), entry.name
