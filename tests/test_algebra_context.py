"""The per-algebra context: sparse structure constants, one cached complex
and one cached Lie kernel.

Sparse `bracket`, `ad` and `ad_multivector`, the integer CE rows and their
ranks, `CEComplex.d` on those rows, and the Lie kernel, d_P and Betti
numbers read off the cached complex, are compared against the dense
constructions in `dense_oracle` on permuted, rescaled direct sums of corpus
fixtures, also under unimodular changes of basis; so are the direct sum,
subalgebra and graded extension built through `from_brackets`,
`is_unimodular` and the union-find split test; so are the derivation
algebra from the integer constants and characteristic nilpotency by the
chain of Der(g) acting on g.  `betti`, which ranks dense d_k mod p first
and the upper half of a unimodular complex on its Poincare duality cores,
is compared against the plain per-degree ranks, also with a bad prime, and
the corpus duality check is shown to read those plain ranks.  The cached
complex and kernel are checked for identity, for not outliving their
algebra, and the complex for being the only one the corpus checks build.
"""

import gc
import weakref
from fractions import Fraction
from math import comb, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import dense_oracle
from liekernel import cohomology, linalg, parse_algebra
from liekernel.cohomology import CEComplex, betti, ce_differential, complex_of
from liekernel.corpus import check_algebra
from liekernel.errors import JacobiError
from liekernel.exterior import KForm, KVector, lex, multi_indices
from liekernel.families import (GradedNilpotent, graded_extension,
                                has_basis_aligned_split, load_corpus,
                                seven_dim_characteristically_nilpotent, su3)
from liekernel.kernelmap import (LieKernel, ad_multivector, dP, dP_properties,
                                 lie_kernel, multimoment_value, pdual)
from liekernel.liealg import LieAlgebra, matrix_commutator
from liekernel.linalg import Subspace, inverse, mat_vec, rank, transpose

from conftest import random_form

FIXTURES = {e.name: e.algebra for e in load_corpus() if e.algebra.n <= 4}
SU2_CUBED = (FIXTURES["su2"].direct_sum(FIXTURES["su2"])
             .direct_sum(FIXTURES["su2"]))
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
NONZERO = SMALL.filter(bool)
# every value a Fraction with denominator 2 to 5
PROPER = st.builds(lambda a, b: a + Fraction(1, b), st.integers(-3, 3),
                   st.integers(2, 5))


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


def unit_lu(n, lower, upper):
    """P = L U for unit triangular L and U, with L[i][j] = lower(i, j)
    below the diagonal and U[i][j] = upper(i, j) above it."""
    lo = [[1 if i == j else lower(i, j) if j < i else 0 for j in range(n)]
          for i in range(n)]
    up = [[1 if i == j else upper(i, j) if j > i else 0 for j in range(n)]
          for i in range(n)]
    return [[sum(lo[i][m] * up[m][j] for m in range(n)) for j in range(n)]
            for i in range(n)]


@st.composite
def unimodular(draw, n):
    """P = L U with unit triangular L, U of entries in {-1, 0, 1}."""
    entry = st.sampled_from((-1, 0, 1))
    return unit_lu(n, lambda i, j: draw(entry), lambda i, j: draw(entry))


def change_basis(g, p):
    """g in the basis f_a = sum_i p[i][a] e_i."""
    f, q = transpose(p), inverse(p)
    return LieAlgebra([[mat_vec(q, g.bracket(u, v)) for v in f] for u in f])


def in_fixed_basis(g):
    """g under one fixed unimodular change of basis, which fills d_k in."""
    return change_basis(g, unit_lu(g.n, lambda i, j: (i + 2 * j) % 3 - 1,
                                   lambda i, j: (2 * i + j) % 3 - 1))


def rescaled(g, s):
    """g in the basis e'_i = s_i e_i."""
    n = g.n
    return LieAlgebra([[[g.c[i][j][k] * s[i] * s[j] / s[k] for k in range(n)]
                        for j in range(n)] for i in range(n)])


@st.composite
def changed_basis_algebras(draw):
    """`algebras()`, at n <= 7 maybe under a `unimodular` change of basis:
    it fills d_k in, and the dense oracle's rank of a filled-in n = 9
    matrix takes seconds."""
    g = draw(algebras())
    if g.n <= 7 and draw(st.booleans()):
        g = change_basis(g, draw(unimodular(g.n)))
    return g


def vectors(n):
    return st.lists(SMALL, min_size=n, max_size=n).map(tuple)


def same_space(space, oracle):
    """A `Subspace` equals a `dense_oracle.Subspace`: the same ambient
    space and the same reduced echelon basis."""
    return space.ambient == oracle.ambient and space.basis == oracle.basis


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


@settings(max_examples=25, deadline=None)
@given(algebras())
def test_kernel_dp_and_betti_match_dense_oracle(g):
    kernel = lie_kernel(g)
    assert same_space(kernel.space, dense_oracle.lie_kernel_space(g))
    triples = comb(g.n, 3)
    assert [tuple(r.get(t, 0) for t in range(triples))
            for r in kernel.dP_rows()] == dense_oracle.dP_rows(g)
    assert dP_properties(g) == dense_oracle.dP_properties(g)
    report, cx = betti(g), complex_of(g)
    assert [cx.betti_number(k) for k in range(-1, g.n + 2)] == \
        [0, *report.betti, 0]


@settings(max_examples=20, deadline=None)
@given(changed_basis_algebras())
def test_integer_rows_and_ranks_match_kform_oracle(g):
    cx = complex_of(g)
    for k in range(g.n + 1):
        rows = cx.d_rows(k)
        assert all(type(v) is int for r in rows for v in r.values())
        assert rows == [{j: cx.scale * q for j, q in r.items()}
                        for r in dense_oracle.d_rows(g, k)]
        assert cx.d_rank(k) == dense_oracle.rank(dense_oracle.d_dense(g, k))
    assert cx.verify_d_squared()


@settings(max_examples=20, deadline=None)
@given(changed_basis_algebras(), st.data())
def test_integer_d_and_ad_multivector_match_the_dense_oracle(g, data):
    cx = complex_of(g)
    ints = st.integers(-4, 4)
    for k in range(g.n + 1):
        for coeffs in (PROPER, ints):
            f = KForm.from_terms(g.n, {ixs: data.draw(coeffs)
                                       for ixs in multi_indices(g.n, k)}, k)
            assert cx.d(f) == dense_oracle.d(g, f)
    z = tuple(data.draw(PROPER) for _ in range(g.n))
    for k in range(1, min(g.n, 3) + 1):
        for coeffs in (PROPER, ints):
            p = KVector.from_terms(g.n, {
                ixs: data.draw(coeffs) for ixs in multi_indices(g.n, k)}, k)
            assert ad_multivector(g, z, p) == \
                dense_oracle.ad_multivector(g.c, z, p)


CORPUS = {e.name: e.algebra for e in load_corpus()}


@pytest.mark.parametrize("g", [*CORPUS.values(), su3()],
                         ids=[*CORPUS, "su3()"])
def test_derivation_algebra_matches_the_dense_oracle(g):
    assert same_space(g.derivation_algebra(),
                      dense_oracle.derivation_algebra(g))


@settings(max_examples=15, deadline=None)
@given(algebras())
def test_derivation_algebra_matches_the_dense_oracle_in_a_rescaled_basis(g):
    assert same_space(g.derivation_algebra(),
                      dense_oracle.derivation_algebra(g))


def _integer_multiple(m):
    scale = lcm(*(q.denominator for row in m for q in row))
    return scale, [tuple(int(q * scale) for q in row) for row in m]


@pytest.mark.parametrize("g", [
    *(g for g in CORPUS.values() if g.is_nilpotent()),
    *(seven_dim_characteristically_nilpotent(a)
      for a in (1, 2, -1, Fraction(1, 2), 3)),
    LieAlgebra.abelian(1).direct_sum(seven_dim_characteristically_nilpotent(1)),
    parse_algebra("(0)"), parse_algebra("(0,0,12)"),
], ids=[*(t for t, g in CORPUS.items() if g.is_nilpotent()),
        "cn7(1)", "cn7(2)", "cn7(-1)", "cn7(1/2)", "cn7(3)", "R+cn7(1)",
        "(0)", "(0,0,12)"])
def test_characteristic_nilpotency_matches_the_dense_oracle(g):
    assert g.is_characteristically_nilpotent() == \
        dense_oracle.is_characteristically_nilpotent(g)
    mats = dense_oracle.derivation_matrices(g)
    scaled = [_integer_multiple(m) for m in mats]
    for _, im in scaled:
        assert all(type(x) is int for row in im for x in row)
    for (a, (sa, ia)), (b, (sb, ib)) in zip(zip(mats, scaled),
                                            zip(mats[1:], scaled[1:])):
        comm = matrix_commutator(ia, ib)
        assert all(type(x) is int for row in comm for x in row)
        assert comm == [tuple(sa * sb * x for x in row)
                        for row in dense_oracle.matrix_commutator(a, b)]
        assert matrix_commutator(a, b) == dense_oracle.matrix_commutator(a, b)


SUMMANDS = {e.name: e for e in load_corpus() if e.algebra.n <= 5}


@st.composite
def permuted_sums(draw):
    """(names, perm, p): one to three corpus summands, n <= 10, a permutation
    of the basis of their direct sum, and at n <= 7 maybe a unimodular
    change of basis p to apply after it."""
    names = draw(st.lists(st.sampled_from(sorted(SUMMANDS)), min_size=1,
                          max_size=3)
                 .filter(lambda ns: sum(SUMMANDS[t].algebra.n for t in ns) <= 10))
    n = sum(SUMMANDS[t].algebra.n for t in names)
    perm = draw(st.permutations(range(n)))
    return names, perm, draw(st.none() | unimodular(n)) if n <= 7 else None


def permuted(g, perm):
    """g in the basis e'_i = e_perm(i)."""
    n = g.n
    return LieAlgebra([[[g.c[perm[i]][perm[j]][perm[k]] for k in range(n)]
                        for j in range(n)] for i in range(n)])


@settings(max_examples=30, deadline=None)
@given(permuted_sums())
@example((["h3", "R1"], [3, 0, 2, 1], None))  # no bracket touches e'_1
def test_constructors_and_readers_match_the_dense_oracle(case):
    names, perm, basis = case
    parts = [SUMMANDS[t] for t in names]
    g = ref = parts[0].algebra
    for part in parts[1:]:
        g = g.direct_sum(part.algebra)
        ref = dense_oracle.direct_sum(ref, part.algebra)
        assert g.c == ref.c
    p = permuted(g, perm)
    assert p.is_unimodular() == all(
        sum(p.c[i][j][j] for j in range(p.n)) == 0 for i in range(p.n))
    split = has_basis_aligned_split(p)
    assert split == dense_oracle.has_basis_aligned_split(p.c)
    assert split or len(parts) == 1
    derived = p.derived_algebra()
    assert p.subalgebra(derived).c == dense_oracle.subalgebra(p, derived).c
    if all(part.grading for part in parts):
        w = [x for part in parts for x in part.grading]
        w = tuple(w[perm[i]] for i in range(p.n))
        assert graded_extension(GradedNilpotent(p, w)).c == \
            dense_oracle.graded_extension(p, w).c
    if basis is not None:
        q = change_basis(p, basis)
        assert has_basis_aligned_split(q) == \
            dense_oracle.has_basis_aligned_split(q.c)


@pytest.mark.parametrize("text", ["(0,21+31,31,2.41+32)", "(-2.23,2.13,-2.12)",
                                  "(0,0,12,13,23,14+25)", "(0,21,1/2.31,0)"])
def test_rows_at_lower_pivots_lie_in_the_span_of_the_rest(text):
    g = parse_algebra(text)
    cx = complex_of(g)
    for k in range(1, g.n):
        pivots = set()
        lower = rank(cx.d_rows(k - 1), comb(g.n, k), pivots=pivots)
        assert sorted(pivots) == dense_oracle.rref(
            dense_oracle.d_dense(g, k - 1))[1]
        assert len(pivots) == lower == cx.d_rank(k - 1)
        rows, width = cx.d_rows(k), comb(g.n, k + 1)
        kept = Subspace(width, [r for i, r in enumerate(rows) if i not in pivots])
        for i in pivots:
            assert kept.contains(tuple(rows[i].get(j, 0) for j in range(width)))
        assert kept.dim == cx.d_rank(k)


@pytest.mark.parametrize("text", ["(0,0,12,0,0)", "(0,21,-31,41,-51)",
                                  "(-2.23,2.13,-2.12,0,0)", "(0,0,12,0,0,45)",
                                  "(0,0,12,13,23,14+25+23,16+25+35+24)"])
def test_columns_paired_with_lower_pivots_lie_in_the_span_of_the_rest(text):
    # unimodular: d_k is d_{n-1-k} transposed, up to the signed complement
    # of the indices, so its columns paired with the pivots of d_{n-2-k}
    # are as dependent as the rows of d_{n-1-k} at those pivots
    g = parse_algebra(text)
    n, full = g.n, (1 << g.n) - 1
    assert g.is_unimodular()
    cx = complex_of(g)
    for k in range(n - 1):
        pivots = set()
        rank(cx.d_rows(n - 2 - k), comb(n, n - 1 - k), pivots=pivots)
        bits, pos = lex(n, n - 1 - k)[1], lex(n, k + 1)[2]
        paired = {pos[full ^ bits[p]] for p in pivots}
        rows, height = cx.d_rows(k), comb(n, k)
        cols = [tuple(rows[i].get(j, 0) for i in range(height))
                for j in range(comb(n, k + 1))]
        kept = Subspace(height,
                        [c for j, c in enumerate(cols) if j not in paired])
        for j in paired:
            assert kept.contains(cols[j])
        assert kept.dim == cx.d_rank(k)
    fresh = CEComplex(g)
    assert fresh.dual_ranks() == [cx.d_rank(k) for k in range(n + 1)]
    # the cores above the lower half cache nothing
    assert all(2 * k <= n - 2 for k in fresh._rank)


def test_duality_cores_need_unimodularity():
    g = parse_algebra("(0,21,0,43,0)")  # aff1 + aff1 + R: tr ad e_1 = 1
    assert not g.is_unimodular()
    cx = complex_of(g)
    ranks = [cx.d_rank(k) for k in range(g.n + 1)]
    assert ranks == [0, 2, 5, 4, 1, 0]
    # cutting the columns of d_2 paired with the pivots of d_1 loses rank
    n, full, lower = g.n, (1 << g.n) - 1, cx._pivots[1]
    bits, pos = lex(n, 2)[1], lex(n, 3)[2]
    cut = {pos[full ^ bits[p]] for p in lower}
    core = [{j: v for j, v in r.items() if j not in cut}
            for i, r in enumerate(cx.d_rows(2)) if i not in lower]
    assert rank(core, comb(n, 3)) == 3
    # d_{n-1} is not zero, so `dual_ranks` cuts no columns
    assert any(cx.d_rows(n - 1))
    assert CEComplex(g).dual_ranks() == ranks
    assert betti(g).betti == (1, 3, 3, 1, 0, 0)


@settings(max_examples=15, deadline=None)
@given(changed_basis_algebras())
@example(FIXTURES["su2"])  # n = 3: d_1 and d_2 on their cores
@example(FIXTURES["h3"].direct_sum(FIXTURES["R2"]))  # n = 5: a cut core
@example(FIXTURES["su2"].direct_sum(FIXTURES["su2"])
         .direct_sum(FIXTURES["h3"]))  # n = 9
@example(FIXTURES["aff1"].direct_sum(FIXTURES["su2"]))  # not unimodular
# dense d_k, ranked mod p first: su(3) and su(2)^3 settle every degree,
# su(3) + R leaves d_3 and d_4 to exact cores, the nilpotent cn7 settles
# nothing, and r4 + su(2) is not unimodular
@example(in_fixed_basis(su3()))
@example(in_fixed_basis(SU2_CUBED))
@example(in_fixed_basis(su3().direct_sum(FIXTURES["R1"])))
@example(in_fixed_basis(seven_dim_characteristically_nilpotent(1)))
@example(in_fixed_basis(FIXTURES["r4"].direct_sum(FIXTURES["su2"])))
@example(LieAlgebra.abelian(0))
@example(FIXTURES["R1"])
@example(FIXTURES["R2"])
@example(FIXTURES["aff1"])
def test_betti_matches_the_plain_per_degree_ranks(g):
    report, cx, n = betti(g), complex_of(g), g.n
    ranks = [cx.d_rank(k) for k in range(n + 1)]
    assert report.z_dims == tuple(comb(n, k) - ranks[k] for k in range(n + 1))
    assert report.b_dims == tuple(k and ranks[k - 1] for k in range(n + 1))
    assert report.betti == tuple(cx.betti_number(k) for k in range(n + 1))


@pytest.mark.parametrize("prime, falls_back", [(2, ("su3", "su2^3")),
                                               (3, ("su3",))],
                         ids=["2", "3"])
def test_no_betti_number_depends_on_a_good_prime(monkeypatch, prime,
                                                 falls_back):
    monkeypatch.setattr(linalg, "PRIME", prime)
    exact = []
    rank = cohomology.rank
    monkeypatch.setattr(cohomology, "rank", lambda *a, **k:
                        exact.append(rank(*a, **k)) or exact[-1])
    for name, g in (("su3", in_fixed_basis(su3())),
                    ("su2^3", in_fixed_basis(SU2_CUBED))):
        exact.clear()
        report = betti(g)
        # d_0 and d_{n-1} are zero; a nonzero exact rank that `betti` takes
        # is a degree that the ranks mod p left open
        assert any(exact) or name not in falls_back
        cx = complex_of(g)
        assert report.betti == tuple(cx.betti_number(k) for k in range(g.n + 1))


def test_changed_basis_su3_plus_su2_betti_is_the_kunneth_product():
    g = in_fixed_basis(su3().direct_sum(FIXTURES["su2"]))
    assert betti(g).betti == (1, 0, 0, 2, 0, 1, 1, 0, 2, 0, 0, 1)


@pytest.mark.parametrize("g", [
    parse_algebra("(0,21,1/2.31)"),
    rescaled(su3().direct_sum(LieAlgebra.abelian(1)),
             [Fraction(1, 2), 3, 1, Fraction(2, 3), 1, 2, 1, Fraction(1, 3), 1]),
], ids=["r3_half", "su3+R_rescaled"])
def test_scaled_readers_return_the_exact_matrix(g, rng):
    cx = complex_of(g)
    assert cx.scale > 1
    for k in range(g.n + 1):
        assert ce_differential(g, k) == dense_oracle.d_rows(g, k)
    triples = comb(g.n, 3)
    assert [tuple(r.get(t, 0) for t in range(triples))
            for r in lie_kernel(g).dP_rows()] == dense_oracle.dP_rows(g)
    assert cx.betti_number(2) == 0
    for _ in range(3):
        beta = pdual(g, random_form(rng, g.n, 2))
        psi = dP(g, beta)
        value = multimoment_value(g, psi)
        assert value == beta and dP(g, value) == psi


def test_one_complex_per_algebra():
    g = parse_algebra("(0,21+31,31,2.41+32)")
    cx = complex_of(g)
    assert complex_of(g) is cx
    assert LieKernel(g).complex is cx
    assert lie_kernel(g) is lie_kernel(g)
    assert lie_kernel(g).complex is complex_of(g)
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
        lie_kernel(g)
        dP_properties(g)
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


def test_corpus_duality_check_reads_the_plain_ranks():
    entry = next(e for e in load_corpus() if e.name == "su3")
    g = entry.algebra
    cx, m = complex_of(g), (g.n - 1) // 2
    cx.d_rank(g.n - 1)
    cx._rank[m + 2] += 1  # one upper-half rank wrong
    # `betti` ranks the upper half afresh and cannot see it; the corpus must
    assert betti(g).betti == (1, 0, 0, 1, 0, 1, 0, 0, 1)
    assert check_algebra(entry, triples=1)["hodge_duality"] is False
