from fractions import Fraction
from math import comb

import pytest

from conftest import random_form
from liekernel import (CEComplex, LieAlgebra, Subspace, basis_form,
                       basis_vector, betti, ce_differential, complex_of,
                       evaluate, invariant_cohomology_dims, is_23_trivial,
                       lie_derivative, multi_indices, parse_algebra)
from liekernel.errors import DimensionMismatch, JacobiError, SubspaceError
from liekernel.families import (FAMILY_NAMES, TABLE_EXCLUDED, TABLE_GRIDS,
                                FamilySpec, _make_family_unchecked, load_corpus,
                                su3)
from liekernel.linalg import rank


def unit(n, i):
    return tuple(Fraction(int(j == i)) for j in range(1, n + 1))


def test_heisenberg_betti():
    rep = betti(parse_algebra("(0,0,12)"))
    assert rep.betti == (1, 2, 2, 1)
    assert rep.z_dims == (1, 2, 3, 1)


def test_su2_betti():
    assert betti(parse_algebra("(-2.23,2.13,-2.12)")).betti == (1, 0, 0, 1)


def test_abelian_betti_binomials():
    for n in range(1, 7):
        rep = betti(LieAlgebra.abelian(n))
        assert rep.betti == tuple(comb(n, k) for k in range(n + 1))


def test_su3_plus_su3_betti_is_kunneth():
    """The top rung of the dimension ladder: n = 16, the supported limit."""
    b = betti(su3()).betti
    assert b == (1, 0, 0, 1, 0, 1, 0, 0, 1)
    square = tuple(sum(b[i] * b[k - i] for i in range(max(0, k - 8), min(k, 8) + 1))
                   for k in range(17))
    assert betti(su3().direct_sum(su3())).betti == square


def test_differential_ranks():
    # h3: d on one-forms has rank 1
    assert rank(ce_differential(parse_algebra("(0,0,12)"), 1)) == 1
    assert rank(ce_differential(LieAlgebra.abelian(4), 2)) == 0
    # r_{3,l}: de2, de3 independent for l != 0
    assert rank(ce_differential(parse_algebra("(0,21,1/2.31)"), 1)) == 2


def test_differential_matches_alternating_sum(rng):
    # oracle: (da)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i,X_j], rest)
    algebras = [parse_algebra("(0,0,12)"), parse_algebra("(-2.23,2.13,-2.12)"),
                parse_algebra("(0,21,1/2.31)"),
                parse_algebra("(0,1/2.21,1/2.31,41+32)")]
    for g in algebras:
        cx = CEComplex(g)
        n = g.n
        for k in range(1, n):
            f = random_form(rng, n, k)
            df = cx.d(f)
            for out_ix in multi_indices(n, k + 1):
                vecs = [unit(n, i) for i in out_ix]
                total = Fraction(0)
                for i in range(k + 1):
                    for j in range(i + 1, k + 1):
                        br = g.bracket(vecs[i], vecs[j])
                        rest = [vecs[m] for m in range(k + 1)
                                if m not in (i, j)]
                        total += (-1) ** (i + j) * evaluate(f, br, *rest)
                assert df[out_ix] == total


def test_d_squared_zero_iff_jacobi():
    good = parse_algebra("(0,21+31,31,2.41+32)")
    assert CEComplex(good).verify_d_squared()
    bad = LieAlgebra.from_brackets(
        3, {(1, 2): {3: 1}, (2, 3): {2: 1}}, validate=False)
    with pytest.raises(JacobiError):
        CEComplex(bad)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_verify_d_squared_catches_a_corrupt_cached_row(k):
    cx = CEComplex(su3())
    assert cx.verify_d_squared()
    row = next(r for r in cx.d_rows(k) if r)
    j = next(iter(row))
    row[j] = -row[j]
    assert not cx.verify_d_squared()


@pytest.mark.parametrize("method", ["d_rows", "d_rank", "cocycles"])
def test_negative_degree_is_a_dimension_mismatch(method):
    cx = CEComplex(parse_algebra("(0,0,12)"))
    with pytest.raises(DimensionMismatch):
        getattr(cx, method)(-1)
    assert cx.d_rank(3) == 0 and cx.betti_number(-1) == 0


def test_is_23_trivial_examples():
    assert is_23_trivial(parse_algebra("(0,21,1/2.31)"))
    assert not is_23_trivial(parse_algebra("(0,21,-1.31)"))
    assert not is_23_trivial(parse_algebra("(0,0,12)"))


def test_betti_euler_characteristic():
    for text in ["(0,0,12)", "(0,21+31,31)", "(0,12,2.13,-4.14,15)",
                 "(-2.23,2.13,-2.12)"]:
        rep = betti(parse_algebra(text))
        assert sum((-1) ** k * b for k, b in enumerate(rep.betti)) == 0
        assert rep.betti[0] == 1


def test_diagonal_family_betti_against_weight_oracle():
    # independent oracle for R A + R^n with diagonal ad_A: Betti numbers
    # count zero-weight subsets in consecutive degrees
    cases = [
        ("(0,21,1/2.31)", (Fraction(1), Fraction(1, 2))),
        ("(0,21,1/4.31,1/2.41)", (Fraction(1), Fraction(1, 4), Fraction(1, 2))),
        ("(0,21,-1.31)", (Fraction(1), Fraction(-1))),
        ("(0,12,2.13,-4.14,15)",
         (Fraction(-1), Fraction(-2), Fraction(4), Fraction(-1))),
    ]
    for text, weights in cases:
        g = parse_algebra(text)
        n = g.n
        rep = betti(g)
        from itertools import combinations

        def zero_subsets(k):
            if k < 0:
                return 0
            return sum(1 for c in combinations(weights, k) if sum(c) == 0)

        for k in range(n + 1):
            expected = zero_subsets(k) + zero_subsets(k - 1)
            assert rep.betti[k] == expected, (text, k)


def test_kunneth(rng):
    algebras = [parse_algebra("(0,0,12)"), parse_algebra("(0,21)"),
                LieAlgebra.abelian(2), parse_algebra("(0,21+31,31)"),
                parse_algebra("(-2.23,2.13,-2.12)")]
    for a in algebras:
        for b in algebras:
            s = a.direct_sum(b)
            ra, rb, rs = betti(a), betti(b), betti(s)

            def bk(r, k):
                return r.betti[k] if 0 <= k <= r.n else 0

            assert bk(rs, 2) == bk(ra, 2) + bk(rb, 2) + bk(ra, 1) * bk(rb, 1)
            assert bk(rs, 3) == (bk(ra, 3) + bk(rb, 3) + bk(ra, 2) * bk(rb, 1)
                                 + bk(ra, 1) * bk(rb, 2))


def test_direct_sum_b1_via_kunneth():
    r31 = parse_algebra("(0,21,31)")
    line = LieAlgebra.abelian(1)
    assert betti(r31.direct_sum(line)).betti[1] == 2


def test_hodge_duality_unimodular():
    for text in ["(0,0,12)", "(-2.23,2.13,-2.12)", "(0,12,2.13,-4.14,15)",
                 "(0,0,0,0)"]:
        g = parse_algebra(text)
        assert g.is_unimodular()
        # the plain per-degree ranks: `betti` cuts by duality here
        b = [complex_of(g).betti_number(k) for k in range(g.n + 1)]
        assert all(b[k] == b[g.n - k] for k in range(g.n + 1))
        assert b[g.n] == 1


def test_lie_derivative_commutes_with_d(rng):
    g = parse_algebra("(0,21+31,31,2.41+32)")
    cx = CEComplex(g)
    for _ in range(20):
        a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        f = random_form(rng, 4, rng.randint(1, 3))
        assert cx.d(lie_derivative(g, a, f)) == lie_derivative(g, a, cx.d(f))


def test_lie_derivative_is_cartan_formula(rng):
    # L_a = d i_a + i_a d on the CE complex when a is inside the algebra
    from liekernel import interior, vector_of

    g = parse_algebra("(0,21+31,31,2.41+32)")
    cx = CEComplex(g)
    for _ in range(20):
        a = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        f = random_form(rng, 4, rng.randint(1, 3))
        av = vector_of(4, a)
        cartan = cx.d(interior(av, f)) + interior(av, cx.d(f))
        assert lie_derivative(g, a, f) == cartan


@pytest.mark.parametrize("arg", [basis_vector(3, 3), basis_form(4, 1, 4),
                                 basis_form(2, 2), basis_vector(3, 2)])
def test_d_and_lie_derivative_take_only_forms_on_the_algebra(arg):
    g = parse_algebra("(0,0,12)")
    with pytest.raises(DimensionMismatch):
        complex_of(g).d(arg)
    with pytest.raises(DimensionMismatch):
        lie_derivative(g, (1, 0, 0), arg)


def test_lie_derivative_takes_int_fraction_and_float_coefficients():
    g = parse_algebra("(0,21,1/2.31)")
    f = basis_form(3, 2, 3)
    assert lie_derivative(g, (1, 0, 0), f) == f * Fraction(-3, 2)
    assert lie_derivative(g, (1, 0, 0), f * 2).coeffs == {0b110: -3}
    (value,) = lie_derivative(g, (1, 0, 0), f * 0.5).coeffs.values()
    assert type(value) is float and value == -0.75


def test_invariant_cohomology_r3_half():
    g = parse_algebra("(0,21,1/2.31)")
    ideal = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    assert invariant_cohomology_dims(g, ideal, (1, 0, 0)) == [1, 0, 0]


def test_invariant_cohomology_central_extension():
    g = parse_algebra("(0)").direct_sum(parse_algebra("(0,0,12)"))
    ideal = Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert invariant_cohomology_dims(g, ideal, (1, 0, 0, 0)) == [1, 2, 2, 1]


def test_invariant_cohomology_d4_scaled():
    g = parse_algebra("(0,21,31,2.41+32)")
    ideal = Subspace(4, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
    assert invariant_cohomology_dims(g, ideal, (1, 0, 0, 0)) == [1, 0, 0, 0]


def test_invariant_cohomology_preconditions():
    g = parse_algebra("(0,21,1/2.31)")
    not_ideal = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(SubspaceError):
        invariant_cohomology_dims(g, not_ideal, (0, 0, 1))
    ideal = Subspace(3, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(SubspaceError):
        invariant_cohomology_dims(g, ideal, (0, 1, 0))  # not a complement


def _codimension_one_cases():
    """(label, g) for every corpus and table-grid algebra whose derived
    algebra is a nonzero codimension-one ideal."""
    algebras = [(e.name, e.algebra) for e in load_corpus()]
    for name in FAMILY_NAMES:
        for params in TABLE_GRIDS[name] + TABLE_EXCLUDED.get(name, []):
            spec = FamilySpec.of(name, **params)
            algebras.append((spec.label(), _make_family_unchecked(spec)))
    return [(label, g) for label, g in algebras
            if 0 < g.derived_algebra().dim == g.n - 1]


def test_invariant_cohomology_hochschild_serre():
    # g = k + Ra with k an ideal: H^i(g) = H^i(k)^g + H^{i-1}(k)^g, so
    # b_i(g) = d_i + d_{i-1} for every complement a of k
    cases = _codimension_one_cases()
    assert len(cases) >= 50
    for label, g in cases:
        derived = g.derived_algebra()
        b = betti(g).betti
        for j in range(1, g.n + 1):
            a = unit(g.n, j)
            if derived.contains(a):
                continue
            d = invariant_cohomology_dims(g, derived, a) + [0]
            assert list(b) == [d[i] + (d[i - 1] if i else 0)
                               for i in range(g.n + 1)], (label, j)
