from fractions import Fraction
from math import comb

import pytest

import dense_oracle
from conftest import random_form
from liekernel import (CEComplex, KVector, LieAlgebra, Subspace, basis_form,
                       betti, dP, dP_properties, kernel_of_psi,
                       lie_kernel, multimoment_value, orbit_2plectic_check,
                       pairing, parse_algebra, pdual, stabilizer, vector_of,
                       wedge)
from liekernel.errors import DimensionMismatch, MomentMapError
from liekernel.families import SU3_BASIS_NAMES, load_corpus, su2, su3, u2
from liekernel.exterior import multi_indices
from liekernel.kernelmap import ad_multivector

SU3_INDEX = {name: k + 1 for k, name in enumerate(SU3_BASIS_NAMES)}


def su3_form(*names):
    return basis_form(8, *(SU3_INDEX[n] for n in names))


def su3_unit(name):
    return tuple(Fraction(int(j + 1 == SU3_INDEX[name])) for j in range(8))


def test_lie_kernel_abelian():
    for n in range(2, 6):
        assert lie_kernel(LieAlgebra.abelian(n)).dim == n * (n - 1) // 2


def test_lie_kernel_dimension_formula():
    for text in ["(0,0,12)", "(0,21+31,31)", "(0,21,1/2.31)",
                 "(0,12,2.13,-4.14,15)", "(-2.23,2.13,-2.12)",
                 "(0,21+31,31,2.41+32)"]:
        g = parse_algebra(text)
        assert lie_kernel(g).dim == betti(g).betti[1] + g.n * (g.n - 3) // 2


def test_lie_kernel_u2_is_t_wedge_su2():
    kernel = lie_kernel(u2())
    assert kernel.dim == 3
    # lex pairs on n=4: (1,2),(1,3),(1,4),(2,3),(2,4),(3,4); T = e1
    expected = Subspace(6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                            (0, 0, 1, 0, 0, 0)])
    assert kernel.space == expected


def test_lie_kernel_members_annihilated_by_bracket():
    for g in [su3(), u2(), parse_algebra("(0,21+31,31,2.41+32)")]:
        for p in lie_kernel(g).basis():
            total = [Fraction(0)] * g.n
            for (i, j), q in [(ixs, c) for ixs, c in p.terms()]:
                br = g.c[i - 1][j - 1]
                total = [t + q * b for t, b in zip(total, br)]
            assert all(x == 0 for x in total)


def test_four_dim_23_trivial_kernel_dim():
    for text in ["(0,21+31,31+41,41)", "(0,1/2.21,1/2.31,41+32)",
                 "(0,21+31,31,2.41+32)"]:
        assert lie_kernel(parse_algebra(text)).dim == 3


def test_dp_su3_beta1():
    g = su3()
    beta1 = su3_form("B12", "B13") - su3_form("C12", "C13")
    expected = 3 * (wedge(su3_form("A1"), su3_form("B12", "C13"))
                    - wedge(su3_form("A1"), su3_form("B13", "C12")))
    assert dP(g, beta1) == expected


def test_dp_kills_exact_forms(rng):
    g = parse_algebra("(0,21+31,31,2.41+32)")
    cx = CEComplex(g)
    for _ in range(10):
        gamma = random_form(rng, 4, 1)
        assert dP(g, cx.d(gamma)).is_zero()


def test_dp_u2_value():
    g = u2()
    beta = basis_form(4, 1, 2)  # dt ^ e1
    assert dP(g, beta) == -wedge(basis_form(4, 1), basis_form(4, 3, 4))


def test_dp_image_closed_and_representative_free(rng):
    for g in [su3(), u2(), parse_algebra("(0,21,1/2.31)")]:
        kernel = lie_kernel(g)
        cx = kernel.complex
        for _ in range(8):
            alpha = random_form(rng, g.n, 2)
            image = dP(g, alpha)
            assert cx.d(image).is_zero()
            shifted = alpha + cx.d(random_form(rng, g.n, 1))
            assert dP(g, shifted) == image
            assert pdual(g, alpha) == pdual(g, shifted)


def test_pdual_canonicalization_idempotent(rng):
    g = su3()
    kernel = lie_kernel(g)
    for _ in range(10):
        alpha = random_form(rng, 8, 2)
        rep = kernel.canonical_rep(alpha)
        assert kernel.canonical_rep(rep) == rep


def test_dp_properties():
    assert dP_properties(su3()) == dP_properties(su3())
    props = dP_properties(su3())
    assert props.injective and not props.surjective_onto_Z3
    props = dP_properties(parse_algebra("(0,21,1/2.31)"))
    assert props.injective and props.surjective_onto_Z3
    props = dP_properties(LieAlgebra.abelian(3))
    assert not props.injective


def test_adjoint_identity(rng):
    # <dP a, Z ^ p> = -<a, ad_Z p> for a in P*, Z in g, p in P
    for text in ["(0,0,12)", "(0,21+31,31)", "(0,12,2.13,-4.14,15)",
                 "(-2.23,2.13,-2.12)"]:
        g = parse_algebra(text)
        kernel = lie_kernel(g)
        basis = kernel.basis()
        if not basis:
            continue
        for _ in range(40):
            alpha = random_form(rng, g.n, 2)
            z = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.n))
            p = KVector.zero(g.n, 2)
            for b in basis:
                p = p + b * Fraction(rng.randint(-2, 2))
            lhs = pairing(dP(g, alpha), wedge(vector_of(g.n, z), p))
            rhs = -pairing(alpha, ad_multivector(g, z, p))
            assert lhs == rhs


def test_multimoment_su3_inverts_dp():
    g = su3()
    beta1 = su3_form("B12", "B13") - su3_form("C12", "C13")
    psi = dP(g, beta1)
    val = multimoment_value(g, psi)
    assert val == pdual(g, beta1)
    assert dP(g, val) == psi


def test_multimoment_zero():
    g = su3()
    from liekernel import KForm

    val = multimoment_value(g, KForm.zero(8, 3))
    assert val.is_zero()


def test_multimoment_r3_half():
    g = parse_algebra("(0,21,1/2.31)")
    psi = basis_form(3, 1, 2, 3)
    val = multimoment_value(g, psi)
    assert dP(g, val) == psi


def test_multimoment_round_trip_on_pstar(rng):
    for text in ["(0,21,1/2.31)", "(0,21+31,31,2.41+32)"]:
        g = parse_algebra(text)
        for _ in range(10):
            beta = pdual(g, random_form(rng, g.n, 2))
            assert multimoment_value(g, dP(g, beta)) == beta


def test_multimoment_errors():
    with pytest.raises(MomentMapError):
        multimoment_value(LieAlgebra.abelian(3), basis_form(3, 1, 2, 3))
    g = su3()
    # b3(su3) = 1: a closed three-form outside the image must be rejected
    cx = CEComplex(g)
    z3 = cx.cocycles(3)
    kernel = lie_kernel(g)
    from liekernel import KForm, multi_indices
    from liekernel.exterior import lex

    image_rows = [dP(g, KForm(8, 2, {lex(8, 2)[1][c]: Fraction(1)})).vector()
                  for c in kernel.slice]
    image = Subspace(len(list(multi_indices(8, 3))), image_rows)
    outside = next(KForm.from_vector(8, 3, row) for row in z3.basis
                   if not image.contains(row))
    assert cx.d(outside).is_zero()
    with pytest.raises(MomentMapError):
        multimoment_value(g, outside)


def test_multimoment_nonclosed_rejected():
    g = parse_algebra("(0,21+31,31,2.41+32)")
    psi = basis_form(4, 2, 3, 4)  # d(psi) != 0 here
    cx = CEComplex(g)
    if cx.d(psi).is_zero():
        pytest.skip("chosen form unexpectedly closed")
    with pytest.raises(MomentMapError):
        multimoment_value(g, psi)


def test_stabilizer_su3_beta1():
    g = su3()
    beta1 = su3_form("B12", "B13") - su3_form("C12", "C13")
    stab = stabilizer(g, beta1)
    ker = kernel_of_psi(g, dP(g, beta1))
    expected = Subspace(8, [su3_unit("A2"), su3_unit("B23"), su3_unit("C23")])
    assert stab == ker == expected


def test_stabilizer_of_zero_is_everything():
    g = su3()
    from liekernel import KForm

    stab = stabilizer(g, KForm.zero(8, 2))
    assert stab.dim == 8


def test_orbit_checks_su3():
    g = su3()
    beta1 = su3_form("B12", "B13") - su3_form("C12", "C13")
    check = orbit_2plectic_check(g, beta1)
    assert check.condition_holds and check.orbit_dim == 5
    beta2 = (su3_form("C12", "B12") + su3_form("B13", "C13")
             + su3_form("C23", "B23"))
    check2 = orbit_2plectic_check(g, beta2)
    assert check2.condition_holds and check2.orbit_dim == 6
    assert check2.stabilizer_dim == 2


def test_orbit_check_u2_fails():
    g = u2()
    check = orbit_2plectic_check(g, basis_form(4, 1, 2))
    assert not check.condition_holds
    assert check.stabilizer_dim == 2 and check.kernel_dim == 1
    assert check.orbit_dim == 2


def test_su2_betti_via_fixture():
    assert betti(su2()).betti == (1, 0, 0, 1)


def test_kernel_dim_grows_by_dim_h_under_central_line():
    for text in ["(0,0,12)", "(0,21+31,31)", "(-2.23,2.13,-2.12)",
                 "(0,21+31,31,2.41+32)"]:
        h = parse_algebra(text)
        extended = LieAlgebra.abelian(1).direct_sum(h)
        assert lie_kernel(extended).dim == lie_kernel(h).dim + h.n


@pytest.mark.parametrize("call", [
    lambda g, h: ad_multivector(g, (1, 0, 0), KVector.from_terms(4, {(1, 4): 1})),
    lambda g, h: ad_multivector(g, (1, 0, 0), basis_form(3, 1, 2)),
    lambda g, h: ad_multivector(g, (1, 0), KVector.from_terms(3, {(1, 3): 1})),
    lambda g, h: dP(g, pdual(h, basis_form(3, 1, 3))),
    lambda g, h: stabilizer(g, pdual(h, basis_form(3, 1, 3))),
], ids=["ad_p_on_wider_space", "ad_p_a_form", "ad_z_too_short",
        "dP_of_other_algebra", "stabilizer_of_other_algebra"])
def test_inputs_from_other_spaces_raise_dimension_mismatch(call):
    g, h = parse_algebra("(0,0,12)"), parse_algebra("(0,21,1/2.31)")
    with pytest.raises(DimensionMismatch):
        call(g, h)


@pytest.mark.parametrize("call", [
    lambda g: ad_multivector(g, (1, 0, 0), KVector.from_terms(4, {(1, 4): 1})),
    lambda g: ad_multivector(g, (1, 0, 0), basis_form(3, 1, 2)),
    lambda g: ad_multivector(g, (1, 0), KVector.from_terms(3, {(1, 3): 1})),
    lambda g: ad_multivector(g, (1, 0, 0, 0), KVector.from_terms(3, {(1, 3): 1})),
], ids=["ad_p_on_wider_space", "ad_p_a_form", "ad_z_too_short",
        "ad_z_too_long"])
def test_wrong_spaces_raise_once_the_ad_rows_are_cached(call):
    # every row of ad on Lambda^1 and Lambda^2 is cached, so no call builds
    # a row and the wrong space must be caught before the cache is read
    g = parse_algebra("(0,0,12)")
    for k in (1, 2):
        for ixs in multi_indices(3, k):
            ad_multivector(g, (1, 1, 1), KVector.from_terms(3, {ixs: 1}))
    assert all(len(rows) == 6 for rows in g._ad_rows)
    with pytest.raises(DimensionMismatch):
        call(g)


def test_ad_rows_are_built_only_for_the_terms_asked_for():
    # ext(n(6)), n = 16: one degree-8 term needs one row per unit of z,
    # not the 16 * C(16, 8) rows of every unit on Lambda^8
    from itertools import combinations

    import dense_oracle
    from liekernel.families import GradedNilpotent, graded_extension
    from liekernel.liealg import matrix_lie_algebra

    pairs = list(combinations(range(6), 2))
    n6 = matrix_lie_algebra([[[int((r, s) == p) for s in range(6)]
                              for r in range(6)] for p in pairs])
    g = graded_extension(GradedNilpotent(n6, tuple(b - a for a, b in pairs)))
    z = tuple(Fraction(i % 3 - 1, 2) for i in range(16))
    p = KVector.from_terms(16, {(1, 2, 3, 5, 8, 11, 14, 16): 3})
    image = ad_multivector(g, z, p)
    assert image == dense_oracle.ad_multivector(g.c, z, p)
    assert not image.is_zero()
    built = sum(len(rows) for rows in g._ad_rows)
    assert built == sum(1 for q in z if q) <= g.n
    assert ad_multivector(g, z, p) == image
    assert sum(len(rows) for rows in g._ad_rows) == built


def test_dp_properties_agree_with_b2_and_b3_of_the_dense_oracle():
    # d_P is injective iff b_2 = 0, and onto Z^3 iff b_3 = 0
    for entry in load_corpus():
        g, n = entry.algebra, entry.algebra.n
        r = [dense_oracle.rank(dense_oracle.d_dense(g, k)) for k in range(4)]
        props = dP_properties(g)
        assert props.injective == (comb(n, 2) - r[2] - r[1] == 0), entry.name
        assert props.surjective_onto_Z3 == (comb(n, 3) - r[3] - r[2] == 0), \
            entry.name
