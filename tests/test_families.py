from fractions import Fraction

import pytest
import sympy

from liekernel import (GradedNilpotent, LieAlgebra, betti, graded_extension,
                       is_23_trivial, make_family, parse_algebra,
                       verify_tables)
from liekernel.errors import AdmissibilityError, LieKernelError
from liekernel.families import (FAMILY_NAMES, FamilySpec, TABLE_EXCLUDED,
                                TABLE_GRIDS, corpus_algebra,
                                has_basis_aligned_split, load_corpus,
                                make_unimodular_5dim,
                                seven_dim_characteristically_nilpotent,
                                trivial23_consequences,
                                unimodular_quartic_log_sum)
from liekernel.parser import serialize, expr_of


def test_family_texts_match_tables():
    assert serialize(expr_of(make_family("r3"))) is not None
    cases = [
        ("r3l", {"l": Fraction(1)}, "(0,21,31)"),
        ("d4l", {"l": Fraction(1, 2)}, "(0,1/2.21,1/2.31,41+32)"),
        ("h4", {}, "(0,21+31,31,2.41+32)"),
        ("r4ml", {"m": Fraction(1, 4), "l": Fraction(1, 2)},
         "(0,21,1/4.31,1/2.41)"),
        ("r4pml", {"m": Fraction(2), "l": Fraction(-1, 4)},
         "(0,2.21,-1/4.31+41,-31-1/4.41)"),
    ]
    for name, params, text in cases:
        g = make_family(name, **params)
        assert g.c == parse_algebra(text).c


def test_admissibility_errors():
    with pytest.raises(AdmissibilityError):
        make_family("r4l", l=Fraction(-1))
    with pytest.raises(AdmissibilityError):
        make_family("r3l", l=Fraction(0))
    with pytest.raises(AdmissibilityError):
        make_family("r3l", l=Fraction(3, 2))  # outside (-1, 1]
    with pytest.raises(AdmissibilityError):
        make_family("d4l", l=Fraction(1))
    with pytest.raises(AdmissibilityError):
        make_family("r4ml", m=Fraction(1, 2), l=Fraction(-1, 2))  # sum 0
    with pytest.raises(AdmissibilityError):
        make_family("r4ml", m=Fraction(1, 2), l=Fraction(1, 4))  # l < m
    with pytest.raises(AdmissibilityError):
        make_family("nonsense")


def test_family_members_are_23_trivial():
    for name in FAMILY_NAMES:
        for params in TABLE_GRIDS[name]:
            g = make_family(FamilySpec.of(name, **params))
            assert is_23_trivial(g), (name, params)
            cons = trivial23_consequences(g)
            assert all(cons.values()), (name, params, cons)


def test_excluded_values_fail():
    for name, cases in TABLE_EXCLUDED.items():
        for params in cases:
            spec = FamilySpec.of(name, **params)
            assert not spec.admissible
            from liekernel.families import _make_family_unchecked

            g = _make_family_unchecked(spec)
            cons = trivial23_consequences(g)
            assert not is_23_trivial(g) or not all(cons.values()), (name, params)


def test_verify_tables_report():
    report = verify_tables()
    assert report["ok"]
    assert set(report["families"]) == set(FAMILY_NAMES)
    total = sum(len(v["grid"]) for v in report["families"].values())
    assert total == sum(len(v) for v in TABLE_GRIDS.values())


def test_basis_split_detector():
    assert has_basis_aligned_split(parse_algebra("(0,0,12,0)"))
    assert not has_basis_aligned_split(parse_algebra("(0,21+31,31)"))
    assert has_basis_aligned_split(LieAlgebra.abelian(2))


def test_graded_extension_r2_trivial_grading():
    ext = graded_extension(GradedNilpotent(LieAlgebra.abelian(2), (1, 1)))
    assert ext.c == parse_algebra("(0,21,31)").c  # r_{3,1}


def test_graded_extension_h3():
    h3 = parse_algebra("(0,0,12)")
    ext = graded_extension(GradedNilpotent(h3, (1, 1, 2)))
    # a scaling of d_{4,1/2}: weights (1,1,2) on the Heisenberg layers
    target = parse_algebra("(0,21,31,2.41+32)")
    assert betti(ext).betti == betti(target).betti
    assert is_23_trivial(ext)
    # same structure constants up to the sign of the h3 generator pair
    assert ext.bracket_basis(1, 2) == (0, 1, 0, 0)
    assert ext.bracket_basis(1, 4) == (0, 0, 0, 2)


def test_graded_extension_bad_grading_rejected():
    h3 = parse_algebra("(0,0,12)")
    with pytest.raises(LieKernelError):
        GradedNilpotent(h3, (1, 1, 3))  # [k1,k1] not in k2
    with pytest.raises(LieKernelError):
        GradedNilpotent(h3, (1, 1))
    with pytest.raises(LieKernelError):
        GradedNilpotent(parse_algebra("(0,21)"), (1, 1))  # not nilpotent


def test_graded_corpus_extensions_are_23_trivial():
    entries = [e for e in load_corpus() if e.grading and e.algebra.n <= 5]
    assert len(entries) >= 8
    for entry in entries:
        ext = graded_extension(GradedNilpotent(entry.algebra, entry.grading))
        assert is_23_trivial(ext), entry.name
        assert ext.derived_algebra().dim == entry.algebra.n


def test_graded_extension_weights_positive_on_forms():
    # (Lambda^s k*)^g = 0 for s >= 1: every basis s-form has positive weight
    entries = [e for e in load_corpus() if e.grading]
    from itertools import combinations

    for entry in entries:
        for s in (1, 2, 3):
            if s > entry.algebra.n:
                continue
            for combo in combinations(entry.grading, s):
                assert sum(combo) >= s >= 1


def test_graded_extension_action_has_no_invariant_forms():
    # the same fact through the Lie-derivative machinery: the action of the
    # grading element annihilates no nonzero s-form of the ideal
    from liekernel import KForm, multi_indices
    from liekernel.cohomology import extend_as_derivation
    from liekernel.exterior import bits_of

    for name in ("h3", "n4", "n5_235"):
        entry = next(e for e in load_corpus() if e.name == name)
        weights = entry.grading
        m = entry.algebra.n
        images = [KForm(m, 1, {1 << i: Fraction(-weights[i])})
                  for i in range(m)]
        for s in (1, 2, 3):
            if s > m:
                continue
            for ixs in multi_indices(m, s):
                f = KForm.from_terms(m, {ixs: Fraction(1)}, s)
                lf = extend_as_derivation(images, f, 1)
                total = sum(weights[i - 1] for i in ixs)
                assert lf == f * Fraction(-total)
                assert not lf.is_zero()


def test_unimodular_5dim_surrogate():
    g = make_unimodular_5dim()
    assert g.is_unimodular()
    assert is_23_trivial(g)
    rep = betti(g)
    assert rep.betti[2] == 0 and rep.betti[3] == 0
    assert rep.betti == (1, 1, 0, 0, 1, 1)
    assert serialize(expr_of(g)) == "(0,12,2.13,-4.14,15)"


def test_duplicate_fixture_name_is_an_error(tmp_path):
    fixture = tmp_path / "dup.lie"
    fixture.write_text("(0,0,12)  # name=h3\n(0,0,0)  # name=h3\n")
    with pytest.raises(LieKernelError, match="line 2: name 'h3' is already "
                                             "used on line 1"):
        load_corpus(fixture)


def test_quartic_roots_float_check():
    log_sum, roots = unimodular_quartic_log_sum()
    assert log_sum < 1e-12
    for root, approx in zip(roots, (0.1277, 0.6297, 2.797, 4.446)):
        assert abs(root - approx) / approx < 1e-3
    x = sympy.Symbol("x")
    exact = sympy.real_roots(x ** 4 - 8 * x ** 3 + 18 * x ** 2 - 10 * x + 1)
    assert len(roots) == len(exact) == 4
    for root, r in zip(roots, exact):
        assert abs(root - float(r.evalf(30))) <= 2 ** -52 * root


def test_characteristically_nilpotent_family_rejects_extensions(rng):
    # no sampled derivation extension of the family is (2,3)-trivial
    for alpha in (1, 2):
        k = seven_dim_characteristically_nilpotent(alpha)
        mats = k.derivation_matrices()
        samples = [m for m in mats]
        for _ in range(10):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in mats]
            mix = [tuple(sum(c * m[i][j] for c, m in zip(coeffs, mats))
                         for j in range(k.n)) for i in range(k.n)]
            samples.append(mix)
        for d_mat in samples:
            ext = _extension_by_derivation(k, d_mat)
            assert not is_23_trivial(ext)


def _extension_by_derivation(k: LieAlgebra, d_mat) -> LieAlgebra:
    n = k.n + 1
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(k.n):
        for j in range(k.n):
            for m in range(k.n):
                c[i + 1][j + 1][m + 1] = k.c[i][j][m]
    for j in range(k.n):
        for i in range(k.n):
            c[0][j + 1][i + 1] = Fraction(d_mat[i][j])
            c[j + 1][0][i + 1] = -Fraction(d_mat[i][j])
    return LieAlgebra(c)


def test_corpus_has_required_contents():
    entries = load_corpus()
    assert len(entries) >= 20
    dims = {e.algebra.n for e in entries}
    assert dims == set(range(1, 9))
    names = {e.name for e in entries}
    for required in ("h3", "h4", "su2", "su3", "u2", "u5", "cn7_a1", "cn7_a2"):
        assert required in names
    assert corpus_algebra("su3").n == 8
    with pytest.raises(LieKernelError):
        corpus_algebra("missing")
