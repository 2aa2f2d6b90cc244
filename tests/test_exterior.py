from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import dense_oracle
from conftest import random_form
from liekernel import (KForm, KVector, Poly, basis_form, basis_vector,
                       bivector_contract, evaluate, hodge_star, interior,
                       pairing, pullback, vector_of, wedge)
from liekernel.exterior import (MAX_DIM, bits_of, derivation_rows,
                                extend_as_derivation, lex, multi_indices)
from liekernel.errors import DimensionMismatch, HodgeError, LieKernelError
from liekernel.linalg import inverse


def e(*ix):
    return basis_form(7, *ix)


def E(*ix):
    return basis_vector(7, *ix)


def test_wedge_basis_cases():
    assert wedge(e(1), e(2)) == e(1, 2)
    assert wedge(e(1, 2), e(1, 2)).is_zero()
    a = e(4, 5) + e(6, 7)
    assert wedge(a, a) == 2 * e(4, 5, 6, 7)


def test_wedge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        wedge(basis_form(3, 1), basis_form(4, 1))


def test_wedge_graded_commutative_and_associative(rng):
    for _ in range(150):
        n = rng.randint(2, 7)
        ka, kb = rng.randint(0, n), rng.randint(0, n)
        x, y = random_form(rng, n, ka), random_form(rng, n, kb)
        flipped = wedge(y, x)
        assert wedge(x, y) == (-flipped if (ka * kb) % 2 else flipped)
        z = random_form(rng, n, rng.randint(0, n))
        assert wedge(wedge(x, y), z) == wedge(x, wedge(y, z))


def test_interior_basics():
    assert interior(E(1), e(1, 2, 3)) == e(2, 3)
    assert interior(E(4), e(1, 2, 3)).is_zero()


def test_interior_is_antiderivation(rng):
    for _ in range(120):
        n = rng.randint(2, 7)
        ka = rng.randint(1, n)
        kb = rng.randint(0, n)
        x, y = random_form(rng, n, ka), random_form(rng, n, kb)
        v = vector_of(n, [rng.randint(-2, 2) for _ in range(n)])
        second = wedge(x, interior(v, y))
        rhs = wedge(interior(v, x), y) + (second if ka % 2 == 0 else -second)
        assert interior(v, wedge(x, y)) == rhs


def phi0_form():
    return (e(1, 2, 3) + wedge(e(1), e(4, 5) + e(6, 7))
            + wedge(e(2), e(4, 6) - e(5, 7)) - wedge(e(3), e(4, 7) + e(5, 6)))


@pytest.mark.parametrize("v, a", [(E(1), E(1, 2)), (e(1), e(1, 2)),
                                  (E(1), basis_form(3, 1, 2))])
def test_interior_takes_a_vector_and_a_form_on_one_space(v, a):
    with pytest.raises(DimensionMismatch):
        interior(v, a)


def test_interior_matches_brute_force_evaluation(rng):
    # (v -| a)(w_1..w_{k-1}) = a(v, w_1..w_{k-1}) by minor expansion
    for _ in range(60):
        n = rng.randint(1, 8)
        k = rng.randint(1, n)
        a = random_form(rng, n, k)
        v, *ws = [tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
                  for _ in range(k)]
        assert evaluate(interior(vector_of(n, v), a), *ws) == evaluate(a, v, *ws)


RINGS = {
    "int": lambda p, q: p,
    "Fraction": lambda p, q: Fraction(p, q),
    "Poly": lambda p, q: Poly((p, Fraction(q, 2))),
}


@st.composite
def derivations(draw):
    """(n, image degree, images, k, element) with values in one ring."""
    n = draw(st.integers(1, 10))
    degree = draw(st.sampled_from([d for d in (1, 2) if d <= n]))
    value = st.builds(RINGS[draw(st.sampled_from(sorted(RINGS)))],
                      st.integers(-3, 3), st.integers(1, 3))
    image_bits = st.sampled_from(lex(n, degree)[1])
    images = [draw(st.dictionaries(image_bits, value, max_size=4))
              for _ in range(n)]
    k = draw(st.integers(0, n))
    element = draw(st.dictionaries(st.sampled_from(lex(n, k)[1]), value,
                                   max_size=6))
    return n, degree, images, k, element


@settings(max_examples=150, deadline=None)
@given(derivations())
def test_derivation_kernel_matches_the_kform_oracle(case):
    n, degree, images, k, element = case
    forms = [KForm(n, degree, img) for img in images]

    def oracle(coeffs):
        return dense_oracle.extend_as_derivation(forms, KForm(n, k, coeffs),
                                                 degree)

    out = KForm(n, k + degree - 1, extend_as_derivation(images, element))
    assert out == oracle(element)
    ixs, bits, _ = lex(n, k)
    for b, row in zip(bits, derivation_rows(images, zip(ixs, bits))):
        unit = extend_as_derivation(images, {b: 1})
        assert {t: v for t, v in row.items() if v} == \
            {t: v for t, v in unit.items() if v} == oracle({b: 1}).coeffs


def test_oracle_is_not_the_production_kernel():
    import liekernel.cohomology
    import liekernel.exterior

    assert dense_oracle.extend_as_derivation.__module__ == "dense_oracle"
    assert liekernel.cohomology.extend_as_derivation \
        is liekernel.exterior.extend_as_derivation


def test_interior_e1_phi0():
    assert interior(E(1), phi0_form()) == e(2, 3) + e(4, 5) + e(6, 7)


def test_bivector_contract_examples():
    assert bivector_contract(E(1, 2), e(1, 2, 3)) == e(3)
    assert bivector_contract(E(1, 2), e(1, 4, 5)).is_zero()
    assert bivector_contract(E(4, 5) + E(6, 7), phi0_form()) == 2 * e(1)


def test_bivector_contract_matches_brute_force(rng):
    # oracle: (e_i ^ e_j) -| c evaluated against c(e_i, e_j, e_m) minors
    for _ in range(40):
        n = rng.randint(3, 7)
        c3 = random_form(rng, n, 3)
        i, j = sorted(rng.sample(range(1, n + 1), 2))
        out = bivector_contract(basis_vector(n, i, j), c3)
        ei = [Fraction(int(m == i)) for m in range(1, n + 1)]
        ej = [Fraction(int(m == j)) for m in range(1, n + 1)]
        for m in range(1, n + 1):
            em = [Fraction(int(p == m)) for p in range(1, n + 1)]
            assert out[(m,)] == evaluate(c3, ei, ej, em)


def test_hodge_star_identity_gram():
    assert hodge_star(e(1, 2, 3)) == e(4, 5, 6, 7)
    s = hodge_star(phi0_form())
    expected = (e(4, 5, 6, 7) + wedge(e(2, 3), e(6, 7) + e(4, 5))
                + wedge(e(1, 3), e(5, 7) - e(4, 6))
                - wedge(e(1, 2), e(5, 6) + e(4, 7)))
    assert s == expected
    assert hodge_star(s) == phi0_form()


def test_hodge_star_involution_sign(rng):
    for n in range(2, 7):
        for k in range(n + 1):
            f = random_form(rng, n, k)
            twice = hodge_star(hodge_star(f))
            assert twice == (f if (k * (n - k)) % 2 == 0 else -f)


def test_hodge_star_nontrivial_gram():
    # diag(4, 1): vol = 2 e12, *(e1) must satisfy e1 ^ *e1 = <e1,e1> vol
    gram = [(4, 0), (0, 1)]
    f = KForm.from_terms(2, {(1,): Fraction(1)})
    star = hodge_star(f, gram)
    assert star == KForm.from_terms(2, {(2,): Fraction(1, 2)})


def _unimodular_gram(rng, n):
    """P^T diag(1, 4, 9, ...) P for a random integer unimodular P = L U, so
    the gram is positive-definite, full of off-diagonal entries, and its
    determinant is the rational square (n!)^2."""
    lower = [[1 if i == j else rng.randint(-2, 2) if j < i else 0
              for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else rng.randint(-2, 2) if j > i else 0
              for j in range(n)] for i in range(n)]
    p = [[sum(lower[i][m] * upper[m][j] for m in range(n)) for j in range(n)]
         for i in range(n)]
    return [[sum(p[m][i] * (m + 1) ** 2 * p[m][j] for m in range(n))
             for j in range(n)] for i in range(n)]


def test_hodge_star_on_a_non_diagonal_gram(rng):
    for n in range(3, 6):
        top = tuple(range(1, n + 1))
        for _ in range(3):
            gram = _unimodular_gram(rng, n)
            assert any(gram[i][j] for i in range(n) for j in range(i))
            vol = hodge_star(KForm.from_terms(n, {(): Fraction(1)}), gram)
            ginv = inverse(gram)
            # e_i ^ *e_j = (gram^-1)_ij vol on one-forms
            for i in range(n):
                for j in range(n):
                    assert wedge(basis_form(n, i + 1),
                                 hodge_star(basis_form(n, j + 1), gram)) \
                        == vol * ginv[i][j]
            for k in range(n + 1):
                a, b = random_form(rng, n, k), random_form(rng, n, k)
                star_a, star_b = hodge_star(a, gram), hodge_star(b, gram)
                assert wedge(a, star_b) == wedge(b, star_a)
                assert a.is_zero() or wedge(a, star_a)[top] > 0
                assert hodge_star(star_a, gram) == a * (-1) ** (k * (n - k))


def test_hodge_star_orientation_flip():
    assert hodge_star(e(1, 2, 3), orientation=-1) == -e(4, 5, 6, 7)
    with pytest.raises(HodgeError):
        hodge_star(e(1), orientation=2)


def test_hodge_star_errors():
    with pytest.raises(HodgeError):
        hodge_star(e(1), [[-1 if i == j else 0 for j in range(7)]
                          for i in range(7)])
    with pytest.raises(HodgeError):
        # det = 2 is not a rational square
        hodge_star(f := basis_form(2, 1), [(2, 0), (0, 1)])


def test_evaluate_against_minors():
    f = basis_form(3, 1, 2) + 2 * basis_form(3, 2, 3)
    assert evaluate(f, (1, 2, 3), (0, 1, 0)) == -5


@pytest.mark.parametrize("form, vectors", [
    (basis_form(3, 1), [(1, 0, 0, 5)]),
    (basis_form(3, 3), [(1, 0)]),
    (basis_form(3, 1, 2), [(1, 0, 0), (0, 1)]),
])
def test_evaluate_takes_only_vectors_of_the_form_space(form, vectors):
    with pytest.raises(DimensionMismatch):
        evaluate(form, *vectors)


def test_pullback_functorial(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        f = random_form(rng, n, rng.randint(0, n))
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        b = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        # (AB)* = B* A* acting on forms
        assert pullback(f, ab) == pullback(pullback(f, a), b)


def test_pullback_respects_wedge(rng):
    for _ in range(25):
        n = rng.randint(2, 5)
        x = random_form(rng, n, rng.randint(0, n))
        y = random_form(rng, n, rng.randint(0, n))
        a = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        assert pullback(wedge(x, y), a) == wedge(pullback(x, a), pullback(y, a))


def test_pairing_duality():
    assert pairing(basis_form(4, 1, 3), basis_vector(4, 1, 3)) == 1
    assert pairing(basis_form(4, 1, 3), basis_vector(4, 1, 2)) == 0


def test_int_pairing_stays_int_and_equals_the_fraction_pairing(rng):
    for _ in range(20):
        n = rng.randint(1, 6)
        k = rng.randint(0, n)
        terms = list(multi_indices(n, k))
        a = {ixs: rng.randint(-3, 3) for ixs in terms}
        b = {ixs: rng.randint(-3, 3) for ixs in terms}
        exact = pairing(
            KForm.from_terms(n, {t: Fraction(q) for t, q in a.items()}, k),
            KVector.from_terms(n, {t: Fraction(q) for t, q in b.items()}, k))
        value = pairing(KForm.from_terms(n, a, k), KVector.from_terms(n, b, k))
        assert type(value) is int and value == exact


def test_lex_matches_multi_indices_and_bits_of():
    try:
        for n in range(1, MAX_DIM + 1):
            for k in range(n + 1):
                ixs, bits, pos = lex(n, k)
                oracle = list(multi_indices(n, k))
                assert [tuple(i + 1 for i in t) for t in ixs] == oracle
                assert list(bits) == [bits_of(t)[0] for t in oracle]
                assert len(pos) == len(oracle)
                assert all(pos[bits_of(t)[0]] == j for j, t in enumerate(oracle))
    finally:
        lex.cache_clear()  # every degree at n = 16 is ~15 MB
    with pytest.raises(LieKernelError):
        lex(MAX_DIM + 1, 1)


def test_vector_round_trips_through_the_lex_basis(rng):
    for n in range(1, MAX_DIM + 1):
        for _ in range(3):
            k = rng.randint(0, n)
            terms = list(multi_indices(n, k))
            form = KForm.from_terms(n, {
                t: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for t in rng.sample(terms, min(len(terms), 40))}, k)
            v = form.vector()
            assert v == tuple(form[t] for t in terms)
            assert KForm.from_vector(n, k, v) == form
            assert KVector.from_vector(n, k, v).coeffs == form.coeffs


def test_max_dimension_enforced():
    with pytest.raises(Exception):
        basis_form(17, 1)
