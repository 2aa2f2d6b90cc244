from fractions import Fraction
from itertools import combinations

import pytest

from liekernel import LieAlgebra, Subspace, parse_algebra
from liekernel.errors import (DimensionMismatch, JacobiError, LieKernelError,
                              SubspaceError)
from liekernel.families import (TABLE_GRIDS, FamilySpec, load_corpus,
                                make_family,
                                seven_dim_characteristically_nilpotent)
from liekernel.liealg import matrix_commutator, matrix_lie_algebra
from liekernel.parser import expr_of, serialize

from dense_oracle import is_nilpotent_matrix


@pytest.fixture(scope="module")
def h3():
    return parse_algebra("(0,0,12)", name="h3")


@pytest.fixture(scope="module")
def su2():
    return parse_algebra("(-2.23,2.13,-2.12)", name="su2")


def test_bracket_bilinear_antisymmetric(h3, rng):
    for _ in range(30):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-3, 3)) for _ in range(3))
        assert h3.bracket(x, x) == (0, 0, 0)
        assert h3.bracket(x, y) == tuple(-v for v in h3.bracket(y, x))


def test_bracket_examples(h3):
    r = parse_algebra("(0,21,1/2.31)")
    assert r.bracket((1, 0, 0), (0, 1, 0)) == (0, 1, 0)
    assert h3.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, -1)


def test_antisymmetry_enforced():
    c = [[[Fraction(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = Fraction(1)  # c[1][0][0] left at 0: not antisymmetric
    with pytest.raises(JacobiError):
        LieAlgebra(c)


@pytest.mark.parametrize("k", [0, 4])
def test_from_brackets_rejects_components_outside_the_basis(k):
    # k = 0 must not wrap round to e3 through index -1
    with pytest.raises(DimensionMismatch, match=rf"e{k} of \(1, 2\)"):
        LieAlgebra.from_brackets(3, {(1, 2): {k: 1}})


def test_antisymmetry_witness_is_first_failing_entry(rng):
    # the check runs over the nonzeros only; the witness is still the first
    # failing (i <= j, k) of the dense scan
    for _ in range(40):
        n = rng.randint(2, 12)
        c = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j in combinations(range(n), 2):
            k = rng.randrange(n)
            c[i][j][k] = Fraction(rng.randint(1, 3), rng.randint(1, 2))
            c[j][i][k] = -c[i][j][k]
        for _ in range(rng.randint(1, 3)):
            c[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = 1
        first = next(((i, j, k) for i in range(n) for j in range(i, n)
                      for k in range(n) if c[i][j][k] != -c[j][i][k]), None)
        if first is None:
            assert all(type(x) is Fraction
                       for plane in LieAlgebra.unchecked(c).c
                       for row in plane for x in row)
            continue
        i, j, k = first
        with pytest.raises(JacobiError,
                           match=rf"^antisymmetry fails at c\^{k+1}_\{{{i+1},{j+1}\}}$"):
            LieAlgebra.unchecked(c)


def _sparse_constants(g):
    return [[list(row.items()) for row in plane] for plane in g.br]


def _permuted_rescaled(g, rng):
    """g in the basis e'_a = s_a e_perm(a), s_a nonzero rationals: the dense
    tensor, and the brackets mapped one nonzero at a time."""
    n = g.n
    perm = list(range(n))
    rng.shuffle(perm)
    inv = {p: a for a, p in enumerate(perm)}
    s = [Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2, 3)))
         * rng.choice((1, -1)) for _ in range(n)]
    dense = [[[g.c[perm[a]][perm[b]][perm[d]] * s[a] * s[b] / s[d]
               for d in range(n)] for b in range(n)] for a in range(n)]
    brackets = {}
    for (i, j), comps in g.brackets().items():
        a, b = inv[i - 1], inv[j - 1]
        sign = 1 if a < b else -1
        row = brackets.setdefault((min(a, b) + 1, max(a, b) + 1), {})
        for k, q in comps.items():
            d = inv[k - 1]
            row[d + 1] = sign * q * s[a] * s[b] / s[d]
    return dense, LieAlgebra.from_brackets(n, brackets)


def test_dense_adapter_reproduces_the_sparse_algebra(rng):
    fixtures = [(e.name, e.algebra) for e in load_corpus()]
    assert len(fixtures) == 32
    su3 = dict(fixtures)["su3"]
    dense, ref = _permuted_rescaled(su3, rng)
    assert ref.scale > 1
    cases = [(name, g.c, g) for name, g in fixtures]
    for label, c, g in cases + [("su3 rescaled", dense, ref)]:
        for h in (LieAlgebra(c), LieAlgebra.unchecked(c)):
            assert _sparse_constants(h) == _sparse_constants(g), label
            assert list(h.brackets().items()) == list(g.brackets().items())
            assert serialize(expr_of(h)) == serialize(expr_of(g)), label
            assert h.c == g.c, label


def test_unchecked_defers_jacobi_until_first_use():
    # [e1, e2] = e3, [e1, e3] = e1: the cyclic sum on (e1, e2, e3) is -e3
    c = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    c[0][1][2], c[1][0][2] = 1, -1
    c[0][2][0], c[2][0][0] = 1, -1
    with pytest.raises(JacobiError, match=r"\(e1, e2, e3\)"):
        LieAlgebra(c)
    g = LieAlgebra.unchecked(c)
    assert g.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 1)
    with pytest.raises(JacobiError):
        g.derived_series()
    with pytest.raises(JacobiError):
        g.validate()


def _uncached_series(g, lower):
    series = [g.full_space()]
    while series[-1].dim:
        left = series[0] if lower else series[-1]
        series.append(g.product_space(left, series[-1]))
        if series[-1].dim == series[-2].dim:
            break
    return series


def _series_algebras():
    yield from ((e.name, e.algebra) for e in load_corpus())
    for name, grid in TABLE_GRIDS.items():
        for params in grid:
            spec = FamilySpec.of(name, **params)
            yield spec.label(), make_family(spec)
    yield "zero", LieAlgebra.abelian(0)


def test_cached_series_equal_a_fresh_computation():
    checked = 0
    for label, g in _series_algebras():
        derived = g.derived_series()
        assert derived == _uncached_series(g, lower=False), label
        lower = g.lower_central_series()
        assert lower == _uncached_series(g, lower=True), label
        full = g.full_space()
        assert g.derived_algebra() == g.product_space(full, full), label
        # each call hands out a list of its own
        derived.clear()
        lower.append(None)
        assert g.derived_series() == _uncached_series(g, lower=False), label
        assert g.lower_central_series() == _uncached_series(g, lower=True)
        assert g.derived_series() is not g.derived_series()
        checked += 1
    assert checked >= 32 + sum(len(grid) for grid in TABLE_GRIDS.values())


def test_series_of_an_algebra_failing_jacobi_raise_and_cache_nothing():
    # J(e1, e2, e3) = [e1, e3] = e2
    g = LieAlgebra.from_brackets(3, {(1, 2): {1: 1}, (1, 3): {2: 1}},
                                 validate=False)
    for ask in (g.derived_series, g.lower_central_series, g.derived_algebra,
                g.is_solvable, g.is_nilpotent):
        with pytest.raises(JacobiError):
            ask()
        assert g._derived is None and g._lower is None


def test_der_g_is_solved_once_and_never_for_an_algebra_failing_jacobi(h3):
    assert h3.derivation_algebra() is h3.derivation_algebra()
    # J(e1, e2, e3) = [e1, e3] = e2
    g = LieAlgebra.from_brackets(3, {(1, 2): {1: 1}, (1, 3): {2: 1}},
                                 validate=False)
    for ask in (g.derivation_algebra, g.derivation_matrices,
                g.is_characteristically_nilpotent):
        with pytest.raises(JacobiError):
            ask()
        assert g._der is None


def test_jacobi_witness_is_first_failing_triple(rng):
    for _ in range(40):
        n = rng.randint(3, 5)
        brackets = {(i, j): {rng.randint(1, n): Fraction(rng.randint(-2, 2),
                                                          rng.randint(1, 3))}
                    for i, j in combinations(range(1, n + 1), 2)
                    if rng.random() < 0.5}
        g = LieAlgebra.from_brackets(n, brackets, name="g", validate=False)
        e = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
        failing = [
            (i, j, k) for i, j, k in combinations(range(n), 3)
            if any(sum(t) for t in zip(
                g.bracket(g.bracket(e[i], e[j]), e[k]),
                g.bracket(g.bracket(e[j], e[k]), e[i]),
                g.bracket(g.bracket(e[k], e[i]), e[j])))]
        if not failing:
            g.validate()
            continue
        i, j, k = failing[0]
        with pytest.raises(JacobiError) as err:
            g.validate()
        assert str(err.value) == f"Jacobi fails on (e{i+1}, e{j+1}, e{k+1}) in g"


def test_derived_series_dims(h3, su2):
    r = parse_algebra("(0,21,1/2.31)")
    assert [s.dim for s in r.derived_series()] == [3, 2, 0]
    assert [s.dim for s in LieAlgebra.abelian(4).derived_series()] == [4, 0]
    assert [s.dim for s in su2.derived_series()] == [3, 3]
    assert not su2.is_solvable()


def test_predicates(h3, su2):
    r3 = parse_algebra("(0,21+31,31)")
    assert r3.is_solvable() and not r3.is_nilpotent() and not r3.is_unimodular()
    assert h3.is_nilpotent() and h3.is_unimodular()
    u5 = parse_algebra("(0,12,2.13,-4.14,15)")
    assert u5.is_solvable() and u5.is_unimodular() and not u5.is_nilpotent()
    assert su2.is_unimodular()
    # [e1, e2] = -e1: the trace of ad_e2 reads the e1-component
    assert not parse_algebra("(12,0)").is_unimodular()


@pytest.mark.parametrize("x, y", [
    ((1, 0, 2, 0), (0, 1, 1, Fraction(1, 5))),
    ((0, 0, 0, 0), (1, 1, 1, 1)),
], ids=["generic", "zero"])
def test_entries_stay_fractions_over_a_common_denominator(x, y):
    g = parse_algebra("(0,1/2.21,1/3.31,1/6.41)")
    assert g.scale == 6
    entries = [*g.bracket(x, y), *(q for row in g.ad(x) for q in row),
               *(q for plane in g.c for row in plane for q in row),
               *(q for comps in g.brackets().values() for q in comps.values())]
    assert all(type(q) is Fraction for q in entries)


def test_direct_sum(h3):
    line = parse_algebra("(0)")
    s = line.direct_sum(h3)
    assert s.n == 4 and s.is_nilpotent()
    r31 = parse_algebra("(0,21,31)")
    t = r31.direct_sum(line)
    assert t.is_solvable() and not t.is_nilpotent()
    both = h3.direct_sum(h3)
    assert both.n == 6 and both.is_nilpotent()


def test_subalgebra_and_ideal(h3):
    derived = h3.derived_algebra()
    assert derived.dim == 1
    assert h3.is_ideal(derived)
    sub = h3.subalgebra(derived)
    assert sub.n == 1
    not_closed = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(SubspaceError):
        h3.subalgebra(not_closed)


@pytest.mark.parametrize("ambient", [2, 4])
def test_a_subspace_of_another_algebra_is_refused(h3, ambient):
    space = Subspace(ambient, [[1] + [0] * (ambient - 1)])
    for call in (lambda: h3.product_space(space, h3.full_space()),
                 lambda: h3.is_ideal(space), lambda: h3.subalgebra(space)):
        with pytest.raises(DimensionMismatch):
            call()


def test_derivations_of_h3(h3):
    der = h3.derivation_algebra()
    assert der.dim == 6
    # hand parametrisation: D = [[a,b,0],[c,d,0],[e,f,a+d]] for [x,y] = -z
    for a, b, c, d, e, f in [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0),
                             (2, 3, 5, 7, 11, 13)]:
        mat = [(a, b, 0), (c, d, 0), (e, f, a + d)]
        flat = tuple(Fraction(x) for row in mat for x in row)
        assert der.contains(flat)
    bad = tuple(Fraction(x) for row in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
                for x in row)
    assert not der.contains(bad)


def test_derivations_of_abelian():
    assert parse_algebra("(0,0)").derivation_algebra().dim == 4


def test_derivation_matrices_leibniz(h3, rng):
    mats = h3.derivation_matrices()
    units = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]
    for mat in mats:
        for x in units:
            for y in units:
                dx = tuple(sum(mat[i][j] * x[j] for j in range(3))
                           for i in range(3))
                dy = tuple(sum(mat[i][j] * y[j] for j in range(3))
                           for i in range(3))
                lhs = tuple(
                    sum(mat[i][j] * h3.bracket(x, y)[j] for j in range(3))
                    for i in range(3))
                rhs = tuple(p + q for p, q in
                            zip(h3.bracket(dx, y), h3.bracket(x, dy)))
                assert lhs == rhs


def test_derivation_algebra_closed_under_commutator(h3):
    der = h3.derivation_algebra()
    mats = h3.derivation_matrices()
    for a in mats:
        for b in mats:
            comm = matrix_commutator(a, b)
            flat = tuple(x for row in comm for x in row)
            assert der.contains(flat)


def test_characteristically_nilpotent():
    h3 = parse_algebra("(0,0,12)")
    assert h3.is_characteristically_nilpotent() is False
    assert parse_algebra("(0,0,0)").is_characteristically_nilpotent() is False
    # Der(R) = gl(1) is abelian, hence nilpotent, but the identity is not
    assert parse_algebra("(0)").is_characteristically_nilpotent() is False
    # n = 16, each with a derivation that is not nilpotent: the identity on
    # R^16, and diag(1, 1, 2) plus the identity on h3+R^13
    for text in ("(0" + ",0" * 15 + ")", "(0,0,12" + ",0" * 13 + ")"):
        assert parse_algebra(text).is_characteristically_nilpotent() is False
    with pytest.raises(LieKernelError):
        parse_algebra("(0,21)").is_characteristically_nilpotent()
    for alpha in (1, 2):
        fam = seven_dim_characteristically_nilpotent(alpha)
        assert fam.is_nilpotent()
        assert all(is_nilpotent_matrix(m) for m in fam.derivation_matrices())
        assert fam.is_characteristically_nilpotent() is True


def test_matrix_lie_algebra_structure(h3):
    der = matrix_lie_algebra(h3.derivation_matrices())
    assert der.n == 6
    # Der(h3) = gl(2) acting on the generators plus inner parts: not nilpotent
    assert not der.is_nilpotent()
    assert not der.is_solvable()


def _unit_matrix(r, s):
    return [[int((i, j) == (r - 1, s - 1)) for j in range(3)] for i in range(3)]


def _rotation(a, b):
    """E_ab - E_ba."""
    return [[x - y for x, y in zip(u, v)]
            for u, v in zip(_unit_matrix(a, b), _unit_matrix(b, a))]


@pytest.mark.parametrize("order, expected", [
    ("XYZ", {(1, 2): {3: 1}, (1, 3): {2: -1}, (2, 3): {1: 1}}),
    ("ZYX", {(1, 2): {3: -1}, (1, 3): {2: 1}, (2, 3): {1: -1}}),
])
def test_matrix_lie_algebra_reports_the_given_basis(order, expected):
    # so(3) with [X, Y] = Z, [Y, Z] = X, [Z, X] = Y; the echelon basis of
    # the span is (-Z, Y, -X), not the given basis in either order
    so3 = {"X": _rotation(3, 2), "Y": _rotation(1, 3), "Z": _rotation(2, 1)}
    matrices = [so3[name] for name in order]
    g = matrix_lie_algebra(matrices)
    assert g.brackets() == expected
    for (i, j), comps in g.brackets().items():
        assert matrix_commutator(matrices[i - 1], matrices[j - 1]) == [
            tuple(sum(q * matrices[k - 1][r][s] for k, q in comps.items())
                  for s in range(3)) for r in range(3)]


def test_from_brackets_stores_the_sparse_constants_in_ascending_k():
    g = LieAlgebra.from_brackets(3, {(1, 2): {3: 1, 1: 2}})
    assert g.scale == 1
    assert list(g.br[0][1].items()) == [(0, 2), (2, 1)]
    assert list(g.br[1][0].items()) == [(0, -2), (2, -1)]
    assert not any(g.br[i][j] for i in range(3) for j in range(3)
                   if {i, j} != {0, 1})
    dense = LieAlgebra(g.c)
    assert dense.br == g.br and dense.c == g.c
    assert g.c[0][1] == (2, 0, 1) and g.c[1][0] == (-2, 0, -1)
    with pytest.raises(AttributeError):
        g.c = dense.c
