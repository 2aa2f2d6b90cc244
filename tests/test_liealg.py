from fractions import Fraction
from itertools import combinations

import pytest

from liekernel import LieAlgebra, Subspace, parse_algebra
from liekernel.errors import JacobiError, LieKernelError, SubspaceError
from liekernel.families import seven_dim_characteristically_nilpotent
from liekernel.liealg import (is_nilpotent_matrix, matrix_commutator,
                              matrix_lie_algebra)


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
