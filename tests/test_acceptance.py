"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is pinned here; the exact criteria use Fraction equality,
the flow criteria use the stated 1e-8 / 1e-10 bounds.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from liekernel import (LieAlgebra, basis_form, betti,
                       completeness_classify, dP, dga_verify_torsion_free,
                       flow_closed_form, flow_integrate, flow_order_study,
                       g2t2_decompose, graded_extension, GradedNilpotent,
                       hodge_star, is_23_trivial, kernel_of_psi, lie_kernel,
                       metric_from_phi, max_interval, multimoment_value,
                       orbit_2plectic_check, parse_algebra, pdual,
                       phi0, reconstruct_phi, reconstruct_star_phi,
                       rk4_stepper_order_selftest, stabilizer, star_phi0,
                       wedge)
from liekernel.families import (FAMILY_NAMES, SU3_BASIS_NAMES, FamilySpec,
                                TABLE_EXCLUDED, TABLE_GRIDS,
                                _make_family_unchecked, load_corpus,
                                make_family, make_unimodular_5dim,
                                seven_dim_characteristically_nilpotent,
                                su2, su3, trivial23_consequences, u2)
from liekernel.liealg import is_nilpotent_matrix
from liekernel.linalg import Subspace
from liekernel.corpus import adjoint_identity_holds


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:2d} [{title}]: PASS")


SU3_INDEX = {name: k + 1 for k, name in enumerate(SU3_BASIS_NAMES)}


def su3_form(*names):
    return basis_form(8, *(SU3_INDEX[n] for n in names))


def test_criterion_01_heisenberg_cohomology():
    with criterion(1, "Heisenberg Betti numbers"):
        assert betti(parse_algebra("(0,0,12)")).betti == (1, 2, 2, 1)


def test_criterion_02_simple_algebra_betti():
    with criterion(2, "su(2) and su(3) Betti numbers"):
        rep2 = betti(su2())
        assert rep2.betti == (1, 0, 0, 1)
        rep3 = betti(su3())
        assert rep3.betti[1] == 0 and rep3.betti[2] == 0 and rep3.betti[3] == 1


def test_criterion_03_tables_reproduction():
    with criterion(3, "classification tables, grids and exclusions"):
        start = time.monotonic()
        for name in FAMILY_NAMES:
            for params in TABLE_GRIDS[name]:
                g = make_family(FamilySpec.of(name, **params))
                assert is_23_trivial(g), (name, params)
                assert all(trivial23_consequences(g).values()), (name, params)
            for params in TABLE_EXCLUDED.get(name, []):
                spec = FamilySpec.of(name, **params)
                assert not spec.admissible
                g = _make_family_unchecked(spec)
                assert (not is_23_trivial(g)
                        or not all(trivial23_consequences(g).values())), \
                    (name, params)
        assert time.monotonic() - start < 10.0


def test_criterion_04_lie_kernel_dimension_formula():
    with criterion(4, "dim P = b1 + n(n-3)/2 on the corpus"):
        entries = load_corpus()
        assert len(entries) >= 20
        assert {e.algebra.n for e in entries} == set(range(1, 9))
        for entry in entries:
            g = entry.algebra
            assert lie_kernel(g).dim == \
                betti(g).betti[1] + g.n * (g.n - 3) // 2, entry.name


def test_criterion_05_adjoint_identity_100_triples():
    with criterion(5, "adjoint identity on 100 random triples per algebra"):
        for entry in load_corpus():
            g = entry.algebra
            kernel = lie_kernel(g)
            rng = random.Random(f"acceptance5:{entry.name}")
            assert adjoint_identity_holds(g, kernel, rng, 100), entry.name


def test_criterion_06_su3_multimoment_example():
    with criterion(6, "su(3) multi-moment data and u(2) failure"):
        g = su3()
        beta1 = su3_form("B12", "B13") - su3_form("C12", "C13")
        expected = 3 * (wedge(su3_form("A1"), su3_form("B12", "C13"))
                        - wedge(su3_form("A1"), su3_form("B13", "C12")))
        psi = dP(g, beta1)
        assert psi == expected
        stab = stabilizer(g, beta1)
        ker = kernel_of_psi(g, psi)
        span = Subspace(8, [
            tuple(Fraction(int(j + 1 == SU3_INDEX[nm])) for j in range(8))
            for nm in ("A2", "B23", "C23")])
        assert stab == ker == span
        assert stab.dim == 3
        check = orbit_2plectic_check(g, beta1)
        assert check.condition_holds and check.orbit_dim == 5
        assert multimoment_value(g, psi) == pdual(g, beta1)
        u2check = orbit_2plectic_check(u2(), basis_form(4, 1, 2))
        assert not u2check.condition_holds


def test_criterion_07_unimodularity_and_hodge_duality():
    with criterion(7, "unimodular <=> b_n = 1, Hodge duality, 5-dim surrogate"):
        for entry in load_corpus():
            g = entry.algebra
            rep = betti(g)
            assert g.is_unimodular() == (rep.betti[g.n] == 1), entry.name
            if g.is_unimodular():
                assert all(rep.betti[k] == rep.betti[g.n - k]
                           for k in range(g.n + 1)), entry.name
        surrogate = make_unimodular_5dim()
        assert surrogate.is_unimodular()
        assert is_23_trivial(surrogate)


def test_criterion_08_graded_extensions_and_obstruction():
    with criterion(8, "graded extensions and characteristic nilpotency"):
        start = time.monotonic()
        graded = [e for e in load_corpus()
                  if e.grading is not None and e.algebra.n <= 5]
        assert graded
        for entry in graded:
            ext = graded_extension(GradedNilpotent(entry.algebra, entry.grading))
            assert is_23_trivial(ext), entry.name
        k = seven_dim_characteristically_nilpotent(1)
        mats = k.derivation_matrices()
        assert all(is_nilpotent_matrix(m) for m in mats)
        assert k.is_characteristically_nilpotent()
        rng = random.Random("acceptance8")
        samples = list(mats)
        for _ in range(8):
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in mats]
            samples.append([
                tuple(sum(c * m[i][j] for c, m in zip(coeffs, mats))
                      for j in range(k.n)) for i in range(k.n)])
        for d_mat in samples:
            ext = _extend_by_derivation(k, d_mat)
            assert not is_23_trivial(ext)
        assert time.monotonic() - start < 20.0


def _extend_by_derivation(k, d_mat):
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


def test_criterion_09_g2_pointwise_identities():
    with criterion(9, "G2 pointwise identities and reconstructions"):
        p0, s0 = phi0(), star_phi0()
        assert hodge_star(p0) == s0
        metric = metric_from_phi(p0)
        identity = [tuple(Fraction(int(i == j)) for j in range(7))
                    for i in range(7)]
        assert metric.exact and metric.gram == identity
        frame = g2t2_decompose(p0, s0, (1, 0, 0, 0, 0, 0, 0),
                               (0, 1, 0, 0, 0, 0, 0), identity)
        assert reconstruct_phi(frame) == p0
        assert reconstruct_star_phi(frame) == s0
        rng = random.Random("acceptance9")
        done = 0
        while done < 25:
            u = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(7))
            v = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                      for _ in range(7))
            guu = sum(x * x for x in u)
            gvv = sum(x * x for x in v)
            guv = sum(x * y for x, y in zip(u, v))
            if guu * gvv - guv * guv == 0:
                continue
            fr = g2t2_decompose(p0, s0, u, v, identity)
            assert reconstruct_phi(fr) == p0
            assert reconstruct_star_phi(fr) == s0
            done += 1


FLOW_CASES = (((0, 1), (0, 0)), ((1, 0), (0, -1)), ((0, 1), (-1, 0)))


def test_criterion_10_flow_rk4_vs_closed_form():
    with criterion(10, "RK4 vs closed form, invariants, order, completeness"):
        for f_mat in FLOW_CASES:
            hi = max_interval(f_mat)[1]
            assert math.isfinite(hi)
            t_end = 0.9 * hi
            traj = flow_integrate(f_mat, t_end, 1e-3)
            cf = flow_closed_form(
                f_mat, Fraction(traj.final.t).limit_denominator(10 ** 12))
            errs = [abs(traj.final.Q[i][j] - float(cf.Q[i][j]))
                    for i in range(2) for j in range(2)]
            errs.append(abs(traj.final.h - float(cf.h)))
            assert max(errs) < 1e-8, f_mat
            assert traj.h2_detq_residual() < 1e-10, f_mat
            # step-halving study; the flow is integrated exactly by RK4
            # (exact-arithmetic identity), so the study is roundoff-limited
            # and reports infinite observed order
            study = flow_order_study(f_mat, t_end, 0.05)
            assert study.observed_order >= 3.9, (f_mat, study)
            if study.roundoff_limited:
                assert max(study.errors) < 1e-12
        # the shared stepper shows genuine fourth order where truncation
        # error is measurable
        selftest = rk4_stepper_order_selftest()
        assert not selftest.roundoff_limited
        assert selftest.observed_order >= 3.9
        # completeness on the 9-point grid (alpha = 0, a, b in {-1,0,1})
        for a in (-1, 0, 1):
            for b in (-1, 0, 1):
                f_mat = ((0, a), (b, 0))
                det_a = -a * b  # A = F J = (-a, 0; 0, b)
                verdict = completeness_classify(f_mat)
                if a == 0 and b == 0:
                    assert verdict == "complete"
                elif det_a >= 0:
                    assert verdict == "half_complete"
                else:
                    assert verdict == "neither"


def test_criterion_11_dga_torsion_free_certificate():
    with criterion(11, "polynomial DGA torsion-free certificates"):
        for f_mat in FLOW_CASES + (((1, 2), (3, -1)), ((0, 0), (0, 0))):
            cert = dga_verify_torsion_free(f_mat)
            assert cert.d_phi_zero, f_mat
            assert cert.d_star_phi_zero, f_mat
        bad = dga_verify_torsion_free(((1, 0), (0, 1)))
        assert not bad.d_phi_zero
