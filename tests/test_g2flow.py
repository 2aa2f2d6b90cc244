import math
from fractions import Fraction

import pytest
import sympy

from liekernel import (CoherentTripleFrame, FlowDGA, Poly, basis_form,
                       completeness_classify, dga_evolution_identities,
                       dga_verify_torsion_free, flow_closed_form,
                       flow_integrate, flow_order_study, g2t2_decompose,
                       hodge_star, max_interval, metric_from_phi, phi0,
                       pullback, reconstruct_phi, reconstruct_star_phi,
                       rk4_stepper_order_selftest, standard_hyperkahler_triple,
                       star_phi0, su3_structure, vector_of, wedge, wedge_all)
from liekernel.errors import FlowError, G2Error
from liekernel.g2flow import halfflat_condition, rk4_integrate

TOP7 = (1, 2, 3, 4, 5, 6, 7)
IDENTITY7 = [tuple(Fraction(int(i == j)) for j in range(7)) for i in range(7)]

TRACE_FREE = [((0, 1), (0, 0)), ((1, 0), (0, -1)), ((0, 1), (-1, 0)),
              ((1, 2), (3, -1))]


# -- polynomials ---------------------------------------------------------------

def test_poly_arithmetic_against_sympy(rng):
    t = sympy.Symbol("t")
    for _ in range(25):
        a = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])
        b = Poly([Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 5))])

        def to_sympy(p):
            return sum(sympy.Rational(c) * t ** i for i, c in enumerate(p.coeffs))

        assert sympy.expand(to_sympy(a * b) - to_sympy(a) * to_sympy(b)) == 0
        assert sympy.expand(to_sympy(a + b) - (to_sympy(a) + to_sympy(b))) == 0
        assert sympy.expand(to_sympy(a.deriv())
                            - sympy.diff(to_sympy(a), t)) == 0
        at = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        assert a(at) == to_sympy(a).subs(t, sympy.Rational(at))


def test_poly_zero_and_equality():
    assert not Poly([0, 0])
    assert Poly([1, 2]) == Poly((1, 2))
    assert Poly([3]) == 3
    assert Poly([0, 1]) != 1


# -- model form ----------------------------------------------------------------

def test_phi0_shape():
    p0 = phi0()
    assert len(p0.coeffs) == 7
    assert all(abs(c) == 1 for c in p0.coeffs.values())


def test_star_phi0_matches_hodge():
    assert hodge_star(phi0()) == star_phi0()
    assert hodge_star(star_phi0()) == phi0()


def test_metric_relation_on_basis():
    p0 = phi0()
    e1 = vector_of(7, (1, 0, 0, 0, 0, 0, 0))
    from liekernel import interior

    w = wedge_all(interior(e1, p0), interior(e1, p0), p0)
    assert w == 6 * basis_form(7, *TOP7)


def test_metric_from_phi0_identity():
    res = metric_from_phi(phi0())
    assert res.exact
    assert res.gram == IDENTITY7
    assert res.vol == basis_form(7, *TOP7)


def test_metric_from_scaled_phi_floating():
    res = metric_from_phi(2 * phi0())
    assert not res.exact
    assert res.tol == 1e-12
    expected = 2.0 ** (2.0 / 3.0)
    for i in range(7):
        for j in range(7):
            target = expected if i == j else 0.0
            assert abs(res.gram[i][j] - target) < 1e-12


@pytest.mark.parametrize("c", [2, 3, Fraction(1, 2), 8])
def test_metric_vol_scale_of_scaled_phi0(c):
    """Scaling phi by c scales g by c^(2/3), so sqrt(det g) by c^(7/3)."""
    res = metric_from_phi(c * phi0())
    expected = float(c) ** (7 / 3)
    assert abs(res.vol_scale - expected) <= 1e-12 * expected
    assert res.exact == (c == 8)


def test_metric_equivariance_diagonal_and_permutation():
    d = [1, 2, Fraction(1, 2), 1, 3, 1, 2]
    diag = [[d[i] if i == j else 0 for j in range(7)] for i in range(7)]
    res = metric_from_phi(pullback(phi0(), diag))
    assert res.exact
    assert res.gram == [tuple(Fraction(d[i] * d[i]) if i == j else Fraction(0)
                              for j in range(7)) for i in range(7)]
    # even permutation (4 5)(6 7)
    perm = [1, 2, 3, 5, 4, 7, 6]
    mat = [[Fraction(int(perm[j] == i + 1)) for j in range(7)]
           for i in range(7)]
    res_p = metric_from_phi(pullback(phi0(), mat))
    assert res_p.exact and res_p.gram == IDENTITY7


def test_metric_from_phi_rejects_bad_forms():
    with pytest.raises(G2Error):
        metric_from_phi(basis_form(7, 1, 2, 3))


# -- torus decomposition ---------------------------------------------------------

def test_decompose_model_frame():
    p0, s0 = phi0(), star_phi0()
    frame = g2t2_decompose(p0, s0, (1, 0, 0, 0, 0, 0, 0),
                           (0, 1, 0, 0, 0, 0, 0), IDENTITY7)
    assert frame.h2 == 1 and frame.h == 1
    assert frame.dnu == basis_form(7, 3)
    assert frame.omega1 == (basis_form(7, 2, 3) + basis_form(7, 4, 5)
                            + basis_form(7, 6, 7))
    assert frame.theta1 == basis_form(7, 1)
    assert reconstruct_phi(frame) == p0
    assert reconstruct_star_phi(frame) == s0


def test_decompose_scaled_u():
    frame = g2t2_decompose(phi0(), star_phi0(), (2, 0, 0, 0, 0, 0, 0),
                           (0, 1, 0, 0, 0, 0, 0), IDENTITY7)
    assert frame.h == Fraction(1, 2)
    assert frame.dnu == 2 * basis_form(7, 3)
    assert reconstruct_phi(frame) == phi0()


def test_decompose_randomized_reconstruction(rng):
    p0, s0 = phi0(), star_phi0()
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
        frame = g2t2_decompose(p0, s0, u, v, IDENTITY7)
        assert reconstruct_phi(frame) == p0
        assert reconstruct_star_phi(frame) == s0
        done += 1


def test_decompose_parallel_rejected():
    with pytest.raises(G2Error):
        g2t2_decompose(phi0(), star_phi0(), (1, 0, 0, 0, 0, 0, 0),
                       (2, 0, 0, 0, 0, 0, 0), IDENTITY7)


# -- coherent triples and SU(3) structures ---------------------------------------

def test_standard_triple():
    tri = standard_hyperkahler_triple()
    assert tri.q == ((1, 0), (0, 1))
    assert tri.h == 1


def test_triple_wedge_relations():
    tri = standard_hyperkahler_triple()
    top = wedge(tri.sigma0, tri.sigma0)
    assert wedge(tri.sigma1, tri.sigma1) == top
    assert wedge(tri.sigma2, tri.sigma2) == top
    assert wedge(tri.sigma0, tri.sigma1).is_zero()
    assert wedge(tri.sigma0, tri.sigma2).is_zero()
    assert wedge(tri.sigma1, tri.sigma2).is_zero()


def test_triple_wedge_relations_nonidentity_frame():
    # h^2 s0^2 = (h^2/q11) s1^2 = (h^2/q22) s2^2 and s1 ^ s2 = q12 s0^2
    tri = _scaled_triple()
    (q11, q12), (_, q22) = tri.q
    top = wedge(tri.sigma0, tri.sigma0)
    assert wedge(tri.sigma1, tri.sigma1) == q11 * top
    assert wedge(tri.sigma2, tri.sigma2) == q22 * top
    assert wedge(tri.sigma1, tri.sigma2) == q12 * top
    assert wedge(tri.sigma0, tri.sigma1).is_zero()
    assert wedge(tri.sigma0, tri.sigma2).is_zero()
    assert tri.h * tri.h == q11 * q22 - q12 * q12


def test_triple_rejects_incoherent():
    e = lambda *ix: basis_form(4, *ix)
    with pytest.raises(G2Error):
        CoherentTripleFrame.from_forms(e(1, 2) + e(3, 4), e(1, 2), e(1, 3))
    with pytest.raises(G2Error):
        CoherentTripleFrame.from_forms(e(1, 2), e(1, 2) + e(3, 4), e(1, 3))


def test_su3_structure_model_and_scaled():
    e6 = lambda *ix: basis_form(6, *ix)
    for tri in (standard_hyperkahler_triple(), _scaled_triple()):
        st = su3_structure(tri, e6(1), e6(2))
        assert wedge(st.sigma, st.psi_plus).is_zero()
        assert wedge(st.sigma, st.psi_minus).is_zero()
        sigma_cubed = wedge_all(st.sigma, st.sigma, st.sigma)
        assert wedge(st.psi_plus, st.psi_minus) == Fraction(2, 3) * sigma_cubed


def _scaled_triple():
    e = lambda *ix: basis_form(4, *ix)
    omega1 = e(1, 2) + e(3, 4)
    omega2 = e(1, 3) - e(2, 4)
    return CoherentTripleFrame.from_forms(-(e(2, 3) + e(1, 4)),
                                          2 * omega1 + omega2, omega2)


def test_su3_structure_floating_path():
    # det Q = 2 has no rational square root; the floating path is used
    e = lambda *ix: basis_form(4, *ix)
    omega1 = e(1, 2) + e(3, 4)
    omega2 = e(1, 3) - e(2, 4)
    tri = CoherentTripleFrame.from_forms(-(e(2, 3) + e(1, 4)),
                                         omega1 + omega2, omega1 - omega2)
    assert tri.h == 2 and tri.det_q == 4  # Q = diag(2, 2) stays rational
    # genuinely irrational: sigma_1 = e12 + 2 e34 gives Q = diag(2, 1)
    tri2 = CoherentTripleFrame.from_forms(
        -(e(2, 3) + e(1, 4)), e(1, 2) + 2 * e(3, 4), omega2)
    assert tri2.det_q == 2 and tri2.h is None
    e6 = lambda *ix: basis_form(6, *ix)
    st = su3_structure(tri2, e6(1), e6(2))
    prod = wedge(st.psi_plus, st.psi_minus)
    cubed = wedge_all(st.sigma, st.sigma, st.sigma)
    for ixs, c in prod.terms():
        assert abs(c - 2.0 / 3.0 * cubed[ixs]) < 1e-12


def test_su3_structure_degenerate_q_rejected():
    tri = standard_hyperkahler_triple()
    degenerate = CoherentTripleFrame(tri.sigma0, tri.sigma1, tri.sigma2,
                                     ((1, 1), (1, 1)), None)
    e6 = lambda *ix: basis_form(6, *ix)
    with pytest.raises(G2Error):
        su3_structure(degenerate, e6(1), e6(2))


def test_halfflat_condition():
    assert halfflat_condition(((0, 1), (0, 0)), ((1, 0), (0, 1)))
    assert halfflat_condition(((1, 2), (3, -1)), ((1, 0), (0, 1)))
    assert not halfflat_condition(((1, 0), (0, 1)), ((1, 0), (0, 1)))
    # non-identity Q: Tr(FQ) = 0 picks out different F
    assert halfflat_condition(((2, 0), (0, -1)), ((1, 0), (0, 2)))
    with pytest.raises(G2Error):
        halfflat_condition(((0, 1), (0, 0)), ((0, 0), (0, 1)))


# -- closed-form flow -------------------------------------------------------------

def test_closed_form_example():
    st = flow_closed_form(((0, 1), (0, 0)), Fraction(1, 2))
    assert st.A == ((-1, 0), (0, 0))
    assert st.M == ((Fraction(1, 2), 0), (0, 1))
    assert st.Q == ((Fraction(1, 4), 0), (0, 1))
    assert st.h == Fraction(1, 2)


def test_closed_form_t0_is_identity():
    for f_mat in TRACE_FREE:
        st = flow_closed_form(f_mat, 0)
        assert st.Q == ((1, 0), (0, 1)) and st.h == 1


def test_closed_form_q11_derivative():
    # q11'(t) = 2(alpha^2 + a^2) t - 2a for F = (alpha a; b -alpha)
    t = sympy.Symbol("t")
    for alpha, a, b in [(1, 2, 3), (0, 1, 0), (2, -1, 1)]:
        f_mat = ((alpha, a), (b, -alpha))
        a_mat = sympy.Matrix(f_mat) * sympy.Matrix([[0, 1], [-1, 0]])
        q = (sympy.eye(2) + t * a_mat) * (sympy.eye(2) + t * a_mat).T
        assert sympy.expand(sympy.diff(q[0, 0], t)
                            - (2 * (alpha ** 2 + a ** 2) * t - 2 * a)) == 0


def test_closed_form_interval_errors():
    with pytest.raises(FlowError):
        flow_closed_form(((0, 1), (0, 0)), 1)
    with pytest.raises(FlowError):
        flow_closed_form(((0, 1), (0, 0)), 2)
    # det A > 0 with a dip: h(s) = (1-2s)^2 vanishes at 1/2 only
    f_mat = ((0, 2), (-2, 0))
    with pytest.raises(FlowError):
        flow_closed_form(f_mat, Fraction(3, 4))


def test_max_interval():
    assert max_interval(((0, 1), (0, 0))) == (-math.inf, 1.0)
    lo, hi = max_interval(((1, 0), (0, -1)))
    assert (lo, hi) == (-1.0, 1.0)
    lo, hi = max_interval(((0, 0), (0, 0)))
    assert lo == -math.inf and hi == math.inf
    # two roots on one side: the interval ends at the one nearer 0
    assert max_interval(((0, -1), (2, 0))) == (-0.5, math.inf)
    assert max_interval(((0, 1), (-2, 0))) == (-math.inf, 0.5)


def test_h_equals_det_q_sqrt_closed_form():
    for f_mat in TRACE_FREE:
        for t in (Fraction(1, 4), Fraction(-1, 5)):
            st = flow_closed_form(f_mat, t)
            assert st.h * st.h == st.Q[0][0] * st.Q[1][1] - st.Q[0][1] ** 2


# -- RK4 ---------------------------------------------------------------------------

def test_rk4_matches_closed_form():
    for f_mat in TRACE_FREE[:3]:
        traj = flow_integrate(f_mat, 0.9 * _pos_boundary(f_mat), 1e-3)
        cf = flow_closed_form(
            f_mat, Fraction(traj.final.t).limit_denominator(10 ** 12))
        errs = [abs(traj.final.Q[i][j] - float(cf.Q[i][j]))
                for i in range(2) for j in range(2)]
        errs.append(abs(traj.final.h - float(cf.h)))
        assert max(errs) < 1e-8
        assert traj.h2_detq_residual() < 1e-10


def _pos_boundary(f_mat):
    hi = max_interval(f_mat)[1]
    return hi if math.isfinite(hi) else 1.0


def test_rk4_constant_for_zero_curvature():
    traj = flow_integrate(((0, 0), (0, 0)), 1.0, 1e-2)
    assert traj.h2_detq_residual() == 0
    assert traj.final.Q == ((1.0, 0.0), (0.0, 1.0))
    assert traj.final.h == 1.0


def test_rk4_takes_ceil_uniform_steps():
    traj = flow_integrate(((0, 1), (0, 0)), 0.9, 1e-4)
    times = [s[0] for s in traj.samples]
    assert len(times) == 9001  # 9 000 steps, no trailing sliver
    widths = [b - a for a, b in zip(times, times[1:])]
    assert max(widths) - min(widths) < 1e-15
    assert abs(times[-1] - 0.9) < 1e-12


@pytest.mark.parametrize("t_end, step, n", [
    (0.07, 0.01, 7), (2.7, 0.3, 9), (1.1, 0.1, 11), (0.3, 0.1, 3),
    (0.25, 0.1, 3),
])
def test_rk4_step_count_ignores_quotient_rounding(t_end, step, n):
    # 0.07 / 0.01 and 2.7 / 0.3 round just above 7 and 9
    times = []
    rk4_integrate(lambda t, y: [0.0], [1.0], t_end, step,
                  lambda t, y: times.append(t))
    assert len(times) == n


@pytest.mark.parametrize("t_end, step", [
    (math.inf, 1e-3), (-math.inf, 1e-3), (math.nan, 1e-3), (1.0, math.nan),
    (1.0, math.inf), (1.0, 0.0), (1.0, -1e-3), (1e9, 1e-3), (1.0, 1e-300),
])
def test_rk4_rejects_bad_inputs(t_end, step):
    def rhs(t, y):
        raise AssertionError("bad input reached the first step")

    with pytest.raises(FlowError):
        rk4_integrate(rhs, [1.0], t_end, step)


def test_rk4_interval_violation_detected():
    with pytest.raises(FlowError):
        flow_integrate(((0, 1), (0, 0)), 1.5, 1e-3)


def test_rk4_is_exact_on_the_flow_in_rational_arithmetic():
    """One exact-arithmetic RK4 step lands exactly on the closed form.

    This is the reason the step-halving study on the flow itself bottoms
    out at roundoff; the observed order is then reported as infinite.
    """
    for f_mat in TRACE_FREE:
        f = [[Fraction(x) for x in row] for row in f_mat]
        j2 = [[Fraction(0), Fraction(1)], [Fraction(-1), Fraction(0)]]

        def mul(x, y):
            return [[sum(x[i][k] * y[k][j] for k in range(2))
                     for j in range(2)] for i in range(2)]

        a = mul(f, j2)

        def rhs(s):
            m = [[s[0], s[1]], [s[2], s[3]]]
            q11, q12, q22, h = s[4], s[5], s[6], s[7]
            mf = mul(m, f)
            return [-f[0][1], -f[1][1], f[0][0], f[1][0],
                    -2 * mf[0][1], mf[0][0] - mf[1][1], 2 * mf[1][0],
                    (q11 * mf[1][0] - q12 * mf[0][0] + q12 * mf[1][1]
                     - q22 * mf[0][1]) / h]

        y = [Fraction(1), Fraction(0), Fraction(0), Fraction(1),
             Fraction(1), Fraction(0), Fraction(1), Fraction(1)]
        step = Fraction(1, 5)
        k1 = rhs(y)
        k2 = rhs([y[i] + step / 2 * k1[i] for i in range(8)])
        k3 = rhs([y[i] + step / 2 * k2[i] for i in range(8)])
        k4 = rhs([y[i] + step * k3[i] for i in range(8)])
        y = [y[i] + step / 6 * (k1[i] + 2 * k2[i] + 2 * k3[i] + k4[i])
             for i in range(8)]
        cf = flow_closed_form(f_mat, step)
        assert (y[4], y[5], y[6]) == (cf.Q[0][0], cf.Q[0][1], cf.Q[1][1])
        assert y[7] == cf.h


def test_flow_order_study_roundoff_limited():
    for f_mat in TRACE_FREE[:3]:
        study = flow_order_study(f_mat, 0.9 * _pos_boundary(f_mat), 0.05)
        assert study.observed_order >= 3.9
        assert study.roundoff_limited
        assert max(study.errors) < 1e-12


def test_rk4_stepper_selftest_order():
    study = rk4_stepper_order_selftest()
    assert not study.roundoff_limited
    assert study.observed_order >= 3.9
    assert all(o >= 3.9 for o in study.orders)


def test_completeness_classification():
    assert completeness_classify(((0, 0), (0, 0))) == "complete"
    assert completeness_classify(((0, 1), (0, 0))) == "half_complete"
    assert completeness_classify(((0, 1), (1, 0))) == "neither"
    # 9-point grid over (a, b) with alpha = 0: A = (-a, 0; 0, b)
    for a in (-1, 0, 1):
        for b in (-1, 0, 1):
            f_mat = ((0, a), (b, 0))
            verdict = completeness_classify(f_mat)
            det_a = -a * b
            if a == 0 and b == 0:
                assert verdict == "complete"
            elif det_a >= 0:
                assert verdict == "half_complete"
            else:
                assert verdict == "neither"


# -- DGA ----------------------------------------------------------------------------

def test_dga_reduces_to_phi0_at_time_zero():
    dga = FlowDGA(((0, 1), (0, 0)))
    assert dga.at_time(dga.phi(), 0) == phi0()
    assert dga.at_time(dga.star_phi(), 0) == star_phi0()


def test_dga_d_squared_zero(rng):
    dga = FlowDGA(((1, 2), (3, -1)))
    from conftest import random_form

    for _ in range(10):
        f = random_form(rng, 7, rng.randint(1, 4)).map_coeffs(
            lambda c: Poly([c, c]))
        assert dga.d(dga.d(f)).is_zero()


def test_dga_torsion_free_certificates():
    for f_mat in TRACE_FREE + [((0, 0), (0, 0))]:
        cert = dga_verify_torsion_free(f_mat)
        assert cert.d_phi_zero and cert.d_star_phi_zero, f_mat


def test_dga_trace_violation_detected():
    cert = dga_verify_torsion_free(((1, 0), (0, 1)))
    assert not cert.d_phi_zero
    assert not cert.d_phi.is_zero()


def test_dga_evolution_identities():
    for f_mat in TRACE_FREE:
        ids = dga_evolution_identities(f_mat)
        assert all(ids.values()), (f_mat, ids)


def test_dga_h_squared_is_det_q():
    dga = FlowDGA(((1, 2), (3, -1)))
    (q11, q12), (_, q22) = dga.q
    assert dga.h * dga.h == q11 * q22 - q12 * q12
