"""Pointwise G2/SU(3) identities and the symplectic-triple flow.

The flow reduction lives on a four-manifold carrying three wedge-orthogonal
symplectic forms; with curvature coefficients frozen in the initial frame
(dTheta = (Omega_1, Omega_2) F) the evolution collapses to an ODE for the
coefficient matrix M(t), the wedge matrix Q(t) = M M^T and the conformal
factor h(t).  The closed-form solution is M = 1 + tA with A = F J, and a
polynomial-coefficient exterior algebra certifies d phi = 0 = d *phi as
identities in t.

Naming: F is always the matrix of curvature coefficients in the frozen
frame and A = F J its symplectic twist; the two are kept distinct because
conflating them is an easy sign trap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
import math

from .cohomology import extend_as_derivation
from .errors import DimensionMismatch, FlowError, G2Error
from .exterior import (KForm, basis_form, covector_of, interior,
                       vector_of, wedge, wedge_all)
from . import linalg
from .linalg import is_positive_definite, rational_root


# -- polynomials in t over Q (the DGA coefficient ring) -----------------------

class Poly:
    """Dense univariate polynomial with Fraction coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((Fraction(c),))

    @classmethod
    def t(cls) -> "Poly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.const(1)
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def deriv(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, t):
        out = 0
        for c in reversed(self.coeffs):
            out = out * t + c
        return out

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        body = " + ".join(f"{c}*t^{i}" if i else str(c)
                          for i, c in enumerate(self.coeffs) if c)
        return f"Poly({body})"


# -- the model three-form and its star ----------------------------------------

def phi0() -> KForm:
    """The standard positive three-form on R^7."""
    e = lambda *ix: basis_form(7, *ix)
    return (e(1, 2, 3)
            + wedge(e(1), e(4, 5) + e(6, 7))
            + wedge(e(2), e(4, 6) - e(5, 7))
            - wedge(e(3), e(4, 7) + e(5, 6)))


def star_phi0() -> KForm:
    e = lambda *ix: basis_form(7, *ix)
    return (e(4, 5, 6, 7)
            + wedge(e(2, 3), e(6, 7) + e(4, 5))
            + wedge(e(1, 3), e(5, 7) - e(4, 6))
            - wedge(e(1, 2), e(5, 6) + e(4, 7)))


@dataclass
class MetricResult:
    gram: list
    vol: KForm | None
    exact: bool
    vol_scale: object
    tol: float | None = None


def metric_from_phi(phi: KForm) -> MetricResult:
    """Recover the metric of a G2 three-form from the volume relation.

    B_ij is the e_{1..7} coefficient of (E_i -| phi)^(E_j -| phi)^phi and
    B = 6 g sqrt(det g).  Hence (det B / 6^7)^{1/9} = sqrt(det g) is the
    volume scale and g = B / (6 sqrt(det g)).  B is a positive multiple of
    g, so the form is of G2 type exactly when B is positive-definite.  The
    ninth root is taken exactly when rational, otherwise the result is
    floating with relative tolerance 1e-12.
    """
    if phi.n != 7 or phi.k != 3:
        raise DimensionMismatch("expected a three-form on R^7")
    contractions = [interior(vector_of(7, u), phi) for u in linalg.identity(7)]
    top = (1, 2, 3, 4, 5, 6, 7)
    b = [[wedge_all(contractions[i], contractions[j], phi)[top]
          for j in range(7)] for i in range(7)]
    if not is_positive_definite(b):
        raise G2Error("B is not positive-definite: form is not of G2 type")
    ratio = linalg.det(b) / 6 ** 7
    root = rational_root(ratio, 9)
    if root is not None:
        gram = [tuple(x / (6 * root) for x in row) for row in b]
        return MetricResult(gram, root * basis_form(7, *top), True, root)
    root = float(ratio) ** (1.0 / 9.0)
    gram = [tuple(float(x) / (6.0 * root) for x in row) for row in b]
    return MetricResult(gram, None, False, root, tol=1e-12)


# -- the T^2 frame of a G2 form ------------------------------------------------

@dataclass
class G2Frame:
    h2: Fraction
    h: object
    theta1: KForm
    theta2: KForm
    omega0: KForm
    omega1: KForm
    omega2: KForm
    dnu: KForm
    g_uu: Fraction
    g_vv: Fraction
    g_uv: Fraction


def g2t2_decompose(phi: KForm, star_phi: KForm, u, v, gram) -> G2Frame:
    """Split a G2 three-form along two independent directions.

    Produces the conformal factor, connection covectors and the three
    two-forms of the torus reduction; the reconstruction identities of
    the split are exact in these data.
    """
    n = 7
    u = linalg.vec(u)
    v = linalg.vec(v)
    gram = [tuple(map(Fraction, row)) for row in gram]
    gu = linalg.mat_vec(gram, u)
    gv = linalg.mat_vec(gram, v)
    g_uu = linalg.dot(u, gu)
    g_vv = linalg.dot(v, gv)
    g_uv = linalg.dot(u, gv)
    denom = g_uu * g_vv - g_uv * g_uv
    if denom == 0:
        raise G2Error("U and V are parallel: h is undefined")
    h2 = 1 / denom
    root = rational_root(h2, 2)
    h = root if root is not None else float(h2) ** 0.5
    ub = covector_of(n, gu)
    vb = covector_of(n, gv)
    theta1 = h2 * (g_vv * ub - g_uv * vb)
    theta2 = h2 * (g_uu * vb - g_uv * ub)
    uu = vector_of(n, u)
    vv = vector_of(n, v)
    omega1 = interior(uu, phi)
    omega2 = interior(vv, phi)
    dnu = interior(vv, omega1)
    omega0 = interior(vv, interior(uu, star_phi))
    return G2Frame(h2, h, theta1, theta2, omega0, omega1, omega2, dnu,
                   g_uu, g_vv, g_uv)


def reconstruct_phi(f: G2Frame) -> KForm:
    return (f.h2 * wedge(f.omega0, f.dnu)
            + wedge(f.omega1, f.theta1)
            + wedge(f.omega2, f.theta2)
            + wedge_all(f.dnu, f.theta2, f.theta1))


def reconstruct_star_phi(f: G2Frame) -> KForm:
    return (wedge_all(f.omega0, f.theta1, f.theta2)
            + f.h2 * (f.g_vv * wedge_all(f.omega1, f.theta2, f.dnu)
                      - f.g_uu * wedge_all(f.omega2, f.theta1, f.dnu)
                      + f.g_uv * wedge(wedge(f.omega1, f.theta1)
                                       - wedge(f.omega2, f.theta2), f.dnu)
                      + Fraction(1, 2) * wedge(f.omega0, f.omega0)))


# -- coherent symplectic triples ----------------------------------------------

@dataclass
class CoherentTripleFrame:
    """Three two-forms on R^4 with sigma_0 ^ sigma_i = 0 and positive Q."""

    sigma0: KForm
    sigma1: KForm
    sigma2: KForm
    q: tuple  # ((q11, q12), (q12, q22))
    h: Fraction | None  # sqrt(det q) when rational

    @classmethod
    def from_forms(cls, sigma0: KForm, sigma1: KForm, sigma2: KForm):
        top = (1, 2, 3, 4)
        if any(s.n != 4 or s.k != 2 for s in (sigma0, sigma1, sigma2)):
            raise DimensionMismatch("triple forms must be two-forms on R^4")
        vol2 = wedge(sigma0, sigma0)[top]
        if vol2 == 0:
            raise G2Error("sigma_0 is degenerate")
        for s in (sigma1, sigma2):
            if wedge(sigma0, s)[top] != 0:
                raise G2Error("sigma_0 ^ sigma_i != 0: triple is not coherent")
        q11 = wedge(sigma1, sigma1)[top] / vol2
        q22 = wedge(sigma2, sigma2)[top] / vol2
        q12 = wedge(sigma1, sigma2)[top] / vol2
        det_q = q11 * q22 - q12 * q12
        if q11 <= 0 or det_q <= 0:
            raise G2Error("wedge matrix is not positive-definite")
        return cls(sigma0, sigma1, sigma2, ((q11, q12), (q12, q22)),
                   rational_root(det_q, 2))

    @property
    def det_q(self) -> Fraction:
        (q11, q12), (_, q22) = self.q
        return q11 * q22 - q12 * q12


def standard_hyperkahler_triple() -> CoherentTripleFrame:
    """The flat model with Q the identity: wedge-orthonormal triple."""
    e = lambda *ix: basis_form(4, *ix)
    return CoherentTripleFrame.from_forms(
        -(e(2, 3) + e(1, 4)), e(1, 2) + e(3, 4), e(1, 3) - e(2, 4))


def lift_base_form(form: KForm, n: int, shift: int) -> KForm:
    """Reindex a base form into a larger space, indices moved up by shift."""
    out = {}
    for ixs, c in form.terms():
        out[tuple(i + shift for i in ixs)] = c
    return KForm.from_terms(n, out, form.k)


@dataclass
class SU3Structure:
    sigma: KForm
    psi_plus: KForm
    psi_minus: KForm


def su3_structure(triple: CoherentTripleFrame, theta1: KForm,
                  theta2: KForm) -> SU3Structure:
    """SU(3) forms on the total space from a triple and connection forms.

    Indices 1, 2 of the six-dimensional space are the fibre directions,
    3..6 the base.  Satisfies sigma ^ psi_+ = 0 = sigma ^ psi_- and
    psi_+ ^ psi_- = (2/3) sigma^3 (normalisation of the flat model).
    """
    if theta1.n != 6 or theta2.n != 6 or theta1.k != 1 or theta2.k != 1:
        raise DimensionMismatch("theta_i must be one-forms on R^6")
    if triple.det_q == 0:
        raise G2Error("degenerate Q")
    s0 = lift_base_form(triple.sigma0, 6, 2)
    s1 = lift_base_form(triple.sigma1, 6, 2)
    s2 = lift_base_form(triple.sigma2, 6, 2)
    h = triple.h
    if h is None:  # sqrt(det Q) is irrational: the forms become floating
        h = float(triple.det_q) ** 0.5
        s0, s1, s2, theta1, theta2 = (
            f.map_coeffs(float) for f in (s0, s1, s2, theta1, theta2))
    hinv = 1 / h
    (q11, q12), (_, q22) = triple.q
    sigma = h * s0 + hinv * wedge(theta1, theta2)
    psi_plus = wedge(s1, theta1) + wedge(s2, theta2)
    psi_minus = hinv * (q22 * wedge(s1, theta2) - q11 * wedge(s2, theta1)
                        + q12 * (wedge(s1, theta1) - wedge(s2, theta2)))
    return SU3Structure(sigma, psi_plus, psi_minus)


# -- flow matrices -------------------------------------------------------------

J2 = ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0)))


def mat2(rows):
    (a, b), (c, d) = rows
    return ((Fraction(a), Fraction(b)), (Fraction(c), Fraction(d)))


def mat2_mul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2))
        for i in range(2))


def mat2_det(x):
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def mat2_tr(x):
    return x[0][0] + x[1][1]


def halfflat_condition(f_mat, q_mat) -> bool:
    """Half-flatness of the induced SU(3) structure: Tr(F Q) = 0."""
    f_mat = mat2(f_mat)
    q_mat = mat2(q_mat)
    if not is_positive_definite([list(r) for r in q_mat]):
        raise G2Error("Q must be positive-definite")
    return mat2_tr(mat2_mul(f_mat, q_mat)) == 0


@dataclass
class FlowState:
    t: object
    F: tuple
    A: tuple
    M: tuple
    Q: tuple
    h: object


def _curvature_twist(f_mat) -> tuple:
    return mat2_mul(mat2(f_mat), J2)


def _h_poly(a_mat) -> Poly:
    """det(1 + tA) = det(A) t^2 + Tr(A) t + 1."""
    return Poly((1, mat2_tr(a_mat), mat2_det(a_mat)))


def _interval_contains(a_mat, t: Fraction) -> bool:
    """Is [0, t] free of zeros of det(1 + sA)?"""
    h = _h_poly(a_mat)
    if h(t) <= 0:
        return False
    det_a = mat2_det(a_mat)
    if det_a > 0:
        vertex = -mat2_tr(a_mat) / (2 * det_a)
        between = (0 < vertex < t) if t > 0 else (t < vertex < 0)
        if between and h(vertex) <= 0:
            return False
    return True


def max_interval(f_mat) -> tuple[float, float]:
    """Maximal interval around 0 with det(1 + tA) nonzero, as floats."""
    a = _curvature_twist(f_mat)
    det_a, tr_a = float(mat2_det(a)), float(mat2_tr(a))
    disc = tr_a * tr_a - 4.0 * det_a
    if det_a == 0:
        roots = [-1.0 / tr_a] if tr_a else []
    else:
        roots = [(-tr_a + s * math.sqrt(disc)) / (2.0 * det_a)
                 for s in (-1.0, 1.0)] if disc >= 0 else []
    # det(1 + 0A) = 1, so no root is 0
    return (max((r for r in roots if r < 0), default=-math.inf),
            min((r for r in roots if r > 0), default=math.inf))


def flow_closed_form(f_mat, t) -> FlowState:
    """Exact state of the constant-curvature solution at time t."""
    f_mat = mat2(f_mat)
    a = _curvature_twist(f_mat)
    t = Fraction(t)
    if not _interval_contains(a, t):
        raise FlowError(f"t = {t} lies outside the maximal interval")
    m = tuple(
        tuple(Fraction(int(i == j)) + t * a[i][j] for j in range(2))
        for i in range(2))
    mt = ((m[0][0], m[1][0]), (m[0][1], m[1][1]))
    q = mat2_mul(m, mt)
    return FlowState(t, f_mat, a, m, q, mat2_det(m))


def completeness_classify(f_mat) -> str:
    """Metric completeness of the closed-form solution from A = F J."""
    a = _curvature_twist(f_mat)
    if all(x == 0 for row in a for x in row):
        return "complete"
    return "half_complete" if mat2_det(a) >= 0 else "neither"


@dataclass
class FlowTrajectory:
    F: tuple
    A: tuple
    samples: list  # (t, q11, q12, q22, h) at t = 0 and after each step
    final: FlowState

    def h2_detq_residual(self) -> float:
        return max(abs(h * h - (a * c - b * b)) for _, a, b, c, h in self.samples)


MAX_STEPS = 10 ** 6


def rk4_integrate(rhs, y0, t_end: float, step: float, on_step=None):
    """Classical RK4 over [0, t_end] in n = ceil(|t_end| / step) equal steps.

    The state is a list of floats.  Raises FlowError unless t_end and step
    are finite, step is positive and n is at most MAX_STEPS.
    """
    if not (math.isfinite(t_end) and 0 < step < math.inf):
        raise FlowError("t_end must be finite, step finite and positive")
    q = abs(t_end) / step
    if q > MAX_STEPS:
        raise FlowError(f"|t_end| / step exceeds the cap of {MAX_STEPS} steps")
    # ceil(q), but q a few ulps over an integer (0.07 / 0.01) is rounding
    n = round(q) + (q - round(q) > 4 * math.ulp(q))
    dt = t_end / n if n else 0.0
    half, sixth = 0.5 * dt, dt / 6.0
    y = [float(v) for v in y0]
    for i in range(n):
        t = i * dt
        k1 = rhs(t, y)
        k2 = rhs(t + half, [a + half * b for a, b in zip(y, k1)])
        k3 = rhs(t + half, [a + half * b for a, b in zip(y, k2)])
        k4 = rhs(t + dt, [a + dt * b for a, b in zip(y, k3)])
        y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
        if on_step is not None:
            on_step(t + dt, y)
    return y


def _flow_rhs(f):
    (f11, f12), (f21, f22) = f
    dm = [-f12, -f22, f11, f21]

    def rhs(_t, y):
        m11, m12, m21, m22, q11, q12, q22, h = y
        mf11, mf12 = m11 * f11 + m12 * f21, m11 * f12 + m12 * f22
        mf21, mf22 = m21 * f11 + m22 * f21, m21 * f12 + m22 * f22
        return dm + [-2.0 * mf12, mf11 - mf22, 2.0 * mf21,
                     (q11 * mf21 - q12 * mf11 + q12 * mf22 - q22 * mf12) / h]
    return rhs


def flow_integrate(f_mat, t_end: float, step: float) -> FlowTrajectory:
    """Fixed-step RK4 on the reduced system (M, Q, h).

    M' comes from sigma_1' = -d theta_2, sigma_2' = d theta_1 with the
    curvature frozen in the initial frame; q' and h' from the wedge-matrix
    evolution.  Raises FlowError if det M changes sign along the way or
    the state overflows.
    """
    f, a = mat2(f_mat), _curvature_twist(f_mat)
    samples = [(0.0, 1.0, 0.0, 1.0, 1.0)]

    def on_step(t, y):
        det_m = y[0] * y[3] - y[1] * y[2]
        if det_m <= 0:
            raise FlowError(f"det M changed sign near t = {t}: left the "
                            "maximal interval")
        samples.append((t, y[4], y[5], y[6], y[7]))

    y0 = [1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]
    try:
        y = rk4_integrate(_flow_rhs([[float(x) for x in row] for row in f]),
                          y0, t_end, step, on_step)
    except ZeroDivisionError:  # an RK4 stage landed on h = det M = 0
        raise FlowError(f"det M reached 0 after t = {samples[-1][0]}: left "
                        "the maximal interval") from None
    t = samples[-1][0]
    if not all(map(math.isfinite, y)):  # inf and nan never turn finite again
        raise FlowError(f"the state left the float range by t = {t}")
    m = ((y[0], y[1]), (y[2], y[3]))
    q = ((y[4], y[5]), (y[5], y[6]))
    return FlowTrajectory(f, a, samples, FlowState(t, f, a, m, q, y[7]))


@dataclass
class OrderStudy:
    steps: list
    errors: list
    orders: list
    observed_order: float
    roundoff_limited: bool


_ROUNDOFF_FLOOR = 1e-13


def _order_study(steps: list, errors: list) -> OrderStudy:
    """Orders log2(e_i / e_{i+1}) of the pairs with both errors above roundoff."""
    orders = [math.log2(e1 / e2) for e1, e2 in zip(errors, errors[1:])
              if e1 > _ROUNDOFF_FLOOR and e2 > _ROUNDOFF_FLOOR]
    if orders:
        return OrderStudy(steps, errors, orders, min(orders), False)
    return OrderStudy(steps, errors, [], math.inf, True)


def flow_order_study(f_mat, t_end: float, base_step: float,
                     halvings: int = 3) -> OrderStudy:
    """Step-halving study of flow_integrate against the closed form.

    The reduced constant-curvature system happens to be integrated by RK4
    with zero truncation error (an algebraic identity of this right-hand
    side, checked in exact rational arithmetic in the test suite), so on
    the flow itself the study typically bottoms out at roundoff; the
    observed order is then reported as infinite and flagged.
    """
    steps = [base_step / 2 ** i for i in range(halvings + 1)]
    cf = flow_closed_form(mat2(f_mat), Fraction(t_end).limit_denominator(10 ** 14))
    target = [float(x) for x in (cf.Q[0][0], cf.Q[0][1], cf.Q[1][1], cf.h)]
    errors = []
    for s in steps:
        fs = flow_integrate(f_mat, t_end, s).final
        got = (fs.Q[0][0], fs.Q[0][1], fs.Q[1][1], fs.h)
        errors.append(max(abs(g - x) for g, x in zip(got, target)))
    return _order_study(steps, errors)


def rk4_stepper_order_selftest(base_step: float = 0.1,
                               halvings: int = 3) -> OrderStudy:
    """Observed order of the shared stepper on y' = cos(t) y over [0, 2].

    This right-hand side has genuine truncation error, so it certifies
    the fourth-order behaviour of the exact same code path used by
    flow_integrate even when the flow itself is integrated exactly.
    """
    def rhs(t, y):
        return [math.cos(t) * y[0]]

    target = math.exp(math.sin(2.0))
    steps = [base_step / 2 ** i for i in range(halvings + 1)]
    errors = [abs(rk4_integrate(rhs, [1.0], 2.0, s)[0] - target)
              for s in steps]
    return _order_study(steps, errors)


# -- the polynomial-coefficient DGA --------------------------------------------

class FlowDGA:
    """Exterior calculus over Q[t] for the constant-curvature flow.

    Generators: e1 = theta_1, e2 = theta_2, e3 = dt, e4..e7 a base coframe.
    The base two-forms sigma_0, Omega_1, Omega_2 are concrete so all wedge
    relations hold automatically; the differential acts by d theta_j =
    Omega_1 F_1j + Omega_2 F_2j, d(dt) = 0, d e_i = 0 on base covectors,
    plus f(t) omega -> f'(t) dt ^ omega on coefficients.
    """

    N = 7

    def __init__(self, f_mat):
        self.f = mat2(f_mat)
        self.a = _curvature_twist(self.f)
        e = lambda *ix: basis_form(7, *ix).map_coeffs(Poly.const)
        self.theta1 = e(1)
        self.theta2 = e(2)
        self.dt = e(3)
        self.sigma0 = -(e(5, 6) + e(4, 7))
        self.omega1 = e(4, 5) + e(6, 7)
        self.omega2 = e(4, 6) - e(5, 7)
        zero2 = KForm.zero(7, 2)
        self._images = [
            self.omega1 * self.f[0][0] + self.omega2 * self.f[1][0],
            self.omega1 * self.f[0][1] + self.omega2 * self.f[1][1],
            zero2, zero2, zero2, zero2, zero2,
        ]
        tp = Poly.t()
        self.m = tuple(
            tuple(Poly.const(int(i == j)) + tp * self.a[i][j] for j in range(2))
            for i in range(2))
        self.q = mat2_mul(self.m, ((self.m[0][0], self.m[1][0]),
                                   (self.m[0][1], self.m[1][1])))
        self.h = (self.m[0][0] * self.m[1][1] - self.m[0][1] * self.m[1][0])
        self.sigma1 = self.omega1 * self.m[0][0] + self.omega2 * self.m[0][1]
        self.sigma2 = self.omega1 * self.m[1][0] + self.omega2 * self.m[1][1]
        for i, img in enumerate(self._images):
            if not self.spatial_d(img).is_zero():
                raise G2Error(f"d^2 e_{i+1} != 0: DGA configuration bug")

    def spatial_d(self, form: KForm) -> KForm:
        return extend_as_derivation(self._images, form, 2)

    def t_derivative(self, form: KForm) -> KForm:
        return form.map_coeffs(lambda p: p.deriv() if isinstance(p, Poly)
                               else Poly())

    def d(self, form: KForm) -> KForm:
        return wedge(self.dt, self.t_derivative(form)) + self.spatial_d(form)

    # forms of the evolving structure (sigma and psi_- need 1/h, so the
    # polynomial calculus carries h*sigma and h*psi_- instead)
    def h_sigma(self) -> KForm:
        return self.sigma0 * (self.h * self.h) + wedge(self.theta1, self.theta2)

    def h_psi_minus(self) -> KForm:
        (q11, q12), (_, q22) = self.q
        return (wedge(self.sigma1, self.theta2) * q22
                - wedge(self.sigma2, self.theta1) * q11
                + (wedge(self.sigma1, self.theta1)
                   - wedge(self.sigma2, self.theta2)) * q12)

    def psi_plus(self) -> KForm:
        return wedge(self.sigma1, self.theta1) + wedge(self.sigma2, self.theta2)

    def half_sigma_squared(self) -> KForm:
        s0s0 = wedge(self.sigma0, self.sigma0)
        return (s0s0 * (self.h * self.h) * Fraction(1, 2)
                + wedge_all(self.sigma0, self.theta1, self.theta2))

    def phi(self) -> KForm:
        return wedge(self.h_sigma(), self.dt) + self.psi_plus()

    def star_phi(self) -> KForm:
        return wedge(self.h_psi_minus(), self.dt) + self.half_sigma_squared()

    def at_time(self, form: KForm, t) -> KForm:
        t = Fraction(t)
        return form.map_coeffs(lambda p: p(t) if isinstance(p, Poly)
                               else Fraction(p))


@dataclass
class TorsionFreeCertificate:
    d_phi_zero: bool
    d_star_phi_zero: bool
    d_phi: KForm
    d_star_phi: KForm


def dga_verify_torsion_free(f_mat) -> TorsionFreeCertificate:
    """Check d phi = 0 and d *phi = 0 as polynomial identities in t."""
    dga = FlowDGA(f_mat)
    dphi = dga.d(dga.phi())
    dstar = dga.d(dga.star_phi())
    return TorsionFreeCertificate(dphi.is_zero(), dstar.is_zero(), dphi, dstar)


def dga_evolution_identities(f_mat) -> dict:
    """The two flow identities as exact polynomial statements."""
    dga = FlowDGA(f_mat)
    lhs1 = dga.t_derivative(dga.psi_plus())
    rhs1 = dga.spatial_d(dga.h_sigma())
    lhs2 = dga.t_derivative(dga.half_sigma_squared())
    rhs2 = -dga.spatial_d(dga.h_psi_minus())
    return {
        "psi_plus_prime_is_d_h_sigma": lhs1 == rhs1,
        "half_sigma_sq_prime_is_minus_d_h_psi_minus": lhs2 == rhs2,
    }
