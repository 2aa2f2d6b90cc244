"""Classification-table families, graded extensions, and fixture algebras.

Family constructors reproduce the three- and four-dimensional tables with
their side constraints enforced exactly; parameter values are substituted
numerically before parsing so the tuple grammar never needs coefficient
arithmetic.  Also houses the su(2), su(3), u(2) fixtures with integer
structure constants and the shipped fixture corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
import math

from .cohomology import betti, is_23_trivial
from .errors import AdmissibilityError, LieKernelError
from .liealg import LieAlgebra
from .parser import (instantiate, load_lie_file, parse_algebra, parse_lie_text,
                     serialize)


def _fmt(q: Fraction) -> str:
    return str(Fraction(q))


def _coef(q: Fraction, idx: str) -> str:
    q = Fraction(q)
    if q == 1:
        return idx
    if q == -1:
        return f"-{idx}"
    return f"{_fmt(q)}.{idx}"


def _sum(*parts: str) -> str:
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


def _adm_interval(x: Fraction) -> bool:
    return Fraction(-1) < x <= 1 and x != 0


def _family_text(name: str, p: dict) -> str:
    l = p.get("l")
    m = p.get("m")
    if name == "r3":
        return "(0,21+31,31)"
    if name == "r3l":
        return f"(0,21,{_coef(l, '31')})"
    if name == "r3pl":
        return f"(0,{_sum(_coef(l, '21'), '31')},{_sum('-21', _coef(l, '31'))})"
    if name == "r4":
        return "(0,21+31,31+41,41)"
    if name == "r4l":
        return f"(0,21,{_sum(_coef(l, '31'), '41')},{_coef(l, '41')})"
    if name == "r4ml":
        return f"(0,21,{_coef(m, '31')},{_coef(l, '41')})"
    if name == "r4pml":
        return (f"(0,{_coef(m, '21')},{_sum(_coef(l, '31'), '41')},"
                f"{_sum('-31', _coef(l, '41'))})")
    if name == "d4l":
        return f"(0,{_coef(l, '21')},{_coef(1 - l, '31')},41+32)"
    if name == "d4pl":
        return (f"(0,{_sum(_coef(l, '21'), '31')},{_sum('-21', _coef(l, '31'))},"
                f"{_sum(_coef(2 * l, '41'), '32')})")
    if name == "h4":
        return "(0,21+31,31,2.41+32)"
    raise AdmissibilityError(f"unknown family {name!r}")


def _admissibility(name: str, p: dict) -> str | None:
    """None when admissible, else the violated constraint."""
    l = p.get("l")
    m = p.get("m")
    if name in ("r3", "r4", "h4"):
        return None if not p else f"{name} takes no parameters"
    if name == "r3l":
        return None if _adm_interval(l) else "lambda must lie in (-1,1] \\ {0}"
    if name in ("r3pl", "d4pl"):
        return None if l > 0 else "lambda must be positive"
    if name == "r4l":
        return None if l not in (-1, Fraction(-1, 2), 0) else \
            "lambda must avoid -1, -1/2, 0"
    if name == "r4ml":
        if not (_adm_interval(m) and _adm_interval(l)):
            return "mu, lambda must lie in (-1,1] \\ {0}"
        if l < m:
            return "lambda >= mu required"
        if m + l in (0, -1):
            return "mu + lambda must avoid 0, -1"
        return None
    if name == "r4pml":
        if m <= 0:
            return "mu must be positive"
        if l in (-m / 2, 0):
            return "lambda must avoid -mu/2, 0"
        return None
    if name == "d4l":
        if l < Fraction(1, 2):
            return "lambda >= 1/2 required"
        if l in (1, 2):
            return "lambda must avoid 1, 2"
        return None
    raise AdmissibilityError(f"unknown family {name!r}")


FAMILY_NAMES = ("r3", "r3l", "r3pl", "r4", "r4l", "r4ml", "r4pml",
                "d4l", "d4pl", "h4")

_FAMILY_PARAMS = {
    "r3": (), "r4": (), "h4": (),
    "r3l": ("l",), "r3pl": ("l",), "r4l": ("l",), "d4l": ("l",), "d4pl": ("l",),
    "r4ml": ("m", "l"), "r4pml": ("m", "l"),
}


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def of(cls, family: str, **params) -> "FamilySpec":
        if family not in FAMILY_NAMES:
            raise AdmissibilityError(f"unknown family {family!r}")
        want = _FAMILY_PARAMS[family]
        if set(params) != set(want):
            raise AdmissibilityError(
                f"{family} expects parameters {want}, got {tuple(params)}")
        return cls(family, tuple((k, Fraction(v)) for k, v in sorted(params.items())))

    @property
    def bindings(self) -> dict:
        return dict(self.params)

    @property
    def admissible(self) -> bool:
        return _admissibility(self.family, self.bindings) is None

    def label(self) -> str:
        if not self.params:
            return self.family
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.family}({inner})"


def make_family(family, **params) -> LieAlgebra:
    spec = family if isinstance(family, FamilySpec) else FamilySpec.of(family, **params)
    violated = _admissibility(spec.family, spec.bindings)
    if violated is not None:
        raise AdmissibilityError(f"{spec.label()}: {violated}")
    return _make_family_unchecked(spec)


def _make_family_unchecked(spec: FamilySpec) -> LieAlgebra:
    """Instantiate at possibly-excluded parameters (Jacobi still holds)."""
    text = _family_text(spec.family, spec.bindings)
    return parse_algebra(text, name=spec.label())


def trivial23_consequences(g: LieAlgebra) -> dict:
    """The structure facts every (2,3)-trivial algebra must satisfy."""
    derived = g.derived_algebra()
    report = betti(g)
    return {
        "solvable": g.is_solvable(),
        "not_nilpotent": not g.is_nilpotent(),
        "b1_is_1": report.betti[1] == 1,
        "derived_codim_1": derived.dim == g.n - 1,
        "derived_nilpotent": g.subalgebra(derived).is_nilpotent(),
        "not_basis_split": not has_basis_aligned_split(g),
    }


def has_basis_aligned_split(g: LieAlgebra) -> bool:
    """Is g a direct sum along some splitting of the chosen basis?"""
    n = g.n
    for mask in range(1, (1 << n) - 1):
        left = [i for i in range(n) if mask >> i & 1]
        right = [i for i in range(n) if not mask >> i & 1]
        ok = True
        for i in left:
            for j in right:
                if any(g.c[i][j][k] for k in range(n)):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if all(not g.c[i][j][k] for i in left for j in left for k in right) and \
           all(not g.c[i][j][k] for i in right for j in right for k in left):
            return True
    return False


# deterministic grids for table verification (kept rational and small)
TABLE_GRIDS: dict[str, list[dict]] = {
    "r3": [{}],
    "r3l": [{"l": Fraction(s)} for s in ("-1/2", "-1/4", "1/4", "1/2", "3/4", "1")],
    "r3pl": [{"l": Fraction(s)} for s in ("1/2", "1", "2")],
    "r4": [{}],
    "r4l": [{"l": Fraction(s)} for s in ("-1/4", "1/4", "1/2", "1", "2")],
    "r4ml": [
        {"m": Fraction("1/4"), "l": Fraction("1/2")},
        {"m": Fraction("1/2"), "l": Fraction("1/2")},
        {"m": Fraction("1/2"), "l": Fraction("1")},
        {"m": Fraction("-1/2"), "l": Fraction("1/4")},
        {"m": Fraction("-3/4"), "l": Fraction("-1/8")},
    ],
    "r4pml": [
        {"m": Fraction(1), "l": Fraction("1/2")},
        {"m": Fraction("1/2"), "l": Fraction(1)},
        {"m": Fraction(2), "l": Fraction("-1/4")},
    ],
    "d4l": [{"l": Fraction(s)} for s in ("1/2", "3/4", "3/2", "5/2")],
    "d4pl": [{"l": Fraction(s)} for s in ("1/2", "1", "2")],
    "h4": [{}],
}

# excluded parameters adjacent to the grids; each value must break
# (2,3)-triviality or one of its structure consequences
TABLE_EXCLUDED: dict[str, list[dict]] = {
    "r3l": [{"l": Fraction(0)}, {"l": Fraction(-1)}],
    "r3pl": [{"l": Fraction(0)}],
    "r4l": [{"l": Fraction(-1)}, {"l": Fraction(-1, 2)}, {"l": Fraction(0)}],
    "r4ml": [
        {"m": Fraction(-1, 2), "l": Fraction(1, 2)},   # mu + lambda = 0
        {"m": Fraction(-1, 2), "l": Fraction(-1, 2)},  # mu + lambda = -1
        {"m": Fraction(0), "l": Fraction(1, 2)},
    ],
    "r4pml": [
        {"m": Fraction(1), "l": Fraction(-1, 2)},      # lambda = -mu/2
        {"m": Fraction(1), "l": Fraction(0)},
    ],
    "d4l": [{"l": Fraction(1)}, {"l": Fraction(2)}],
    "d4pl": [{"l": Fraction(0)}],
}


def verify_tables() -> dict:
    """Run the whole grid; report per-case outcomes and an overall flag."""
    families = {}
    ok = True
    for name in FAMILY_NAMES:
        cases = []
        for params in TABLE_GRIDS[name]:
            spec = FamilySpec.of(name, **params)
            g = make_family(spec)
            cons = trivial23_consequences(g)
            passed = is_23_trivial(g) and all(cons.values())
            ok = ok and passed
            cases.append({"label": spec.label(), "is_23_trivial": passed,
                          "consequences": cons})
        excluded = []
        for params in TABLE_EXCLUDED.get(name, []):
            spec = FamilySpec.of(name, **params)
            if spec.admissible:
                raise AdmissibilityError(
                    f"{spec.label()} was expected to be excluded")
            g = _make_family_unchecked(spec)
            cons = trivial23_consequences(g)
            fails = (not is_23_trivial(g)) or (not all(cons.values()))
            ok = ok and fails
            excluded.append({"label": spec.label(), "failed_as_expected": fails})
        families[name] = {"grid": cases, "excluded": excluded}
    return {"families": families, "ok": ok}


# -- graded nilpotent extensions ---------------------------------------------

@dataclass(frozen=True)
class GradedNilpotent:
    """Nilpotent algebra with a positive grading, given per-basis weights."""

    algebra: LieAlgebra
    weights: tuple[int, ...]

    def __post_init__(self):
        g = self.algebra
        if len(self.weights) != g.n:
            raise LieKernelError("one weight per basis element required")
        if any(w < 1 or w != int(w) for w in self.weights):
            raise LieKernelError("weights must be positive integers")
        if not g.is_nilpotent():
            raise LieKernelError("grading requires a nilpotent algebra")
        for i in range(g.n):
            for j in range(g.n):
                target = self.weights[i] + self.weights[j]
                for k in range(g.n):
                    if g.c[i][j][k] and self.weights[k] != target:
                        raise LieKernelError(
                            f"[k_{self.weights[i]}, k_{self.weights[j]}] leaks "
                            f"outside layer {target}")


def graded_extension(graded: GradedNilpotent, name: str | None = None) -> LieAlgebra:
    """Adjoin A with ad_A = multiplication by i on the layer k_i.

    The result always has vanishing second and third cohomology; this is
    asserted on the way out.
    """
    k = graded.algebra
    n = k.n + 1
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(k.n):
        for j in range(k.n):
            for m in range(k.n):
                c[i + 1][j + 1][m + 1] = k.c[i][j][m]
    for j, w in enumerate(graded.weights):
        c[0][j + 1][j + 1] = Fraction(w)
        c[j + 1][0][j + 1] = Fraction(-w)
    out = LieAlgebra(c, name=name or (f"ext({k.name})" if k.name else None))
    if not is_23_trivial(out):
        raise LieKernelError("graded extension failed to be (2,3)-trivial")
    return out


def make_unimodular_5dim() -> LieAlgebra:
    """Rational surrogate of the five-dimensional unimodular example.

    Weights 1, 2, -4, 1 sum to zero (unimodular) while no 1-, 2- or
    3-subset does, which forces b_2 = b_3 = 0.
    """
    return parse_algebra("(0,12,2.13,-4.14,15)", name="u5")


UNIMODULAR_QUARTIC = (1, -8, 18, -10, 1)


def unimodular_quartic_log_sum() -> tuple[float, list[float]]:
    """Float check on the irrational-weight original: log-roots sum to 0.

    The monic quartic changes sign across four cells of the grid k/8 inside
    its Cauchy bound, so each cell holds exactly one of its four roots.  Each
    is bisected exactly, on x / 2^64 with integer x, then turned to float.
    """
    scale = 1 << 64

    def sign(x: int) -> int:
        p = sum(a * x ** (4 - i) * scale ** i
                for i, a in enumerate(UNIMODULAR_QUARTIC))
        return (p > 0) - (p < 0)

    cells = 8 * (1 + max(map(abs, UNIMODULAR_QUARTIC[1:])))
    roots = []
    for k in range(-cells, cells):
        lo, hi = k * scale // 8, (k + 1) * scale // 8
        lo_sign = sign(lo)
        if lo_sign * sign(hi) < 0:
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if sign(mid) == lo_sign else (lo, mid)
            roots.append(float(Fraction(lo + hi, 2 * scale)))
    return abs(sum(map(math.log, roots))), roots


def seven_dim_characteristically_nilpotent(alpha) -> LieAlgebra:
    alpha = Fraction(alpha)
    if alpha == 0:
        raise AdmissibilityError("the family requires alpha != 0")
    return parse_algebra(
        "(0,0,12,13,23,14+25+a.23,16+25+35+a.24)", {"a": alpha},
        name=f"cn7(a={alpha})")


# -- matrix fixtures -----------------------------------------------------------

SU3_BASIS_NAMES = ("A1", "A2", "B12", "B13", "B23", "C12", "C13", "C23")


def _su3_matrices():
    """(real, imaginary) integer parts of the eight basis matrices."""
    def e(p, q):
        m = [[0] * 3 for _ in range(3)]
        m[p][q] = 1
        return m

    def madd(a, b, sb=1):
        return [[a[i][j] + sb * b[i][j] for j in range(3)] for i in range(3)]

    zero = [[0] * 3 for _ in range(3)]
    basis = []
    for j in (0, 1):
        basis.append((zero, madd(e(j, j), e(j + 1, j + 1), -1)))  # A_j = i(...)
    for (k, l) in ((0, 1), (0, 2), (1, 2)):
        basis.append((madd(e(k, l), e(l, k), -1), zero))          # B_kl
    for (k, l) in ((0, 1), (0, 2), (1, 2)):
        basis.append((zero, madd(e(k, l), e(l, k))))              # C_kl
    return basis


def _complex_commutator(x, y):
    xr, xi = x
    yr, yi = y
    def mul(ar, ai, br, bi):
        re = [[sum(ar[i][k] * br[k][j] - ai[i][k] * bi[k][j] for k in range(3))
               for j in range(3)] for i in range(3)]
        im = [[sum(ar[i][k] * bi[k][j] + ai[i][k] * br[k][j] for k in range(3))
               for j in range(3)] for i in range(3)]
        return re, im
    pr, pi = mul(xr, xi, yr, yi)
    qr, qi = mul(yr, yi, xr, xi)
    return ([[pr[i][j] - qr[i][j] for j in range(3)] for i in range(3)],
            [[pi[i][j] - qi[i][j] for j in range(3)] for i in range(3)])


def _su3_coordinates(x):
    """Exact coordinates in the (A, B, C) basis by direct entry reads."""
    re, im = x
    coords = [im[0][0], -im[2][2],
              re[0][1], re[0][2], re[1][2],
              im[0][1], im[0][2], im[1][2]]
    # consistency: rebuild and compare
    basis = _su3_matrices()
    for part in (0, 1):
        for i in range(3):
            for j in range(3):
                built = sum(c * basis[b][part][i][j] for b, c in enumerate(coords))
                if built != x[part][i][j]:
                    raise LieKernelError("su(3) coordinate extraction failed")
    return coords


def su3() -> LieAlgebra:
    """su(3) in the real basis A_j, B_kl, C_kl; integer structure constants."""
    basis = _su3_matrices()
    n = 8
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            coords = _su3_coordinates(_complex_commutator(basis[i], basis[j]))
            for k, q in enumerate(coords):
                c[i][j][k] = Fraction(q)
                c[j][i][k] = Fraction(-q)
    return LieAlgebra(c, name="su3")


def su2() -> LieAlgebra:
    return parse_algebra("(-2.23,2.13,-2.12)", name="su2")


def u2() -> LieAlgebra:
    """u(2) = R T + su(2), oriented so that dP(dt ^ e1) = -dt ^ e23."""
    return parse_algebra("(0,34,-24,23)", name="u2")


# -- fixture corpus ------------------------------------------------------------

@dataclass
class CorpusEntry:
    name: str
    algebra: LieAlgebra
    grading: tuple[int, ...] | None
    text: str


def corpus_text() -> str:
    return resources.files("liekernel").joinpath("data/corpus.lie").read_text()


def load_corpus(path=None) -> list[CorpusEntry]:
    """Parse a .lie fixture file, by default the shipped corpus.lie, into
    named, validated algebras."""
    items = parse_lie_text(corpus_text()) if path is None else load_lie_file(path)
    entries, lines = [], {}
    for parsed in items:
        name = parsed.annotations.get("name", f"line{parsed.line}")
        if name in lines:
            raise LieKernelError(f"line {parsed.line}: name {name!r} is "
                                 f"already used on line {lines[name]}")
        lines[name] = parsed.line
        grading = None
        if "grading" in parsed.annotations:
            text = parsed.annotations["grading"]
            try:
                grading = tuple(int(w) for w in text.split(","))
            except ValueError:
                raise LieKernelError(f"line {parsed.line}: grading wants "
                                     f"comma-separated integers, got {text!r}") from None
        algebra = instantiate(parsed.expr, parsed.bindings, name=name)
        algebra.validate()
        entries.append(CorpusEntry(name, algebra, grading, serialize(parsed.expr)))
    return entries


def corpus_algebra(name: str) -> LieAlgebra:
    for entry in load_corpus():
        if entry.name == name:
            return entry.algebra
    raise LieKernelError(f"no corpus algebra named {name!r}")
