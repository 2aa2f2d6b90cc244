"""Classification-table families, graded extensions, and fixture algebras.

The three- and four-dimensional tables are one table of parametric tuples,
bound through the parser exactly as ``--bind`` binds them, with their side
constraints enforced exactly.  d4pl's 2λ is bound as a second name, l2,
because the grammar gives a parameter only a sign.  Also houses the su(2),
su(3), u(2) fixtures with integer structure constants, su(3) read off its
matrices by `matrix_lie_algebra`, and the shipped fixture corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
import math

from .cohomology import complex_of, is_23_trivial
from .errors import AdmissibilityError, LieKernelError
from .liealg import LieAlgebra, matrix_lie_algebra
from .parser import (instantiate, load_lie_file, parse_algebra, parse_lie_text,
                     serialize)


def _adm_interval(x: Fraction) -> bool:
    return Fraction(-1) < x <= 1 and x != 0


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


# name -> (parameters, tuple); l2 is bound to 2 l
_FAMILIES = {
    "r3": ((), "(0,21+31,31)"),
    "r3l": (("l",), "(0,21,l.31)"),
    "r3pl": (("l",), "(0,l.21+31,-21+l.31)"),
    "r4": ((), "(0,21+31,31+41,41)"),
    "r4l": (("l",), "(0,21,l.31+41,l.41)"),
    "r4ml": (("m", "l"), "(0,21,m.31,l.41)"),
    "r4pml": (("m", "l"), "(0,m.21,l.31+41,-31+l.41)"),
    "d4l": (("l",), "(0,l.21,31-l.31,41+32)"),
    "d4pl": (("l",), "(0,l.21+31,-21+l.31,l2.41+32)"),
    "h4": ((), "(0,21+31,31,2.41+32)"),
}

FAMILY_NAMES = tuple(_FAMILIES)


@dataclass(frozen=True)
class FamilySpec:
    family: str
    params: tuple[tuple[str, Fraction], ...] = ()

    @classmethod
    def of(cls, family: str, **params) -> "FamilySpec":
        if family not in FAMILY_NAMES:
            raise AdmissibilityError(f"unknown family {family!r}")
        want = _FAMILIES[family][0]
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
    bindings = spec.bindings
    if "l" in bindings:
        bindings["l2"] = 2 * bindings["l"]
    return parse_algebra(_FAMILIES[spec.family][1], bindings, name=spec.label())


def trivial23_consequences(g: LieAlgebra) -> dict:
    """The structure facts every (2,3)-trivial algebra must satisfy."""
    derived = g.derived_algebra()
    return {
        "solvable": g.is_solvable(),
        "not_nilpotent": not g.is_nilpotent(),
        "b1_is_1": complex_of(g).betti_number(1) == 1,
        "derived_codim_1": derived.dim == g.n - 1,
        "derived_nilpotent": g.subalgebra(derived).is_nilpotent(),
        "not_basis_split": not has_basis_aligned_split(g),
    }


def has_basis_aligned_split(g: LieAlgebra) -> bool:
    """Is g a direct sum along some splitting of the chosen basis?"""
    part = list(range(g.n))  # union-find: c^k_ij != 0 joins i, j and k

    def root(i: int) -> int:
        while part[i] != i:
            part[i] = part[part[i]]
            i = part[i]
        return i

    for (i, j), comps in g.brackets().items():
        for k in (j, *comps):
            part[root(k - 1)] = root(i - 1)
    return len({root(i) for i in range(g.n)}) > 1


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
        for (i, j), comps in g.brackets().items():
            target = self.weights[i - 1] + self.weights[j - 1]
            if any(self.weights[k - 1] != target for k in comps):
                raise LieKernelError(
                    f"[k_{self.weights[i - 1]}, k_{self.weights[j - 1]}] leaks "
                    f"outside layer {target}")


def graded_extension(graded: GradedNilpotent, name: str | None = None) -> LieAlgebra:
    """Adjoin A with ad_A = multiplication by i on the layer k_i.

    The result always has vanishing second and third cohomology; this is
    asserted on the way out.
    """
    k = graded.algebra
    brackets = {(i + 1, j + 1): {m + 1: q for m, q in comps.items()}
                for (i, j), comps in k.brackets().items()}
    for j, w in enumerate(graded.weights, 2):
        brackets[1, j] = {j: w}
    out = LieAlgebra.from_brackets(
        k.n + 1, brackets, name=name or (f"ext({k.name})" if k.name else None))
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


def su3() -> LieAlgebra:
    """su(3) in the real basis A_j = i(E_jj - E_j+1,j+1), B_kl = E_kl - E_lk,
    C_kl = i(E_kl + E_lk); integer structure constants.

    Each basis matrix X + iY enters `matrix_lie_algebra` as its real form
    [[X, -Y], [Y, X]].
    """
    def real_form(imaginary, *terms):
        """The real form of sum s E_pq, times i if imaginary."""
        m = [[0] * 6 for _ in range(6)]
        for p, q, s in terms:
            if imaginary:
                m[p + 3][q], m[p][q + 3] = s, -s
            else:
                m[p][q], m[p + 3][q + 3] = s, s
        return m

    pairs = ((0, 1), (0, 2), (1, 2))
    return matrix_lie_algebra(
        [real_form(True, (j, j, 1), (j + 1, j + 1, -1)) for j in (0, 1)]
        + [real_form(False, (k, l, 1), (l, k, -1)) for k, l in pairs]
        + [real_form(True, (k, l, 1), (l, k, 1)) for k, l in pairs],
        name="su3")


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
    named, validated algebras; a file with none is an error."""
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
    if not entries:
        # a suite over no algebra would pass vacuously
        raise LieKernelError("no algebra in fixture")
    return entries


def corpus_algebra(name: str) -> LieAlgebra:
    for entry in load_corpus():
        if entry.name == name:
            return entry.algebra
    raise LieKernelError(f"no corpus algebra named {name!r}")
