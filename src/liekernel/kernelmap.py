"""The Lie kernel, its dual, the induced map into closed three-forms, and
multi-moment values for homogeneous data.

All of it is read off the algebra's one cached CE complex.  Row k of d_1 is
-e^k([., .]), so P = ker([., .]: Lambda^2 g -> g) is the null space of d_1,
the annihilator of B^2 = d(g*).  Its dual P* = Lambda^2 g* / B^2 is realised
on the slice of lex two-forms off the echelon pivots of B^2; elements are
stored through the canonical coset representative, the form's
{lex position: coefficient} dict reduced in integers against the integer
echelon rows of B^2 (`Subspace.reduce`), which makes equality decidable and
output stable.  The matrix of d_P is the rows of d_2 at the slice, and `dP`
is `CEComplex.d`, which applies the integer rows; a multi-moment value is
read off one reduction of (psi, 0) against the rows (d_P e_c, e_c).

ad on multivectors is one integer seam, `scaled_ad`: ad_z p is the sum of
z_i p_B times the rows of D ad_{e_i} e_B (`linalg.combine`), each row the
image of one basis multivector under the columns br[i][j] = D [e_i, e_j] of
D ad_{e_i}, the algebra's integer brackets over its `scale` D, extended by
the Leibniz rule (`exterior.derivation_rows`).  The rows are built on first
use, only for the basis multivectors asked for, and cached on the algebra.
`ad_multivector` divides once; the corpus suite checks the adjoint identity
<d_P alpha, Z ^ p> = -<alpha, ad_Z p> for every alpha at once, as the
vector equation d_2^T (Z ^ p) = -ad_Z p in integers, on the CE rows D d_2
and these rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cohomology import complex_of
from .errors import DimensionMismatch, MomentMapError
from .exterior import KForm, KVector, derivation_rows, interior, lex, pairing
from .liealg import LieAlgebra
from .linalg import Subspace, clear_denominators, combine, identity, nullspace


class LieKernel:
    """Basis of P inside Lambda^2 g plus the coset data identifying P*.

    It keeps n and the complex, not the algebra, so the algebra can cache
    it (`lie_kernel`) without a reference cycle.
    """

    def __init__(self, algebra: LieAlgebra):
        self.complex = cx = complex_of(algebra)
        self.n = n = algebra.n
        # one reduction of d_1: B^2 = d(g*) is its row space, P its null space
        self.exact_two_forms = b2 = Subspace(comb(n, 2), cx.d_rows(1))
        self.space = Subspace(comb(n, 2), nullspace(b2.rows, comb(n, 2)))
        pivots = set(b2.pivots)
        self.slice = [c for c in range(comb(n, 2)) if c not in pivots]

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self) -> list[KVector]:
        """The reduced echelon basis of P: each integer row over its lead."""
        bits = lex(self.n, 2)[1]
        return [KVector(self.n, 2, {bits[c]: Fraction(v, r[p])
                                    for c, v in r.items()})
                for r, p in zip(self.space.rows, self.space.pivots)]

    def dP_rows(self) -> list[dict]:
        """Matrix of d_P: sparse rows of d_2 at the slice, over lex triples."""
        rows = self.complex.d_rows(2)
        return self.complex.unscale([rows[c] for c in self.slice])

    def canonical_rep(self, form: KForm) -> KForm:
        """The representative of form + B^2 that is zero at every pivot
        of B^2."""
        if form.n != self.n or form.k != 2:
            raise DimensionMismatch("P* elements come from two-forms on g")
        _, bits, pos = lex(self.n, 2)
        reduced = self.exact_two_forms.reduce(
            {pos[b]: q for b, q in form.coeffs.items()})
        return KForm(self.n, 2, {bits[c]: q for c, q in reduced.items()})


@dataclass(frozen=True)
class PDualElement:
    """Element of P* held as its canonical coset representative."""

    algebra: LieAlgebra
    rep: KForm

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other) -> bool:
        return (isinstance(other, PDualElement)
                and self.algebra is other.algebra
                and self.rep == other.rep)


def lie_kernel(g: LieAlgebra) -> LieKernel:
    """The one Lie kernel of g, built on first use and cached on g."""
    if g._kernel is None:
        g._kernel = LieKernel(g)
    return g._kernel


def pdual(g: LieAlgebra, form: KForm) -> PDualElement:
    """Class of a two-form in P* = Lambda^2 g* / d(g*)."""
    return PDualElement(g, lie_kernel(g).canonical_rep(form))


def _two_form(g: LieAlgebra, beta) -> KForm:
    """beta, a two-form on g or an element of P* of g, as a two-form."""
    if isinstance(beta, PDualElement) and beta.algebra is g:
        beta = beta.rep
    if not isinstance(beta, KForm) or beta.n != g.n or beta.k != 2:
        raise DimensionMismatch("beta must be a two-form on g or in its P*")
    return beta


def dP(g: LieAlgebra, beta) -> KForm:
    """d of any coset representative; representative-independent by d^2=0."""
    return complex_of(g).d(_two_form(g, beta))


def _unit_ad_rows(g: LieAlgebra, units, coeffs: dict) -> list[dict]:
    """The cache of g: entry i maps the bitmask of a basis multivector e_B
    to the integer row {bits: D times the coefficient} of D ad_{e_i} e_B.
    Builds the rows that the given units lack for the keys of `coeffs`
    (bitmasks of one degree), one `derivation_rows` call per unit."""
    if g._ad_rows is None:
        g._ad_rows = [{} for _ in range(g.n)]
    cache = g._ad_rows
    for i in units:
        rows = cache[i]
        if coeffs.keys() <= rows.keys():
            continue
        missing = [b for b in coeffs if b not in rows]
        # column j of D ad_{e_i} is br[i][j] = D [e_i, e_j]
        images = [{1 << m: v for m, v in col.items()} for col in g.br[i]]
        ixs, _, pos = lex(g.n, missing[0].bit_count())
        built = derivation_rows(images, [(ixs[pos[b]], b) for b in missing])
        for b, row in zip(missing, built):
            rows[b] = {key: v for key, v in row.items() if v}
    return cache


def scaled_ad(g: LieAlgebra, z, coeffs: dict) -> tuple[int, dict[int, int]]:
    """(E, {bits: E times the coefficient of e_bits in ad_z p}) in ints,
    for z and p = {bits: coefficient} of one degree with int or Fraction
    values, E = D times the common denominators of z and of p: the sum of
    z_i p_B times the cached rows of D ad_{e_i} e_B (`_unit_ad_rows`).
    A value may be zero where terms cancel."""
    z = tuple(z)
    if len(z) != g.n:
        raise DimensionMismatch("vector outside the algebra")
    lz, zs = clear_denominators({i: q for i, q in enumerate(z) if q})
    lp, nums = clear_denominators(coeffs)
    rows = _unit_ad_rows(g, zs, nums)
    return g.scale * lz * lp, combine(
        (zi * v, row) for i, zi in zs.items()
        for b, v in nums.items() if (row := rows[i][b]))


def ad_multivector(g: LieAlgebra, z, p: KVector) -> KVector:
    """ad_z extended to multivectors as a derivation, for z with int or
    Fraction coordinates: `scaled_ad`, divided once."""
    if not isinstance(p, KVector) or p.n != g.n:
        raise DimensionMismatch("ad_multivector needs a multivector on g")
    scale, nums = scaled_ad(g, z, p.coeffs)
    return KVector(g.n, p.k, {b: Fraction(v, scale)
                              for b, v in nums.items() if v})


@dataclass(frozen=True)
class DPProperties:
    injective: bool
    surjective_onto_Z3: bool
    rank: int
    dim_pstar: int
    dim_Z3: int


def dP_properties(g: LieAlgebra) -> DPProperties:
    """Injectivity/surjectivity of d_P from exact ranks; they are
    equivalent to b_2 = 0 and b_3 = 0."""
    kernel = lie_kernel(g)
    cx = kernel.complex
    # d_2 vanishes on B^2, so d_P has the rank of d_2
    r, dim_pstar = cx.d_rank(2), kernel.dim
    dim_z3 = comb(g.n, 3) - cx.d_rank(3)
    return DPProperties(r == dim_pstar, r == dim_z3, r, dim_pstar, dim_z3)


def multimoment_value(g: LieAlgebra, psi: KForm) -> PDualElement:
    """The unique beta with dP(beta) = psi; needs b_2 = 0 and closed psi."""
    kernel = lie_kernel(g)
    cx = kernel.complex
    if psi.n != g.n or psi.k != 3:
        raise DimensionMismatch("psi must be a three-form on g")
    b2 = cx.betti_number(2)
    if b2 != 0:
        raise MomentMapError(f"b2 = {b2} != 0: multi-moment value not unique")
    if not cx.d(psi).is_zero():
        raise MomentMapError("psi is not closed")
    # rows (d_P e_c, e_c) over the slice c: reducing (psi, 0) leaves
    # (0, -beta) when psi = d_P beta, and d_P is injective as b_2 = 0
    width, rows = comb(g.n, 3), kernel.dP_rows()
    span = Subspace(width + len(rows), [{**r, width + i: 1}
                                        for i, r in enumerate(rows)])
    pos = lex(g.n, 3)[2]
    w = span.reduce({pos[b]: q for b, q in psi.coeffs.items()})
    if any(c < width for c in w):
        raise MomentMapError("psi is not in the image of dP (b3 obstruction)")
    bits = lex(g.n, 2)[1]
    return PDualElement(g, KForm(g.n, 2, {bits[kernel.slice[c - width]]: -q
                                          for c, q in w.items()}))


def stabilizer(g: LieAlgebra, beta) -> Subspace:
    """{Z in g : <beta, ad_Z p> = 0 for all p in P}."""
    form = _two_form(g, beta)
    rows = [tuple(pairing(form, ad_multivector(g, unit, p))
                  for unit in identity(g.n))
            for p in lie_kernel(g).basis()]
    return Subspace(g.n, nullspace(rows, g.n))


def kernel_of_psi(g: LieAlgebra, psi: KForm) -> Subspace:
    """{X in g : X -| psi = 0} for an arbitrary three-form psi."""
    if psi.n != g.n:
        raise DimensionMismatch("psi lives on a different algebra")
    # one equation per two-form component b: sum_i X_i (e_i -| psi)_b = 0
    rows: dict[int, dict] = {}
    for i in range(g.n):
        for b, q in interior(KVector(g.n, 1, {1 << i: 1}), psi).coeffs.items():
            rows.setdefault(b, {})[i] = q
    return Subspace(g.n, nullspace(list(rows.values()), g.n))


@dataclass(frozen=True)
class OrbitCheck:
    condition_holds: bool
    orbit_dim: int
    stabilizer_dim: int
    kernel_dim: int


def orbit_2plectic_check(g: LieAlgebra, beta) -> OrbitCheck:
    """Certify stab_g(beta) = ker(dP beta); then the orbit is 2-plectic."""
    stab = stabilizer(g, beta)
    ker = kernel_of_psi(g, dP(g, beta))
    return OrbitCheck(stab == ker, g.n - stab.dim, stab.dim, ker.dim)

