"""The Lie kernel, its dual, the induced map into closed three-forms, and
multi-moment values for homogeneous data.

P is the kernel of the bracket map on bivectors.  Its dual is realised as
the quotient of two-forms by exact ones; elements are stored through the
canonical coset representative obtained by reducing against the echelon
basis of d(g*), which makes equality decidable and output stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .cohomology import complex_of, extend_as_derivation
from .errors import DimensionMismatch, MomentMapError
from .exterior import (KForm, KVector, bits_of, interior, multi_indices,
                       pairing, vector_of)
from .liealg import LieAlgebra
from .linalg import Subspace, identity, nullspace, rank, solve, transpose


class LieKernel:
    """Basis of P inside Lambda^2 g plus the coset data identifying P*."""

    def __init__(self, algebra: LieAlgebra):
        algebra.validate()
        self.algebra = algebra
        n = algebra.n
        self.pair_order = list(multi_indices(n, 2))
        # bracket map L: Lambda^2 g -> g, one column per lex pair
        columns = [algebra.bracket_basis(i, j) for (i, j) in self.pair_order]
        self.space = Subspace(len(self.pair_order), nullspace(
            transpose(columns) if columns else [], len(self.pair_order)))
        self.complex = complex_of(algebra)
        self.exact_two_forms = self.complex.coboundaries(2)

    @property
    def dim(self) -> int:
        return self.space.dim

    def basis(self) -> list[KVector]:
        return [KVector.from_vector(self.algebra.n, 2, row)
                for row in self.space.basis]

    def contains(self, p: KVector) -> bool:
        return self.space.contains(p.vector(self.pair_order))

    def slice_indices(self) -> list[tuple[int, int]]:
        """Multi-indices of the coordinate slice identified with P*."""
        pivots = set(self.exact_two_forms.pivots)
        return [ixs for c, ixs in enumerate(self.pair_order) if c not in pivots]

    def canonical_rep(self, form: KForm) -> KForm:
        reduced = self.exact_two_forms.reduce(form.vector(self.pair_order))
        return KForm.from_vector(self.algebra.n, 2, reduced)


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
    return LieKernel(g)


def pdual(g: LieAlgebra, form: KForm, kernel: LieKernel | None = None) -> PDualElement:
    """Class of a two-form in P* = Lambda^2 g* / d(g*)."""
    if form.n != g.n or form.k != 2:
        raise DimensionMismatch("P* elements come from two-forms on g")
    kernel = kernel or LieKernel(g)
    return PDualElement(g, kernel.canonical_rep(form))


def dP(g: LieAlgebra, beta) -> KForm:
    """d of any coset representative; representative-independent by d^2=0."""
    form = beta.rep if isinstance(beta, PDualElement) else beta
    if form.n != g.n or form.k != 2:
        raise DimensionMismatch("dP needs a two-form")
    return complex_of(g).d(form)


def ad_multivector(g: LieAlgebra, z, p: KVector) -> KVector:
    """ad_z extended to multivectors as a derivation."""
    images = [KVector(g.n, 1, {1 << k: q for k, q in col.items()})
              for col in g.ad_columns(z)]
    return extend_as_derivation(images, p, 1)


@dataclass(frozen=True)
class DPProperties:
    injective: bool
    surjective_onto_Z3: bool
    rank: int
    dim_pstar: int
    dim_Z3: int


def dP_properties(g: LieAlgebra, kernel: LieKernel | None = None) -> DPProperties:
    """Injectivity/surjectivity of d_P from exact ranks, cross-checked
    against the Betti numbers they are equivalent to."""
    kernel = kernel or LieKernel(g)
    cx = kernel.complex
    n = g.n
    order3 = list(multi_indices(n, 3))
    rows = [cx.d(KForm.from_terms(n, {ixs: Fraction(1)}, 2)).vector(order3)
            for ixs in kernel.slice_indices()]
    r = rank(rows) if rows else 0
    dim_pstar = kernel.dim
    dim_z3 = comb(n, 3) - cx.d_rank(3)
    injective = r == dim_pstar
    surjective = r == dim_z3
    b2 = comb(n, 2) - cx.d_rank(2) - cx.d_rank(1)
    b3 = comb(n, 3) - cx.d_rank(3) - cx.d_rank(2)
    if injective != (b2 == 0) or surjective != (b3 == 0):
        raise AssertionError("rank computation disagrees with Betti numbers")
    return DPProperties(injective, surjective, r, dim_pstar, dim_z3)


def multimoment_value(g: LieAlgebra, psi: KForm,
                      kernel: LieKernel | None = None) -> PDualElement:
    """The unique beta with dP(beta) = psi; needs b_2 = 0 and closed psi."""
    kernel = kernel or LieKernel(g)
    cx = kernel.complex
    n = g.n
    if psi.n != n or psi.k != 3:
        raise DimensionMismatch("psi must be a three-form on g")
    b2 = comb(n, 2) - cx.d_rank(2) - cx.d_rank(1)
    if b2 != 0:
        raise MomentMapError(f"b2 = {b2} != 0: multi-moment value not unique")
    if not cx.d(psi).is_zero():
        raise MomentMapError("psi is not closed")
    order3 = list(multi_indices(n, 3))
    slice_ixs = kernel.slice_indices()
    columns = [cx.d(KForm.from_terms(n, {ixs: Fraction(1)}, 2)).vector(order3)
               for ixs in slice_ixs]
    x = solve(transpose(columns), psi.vector(order3)) if columns else (
        None if any(psi.vector(order3)) else ())
    if x is None:
        raise MomentMapError("psi is not in the image of dP (b3 obstruction)")
    coeffs = {bits_of(ixs)[0]: q for ixs, q in zip(slice_ixs, x) if q}
    return PDualElement(g, KForm(n, 2, coeffs))


def stabilizer(g: LieAlgebra, beta, kernel: LieKernel | None = None) -> Subspace:
    """{Z in g : <beta, ad_Z p> = 0 for all p in P}."""
    kernel = kernel or LieKernel(g)
    form = beta.rep if isinstance(beta, PDualElement) else beta
    p_basis = kernel.basis()
    rows = []
    for p in p_basis:
        rows.append(tuple(
            pairing(form, ad_multivector(g, unit, p))
            for unit in identity(g.n)))
    return Subspace(g.n, nullspace(rows, g.n))


def kernel_of_psi(g: LieAlgebra, psi: KForm) -> Subspace:
    """{X in g : X -| psi = 0} for an arbitrary three-form psi."""
    if psi.n != g.n:
        raise DimensionMismatch("psi lives on a different algebra")
    order = list(multi_indices(g.n, psi.k - 1))
    columns = [interior(vector_of(g.n, u), psi).vector(order)
               for u in identity(g.n)]
    return Subspace(g.n, nullspace(transpose(columns), g.n))


@dataclass(frozen=True)
class OrbitCheck:
    condition_holds: bool
    orbit_dim: int
    stabilizer_dim: int
    kernel_dim: int


def orbit_2plectic_check(g: LieAlgebra, beta,
                         kernel: LieKernel | None = None) -> OrbitCheck:
    """Certify stab_g(beta) = ker(dP beta); then the orbit is 2-plectic."""
    kernel = kernel or LieKernel(g)
    stab = stabilizer(g, beta, kernel)
    ker = kernel_of_psi(g, dP(g, beta))
    return OrbitCheck(stab == ker, g.n - stab.dim, stab.dim, ker.dim)

