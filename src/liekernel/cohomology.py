"""Chevalley-Eilenberg complex, Betti numbers and invariant cohomology.

The differential is generated on dual-basis one-forms by
de^k = -sum_{i<j} c^k_ij e_ij and extended as an antiderivation; this is
the alternating-sum formula
(da)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i,X_j], X_0..^i..^j..X_k)
packaged degree by degree, and d o d = 0 is exactly the Jacobi identity.
The differential matrices are kept as sparse rows, and their ranks are
taken by exact sparse integer elimination (`linalg.rank`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import SubspaceError
from .exterior import KForm, bits_of, indices_of, multi_indices, wedge_sign
from .liealg import LieAlgebra
from .linalg import Subspace, identity, nullspace, rank, transpose, vec


def extend_as_derivation(images: list[KForm], form: KForm, image_degree: int) -> KForm:
    """Extend a map on basis one-forms to Lambda^k by the (anti)derivation rule.

    ``images[i]`` is the image of e_{i+1}; for image_degree 2 this is the
    signed Leibniz rule of an antiderivation, for image_degree 1 a plain
    derivation (no alternating sign).
    """
    acc: dict[int, object] = {}
    for bits, coeff in form.coeffs.items():
        ixs = indices_of(bits)
        for pos, i in enumerate(ixs):
            img = images[i - 1]
            if img.is_zero():
                continue
            rest = bits ^ (1 << (i - 1))
            # Leibniz alternation combined with moving the image form to the
            # front is (-1)^pos for any image degree.
            signed = -coeff if pos % 2 == 1 else coeff
            for ib, ic in img.coeffs.items():
                s = wedge_sign(ib, rest)
                if s == 0:
                    continue
                c = signed * ic if s > 0 else -(signed * ic)
                key = ib | rest
                acc[key] = acc[key] + c if key in acc else c
    return type(form)(form.n, form.k + image_degree - 1, acc)


class CEComplex:
    """CE differential matrices of one algebra, with cached Z^k and B^k.

    The complex keeps only n and de^k, not the algebra: the algebra caches
    its complex (`complex_of`), and a reference back would make a cycle.
    """

    def __init__(self, algebra: LieAlgebra, validate: bool = True):
        if validate:
            algebra.validate()
        self._jacobi = validate  # so d o d = 0, which d_rank relies on
        self.n = n = algebra.n
        d1: list[dict] = [{} for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                for k, q in algebra.sc[i][j].items():
                    d1[k][(1 << i) | (1 << j)] = -q
        self._d1 = [KForm(n, 2, coeffs) for coeffs in d1]
        self._rows: dict[int, list] = {}
        self._rank: dict[int, int] = {}
        self._cocycles: dict[int, Subspace] = {}
        self._coboundaries: dict[int, Subspace] = {}

    def d(self, form: KForm) -> KForm:
        if form.n != self.n:
            raise SubspaceError("form lives on a different algebra")
        return extend_as_derivation(self._d1, form, 2)

    def d_rows(self, k: int) -> list[dict]:
        """Sparse row i = {j: coefficient of e_J_j in d(e_I_i)}, lex indices."""
        if k not in self._rows:
            n = self.n
            col = {bits_of(ixs)[0]: j
                   for j, ixs in enumerate(multi_indices(n, k + 1))}
            self._rows[k] = [
                {col[b]: c for b, c in self.d(
                    KForm(n, k, {bits_of(ixs)[0]: Fraction(1)})).coeffs.items()}
                for ixs in multi_indices(n, k)]
        return self._rows[k]

    def d_rank(self, k: int) -> int:
        if k not in self._rank:
            if k >= self.n:
                self._rank[k] = 0
            else:
                # d o d = 0: each row y of d_{k-1} has y d_k = 0, so the rows
                # of d_k at the distinct first indices min(y) lie in the span
                # of the other rows, and dropping them keeps the rank.
                skip = ({min(y) for y in self.d_rows(k - 1) if y}
                        if k and self._jacobi else ())
                rows = [r for i, r in enumerate(self.d_rows(k)) if i not in skip]
                self._rank[k] = rank(rows, comb(self.n, k + 1))
        return self._rank[k]

    def cocycles(self, k: int) -> Subspace:
        """Z^k as an explicit subspace of Lambda^k (lex coordinates)."""
        if k not in self._cocycles:
            dim_k = comb(self.n, k)
            if k >= self.n:
                self._cocycles[k] = Subspace(dim_k, identity(dim_k))
            else:
                cols = [{} for _ in range(comb(self.n, k + 1))]
                for i, row in enumerate(self.d_rows(k)):
                    for j, q in row.items():
                        cols[j][i] = q
                self._cocycles[k] = Subspace(dim_k, nullspace(cols, dim_k))
        return self._cocycles[k]

    def coboundaries(self, k: int) -> Subspace:
        """B^k = d(Lambda^{k-1}) inside Lambda^k."""
        if k not in self._coboundaries:
            dim_k = comb(self.n, k)
            rows = self.d_rows(k - 1) if 1 <= k <= self.n else []
            self._coboundaries[k] = Subspace(dim_k, rows)
        return self._coboundaries[k]

    def verify_d_squared(self) -> bool:
        """d o d == 0 in every degree; fails iff Jacobi fails."""
        n = self.n
        for k in range(n):
            for ixs in multi_indices(n, k):
                f = KForm.from_terms(n, {ixs: Fraction(1)}, k)
                if not self.d(self.d(f)).is_zero():
                    return False
        return True


def complex_of(g: LieAlgebra) -> CEComplex:
    """The one CE complex of g, built on first use and cached on g.

    Building it validates Jacobi, so an algebra that fails gets no complex.
    """
    if g._complex is None:
        g._complex = CEComplex(g)
    return g._complex


def ce_differential(g: LieAlgebra, k: int):
    """Matrix of d: Lambda^k -> Lambda^{k+1}; sparse rows, images of lex basis."""
    return complex_of(g).d_rows(k)


@dataclass(frozen=True)
class CohomologyReport:
    n: int
    z_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    betti: tuple[int, ...]

    def __getitem__(self, k: int) -> int:
        return self.betti[k]


def betti(g: LieAlgebra, complex: CEComplex | None = None) -> CohomologyReport:
    cx = complex if complex is not None else complex_of(g)
    n = g.n
    z_dims, b_dims, bs = [], [], []
    for k in range(n + 1):
        z = comb(n, k) - cx.d_rank(k)
        b = cx.d_rank(k - 1) if k >= 1 else 0
        z_dims.append(z)
        b_dims.append(b)
        bs.append(z - b)
    return CohomologyReport(n, tuple(z_dims), tuple(b_dims), tuple(bs))


def is_23_trivial(g: LieAlgebra) -> bool:
    cx = complex_of(g)
    b2 = comb(g.n, 2) - cx.d_rank(2) - cx.d_rank(1)
    if b2 != 0:
        return False
    b3 = comb(g.n, 3) - cx.d_rank(3) - cx.d_rank(2)
    return b3 == 0


def lie_derivative_images(g: LieAlgebra, a) -> list[KForm]:
    """Images of dual basis one-forms under L_a = -(ad_a)^* as a derivation."""
    ad = g.ad(a)
    out = []
    for j in range(g.n):
        coeffs = {}
        for i in range(g.n):
            if ad[j][i]:
                coeffs[1 << i] = -ad[j][i]
        out.append(KForm(g.n, 1, coeffs))
    return out


def lie_derivative(g: LieAlgebra, a, form: KForm) -> KForm:
    return extend_as_derivation(lie_derivative_images(g, a), form, 1)


def invariant_cohomology_dims(g: LieAlgebra, ideal: Subspace, a) -> list[int]:
    """dim H^i(k)^g for i = 0..dim k, k the given codimension-one ideal.

    The action of the complementary element a descends to H^i(k) because
    ad_a is a derivation of k; inner elements act trivially on cohomology,
    so the g-invariants are exactly the kernel of that induced action.
    """
    g.validate()
    a = vec(a)
    if ideal.ambient != g.n:
        raise SubspaceError("ideal has the wrong ambient dimension")
    if not g.is_ideal(ideal):
        raise SubspaceError("subspace is not an ideal")
    if ideal.dim != g.n - 1 or ideal.contains(a):
        raise SubspaceError("element does not span a complement of the ideal")
    sub = g.subalgebra(ideal, name="ideal")
    m = sub.n
    # ad_a compressed to the ideal, in the ideal's echelon basis
    action_rows = []
    for v in ideal.basis:
        w = g.bracket(a, v)
        coords = ideal.coordinates(w)
        if coords is None:
            raise SubspaceError("[a, ideal] is not contained in the ideal")
        action_rows.append(coords)
    ad_sub = transpose(action_rows)  # [i][j] = e_i-coordinate of [a, v_j]
    images = []
    for j in range(m):
        coeffs = {(1 << i): -ad_sub[j][i] for i in range(m) if ad_sub[j][i]}
        images.append(KForm(m, 1, coeffs))

    cx = complex_of(sub)
    dims = []
    for i in range(m + 1):
        zc = cx.cocycles(i)
        order = list(multi_indices(m, i))
        moved = []
        for z in zc.basis:
            f = KForm.from_vector(m, i, z)
            lz = extend_as_derivation(images, f, 1).vector(order)
            if not zc.contains(lz):
                raise SubspaceError("induced action left Z^i; ideal data corrupt")
            moved.append(lz)
        # the kernel of L_a on Z^i/B^i has dim Z^i - dim(B^i + L_a Z^i)
        boundaries = list(cx.coboundaries(i).basis)
        dims.append(zc.dim - rank(boundaries + moved, len(order)))
    return dims
