"""Chevalley-Eilenberg complex, Betti numbers and invariant cohomology.

The differential is generated on dual-basis one-forms by
de^k = -sum_{i<j} c^k_ij e_ij and extended as an antiderivation; this is
the alternating-sum formula
(da)(X_0..X_k) = sum_{i<j} (-1)^{i+j} a([X_i,X_j], X_0..^i..^j..X_k)
packaged degree by degree, and d o d = 0 is exactly the Jacobi identity,
so every complex validates its algebra when it is built.
The differential matrices are kept as sparse integer rows of D d_k, with D
the algebra's `scale`, the common denominator of its structure constants,
built by `exterior.derivation_rows` from the integer images D de^m read off
its `br`, rows and columns in the lex basis of `exterior.lex`.  Ranks,
pivots, cocycles and coboundaries are the same at any scale, so they read
these rows as they are; the readers of the matrix itself, `ce_differential`
and `LieKernel.dP_rows`, divide by D.  `CEComplex.d` combines these rows
(`linalg.combine`) with a form's int numerators and divides once per entry,
and `verify_d_squared` combines the rows of d_{k+1} by each row of d_k.
Ranks are taken by exact sparse integer elimination (`linalg.rank`), and
the rank of d_k drops the rows at the echelon pivots of d_{k-1}, which
d o d = 0 makes dependent.
The pivot columns of that echelon span the column space of d_k, so Z^k is
the integer null space of those columns alone, a `Subspace` of integer
rows; B^k is never solved, only spanned by the rows of d_{k-1}.
For unimodular g, d: Lambda^{n-1} -> Lambda^n vanishes, so
0 = d(a ^ b) = da ^ b +- a ^ db makes d_k and d_{n-1-k} adjoint under the
wedge pairing (Poincare duality): the columns of d_k whose complements are
pivots of d_{n-2-k} are as dependent as the rows of d_{n-1-k} at those
pivots.
`betti` reads one rank loop, `dual_ranks`.  A sparse d_k is ranked exactly,
as the loop did before it had a packed path: the lower half by `d_rank`,
the upper half of a unimodular g once on the core off both cuts, rank
d_k + b_k rows by rank d_k + b_{k+1} columns, where the plain path keeps
all C(n, k+1) columns.  A d_k with at least a share `DENSE` of its cells
nonzero is ranked mod p = 2^19 - 1 first, by `linalg.rank_mod_p`: each row
is one Python int in 64-bit signed slots, a row update adds less than
(p/2)^2 < 2^36 to a slot, and a row meets at most C(16, 8) = 12870 pivots,
so the slots stay below 2^63.  Above the middle of a unimodular g, a d_k
whose dual is dense is not even built: its integer matrix is d_{n-1-k}
transposed up to signs, so it has the same rank mod p.
The settle rule.  A minor nonzero mod p is nonzero over Q, so the rank
rho_k mod p is at most the rank r_k over Q, and as
b_k = C(n, k) - r_k - r_{k-1} >= 0, u_k = C(n, k) - rho_k - rho_{k-1} is at
least b_k.  Where u_k = 0, both r_k = rho_k and r_{k-1} = rho_{k-1}.  An
exact rank is settled by itself, and for unimodular g r_k = r_{n-1-k}
carries a settled rank to its dual degree.  Going up, with r_{k-1} settled,
C(n, k) = rho_k + r_{k-1} settles rho_k; each other degree is ranked
exactly on its core.  So a bad prime only leaves more degrees open: no
answer depends on it.
Why mod-p pivots cut valid cores.  The rows that became pivots have a
minor nonzero mod p at the pivot columns, so nonzero over Q, and those
columns are independent over Q as well as mod p.  If the minor of d_{k-1}
at rows R and columns S is invertible, d_{k-1} d_k = 0 writes the rows of
d_k at S through the others, so they may be dropped; for unimodular g the
columns of d_k paired with such columns of d_{n-2-k} may be cut likewise.
A core cut by either kind of pivots keeps the rank r_k over Q, so its rank
mod p is at most r_k, which is all the settle rule needs; only a core cut
by mod-p pivots also keeps the rank of d_k mod p.
Unimodularity is read off the complex itself: d e^{[n] - a} is
+-tr(ad e_a) e^{[n]}, so g is unimodular exactly when d_{n-1} = 0.
`d_rank`, `betti_number` and `cocycles` stay the plain per-degree path, so
the duality checks that read them (the corpus, the tests) assume nothing.
The Lie derivative L_a = -ad_a^* goes through the same kernel, by
`exterior.extend_as_derivation`; `invariant_cohomology_dims` makes one
`derivation_rows` call per degree over the basis forms that Z^i uses,
combines those rows into L_a Z^i, and ranks them with the rows of d_{i-1},
all on the ideal's complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .errors import DimensionMismatch, SubspaceError
from .exterior import KForm, derivation_rows, extend_as_derivation, lex
from .liealg import LieAlgebra
from .linalg import (Subspace, clear_denominators, combine, identity, nullspace,
                     rank, rank_mod_p, vec)

# a d_k with at least this share of its cells nonzero is ranked mod p first
DENSE = 0.15


def _check_degree(k: int):
    if k < 0:
        raise DimensionMismatch(f"negative degree {k}")


class CEComplex:
    """CE differential matrices of one algebra, with cached ranks and Z^k.

    The complex keeps only n, D (`scale`) and the integer terms of D de^k,
    not the algebra: the algebra caches its complex (`complex_of`), and a
    reference back would make a cycle.
    """

    def __init__(self, algebra: LieAlgebra):
        algebra.validate()  # so d o d = 0, which d_rank relies on
        self.n = n = algebra.n
        self.scale, br = algebra.scale, algebra.br
        # D de^m = -sum_{a<b} D c^m_ab e_ab
        self._images: list[dict] = [{} for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                for m, q in br[a][b].items():
                    self._images[m][(1 << a) | (1 << b)] = -q
        self._rows: dict[int, list] = {}
        self._rank: dict[int, int] = {}
        self._pivots: dict[int, set] = {}
        self._cocycles: dict[int, Subspace] = {}

    def d(self, form: KForm) -> KForm:
        """d of a form with int or Fraction coefficients, by `d_rows`."""
        if not isinstance(form, KForm) or form.n != self.n:
            raise DimensionMismatch("d needs a form on the algebra")
        k = form.k
        scale, nums = clear_denominators(form.coeffs)
        pos, rows = lex(self.n, k)[2], self.d_rows(k)
        acc = combine((v, rows[pos[b]]) for b, v in nums.items())
        out, scale = lex(self.n, k + 1)[1], scale * self.scale
        return KForm(self.n, k + 1, {out[j]: Fraction(v, scale)
                                     for j, v in acc.items() if v})

    def d_rows(self, k: int) -> list[dict]:
        """Sparse integer row i = {j: D times the coefficient of e_J_j in
        d(e_I_i)}, lex indices, D = `scale`."""
        if k not in self._rows:
            _check_degree(k)
            col = lex(self.n, k + 1)[2]
            self._rows[k] = [
                {col[b]: v for b, v in row.items() if v} for row in
                derivation_rows(self._images, zip(*lex(self.n, k)[:2]))]
        return self._rows[k]

    def unscale(self, rows: list[dict]) -> list[dict]:
        """Rows of `d_rows` divided by `scale`: entries of d itself."""
        d = self.scale
        return [{j: Fraction(v, d) for j, v in row.items()} for row in rows]

    def d_rank(self, k: int) -> int:
        if k not in self._rank:
            _check_degree(k)
            if k >= self.n:
                self._rank[k] = 0
            else:
                # d o d = 0: an echelon row y of d_{k-1} has y d_k = 0 and is
                # zero before its pivot, so going down the pivots each row of
                # d_k at a pivot column of d_{k-1} lies in the span of the
                # rows off those columns, and dropping them keeps the rank
                skip = ()
                if k:
                    self.d_rank(k - 1)
                    skip = self._pivots[k - 1]
                rows = [r for i, r in enumerate(self.d_rows(k)) if i not in skip]
                self._pivots[k] = pivots = set()
                self._rank[k] = rank(rows, comb(self.n, k + 1), pivots=pivots)
        return self._rank[k]

    def dual_ranks(self) -> list[int]:
        """rank d_k for k = 0..n, every one exact: the one rank loop of
        `betti`, by the settle rule of the module docstring.  The duality
        cuts and the mirrored degrees are taken only when d_{n-1} = 0, that
        is when the algebra is unimodular.

        There d_k and d_{n-1-k} are adjoint under the wedge pairing, up to
        the signed complement of their indices, so the columns e_J of d_k
        whose complements [n] - J are pivots of d_{n-2-k} depend on the rest
        as the rows of d_{n-1-k} at those pivots do (`d_rank`).  Every core
        drops the rows at the pivots of d_{k-1}; above the lower half,
        2k <= n - 2, a unimodular core also cuts the columns paired with the
        pivots of d_{n-2-k}, and so does every core ranked exactly after the
        settle rule.  Core pivots span the columns of d_k, so they cut the
        rows of d_{k+1}, but they are not the echelon's that `cocycles`
        reads: only `d_rank` caches, and it ranks the sparse d_k of the
        lower half, or of every degree when g is not unimodular.
        """
        n, full = self.n, (1 << self.n) - 1
        unimodular = n > 0 and not any(self.d_rows(n - 1))
        ranks: list[int] = []
        pivots: list = []  # independent columns of d_k over Q, or None
        exact: list[bool] = []

        def core(k: int) -> list[dict]:
            skip, cut = (k and pivots[k - 1]) or (), set()
            if unimodular and 0 <= n - 2 - k < len(pivots):
                bits, pos = lex(n, n - 1 - k)[1], lex(n, k + 1)[2]
                cut = {pos[full ^ bits[p]] for p in pivots[n - 2 - k] or ()}
            return [{j: v for j, v in r.items() if j not in cut}
                    for i, r in enumerate(self.d_rows(k)) if i not in skip]

        for k in range(n):
            # above the middle of a unimodular g, d_k is d_{n-1-k} transposed
            # up to signs: as dense, and of its rank mod p, which is at least
            # the rank mod p of the core of d_{n-1-k} and at most r_k
            above = unimodular and n - 1 - k < k
            if above:
                dense = not exact[n - 1 - k]
            else:
                rows, width = self.d_rows(k), comb(n, k + 1)
                dense = sum(map(len, rows)) >= DENSE * len(rows) * width
            if above and dense:
                rho, found = ranks[n - 1 - k], None
            elif dense:
                rho, found = rank_mod_p(core(k))
            elif 2 * k <= n - 2 or not unimodular:
                rho, found = self.d_rank(k), self._pivots[k]
            else:
                found = set()
                rho = rank(core(k), comb(n, k + 1), pivots=found)
            ranks.append(rho)
            pivots.append(found)
            exact.append(not dense)
        ranks.append(0)
        # rho_k <= r_k, so u_k = C(n, k) - rho_k - rho_{k-1} >= b_k >= 0, and
        # u_k = 0 makes both ranks exact.  Going up, r_{k-1} is exact by now,
        # and above the middle of a unimodular g so is r_{n-1-k} = r_k
        for k in range(n):
            if (exact[k] or comb(n, k) == ranks[k] + (k and ranks[k - 1])
                    or comb(n, k + 1) == ranks[k + 1] + ranks[k]):
                continue
            if unimodular and n - 1 - k < k:
                ranks[k] = ranks[n - 1 - k]
            else:
                pivots[k] = set()
                ranks[k] = rank(core(k), comb(n, k + 1), pivots=pivots[k])
        return ranks

    def cocycles(self, k: int) -> Subspace:
        """Z^k as an explicit subspace of Lambda^k (lex coordinates)."""
        if k not in self._cocycles:
            _check_degree(k)
            dim_k = comb(self.n, k)
            if k >= self.n:
                self._cocycles[k] = Subspace(dim_k, identity(dim_k))
            else:
                # Z^k = {x : x d_k = 0}; the pivot columns of the echelon
                # of `d_rank` are a basis of the column space of d_k, so
                # only they give equations
                self.d_rank(k)
                cols = {j: {} for j in self._pivots[k]}
                for i, row in enumerate(self.d_rows(k)):
                    for j, q in row.items():
                        if j in cols:
                            cols[j][i] = q
                self._cocycles[k] = Subspace(
                    dim_k, nullspace(list(cols.values()), dim_k))
        return self._cocycles[k]

    def betti_number(self, k: int) -> int:
        """b_k = C(n, k) - rank d_k - rank d_{k-1}; 0 outside 0..n."""
        if not 0 <= k <= self.n:
            return 0
        return comb(self.n, k) - self.d_rank(k) - (k and self.d_rank(k - 1))

    def verify_d_squared(self) -> bool:
        """d o d == 0 in every degree, as d_rows(k) d_rows(k+1) == 0: a
        check of the cached rows, as every complex's algebra passed Jacobi."""
        for k in range(self.n - 1):
            nxt = self.d_rows(k + 1)
            for row in self.d_rows(k):
                if any(combine((v, nxt[j]) for j, v in row.items()).values()):
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
    cx = complex_of(g)
    return cx.unscale(cx.d_rows(k))


@dataclass(frozen=True)
class CohomologyReport:
    n: int
    z_dims: tuple[int, ...]
    b_dims: tuple[int, ...]
    betti: tuple[int, ...]


def betti(g: LieAlgebra, complex: CEComplex | None = None) -> CohomologyReport:
    """dim Z^k, dim B^k and b_k of g for k = 0..n, from the ranks of d_k.

    The ranks come from `CEComplex.dual_ranks`: dense d_k mod p first,
    each rank settled or ranked exactly, on Poincare duality cores for
    unimodular g; `CEComplex.d_rank` stays the plain per-degree path.
    """
    cx = complex if complex is not None else complex_of(g)
    n, r = g.n, cx.dual_ranks()
    ks = range(n + 1)
    return CohomologyReport(n, tuple(comb(n, k) - r[k] for k in ks),
                            tuple(k and r[k - 1] for k in ks),
                            tuple(comb(n, k) - r[k] - (k and r[k - 1])
                                  for k in ks))


def is_23_trivial(g: LieAlgebra) -> bool:
    cx = complex_of(g)
    return cx.betti_number(2) == 0 and cx.betti_number(3) == 0


def lie_derivative(g: LieAlgebra, a, form: KForm) -> KForm:
    """L_a form, L_a = -ad_a^* extended as a derivation."""
    if not isinstance(form, KForm) or form.n != g.n:
        raise DimensionMismatch("lie_derivative needs a form on the algebra")
    images = [{1 << i: -q for i, q in enumerate(row) if q} for row in g.ad(a)]
    return KForm(g.n, form.k, extend_as_derivation(images, form.coeffs))


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
    # ad_a compressed to the ideal: row i is the coordinates of [a, v_i] in
    # the ideal's echelon basis, which is_ideal has shown to exist
    action_rows = [ideal.coordinates(g.bracket(a, v)) for v in ideal.basis]
    # L_a = -ad_a^*: L_a e^j = -sum_i e^j([a, v_i]) e^i, times the common
    # denominator l of the action, so images and L_a Z^i are ints
    l = lcm(*(q.denominator for row in action_rows for q in row))
    images: list[dict] = [{} for _ in range(m)]
    for i, row in enumerate(action_rows):
        for j, q in enumerate(row):
            if q:
                images[j][1 << i] = -q.numerator * (l // q.denominator)

    # g validates and k is an ideal, so L_a is a chain map of the complex
    # of k and maps Z^i into Z^i
    cx = complex_of(sub)
    dims = []
    for i in range(m + 1):
        zc = cx.cocycles(i)
        ixs, bits, pos = lex(m, i)
        # L_a of the basis forms the cocycles use, one kernel call a degree
        used = sorted(set().union(*zc.rows))
        image_of = dict(zip(used, derivation_rows(
            images, [(ixs[c], bits[c]) for c in used])))
        moved = [{pos[b]: w for b, w in combine(
                      (v, image_of[c]) for c, v in z.items()).items() if w}
                 for z in zc.rows]
        # the kernel of L_a on Z^i/B^i has dim Z^i - dim(B^i + L_a Z^i),
        # B^i spanned by the rows of d_{i-1}
        boundary = cx.d_rows(i - 1) if i else []
        dims.append(zc.dim - rank(boundary + moved, comb(m, i)))
    return dims
