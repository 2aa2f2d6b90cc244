"""Lie algebra structure: bracket, series, derivations, direct sums.

There is one way in, the fill of `LieAlgebra.from_brackets`: it takes the
nonzero brackets {(i, j): {k: c^k_ij}} over 1-based i < j and stores each
constant straight into the sparse sc[i][j] = {k: c^k_ij} (Fractions,
ascending k), as q at (i, j) and -q at (j, i); most constants of a real
algebra are zero.  `LieAlgebra(c)` is a checked adapter for a dense tensor:
it checks shape and antisymmetry and hands the upper triangle to that fill.
The dense c[i][j][k] = coefficient of e_k in [e_i, e_j] is a read-only
view, built from sc on first read, for the callers that index it.
`brackets` hands the nonzeros back in the form `from_brackets` takes.
`scaled_brackets` keeps them once more, times their common denominator D,
as integers, for the Jacobi test, the integer CE rows and the integer ad
rows of `kernelmap`.  The Jacobi sums, `bracket` and `ad` are sums of
these sparse rows, by `linalg.combine`.  The derived and lower central
series and Der(g) are computed once per algebra, after validation, and
cached, as its complex and Lie kernel are; each series call hands out a
fresh list, and `derived_algebra` is the second term of the derived series.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm

from .errors import DimensionMismatch, JacobiError, LieKernelError, SubspaceError
from .exterior import MAX_DIM
from .linalg import Subspace, combine, identity, nullspace, vec

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


def _check_dim(n: int):
    if n > MAX_DIM:
        raise LieKernelError(f"dimension {n} above the supported {MAX_DIM}")


class LieAlgebra:
    def __init__(self, c, name: str | None = None, _validate: bool = True):
        """Checked adapter from a dense c[i][j][k] = coefficient of e_k in
        [e_i, e_j]: its shape and antisymmetry are checked, and the nonzeros
        over i < j go to the fill of `from_brackets`."""
        n = len(c)
        _check_dim(n)
        c = [[vec(row) for row in plane] for plane in c]
        if any(len(p) != n or any(len(r) != n for r in p) for p in c):
            raise DimensionMismatch("structure constants are not n x n x n")
        for i, j in combinations_with_replacement(range(n), 2):
            for k, (p, q) in enumerate(zip(c[i][j], c[j][i])):
                if (p or q) and p != -q:
                    raise JacobiError(
                        f"antisymmetry fails at c^{k+1}_{{{i+1},{j+1}}}")
        self._fill(n, {(i + 1, j + 1): {k + 1: q for k, q in
                                        enumerate(c[i][j]) if q}
                       for i, j in combinations(range(n), 2)}, name)
        if _validate:
            self.validate()

    @classmethod
    def unchecked(cls, c, name: str | None = None) -> "LieAlgebra":
        """Skip the eager Jacobi test; validation runs before first use."""
        return cls(c, name=name, _validate=False)

    @classmethod
    def abelian(cls, n: int, name: str | None = None) -> "LieAlgebra":
        return cls.from_brackets(n, {}, name=name)

    @classmethod
    def from_brackets(cls, n: int, brackets: dict, name: str | None = None,
                      validate: bool = True) -> "LieAlgebra":
        """brackets maps 1-based (i, j) with i<j to {k: coeff} for [e_i,e_j]."""
        g = cls.__new__(cls)
        g._fill(n, brackets, name)
        return g.validate() if validate else g

    def _fill(self, n: int, brackets: dict, name: str | None):
        _check_dim(n)
        self.n, self.name, self._validated = n, name, False
        # caches filled on first use by the c property, scaled_brackets,
        # the two series and Der(g) (after validation, so an algebra that
        # fails Jacobi caches none), cohomology.complex_of,
        # kernelmap.lie_kernel and the per-unit ad rows of kernelmap.scaled_ad
        self._c = self._scaled = self._derived = self._lower = self._der = None
        self._complex = self._kernel = self._ad_rows = None
        sc = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            if not 1 <= i < j <= n:
                raise DimensionMismatch(f"bad bracket key {(i, j)}")
            for k, q in sorted(comps.items()):
                if not 1 <= k <= n:
                    raise DimensionMismatch(
                        f"bracket component e{k} of {(i, j)} outside 1..{n}")
                q = q if type(q) is Fraction else Fraction(q)
                if q:
                    sc[i - 1][j - 1][k - 1] = q
                    sc[j - 1][i - 1][k - 1] = -q
        self.sc = tuple(map(tuple, sc))

    @property
    def c(self) -> tuple:
        """Dense c[i][j][k] = coefficient of e_k in [e_i, e_j], all
        Fractions; built from sc on first read."""
        if self._c is None:
            ks = range(self.n)
            self._c = tuple(tuple(tuple(row.get(k, _ZERO) for k in ks)
                                  for row in plane) for plane in self.sc)
        return self._c

    def brackets(self) -> dict:
        """The nonzero brackets in the form `from_brackets` takes: 1-based
        (i, j) with i<j to {k: c^k_ij}, in lex order of (i, j)."""
        return {(i + 1, j + 1): {k + 1: q for k, q in row.items()}
                for i, plane in enumerate(self.sc)
                for j, row in enumerate(plane) if i < j and row}

    def validate(self) -> "LieAlgebra":
        """Check the Jacobi identity once; cached afterwards."""
        if self._validated:
            return self
        # the identity is quadratic in c, so it holds for D c exactly when
        # it holds for c, and the cyclic sums run in integers over nonzeros
        br = self.scaled_brackets()[1]
        for i, j, k in combinations(range(self.n), 3):
            total = combine((q, row)
                            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
                            for m, q in br[a][b].items() if (row := br[m][c]))
            if any(total.values()):
                raise JacobiError(
                    f"Jacobi fails on (e{i+1}, e{j+1}, e{k+1})"
                    + (f" in {self.name}" if self.name else ""))
        self._validated = True
        return self

    def scaled_brackets(self) -> tuple[int, tuple]:
        """(D, br): D the least common denominator of the structure
        constants and br[a][b] = {m: D c^m_ab} in integers; cached."""
        if self._scaled is None:
            d = lcm(*(q.denominator for plane in self.sc for row in plane
                      for q in row.values()))
            self._scaled = d, tuple(
                tuple({m: q.numerator * (d // q.denominator)
                       for m, q in row.items()} for row in plane)
                for plane in self.sc)
        return self._scaled

    def bracket(self, x, y) -> Vector:
        x, y = vec(x), vec(y)
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("vectors outside the algebra")
        sc, out = self.sc, [_ZERO] * self.n
        for k, v in combine((xi * yj, row) for i, xi in enumerate(x) if xi
                            for j, yj in enumerate(y)
                            if yj and (row := sc[i][j])).items():
            out[k] = v
        return tuple(out)

    def ad(self, x) -> list[Vector]:
        """Matrix of ad_x, rows indexed by output component: column j is
        [x, e_j], the sum of x_i [e_i, e_j]."""
        x = vec(x)
        if len(x) != self.n:
            raise DimensionMismatch("vector outside the algebra")
        cols = [combine((xi, self.sc[i][j]) for i, xi in enumerate(x) if xi)
                for j in range(self.n)]
        return [tuple(col.get(k, _ZERO) for col in cols) for k in range(self.n)]

    # -- ideals and series ---------------------------------------------------

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        rows = [self.bracket(u, v) for u in a.basis for v in b.basis]
        return Subspace(self.n, rows)

    def full_space(self) -> Subspace:
        return Subspace(self.n, identity(self.n))

    def _series(self, left) -> tuple[Subspace, ...]:
        """g, then [left(series), last term] until a term is zero or keeps
        the dimension of the one before."""
        self.validate()
        series = [self.full_space()]
        while series[-1].dim:
            nxt = self.product_space(left(series), series[-1])
            series.append(nxt)
            if nxt.dim == series[-2].dim:
                break  # stabilised above zero; witnessed by the repeat
        return tuple(series)

    def derived_series(self) -> list[Subspace]:
        """g, g' = [g, g], [g', g'], ...; computed once, a fresh list per
        call."""
        if self._derived is None:
            self._derived = self._series(lambda series: series[-1])
        return list(self._derived)

    def lower_central_series(self) -> list[Subspace]:
        """g, [g, g], [g, [g, g]], ...; computed once, a fresh list per
        call."""
        if self._lower is None:
            self._lower = self._series(lambda series: series[0])
        return list(self._lower)

    def derived_algebra(self) -> Subspace:
        # the second term of the derived series; the zero algebra has none
        return self.derived_series()[:2][-1]

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_unimodular(self) -> bool:
        """tr(ad_x) = 0 for every x."""
        self.validate()
        return not any(sum(row.get(j, 0) for j, row in enumerate(plane))
                       for plane in self.sc)

    # -- constructions ---------------------------------------------------------

    def direct_sum(self, other: "LieAlgebra", name: str | None = None) -> "LieAlgebra":
        n = self.n
        brackets = self.brackets()
        for (i, j), comps in other.brackets().items():
            brackets[i + n, j + n] = {k + n: q for k, q in comps.items()}
        out = LieAlgebra.from_brackets(n + other.n, brackets, name=name,
                                       validate=False)
        out._validated = self._validated and other._validated
        return out

    def subalgebra(self, space: Subspace, name: str | None = None) -> "LieAlgebra":
        """Structure constants in the echelon basis of a closed subspace."""
        if space.ambient != self.n:
            raise DimensionMismatch("subspace of a different algebra")
        brackets = {}
        for (i, u), (j, v) in combinations(enumerate(space.basis, 1), 2):
            coords = space.coordinates(self.bracket(u, v))
            if coords is None:
                raise SubspaceError("subspace is not closed under the bracket")
            brackets[i, j] = {k: q for k, q in enumerate(coords, 1) if q}
        sub = LieAlgebra.from_brackets(space.dim, brackets, name=name,
                                       validate=False)
        sub._validated = self._validated
        return sub

    def is_ideal(self, space: Subspace) -> bool:
        self.validate()
        return all(
            space.contains(self.bracket(u, v))
            for u in identity(self.n)
            for v in space.basis
        )

    # -- derivations -------------------------------------------------------------

    def derivation_algebra(self) -> Subspace:
        """Solution space of D[x,y] = [Dx,y] + [x,Dy] inside n^2 matrices;
        solved once per algebra after validation.

        Rows of the returned subspace are matrices flattened row-major.
        """
        if self._der is not None:
            return self._der
        self.validate()
        n, br = self.n, self.scaled_brackets()[1]
        rows = []
        # unknowns D[a][b], flattened index a*n + b; one integer dict row
        # per (i < j, k), the equation times D, from the nonzero constants
        for i, j in combinations(range(n), 2):
            eqs: list[dict[int, int]] = [{} for _ in range(n)]
            for a in range(n):
                # [De_i, e_j]_k = sum_a D[a][i] c[a][j][k], likewise for j
                for k, q in br[a][j].items():
                    eqs[k][a * n + i] = eqs[k].get(a * n + i, 0) + q
                for k, q in br[i][a].items():
                    eqs[k][a * n + j] = eqs[k].get(a * n + j, 0) + q
            # -(D[e_i,e_j])_k = -sum_b c[i][j][b] D[k][b]
            for k, eq in enumerate(eqs):
                for b, q in br[i][j].items():
                    eq[k * n + b] = eq.get(k * n + b, 0) - q
            rows.extend(eqs)
        self._der = Subspace(n * n, nullspace(rows, n * n))
        return self._der

    def derivation_matrices(self) -> list[list[Vector]]:
        n, der = self.n, self.derivation_algebra()
        return [
            [tuple(Fraction(r.get(a * n + b, 0), r[p]) for b in range(n))
             for a in range(n)]
            for r, p in zip(der.rows, der.pivots)
        ]

    def is_characteristically_nilpotent(self) -> bool:
        """All derivations nilpotent.

        By Leger and Togo, exactly when the chain g, Der(g) g, Der(g)^2 g,
        ... reaches 0, each term spanned by D v for D in Der(g) and v in the
        term before.  Each term lies inside the one before, so a term that
        keeps the dimension repeats for ever.  Der(R) = gl(1) holds the
        identity, so the chain of R stays at R.
        """
        if not self.is_nilpotent():
            raise LieKernelError("characteristic nilpotency needs a nilpotent input")
        n, ders = self.n, self.derivation_algebra().rows
        space = self.full_space()
        while space.dim:
            image = []
            for d in ders:  # D[a][b] at a*n + b, an integer multiple of D
                for v in space.rows:
                    dv: dict[int, int] = {}
                    for ab, x in d.items():
                        a, b = divmod(ab, n)
                        if b in v:
                            dv[a] = dv.get(a, 0) + x * v[b]
                    image.append(dv)
            nxt = Subspace(n, image)
            if nxt.dim == space.dim:
                return False
            space = nxt
        return True

    def __repr__(self):
        label = self.name or f"dim {self.n}"
        return f"LieAlgebra({label})"


def matrix_commutator(a, b):
    n = len(a)
    return [
        tuple(
            sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
        for j in range(n))
        for i in range(n)
    ]


def matrix_lie_algebra(matrices, name: str | None = None) -> LieAlgebra | None:
    """Abstract structure constants of a commutator-closed matrix span, in
    the given basis of matrices.

    Raises SubspaceError if the span is not closed under commutators.
    Returns None for the zero algebra.
    """
    if not matrices:
        return None
    n, m = len(matrices[0]), len(matrices)

    def flat(a) -> dict:
        return {i * n + j: x for i, row in enumerate(a)
                for j, x in enumerate(row) if x}

    # rows (M_i, e_i): reducing (X, 0) leaves (0, -x) when X = sum x_i M_i,
    # and a pivot in the e-part is a linear relation among the M_i
    span = Subspace(n * n + m, [{**flat(a), n * n + i: 1}
                                for i, a in enumerate(matrices)])
    if span.pivots[-1] >= n * n:
        raise LieKernelError("matrix basis is linearly dependent")
    brackets = {}
    for (i, a), (j, b) in combinations(enumerate(matrices, 1), 2):
        w = span.reduce(flat(matrix_commutator(a, b)))
        if any(c < n * n for c in w):
            raise SubspaceError("matrix span not closed under commutator")
        brackets[i, j] = {c - n * n + 1: -q for c, q in w.items()}
    return LieAlgebra.from_brackets(m, brackets, name=name)

