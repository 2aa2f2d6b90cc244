"""Lie algebra structure: bracket, series, derivations, direct sums.

Structure constants are kept twice: dense as the public c[i][j][k] =
coefficient of e_k in [e_i, e_j], all Fractions, for callers that index
them, and as their nonzeros, sc[i][j] = {k: c^k_ij}, which bracket, ad,
Jacobi validation and the CE complex iterate over.  Most constants of a
real algebra are zero.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm

from .errors import DimensionMismatch, JacobiError, LieKernelError, SubspaceError
from .linalg import Subspace, identity, nullspace, vec

Vector = tuple[Fraction, ...]
_ZERO = Fraction(0)


class LieAlgebra:
    def __init__(self, c, name: str | None = None, _validate: bool = True):
        n = len(c)
        if n > 16:
            raise LieKernelError(f"dimension {n} above the supported 16")
        self.n = n
        self.c = tuple(
            tuple(tuple(Fraction(x) for x in row) for row in plane) for plane in c
        )
        if any(len(p) != n or any(len(r) != n for r in p) for p in self.c):
            raise DimensionMismatch("structure constants are not n x n x n")
        self.sc = tuple(tuple({k: q for k, q in enumerate(row) if q}
                              for row in plane) for plane in self.c)
        self.name = name
        self._validated = False
        self._complex = None  # filled by cohomology.complex_of
        self._check_antisymmetry()
        if _validate:
            self.validate()

    @classmethod
    def unchecked(cls, c, name: str | None = None) -> "LieAlgebra":
        """Skip the eager Jacobi test; validation runs before first use."""
        return cls(c, name=name, _validate=False)

    @classmethod
    def abelian(cls, n: int, name: str | None = None) -> "LieAlgebra":
        z = Fraction(0)
        return cls([[[z] * n for _ in range(n)] for _ in range(n)], name=name)

    @classmethod
    def from_brackets(cls, n: int, brackets: dict, name: str | None = None,
                      validate: bool = True) -> "LieAlgebra":
        """brackets maps 1-based (i, j) with i<j to {k: coeff} for [e_i,e_j]."""
        c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
        for (i, j), comps in brackets.items():
            if not 1 <= i < j <= n:
                raise DimensionMismatch(f"bad bracket key {(i, j)}")
            for k, q in comps.items():
                c[i - 1][j - 1][k - 1] += Fraction(q)
                c[j - 1][i - 1][k - 1] -= Fraction(q)
        return cls(c, name=name, _validate=validate)

    def _check_antisymmetry(self):
        for i in range(self.n):
            for j in range(i, self.n):
                for k in range(self.n):
                    if self.c[i][j][k] != -self.c[j][i][k]:
                        raise JacobiError(
                            f"antisymmetry fails at c^{k+1}_{{{i+1},{j+1}}}")

    def validate(self) -> "LieAlgebra":
        """Check the Jacobi identity once; cached afterwards."""
        if self._validated:
            return self
        # [e_a, e_b] as {m: D c^m_ab}, D a common denominator: the identity is
        # quadratic in c, so it holds for D c exactly when it holds for c, and
        # the cyclic sums run in integers over nonzeros only
        d = lcm(*(q.denominator for plane in self.sc for row in plane
                  for q in row.values()))
        br = [[{m: q.numerator * (d // q.denominator) for m, q in row.items()}
               for row in plane] for plane in self.sc]
        for i, j, k in combinations(range(self.n), 3):
            total: dict[int, int] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for m, q in br[a][b].items():
                    for p, s in br[m][c].items():
                        total[p] = total.get(p, 0) + q * s
            if any(total.values()):
                raise JacobiError(
                    f"Jacobi fails on (e{i+1}, e{j+1}, e{k+1})"
                    + (f" in {self.name}" if self.name else ""))
        self._validated = True
        return self

    def is_valid(self) -> bool:
        try:
            self.validate()
            return True
        except JacobiError:
            return False

    def bracket_basis(self, i: int, j: int) -> Vector:
        """[e_i, e_j] for 1-based basis indices."""
        return self.c[i - 1][j - 1]

    def bracket(self, x, y) -> Vector:
        x, y = vec(x), vec(y)
        if len(x) != self.n or len(y) != self.n:
            raise DimensionMismatch("vectors outside the algebra")
        out = [_ZERO] * self.n
        for i, xi in enumerate(x):
            if not xi:
                continue
            plane = self.sc[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                f = xi * yj
                for k, q in plane[j].items():
                    out[k] += f * q
        return tuple(out)

    def ad_columns(self, x) -> list[dict[int, Fraction]]:
        """[x, e_j] for each j, as {k: nonzero coefficient of e_k}."""
        x = vec(x)
        if len(x) != self.n:
            raise DimensionMismatch("vector outside the algebra")
        cols: list[dict[int, Fraction]] = [{} for _ in range(self.n)]
        for i, xi in enumerate(x):
            if not xi:
                continue
            for col, comps in zip(cols, self.sc[i]):
                for k, q in comps.items():
                    w = col.get(k, _ZERO) + xi * q
                    if w:
                        col[k] = w
                    else:
                        del col[k]
        return cols

    def ad(self, x) -> list[Vector]:
        """Matrix of ad_x, rows indexed by output component."""
        cols = self.ad_columns(x)
        return [tuple(col.get(k, _ZERO) for col in cols) for k in range(self.n)]

    # -- ideals and series ---------------------------------------------------

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        rows = [self.bracket(u, v) for u in a.basis for v in b.basis]
        return Subspace(self.n, rows)

    def full_space(self) -> Subspace:
        return Subspace(self.n, identity(self.n))

    def derived_series(self) -> list[Subspace]:
        self.validate()
        series = [self.full_space()]
        while series[-1].dim:
            nxt = self.product_space(series[-1], series[-1])
            series.append(nxt)
            if nxt.dim == series[-2].dim:
                break  # stabilised above zero; witnessed by the repeat
        return series

    def lower_central_series(self) -> list[Subspace]:
        self.validate()
        series = [self.full_space()]
        while series[-1].dim:
            nxt = self.product_space(series[0], series[-1])
            series.append(nxt)
            if nxt.dim == series[-2].dim:
                break
        return series

    def derived_algebra(self) -> Subspace:
        self.validate()
        return self.product_space(self.full_space(), self.full_space())

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].dim == 0

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1].dim == 0

    def is_unimodular(self) -> bool:
        """tr(ad_x) = 0 for every x."""
        self.validate()
        for i in range(self.n):
            if sum((self.c[i][j][j] for j in range(self.n)), Fraction(0)) != 0:
                return False
        return True

    # -- constructions ---------------------------------------------------------

    def direct_sum(self, other: "LieAlgebra", name: str | None = None) -> "LieAlgebra":
        n, m = self.n, other.n
        total = n + m
        c = [[[Fraction(0)] * total for _ in range(total)] for _ in range(total)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    c[i][j][k] = self.c[i][j][k]
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    c[n + i][n + j][n + k] = other.c[i][j][k]
        out = LieAlgebra(c, name=name, _validate=False)
        out._validated = self._validated and other._validated
        return out

    def subalgebra(self, space: Subspace, name: str | None = None) -> "LieAlgebra":
        """Structure constants in the echelon basis of a closed subspace."""
        if space.ambient != self.n:
            raise DimensionMismatch("subspace of a different algebra")
        m = space.dim
        c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
        for i, u in enumerate(space.basis):
            for j, v in enumerate(space.basis):
                w = self.bracket(u, v)
                coords = space.coordinates(w)
                if coords is None:
                    raise SubspaceError("subspace is not closed under the bracket")
                for k, q in enumerate(coords):
                    c[i][j][k] = q
        sub = LieAlgebra(c, name=name, _validate=False)
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
        """Solution space of D[x,y] = [Dx,y] + [x,Dy] inside n^2 matrices.

        Rows of the returned subspace are matrices flattened row-major.
        """
        self.validate()
        n = self.n
        rows = []
        # unknowns D[a][b], flattened index a*n + b
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(n):
                    coeff = [Fraction(0)] * (n * n)
                    # [De_i, e_j]_k = sum_a D[a][i] c[a][j][k]
                    for a in range(n):
                        coeff[a * n + i] += self.c[a][j][k]
                        coeff[a * n + j] += self.c[i][a][k]
                    # -(D[e_i,e_j])_k = -sum_b c[i][j][b] D[k][b]
                    for b in range(n):
                        coeff[k * n + b] -= self.c[i][j][b]
                    rows.append(tuple(coeff))
        return Subspace(n * n, nullspace(rows, n * n))

    def derivation_matrices(self) -> list[list[Vector]]:
        n = self.n
        return [
            [tuple(row[a * n + b] for b in range(n)) for a in range(n)]
            for row in self.derivation_algebra().basis
        ]

    def is_characteristically_nilpotent(self) -> bool:
        """All derivations nilpotent, tested as nilpotency of Der(g)."""
        if not self.is_nilpotent():
            raise LieKernelError("characteristic nilpotency needs a nilpotent input")
        der = matrix_lie_algebra(self.derivation_matrices(), name="Der")
        if der is None:
            return True  # zero-dimensional derivation algebra
        return der.is_nilpotent()

    def __repr__(self):
        label = self.name or f"dim {self.n}"
        return f"LieAlgebra({label})"


def matrix_commutator(a, b):
    n = len(a)
    return [
        tuple(
            sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)), Fraction(0))
        for j in range(n))
        for i in range(n)
    ]


def matrix_lie_algebra(matrices, name: str | None = None) -> LieAlgebra | None:
    """Abstract structure constants of a commutator-closed matrix span.

    Raises SubspaceError if the span is not closed under commutators.
    Returns None for the zero algebra.
    """
    if not matrices:
        return None
    n = len(matrices[0])
    flat = [tuple(row[i][j] for i in range(n) for j in range(n)) for row in matrices]
    span = Subspace(n * n, flat)
    if span.dim != len(matrices):
        raise LieKernelError("matrix basis is linearly dependent")
    m = len(matrices)
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            comm = matrix_commutator(matrices[i], matrices[j])
            coords = span.coordinates(
                tuple(comm[a][b] for a in range(n) for b in range(n)))
            if coords is None:
                raise SubspaceError("matrix span not closed under commutator")
            for k, q in enumerate(coords):
                c[i][j][k] = q
                c[j][i][k] = -q
    return LieAlgebra(c, name=name)


def is_nilpotent_matrix(m) -> bool:
    n = len(m)
    power = [list(map(Fraction, row)) for row in m]
    for _ in range(n):
        if all(all(x == 0 for x in row) for row in power):
            return True
        power = [
            [sum((power[i][k] * Fraction(m[k][j]) for k in range(n)), Fraction(0))
             for j in range(n)]
            for i in range(n)
        ]
    return all(all(x == 0 for x in row) for row in power)
