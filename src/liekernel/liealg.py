"""Lie algebra structure: bracket, series, derivations, direct sums.

There is one way in, the fill of `LieAlgebra.from_brackets`: it takes the
nonzero brackets {(i, j): {k: c^k_ij}} over 1-based i < j and keeps them
once, as integers over one denominator: `scale` D, the lcm of their
denominators, and br[i][j] = {k: D c^k_ij} (ascending k), v at (i, j) and
-v at (j, i).  `LieAlgebra(c)` is a checked adapter for a dense tensor: it
checks shape and antisymmetry and hands the upper triangle to that fill.
The dense view c[i][j][k] = coefficient of e_k in [e_i, e_j], built on
first read, and `brackets`, the nonzeros in the form `from_brackets`
takes, divide by D; the Jacobi test, Der(g), the CE rows and the ad rows
of `kernelmap` read br as it is.  One private bracket, `_bracket(u, v)` =
D [u, v] on {index: value} dicts by `linalg.combine`, is behind `bracket`
and `ad`, which divide by D, and behind `product_space`, `is_ideal` and
`subalgebra`, which take the integer rows of a `Subspace`, since a span
does not depend on the scale.  The two series and Der(g) are computed once
per algebra, after validation, and cached, as its complex and Lie kernel
are; each series call hands out a fresh list.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .errors import DimensionMismatch, JacobiError, LieKernelError, SubspaceError
from .exterior import MAX_DIM
from .linalg import Subspace, clear_denominators, combine, nullspace, vec

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
        # caches filled on first use by the c property, the two series and
        # Der(g) (after validation, so an algebra that fails Jacobi caches
        # none), cohomology.complex_of, kernelmap.lie_kernel and the
        # per-unit ad rows of kernelmap.scaled_ad
        self._c = self._derived = self._lower = self._der = None
        self._complex = self._kernel = self._ad_rows = None
        consts = {}
        for (i, j), comps in brackets.items():
            if not 1 <= i < j <= n:
                raise DimensionMismatch(f"bad bracket key {(i, j)}")
            for k, q in sorted(comps.items()):
                if not 1 <= k <= n:
                    raise DimensionMismatch(
                        f"bracket component e{k} of {(i, j)} outside 1..{n}")
                q = q if type(q) is Fraction else Fraction(q)
                if q:
                    consts[i - 1, j - 1, k - 1] = q
        self.scale, ints = clear_denominators(consts)
        br = [[{} for _ in range(n)] for _ in range(n)]
        for (i, j, k), v in ints.items():
            br[i][j][k], br[j][i][k] = v, -v
        self.br = tuple(map(tuple, br))

    @property
    def c(self) -> tuple:
        """Dense c[i][j][k] = coefficient of e_k in [e_i, e_j], all
        Fractions; built from br on first read."""
        if self._c is None:
            d, ks = self.scale, range(self.n)
            self._c = tuple(tuple(tuple(Fraction(row.get(k, 0), d) for k in ks)
                                  for row in plane) for plane in self.br)
        return self._c

    def brackets(self) -> dict:
        """The nonzero brackets in the form `from_brackets` takes: 1-based
        (i, j) with i<j to {k: c^k_ij}, in lex order of (i, j)."""
        d = self.scale
        return {(i + 1, j + 1): {k + 1: Fraction(v, d) for k, v in row.items()}
                for i, plane in enumerate(self.br)
                for j, row in enumerate(plane) if i < j and row}

    def validate(self) -> "LieAlgebra":
        """Check the Jacobi identity once; cached afterwards."""
        if self._validated:
            return self
        # the identity is quadratic in c, so it holds for D c exactly when
        # it holds for c, and the cyclic sums run in integers over nonzeros
        br = self.br
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

    def _bracket(self, u: dict, v: dict) -> dict:
        """D [u, v] for u, v as {index: value} dicts, a sum of the rows of
        br by `combine`; a value may be zero where terms cancel."""
        br = self.br
        return combine((x * y, row) for i, x in u.items()
                       for j, y in v.items() if (row := br[i][j]))

    def _nonzeros(self, x) -> dict:
        x = vec(x)
        if len(x) != self.n:
            raise DimensionMismatch("vector outside the algebra")
        return {i: q for i, q in enumerate(x) if q}

    def _own(self, space: Subspace) -> Subspace:
        if space.ambient != self.n:
            raise DimensionMismatch("subspace of a different algebra")
        return space

    def bracket(self, x, y) -> Vector:
        d, out = self.scale, [_ZERO] * self.n
        xy = self._bracket(self._nonzeros(x), self._nonzeros(y))
        for k, v in xy.items():
            out[k] = v / d
        return tuple(out)

    def ad(self, x) -> list[Vector]:
        """Matrix of ad_x, rows indexed by output component: column j is
        [x, e_j], the sum of x_i [e_i, e_j]."""
        d, x = self.scale, self._nonzeros(x)
        cols = [self._bracket(x, {j: 1}) for j in range(self.n)]
        return [tuple(col.get(k, _ZERO) / d for col in cols)
                for k in range(self.n)]

    # -- ideals and series ---------------------------------------------------

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        rows = self._own(b).rows
        return Subspace(self.n, [self._bracket(u, v) for u in self._own(a).rows
                                 for v in rows])

    def full_space(self) -> Subspace:
        return Subspace(self.n, [{i: 1} for i in range(self.n)])

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
                       for plane in self.br)

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
        """Structure constants in the echelon basis of a closed subspace:
        basis vector i is row i over its lead, so the coordinates of
        D [row_u, row_v] are divided by D lead_u lead_v."""
        brackets, d = {}, self.scale
        rows = enumerate(zip(self._own(space).rows, space.pivots), 1)
        for (i, (u, pu)), (j, (v, pv)) in combinations(rows, 2):
            coords = space.coordinates(self._bracket(u, v))
            if coords is None:
                raise SubspaceError("subspace is not closed under the bracket")
            s = d * u[pu] * v[pv]
            brackets[i, j] = {k: x / s for k, x in enumerate(coords, 1) if x}
        sub = LieAlgebra.from_brackets(space.dim, brackets, name=name,
                                       validate=False)
        sub._validated = self._validated
        return sub

    def is_ideal(self, space: Subspace) -> bool:
        self.validate()
        rows = self._own(space).rows
        return all(space.contains(self._bracket({i: 1}, v))
                   for i in range(self.n) for v in rows)

    # -- derivations -------------------------------------------------------------

    def derivation_algebra(self) -> Subspace:
        """Solution space of D[x,y] = [Dx,y] + [x,Dy] inside n^2 matrices;
        solved once per algebra after validation.

        Rows of the returned subspace are matrices flattened row-major.
        """
        if self._der is not None:
            return self._der
        self.validate()
        n, br = self.n, self.br
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
        n, space, cols = self.n, self.full_space(), []
        for d in self.derivation_algebra().rows:
            cols.append([{} for _ in range(n)])  # column b: {a: D[a][b]}
            for ab, x in d.items():
                cols[-1][ab % n][ab // n] = x
        while space.dim:
            nxt = Subspace(n, [combine((x, col[b]) for b, x in v.items())
                               for col in cols for v in space.rows])
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

