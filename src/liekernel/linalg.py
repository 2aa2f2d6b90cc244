"""Exact linear algebra over the rationals.

Vectors are tuples of Fractions, matrices are lists (or tuples) of row
vectors.  `rank`, `rref`, `nullspace` and `Subspace` also take sparse rows,
dicts {column: value}, given the number of columns.  Every elimination runs
through one sparse row reduction, `_echelon`, on primitive integer rows:
denominators are cleared once per row and each row is kept divided by the
gcd of its entries, so entries stay small integers instead of fractions.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import DimensionMismatch, LieKernelError

Vector = tuple[Fraction, ...]
Matrix = list[Vector]


def vec(entries) -> Vector:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def unit(n: int, i: int) -> Vector:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v, strict=True)), Fraction(0))


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def transpose(m: Matrix) -> Matrix:
    return [tuple(col) for col in zip(*m)]


def identity(n: int) -> Matrix:
    return [unit(n, i) for i in range(n)]


def _sparse(rows, ncols: int | None = None):
    """Primitive integer dict rows, (d, g) with row_i = (d/g) input_i, ncols."""
    out, scales = [], []
    for row in rows:
        if isinstance(row, dict):
            items = row.items()
        else:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise DimensionMismatch("row has wrong length")
            items = enumerate(row)
        fr = {c: q for c, x in items if (q := Fraction(x))}
        d = lcm(*(q.denominator for q in fr.values()))
        ints = {c: q.numerator * (d // q.denominator) for c, q in fr.items()}
        g = gcd(*ints.values()) or 1
        out.append({c: v // g for c, v in ints.items()} if g > 1 else ints)
        scales.append((d, g))
    return out, scales, ncols or 0


def _eliminate(r: dict, p: dict, c: int):
    """(new, a, h), where new = (a r - b p) / h is zero at column c.

    a, b = p_c/g, r_c/g with g = gcd(p_c, r_c), and h is the content.
    """
    a, b = p[c], r[c]
    g = gcd(a, b)
    a, b = a // g, b // g
    new = {k: a * v for k, v in r.items()}
    for k, v in p.items():
        w = new.get(k, 0) - b * v
        if w:
            new[k] = w
        else:
            del new[k]  # w == 0 only where r already had column k
    h = gcd(*new.values()) or 1
    if h > 1:
        new = {k: v // h for k, v in new.items()}
    return new, a, h


def _echelon(rows: list[dict]):
    """Row-reduce primitive integer dict rows in place; the one elimination.

    Rows are taken shortest first, each reduced against the pivot row at its
    lowest column; a shorter incoming row swaps in as that column's pivot.
    Returns {pivot column: row index} and every step's (a, h), for `det`.
    """
    pivot: dict[int, int] = {}
    steps = []
    for i in sorted(range(len(rows)), key=lambda i: len(rows[i])):
        r = rows[i]
        while r:
            c = min(r)
            j = pivot.get(c)
            if j is None:
                pivot[c] = i
                break
            p = rows[j]
            if len(r) < len(p):
                pivot[c], i, r, p = i, j, p, r
            r, a, h = _eliminate(r, p, c)
            steps.append((a, h))
            rows[i] = r
    return pivot, steps


def rref(rows, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """RREF of dense, or sparse with ncols, rows: (nonzero rows, pivot columns)."""
    m, _, ncols = _sparse(rows, ncols)
    pivot, _ = _echelon(m)
    cols = sorted(pivot)
    out = []
    # back-substitute from the right: rows of later pivots are already reduced
    for c in reversed(cols):
        r = m[pivot[c]]
        for k in [k for k in r if k > c and k in pivot]:
            r = _eliminate(r, m[pivot[k]], k)[0]
        m[pivot[c]] = r
        lead = r[c]
        v = [Fraction(0)] * ncols
        for k, x in r.items():
            v[k] = Fraction(x, lead)
        out.append(tuple(v))
    return out[::-1], cols


def rank(rows, ncols: int | None = None) -> int:
    """Exact rank of dense or sparse rows."""
    return len(_echelon(_sparse(rows, ncols)[0])[0])


def nullspace(rows, ncols: int | None = None) -> Matrix:
    """Echelonized basis of {x : A x = 0}."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise LieKernelError("nullspace needs ncols for an empty matrix")
        ncols = len(rows[0])
    red, pivots = rref(rows, ncols)
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r, p in enumerate(pivots):
            x[p] = -red[r][f]
        basis.append(tuple(x))
    return basis


def solve(a_rows, b: Vector) -> Vector | None:
    """One exact solution of A x = b (free variables set to 0), or None."""
    a_rows = list(a_rows)
    ncols = len(a_rows[0]) if a_rows else 0
    aug = [tuple(row) + (bi,) for row, bi in zip(a_rows, b, strict=True)]
    red, pivots = rref(aug)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, p in enumerate(pivots):
        x[p] = red[r][-1]
    return tuple(x)


def det(rows) -> Fraction:
    """Exact determinant: the echelon's diagonal with every scaling undone."""
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("determinant of a non-square matrix")
    m, scales, _ = _sparse(rows, n)
    pivot, steps = _echelon(m)
    if len(pivot) < n:
        return Fraction(0)
    slot = [pivot[c] for c in range(n)]
    # rows never move; the triangle is their permutation into column order
    swaps = sum(s > t for i, s in enumerate(slot) for t in slot[i + 1:])
    num, den = -1 if swaps % 2 else 1, 1
    for c, i in enumerate(slot):
        num *= m[i][c]
    for a, h in steps + scales:
        num, den = num * h, den * a
    return Fraction(num, den)


def inverse(rows) -> Matrix:
    n = len(rows)
    aug = [tuple(map(Fraction, row)) + unit(n, i) for i, row in enumerate(rows)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise LieKernelError("matrix is singular")
    return [row[n:] for row in red]


def is_positive_definite(rows) -> bool:
    """Sylvester: all leading principal minors positive."""
    n = len(rows)
    return all(det([row[: k + 1] for row in rows[: k + 1]]) > 0 for k in range(n))


def rational_root(x, k: int) -> Fraction | None:
    """The exact k-th root of a rational x >= 0, or None if it is irrational."""
    x = Fraction(x)
    if x < 0:
        return None
    parts = []
    for m in (x.numerator, x.denominator):
        lo, hi = 0, 1 << (m.bit_length() // k + 1)
        while lo < hi:
            mid = (lo + hi) // 2
            if mid ** k < m:
                lo = mid + 1
            else:
                hi = mid
        if lo ** k != m:
            return None
        parts.append(lo)
    return Fraction(*parts)


class Subspace:
    """A solved linear subspace: reduced-echelon basis rows of ambient R^n."""

    def __init__(self, ambient: int, rows=()):
        self.ambient = ambient
        self.basis, self.pivots = rref(rows, ambient)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, v: Vector) -> bool:
        return all(x == 0 for x in self.reduce(v))

    def reduce(self, v: Vector) -> Vector:
        """Canonical representative of v modulo this subspace.

        Eliminates every pivot coordinate; idempotent, and two vectors
        differing by a subspace element reduce identically.
        """
        return self._reduce(v)[0]

    def coordinates(self, v: Vector) -> Vector | None:
        """Coefficients of v in the echelon basis, or None if v is outside."""
        w, coords = self._reduce(v)
        return None if any(w) else coords

    def _reduce(self, v: Vector) -> tuple[Vector, Vector]:
        w = list(map(Fraction, v))
        if len(w) != self.ambient:
            raise DimensionMismatch("vector has wrong length")
        coords = tuple(w[p] for p in self.pivots)
        for row, f in zip(self.basis, coords):
            if f:
                for j in range(self.ambient):
                    w[j] -= f * row[j]
        return tuple(w), coords

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient, tuple(self.basis)))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of R^{self.ambient})"
