"""Exact linear algebra over the rationals.

Vectors are tuples of Fractions, matrices are lists (or tuples) of row
vectors.  `rank`, `rref`, `nullspace` and `Subspace` also take sparse rows,
dicts {column: value}, given the number of columns.  Every elimination runs
through one sparse row reduction, `_echelon`, on primitive integer rows:
denominators are cleared once per row and each row is kept divided by the
gcd of its entries, so entries stay small integers instead of fractions.
`_reduced` back-substitutes the echelon into the reduced echelon form, still
primitive integer rows: `rref` divides them by their leads, `nullspace`
reads integer null vectors off them, and a `Subspace` stores them and
reduces dense or sparse vectors against them in integers.
The one exception to that single elimination is `rank_mod_p`, the packed
rank modulo the prime `PRIME`, which reduces residues, not exact integers:
it returns a lower bound on the rank over Q, for callers that certify it
(`cohomology`), and pivot columns that are independent over Q.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm
from struct import Struct

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


def combine(terms) -> dict:
    """The sum of c row over (c, row) pairs, each row a sparse dict
    {key: value} over any ring (int, Fraction, polynomials, floats); a value
    is zero where terms cancel.  A pair costs about what a short row does,
    so callers whose rows are often empty leave those out."""
    acc: dict = {}
    get = acc.get
    for c, row in terms:
        for k, v in row.items():
            acc[k] = get(k, 0) + c * v
    return acc


def clear_denominators(entries: dict) -> tuple[int, dict]:
    """(L, {key: L q}) for int or Fraction values q, L the lcm of their
    denominators, so the new values are ints."""
    d = lcm(*(q.denominator for q in entries.values()))
    return d, {c: q.numerator * (d // q.denominator) for c, q in entries.items()}


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
        ints = {c: x for c, x in items if x}
        if all(type(x) is int for x in ints.values()):
            d = 1
        else:
            d, ints = clear_denominators(
                {c: q for c, x in ints.items() if (q := Fraction(x))})
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


def _reduced(rows, ncols: int | None = None):
    """(rows, pivot columns, ncols): the reduced echelon form of dense, or
    sparse with ncols, rows as primitive integer dict rows with a positive
    lead, sorted by pivot; each row over its lead is a row of the RREF."""
    m, _, ncols = _sparse(rows, ncols)
    if any(r and (min(r) < 0 or max(r) >= ncols) for r in m):
        raise DimensionMismatch("column index outside the matrix")
    pivot, _ = _echelon(m)
    cols = sorted(pivot)
    # back-substitute from the right: rows of later pivots are already reduced
    for c in reversed(cols):
        r = m[pivot[c]]
        for k in [k for k in r if k > c and k in pivot]:
            r = _eliminate(r, m[pivot[k]], k)[0]
        m[pivot[c]] = r if r[c] > 0 else {k: -x for k, x in r.items()}
    return [m[pivot[c]] for c in cols], cols, ncols


def _dense(row: dict, lead: int, ncols: int) -> Vector:
    return tuple(Fraction(row.get(k, 0), lead) for k in range(ncols))


def rref(rows, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """RREF of dense, or sparse with ncols, rows: (nonzero rows, pivot columns)."""
    red, cols, ncols = _reduced(rows, ncols)
    return [_dense(r, r[c], ncols) for r, c in zip(red, cols)], cols


def rank(rows, ncols: int | None = None, pivots: set | None = None) -> int:
    """Exact rank of dense or sparse rows; the echelon's pivot columns are
    added to ``pivots`` when a set is given.  Sparse rows must keep their
    columns in 0..ncols-1: unlike `rref`, this hot path does not check."""
    found = _echelon(_sparse(rows, ncols)[0])[0]
    if pivots is not None:
        pivots.update(found)
    return len(found)


PRIME = (1 << 19) - 1

_SLOT = 1 << 63  # the bias of a signed 64-bit slot


def rank_mod_p(rows) -> tuple[int, list[int]]:
    """(rank mod `PRIME`, pivot columns) of integer dict rows.

    The rank mod p never exceeds the rank over Q, and the rows that become
    pivots have a nonzero minor mod p at the pivot columns, so that minor is
    nonzero over Q and the pivot columns are independent over Q.  Each row is
    one Python int, its entries in 64-bit signed slots over the columns that
    occur (Kronecker substitution), so reducing it by a pivot row is one
    big-int multiply-subtract.  Pivot rows keep balanced residues, |x| <= p/2,
    with 1 at their pivot, and the factor is a balanced residue, so an update
    adds less than (p/2)^2 < 2^36 to a slot: a row meets fewer pivots than
    2^26, so its slots stay below 2^63 without reduction.  A row is reduced
    by the pivots in column order, which clears each pivot column for good,
    and then read once, mod p, for its first nonzero column.
    """
    p = PRIME
    half = p // 2
    cols = sorted(set().union(*rows))
    at = {c: i for i, c in enumerate(cols)}
    width = len(cols)
    packing = Struct(f"<{width}Q")  # little-endian: slot i at bit 64 i
    bias = int.from_bytes(packing.pack(*[_SLOT] * width), "little")
    mask = (1 << 64) - 1
    pivots: list[tuple[int, int]] = []  # (slot, unbiased packed row)
    for row in rows:
        slots = [_SLOT] * width
        for c, v in row.items():
            v %= p
            slots[at[c]] += v - p if v > half else v
        r = int.from_bytes(packing.pack(*slots), "little")
        for s, q in pivots:
            if f := (((r >> (s << 6)) & mask) - _SLOT) % p:
                r -= (f - p if f > half else f) * q
        res = [(x - _SLOT) % p
               for x in packing.unpack(r.to_bytes(width << 3, "little"))]
        lead = next((i for i, x in enumerate(res) if x), None)
        if lead is None:
            continue
        inv = pow(res[lead], -1, p)
        slots = [_SLOT + (x - p if x > half else x)
                 for x in (y * inv % p for y in res)]
        insort(pivots, (lead, int.from_bytes(packing.pack(*slots), "little")
                        - bias))
    return len(pivots), sorted(cols[s] for s, _ in pivots)


def nullspace(rows, ncols: int | None = None) -> list[dict]:
    """Basis of {x : A x = 0}, one vector per free column f of the RREF of A,
    in order: the null vector that is 1 at f and 0 at the other free
    columns, scaled to a primitive integer dict vector positive at f."""
    rows = list(rows)
    if ncols is None:
        if not rows:
            raise LieKernelError("nullspace needs ncols for an empty matrix")
        ncols = len(rows[0])
    red, pivots, _ = _reduced(rows, ncols)
    at: dict[int, list] = {}  # column -> (pivot, row) of the rows there
    for p, r in zip(pivots, red):
        for k in r:
            at.setdefault(k, []).append((p, r))
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        hits = at.get(f, ())
        l = lcm(*(r[p] for p, r in hits))
        x = {f: l, **{p: -r[f] * (l // r[p]) for p, r in hits}}
        g = gcd(*x.values())
        basis.append({k: v // g for k, v in x.items()})
    return basis


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
    if any(len(row) != n for row in rows):
        raise DimensionMismatch("inverse of a non-square matrix")
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
    """A solved linear subspace of R^ambient, stored once: `rows`, the
    primitive integer dict rows of its reduced echelon form, each with a
    positive lead, at the columns `pivots`.  That form is unique, so equal
    subspaces store equal rows."""

    def __init__(self, ambient: int, rows=()):
        self.ambient = ambient
        self.rows, self.pivots, _ = _reduced(rows, ambient)
        self._row_at = dict(zip(self.pivots, self.rows))
        self._basis = None

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def basis(self) -> Matrix:
        """The reduced echelon basis as dense Fraction rows, built on first
        read; a read-only view for small ambient spaces."""
        if self._basis is None:
            self._basis = [_dense(r, r[p], self.ambient)
                           for r, p in zip(self.rows, self.pivots)]
        return self._basis

    def contains(self, v) -> bool:
        return not self._reduce(v)[1]

    def reduce(self, v) -> dict:
        """Canonical representative of a dense or dict v modulo this
        subspace, as a dict {column: Fraction} of its nonzeros.

        Eliminates every pivot coordinate; idempotent, and two vectors
        differing by a subspace element reduce identically.
        """
        e, w, _ = self._reduce(v)
        return {c: Fraction(x, e) for c, x in w.items()}

    def coordinates(self, v) -> Vector | None:
        """Coefficients of v in the echelon basis, or None if v is outside."""
        _, w, v = self._reduce(v)
        return None if w else tuple(Fraction(v.get(p, 0)) for p in self.pivots)

    def _reduce(self, v) -> tuple[int, dict, dict]:
        """(E, E (v mod this subspace) in ints, v's nonzeros) for a dense or
        dict v.  A row is zero at every other pivot, so reducing each pivot
        entry of v once by its row clears them all."""
        if isinstance(v, dict):
            if v and (min(v) < 0 or max(v) >= self.ambient):
                raise DimensionMismatch("column index outside the space")
            items = v.items()
        else:
            v = tuple(v)
            if len(v) != self.ambient:
                raise DimensionMismatch("vector has wrong length")
            items = enumerate(v)
        v = {c: x for c, x in items if x}
        l, w = clear_denominators(v)
        used = [(w[c], r[c], r) for c in w if (r := self._row_at.get(c))]
        m = lcm(*(lead for _, lead, _ in used))
        w = {c: x * m for c, x in w.items()}
        for x, lead, r in used:
            f = x * (m // lead)
            for k, y in r.items():
                if t := w.get(k, 0) - f * y:
                    w[k] = t
                else:
                    del w[k]
        return l * m, w, v

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.ambient,
                     tuple(frozenset(r.items()) for r in self.rows)))
