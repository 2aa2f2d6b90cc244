"""Dense exact code kept as a differential oracle for the sparse paths.

These are the Gauss-Jordan `rref` and the Bareiss `rank` that `linalg` used
before its sparse integer kernel, unchanged except that `rref` densifies
sparse rows first; the dense `nullspace` and `Subspace` that `linalg` kept
before `Subspace` stored primitive integer rows, full-width `Fraction` rows
reduced over the whole width, here on that `rref`, and the Lie kernel and
derivation algebra below solve with them; the bracket, ad and ad on
multivectors computed from the dense structure constants c[i][j][k], as
`LieAlgebra` did before it kept their nonzeros; and the Lie kernel and d_P
as `kernelmap` built them before it read both off the cached CE complex:
P from the bracket map on lex pairs, d_P one `KForm` at a time; the CE
differential d as `CEComplex.d` applied it before it read the integer rows
of D d_k: de^m = -sum_{a<b} c^m_ab e_ab from the dense constants, extended
as an antiderivation in `Fraction`s; and the CE rows built from that d, one
`KForm` at a time; and the constructors as `LieAlgebra` and `families`
wrote them before every one went through `from_brackets`: the direct sum,
the subalgebra on a closed subspace and the graded extension, each filling
both antisymmetric halves of a dense n x n x n tensor, and the search for a
basis-aligned split over all 2^n masks; and the derivation algebra as
`LieAlgebra` solved it before it read the sparse integer constants, one
dense row per (i < j, k) from c, with characteristic nilpotency tested on
its `Fraction` basis matrices, every product summed from `Fraction(0)`.
The `KForm`-typed (anti)derivation extension, as `cohomology` applied
it before every derivation of the exterior algebra went through
`exterior.derivation_rows`, with its own signs from `wedge_sign`.
The tests compare the two.
"""

from fractions import Fraction
from math import comb, gcd

from liekernel.exterior import (KForm, KVector, bits_of, indices_of,
                                multi_indices, vector_of, wedge, wedge_sign)
from liekernel.errors import DimensionMismatch, LieKernelError, SubspaceError
from liekernel.kernelmap import DPProperties
from liekernel.liealg import LieAlgebra, matrix_lie_algebra
from liekernel.linalg import transpose

Vector = tuple[Fraction, ...]
Matrix = list[Vector]


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


def _units(n):
    return [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]


def bracket(c, x, y):
    """[x, y] = sum x_i y_j c[i][j][k] e_k over every (i, j, k)."""
    n = len(c)
    out = [Fraction(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i] and y[j]:
                for k in range(n):
                    out[k] += x[i] * y[j] * c[i][j][k]
    return tuple(out)


def ad(c, x):
    """Matrix of ad_x, rows indexed by output component."""
    cols = [bracket(c, x, u) for u in _units(len(c))]
    return [tuple(col[k] for col in cols) for k in range(len(c))]


def ad_multivector(c, z, p):
    """ad_z(v_1 ^ .. ^ v_k) = sum over positions of v_1 ^ .. [z, v_i] .. ^ v_k."""
    n = len(c)
    units = _units(n)
    out = KVector.zero(n, p.k)
    for ixs, q in p.terms():
        for pos in range(len(ixs)):
            factors = [vector_of(n, units[i - 1]) for i in ixs]
            factors[pos] = vector_of(n, bracket(c, z, units[ixs[pos] - 1]))
            term = factors[0]
            for f in factors[1:]:
                term = wedge(term, f)
            out = out + term * q
    return out


def rref(rows, ncols=None):
    """Reduced row echelon form of dense, or sparse with ncols, rows;
    returns (nonzero rows, pivot columns)."""
    m = [[Fraction(row.get(j, 0)) for j in range(ncols)]
         if isinstance(row, dict) else list(map(Fraction, row))
         for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        p = m[r][c]
        m[r] = [x / p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def _clear_denominators(rows) -> list[list[int]]:
    out = []
    for row in rows:
        fr = [Fraction(x) for x in row]
        lcm = 1
        for x in fr:
            d = x.denominator
            lcm = lcm // gcd(lcm, d) * d
        out.append([int(x * lcm) for x in fr])
    return out


def rank(rows) -> int:
    """Matrix rank via Bareiss fraction-free elimination."""
    m = _clear_denominators(rows)
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = 1
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            mi, mr = m[i], m[r]
            fi = mi[c]
            for j in range(c, ncols):
                mi[j] = (mi[j] * piv - fi * mr[j]) // prev
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


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


def lie_kernel_space(g):
    """P = ker([., .]: Lambda^2 g -> g), one bracket column per lex pair."""
    pairs = list(multi_indices(g.n, 2))
    columns = [g.c[i - 1][j - 1] for (i, j) in pairs]
    return Subspace(len(pairs), nullspace(
        transpose(columns) if columns else [], len(pairs)))


def _d_one_forms(g):
    """de^m = -sum_{a<b} c^m_ab e_ab for each m, from the dense c."""
    n = g.n
    return [KForm(n, 2, {(1 << a) | (1 << b): -g.c[a][b][m]
                         for a in range(n) for b in range(a + 1, n)})
            for m in range(n)]


def d(g, form):
    """The CE differential of a form, by the antiderivation rule."""
    return extend_as_derivation(_d_one_forms(g), form, 2)


def d_rows(g, k):
    """Sparse rows {j: coefficient of e_J_j in d(e_I_i)} of d_k, lex indices,
    each d(e^I) applied one KForm at a time."""
    d1 = _d_one_forms(g)
    col = {bits_of(ixs)[0]: j
           for j, ixs in enumerate(multi_indices(g.n, k + 1))}
    return [{col[b]: c for b, c in extend_as_derivation(
        d1, KForm(g.n, k, {bits_of(ixs)[0]: Fraction(1)}), 2).coeffs.items()}
        for ixs in multi_indices(g.n, k)]


def d_dense(g, k):
    """Dense rows d(e^I) over the lex (k+1)-indices."""
    width = comb(g.n, k + 1)
    return [tuple(r.get(j, Fraction(0)) for j in range(width))
            for r in d_rows(g, k)]


def dP_rows(g):
    """Dense rows of d_P: d of each lex two-form off the pivots of B^2."""
    _, pivots = rref(d_dense(g, 1))
    return [row for c, row in enumerate(d_dense(g, 2)) if c not in pivots]


def dP_properties(g):
    """Rank, injectivity and surjectivity onto Z^3 of d_P, by dense ranks."""
    r = rank(dP_rows(g))
    dim_pstar = comb(g.n, 2) - len(rref(d_dense(g, 1))[1])
    dim_z3 = comb(g.n, 3) - rank(d_dense(g, 3))
    return DPProperties(r == dim_pstar, r == dim_z3, r, dim_pstar, dim_z3)


def direct_sum(g, h):
    n, m = g.n, h.n
    total = n + m
    c = [[[Fraction(0)] * total for _ in range(total)] for _ in range(total)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                c[i][j][k] = g.c[i][j][k]
    for i in range(m):
        for j in range(m):
            for k in range(m):
                c[n + i][n + j][n + k] = h.c[i][j][k]
    return LieAlgebra(c)


def subalgebra(g, space):
    """Structure constants in the echelon basis of a closed subspace."""
    m = space.dim
    c = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i, u in enumerate(space.basis):
        for j, v in enumerate(space.basis):
            coords = space.coordinates(g.bracket(u, v))
            if coords is None:
                raise SubspaceError("subspace is not closed under the bracket")
            for k, q in enumerate(coords):
                c[i][j][k] = q
    return LieAlgebra(c)


def graded_extension(k, weights):
    """Adjoin A with ad_A = multiplication by w_i on e_i."""
    n = k.n + 1
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(k.n):
        for j in range(k.n):
            for m in range(k.n):
                c[i + 1][j + 1][m + 1] = k.c[i][j][m]
    for j, w in enumerate(weights):
        c[0][j + 1][j + 1] = Fraction(w)
        c[j + 1][0][j + 1] = Fraction(-w)
    return LieAlgebra(c)


def has_basis_aligned_split(c):
    """Some mask of the basis into two nonempty parts with no bracket
    between them and each part closed."""
    n = len(c)
    for mask in range(1, (1 << n) - 1):
        left = [i for i in range(n) if mask >> i & 1]
        right = [i for i in range(n) if not mask >> i & 1]
        ok = True
        for i in left:
            for j in right:
                if any(c[i][j][k] for k in range(n)):
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if all(not c[i][j][k] for i in left for j in left for k in right) and \
           all(not c[i][j][k] for i in right for j in right for k in left):
            return True
    return False


def derivation_algebra(g):
    """Solution space of D[x,y] = [Dx,y] + [x,Dy], matrices flattened
    row-major, one dense row per (i < j, k) from the dense c."""
    g.validate()
    n, c = g.n, g.c
    rows = []
    # unknowns D[a][b], flattened index a*n + b
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                coeff = [Fraction(0)] * (n * n)
                # [De_i, e_j]_k = sum_a D[a][i] c[a][j][k]
                for a in range(n):
                    coeff[a * n + i] += c[a][j][k]
                    coeff[a * n + j] += c[i][a][k]
                # -(D[e_i,e_j])_k = -sum_b c[i][j][b] D[k][b]
                for b in range(n):
                    coeff[k * n + b] -= c[i][j][b]
                rows.append(tuple(coeff))
    return Subspace(n * n, nullspace(rows, n * n))


def derivation_matrices(g):
    n = g.n
    return [[tuple(row[a * n + b] for b in range(n)) for a in range(n)]
            for row in derivation_algebra(g).basis]


def matrix_commutator(a, b):
    n = len(a)
    return [
        tuple(
            sum((a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n)), Fraction(0))
        for j in range(n))
        for i in range(n)
    ]


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


def is_characteristically_nilpotent(g) -> bool:
    """All derivations nilpotent, on the Fraction basis matrices."""
    if not g.is_nilpotent():
        raise LieKernelError("characteristic nilpotency needs a nilpotent input")
    matrices = derivation_matrices(g)
    if not all(is_nilpotent_matrix(m) for m in matrices):
        return False
    der = matrix_lie_algebra(matrices, name="Der")
    return der is None or der.is_nilpotent()
