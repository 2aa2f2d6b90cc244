"""Dense exact code kept as a differential oracle for the sparse paths.

These are the Gauss-Jordan `rref` and the Bareiss `rank` that `linalg` used
before its sparse integer kernel, unchanged, and the bracket, ad and ad on
multivectors computed from the dense structure constants c[i][j][k], as
`LieAlgebra` did before it kept their nonzeros; the tests compare the two.
"""

from fractions import Fraction
from math import gcd

from liekernel.exterior import KVector, vector_of, wedge


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


def rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(map(Fraction, row)) for row in rows]
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
