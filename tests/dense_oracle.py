"""Dense exact elimination kept as a differential oracle for `linalg`.

These are the Gauss-Jordan `rref` and the Bareiss `rank` that `linalg` used
before its sparse integer kernel, unchanged; the tests compare the two.
"""

from fractions import Fraction
from math import gcd


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
