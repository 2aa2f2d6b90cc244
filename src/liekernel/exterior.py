"""Exact exterior algebra on R^n with bitmask multi-indices.

Basis k-forms e_{i1...ik} are keyed by bitmasks of {1..n} (bit i-1 set for
index i), so all wedge/contraction signs are popcount arithmetic.  `lex`
decides, once per (n, k), which bitmask sits at which position of the lex
basis of Lambda^k; every vector, matrix row and column in the package is
read in that order.  `derivation_rows` is the one Leibniz rule: the CE
differential, ad on multivectors, Lie derivatives, contraction and the
flow DGA's d are each an (anti)derivation given by its images of the
generators.  The coefficient ring is duck-typed: anything with +, -, *,
negation and a truthiness zero test works (Fraction everywhere in this
package, plus polynomials in t for the flow DGA and floats on the stated
floating paths).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations

from .errors import DimensionMismatch, HodgeError, LieKernelError
from . import linalg

MAX_DIM = 16
_ZERO = Fraction(0)


def _check_dim(n: int):
    if not 1 <= n <= MAX_DIM:
        raise LieKernelError(f"ambient dimension {n} outside 1..{MAX_DIM}")


def bits_of(indices) -> tuple[int, int]:
    """Bitmask and sorting sign of an index tuple; sign 0 on a repeat."""
    bits = 0
    sign = 1
    for i in indices:
        b = 1 << (i - 1)
        if bits & b:
            return 0, 0
        # transpositions needed to move i past the larger indices already seen
        above = (bits >> i).bit_count()
        if above & 1:
            sign = -sign
        bits |= b
    return bits, sign


def indices_of(bits: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(bits.bit_length()) if bits >> i & 1)


def wedge_sign(abits: int, bbits: int) -> int:
    """Sign of e_A ^ e_B relative to e_{A u B}; 0 if they overlap."""
    if abits & bbits:
        return 0
    sign = 1
    b = bbits
    while b:
        low = b & -b
        if (abits >> low.bit_length()).bit_count() & 1:
            sign = -sign
        b ^= low
    return sign


def multi_indices(n: int, k: int):
    """All degree-k index tuples in lexicographic order."""
    return combinations(range(1, n + 1), k)


@cache
def lex(n: int, k: int) -> tuple[tuple, tuple, dict]:
    """The lex basis of Lambda^k R^n as (ixs, bits, pos): the 0-based index
    tuples in lex order, their bitmasks, and pos[b] = position of bitmask b.

    Memoised and shared by every caller, so read only; n <= MAX_DIM bounds
    the cache (every degree at n = 16 is ~15 MB).
    """
    _check_dim(n)
    ixs = tuple(combinations(range(n), k))
    bits = tuple(sum(1 << i for i in t) for t in ixs)
    return ixs, bits, {b: j for j, b in enumerate(bits)}


class _Element:
    """Shared implementation of graded elements (forms and multivectors)."""

    __slots__ = ("n", "k", "coeffs")

    def __init__(self, n: int, k: int, coeffs: dict | None = None):
        _check_dim(n)
        if k < 0 or (k > n and coeffs):
            raise DimensionMismatch(f"no nonzero elements of degree {k} on R^{n}")
        self.n = n
        self.k = k
        self.coeffs = {}
        if coeffs:
            for bits, c in coeffs.items():
                if bits.bit_count() != k or bits >> n:
                    raise DimensionMismatch("index of wrong degree or range")
                if c:
                    self.coeffs[bits] = c

    @classmethod
    def from_terms(cls, n: int, terms: dict, k: int | None = None):
        """Build from {index-tuple: coefficient}; tuples may be unsorted."""
        acc: dict[int, object] = {}
        degree = k
        for ixs, c in terms.items():
            bits, sign = bits_of(ixs)
            if sign == 0:
                continue
            if degree is None:
                degree = len(ixs)
            elif len(ixs) != degree:
                raise DimensionMismatch("mixed degrees in one element")
            c = c if sign == 1 else -c
            acc[bits] = acc[bits] + c if bits in acc else c
        if degree is None:
            raise LieKernelError("cannot infer degree of an empty element")
        return cls(n, degree, acc)

    @classmethod
    def zero(cls, n: int, k: int):
        return cls(n, k, {})

    def __getitem__(self, ixs):
        bits, sign = bits_of(ixs)
        c = self.coeffs.get(bits)
        if c is None:
            return Fraction(0)
        return c if sign == 1 else -c

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """(index-tuple, coefficient) pairs in lexicographic order."""
        return [(indices_of(b), c) for b, c in sorted(
            self.coeffs.items(), key=lambda item: indices_of(item[0]))]

    def _like(self, coeffs, k=None):
        return type(self)(self.n, self.k if k is None else k, coeffs)

    def _check_compatible(self, other):
        if type(self) is not type(other) or self.n != other.n:
            raise DimensionMismatch("elements live in different spaces")

    def __add__(self, other):
        self._check_compatible(other)
        if self.k != other.k:
            # zero elements act as the zero of any degree
            if other.is_zero():
                return self
            if self.is_zero():
                return other
            raise DimensionMismatch("elements have different degrees")
        acc = dict(self.coeffs)
        for b, c in other.coeffs.items():
            acc[b] = acc[b] + c if b in acc else c
        return self._like(acc)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({b: -c for b, c in self.coeffs.items()})

    def __mul__(self, scalar):
        return self._like({b: c * scalar for b, c in self.coeffs.items()})

    def __rmul__(self, scalar):
        return self._like({b: scalar * c for b, c in self.coeffs.items()})

    def __eq__(self, other):
        if type(self) is not type(other) or self.n != other.n:
            return NotImplemented
        if self.k != other.k:
            return not self.coeffs and not other.coeffs
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash((type(self).__name__, self.n, self.k,
                     tuple(sorted(self.coeffs.items(), key=lambda t: t[0]))))

    def map_coeffs(self, f):
        return self._like({b: f(c) for b, c in self.coeffs.items()})

    def vector(self) -> tuple:
        """Coefficient vector in the lexicographic multi-index basis."""
        get = self.coeffs.get
        return tuple(get(b, _ZERO) for b in lex(self.n, self.k)[1])

    @classmethod
    def from_vector(cls, n: int, k: int, coords):
        return cls(n, k, {b: c for b, c in zip(lex(n, k)[1], coords,
                                                strict=True) if c})


class KForm(_Element):
    """Exterior form of fixed degree; coefficients on increasing indices."""


class KVector(_Element):
    """Multivector of fixed degree (covariant twin of KForm)."""


def basis_form(n: int, *indices) -> KForm:
    return KForm.from_terms(n, {tuple(indices): Fraction(1)})


def basis_vector(n: int, *indices) -> KVector:
    return KVector.from_terms(n, {tuple(indices): Fraction(1)})


def vector_of(n: int, coords) -> KVector:
    """Degree-1 multivector with the given coordinates."""
    return KVector(n, 1, {1 << i: Fraction(c) for i, c in enumerate(coords) if c})


def covector_of(n: int, coords) -> KForm:
    return KForm(n, 1, {1 << i: Fraction(c) for i, c in enumerate(coords) if c})


def wedge(a: _Element, b: _Element):
    """Exterior product; bilinear, associative, graded-commutative."""
    if type(a) is not type(b) or a.n != b.n:
        raise DimensionMismatch("wedge of incompatible elements")
    k = a.k + b.k
    if k > a.n:
        return type(a).zero(a.n, k)  # identically zero above the top degree
    acc: dict[int, object] = {}
    for ba, ca in a.coeffs.items():
        for bb, cb in b.coeffs.items():
            s = wedge_sign(ba, bb)
            if s == 0:
                continue
            c = ca * cb
            if s < 0:
                c = -c
            key = ba | bb
            acc[key] = acc[key] + c if key in acc else c
    return type(a)(a.n, k, acc)


def wedge_all(*elements):
    out = elements[0]
    for e in elements[1:]:
        out = wedge(out, e)
    return out


def derivation_rows(images, basis) -> list[dict]:
    """Rows of the (anti)derivation D with D(e_{m+1}) = images[m], a
    {bits: value} dict; all images of one degree, values in any ring.

    One {bits: value} row per (ixs, bits) of `basis`, pairs as `lex` gives
    them (ixs 0-based), a value zero where terms cancel:
    D e_I = sum_{i in I} (-1)^{#I below i} D(e_i) ^ e_{I-i} for every image
    degree (ad and L_a: 1, d: 2, interior: 0), with e_B ^ e_R =
    (-1)^{|R & mask(B)|} e_{B|R}, mask(B) the xor of b - 1 over bits b of B.
    """
    terms = []
    for image in images:
        masked = []
        for ib, v in image.items():
            if v:
                mask, b = 0, ib
                while b:
                    low = b & -b
                    mask ^= low - 1
                    b ^= low
                masked.append((ib, mask, v))
        terms.append(masked)
    rows = []
    for ixs, bits in basis:
        acc: dict[int, object] = {}
        for below, m in enumerate(ixs):
            rest = bits ^ (1 << m)
            for ib, mask, v in terms[m]:
                if ib & rest:
                    continue
                if (below + (rest & mask).bit_count()) & 1:
                    v = -v
                key = ib | rest
                acc[key] = acc.get(key, 0) + v
        rows.append(acc)
    return rows


def extend_as_derivation(images, coeffs: dict) -> dict:
    """D of the element {bits: coefficient} of one degree on R^len(images),
    by `derivation_rows`; a value may be zero where terms cancel."""
    if not coeffs:
        return {}
    ixs, _, pos = lex(len(images), next(iter(coeffs)).bit_count())
    basis = [(ixs[pos[b]], b) for b in coeffs]
    used = 0
    for b in coeffs:
        used |= b
    # no masks for the images that no row reads
    images = [im if used >> m & 1 else {} for m, im in enumerate(images)]
    return linalg.combine(zip(coeffs.values(), derivation_rows(images, basis)))


def interior(v: KVector, a: KForm) -> KForm:
    """Contraction v -| a for degree-1 v; antiderivation of degree -1."""
    if not (isinstance(v, KVector) and isinstance(a, KForm)) or v.n != a.n:
        raise DimensionMismatch("contraction needs a vector and a form on R^n")
    if v.k != 1:
        raise DimensionMismatch("interior product needs a degree-1 vector")
    if a.k == 0:
        return KForm.zero(a.n, 0)
    images = [{0: v.coeffs.get(1 << m, 0)} for m in range(a.n)]
    return KForm(a.n, a.k - 1, extend_as_derivation(images, a.coeffs))


def bivector_contract(p: KVector, c: KForm) -> KForm:
    """p -| c = sum c(X_j, Y_j, .) over the decomposable pieces of p."""
    if p.n != c.n:
        raise DimensionMismatch("contraction across different spaces")
    if p.k != 2 or c.k != 3:
        raise DimensionMismatch("bivector_contract expects degrees (2, 3)")
    out = KForm.zero(c.n, 1)
    for bits, q in p.coeffs.items():
        i_bit = bits & -bits
        j_bit = bits ^ i_bit
        xi = KVector(p.n, 1, {i_bit: Fraction(1)})
        xj = KVector(p.n, 1, {j_bit: Fraction(1)})
        out = out + interior(xj, interior(xi, c)) * q
    return out


def pairing(form: KForm, mv: KVector):
    """Duality pairing <form, multivector> of equal degrees."""
    if form.n != mv.n or form.k != mv.k:
        raise DimensionMismatch("pairing needs equal spaces and degrees")
    total = 0  # stays int when both sides are
    for bits, c in form.coeffs.items():
        q = mv.coeffs.get(bits)
        if q is not None:
            total += c * q
    return total


def evaluate(form: KForm, *vectors) -> Fraction:
    """Evaluate a k-form on k coordinate vectors by minor expansion.

    This is the brute-force alternating-sum definition, kept independent of
    the contraction machinery so either can check the other.
    """
    if len(vectors) != form.k:
        raise DimensionMismatch("wrong number of arguments")
    if any(len(v) != form.n for v in vectors):
        raise DimensionMismatch("argument outside the space of the form")
    total = Fraction(0)
    for bits, c in form.coeffs.items():
        ixs = indices_of(bits)
        minor = [[Fraction(v[i - 1]) for v in vectors] for i in ixs]
        total += c * linalg.det(minor)
    return total


def pullback(form: KForm, matrix) -> KForm:
    """Pullback L*form, (L*a)(v1..vk) = a(Lv1,...,Lvk), L given by rows."""
    n = form.n
    rows = [list(map(Fraction, r)) for r in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise DimensionMismatch("pullback matrix must be n x n")
    acc: dict[int, object] = {}
    for target, tbits in zip(*lex(n, form.k)[:2]):
        total = Fraction(0)
        for bits, c in form.coeffs.items():
            src = indices_of(bits)
            minor = [[rows[i - 1][j] for j in target] for i in src]
            total += c * linalg.det(minor)
        acc[tbits] = total
    return KForm(n, form.k, acc)


def hodge_star(a: KForm, gram=None, orientation: int = 1) -> KForm:
    """Hodge star of a k-form for a positive-definite gram matrix.

    <e_I, a>_g is the e_I coefficient of the pullback of a by gram^-1, a
    transposed minor that the checked symmetry of the gram makes equal; it
    goes to the complement of I with its wedge sign.  The volume form is
    sqrt(det gram) e_{1..n}, exact only when det gram is a rational square,
    otherwise HodgeError is raised.
    """
    n = a.n
    if orientation not in (1, -1):
        raise HodgeError("orientation must be +1 or -1")
    if gram is None:
        gram = linalg.identity(n)
    else:
        gram = [tuple(map(Fraction, row)) for row in gram]
        if len(gram) != n or any(len(r) != n for r in gram):
            raise DimensionMismatch("gram matrix must be n x n")
        if gram != linalg.transpose(gram):
            raise HodgeError("gram matrix must be symmetric")
    if not linalg.is_positive_definite(gram):
        raise HodgeError("gram matrix is not positive-definite")
    vol_scale = linalg.rational_root(linalg.det(gram), 2)
    if vol_scale is None:
        raise HodgeError("det(gram) is not a rational square; no exact volume")
    full, scale = (1 << n) - 1, vol_scale * orientation
    return KForm(n, n - a.k, {
        full ^ b: c * scale * wedge_sign(b, full ^ b)
        for b, c in pullback(a, linalg.inverse(gram)).coeffs.items()})
