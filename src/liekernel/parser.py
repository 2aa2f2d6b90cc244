"""Compact tuple notation for Lie algebra structure constants.

A tuple like ``(0,21,l.31)`` lists the differentials of the dual basis:
slot k holds de_k as a signed sum of basis two-forms, ``c.ij`` standing for
c e_i ^ e_j.  Form literals such as ``3.123-145+1/2.267`` use the same
terms with k indices.  One term grammar reads both: ``[sign] [coef "."]
indices``, where indices are a run of single digits or a bracketed list
``[i,j,...]`` and whitespace may separate tokens; in tuples, and only there,
coef may also be a parameter name.  Indices are printed as digits for
ambient dimension at most 9 and bracketed beyond that.

One rational rule covers tuple and form coefficients, binding values
(``--bind name=p/q`` and the ``| name=p/q`` suffix of ``.lie`` lines) and
the entries of ``--F``: ``[sign] p`` or ``[sign] p/q`` with decimal
integers p and q, q nonzero.  Decimals (``0.5``), exponents (``1e3``) and
digit separators (``1_000``) are rejected.

Sign convention: a term ``c.ij`` in slot k means de_k(e_i, e_j) = c, i.e.
e_k([e_i, e_j]) = -c, so [e_i, e_j] picks up -c e_k.  Under this rule
``(0,21,l.31)`` gives [e1,e2] = e2 and [e1,e3] = l e3, the only reading
for which d^2 = 0 is the Jacobi identity and the classification tables
have their stated eigenvalue behaviour.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BindingError, LieKernelError, ParseError
from .exterior import KForm, bits_of
from .liealg import LieAlgebra

_NAME = r"[a-zA-Z][a-zA-Z0-9_]*"
_SIGN = r"\s*(?P<sign>[+-]?)\s*"
_RATIONAL = r"(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?"
# one term: [sign] [coef "."] indices; the match ends at the next token
_TERM_RE = re.compile(
    rf"{_SIGN}(?:(?:(?P<name>{_NAME})|{_RATIONAL})\s*\.\s*)?"
    r"(?:(?P<digits>\d+)|\[(?P<list>[^\]]*)\])\s*")
_RATIONAL_RE = re.compile(rf"{_SIGN}{_RATIONAL}\s*")


@dataclass(frozen=True)
class Term:
    """One summand c.ij of a slot differential.

    ``coef`` is the rational factor; ``param`` an optional parameter name,
    in which case the grammar restricts coef to +-1.
    """

    coef: Fraction
    param: str | None
    pair: tuple[int, int]

    def __post_init__(self):
        if self.param is not None and abs(self.coef) != 1:
            raise ParseError("parameter terms carry only a sign", 0)


@dataclass(frozen=True)
class AlgebraExpr:
    n: int
    slots: tuple[tuple[Term, ...], ...]

    @property
    def parameters(self) -> set[str]:
        return {t.param for slot in self.slots for t in slot if t.param}


def _rational(m: re.Match) -> Fraction:
    """The rational rule on a match's sign, num and den groups (1 if absent)."""
    if m["den"] is not None and int(m["den"]) == 0:
        raise ParseError("zero denominator", m.start("den"))
    q = Fraction(int(m["num"] or 1), int(m["den"] or 1))
    return -q if m["sign"] == "-" else q


def parse_rational(text: str) -> Fraction:
    """``[sign] p`` or ``[sign] p/q`` as a Fraction; ParseError otherwise."""
    m = _RATIONAL_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"expected a rational p or p/q, got {text!r}", 0)
    return _rational(m)


def _indices(m: re.Match) -> tuple[int, ...]:
    """A term's indices: one per digit of the run, or the bracketed list."""
    if m["digits"] is not None:
        return tuple(map(int, m["digits"]))
    parts = [p.strip() for p in m["list"].split(",")]
    if not all(p.isdecimal() for p in parts):
        raise ParseError("expected index", m.start("list"))
    return tuple(map(int, parts))


def _tuple_term(m: re.Match) -> Term:
    ixs = _indices(m)
    if len(ixs) != 2:
        if m["list"] is not None:
            raise ParseError("expected an index pair [i,j]", m.start())
        if m["num"] is not None:  # "0.5.31" reads as coefficient 0, indices 5
            raise ParseError("decimal coefficients are not allowed", m.start())
        raise ParseError("expected a two-digit index pair", m.start())
    if ixs[0] == ixs[1]:
        raise ParseError("repeated index in pair", m.start())
    return Term(_rational(m), m["name"], ixs)


def _canonical_slot(terms: list[Term]) -> tuple[Term, ...]:
    """Merge duplicate pairs (orienting to first sight), sort, drop zeros."""
    orient: dict[frozenset, tuple[int, int]] = {}
    acc: dict[tuple, Term] = {}
    for t in terms:
        key_pair = frozenset(t.pair)
        pair = orient.setdefault(key_pair, t.pair)
        coef = t.coef if pair == t.pair else -t.coef
        key = (pair, t.param)
        if key in acc:
            prev = acc[key]
            if t.param is not None:
                # +-l.ij +- l.ij collapses to 0 or +-2.l.ij; only 0 is legal
                merged = prev.coef + coef
                if merged == 0:
                    del acc[key]
                    continue
                raise ParseError("parameter coefficient exceeds a sign", 0)
            merged = prev.coef + coef
            if merged == 0:
                del acc[key]
            else:
                acc[key] = Term(merged, None, pair)
        elif coef != 0:
            acc[key] = Term(coef, t.param, pair)
    return tuple(sorted(acc.values(),
                        key=lambda t: (min(t.pair), max(t.pair), t.param or "")))


def parse(text: str) -> AlgebraExpr:
    """Parse a structure tuple; the dimension is the number of slots."""
    pos = len(text) - len(text.lstrip())
    if text[pos:pos + 1] != "(":
        raise ParseError("expected '('", pos)
    pos += 1
    raw_slots: list[list[Term]] = [[]]
    while True:
        terms = raw_slots[-1]
        m = _TERM_RE.match(text, pos)
        if m is None:
            empty = not terms and text[pos:].lstrip()[:1] in ("", ",", ")")
            raise ParseError("empty slot" if empty else "expected a term", pos)
        pos = m.end()
        end = text[pos:pos + 1]
        if terms or m.group().strip() != "0" or end not in (",", ")"):
            terms.append(_tuple_term(m))  # else it is the zero slot "0"
        if end == ")":
            break
        if end == ",":
            raw_slots.append([])
            pos += 1
        elif end not in ("+", "-"):
            raise ParseError("expected ',' or ')'", pos)
    if text[pos + 1:].strip():
        raise ParseError("trailing input after tuple", pos + 1)
    n = len(raw_slots)
    if n > 16:
        raise ParseError("dimension above 16 is unsupported", 0)
    for terms in raw_slots:
        for t in terms:
            i, j = t.pair
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"index pair {t.pair} out of range 1..{n}", 0)
    return AlgebraExpr(n, tuple(_canonical_slot(ts) for ts in raw_slots))


def _format_terms(terms, n: int) -> str:
    """Signed ``[coef.]indices`` terms from (coef, param, indices) triples;
    indices are digits for n <= 9 and bracketed above."""
    out = []
    for coef, param, ixs in terms:
        body = ("".join(map(str, ixs)) if n <= 9
                else "[" + ",".join(map(str, ixs)) + "]")
        if param is not None:
            body = f"{param}.{body}"
        elif abs(coef) != 1:
            body = f"{abs(coef)}.{body}"
        out.append(("-" if coef < 0 else "+" if out else "") + body)
    return "".join(out)


def serialize(expr: AlgebraExpr) -> str:
    """Canonical text form; parse(serialize(e)) == e."""
    return "(" + ",".join(
        _format_terms(((t.coef, t.param, t.pair) for t in terms), expr.n) or "0"
        for terms in expr.slots) + ")"


def instantiate(expr: AlgebraExpr, bindings: dict | None = None,
                name: str | None = None) -> LieAlgebra:
    """Structure constants under de_k(e_i,e_j) = c  =>  [e_i,e_j] = -c e_k.

    A binding value given as text follows the rational rule.  The result is
    NOT Jacobi-validated; callers decide when to check.
    """
    bindings = {k: parse_rational(v) if isinstance(v, str) else Fraction(v)
                for k, v in (bindings or {}).items()}
    missing = expr.parameters - set(bindings)
    if missing:
        raise BindingError(f"unbound parameters: {sorted(missing)}")
    n = expr.n
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for k, terms in enumerate(expr.slots):
        for t in terms:
            q = t.coef * (bindings[t.param] if t.param else 1)
            i, j = t.pair[0] - 1, t.pair[1] - 1
            c[i][j][k] -= q
            c[j][i][k] += q
    return LieAlgebra.unchecked(c, name=name)


def parse_algebra(text: str, bindings: dict | None = None,
                  name: str | None = None, validate: bool = True) -> LieAlgebra:
    """Parse + instantiate in one step (Jacobi-checked by default)."""
    g = instantiate(parse(text), bindings, name=name)
    if validate:
        g.validate()
    return g


def expr_of(g: LieAlgebra) -> AlgebraExpr:
    """Tuple expression of an algebra (ascending index pairs)."""
    slots = []
    for k in range(g.n):
        terms = []
        for i in range(g.n):
            for j in range(i + 1, g.n):
                q = -g.c[i][j][k]  # de_k(e_i,e_j) = -e_k([e_i,e_j])
                if q:
                    terms.append(Term(q, None, (i + 1, j + 1)))
        slots.append(tuple(terms))
    return AlgebraExpr(g.n, tuple(slots))


# -- k-form literals (same term syntax with k indices) ----------------------

def parse_form(text: str, n: int, degree: int | None = None) -> KForm:
    """Parse a k-form literal such as ``3.123-145+1/2.267`` ('0' is zero)."""
    if text.strip() == "0":
        if degree is None:
            raise ParseError("cannot infer the degree of 0", 0)
        return KForm.zero(n, degree)
    terms: dict[int, Fraction] = {}
    pos = 0
    while True:
        m = _TERM_RE.match(text, pos)
        if m is None or m["name"] is not None:
            raise ParseError("expected a term", pos)
        ixs = _indices(m)
        if degree is None:
            degree = len(ixs)
        elif len(ixs) != degree:
            raise ParseError(f"expected {degree} indices", pos)
        if any(not 1 <= i <= n for i in ixs):
            raise ParseError(f"index out of range 1..{n}", pos)
        bits, s = bits_of(ixs)
        if s == 0:
            raise ParseError("repeated index", pos)
        terms[bits] = terms.get(bits, 0) + _rational(m) * s
        pos = m.end()
        if pos == len(text):
            return KForm(n, degree, terms)
        if text[pos] not in "+-":
            raise ParseError("expected + or -", pos)


def serialize_form(form: KForm) -> str:
    return _format_terms(((c, None, ixs) for ixs, c in form.terms()),
                         form.n) or "0"


# -- .lie fixture files ------------------------------------------------------

@dataclass
class LieFileEntry:
    expr: AlgebraExpr
    bindings: dict[str, Fraction]
    annotations: dict[str, str]
    line: int


def parse_binding(item: str) -> tuple[str, Fraction]:
    """``name=p/q`` as (name, value); BindingError if it is malformed."""
    key, sep, val = item.partition("=")
    key = key.strip()
    if sep and re.fullmatch(_NAME, key):
        try:
            return key, parse_rational(val)
        except ParseError:
            pass
    raise BindingError(f"malformed binding {item!r}, expected name=p/q")


def parse_lie_line(line: str, lineno: int = 0) -> LieFileEntry | None:
    """One fixture line: TUPLE [| name=p/q,...] [# key=value ...]."""
    annotations: dict[str, str] = {}
    if "#" in line:
        line, comment = line.split("#", 1)
        for piece in comment.split():
            if "=" in piece:
                key, val = piece.split("=", 1)
                annotations[key] = val
    line = line.strip()
    if not line:
        return None
    bindings: dict[str, Fraction] = {}
    if "|" in line:
        line, binds = line.split("|", 1)
        for item in binds.split(","):
            item = item.strip()
            if not item:
                continue
            key, val = parse_binding(item)
            bindings[key] = val
    expr = parse(line.strip())
    return LieFileEntry(expr, bindings, annotations, lineno)


def parse_lie_text(text: str) -> list[LieFileEntry]:
    """Entries of a .lie text, skipping blank and comment-only lines."""
    return [entry for lineno, raw in enumerate(text.split("\n"), 1)
            if (entry := parse_lie_line(raw, lineno)) is not None]


def load_lie_file(path) -> list[LieFileEntry]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise LieKernelError(f"cannot read fixture file: {err}") from None
    return parse_lie_text(text)
