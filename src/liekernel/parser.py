"""Compact tuple notation for Lie algebra structure constants.

A tuple like ``(0,21,l.31)`` lists the differentials of the dual basis:
slot k holds de_k as a signed sum of basis two-forms, ``c.ij`` standing for
c e_i ^ e_j.  Index pairs are two digits for ambient dimension at most 9
and bracketed ``[i,j]`` beyond that.  Coefficients are exact rationals or
single parameter names; decimals are rejected.

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

from .errors import BindingError, ParseError
from .exterior import KForm, bits_of
from .liealg import LieAlgebra

_NAME_RE = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*")
_INT_RE = re.compile(r"\d+")


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


class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise ParseError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def match(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def take(self, regex) -> str | None:
        self.skip_ws()
        m = regex.match(self.text, self.pos)
        if m is None:
            return None
        self.pos = m.end()
        return m.group()


def _parse_index_pair(cur: _Cursor) -> tuple[int, int]:
    if cur.match("["):
        i = cur.take(_INT_RE)
        if i is None:
            raise ParseError("expected index", cur.pos)
        cur.expect(",")
        j = cur.take(_INT_RE)
        if j is None:
            raise ParseError("expected index", cur.pos)
        cur.expect("]")
        return int(i), int(j)
    digits = cur.take(_INT_RE)
    if digits is None or len(digits) != 2:
        raise ParseError("expected a two-digit index pair", cur.pos)
    return int(digits[0]), int(digits[1])


def _parse_term(cur: _Cursor, sign: int) -> Term:
    start = cur.pos
    coef = Fraction(sign)
    param = None
    name = cur.take(_NAME_RE)
    if name is not None:
        param = name
        cur.expect(".")
    else:
        # disambiguate "2.41" (coefficient 2) from "21" (bare index pair)
        save = cur.pos
        num = cur.take(_INT_RE)
        if num is not None and cur.peek() == "/":
            cur.pos += 1
            den = cur.take(_INT_RE)
            if den is None:
                raise ParseError("expected denominator", cur.pos)
            coef *= Fraction(int(num), int(den))
            cur.expect(".")
        elif num is not None and cur.peek() == ".":
            cur.pos += 1
            if cur.peek().isdigit() and not _looks_like_pair_then_end(cur):
                raise ParseError("decimal coefficients are not allowed", save)
            coef *= int(num)
        else:
            cur.pos = save
    i, j = _parse_index_pair(cur)
    if i == j:
        raise ParseError("repeated index in pair", start)
    return Term(coef, param, (i, j))


def _looks_like_pair_then_end(cur: _Cursor) -> bool:
    """After 'num.', the rest of the term must be a full index pair."""
    save = cur.pos
    try:
        _parse_index_pair(cur)
    except ParseError:
        cur.pos = save
        return False
    ok = cur.peek() in "+-,)"
    cur.pos = save
    return ok


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
    cur = _Cursor(text)
    cur.expect("(")
    raw_slots: list[list[Term]] = []
    while True:
        terms: list[Term] = []
        zero_slot = False
        if cur.peek() == "0":
            save = cur.pos
            cur.pos += 1
            if cur.peek() in ",)":
                zero_slot = True
            else:
                cur.pos = save  # a slot like 0.12 is not the zero slot
        if not zero_slot:
            if cur.peek() in ",)":
                raise ParseError("empty slot", cur.pos)
            sign = 1
            if cur.match("-"):
                sign = -1
            elif cur.match("+"):
                pass
            terms.append(_parse_term(cur, sign))
            while cur.peek() in "+-":
                sign = -1 if cur.peek() == "-" else 1
                cur.pos += 1
                terms.append(_parse_term(cur, sign))
        raw_slots.append(terms)
        if cur.match(")"):
            break
        cur.expect(",")
    cur.skip_ws()
    if cur.pos != len(cur.text):
        raise ParseError("trailing input after tuple", cur.pos)
    n = len(raw_slots)
    if n > 16:
        raise ParseError("dimension above 16 is unsupported", 0)
    for terms in raw_slots:
        for t in terms:
            i, j = t.pair
            if not (1 <= i <= n and 1 <= j <= n):
                raise ParseError(f"index pair {t.pair} out of range 1..{n}", 0)
    return AlgebraExpr(n, tuple(_canonical_slot(ts) for ts in raw_slots))


def _format_rational(q: Fraction) -> str:
    return str(q)


def _format_pair(pair: tuple[int, int], n: int) -> str:
    i, j = pair
    if n <= 9:
        return f"{i}{j}"
    return f"[{i},{j}]"


def serialize(expr: AlgebraExpr) -> str:
    """Canonical text form; parse(serialize(e)) == e."""
    slots_out = []
    for terms in expr.slots:
        if not terms:
            slots_out.append("0")
            continue
        pieces = []
        for idx, t in enumerate(terms):
            mag = abs(t.coef)
            body = _format_pair(t.pair, expr.n)
            if t.param is not None:
                body = f"{t.param}.{body}"
            elif mag != 1:
                body = f"{_format_rational(mag)}.{body}"
            sign = "-" if t.coef < 0 else "+"
            if idx == 0:
                pieces.append(body if t.coef > 0 else "-" + body)
            else:
                pieces.append(sign + body)
        slots_out.append("".join(pieces))
    return "(" + ",".join(slots_out) + ")"


def instantiate(expr: AlgebraExpr, bindings: dict | None = None,
                name: str | None = None) -> LieAlgebra:
    """Structure constants under de_k(e_i,e_j) = c  =>  [e_i,e_j] = -c e_k.

    The result is NOT Jacobi-validated; callers decide when to check.
    """
    bindings = {k: Fraction(v) for k, v in (bindings or {}).items()}
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

def _parse_index_tuple(cur: _Cursor, degree: int | None) -> tuple[int, ...]:
    if cur.match("["):
        out = []
        while True:
            i = cur.take(_INT_RE)
            if i is None:
                raise ParseError("expected index", cur.pos)
            out.append(int(i))
            if cur.match("]"):
                return tuple(out)
            cur.expect(",")
    digits = cur.take(_INT_RE)
    if digits is None:
        raise ParseError("expected indices", cur.pos)
    if degree is not None and len(digits) != degree:
        raise ParseError(f"expected {degree} indices", cur.pos)
    return tuple(int(d) for d in digits)


def parse_form(text: str, n: int, degree: int | None = None) -> KForm:
    """Parse a k-form literal such as ``3.123-145+1/2.267`` ('0' is zero)."""
    cur = _Cursor(text)
    if cur.peek() == "0":
        cur.pos += 1
        cur.skip_ws()
        if cur.pos == len(cur.text):
            if degree is None:
                raise ParseError("cannot infer the degree of 0", 0)
            return KForm.zero(n, degree)
        raise ParseError("trailing input after 0", cur.pos)
    terms: dict[int, Fraction] = {}
    first = True
    deg = degree
    while True:
        if first:
            sign = -1 if cur.match("-") else 1
            first = False
        else:
            ch = cur.peek()
            if ch == "":
                break
            if ch not in "+-":
                raise ParseError("expected + or -", cur.pos)
            sign = -1 if ch == "-" else 1
            cur.pos += 1
        coef = Fraction(sign)
        save = cur.pos
        num = cur.take(_INT_RE)
        if num is not None and cur.peek() == "/":
            cur.pos += 1
            den = cur.take(_INT_RE)
            if den is None:
                raise ParseError("expected denominator", cur.pos)
            coef *= Fraction(int(num), int(den))
            cur.expect(".")
        elif num is not None and cur.peek() == ".":
            cur.pos += 1
            coef *= int(num)
        else:
            cur.pos = save
        ixs = _parse_index_tuple(cur, deg)
        if deg is None:
            deg = len(ixs)
        elif len(ixs) != deg:
            raise ParseError("mixed degrees in one form", cur.pos)
        if any(not 1 <= i <= n for i in ixs):
            raise ParseError(f"index out of range 1..{n}", cur.pos)
        bits, s = bits_of(ixs)
        if s == 0:
            raise ParseError("repeated index", cur.pos)
        terms[bits] = terms.get(bits, Fraction(0)) + coef * s
        cur.skip_ws()
        if cur.pos == len(cur.text):
            break
    return KForm(n, deg, {b: c for b, c in terms.items() if c})


def serialize_form(form: KForm) -> str:
    if form.is_zero():
        return "0"
    pieces = []
    for ixs, c in form.terms():
        if form.n <= 9:
            body = "".join(map(str, ixs))
        else:
            body = "[" + ",".join(map(str, ixs)) + "]"
        mag = abs(c)
        if mag != 1:
            body = f"{mag}.{body}"
        pieces.append(("-" if c < 0 else ("+" if pieces else "")) + body)
    return "".join(pieces)


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
    try:
        if sep:
            return key.strip(), Fraction(val.strip())
    except (ValueError, ZeroDivisionError):
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
    with open(path, encoding="utf-8") as fh:
        return parse_lie_text(fh.read())
