from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from liekernel import (KForm, multi_indices, parse, parse_algebra, parse_form,
                       serialize, serialize_form)
from liekernel.errors import BindingError, JacobiError, ParseError
from liekernel.exterior import bits_of
from liekernel.parser import (AlgebraExpr, Term, expr_of, instantiate,
                              parse_binding, parse_lie_line, parse_rational)

NONZERO = st.fractions(min_value=-7, max_value=7, max_denominator=9).filter(bool)

CANONICAL = [
    "(0,21,l.31)",
    "(0,0,12)",
    "(0,21+31,31,2.41+32)",
    "(0,0,0)",
    "(0,12,2.13,-4.14,15)",
    "(0,1/2.21+31,-21+1/2.31)",
    "(0,21,1/4.31,1/2.41)",
]


@pytest.mark.parametrize("text", CANONICAL)
def test_serialize_parse_identity_on_canonical(text):
    expr = parse(text)
    assert serialize(expr) == text
    assert parse(serialize(expr)) == expr


def test_parse_seven_dim_family_and_canonicalization():
    expr = parse("(0,0,12,13,23,14+25+a.23,16+25+35+a.24)")
    assert expr.n == 7 and expr.parameters == {"a"}
    # canonical form sorts by index pair and is idempotent
    text = serialize(expr)
    assert text == "(0,0,12,13,23,14+a.23+25,16+a.24+25+35)"
    assert serialize(parse(text)) == text


def test_parse_merges_duplicate_pairs():
    assert serialize(parse("(0,21+2.21,0)")) == "(0,3.21,0)"
    assert serialize(parse("(0,12+2.21,0)")) == "(0,-12,0)"
    assert serialize(parse("(0,21-21,0)")) == "(0,0,0)"


def test_parse_bracketed_indices_for_large_n():
    text = "(" + ",".join(["0"] * 9 + ["[1,10]"]) + ")"
    expr = parse(text)
    assert expr.n == 10
    assert serialize(expr) == text


@pytest.mark.parametrize("bad,fragment", [
    ("(0,21,0.5.31)", "decimal"),
    ("(0,21,81)", "out of range"),
    ("(0,11)", "repeated index"),
    ("(0,21", "expected"),
    ("(0,,21)", "empty slot"),
    ("(0,21)x", "trailing"),
    ("(0,2)", "two-digit"),
    ("(0,1/0.21)", "zero denominator"),
])
def test_parse_errors_carry_position(bad, fragment):
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert fragment in str(err.value)
    assert "position" in str(err.value)


def test_instantiate_sign_convention():
    g = instantiate(parse("(0,21,l.31)"), {"l": Fraction(1, 2)})
    g.validate()
    assert g.bracket((1, 0, 0), (0, 1, 0)) == (0, 1, 0)
    assert g.bracket((1, 0, 0), (0, 0, 1)) == (0, 0, Fraction(1, 2))
    h3 = parse_algebra("(0,0,12)")
    assert h3.bracket((1, 0, 0), (0, 1, 0)) == (0, 0, -1)


def test_instantiate_unbound_parameter():
    with pytest.raises(BindingError):
        instantiate(parse("(0,21,l.31)"))


def test_instantiate_abelian():
    g = parse_algebra("(0,0,0)")
    assert all(all(x == 0 for x in g.bracket_basis(i, j))
               for i in range(1, 4) for j in range(1, 4))


def test_instantiate_is_linear_in_bindings():
    expr = parse("(0,21,l.31)")
    g1 = instantiate(expr, {"l": Fraction(1, 3)})
    g2 = instantiate(expr, {"l": Fraction(2, 3)})
    assert g2.bracket_basis(1, 3) == tuple(2 * x for x in g1.bracket_basis(1, 3))


def test_instantiate_does_not_assume_jacobi():
    # a tuple that fails Jacobi parses and instantiates; validation rejects
    bad = instantiate(parse("(0,23,12)"))
    with pytest.raises(JacobiError):
        bad.validate()


def test_expr_of_round_trip():
    for text in CANONICAL:
        if "l" in text:
            continue
        g = parse_algebra(text)
        assert instantiate(expr_of(g)).c == g.c


def test_form_literals():
    f = parse_form("3.123-145+1/2.267", 7)
    assert f[(1, 2, 3)] == 3
    assert f[(1, 4, 5)] == -1
    assert f[(2, 6, 7)] == Fraction(1, 2)
    assert parse_form(serialize_form(f), 7) == f
    assert parse_form("0", 5, 2).is_zero()
    with pytest.raises(ParseError):
        parse_form("12+123", 7)


def test_lie_line_parsing():
    entry = parse_lie_line("(0,21,l.31) | l=1/2  # name=r3_half grading=1,1")
    assert entry.bindings == {"l": Fraction(1, 2)}
    assert entry.annotations["name"] == "r3_half"
    assert parse_lie_line("   # pure comment") is None
    assert parse_lie_line("") is None


@st.composite
def algebra_exprs(draw):
    """A canonical expression: per slot, distinct unordered pairs in either
    orientation, sorted, each a nonzero rational or a signed parameter."""
    n = draw(st.integers(1, 16))
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(
        lambda p: p[0] != p[1])
    slots = []
    for _ in range(n):
        terms = []
        for pair in draw(st.lists(pairs, max_size=3 if n > 1 else 0,
                                  unique_by=frozenset)):
            param = draw(st.sampled_from([None, None, "l", "mu", "a_2"]))
            coef = (Fraction(draw(st.sampled_from([1, -1]))) if param
                    else draw(NONZERO))
            terms.append(Term(coef, param, pair))
        slots.append(tuple(sorted(terms, key=lambda t: sorted(t.pair))))
    return AlgebraExpr(n, tuple(slots))


@st.composite
def kforms(draw):
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, min(n, 4)))
    basis = [bits_of(ixs)[0] for ixs in multi_indices(n, k)]
    return KForm(n, k, draw(st.dictionaries(st.sampled_from(basis), NONZERO,
                                            max_size=4)))


@settings(max_examples=80, deadline=None)
@given(algebra_exprs())
def test_serialize_parse_round_trip(expr):
    assert parse(serialize(expr)) == expr


@settings(max_examples=80, deadline=None)
@given(kforms())
def test_serialize_form_parse_form_round_trip(form):
    text = serialize_form(form)
    assert parse_form(text, form.n, form.k) == form
    if not form.is_zero():
        assert parse_form(text, form.n) == form


@pytest.mark.parametrize("text", ["1/0.123", "123-0/0.123"])
def test_form_zero_denominator_is_parse_error(text):
    with pytest.raises(ParseError, match="zero denominator"):
        parse_form(text, 3)


def test_form_term_rules():
    # the first term takes a zero coefficient and a '+' like any later one
    assert parse_form("0.123", 5) == KForm.zero(5, 3)
    assert parse_form("+123-0.145", 5) == parse_form("123", 5)
    assert parse_form(" + 1 / 2 . [1,3]", 5) == parse_form("1/2.13", 5)
    with pytest.raises(ParseError):
        parse_form("l.123", 5)  # parameter names belong to tuples only


@pytest.mark.parametrize("item", ["l=0.5", "l=1e3", "l=1_000", "l=1/0", "l=",
                                  "l", "1x=2", "=2", "l.1=2", "l=1/2/3"])
def test_binding_follows_the_rational_rule(item):
    with pytest.raises(BindingError):
        parse_binding(item)


def test_binding_values():
    assert parse_binding("l=-1/2") == ("l", Fraction(-1, 2))
    assert parse_binding(" a_2 = +3 ") == ("a_2", Fraction(3))
    assert parse_binding("mu=4/6") == ("mu", Fraction(2, 3))
    assert parse_rational("-7") == -7
    with pytest.raises(ParseError):
        parse_rational("0.5")


def test_instantiate_string_bindings_follow_the_rational_rule():
    expr = parse("(0,21,l.31)")
    assert instantiate(expr, {"l": "-1/2"}).c[0][2][2] == Fraction(-1, 2)
    assert instantiate(expr, {"l": Fraction(1, 3)}).c[0][2][2] == Fraction(1, 3)
    for text in ("0.5", "1e3", "1_000", "1/0"):
        with pytest.raises(ParseError):
            instantiate(expr, {"l": text})
