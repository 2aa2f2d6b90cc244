
import random
from fractions import Fraction
from math import lcm

import pytest

from liekernel import corpus, parse_algebra
from liekernel.corpus import (adjoint_identity_holds, kunneth_pair_check,
                              run_corpus_suite)
from liekernel.exterior import KVector
from liekernel.families import load_corpus
from liekernel.kernelmap import ad_multivector, lie_kernel


def test_corpus_suite_all_green():
    suite = run_corpus_suite(triples=25)
    failures = {name: [k for k, v in checks.items() if not v]
                for name, checks in suite["algebras"].items()
                if not all(checks.values())}
    assert failures == {}
    assert suite["ok"]
    assert all(suite["kunneth_pairs"].values())
    assert len(suite["algebras"]) >= 20


def test_kunneth_pair_check_direct():
    entries = {e.name: e.algebra for e in load_corpus()}
    assert kunneth_pair_check(entries["h3"], entries["aff1"])
    assert kunneth_pair_check(entries["su2"], entries["R2"])


def _wrong_by_p(g, z, p):
    return ad_multivector(g, z, p) + p


def _negated(g, z, p):
    return -ad_multivector(g, z, p)


@pytest.mark.parametrize("name,wrong", [
    ("h3", _wrong_by_p), ("su3", _wrong_by_p), ("su3", _negated)])
def test_adjoint_identity_catches_a_wrong_ad_multivector(monkeypatch, name,
                                                         wrong):
    # on h3 both sides vanish (d is zero on two-forms and ad_Z P = 0), so
    # negating the image is still right there; adding p is not
    g = {e.name: e.algebra for e in load_corpus()}[name]
    assert adjoint_identity_holds(g, random.Random(name), 5)
    monkeypatch.setattr(corpus, "ad_multivector", wrong)
    assert not adjoint_identity_holds(g, random.Random(name), 5)


@pytest.mark.parametrize("text", ["(0,21,1/2.31)", "(0,21+31,31,2.41+32)",
                                  "(0,0,12)", "(0,0,12,13,2.14+3.23)"])
def test_integral_draws_are_the_rational_draws_rescaled(text):
    # the kernel basis of the last algebra has denominators 3, so L = 3
    g = parse_algebra(text)
    basis = lie_kernel(g).basis()
    scale = lcm(*(q.denominator for b in basis for q in b.coeffs.values()))
    rows = [{bits: int(q * scale) for bits, q in b.coeffs.items()}
            for b in basis]
    plain, scaled = random.Random(7), random.Random(7)
    for _ in range(5):
        alpha = corpus._random_form(plain, g.n, 2)
        z = tuple(plain.randint(-3, 3) for _ in range(g.n))
        p = KVector.zero(g.n, 2)
        for b in basis:
            p = p + b * Fraction(plain.randint(-2, 2))
        alpha6, z_int, p_l = corpus._integral_triple(scaled, g.n, rows)
        assert alpha6 == alpha * 6 and z_int == z and p_l == p * scale
        assert all(type(c) is int
                   for c in (*alpha6.coeffs.values(), *p_l.coeffs.values()))
