
import random
from fractions import Fraction
from math import lcm

import pytest

from liekernel import corpus, kernelmap, parse_algebra
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


_scaled_ad = kernelmap.scaled_ad


def _wrong_by_p(g, z, coeffs):
    scale, image = _scaled_ad(g, z, coeffs)
    for bits, c in coeffs.items():
        image[bits] = image.get(bits, 0) + scale * c
    return scale, image


def _negated(g, z, coeffs):
    scale, image = _scaled_ad(g, z, coeffs)
    return scale, {bits: -v for bits, v in image.items()}


@pytest.mark.parametrize("name,wrong", [
    ("h3", _wrong_by_p), ("su3", _wrong_by_p), ("su3", _negated)])
def test_adjoint_identity_catches_a_wrong_ad_multivector(monkeypatch, name,
                                                         wrong):
    # the right side reads ad through the integer seam that ad_multivector
    # divides (see the next test); on h3 both sides vanish (d is zero on
    # two-forms and ad_Z P = 0), so negating the image is still right
    # there; adding p is not
    g = {e.name: e.algebra for e in load_corpus()}[name]
    assert adjoint_identity_holds(g, random.Random(name), 5)
    monkeypatch.setattr(corpus, "scaled_ad", wrong)
    assert not adjoint_identity_holds(g, random.Random(name), 5)


def test_the_suite_checks_the_seam_that_ad_multivector_reads(monkeypatch):
    g = {e.name: e.algebra for e in load_corpus()}["su3"]
    z, p = (1, 0, 2, 0, 0, -1, 0, 3), KVector.from_terms(8, {(1, 2): 1,
                                                             (3, 7): 2})
    right = ad_multivector(g, z, p)
    assert corpus.scaled_ad is kernelmap.scaled_ad
    monkeypatch.setattr(kernelmap, "scaled_ad", _negated)
    assert ad_multivector(g, z, p) == -right != right


def test_adjoint_identity_catches_a_wrong_d(monkeypatch):
    # flip the sign of one entry of the cached integer rows D d_2
    g = {e.name: e.algebra for e in load_corpus()}["su3"]
    assert adjoint_identity_holds(g, random.Random("su3"), 5)
    row = next(r for r in lie_kernel(g).complex.d_rows(2) if r)
    j, v = next(iter(row.items()))
    monkeypatch.setitem(row, j, -v)
    assert not adjoint_identity_holds(g, random.Random("su3"), 5)


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
        z = tuple(plain.randint(-3, 3) for _ in range(g.n))
        p = KVector.zero(g.n, 2)
        for b in basis:
            p = p + b * Fraction(plain.randint(-2, 2))
        z_int, p_l = corpus._integral_triple(scaled, g.n, rows)
        assert z_int == z and p_l == p * scale
        assert all(type(c) is int for c in p_l.coeffs.values())
