"""Property suite over the fixture corpus.

Every check here is an exact statement: the complex squares to zero, the
kernel dimension formula, the adjoint pairing identity on randomized
rational data, unimodularity against the top Betti number, Hodge duality,
the structural characterisation of (2,3)-triviality, and the Kunneth
bookkeeping on direct sums.  Randomness is seeded per algebra name, so
the report depends only on the entries and the triple count.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .cohomology import betti, invariant_cohomology_dims, is_23_trivial
from .exterior import KForm, KVector, multi_indices, pairing, vector_of, wedge
from .families import CorpusEntry, load_corpus, trivial23_consequences
from .kernelmap import LieKernel, ad_multivector, dP
from .liealg import LieAlgebra
from .linalg import identity


def _random_form(rng, n: int, k: int) -> KForm:
    return KForm.from_terms(n, {
        ixs: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        for ixs in multi_indices(n, k)}, k)


def _random_vector(rng, n: int):
    return tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))


def adjoint_identity_holds(g: LieAlgebra, kernel: LieKernel, rng,
                           triples: int) -> bool:
    """<dP alpha, Z ^ p> = -<alpha, ad_Z p> on random rational data."""
    basis = kernel.basis()
    if not basis:
        return True
    for _ in range(triples):
        alpha = _random_form(rng, g.n, 2)
        z = _random_vector(rng, g.n)
        p = KVector.zero(g.n, 2)
        for b in basis:
            p = p + b * Fraction(rng.randint(-2, 2))
        lhs = pairing(dP(g, alpha), wedge(vector_of(g.n, z), p))
        rhs = -pairing(alpha, ad_multivector(g, z, p))
        if lhs != rhs:
            return False
    return True


def dp_closed_and_representative_free(g: LieAlgebra, kernel: LieKernel,
                                      rng, rounds: int = 5) -> bool:
    cx = kernel.complex
    for _ in range(rounds):
        alpha = _random_form(rng, g.n, 2)
        image = dP(g, alpha)
        if not cx.d(image).is_zero():
            return False
        gamma = _random_form(rng, g.n, 1)
        shifted = alpha + cx.d(gamma)
        if dP(g, shifted) != image:
            return False
        if kernel.canonical_rep(alpha) != kernel.canonical_rep(shifted):
            return False
    return True


def characterisation_equivalence_holds(g: LieAlgebra) -> bool:
    lhs = is_23_trivial(g)
    if not g.is_solvable():
        return lhs is False
    derived = g.derived_algebra()
    if derived.dim != g.n - 1:
        return lhs is False
    if derived.dim == 0:
        return lhs is True  # one-dimensional algebra; invariants vacuous
    if not g.subalgebra(derived).is_nilpotent():
        return lhs is False
    a = next(u for u in identity(g.n) if not derived.contains(u))
    dims = invariant_cohomology_dims(g, derived, a)
    rhs = all(d == 0 for d in dims[1:4])
    return lhs is rhs


def check_algebra(entry: CorpusEntry, triples: int) -> dict:
    g = entry.algebra
    rng = random.Random(f"corpus:{entry.name}")
    kernel = LieKernel(g)
    report = betti(g)
    checks = {
        "d_squared_zero": kernel.complex.verify_d_squared(),
        "kernel_dim_formula":
            kernel.dim == report.betti[1] + g.n * (g.n - 3) // 2,
        "adjoint_identity": adjoint_identity_holds(g, kernel, rng, triples),
        "dp_closed_representative_free":
            dp_closed_and_representative_free(g, kernel, rng),
        "unimodular_iff_top_betti":
            g.is_unimodular() == (report.betti[g.n] == 1),
        "codim1_characterisation": characterisation_equivalence_holds(g),
        "euler_characteristic_zero":
            sum((-1) ** k * b for k, b in enumerate(report.betti)) == 0,
        "solvable_implies_derived_nilpotent":
            (not g.is_solvable())
            or g.subalgebra(g.derived_algebra()).is_nilpotent(),
    }
    if g.is_unimodular():
        checks["hodge_duality"] = all(
            report.betti[k] == report.betti[g.n - k] for k in range(g.n + 1))
    if is_23_trivial(g) and g.n >= 2:
        checks["trivial23_consequences"] = all(trivial23_consequences(g).values())
    # the Lie kernel grows by dim h when a central line is added
    extended = LieAlgebra.abelian(1).direct_sum(g)
    checks["central_line_kernel_dim"] = (
        LieKernel(extended).dim == kernel.dim + g.n)
    return checks


def kunneth_pair_check(a: LieAlgebra, b: LieAlgebra) -> bool:
    s = a.direct_sum(b)
    ra, rb, rs = betti(a), betti(b), betti(s)

    def bk(r, k):
        return r.betti[k] if 0 <= k <= r.n else 0

    ok2 = bk(rs, 2) == bk(ra, 2) + bk(rb, 2) + bk(ra, 1) * bk(rb, 1)
    ok3 = bk(rs, 3) == (bk(ra, 3) + bk(rb, 3)
                        + bk(ra, 2) * bk(rb, 1) + bk(ra, 1) * bk(rb, 2))
    return ok2 and ok3


def run_corpus_suite(entries: list[CorpusEntry] | None = None,
                     triples: int = 100) -> dict:
    """Run every property over the corpus; deterministic report."""
    if entries is None:
        entries = load_corpus()
    results = {e.name: check_algebra(e, triples)
               for e in sorted(entries, key=lambda e: e.name)}

    pairs = {}
    small = [e for e in entries if e.algebra.n <= 3]
    for i, ea in enumerate(small):
        for eb in small[i:]:
            if ea.algebra.n + eb.algebra.n <= 6:
                pairs[f"{ea.name}+{eb.name}"] = kunneth_pair_check(
                    ea.algebra, eb.algebra)

    ok = all(all(c.values()) for c in results.values()) and all(pairs.values())
    return {"algebras": results, "kunneth_pairs": pairs, "ok": ok}
