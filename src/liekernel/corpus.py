"""Property suite over the fixture corpus.

Every check here is an exact statement: the complex squares to zero, the
kernel dimension formula, the adjoint pairing identity on random Z and
p in P, unimodularity against the top Betti number, Hodge duality,
the structural characterisation of (2,3)-triviality, and the Kunneth
bookkeeping on direct sums.  Randomness is seeded per algebra name, so
the report depends only on the entries and the triple count.

The adjoint identity is linear in the two-form alpha, so it is checked
as the vector equation d_2^T (Z ^ p) = -ad_Z p, in integers on rows built
once per algebra: its left side reads the cached CE rows D d_2, its right
side the integer ad seam `kernelmap.scaled_ad`, which `ad_multivector`
divides.  `check_algebra` asks each structural question of an algebra
once and hands the answers to the checks that read them.  Its Betti numbers come from the plain
per-degree ranks (`CEComplex.betti_number`), never from `betti`, which
ranks the upper half of a unimodular complex on cores cut by Poincare
duality: Hodge duality is checked here, not assumed.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .cohomology import complex_of, invariant_cohomology_dims, is_23_trivial
from .exterior import KForm, KVector, lex
from .families import CorpusEntry, load_corpus, trivial23_consequences
from .kernelmap import dP, lie_kernel, scaled_ad
from .liealg import LieAlgebra
from .linalg import Subspace, combine, identity

_DP_ROUNDS = 5  # random two-forms per algebra for the d_P checks


def _random_form(rng, n: int, k: int) -> KForm:
    return KForm(n, k, {b: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                        for b in lex(n, k)[1]})


def _integral_triple(rng, n: int, basis: list[dict]):
    """z and L p in ints, for the z and p in P that the rational draws
    give; `basis` is the kernel basis times L, the lcm of its
    denominators."""
    z = tuple(rng.randint(-3, 3) for _ in range(n))
    p = combine(zip([rng.randint(-2, 2) for _ in basis], basis))
    return z, KVector(n, 2, p)


def adjoint_identity_holds(g: LieAlgebra, rng, triples: int) -> bool:
    """d_2^T (Z ^ p) = -ad_Z p at every lex two-form, on random Z and p
    in P: <dP alpha, Z ^ p> = -<alpha, ad_Z p> for all alpha at once.  In
    ints (`_integral_triple`), the left side through the rows D d_2 of the
    cached complex, the right side E ad_Z p from `scaled_ad`, compared as
    lhs E = rhs D."""
    kernel = lie_kernel(g)
    basis = kernel.basis()
    scale = lcm(*(q.denominator for b in basis for q in b.coeffs.values()))
    basis = [{bits: q.numerator * (scale // q.denominator)
              for bits, q in b.coeffs.items()} for b in basis]
    n, d, rows = g.n, kernel.complex.scale, kernel.complex.d_rows(2)
    bits2, pos3 = lex(n, 2)[1], lex(n, 3)[2]
    for _ in range(triples if basis else 0):
        z, p = _integral_triple(rng, n, basis)
        # Z ^ p by lex position: e_i ^ e_B = (-1)^{#B below i} e_{B + i}
        zp: dict[int, int] = {}
        for i, zi in enumerate(z):
            if not zi:
                continue
            bit = 1 << i
            for b, c in p.coeffs.items():
                if not b & bit:
                    j = pos3[b | bit]
                    v = -zi * c if (b & (bit - 1)).bit_count() & 1 else zi * c
                    zp[j] = zp.get(j, 0) + v
        e, ad_zp = scaled_ad(g, z, p.coeffs)
        for b, row in zip(bits2, rows):
            lhs = sum(w * zp[j] for j, w in row.items() if j in zp)
            if lhs * e != -ad_zp.get(b, 0) * d:
                return False
    return True


def dp_closed_and_representative_free(g: LieAlgebra, rng) -> bool:
    kernel = lie_kernel(g)
    cx = kernel.complex
    for _ in range(_DP_ROUNDS):
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


def characterisation_equivalence_holds(g: LieAlgebra, trivial23: bool,
                                       solvable: bool, derived: Subspace,
                                       derived_nilpotent: bool) -> bool:
    """b2 = b3 = 0 iff g = R a + g' with g' nilpotent and H^1..H^3(g')^a = 0,
    given is_23_trivial(g), whether g is solvable, g' and, for solvable g,
    whether g' is nilpotent."""
    if not solvable or derived.dim != g.n - 1:
        return trivial23 is False
    if derived.dim == 0:
        return trivial23 is True  # one-dimensional algebra; invariants vacuous
    if not derived_nilpotent:
        return trivial23 is False
    a = next(u for u in identity(g.n) if not derived.contains(u))
    dims = invariant_cohomology_dims(g, derived, a)
    rhs = all(d == 0 for d in dims[1:4])
    return trivial23 is rhs


def check_algebra(entry: CorpusEntry, triples: int) -> dict:
    g = entry.algebra
    rng = random.Random(f"corpus:{entry.name}")
    kernel = lie_kernel(g)
    # every degree by the plain per-degree ranks, not `betti`, which cuts
    # the upper half of a unimodular complex by the lower one: the duality
    # checks below would assume what they check
    b = [complex_of(g).betti_number(k) for k in range(g.n + 1)]
    trivial23, unimodular = is_23_trivial(g), g.is_unimodular()
    solvable, derived = g.is_solvable(), g.derived_algebra()
    derived_nilpotent = solvable and g.subalgebra(derived).is_nilpotent()
    checks = {
        "d_squared_zero": kernel.complex.verify_d_squared(),
        "kernel_dim_formula":
            kernel.dim == b[1] + g.n * (g.n - 3) // 2,
        "adjoint_identity": adjoint_identity_holds(g, rng, triples),
        "dp_closed_representative_free":
            dp_closed_and_representative_free(g, rng),
        "unimodular_iff_top_betti": unimodular == (b[g.n] == 1),
        "codim1_characterisation": characterisation_equivalence_holds(
            g, trivial23, solvable, derived, derived_nilpotent),
        "euler_characteristic_zero":
            sum((-1) ** k * x for k, x in enumerate(b)) == 0,
        "solvable_implies_derived_nilpotent": not solvable or derived_nilpotent,
    }
    if unimodular:
        checks["hodge_duality"] = all(
            b[k] == b[g.n - k] for k in range(g.n + 1))
    if trivial23 and g.n >= 2:
        checks["trivial23_consequences"] = all(trivial23_consequences(g).values())
    # the Lie kernel grows by dim h when a central line is added
    extended = LieAlgebra.abelian(1).direct_sum(g)
    checks["central_line_kernel_dim"] = (
        lie_kernel(extended).dim == kernel.dim + g.n)
    return checks


def kunneth_pair_check(a: LieAlgebra, b: LieAlgebra) -> bool:
    ba, bb, bs = (complex_of(x).betti_number for x in (a, b, a.direct_sum(b)))
    ok2 = bs(2) == ba(2) + bb(2) + ba(1) * bb(1)
    ok3 = bs(3) == ba(3) + bb(3) + ba(2) * bb(1) + ba(1) * bb(2)
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
