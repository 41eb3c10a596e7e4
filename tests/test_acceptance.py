"""
Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line (run with `pytest -s tests/test_acceptance.py` to watch).
Every tolerance is exact; the only inequalities are wall-clock ceilings.
"""

import random
import time
from fractions import Fraction

from braidmono import (
    BlockFactor,
    BraidWord,
    FreeWord,
    LineArrangement,
    Rule,
    apply_rule,
    artin_action,
    abelianization_rank,
    braid_monodromy,
    compose,
    degree_audit,
    exponent_sum,
    full_twist,
    hm_invariants,
    hurwitz_equivalent,
    hurwitz_move,
    hurwitz_move_inverse,
    is_delta2_factorization,
    normal_form,
    presentation,
    product,
    regenerate,
    StructuredFactor,
    HalfTwist,
    Verdict,
    words_equal,
)
from conftest import (
    random_generic_arrangement,
    random_word,
    standard_b3_factorization,
)


def report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({name}) failed"


def test_01_paper_b3_factorization():
    t0 = time.time()
    F = standard_b3_factorization()
    ok = is_delta2_factorization(F)
    ok = ok and F.degree() == 6
    ok = ok and exponent_sum(product(F)) == 6
    ok = ok and words_equal(product(F), full_twist(3))
    elapsed = time.time() - t0
    report(1, "six half-twists factor the B_3 full twist", ok and elapsed < 1.0)


def test_02_artin_oracle_random_arrangements():
    t0 = time.time()
    rng = random.Random(20_24)
    ok = True
    count = 0
    for m in range(2, 8):
        for _ in range(17):
            arr = random_generic_arrangement(rng, m)
            F = braid_monodromy(arr)
            ok = ok and is_delta2_factorization(F) and F.degree() == m * (m - 1)
            count += 1
    elapsed = time.time() - t0
    report(
        2,
        f"full-twist oracle on {count} random arrangements in {elapsed:.1f}s",
        ok and count >= 100 and elapsed < 60.0,
    )


def test_03_multiple_points():
    ok = True
    for k in (3, 4, 5):
        for extras in ((), ((-1, 7),), ((-1, 7), (-2, Fraction(-5, 2)))):
            pairs = [(Fraction(s), Fraction(0)) for s in range(1, k + 1)]
            pairs += [(Fraction(a), Fraction(b)) for a, b in extras]
            arr = LineArrangement.from_pairs(pairs)
            F = braid_monodromy(arr)
            blocks = [f for f in F.factors if isinstance(f, BlockFactor)]
            ok = ok and len(blocks) == 1 and blocks[0].degree() == k * (k - 1)
            ok = ok and is_delta2_factorization(F)
            ok = ok and is_delta2_factorization(braid_monodromy(arr, expand_blocks=True))
    report(3, "concurrent blocks keep the oracle and degrees k(k-1)", ok)


def test_04_hurwitz_invariance_and_search():
    t0 = time.time()
    F = standard_b3_factorization()
    inv0 = hm_invariants(F)
    rng = random.Random(42)
    cur = F
    for _ in range(10_000):
        k = rng.randint(1, len(cur.factors) - 1)
        cur = hurwitz_move(cur, k) if rng.random() < 0.5 else hurwitz_move_inverse(cur, k)
    ok = hm_invariants(cur) == inv0

    scramble_rng = random.Random(1234)
    scrambled = F
    for _ in range(20):
        k = scramble_rng.randint(1, 5)
        if scramble_rng.random() < 0.5:
            scrambled = hurwitz_move(scrambled, k)
        else:
            scrambled = hurwitz_move_inverse(scrambled, k)
    res = hurwitz_equivalent(F, scrambled, budget=1_000_000)
    ok = ok and res.verdict is Verdict.EQUIVALENT and res.explored <= 1_000_000
    elapsed = time.time() - t0
    report(
        4,
        f"10^4 moves preserve invariants; scramble re-found in {elapsed:.1f}s",
        ok and elapsed < 120.0,
    )


def test_05_regeneration_audit_identity():
    t0 = time.time()
    rng = random.Random(7)
    ok = True
    for n in range(2, 7):
        arr = random_generic_arrangement(rng, n)
        R = regenerate(braid_monodromy(arr, expand_blocks=True))
        rep = degree_audit(R)
        ok = ok and rep.achieved_degree == 4 * n * (n - 1)
        ok = ok and rep.target_degree == 2 * n * (2 * n - 1)
        ok = ok and rep.deficit == 2 * n
    elapsed = time.time() - t0
    report(5, "all-node regeneration: degree 4n(n-1), deficit 2n", ok and elapsed < 1.0)


def test_06_rule_budgets():
    ok = True
    for m in (2, 3, 4):
        for a in range(1, m):
            for b in range(a + 1, m + 1):
                e = BraidWord.identity(m)
                f1 = StructuredFactor(e, HalfTwist(m, a, b), 1)
                f2 = StructuredFactor(e, HalfTwist(m, a, b), 2)
                f4 = StructuredFactor(e, HalfTwist(m, a, b), 4)
                ok = ok and sum(f.degree() for f in apply_rule(Rule.BRANCH, f1)) == 2
                ok = ok and sum(f.degree() for f in apply_rule(Rule.NODE, f2)) == 8
                ok = ok and sum(f.degree() for f in apply_rule(Rule.TANGENCY, f4)) == 9
                ok = ok and len(apply_rule(Rule.BRANCH, f1)) == 2
                ok = ok and len(apply_rule(Rule.NODE, f2)) == 4
                ok = ok and len(apply_rule(Rule.TANGENCY, f4)) == 3
    report(6, "rule degree budgets 1->2, 2->8, 4->9", ok)


def test_07_vankampen_abelianization():
    rng = random.Random(31)
    two = braid_monodromy(LineArrangement.from_pairs([(1, 0), (-1, 0)]))
    pres2 = presentation(two)
    ok = abelianization_rank(pres2) == (2, ())
    # the relators are commutator words: zero exponent vectors
    ok = ok and all(r.exponent_vector(2) == [0, 0] for r in pres2.relators)
    for m in range(2, 7):
        arr = random_generic_arrangement(rng, m)
        rank, torsion = abelianization_rank(presentation(braid_monodromy(arr)))
        ok = ok and rank == m and torsion == ()
    report(7, "abelianizations: rank m, no torsion (Smith exact)", ok)


def test_08_property_suites():
    rng = random.Random(0xF00D)

    fixity_fail = 0
    for _ in range(1000):
        m = rng.randint(2, 5)
        w = random_word(rng, m, 25)
        total = FreeWord(())
        for i in range(1, m + 1):
            total = total * artin_action(w, i)
        if total.letters != tuple(range(1, m + 1)):
            fixity_fail += 1

    central_fail = 0
    for _ in range(1000):
        m = rng.randint(2, 6)
        w = random_word(rng, m, 40)
        ft = full_twist(m)
        if not words_equal(compose(ft, w), compose(w, ft)):
            central_fail += 1

    relator_fail = 0
    for _ in range(1000):
        m = rng.randint(2, 6)
        w = random_word(rng, m, 30)
        kind = rng.randrange(3)
        if kind == 1 and m >= 3:
            i = rng.randint(1, m - 2)
            rel = (i, i + 1, i, -(i + 1), -i, -(i + 1))
        elif kind == 2 and m >= 4:
            i = rng.randint(1, m - 3)
            j = rng.randint(i + 2, m - 1)
            rel = (i, j, -i, -j)
        else:
            i = rng.randint(1, m - 1)
            rel = (i, -i) if rng.random() < 0.5 else (-i, i)
        p = rng.randint(0, len(w.letters))
        w2 = BraidWord(m, w.letters[:p] + rel + w.letters[p:])
        if normal_form(w) != normal_form(w2):
            relator_fail += 1

    ok = fixity_fail == central_fail == relator_fail == 0
    report(
        8,
        f"fuzz failures: fixity {fixity_fail}, centrality {central_fail}, "
        f"relators {relator_fail}",
        ok,
    )
