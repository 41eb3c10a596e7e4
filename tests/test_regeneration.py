import pytest

from braidmono import regeneration as rg
from braidmono import (
    BlockFactor,
    BraidWord,
    Factorization,
    HalfTwist,
    IndexDoubling,
    LineArrangement,
    RegenerationError,
    Rule,
    StructuredFactor,
    braid_monodromy,
    complete_deficit,
    degree_audit,
    double_halftwist,
    expand,
    free_reduce,
    half_twist_word,
    is_delta2_factorization,
    normal_form,
    permutation_of,
    regenerate,
    rule_I_branch,
    rule_II_node,
    rule_III_tangency,
    words_equal,
)
from braidmono.cli import main
from conftest import random_generic_arrangement, random_word, standard_b3_factorization


def sf(m, a, b, exp, conj=()):
    return StructuredFactor(BraidWord(m, conj), HalfTwist(m, a, b), exp)


class TestIndexDoubling:
    def test_cabling_is_a_homomorphism(self):
        d = IndexDoubling(3)
        assert words_equal(d.word(BraidWord(3, (1, 2, 1))), d.word(BraidWord(3, (2, 1, 2))))
        d4 = IndexDoubling(4)
        assert words_equal(d4.word(BraidWord(4, (1, 3))), d4.word(BraidWord(4, (3, 1))))
        assert normal_form(d.word(BraidWord(3, (2, -2)))).is_identity()

    def test_cabled_generator_permutation(self):
        d = IndexDoubling(2)
        p = permutation_of(d.word(BraidWord(2, (1,))))
        assert (p(1), p(2), p(3), p(4)) == (3, 4, 1, 2)

    def test_strand_mismatch(self):
        with pytest.raises(RegenerationError):
            IndexDoubling(3).word(BraidWord(4, (1,)))


class TestDoubleHalfTwist:
    def test_four_variants(self):
        h = HalfTwist(2, 1, 2)
        assert double_halftwist(h) == HalfTwist(4, 1, 3)
        assert double_halftwist(h, low_prime=True) == HalfTwist(4, 2, 3)
        assert double_halftwist(h, high_prime=True) == HalfTwist(4, 1, 4)
        assert double_halftwist(h, True, True) == HalfTwist(4, 2, 4)

    def test_exponent_sum_one(self):
        from braidmono import exponent_sum, half_twist_word

        h = HalfTwist(3, 1, 3)
        for lp in (False, True):
            for hp in (False, True):
                assert exponent_sum(half_twist_word(double_halftwist(h, lp, hp))) == 1

    def test_support_order_preserved(self):
        # nested supports stay nested, disjoint stay disjoint
        inner = double_halftwist(HalfTwist(4, 2, 3))
        outer = double_halftwist(HalfTwist(4, 1, 4))
        assert outer.low < inner.low < inner.high < outer.high
        left = double_halftwist(HalfTwist(4, 1, 2), high_prime=True)
        right = double_halftwist(HalfTwist(4, 3, 4))
        assert left.high < right.low


class TestRules:
    def test_rule_I_budget(self):
        out = rule_I_branch(sf(3, 1, 2, 1))
        assert len(out) == 2
        assert sum(f.degree() for f in out) == 2
        assert all(f.exponent == 1 for f in out)

    def test_rule_I_endpoints(self):
        out = rule_I_branch(sf(2, 1, 2, 1))
        assert out[0].base == HalfTwist(4, 1, 4)  # Z_{i j'}
        assert out[1].base == HalfTwist(4, 2, 3)  # Z_{i' j}

    def test_rule_I_permutations(self):
        out = rule_I_branch(sf(2, 1, 2, 1))
        prod_perm = permutation_of(expand(out[0])) * permutation_of(expand(out[1]))
        # (1 4)(2 3): the two transpositions have disjoint doubled endpoints
        assert prod_perm.cycle_type() == (2, 2)

    def test_rule_II_budget_and_order(self):
        out = rule_II_node(sf(3, 1, 3, 2))
        assert len(out) == 4
        assert sum(f.degree() for f in out) == 8
        lows = [(f.base.low, f.base.high) for f in out]
        assert lows == [(2, 6), (1, 6), (2, 5), (1, 5)]  # i'j', ij', i'j, ij

    def test_rule_II_pure(self):
        for f in rule_II_node(sf(3, 1, 2, 2)):
            assert permutation_of(expand(f)).is_identity()

    def test_rule_III_budget(self):
        out = rule_III_tangency(sf(3, 2, 3, 4))
        assert len(out) == 3
        assert sum(f.degree() for f in out) == 9
        assert all(f.exponent == 3 for f in out)

    def test_rule_III_conjugate_outputs(self):
        out = rule_III_tangency(sf(2, 1, 2, 4))
        assert len({f.base for f in out}) == 1
        # permutation of each output: transposition of the doubled endpoints
        for f in out:
            assert permutation_of(expand(f)).cycle_type() == (2, 1, 1)

    def test_wrong_exponent_rejected(self):
        with pytest.raises(RegenerationError):
            rule_I_branch(sf(3, 1, 2, 2))
        with pytest.raises(RegenerationError):
            rule_II_node(sf(3, 1, 2, 1))
        with pytest.raises(RegenerationError):
            rule_III_tangency(sf(3, 1, 2, 2))

    def test_conjugator_inherited(self):
        f = sf(3, 1, 2, 2, conj=(2,))
        d = IndexDoubling(3)
        want = d.word(BraidWord(3, (2,)))
        for out in rule_II_node(f):
            assert out.conjugator == want


class TestRegenerate:
    def test_default_assignment_by_exponent(self):
        F = Factorization(3, (sf(3, 1, 2, 1), sf(3, 1, 3, 2), sf(3, 2, 3, 4)))
        R = regenerate(F)
        assert R.strands == 6
        assert len(R.factors) == 2 + 4 + 3
        assert R.degree() == 2 + 8 + 9

    def test_empty(self):
        assert regenerate(Factorization(3)).factors == ()

    def test_pass_through(self):
        F = Factorization(3, (sf(3, 1, 2, 3),))
        R = regenerate(F, {0: Rule.PASS})
        assert len(R.factors) == 1
        assert R.factors[0].exponent == 3
        assert R.factors[0].base == HalfTwist(6, 1, 3)

    def test_exponent_without_rule_rejected(self):
        F = Factorization(3, (sf(3, 1, 2, 3),))
        with pytest.raises(RegenerationError):
            regenerate(F)

    def test_block_factor_rejected(self):
        F = Factorization(
            3, (BlockFactor(BraidWord.identity(3), 1, 3, 2),)
        )
        with pytest.raises(RegenerationError):
            regenerate(F, {0: Rule.PASS})

    @pytest.mark.parametrize("rules", [None, {0: Rule.PASS}, {0: Rule.NODE}, {0: Rule.TANGENCY}])
    def test_block_gets_only_the_expand_blocks_error(self, rules):
        # three concurrent lines and one generic line, blocks left unexpanded
        arr = LineArrangement.from_pairs([(0, 0), (1, 0), (-1, 0), (2, -5)])
        F = braid_monodromy(arr)
        assert isinstance(F.factors[0], BlockFactor)
        with pytest.raises(RegenerationError) as exc:
            regenerate(F, rules)
        assert str(exc.value) == (
            "block factors must be expanded into node factors before "
            "regeneration (expand_blocks)"
        )

    def test_pass_advice_works_when_followed(self):
        F = Factorization(3, (sf(3, 1, 2, 2), sf(3, 1, 3, 3)))
        with pytest.raises(RegenerationError, match="factor 1 .* assign Rule.PASS explicitly"):
            regenerate(F)
        R = regenerate(F, {1: Rule.PASS})
        assert [f.exponent for f in R.factors] == [2, 2, 2, 2, 3]

    def test_generic_lines_all_nodes(self, rng):
        for n in (2, 3, 4):
            arr = random_generic_arrangement(rng, n)
            F = braid_monodromy(arr, expand_blocks=True)
            R = regenerate(F)
            assert len(R.factors) == 4 * (n * (n - 1) // 2)
            assert R.degree() == 4 * n * (n - 1)


class TestAudit:
    def test_deficit_identity_n2_to_6(self, rng):
        for n in range(2, 7):
            arr = random_generic_arrangement(rng, n)
            R = regenerate(braid_monodromy(arr, expand_blocks=True))
            rep = degree_audit(R)
            assert rep.achieved_degree == 4 * n * (n - 1)
            assert rep.target_degree == 2 * n * (2 * n - 1)
            assert rep.deficit == 2 * n

    def test_zero_deficit(self, b3_factorization):
        rep = degree_audit(b3_factorization)
        assert rep.deficit == 0

    def test_overfull_rejected(self):
        F = Factorization(2, tuple(sf(2, 1, 2, 1) for _ in range(3)))
        with pytest.raises(RegenerationError):
            degree_audit(F)


class TestCompletion:
    def test_recovers_dropped_branch_factors(self):
        full = standard_b3_factorization()
        partial = Factorization(3, full.factors[:4])
        res = complete_deficit(partial, budget=5000)
        assert res.completed is not None
        assert is_delta2_factorization(res.completed)
        assert len(res.completed.factors) == 6

    def test_node_regeneration_answers_without_search(self, rng):
        # a half-twist has infimum >= -1, so deficit-many of them multiply to
        # infimum >= -deficit; a node regeneration's defect lies far below
        for n in (3, 4):
            arr = random_generic_arrangement(rng, n)
            R = regenerate(braid_monodromy(arr, expand_blocks=True))
            res = complete_deficit(R, budget=1000)
            assert res.completed is None and res.ruled_out
            assert res.tried == 0 and res.exhausted

    def test_defect_with_negative_infimum_still_completes(self):
        # the product is s2 Delta^2 s2^-1 (s2 s1 s2^-1)^-1: deficit 1, and the
        # defect is the half-twist (1 3), whose infimum is -1
        F = Factorization(3, tuple(
            sf(3, a, b, 1) for a, b in ((2, 3), (2, 3), (1, 2), (2, 3), (1, 2))
        ))
        res = complete_deficit(F, budget=1000)
        assert not res.ruled_out
        assert res.completed is not None
        assert is_delta2_factorization(res.completed)
        assert res.completed.factors[-1].base == HalfTwist(3, 1, 3)

    def test_already_complete(self, b3_factorization):
        res = complete_deficit(b3_factorization)
        assert res.completed is b3_factorization

    def test_zero_deficit_not_delta2_is_not_ruled_out(self):
        F = Factorization(3, tuple(sf(3, 1, 2, 2) for _ in range(3)))
        res = complete_deficit(F)
        assert res.completed is None and res.tried == 0 and res.exhausted
        assert not res.ruled_out

    def test_budget_exhaustion_reported(self):
        full = standard_b3_factorization()
        partial = Factorization(3, full.factors[:2])
        res = complete_deficit(partial, budget=1)
        if res.completed is None:
            assert not res.exhausted


# --- the rule bodies as they were before the table, kept as the reference ---


def ref_doubled_input(factor):
    if isinstance(factor, BlockFactor):
        raise RegenerationError(
            "block factors must be expanded into node factors before "
            "regeneration (expand_blocks)"
        )
    doubling = IndexDoubling(factor.strands)
    return doubling, doubling.word(factor.conjugator), factor.base


def ref_rule_I(factor):
    if factor.exponent != 1:
        raise RegenerationError(f"rule I applies to exponent 1, got {factor.exponent}")
    _, conj, base = ref_doubled_input(factor)
    return (
        StructuredFactor(conj, double_halftwist(base, high_prime=True), 1),
        StructuredFactor(conj, double_halftwist(base, low_prime=True), 1),
    )


def ref_rule_II(factor):
    if factor.exponent != 2:
        raise RegenerationError(f"rule II applies to exponent 2, got {factor.exponent}")
    _, conj, base = ref_doubled_input(factor)
    variants = [(True, True), (False, True), (True, False), (False, False)]
    return tuple(
        StructuredFactor(conj, double_halftwist(base, lp, hp), 2) for lp, hp in variants
    )


def ref_rule_III(factor):
    if factor.exponent != 4:
        raise RegenerationError(f"rule III applies to exponent 4, got {factor.exponent}")
    _, conj, base = ref_doubled_input(factor)
    cusp_base = double_halftwist(base, high_prime=True)
    strands = cusp_base.strands
    short = half_twist_word(HalfTwist(strands, 2 * base.high - 1, 2 * base.high))
    inner_pos = BraidWord(strands, free_reduce(conj.letters + short.letters))
    inner_neg = BraidWord(
        strands, free_reduce(conj.letters + tuple(-l for l in reversed(short.letters)))
    )
    return (
        StructuredFactor(conj, cusp_base, 3),
        StructuredFactor(inner_pos, cusp_base, 3),
        StructuredFactor(inner_neg, cusp_base, 3),
    )


def ref_pass(factor):
    _, conj, base = ref_doubled_input(factor)
    return (StructuredFactor(conj, double_halftwist(base), factor.exponent),)


REFERENCE = {
    Rule.BRANCH: ref_rule_I,
    Rule.NODE: ref_rule_II,
    Rule.TANGENCY: ref_rule_III,
    Rule.PASS: ref_pass,
}


def outcome(fn, factor):
    try:
        return fn(factor)
    except RegenerationError as exc:
        return ("error", str(exc))


def random_factor(rng, m):
    conj = random_word(rng, m, 12)
    if rng.random() < 0.2:
        low = rng.randint(1, m - 1)
        return BlockFactor(conj, low, rng.randint(low + 1, m), rng.choice((1, 2, 4)))
    low = rng.randint(1, m - 1)
    return StructuredFactor(conj, HalfTwist(m, low, rng.randint(low + 1, m)),
                            rng.choice((1, 2, 3, 4, 5)))


class TestRuleTable:
    @pytest.mark.parametrize("m", range(2, 8))
    def test_table_matches_reference_rules(self, rng, m):
        wrappers = {Rule.BRANCH: rule_I_branch, Rule.NODE: rule_II_node,
                    Rule.TANGENCY: rule_III_tangency}
        for _ in range(60):
            factor = random_factor(rng, m)
            for rule, ref in REFERENCE.items():
                want = outcome(ref, factor)
                assert outcome(lambda f: rg._apply(rule, f), factor) == want
                if rule in wrappers:
                    assert outcome(wrappers[rule], factor) == want

    def test_wrong_exponent_reported_before_block(self):
        block = BlockFactor(BraidWord.identity(3), 1, 3, 2)
        with pytest.raises(RegenerationError, match="rule I applies to exponent 1, got 2"):
            rule_I_branch(block)
        with pytest.raises(RegenerationError, match="block factors"):
            rule_II_node(block)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_regenerate_matches_reference(self, rng, m):
        for _ in range(10):
            factors = [random_factor(rng, m) for _ in range(rng.randint(1, 6))]
            factors = [f for f in factors if isinstance(f, StructuredFactor)]
            rules = {i: Rule.PASS for i, f in enumerate(factors) if f.exponent in (3, 5)}
            want = []
            for i, f in enumerate(factors):
                want.extend(REFERENCE[rules.get(i) or rg._RULE_BY_EXPONENT[f.exponent]](f))
            got = regenerate(Factorization(m, tuple(factors)), rules)
            assert got.factors == tuple(want)


class TestStrayRuleIndex:
    def test_api(self):
        F = Factorization(2, (sf(2, 1, 2, 2),))
        with pytest.raises(RegenerationError, match="factor 7"):
            regenerate(F, {7: Rule.NODE})
        with pytest.raises(RegenerationError, match="factor -1"):
            regenerate(F, {-1: Rule.NODE})

    def test_cli(self, tmp_path, capsys):
        fac = tmp_path / "one.fac"
        fac.write_text("strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 2\n")
        rules = tmp_path / "r.rules"
        rules.write_text("7 II\n")
        assert main(["regenerate", str(fac), "--rules", str(rules)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "factor 7" in captured.err

    def test_header_names_the_rows_in_order(self, capsys, tmp_path):
        def end(name, primed):
            return name + ("'" if primed else "")

        _, branch = rg._RULES[Rule.BRANCH]
        _, node = rg._RULES[Rule.NODE]
        rule_I = ",".join(f"({end('i', lo)},{end('j', hi)})" for lo, hi, _, _ in branch)
        rule_II = "".join(f"({end('i', lo)}{end('j', hi)})" for lo, hi, _, _ in node)
        assert f"rule I -> {rule_I}; rule II -> {rule_II}; " in rg.CONVENTION
        path = tmp_path / "one.fac"
        path.write_text("strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 2\n")
        assert main(["regenerate", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "# " + rg.CONVENTION
