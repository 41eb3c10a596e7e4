"""
Regeneration of a line-arrangement factorization into branch-curve factors.

A curve that degenerates to n lines has a branch curve of twice the degree:
each fiber point j of the degenerate picture splits into the pair
(2j-1, 2j) of fiber points upstairs.  Factors of the degenerate
factorization in B_n are rewritten into factors in B_{2n} by three local
rules keyed on the singularity class (= factor exponent):

* Rule I   (branch point, exponent 1): one branch point becomes two;
  degree 1 -> 2.
* Rule II  (node, exponent 2): one node becomes four nodes, one for each
  choice of doubled endpoints; degree 2 -> 8.
* Rule III (tangency, exponent 4): one tangency becomes three cusps, a
  single cusp factor together with its two conjugates by the short twist
  joining the doubled pair; degree 4 -> 9.

Which of the doubled endpoints (j versus j') each output uses is a
convention; the counts and degrees above are forced, but the product is
not: two conventions can give different products, and Hurwitz moves keep
the product, so their outputs need not be Hurwitz-equivalent.
Conjugators are transported by the 2-cabling homomorphism that sends
sigma_k to the positive crossing of the pairs (2k-1, 2k) and (2k+1, 2k+2).

The rewritten factorization is generally not yet a full-twist
factorization: branch points that regenerate near infinity are invisible
to the local rules.  `degree_audit` reports the exact deficit against
deg Delta^2 = 2n(2n-1), and `complete_deficit` optionally searches (within
an explicit budget) for unconjugated half-twist factors that close the
product back to Delta^2.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Mapping, Sequence

from .braid import BraidWord, HalfTwist, free_reduce
from .factorization import (
    BlockFactor,
    Factor,
    Factorization,
    StructuredFactor,
    _FULL_TWIST_RAW,
    _product_raw,
    is_delta2_factorization,
)
from .garside import RAW_IDENTITY, raw_inverse, raw_multiply, raw_of_word, raw_permutation


class RegenerationError(ValueError):
    """Factor cannot be regenerated as requested."""


class Rule(enum.Enum):
    BRANCH = "I"
    NODE = "II"
    TANGENCY = "III"
    PASS = "pass"


_RULE_BY_EXPONENT = {1: Rule.BRANCH, 2: Rule.NODE, 4: Rule.TANGENCY}


@dataclasses.dataclass(frozen=True)
class IndexDoubling:
    """Strand doubling j -> (2j-1, 2j) from B_n into B_{2n}."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 2:
            raise RegenerationError("doubling needs at least 2 strands")

    @property
    def strands(self) -> int:
        return 2 * self.n

    def pair(self, j: int) -> tuple[int, int]:
        if not (1 <= j <= self.n):
            raise RegenerationError(f"strand {j} out of range 1..{self.n}")
        return (2 * j - 1, 2 * j)

    def word(self, w: BraidWord) -> BraidWord:
        """2-cabling: sigma_k maps to the positive pair crossing
        sigma_{2k} sigma_{2k+1} sigma_{2k-1} sigma_{2k}."""
        if w.strands != self.n:
            raise RegenerationError(
                f"word lives in B_{w.strands}, doubling expects B_{self.n}"
            )
        letters: list[int] = []
        for letter in w.letters:
            k = abs(letter)
            image = (2 * k, 2 * k + 1, 2 * k - 1, 2 * k)
            if letter > 0:
                letters.extend(image)
            else:
                letters.extend(-i for i in reversed(image))
        return BraidWord(self.strands, free_reduce(letters))


def double_halftwist(
    h: HalfTwist, low_prime: bool = False, high_prime: bool = False
) -> HalfTwist:
    """A half-twist between chosen doubled endpoints: (i, j) maps to one of
    Z_{ij}, Z_{i'j}, Z_{ij'}, Z_{i'j'} where i' = 2i and i = 2i-1."""
    doubling = IndexDoubling(h.strands)
    lo = 2 * h.low if low_prime else 2 * h.low - 1
    hi = 2 * h.high if high_prime else 2 * h.high - 1
    return HalfTwist(doubling.strands, lo, hi)


def _doubled_input(factor: Factor) -> tuple[IndexDoubling, BraidWord, HalfTwist]:
    if isinstance(factor, BlockFactor):
        raise RegenerationError(
            "block factors must be expanded into node factors before "
            "regeneration (expand_blocks)"
        )
    doubling = IndexDoubling(factor.strands)
    return doubling, doubling.word(factor.conjugator), factor.base


def rule_I_branch(factor: StructuredFactor) -> tuple[StructuredFactor, StructuredFactor]:
    """One branch point becomes two: [Z_{ij'}, Z_{i'j}]; degree 1 -> 2."""
    if factor.exponent != 1:
        raise RegenerationError(
            f"rule I applies to exponent 1, got {factor.exponent}"
        )
    _, conj, base = _doubled_input(factor)
    return (
        StructuredFactor(conj, double_halftwist(base, high_prime=True), 1),
        StructuredFactor(conj, double_halftwist(base, low_prime=True), 1),
    )


def rule_II_node(
    factor: StructuredFactor, one_sided: bool = False
) -> tuple[StructuredFactor, ...]:
    """One node becomes four: [Z^2_{i'j'}, Z^2_{ij'}, Z^2_{i'j}, Z^2_{ij}];
    degree 2 -> 8.  `one_sided` keeps only the unprimed-j pair (a variant
    appearing in the literature), degree 2 -> 4."""
    if factor.exponent != 2:
        raise RegenerationError(
            f"rule II applies to exponent 2, got {factor.exponent}"
        )
    _, conj, base = _doubled_input(factor)
    variants = [(True, True), (False, True), (True, False), (False, False)]
    if one_sided:
        variants = [(True, False), (False, False)]
    return tuple(
        StructuredFactor(conj, double_halftwist(base, lp, hp), 2)
        for lp, hp in variants
    )


def rule_III_tangency(factor: StructuredFactor) -> tuple[StructuredFactor, ...]:
    """One tangency becomes three cusps: Z^3_{ij'} and its conjugates by
    Z_{jj'}^{+1} and Z_{jj'}^{-1}; degree 4 -> 9."""
    if factor.exponent != 4:
        raise RegenerationError(
            f"rule III applies to exponent 4, got {factor.exponent}"
        )
    _, conj, base = _doubled_input(factor)
    cusp_base = double_halftwist(base, high_prime=True)
    strands = cusp_base.strands
    short = HalfTwist(strands, 2 * base.high - 1, 2 * base.high).word()
    inner_pos = BraidWord(strands, free_reduce(conj.letters + short.letters))
    inner_neg = BraidWord(
        strands, free_reduce(conj.letters + tuple(-l for l in reversed(short.letters)))
    )
    return (
        StructuredFactor(conj, cusp_base, 3),
        StructuredFactor(inner_pos, cusp_base, 3),
        StructuredFactor(inner_neg, cusp_base, 3),
    )


def _pass_through(factor: StructuredFactor) -> StructuredFactor:
    _, conj, base = _doubled_input(factor)
    return StructuredFactor(conj, double_halftwist(base), factor.exponent)


def regenerate(
    fact: Factorization,
    rules: Mapping[int, Rule] | Sequence[Rule] | None = None,
    one_sided_nodes: bool = False,
) -> Factorization:
    """Apply a regeneration rule to every factor, in order.

    `rules` assigns a rule per factor index (0-based); by default each
    factor gets the rule matching its exponent (1 -> I, 2 -> II, 4 -> III).
    A factor whose exponent has no rule must be assigned Rule.PASS
    explicitly, otherwise the input is rejected.
    """
    n = fact.strands
    if n < 2:
        raise RegenerationError("regeneration needs at least 2 strands")
    assignment: list[Rule] = []
    for idx, factor in enumerate(fact.factors):
        if isinstance(rules, Mapping):
            rule = rules.get(idx)
        elif rules is not None:
            rule = rules[idx] if idx < len(rules) else None
        else:
            rule = None
        if rule is None:
            exp = getattr(factor, "exponent", None)
            if isinstance(factor, StructuredFactor) and exp in _RULE_BY_EXPONENT:
                rule = _RULE_BY_EXPONENT[exp]
            else:
                raise RegenerationError(
                    f"factor {idx} has no applicable rule (exponent {exp}); "
                    "assign Rule.PASS explicitly or expand blocks"
                )
        assignment.append(rule)

    out: list[Factor] = []
    for factor, rule in zip(fact.factors, assignment):
        if rule is Rule.PASS:
            out.append(_pass_through(factor))
        elif rule is Rule.BRANCH:
            out.extend(rule_I_branch(factor))
        elif rule is Rule.NODE:
            out.extend(rule_II_node(factor, one_sided=one_sided_nodes))
        else:
            out.extend(rule_III_tangency(factor))
    return Factorization(2 * n, tuple(out))


@dataclasses.dataclass(frozen=True)
class AuditReport:
    """Degree bookkeeping for a regenerated factorization in B_{2n}."""

    achieved_degree: int
    target_degree: int
    deficit: int


def degree_audit(fact: Factorization) -> AuditReport:
    """Compare the factorization degree with deg Delta^2 = m(m-1); the
    deficit counts the exponent-1 branch factors still missing (they live
    near infinity, outside the local rules' reach)."""
    achieved = fact.degree()
    target = fact.strands * (fact.strands - 1)
    if achieved > target:
        raise RegenerationError(
            f"degree {achieved} exceeds the full-twist degree {target}"
        )
    return AuditReport(achieved, target, target - achieved)


@dataclasses.dataclass(frozen=True)
class CompletionResult:
    completed: Factorization | None
    tried: int
    exhausted: bool
    # True when the defect's infimum rules every completion out unsearched
    ruled_out: bool = False


def complete_deficit(fact: Factorization, budget: int = 10_000) -> CompletionResult:
    """Search for missing branch-point factors closing the product to Delta^2.

    Appends deficit-many exponent-1 unconjugated half-twist factors at the
    end and tries every base assignment, pruned by the necessary condition
    that the remaining slots can still fix the product's permutation
    (enough transpositions, matching parity).  `budget` caps the number of
    complete placements tested; the search is deliberately not a
    completeness claim, conjugated candidates are out of its range.

    Each candidate is a positive word times an inverted simple element, so
    its Garside infimum is at least -1, and a product of deficit-many
    candidates has infimum at least -deficit.  A defect below that bound
    cannot be filled: the result is then `ruled_out`, with no search.
    """
    report = degree_audit(fact)
    m = fact.strands
    if report.deficit == 0:
        done = is_delta2_factorization(fact)
        return CompletionResult(fact if done else None, 0, True)

    # The appended factors must multiply to defect = product^-1 Delta^2.
    defect = raw_multiply(m, raw_inverse(m, _product_raw(fact)), _FULL_TWIST_RAW)
    if defect[0] < -report.deficit:
        return CompletionResult(None, 0, True, ruled_out=True)

    candidates = [
        HalfTwist(m, a, b) for a in range(1, m) for b in range(a + 1, m + 1)
    ]
    cand_inv = {
        h: raw_inverse(m, raw_of_word(m, h.word().letters)) for h in candidates
    }

    def transpositions_needed(raw) -> int:
        return m - len(raw_permutation(m, raw).cycle_type())

    tried = 0
    exhausted = True
    chosen: list[HalfTwist] = []

    def search(remaining, slots: int) -> bool:
        nonlocal tried, exhausted
        if slots == 0:
            tried += 1
            return remaining == RAW_IDENTITY
        need = transpositions_needed(remaining)
        if need > slots or (slots - need) % 2 != 0:
            return False
        for h in candidates:
            if tried >= budget:
                exhausted = False
                return False
            chosen.append(h)
            if search(raw_multiply(m, cand_inv[h], remaining), slots - 1):
                return True
            chosen.pop()
        return False

    found = search(defect, report.deficit)
    if found:
        extra = tuple(
            StructuredFactor(BraidWord.identity(m), h, 1) for h in chosen
        )
        return CompletionResult(
            Factorization(m, fact.factors + extra), tried, exhausted
        )
    return CompletionResult(None, tried, exhausted)
