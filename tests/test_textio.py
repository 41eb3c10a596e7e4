import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from braidmono import (
    BlockFactor,
    BraidWord,
    Factorization,
    HalfTwist,
    LineArrangement,
    Rule,
    StructuredFactor,
    braid_monodromy,
    canonical_key,
)
from braidmono.cli import main
from braidmono.textio import (
    ParseError,
    format_arrangement,
    format_braid_word,
    format_factorization,
    format_presentation,
    format_rules,
    parse_arrangement,
    parse_braid_word,
    parse_factorization,
    parse_presentation,
    parse_rules,
)
from braidmono.vankampen import FreeWord, Presentation, presentation
from conftest import random_generic_arrangement, standard_b3_factorization


class TestBraidWordFormat:
    def test_roundtrip(self):
        w = BraidWord(3, (1, -2, 1, 1))
        assert parse_braid_word(format_braid_word(w)) == w

    def test_empty_word(self):
        w = BraidWord(4)
        assert parse_braid_word(format_braid_word(w)) == w

    def test_example(self):
        w = parse_braid_word("strands 3\ns1 s2 S1\n")
        assert w == BraidWord(3, (1, 2, -1))

    def test_multiline_tokens(self):
        w = parse_braid_word("strands 3\ns1 s2\nS1\n")
        assert w.letters == (1, 2, -1)

    def test_comments_ignored(self):
        w = parse_braid_word("# a braid\nstrands 2\n# body\ns1\n")
        assert w.letters == (1,)

    def test_missing_header(self):
        with pytest.raises(ParseError):
            parse_braid_word("s1 s2\n")

    def test_bad_token_reports_error(self):
        with pytest.raises(ParseError):
            parse_braid_word("strands 3\nz9\n")

    def test_letter_out_of_range(self):
        with pytest.raises(ParseError):
            parse_braid_word("strands 2\ns5\n")

    @pytest.mark.parametrize("text, line", [
        ("strands 2\ns1\n# next\ns1 s5\n", 4),
        ("strands 2\ns1\nS2\n", 3),
        ("# a word\nstrands 0\ns1\n", 2),
    ])
    def test_errors_name_their_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_braid_word(text)
        assert exc.value.line == line


class TestFactorizationFormat:
    def test_roundtrip_structured(self):
        F = standard_b3_factorization()
        text = format_factorization(F)
        assert parse_factorization(text) == F
        assert format_factorization(parse_factorization(text)) == text

    def test_roundtrip_blocks(self):
        F = Factorization(
            4,
            (
                BlockFactor(BraidWord(4, (3,)), 1, 3, 2),
                StructuredFactor(BraidWord(4, ()), HalfTwist(4, 2, 4), 1),
            ),
        )
        assert parse_factorization(format_factorization(F)) == F

    def test_monodromy_output_roundtrip(self, rng):
        for _ in range(5):
            F = braid_monodromy(random_generic_arrangement(rng, 4))
            G = parse_factorization(format_factorization(F))
            assert canonical_key(G) == canonical_key(F)

    def test_header_comments_ignored(self):
        F = standard_b3_factorization()
        text = format_factorization(F, ["produced by a test", "second line"])
        assert parse_factorization(text) == F

    def test_empty_conjugator_field(self):
        text = "strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 2\n"
        F = parse_factorization(text)
        assert F.factors[0].conjugator.letters == ()

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_factorization("strands 2\nfactors 2\nconj= ; base= 1 2 ; exp= 1\n")

    @pytest.mark.parametrize("m", [0, -1])
    def test_strand_count_below_one(self, m):
        with pytest.raises(ParseError, match=f"strand count must be positive, got {m}"):
            parse_factorization(f"strands {m}\nfactors 0\n")

    @pytest.mark.parametrize("text", [
        "strands 0\nfactors 1\nconj= ; base= 1 2 ; exp= 1\n",
        "strands -2\nfactors 0\n",
    ])
    def test_strand_count_blames_the_header(self, text):
        with pytest.raises(ParseError, match=r"strand count must be positive, got -?\d+ \(line 1\)"):
            parse_factorization(text)

    def test_base_and_block_conflict(self):
        with pytest.raises(ParseError):
            parse_factorization(
                "strands 3\nfactors 1\nconj= ; base= 1 2 ; block= 1 3 ; exp= 1\n"
            )

    def test_unknown_field(self):
        with pytest.raises(ParseError) as exc:
            parse_factorization("strands 2\nfactors 1\nconj= ; spin= 1 ; exp= 1\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "line",
        [
            "conj= ; base= x 2 ; exp= 2",
            "conj= ; block= 1 y ; exp= 2",
            "conj= ; base= 1 2 ; exp= two",
            "conj= ; base= 1 2 ; exp=",
            "conj= s1 ; conj= s2 ; base= 1 2 ; exp= 2",
            "conj= ; base= 1 2 ; exp= 2 ; exp= 2",
        ],
    )
    def test_bad_factor_fields(self, line):
        with pytest.raises(ParseError) as exc:
            parse_factorization(f"strands 3\nfactors 1\n{line}\n")
        assert exc.value.line == 3

    def test_non_ascii_digit_counts(self):
        with pytest.raises(ParseError) as exc:
            parse_factorization("strands 3\nfactors \u00b2\n")
        assert exc.value.line == 2
        with pytest.raises(ParseError):
            parse_braid_word("strands \u00b2\n")


class TestArrangementFormat:
    def test_roundtrip(self):
        arr = LineArrangement.from_pairs([("1/2", "-3/4"), (0, 1), (-2, "5/3")])
        assert parse_arrangement(format_arrangement(arr)) == arr

    def test_integers_without_denominator(self):
        arr = parse_arrangement("arrangement 2\nline 1 0\nline -1 0\n")
        assert arr.lines[0] == (1, 0)

    def test_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_arrangement("arrangement 3\nline 1 0\nline 2 0\n")

    def test_bad_rational(self):
        with pytest.raises(ParseError) as exc:
            parse_arrangement("arrangement 1\nline 1/0 2\n")
        assert exc.value.line == 2

    def test_duplicate_lines(self):
        with pytest.raises(ParseError):
            parse_arrangement("arrangement 2\nline 1 0\nline 1 0\n")

    @pytest.mark.parametrize("token", [
        "0.5", "1e99999999", "1E3", "1_000", "+2", "\u0663", "1/2/3", "1/", "/2",
        "1/-2", "-", "1/0", "3/00", "inf", "nan",
    ])
    def test_only_integers_and_fractions(self, token):
        with pytest.raises(ParseError, match=re.escape(repr(token))) as exc:
            parse_arrangement(f"arrangement 2\nline 0 1\nline {token} 0\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize("token, value", [
        ("-7", -7), ("007", 7), ("-0", 0), ("6/4", Fraction(3, 2)), ("-1/03", Fraction(-1, 3)),
    ])
    def test_integer_and_fraction_tokens(self, token, value):
        arr = parse_arrangement(f"arrangement 2\nline 0 1\nline {token} 0\n")
        assert (value, 0) in arr.lines


class TestPresentationFormat:
    def test_roundtrip(self):
        pres = Presentation(3, (FreeWord((1, 2, -1, -2)), FreeWord((3,))))
        assert parse_presentation(format_presentation(pres)) == pres

    def test_tokens(self):
        pres = parse_presentation("gens 2\nx1 x2 X1 X2\n")
        assert pres.relators[0].letters == (1, 2, -1, -2)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_presentation("gens 2\ny1\n")

    def test_generator_out_of_range(self):
        with pytest.raises(ParseError, match="relator letter 3 outside generators 1..2"):
            parse_presentation("gens 2\nx3\n")

    @pytest.mark.parametrize("text, line", [
        ("gens 2\nx1\nx3\n", 3),
        ("gens 2\nx1 X2\n# next\n\nx2 x3 X1\n", 5),
        ("# gens\ngens -1\n", 2),
    ])
    def test_errors_name_their_line(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse_presentation(text)
        assert exc.value.line == line

    def test_negative_generator_count(self):
        with pytest.raises(ParseError, match="generator count must not be negative"):
            parse_presentation("gens -1\n")

    def test_non_ascii_digit_token(self):
        with pytest.raises(ParseError) as exc:
            parse_presentation("gens 2\nx1 x\u00b2\n")
        assert exc.value.line == 2


class TestRulesFormat:
    def test_roundtrip(self):
        rules = {0: Rule.NODE, 2: Rule.BRANCH, 3: Rule.PASS, 5: Rule.TANGENCY}
        assert parse_rules(format_rules(rules)) == rules

    def test_parse(self):
        rules = parse_rules("0 II\n1 pass\n2 III\n3 I\n")
        assert rules == {0: Rule.NODE, 1: Rule.PASS, 2: Rule.TANGENCY, 3: Rule.BRANCH}

    def test_unknown_rule(self):
        with pytest.raises(ParseError):
            parse_rules("0 IV\n")

    def test_bad_index(self):
        with pytest.raises(ParseError):
            parse_rules("x II\n")

    def test_non_ascii_digit_index(self):
        with pytest.raises(ParseError) as exc:
            parse_rules("0 II\n\u00b2 I\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize("token", ["1_000", "+1", "\u0663"])
    def test_only_ascii_integers(self, token):
        """`int` takes each of these; the grammar is ASCII `-?[0-9]+`."""
        for text in (f"strands {token}\n", f"strands 3\nfactors {token}\n",
                     f"strands 3\nfactors 1\nconj= ; base= 1 2 ; exp= {token}\n"):
            with pytest.raises(ParseError):
                parse_factorization(text)
        with pytest.raises(ParseError):
            parse_braid_word(f"strands {token}\n")
        with pytest.raises(ParseError):
            parse_presentation(f"gens {token}\n")
        with pytest.raises(ParseError):
            parse_rules(f"{token} II\n")

    @pytest.mark.parametrize("text", ["0 II\n0 pass\n", "0 II\n# note\n1 I\n00 II\n"])
    def test_repeated_index(self, text):
        """A second line for one factor is an error naming that line, not a
        silent override."""
        with pytest.raises(ParseError, match="repeated rule for factor 0") as exc:
            parse_rules(text)
        assert exc.value.line == len(text.splitlines())


# --- one grammar at every position that takes a token -----------------------

GOLDEN = Path(__file__).parent / "golden"
LONG = "1" * 5000  # past the digits that `int` converts
BAD_NUMBERS = ["+2", "1_000", "٣", "²", LONG]
BAD_LETTERS = ["s0", "x0", "s-1"]

# (position, file suffix, text with the token at `{}`, the token's line);
# `{}` on a letter position takes the whole generator token
INTEGER_POSITIONS = [
    ("strands header of a word", ".word", "strands {}\ns1\n", 1),
    ("strands header of a factorization", ".fac", "strands {}\nfactors 0\n", 1),
    ("gens header", ".pres", "gens {}\nx1\n", 1),
    ("factors header", ".fac", "strands 3\nfactors {}\n", 2),
    ("arrangement header", ".arr", "# lines\narrangement {}\nline 0 1\n", 2),
    ("exp=", ".fac", "strands 3\nfactors 1\nconj= ; base= 1 2 ; exp= {}\n", 3),
    ("base=", ".fac", "strands 3\nfactors 1\nconj= ; base= 1 {} ; exp= 1\n", 3),
    ("block=", ".fac", "strands 3\nfactors 1\nconj= ; block= {} 3 ; exp= 2\n", 3),
    ("rule index", ".rules", "0 II\n# next\n{} I\n", 3),
    ("slope", ".arr", "arrangement 2\nline 0 1\nline {} 0\n", 3),
    ("intercept", ".arr", "arrangement 2\nline 0 1\nline 1 {}\n", 3),
]
LETTER_POSITIONS = [
    ("s", "word body", ".word", "strands 3\ns1\nS2 {}\n", 3),
    ("s", "conj=", ".fac", "strands 3\nfactors 1\nconj= s1 {} ; base= 1 2 ; exp= 1\n", 3),
    ("x", "relator", ".pres", "gens 2\nx1\nX2 {}\n", 3),
]
# counts take no sign
COUNT_POSITIONS = {"factors header", "rule index"}

PARSERS = {".word": parse_braid_word, ".fac": parse_factorization, ".arr": parse_arrangement,
           ".pres": parse_presentation, ".rules": parse_rules}
# the command that reads each file; no command reads a presentation
COMMANDS = {".word": ["normal-form"], ".fac": ["check-delta2"], ".arr": ["monodromy"],
            ".rules": ["regenerate", str(GOLDEN / "b3.fac"), "--rules"]}

CASES = [
    (where, suffix, template.format(token), line, token)
    for where, suffix, template, line in INTEGER_POSITIONS
    for token in BAD_NUMBERS + BAD_LETTERS + (["-1"] if where in COUNT_POSITIONS else [])
] + [
    (where, suffix, template.format(token), line, token)
    for letter, where, suffix, template, line in LETTER_POSITIONS
    for token in [letter + t for t in BAD_NUMBERS] + BAD_LETTERS
]


class TestGrammar:
    @pytest.mark.parametrize("where, suffix, text, line, token", CASES,
                             ids=[f"{c[0]}-{c[4][:8]}" for c in CASES])
    def test_rejected_with_token_and_line(self, tmp_path, capsys, where, suffix, text, line,
                                          token):
        with pytest.raises(ParseError, match=re.escape(repr(token))) as exc:
            PARSERS[suffix](text)
        assert exc.value.line == line
        if suffix in COMMANDS:
            path = tmp_path / f"bad{suffix}"
            path.write_text(text)
            assert main([*COMMANDS[suffix], str(path)]) == 3
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("error: ")
            assert f"(line {line})" in captured.err

    @pytest.mark.parametrize("token", BAD_NUMBERS + BAD_LETTERS)
    def test_budget(self, capsys, token):
        assert main(["orbit", str(GOLDEN / "b3.fac"), "--budget", token]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and repr(token) in captured.err


# --- mutation fuzz of the parsers --------------------------------------------

PIECES = ["-1", "0", "999999999999", LONG, "٣", "+2", "1_0", "1/0", ";", "=", "conj=",
          "strands", "II"]
FUZZ_INPUTS = sorted(p for p in GOLDEN.iterdir()
                     if p.suffix in (".fac", ".arr", ".word", ".rules"))


def mutants(text: str, seed: str, count: int):
    """`count` copies of `text`, each with one space-separated token
    dropped, duplicated, replaced or preceded by a piece, or cut short."""
    rng = random.Random(seed)
    for _ in range(count):
        tokens = text.split(" ")
        k = rng.randrange(len(tokens))
        op = rng.randrange(5)
        if op == 0:
            del tokens[k]
        elif op == 1:
            tokens.insert(k, tokens[k])
        elif op == 2:
            tokens[k] = rng.choice(PIECES)
        elif op == 3:
            tokens.insert(k, rng.choice(PIECES))
        else:
            yield text[: rng.randrange(len(text) + 1)]
            continue
        yield " ".join(tokens)


def parse_or_parse_error(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


class TestMutationFuzz:
    """Each parser returns a value or raises ParseError, on any text."""

    @pytest.mark.parametrize("path", FUZZ_INPUTS, ids=lambda p: p.name)
    def test_golden_inputs(self, path):
        text = path.read_text(encoding="utf-8")
        for mutant in mutants(text, path.name, 12):
            parse_or_parse_error(PARSERS[path.suffix], mutant)

    def test_presentation(self):
        fact = parse_factorization((GOLDEN / "b3.fac").read_text(encoding="utf-8"))
        text = format_presentation(presentation(fact))
        for mutant in mutants(text, "b3.pres", 120):
            parse_or_parse_error(parse_presentation, mutant)
