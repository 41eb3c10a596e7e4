import random
import re
import time
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
from braidmono import textio
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
from conftest import random_generic_arrangement, reduced_word, standard_b3_factorization


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


# --- the per-text token memo ---------------------------------------------------


def token_by_token(memo, tokens, names, no):
    """The memo's reader as a plain per-token read: the oracle."""
    return textio._letters(tokens, names, no)


def outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


def random_token(rng, names, m):
    """Mostly tokens in range, some spelled with leading zeros, some out of
    range and, rarely, a malformed one."""
    roll = rng.random()
    if roll < 0.04:
        return rng.choice(["q2", names[0], names[1] + "0", names[0] + "1x", "s\u0663",
                           "xs"[names == "xX"] + "1", names[0] + "1" * 5000])
    k = rng.randint(1, m + 1 if roll < 0.1 else max(m - 1, 1))
    token = rng.choice(names) + str(k)
    return token if rng.random() > 0.1 else token[0] + "0" * rng.randint(1, 2) + token[1:]


def random_text(rng, kind):
    """A braid word, factorization or presentation text whose lines repeat
    tokens of earlier lines, with blank and comment lines between."""
    m = rng.randint(2, 6)
    names = "xX" if kind == "presentation" else "sS"
    pool = [random_token(rng, names, m) for _ in range(rng.randint(1, 12))]
    lines = []
    for _ in range(rng.randint(0, 8)):
        tokens = " ".join(rng.choice(pool) for _ in range(rng.randint(0, 9)))
        if kind == "factorization":
            lines.append(f"conj= {tokens} ; base= 1 2 ; exp= {rng.randint(1, 4)}")
        elif tokens or kind == "braid":
            lines.append(tokens)
        if rng.random() < 0.2:
            lines.append(rng.choice(["", "# a comment s1 x1"]))
    header = {"braid": f"strands {m}", "presentation": f"gens {m}",
              "factorization": f"strands {m}\nfactors {sum(l.startswith('conj') for l in lines)}"}
    return "\n".join([header[kind], *lines]) + "\n"


PARSE = {"braid": parse_braid_word, "factorization": parse_factorization,
         "presentation": parse_presentation}


class TestTokenMemo:
    """Each reader and writer maps one text's tokens through a memo of its
    distinct tokens; the per-token reader `_letters` fills it."""

    @pytest.mark.parametrize("kind", sorted(PARSE))
    def test_same_as_token_by_token(self, monkeypatch, kind):
        rng = random.Random(f"memo-{kind}")
        texts = [random_text(rng, kind) for _ in range(500)]
        got = [outcome(PARSE[kind], text) for text in texts]
        monkeypatch.setattr(textio, "_read", token_by_token)
        want = [outcome(PARSE[kind], text) for text in texts]
        assert got == want
        errors = [o for o in want if isinstance(o, tuple)]
        assert sum(line is not None and line > 3 for _, line in errors) >= 10
        assert any("out of range" in msg or "outside generators" in msg for msg, _ in errors)
        assert len(errors) < len(want) - 50

    def test_leading_zeros_and_later_lines(self):
        assert parse_braid_word("strands 9\ns01 S007 s1\nS7 s01\n").letters == (1, -7, 1, -7, 1)
        with pytest.raises(ParseError, match=r"bad generator token 'q2' \(line 4\)"):
            parse_braid_word("strands 3\ns1 S2\ns1 S2\nS2 q2 s1 x1 s s0\n")
        with pytest.raises(ParseError, match=r"letter 3 out of range for 3 strands \(line 3\)"):
            parse_braid_word("strands 3\ns1 s2\ns2 s3\n")
        text = "strands 4\nfactors 2\nconj= s1 S03 ; base= 1 2 ; exp= 1\nconj= S3 s4 ; base= 1 2 ; exp= 1\n"
        with pytest.raises(ParseError, match=r"letter 4 out of range for 4 strands \(line 4\)"):
            parse_factorization(text)

    @pytest.mark.parametrize("kind", ["sweep16.fac", "regen6.fac", "word", "presentation"])
    def test_one_read_per_distinct_token(self, monkeypatch, kind):
        """Work guard: `_letters` reads each distinct token of a text once."""
        if kind == "word":
            spelled = textio._spell(reduced_word(random.Random(6), 6, 400), "sS").split()
            body = "\n".join(" ".join(spelled[i : i + 7]) for i in range(0, 400, 7))
            text, parse = f"strands 6\n{body}\n", parse_braid_word
        elif kind == "presentation":
            fact = parse_factorization((GOLDEN / "sweep5.fac").read_text(encoding="utf-8"))
            text, parse = format_presentation(presentation(fact)), parse_presentation
        else:
            text, parse = (GOLDEN / kind).read_text(encoding="utf-8"), parse_factorization
        lines = text.splitlines()[1:]
        if kind.endswith(".fac"):
            lines = [line.partition("conj=")[2].partition(";")[0] for line in lines]
        tokens = " ".join(lines).split()
        read = []
        letters = textio._letters
        monkeypatch.setattr(textio, "_letters",
                            lambda tokens, *args: letters(read.extend(tokens) or tokens, *args))
        parse(text)
        assert sorted(read) == sorted(set(tokens))
        assert len(tokens) > 4 * len(read)

    @pytest.mark.parametrize("text, parse, fmt", [
        ("strands 999999999\nfactors 1\nconj= s999999998 S1 ; base= 1 999999999 ; exp= 2\n",
         parse_factorization, format_factorization),
        ("strands 999999999\ns999999998 S1 s999999998\n", parse_braid_word, format_braid_word),
        ("gens 999999999\nx999999999 X1\n", parse_presentation, format_presentation),
    ])
    def test_memo_bounded_by_the_input(self, text, parse, fmt):
        """A huge strand or generator count builds nothing of its size."""
        start = time.process_time()
        assert fmt(parse(text)) == text
        assert time.process_time() - start < 0.5

    def test_writers_spell_as_f_strings(self):
        rng = random.Random("spell")
        for names in ("sS", "xX"):
            for _ in range(50):
                letters = tuple(rng.choice((1, -1)) * rng.choice((1, 2, 9, 10, 99, 123456))
                                for _ in range(rng.randint(0, 30)))
                want = " ".join(f"{names[0]}{l}" if l > 0 else f"{names[1]}{-l}" for l in letters)
                assert textio._spell(letters, names) == want
        letters = (1, -123456, 123455, -1, 1)
        assert format_braid_word(BraidWord(123457, letters)) == (
            "strands 123457\ns1 S123456 s123455 S1 s1\n")
        pres = Presentation(123456, (FreeWord((123456, -2)), FreeWord((-123456, 2, 3))))
        assert format_presentation(pres) == "gens 123456\nx123456 X2\nX123456 x2 x3\n"
        fact = Factorization(123457, (
            StructuredFactor(BraidWord(123457, (123456, -1)), HalfTwist(123457, 1, 2), 2),
            StructuredFactor(BraidWord(123457, (-1, 123456)), HalfTwist(123457, 1, 2), 1)))
        assert format_factorization(fact).splitlines()[2:] == [
            "conj= s123456 S1 ; base= 1 2 ; exp= 2", "conj= S1 s123456 ; base= 1 2 ; exp= 1"]
