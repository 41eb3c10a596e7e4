"""
Text formats for braid words, factorizations, arrangements, presentations
and rule assignments: the one module that reads or writes a token.

All formats are line based; blank lines and lines starting with `#` are
ignored.  Every emitter round-trips bit-exactly through its parser.

braid word          strands 3
                    s1 s2 S1
factorization       strands 3
                    factors 2
                    conj= s2 ; base= 1 2 ; exp= 2
                    conj= ; block= 1 3 ; exp= 2
arrangement         arrangement 3
                    line 1/2 -3/4
                    line 0 1
                    line -2 5/3
presentation        gens 2
                    x1 x2 X1 X2
rule assignment     0 II
                    1 pass

The grammar, for every format.  Tokens are separated by white space.
An integer is ASCII `-?[0-9]+`; a count (the `factors` line and a rule
index) is `[0-9]+`; a rational is an integer or `-?[0-9]+/[0-9]+` with a
nonzero denominator.  A generator token is a letter and an ASCII index
k >= 1: `s<k>` / `S<k>` are sigma_k and its inverse, `x<k>` / `X<k>` the
free generator x_k and its inverse.  A malformed token is reported with
its line.

The cost of the generator tokens: each reader and writer keeps a memo
of one text's distinct tokens and their letters, and maps every token or
letter through it at C speed.  The per-token reader `_letters` runs once
per distinct token of a text, in order of first use, so an error names
the same token and line as a token-by-token read; a writer spells each
distinct letter once.  The memo is bounded by the input's distinct
tokens, never sized by a strand or generator count, and lives for one
call.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import filterfalse
from typing import Iterable, Sequence

from .braid import BraidWord, HalfTwist
from .factorization import BlockFactor, Factor, Factorization, StructuredFactor
from .arrangements import LineArrangement
from .regeneration import Rule
from .vankampen import FreeWord, Presentation


class ParseError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


def _int(token: str, no: int | None, what: str, sign: str = "-") -> int:
    """An ASCII integer `-?[0-9]+`, or a count `[0-9]+` when `sign` is empty:
    `str.isdigit` and `int` also take non-ASCII digits, and `int` takes `+2`
    and `1_000`."""
    digits = token.removeprefix(sign)
    try:
        if digits.isascii() and digits.isdigit():
            return int(token)
    except ValueError:  # more digits than int converts
        pass
    kind = "integer" if sign else "count"
    raise ParseError(f"bad {kind} {token!r} in {what}", no)


def _letters(tokens: Iterable[str], names: str, no: int | None) -> tuple[int, ...]:
    """Generator tokens `<name><k>` as signed letters: the letter pair
    `names` ("sS" or "xX") gives k and -k."""
    letters = []
    for tok in tokens:
        index = tok[1:]
        # isascii: str.isdigit and int also take non-ASCII digits
        if tok[:1] not in names or not (index.isascii() and index.isdigit()):
            raise ParseError(f"bad generator token {tok!r}", no)
        try:
            k = int(index)
        except ValueError:  # more digits than int converts
            k = 0
        if k < 1:
            raise ParseError(f"bad generator index in token {tok!r}", no)
        letters.append(k if tok[0] == names[0] else -k)
    return tuple(letters)


def _read(memo: dict[str, int], tokens: list[str], names: str, no: int | None) -> tuple[int, ...]:
    """`_letters(tokens, names, no)` through `memo`, one text's tokens and
    their letters: only tokens new to it are read, in order of first use,
    so an error is the one a token-by-token read raises."""
    try:
        return tuple(map(memo.__getitem__, tokens))
    except KeyError:  # a token new to the text
        pass
    new = list(filterfalse(memo.__contains__, dict.fromkeys(tokens)))
    memo.update(zip(new, _letters(new, names, no)))
    return tuple(map(memo.__getitem__, tokens))


def _spell(letters: Sequence[int], names: str, memo: dict[int, str] | None = None) -> str:
    """The tokens of `letters`; `memo` keeps one text's spelled letters."""
    memo = {} if memo is None else memo
    try:
        return " ".join(map(memo.__getitem__, letters))
    except KeyError:  # a letter new to the text
        pass
    for l in set(letters).difference(memo):
        memo[l] = f"{names[0]}{l}" if l > 0 else f"{names[1]}{-l}"
    return " ".join(map(memo.__getitem__, letters))


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append((no, line))
    return out


def _on_line(no: int | None, build, *args):
    """`build(*args)`, with a `ValueError` it raises reported on line `no`."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ParseError(str(exc), no) from exc


def _header(lines: list[tuple[int, str]], at: int, keyword: str, sign: str = "-") -> int:
    """The number on the `<keyword> <n>` line at position `at` of `lines`."""
    if len(lines) <= at:
        raise ParseError(f"expected `{keyword} <n>`, got {'end of' if lines else 'empty'} input")
    no, line = lines[at]
    parts = line.split()
    if len(parts) != 2 or parts[0] != keyword:
        raise ParseError(f"expected `{keyword} <n>`, got {line!r}", no)
    return _int(parts[1], no, f"`{keyword}` line", sign)


# --- braid words -----------------------------------------------------------


def parse_braid_word(text: str) -> BraidWord:
    lines = _content_lines(text)
    m = _header(lines, 0, "strands")
    _on_line(lines[0][0], BraidWord, m)  # the strand count, on the header line
    letters, memo = [], {}
    for no, line in lines[1:]:  # a letter out of range, on its line
        letters += _on_line(no, BraidWord, m, _read(memo, line.split(), "sS", no)).letters
    return BraidWord(m, tuple(letters))


def format_braid_word(w: BraidWord) -> str:
    body = _spell(w.letters, "sS")
    return f"strands {w.strands}\n{body}\n" if body else f"strands {w.strands}\n"


# --- factorizations --------------------------------------------------------


def _parse_factor(m: int, no: int, line: str, memo: dict[str, int]) -> Factor:
    fields = [f.strip() for f in line.split(";")]
    conj_tokens: list[str] | None = None
    base: tuple[int, int] | None = None
    block: tuple[int, int] | None = None
    exp: int | None = None
    seen: set[str] = set()
    for field in fields:
        if not field:
            continue
        name, eq, value = field.partition("=")
        if not eq or name not in ("conj", "base", "block", "exp"):
            raise ParseError(f"unknown factor field {field!r}", no)
        if name in seen:
            raise ParseError(f"repeated field {name}=", no)
        seen.add(name)
        parts = value.split()
        if name == "conj":
            conj_tokens = parts
        elif name == "exp":
            if len(parts) != 1:
                raise ParseError("exp= needs one integer", no)
            exp = _int(parts[0], no, "exp=")
        else:
            if len(parts) != 2:
                raise ParseError(f"{name}= needs two strand indices", no)
            pair = (_int(parts[0], no, f"{name}="), _int(parts[1], no, f"{name}="))
            if name == "base":
                base = pair
            else:
                block = pair
    if conj_tokens is None or exp is None or (base is None) == (block is None):
        raise ParseError(
            "factor needs conj=, exp= and exactly one of base=/block=", no
        )
    conj = _on_line(no, BraidWord, m, _read(memo, conj_tokens, "sS", no))
    if base is not None:
        return _on_line(no, StructuredFactor, conj, _on_line(no, HalfTwist, m, *base), exp)
    return _on_line(no, BlockFactor, conj, *block, exp)


def parse_factorization(text: str) -> Factorization:
    lines = _content_lines(text)
    m = _header(lines, 0, "strands")
    _on_line(lines[0][0], BraidWord, m)  # the strand count, on the header line
    n = _header(lines, 1, "factors", sign="")
    body = lines[2:]
    if len(body) != n:
        raise ParseError(
            f"declared {n} factors but found {len(body)} factor lines"
        )
    # every factor was built on m >= 1 strands, so the factorization is valid
    memo: dict[str, int] = {}
    return Factorization(m, tuple(_parse_factor(m, no, line, memo) for no, line in body))


def format_factorization(fact: Factorization, header_comments: Iterable[str] = ()) -> str:
    out = [f"# {line}" for line in header_comments]
    out.append(f"strands {fact.strands}")
    out.append(f"factors {len(fact.factors)}")
    memo: dict[int, str] = {}
    for f in fact.factors:
        conj = _spell(f.conjugator.letters, "sS", memo)
        conj_field = f"conj= {conj}" if conj else "conj="
        if isinstance(f, StructuredFactor):
            out.append(
                f"{conj_field} ; base= {f.base.low} {f.base.high} ; exp= {f.exponent}"
            )
        else:
            out.append(
                f"{conj_field} ; block= {f.low} {f.high} ; exp= {f.exponent}"
            )
    return "\n".join(out) + "\n"


# --- arrangements ----------------------------------------------------------


def _parse_rational(token: str, no: int) -> Fraction:
    """An integer or `p/q` fraction, read by `_int`; `Fraction` alone would
    also take decimals and exponents, and expand `1e99999999`."""
    num, slash, den = token.partition("/")
    try:
        return Fraction(_int(num, no, "rational"),
                        _int(den, no, "rational", sign="") if slash else 1)
    except (ParseError, ZeroDivisionError):
        raise ParseError(f"bad rational {token!r}", no) from None


def parse_arrangement(text: str) -> LineArrangement:
    lines = _content_lines(text)
    m = _header(lines, 0, "arrangement")
    body = lines[1:]
    if len(body) != m:
        raise ParseError(f"declared {m} lines but found {len(body)}")
    pairs = []
    for no, line in body:
        parts = line.split()
        if len(parts) != 3 or parts[0] != "line":
            raise ParseError(f"expected `line <slope> <intercept>`, got {line!r}", no)
        pairs.append((_parse_rational(parts[1], no), _parse_rational(parts[2], no)))
    return _on_line(None, LineArrangement.from_pairs, pairs)


def format_arrangement(arr: LineArrangement) -> str:
    out = [f"arrangement {arr.m}"]
    for a, b in arr.lines:
        out.append(f"line {a} {b}")
    return "\n".join(out) + "\n"


# --- presentations ----------------------------------------------------------


def parse_presentation(text: str) -> Presentation:
    lines = _content_lines(text)
    m = _header(lines, 0, "gens")
    _on_line(lines[0][0], Presentation, m, ())  # the count, on the header line
    relators, memo = [], {}
    for no, line in lines[1:]:  # a letter out of range, on its line
        relator = FreeWord.reduce(_read(memo, line.split(), "xX", no))
        relators += _on_line(no, Presentation, m, (relator,)).relators
    return Presentation(m, tuple(relators))


def format_presentation(pres: Presentation) -> str:
    out, memo = [f"gens {pres.generator_count}"], {}
    out.extend(_spell(rel.letters, "xX", memo) for rel in pres.relators)
    return "\n".join(out) + "\n"


# --- rule assignments --------------------------------------------------------


def parse_rules(text: str) -> dict[int, Rule]:
    out: dict[int, Rule] = {}
    for no, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected `<index> I|II|III|pass`, got {line!r}", no)
        try:
            rule = Rule(parts[1])
        except ValueError as exc:
            raise ParseError(f"unknown rule {parts[1]!r}", no) from exc
        idx = _int(parts[0], no, "rule index", sign="")
        if idx in out:
            raise ParseError(f"repeated rule for factor {idx}", no)
        out[idx] = rule
    return out


def format_rules(rules: dict[int, Rule]) -> str:
    return "\n".join(f"{idx} {rule.value}" for idx, rule in sorted(rules.items())) + "\n"
