"""The three workloads: inputs, timed segments and output checks.

Each workload is a class holding one round's inputs, built in `__init__`
from a `random.Random`.  `segments` lists the timed parts in order, each
with the stage (0, 1 or 2) its time counts towards; round.py times them.
`check` then compares what the program returned with answers known apart
from it (see oracle.py).  Program functions are always looked up through
their module (`bm.arrangements.braid_monodromy`) so that a traced round
sees the wrappers installed by spans.py.

An operation is one call the workload makes and checks: one sweep with
its degree check and Delta^2 test, one word pair, one walk, one orbit,
one certificate search, one CLI command.  Every round attempts the same
operations.  An operation fails when it raises, or when a search or
command ends without an answer (INCONCLUSIVE, exit code 2 or 3); a
completed operation whose answer is wrong makes the round incorrect.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import traceback
from fractions import Fraction

import oracle


class Ops:
    """Operation bookkeeping shared by a round's stages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []  # one per failed operation
        self.wrong: list[str] = []  # answers that disagree with a check

    def fail(self, what: str) -> None:
        self.errors.append(what)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.wrong.append(what)

    @contextlib.contextmanager
    def op(self, what: str):
        """One attempted operation; an exception inside counts as failed."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.fail(f"{what}: {traceback.format_exc(limit=3)}")


# --- arrangement families ---------------------------------------------------


def _distinct_x(points) -> bool:
    xs = [x for x, _ in points]
    return len(set(xs)) == len(xs)


def random_generic(rng: random.Random, m: int):
    """m lines, distinct slopes, only double points, all at distinct x."""
    while True:
        lines = [
            (Fraction(rng.randint(-60, 60), rng.randint(1, 7)),
             Fraction(rng.randint(-60, 60), rng.randint(1, 7)))
            for _ in range(m)
        ]
        if len({a for a, _ in lines}) != m:
            continue
        points = oracle.intersection_points(lines)
        if len(points) == m * (m - 1) // 2 and _distinct_x(points):
            return lines


def tangent_family(m: int):
    """y = i x + i^2, i = 1..m: the tangent lines of y = -x^2/4.  Only
    double points, but many share an x-coordinate (x = -(i+j))."""
    return [(Fraction(i), Fraction(i * i)) for i in range(1, m + 1)]


def pencil(rng: random.Random, widths: tuple[int, ...], generic: int):
    """Pencils of the given widths through random points, plus `generic`
    further lines; every other crossing is a double point at its own x."""
    while True:
        slopes = rng.sample(range(-40, 41), sum(widths) + generic)
        lines = []
        s = iter(slopes)
        for w in widths:
            x0 = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
            y0 = Fraction(rng.randint(-20, 20), rng.randint(1, 3))
            for _ in range(w):
                a = Fraction(next(s), rng.randint(1, 3))
                lines.append((a, y0 - a * x0))
        for _ in range(generic):
            lines.append((Fraction(next(s), rng.randint(1, 3)),
                          Fraction(rng.randint(-60, 60), rng.randint(1, 5))))
        if len({a for a, _ in lines}) != len(lines):
            continue
        points = oracle.intersection_points(lines)
        big = sorted(len(v) for v in points.values() if len(v) > 2)
        if big == sorted(widths) and _distinct_x(points):
            return lines


def arrangement_text(lines) -> str:
    body = "".join(f"line {a} {b}\n" for a, b in lines)
    return f"arrangement {len(lines)}\n{body}"


def b3_factorization(bm):
    """The six alternating half-twists of the B_3 full twist."""
    e = bm.braid.BraidWord.identity(3)
    x1, x2 = bm.braid.HalfTwist(3, 1, 2), bm.braid.HalfTwist(3, 2, 3)
    return bm.factorization.Factorization(
        3, tuple(bm.factorization.StructuredFactor(e, (x1, x2)[i % 2], 1)
                 for i in range(6)))


# --- arrangement-oracle -----------------------------------------------------


class ArrangementOracle:
    """Sweep, degree check and Delta^2 test over three families, with and
    without block expansion; then the word problem on known pairs."""

    RANDOM_SIZES = (8, 16, 24)
    TANGENT_SIZES = (12, 20)
    PENCILS = (((4, 3), 3), ((5,), 5))  # (pencil widths, generic lines)
    WORDS = ((3, 400, 4), (8, 150, 4), (16, 80, 4))  # (m, length, pairs)

    def __init__(self, bm, rng: random.Random) -> None:
        self.bm = bm
        self.random = [random_generic(rng, m) for m in self.RANDOM_SIZES]
        self.structured = ([tangent_family(m) for m in self.TANGENT_SIZES]
                           + [pencil(rng, w, g) for w, g in self.PENCILS])
        self.pairs = []
        for m, length, count in self.WORDS:
            for k in range(count):
                w1, w2, same = oracle.word_pair(rng, m, length, k % 2 == 0)
                self.pairs.append((bm.braid.BraidWord(m, tuple(w1)),
                                   bm.braid.BraidWord(m, tuple(w2)), same))
        self.results = []
        self.answers = []

    def segments(self):
        return [(0, lambda ops: self.sweep(ops, self.random)),
                (1, lambda ops: self.sweep(ops, self.structured)),
                (2, self.words)]

    def sweep(self, ops: Ops, family) -> None:
        am, fz = self.bm.arrangements, self.bm.factorization
        for lines in family:
            arr = am.LineArrangement(tuple(lines))
            for expand in (False, True):
                with ops.op(f"sweep and Delta^2 test of {arr.m} lines"):
                    fact = am.braid_monodromy(arr, expand_blocks=expand)
                    report = am.degree_check(arr)
                    ok = fz.is_delta2_factorization(fact)
                    self.results.append((lines, expand, fact, report, ok))

    def words(self, ops: Ops) -> None:
        gs = self.bm.garside
        for w1, w2, want in self.pairs:
            with ops.op(f"word pair in B_{w1.strands}"):
                self.answers.append((want, gs.words_equal(w1, w2)))

    def check(self, ops: Ops) -> None:
        for lines, expand, fact, report, ok in self.results:
            mult = oracle.multiplicities(lines)
            m = len(lines)
            want = sum(k * (k - 1) // 2 for k in mult) if expand else len(mult)
            ops.expect(len(fact.factors) == want,
                       f"{m} lines: {len(fact.factors)} factors, expected {want}")
            ops.expect(report.achieved == report.target == m * (m - 1)
                       and report.deficit == 0, f"{m} lines: degree {report}")
            ops.expect(ok, f"{m} lines: is_delta2_factorization said false")
            ops.expect(oracle.is_full_twist(m, fact.factors),
                       f"{m} lines: Burau product is not Delta^2")
        for want, got in self.answers:
            ops.expect(got == want, f"words_equal returned {got}, expected {want}")
        fact = self.results[0][2] if self.results else None
        self.sample = (fact.strands, list(fact.factors)) if fact else None


# --- hurwitz-search -----------------------------------------------------------


def scramble(bm, fact, moves):
    """Apply Hurwitz moves with word arithmetic of our own: (a, b) goes to
    (a b a^-1, a) for +1 and to (b, b^-1 a b) for -1.  The moved factor
    keeps its core and gets the mover's full word prepended to its
    conjugator, freely reduced here."""
    factors = list(fact.factors)
    for k, d in moves:
        a, b = factors[k - 1], factors[k]
        if d > 0:
            factors[k - 1], factors[k] = _conjugated(bm, b, oracle.factor_letters(a)), a
        else:
            inv = [-x for x in reversed(oracle.factor_letters(b))]
            factors[k - 1], factors[k] = b, _conjugated(bm, a, inv)
    return bm.factorization.Factorization(fact.strands, tuple(factors))


def _conjugated(bm, factor, prefix):
    out: list[int] = []
    for x in list(prefix) + list(factor.conjugator.letters):
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return factor.with_conjugator(bm.braid.BraidWord(factor.strands, tuple(out)))


class HurwitzSearch:
    """Random Hurwitz walks on the B_3 factorization, a fixed-budget orbit
    enumeration, and certificate searches on scrambled sweep outputs."""

    WALKS = 10
    WALK_MOVES = 1000
    ORBIT_BUDGET = 2000
    # Certificate searches: (lines, scramble moves, count).  Their cost is
    # heavy-tailed in the scramble (one search can store 10x the median
    # number of states), so the set is drawn once from CATALOGUE_SEED and
    # is the same in every run; the run seed varies the walks.
    CATALOGUE_SEED = 2003
    SCRAMBLES = ((4, 10, 5), (5, 6, 3))
    SEARCH_BUDGET = 1_000_000

    def __init__(self, bm, rng: random.Random) -> None:
        self.bm = bm
        self.b3 = b3_factorization(bm)
        self.walks = [
            [(rng.randint(1, 5), rng.choice((1, -1))) for _ in range(self.WALK_MOVES)]
            for _ in range(self.WALKS)
        ]
        cat = random.Random(self.CATALOGUE_SEED)
        self.pairs = []
        for n, length, count in self.SCRAMBLES:
            for _ in range(count):
                arr = bm.arrangements.LineArrangement(tuple(random_generic(cat, n)))
                f1 = bm.arrangements.braid_monodromy(arr)
                moves = [(cat.randint(1, len(f1.factors) - 1), cat.choice((1, -1)))
                         for _ in range(length)]
                self.pairs.append((f1, scramble(bm, f1, moves)))
        self.walked = []
        self.orbit = None
        self.verdicts = []

    def segments(self):
        return [(0, self.walk), (1, self.enumerate), (2, self.search)]

    def walk(self, ops: Ops) -> None:
        fz = self.bm.factorization
        for moves in self.walks:
            with ops.op("walk"):
                f = self.b3
                for k, d in moves:
                    f = fz.hurwitz_move(f, k) if d > 0 else fz.hurwitz_move_inverse(f, k)
                self.walked.append(f)

    def enumerate(self, ops: Ops) -> None:
        with ops.op("orbit"):
            self.orbit = self.bm.factorization.orbit_enumerate(
                self.b3, budget=self.ORBIT_BUDGET)

    def search(self, ops: Ops) -> None:
        fz = self.bm.factorization
        for f1, f2 in self.pairs:
            with ops.op(f"certificate search in B_{f1.strands}"):
                res = fz.hurwitz_equivalent(f1, f2, budget=self.SEARCH_BUDGET)
                if res.verdict is fz.Verdict.INCONCLUSIVE:
                    ops.fail(f"search in B_{f1.strands} hit its budget")
                else:
                    self.verdicts.append((f1, f2, res))

    def check(self, ops: Ops) -> None:
        fz = self.bm.factorization
        before = fz.hm_invariants(self.b3)
        for f in self.walked:
            ops.expect(fz.hm_invariants(f) == before, "walk changed hm_invariants")
            ops.expect(oracle.is_full_twist(3, f.factors), "walk left Delta^2")
        if self.orbit is not None:
            ops.expect(self.orbit.exhausted or len(self.orbit.keys) == self.ORBIT_BUDGET,
                       f"orbit of {len(self.orbit.keys)} keys, not exhausted")
            ops.expect(fz.canonical_key(self.b3) in self.orbit.keys,
                       "orbit misses its start")
        for f1, f2, res in self.verdicts:
            ops.expect(oracle.is_full_twist(f2.strands, f2.factors),
                       "scramble left Delta^2")
            ops.expect(res.verdict is fz.Verdict.EQUIVALENT,
                       f"scramble judged {res.verdict.value}")
            if res.moves is not None:
                replay = fz.apply_moves(f1, res.moves)
                ops.expect(fz.canonical_key(replay) == fz.canonical_key(f2),
                           "certificate does not replay to the target")
        f1 = self.pairs[0][0]
        self.sample = (f1.strands, list(f1.factors))


# --- curve-pipeline -------------------------------------------------------------


class CurvePipeline:
    """The CLI chain monodromy -> regenerate -> vankampen, audit and
    check-delta2 on n = 3..6 lines, plus monodromy and vankampen on 16
    lines, all through braidmono.cli.main in this process.  Every command
    runs in every round, also when an earlier one failed, so rounds attempt
    the same operations."""

    SIZES = (3, 4, 5, 6)
    BIG = 16
    REGEN_BUDGET = 1000
    # The regeneration search took 5x longer on some random 6-line
    # arrangements than on others at the same budget, and vankampen 1.8x
    # longer on some 16-line ones, so the arrangements are drawn once from
    # CATALOGUE_SEED and are the same in every run and round.
    CATALOGUE_SEED = 2003

    def __init__(self, bm, rng: random.Random, workdir: str) -> None:
        self.bm = bm
        self.workdir = workdir
        cat = random.Random(self.CATALOGUE_SEED)
        texts = [arrangement_text(random_generic(cat, n)) for n in self.SIZES + (self.BIG,)]
        for n, text in zip(self.SIZES + (self.BIG,), texts):
            with open(self._path(f"a{n}.arr"), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.inputs = hashlib.sha256("".join(texts).encode()).hexdigest()
        self.transcript = []  # (command, file, exit code, stdout)

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def _cli(self, ops: Ops, command: str, name: str, *flags, expect=0, out=None):
        """Run one CLI command on a file; a stdout worth passing on is
        written to `out`."""
        stdout, stderr = io.StringIO(), io.StringIO()
        argv = [command, self._path(name), *flags]
        with ops.op(command):
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = self.bm.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            text = stdout.getvalue()
            self.transcript.append((command, name, code, text))
            if code not in (0, 1):
                ops.fail(f"{command} {name} exited {code}: {stderr.getvalue().strip()}")
            elif code != expect:
                ops.expect(False, f"{command} {name} exited {code}, expected {expect}")
            if out is not None:
                with open(self._path(out), "w", encoding="utf-8") as fh:
                    fh.write(text)

    def segments(self):
        return [(2, self.lines), (0, self.regenerate), (1, self.vankampen),
                (2, self.audit)]

    def lines(self, ops: Ops) -> None:
        for n in self.SIZES:
            self._cli(ops, "monodromy", f"a{n}.arr", "--expand-blocks", out=f"f{n}.fac")
            self._cli(ops, "check-delta2", f"f{n}.fac")
        self._cli(ops, "monodromy", f"a{self.BIG}.arr", out=f"f{self.BIG}.fac")

    def regenerate(self, ops: Ops) -> None:
        for n in self.SIZES:
            self._cli(ops, "regenerate", f"f{n}.fac", "--complete-deficit",
                      "--budget", str(self.REGEN_BUDGET), out=f"r{n}.fac")

    def vankampen(self, ops: Ops) -> None:
        for n in self.SIZES:
            self._cli(ops, "vankampen", f"r{n}.fac")
        self._cli(ops, "vankampen", f"f{self.BIG}.fac")

    def audit(self, ops: Ops) -> None:
        for n in self.SIZES:
            self._cli(ops, "audit", f"r{n}.fac")
            self._cli(ops, "check-delta2", f"r{n}.fac",
                      expect=0 if self._completed(n) else 1)

    def _completed(self, n: int) -> bool:
        path = self._path(f"r{n}.fac")
        if not os.path.exists(path):
            return False
        with open(path, encoding="utf-8") as fh:
            return "deficit completed" in fh.read()

    def check(self, ops: Ops) -> None:
        tx = self.bm.textio
        out = {(c, name): (code, text) for c, name, code, text in self.transcript}
        self.sample = None
        for (command, name), (code, text) in out.items():
            if code not in (0, 1):
                continue
            if command in ("monodromy", "regenerate"):
                fact = tx.parse_factorization(text)
                body = "".join(l + "\n" for l in text.splitlines() if not l.startswith("#"))
                ops.expect(tx.format_factorization(fact) == body,
                           f"{command} {name}: output does not round-trip through textio")
                full = command == "monodromy" or "deficit completed" in text
                ops.expect(oracle.is_full_twist(fact.strands, fact.factors) == full,
                           f"{command} {name}: Burau product "
                           + ("is not" if full else "is") + " Delta^2")
                if self.sample is None and command == "monodromy":
                    self.sample = (fact.strands, list(fact.factors))
            elif command == "audit":
                n = int(name[1:-4])
                want = (f"achieved {4 * n * (n - 1)}\ntarget {2 * n * (2 * n - 1)}\n"
                        f"deficit {2 * n}\n")
                ops.expect(text == want, f"audit {name}: {text!r}")
            elif command == "vankampen":
                n = int(name[1:-4])
                rank = 2 * n if name.startswith("r") else n
                line = [l for l in text.splitlines() if l.startswith("# abelianization")]
                ops.expect(line == [f"# abelianization rank {rank}"],
                           f"vankampen {name}: {line}, expected rank {rank}, no torsion")
            elif command == "check-delta2":
                ops.expect(text == ("true\n" if code == 0 else "false\n"),
                           f"check-delta2 {name} printed {text!r} with exit {code}")

    def digest(self) -> tuple[str, str]:
        """(hash of the inputs, hash of every command's exit code and stdout)."""
        h = hashlib.sha256()
        for command, name, code, text in self.transcript:
            h.update(f"{command}\0{name}\0{code}\0{text}\0".encode())
        return self.inputs, h.hexdigest()


WORKLOADS = {
    "arrangement-oracle": ArrangementOracle,
    "hurwitz-search": HurwitzSearch,
    "curve-pipeline": CurvePipeline,
}
