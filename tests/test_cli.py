import argparse
import io
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from braidmono import (BraidWord, Factorization, LineArrangement, braid_monodromy, degree_check,
                       hurwitz_move, hurwitz_move_inverse)
from braidmono import cli
from braidmono import factorization as fz
from braidmono.cli import main
from braidmono.textio import format_braid_word, format_factorization
from braidmono.vankampen import MAX_IMAGE_LETTERS
from conftest import random_generic_arrangement, reduced_word, standard_b3_factorization

GOLDEN = Path(__file__).resolve().parent / "golden"
THREE_GENERIC = "arrangement 3\nline 0 0\nline 1 0\nline 2 -1\n"

B3_PAPER = format_factorization(standard_b3_factorization())


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestWords:
    def test_normal_form(self, files, capsys):
        path = files("w.word", "strands 3\ns1 s2 s1\n")
        code, out = run(capsys, "normal-form", path)
        assert code == 0
        assert "delta 1" in out

    def test_normal_form_factor_line(self, files, capsys):
        code, out = run(capsys, "normal-form", files("w.word", "strands 3\ns1 s2\n"))
        assert code == 0
        assert out == "strands 3\ndelta 0\nfactor 2 3 1\n"

    def test_equal_true(self, files, capsys):
        w1 = files("a.word", "strands 3\ns1 s2 s1\n")
        w2 = files("b.word", "strands 3\ns2 s1 s2\n")
        code, out = run(capsys, "equal", w1, w2)
        assert code == 0 and out.strip() == "true"

    def test_equal_false(self, files, capsys):
        w1 = files("a.word", "strands 3\ns1\n")
        w2 = files("b.word", "strands 3\ns2\n")
        code, out = run(capsys, "equal", w1, w2)
        assert code == 1 and out.strip() == "false"

    @pytest.mark.parametrize("edit, code, answer", [("relation", 0, "true"), ("flip", 1, "false")])
    def test_equal_long_words_differing_in_the_middle(self, files, capsys, edit, code, answer):
        word = reduced_word(random.Random(25), 4, 600)
        middle = (1, 2, 1, -2, -1, -2) if edit == "relation" else (-word[300],)
        other = word[:300] + middle + word[300 + (edit == "flip"):]
        w1 = files("a.word", format_braid_word(BraidWord(4, word)))
        w2 = files("b.word", format_braid_word(BraidWord(4, other)))
        assert run(capsys, "equal", w1, w2) == (code, answer + "\n")


class TestMonodromy:
    def test_check_delta2_pipeline(self, files, capsys):
        arr = files("three.arr", THREE_GENERIC)
        code, out = run(capsys, "monodromy", arr)
        assert code == 0
        fac = files("three.fac", out)
        code, out = run(capsys, "check-delta2", fac)
        assert code == 0 and out.strip() == "true"

    def test_stdin_dash(self, files, capsys, monkeypatch):
        arr = files("three.arr", THREE_GENERIC)
        code, out = run(capsys, "monodromy", arr)
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out = run(capsys, "check-delta2", "-")
        assert code == 0 and out.strip() == "true"

    def test_deterministic_output(self, files, capsys):
        arr = files("three.arr", THREE_GENERIC)
        _, out1 = run(capsys, "monodromy", arr)
        _, out2 = run(capsys, "monodromy", arr)
        assert out1 == out2

    def test_expand_blocks(self, files, capsys):
        arr = files("conc.arr", "arrangement 3\nline 0 0\nline 1 0\nline -1 0\n")
        code, out = run(capsys, "monodromy", arr, "--expand-blocks")
        assert code == 0 and "factors 3" in out

    @pytest.mark.parametrize("expand", [False, True])
    def test_degree_comment_matches_degree_check(self, files, capsys, expand):
        rng = random.Random(41)
        arrangements = [random_generic_arrangement(rng, m) for m in (2, 3, 4, 5, 6, 7)]
        arrangements += [
            LineArrangement.from_pairs([(1, 0), (1, 3), (-2, 1), (3, Fraction(-5, 2))]),
            LineArrangement.from_pairs(
                [(s, 0) for s in (-2, -1, 0, 1, 3)] + [(5, 7), (-7, Fraction(-11, 2))]
            ),
            LineArrangement.from_pairs([(i, i * i) for i in range(1, 13)]),
        ]
        for arr in arrangements:
            text = "".join(f"line {a} {b}\n" for a, b in arr.lines)
            path = files("a.arr", f"arrangement {arr.m}\n{text}")
            code, out = run(capsys, "monodromy", path, *(["--expand-blocks"] if expand else []))
            report = degree_check(arr)
            want = f"# degree {report.achieved} of {report.target}" + (
                f", deficit {report.deficit} (parallel lines)" if report.deficit else ""
            )
            assert code == 0 and out.splitlines()[1] == want

    def test_check_delta2_one_strand(self, files, capsys):
        code, out = run(capsys, "check-delta2", files("b1.fac", "strands 1\nfactors 0\n"))
        assert code == 0 and out == "true\n"

    def test_check_delta2_false(self, files, capsys):
        fac = files("one.fac", "strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 1\n")
        code, out = run(capsys, "check-delta2", fac)
        assert code == 1 and out.strip() == "false"


class TestEquivalence:
    def test_scrambled_pair(self, files, capsys):
        F = standard_b3_factorization()
        G = hurwitz_move(hurwitz_move(F, 2), 4)
        f1 = files("a.fac", format_factorization(F))
        f2 = files("b.fac", format_factorization(G))
        code, out = run(capsys, "hurwitz-equiv", f1, f2, "--budget", "100000")
        assert code == 0
        assert "verdict EQUIVALENT" in out

    def test_budget_runs_out(self, files, capsys):
        F = standard_b3_factorization()
        G = F
        for k in (1, 2, 3, 4, 5, 1, 2):
            G = hurwitz_move(G, k)
        f1 = files("a.fac", format_factorization(F))
        f2 = files("b.fac", format_factorization(G))
        code, out = run(capsys, "hurwitz-equiv", f1, f2, "--budget", "3")
        assert code == 2
        assert "verdict INCONCLUSIVE\n" in out

    @pytest.mark.parametrize("budget", ["1", "2"])
    def test_budget_caps_the_stored_states(self, capsys, budget):
        """The two roots are stored before any budget check; no third."""
        code, out = run(capsys, "hurwitz-equiv", str(GOLDEN / "sweep4.fac"),
                        str(GOLDEN / "sweep4walk.fac"), "--budget", budget)
        assert code == 2
        assert out == "verdict INCONCLUSIVE\nexplored 2\n"

    def test_not_equivalent(self, files, capsys):
        f1 = files(
            "a.fac", "strands 3\nfactors 2\nconj= ; base= 1 2 ; exp= 1\nconj= ; base= 2 3 ; exp= 1\n"
        )
        f2 = files(
            "b.fac", "strands 3\nfactors 2\nconj= ; base= 1 2 ; exp= 1\nconj= ; base= 1 2 ; exp= 1\n"
        )
        code, out = run(capsys, "hurwitz-equiv", f1, f2)
        assert code == 1 and "NOT_EQUIVALENT" in out

    def test_orbit_budget(self, files, capsys):
        fac = files("b3.fac", B3_PAPER)
        code, out = run(capsys, "orbit", fac, "--budget", "100")
        assert code == 2
        assert "orbit 100" in out and "exhausted false" in out

    def test_orbit_exhausted(self, files, capsys):
        fac = files("b2.fac", "strands 2\nfactors 2\nconj= ; base= 1 2 ; exp= 1\nconj= ; base= 1 2 ; exp= 1\n")
        code, out = run(capsys, "orbit", fac)
        assert code == 0 and "orbit 1" in out and "exhausted true" in out


class TestRegeneration:
    def test_regenerate_and_audit(self, files, capsys, tmp_path):
        arr = files("three.arr", THREE_GENERIC)
        _, fac_text = run(capsys, "monodromy", arr, "--expand-blocks")
        fac = files("three.fac", fac_text)
        code, out = run(capsys, "regenerate", fac)
        assert code == 0
        regen = files("regen.fac", out)
        code, out = run(capsys, "audit", regen)
        assert code == 0
        assert "achieved 24" in out and "target 30" in out and "deficit 6" in out

    def test_rules_file(self, files, capsys):
        fac = files(
            "f.fac", "strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 3\n"
        )
        rules = files("r.rules", "0 pass\n")
        code, out = run(capsys, "regenerate", fac, "--rules", rules)
        assert code == 0 and "strands 4" in out

    def test_complete_deficit(self, files, capsys):
        partial = Factorization(3, standard_b3_factorization().factors[:4])
        fac = files("p.fac", format_factorization(partial))
        code, out = run(capsys, "regenerate", fac, "--rules", files("r.rules", "\n".join(f"{i} pass" for i in range(4)) + "\n"), "--complete-deficit")
        assert code == 0
        assert (
            "# deficit completion hit the budget after 10000 tries; "
            "emitting uncompleted factors\n" in out
        )

    def test_complete_deficit_completes(self, files, capsys):
        two = "strands 2\nfactors 2\n" + "conj= ; base= 1 2 ; exp= 1\n" * 2
        code, out = run(capsys, "regenerate", files("two.fac", two), "--complete-deficit")
        assert code == 0
        assert "# deficit completed after trying 4184 placements\n" in out
        done = files("done.fac", out)
        code, out = run(capsys, "check-delta2", done)
        assert code == 0 and out == "true\n"
        code, out = run(capsys, "audit", done)
        assert code == 0 and "deficit 0\n" in out

    def test_complete_deficit_ruled_out(self, files, capsys):
        arr = files("three.arr", THREE_GENERIC)
        _, fac_text = run(capsys, "monodromy", arr, "--expand-blocks")
        fac = files("three.fac", fac_text)
        code, out = run(capsys, "regenerate", fac, "--complete-deficit")
        assert code == 0
        assert "# deficit completion impossible: the defect's Garside infimum is below -6" in out


class TestVanKampen:
    def test_arrangement_presentation(self, files, capsys):
        # node factors give commutator relations: free abelianization
        arr = files("three.arr", THREE_GENERIC)
        _, fac_text = run(capsys, "monodromy", arr)
        fac = files("three.fac", fac_text)
        code, out = run(capsys, "vankampen", fac)
        assert code == 0
        assert "gens 3" in out
        assert "abelianization rank 3" in out

    def test_branch_point_presentation(self, files, capsys):
        # branch points identify the colliding sheets' loops: rank drops to 1
        fac = files("b3.fac", B3_PAPER)
        code, out = run(capsys, "vankampen", fac)
        assert code == 0
        assert "abelianization rank 1" in out


    def test_one_strand_has_no_warning(self, files, capsys):
        code, out = run(capsys, "vankampen", files("b1.fac", "strands 1\nfactors 0\n"))
        assert code == 0
        assert out == "# abelianization rank 1\ngens 1\n"

    def test_formal_presentation_warns(self, files, capsys):
        fac = files("one.fac", "strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 1\n")
        code, out = run(capsys, "vankampen", fac)
        assert code == 0
        assert out.startswith(
            "# warning: product is not the full twist; presentation is formal\n"
        )


class TestInvariants:
    def test_summary(self, files, capsys):
        fac = files("b3.fac", B3_PAPER)
        code, out = run(capsys, "invariants", fac)
        assert code == 0
        assert "product-delta 2" in out
        assert out.count("class halftwist 1") == 6


class TestErrors:
    def test_malformed_exit_3(self, files, capsys):
        bad = files("bad.fac", "nonsense\n")
        assert main(["check-delta2", bad]) == 3

    def test_missing_file_exit_3(self, capsys):
        assert main(["check-delta2", "/nonexistent/file.fac"]) == 3

    def test_parse_error_has_line_number(self, files, capsys):
        bad = files("bad.arr", "arrangement 1\nline 1/0 2\n")
        code = main(["monodromy", bad])
        err = capsys.readouterr().err
        assert code == 3 and "line 2" in err

    def test_invalid_utf8_file_exit_3(self, files, capsys):
        path = files("bad.word", "")
        Path(path).write_bytes(b"\xff")
        code = main(["normal-form", path])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: ") and "utf-8" in captured.err

    def test_memory_error_exit_3(self, files, capsys, monkeypatch):
        # exit 1 would read as NOT_EQUIVALENT
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli.fz, "hurwitz_equivalent", exhausted)
        fac = files("b3.fac", B3_PAPER)
        code = main(["hurwitz-equiv", fac, fac])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: out of memory\n"

    @pytest.mark.parametrize("method", ["write", "flush"])
    def test_closed_stdout_ends_quietly(self, files, capsys, monkeypatch, method):
        # a reader that closed the pipe is not malformed input: no error
        # line and no exit 3, whether the print or main's flush meets it
        def closed(*args):
            raise BrokenPipeError(32, "Broken pipe")

        stdout = io.StringIO()  # no file descriptor, so main redirects none
        monkeypatch.setattr(stdout, method, closed)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(["vankampen", files("b3.fac", B3_PAPER)])
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_image_cap_exit_3(self, files, capsys):
        # 30 random moves on a 4-line sweep leave a conjugator whose images
        # under its inverse pass the cap; without it the walk took more than
        # 1.5 GB and died with a MemoryError
        rng = random.Random(1)
        fact = braid_monodromy(random_generic_arrangement(rng, 4))
        for _ in range(30):
            k = rng.randint(1, len(fact.factors) - 1)
            fact = (hurwitz_move if rng.random() < 0.5 else hurwitz_move_inverse)(fact, k)
        fac = files("walk.fac", format_factorization(fact))
        start = time.perf_counter()
        code = main(["vankampen", fac])
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            f"error: an image under a conjugator's inverse passed the cap "
            f"of {MAX_IMAGE_LETTERS} letters of van Kampen's walk\n"
        )

    def test_move_cap_exit_3(self, capsys, monkeypatch):
        # with the cap at 20, the orbit of a 4-line sweep meets an element
        # of 21 canonical factors within 0.03 s
        monkeypatch.setattr(fz, "MAX_CANONICAL_LENGTH", 20)
        code = main(["orbit", str(GOLDEN / "sweep4.fac")])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == (
            "error: a form of 21 canonical factors passed the cap of 20 for Hurwitz moves\n"
        )


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ["orbit", "a.fac", "--budget", "abc"],
            ["orbit", "a.fac", "--budget", "0"],
            ["hurwitz-equiv", "a.fac", "b.fac", "--budget", "0"],
            ["regenerate", "a.fac", "--budget", "-1"],
            ["orbit"],
            [],
            ["regenerate", "a.fac", "--one-sided-nodes"],
            # a budget is read by the files' number rule, ASCII `-?[0-9]+`
            ["orbit", "a.fac", "--budget", "1_0"],
            ["orbit", "a.fac", "--budget", "+5"],
            ["orbit", "a.fac", "--budget", "\u0661\u0660"],
            ["orbit", "a.fac", "--budget", " 7"],
        ],
    )
    def test_usage_error_exit_3(self, capsys, argv):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: braidmono" in captured.err

    def test_budget_below_one_is_named(self, files, capsys):
        fac = files("b3.fac", B3_PAPER)
        assert main(["orbit", fac, "--budget", "-4"]) == 3
        captured = capsys.readouterr()
        assert "exhausted" not in captured.out
        assert "--budget: must be at least 1, got -4" in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["orbit", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: braidmono" in capsys.readouterr().out


def docstring_usage():
    """{subcommand: flags} from the usage block of the cli docstring; a
    continuation line belongs to the command above it."""
    usage = {}
    command = None
    for line in cli.__doc__.splitlines():
        if line.startswith("    braidmono "):
            command = line.split()[1]
            usage[command] = set()
        elif not line.startswith("     "):
            command = None
        if command:
            usage[command] |= set(re.findall(r"--[a-z][a-z-]*", line))
    return usage


def test_docstring_usage_matches_parser():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    from_parser = {
        name: {o for a in p._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, p in sub.choices.items()
    }
    assert docstring_usage() == from_parser


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_module(*argv, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "braidmono", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


class TestModuleEntry:
    def test_monodromy_runs(self, files):
        arr = files("three.arr", THREE_GENERIC)
        proc = run_module("monodromy", arr)
        assert proc.returncode == 0
        assert "factors 3" in proc.stdout

    @pytest.mark.parametrize(
        "line",
        ["conj= ; base= x 2 ; exp= 2", "conj= s1 ; conj= s2 ; base= 1 2 ; exp= 2"],
    )
    def test_bad_factor_line_exit_3(self, files, line):
        bad = files("bad.fac", f"strands 3\nfactors 1\n{line}\n")
        proc = run_module("check-delta2", bad)
        assert proc.returncode == 3
        assert "Traceback" not in proc.stderr
        assert "line 3" in proc.stderr

    def test_invalid_utf8_stdin_exit_3(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "braidmono", "normal-form", "-"],
            input=b"\xff", capture_output=True, env=env,
        )
        assert proc.returncode == 3 and proc.stdout == b""
        assert b"Traceback" not in proc.stderr and proc.stderr.startswith(b"error: ")

    def test_closed_stdout_pipe_ends_quietly(self, files):
        # the pipe's read end is closed before the run starts, so every write
        # fails; with stdout buffered, what is left would also fail at the
        # interpreter's exit flush, with "Exception ignored" and status 120;
        # the help text takes the same way out as a command's output
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("PYTHONUNBUFFERED", None)
        for argv in (["vankampen", files("b3.fac", B3_PAPER)], ["--help"], ["orbit", "--help"]):
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "braidmono", *argv],
                    stdout=write, stderr=subprocess.PIPE, env=env,
                )
            finally:
                os.close(write)
            assert (argv, proc.returncode, proc.stderr) == (argv, 141, b"")

    def test_huge_exponent_answers_at_once(self, files):
        fac = files("huge.fac", "strands 2\nfactors 1\nconj= ; base= 1 2 ; exp= 999999999\n")
        proc = run_module("check-delta2", fac, timeout=20)
        assert proc.returncode == 1 and proc.stdout == "false\n"
        assert "Traceback" not in proc.stderr
