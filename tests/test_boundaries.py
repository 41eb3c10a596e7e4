"""Module boundaries of the package, read from its source with `ast`.

* The kernel's private names (permutation-id interning, per-id tables) stay
  inside `garside.py`: no other module imports a `_`-name from it.
* The raw forms a factor record carries, the source its conjugator is
  spelled from and its move back are read and set only in
  `factorization.py`, and only its one constructor `_record` builds a
  record that carries them: no other module calls `object.__new__` or
  uses `.__dict__`.  Other modules
  hand a record its form and spelling source through `_record`.
* Only the command line talks to the user: no module but `cli.py` and
  `__main__.py` imports `sys` or `warnings` or calls `print`.  The library
  returns what it found, and the CLI decides what to print.
* Only `textio.py` reads a number from text: no other module calls `int`
  or `.isdigit()` / `.isascii()`, so the files' grammar has one owner.
  Its public functions are all `parse_*` or `format_*`: the bench's span
  tracer wraps each one and takes `len()` of what a non-`parse_*` one
  returns.
* The exact geometry and the kernel stay exact: `arrangements.py` and
  `garside.py` call no `float` and hold no float literal.
* There is one prefix-trie walker, `braid.prefix_walk`: no other module
  defines a common-prefix or trie-walk helper or calls `commonprefix`.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "braidmono"
MODULES = sorted(SRC.glob("*.py"))
RECORD_ATTRIBUTES = {"_conj_raw", "_element_raw", "_spelling", "_move_back"}
CONSOLE_NAMES = {"sys", "warnings", "print"}
DIGIT_TESTS = {"isdigit", "isascii"}
PREFIX_HELPER = re.compile(r"common_?prefix|prefix_walk|(?:^|_)trie(?:_|$)", re.IGNORECASE)


def tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def private_garside_imports(module: ast.Module) -> list[str]:
    out = []
    for node in ast.walk(module):
        source = (getattr(node, "module", None) or "").split(".")[-1]
        if isinstance(node, ast.ImportFrom) and source == "garside":
            out += [alias.name for alias in node.names if alias.name.startswith("_")]
    return out


def record_attribute_uses(module: ast.Module) -> list[str]:
    """Attribute reads and writes of the record's raw-form slots, plus the
    same names passed as strings (`object.__setattr__(f, "_conj_raw", ...)`)."""
    out = []
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and node.attr in RECORD_ATTRIBUTES:
            out.append(f"line {node.lineno}: .{node.attr}")
        elif isinstance(node, ast.Constant) and node.value in RECORD_ATTRIBUTES:
            out.append(f"line {node.lineno}: {node.value!r}")
    return out


def record_constructions(module: ast.Module) -> list[str]:
    """Calls of `object.__new__`, and every use of `.__dict__`."""
    out = []
    for node in ast.walk(module):
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            out.append(f"line {node.lineno}: .__dict__")
        elif (isinstance(node, ast.Attribute) and node.attr == "__new__"
              and isinstance(node.value, ast.Name) and node.value.id == "object"):
            out.append(f"line {node.lineno}: object.__new__")
    return out


def console_uses(module: ast.Module) -> list[str]:
    """Imports of `sys` and `warnings`, and calls of `print`."""
    out = []
    for node in ast.walk(module):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [(node.module or "").split(".")[0]]
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            names = [node.func.id]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in names if name in CONSOLE_NAMES]
    return out


def number_reads(module: ast.Module) -> list[str]:
    """Calls of `int`, and every use of `.isdigit` or `.isascii`."""
    out = []
    for node in ast.walk(module):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int":
            out.append(f"line {node.lineno}: int")
        elif isinstance(node, ast.Attribute) and node.attr in DIGIT_TESTS:
            out.append(f"line {node.lineno}: .{node.attr}")
    return out


def float_uses(module: ast.Module) -> list[str]:
    """Calls of `float`, and float or complex literals."""
    out = []
    for node in ast.walk(module):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            out.append(f"line {node.lineno}: float")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(f"line {node.lineno}: {node.value!r}")
    return out


def prefix_helpers(module: ast.Module) -> list[str]:
    """Functions named like a common-prefix or trie-walk helper, at any
    depth, and uses of `commonprefix` (as in `os.path.commonprefix`)."""
    out = []
    for node in ast.walk(module):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and PREFIX_HELPER.search(node.name)):
            out.append(f"line {node.lineno}: def {node.name}")
        elif "commonprefix" in (getattr(node, "attr", None), getattr(node, "id", None)):
            out.append(f"line {node.lineno}: commonprefix")
    return out


def public_functions(module: ast.Module) -> list[str]:
    return [node.name for node in module.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not node.name.startswith("_")]


def test_modules_found():
    names = {p.name for p in MODULES}
    assert {"garside.py", "factorization.py", "arrangements.py", "regeneration.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_garside_private_names_stay_in_garside(path):
    if path.name == "garside.py":
        return
    assert private_garside_imports(tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_record_raw_forms_stay_in_factorization(path):
    if path.name == "factorization.py":
        return
    assert record_attribute_uses(tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_records_are_built_only_in_factorization(path):
    if path.name == "factorization.py":
        return
    assert record_constructions(tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_cli_talks_to_the_user(path):
    if path.name in ("cli.py", "__main__.py"):
        return
    assert console_uses(tree(path)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_textio_reads_numbers(path):
    if path.name == "textio.py":
        return
    assert number_reads(tree(path)) == []


@pytest.mark.parametrize("name", ["arrangements.py", "garside.py"])
def test_exact_modules_use_no_floats(name):
    assert float_uses(tree(SRC / name)) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_one_trie_walker(path):
    found = prefix_helpers(tree(path))
    if path.name == "braid.py":
        assert [line.split(": ")[1] for line in found] == ["def prefix_walk"]
    else:
        assert found == []


def test_textio_functions_parse_or_format():
    names = public_functions(tree(SRC / "textio.py"))
    assert names and [n for n in names if not n.startswith(("parse_", "format_"))] == []


def test_the_checks_see_what_they_forbid():
    """The checks find the forbidden shapes in a made-up module."""
    bad = ast.parse(
        "from .garside import RAW_IDENTITY, _pid\n"
        "from braidmono.garside import _strip_ids\n"
        "x = f._conj_raw\n"
        "g._element_raw = None\n"
        "object.__setattr__(h, '_element_raw', 3)\n"
        "import warnings\n"
        "import os, sys\n"
        "from warnings import warn\n"
        "print(x)\n"
        "log.print(x)\n"
        "n = int(token)\n"
        "ok = token[1:].isascii() and token.isdigit()\n"
        "digits = filter(str.isdigit, text)\n"
        "x = np.int(3)\n"
        "def read_int(token): pass\n"
        "def parse_word(text): pass\n"
        "def _int(token): pass\n"
        "class Reader:\n"
        "    def read(self): pass\n"
        "y = float(n) + 0.5 * x ** 2\n"
        "z = (1e-3, 2j, np.float(3), 3 // 2, '0.5')\n"
        "object.__setattr__(h, '_spelling', None)\n"
        "r = object.__new__(StructuredFactor)\n"
        "r.__dict__.update(base=b)\n"
        "s = cls.__new__(cls)\n"
        "def _walk_trie(words): pass\n"
        "n = len(os.path.commonprefix([p, q]))\n"
        "def _prefix(w): pass\n"
        "def _entries(w): pass\n"
    )
    assert private_garside_imports(bad) == ["_pid", "_strip_ids"]
    assert record_attribute_uses(bad) == [
        "line 3: ._conj_raw", "line 4: ._element_raw", "line 5: '_element_raw'",
        "line 22: '_spelling'",
    ]
    assert record_constructions(bad) == ["line 23: object.__new__", "line 24: .__dict__"]
    assert console_uses(bad) == [
        "line 6: warnings", "line 7: sys", "line 8: warnings", "line 9: print",
    ]
    assert sorted(number_reads(bad)) == [
        "line 11: int", "line 12: .isascii", "line 12: .isdigit", "line 13: .isdigit",
    ]
    assert public_functions(bad) == ["read_int", "parse_word"]
    assert sorted(float_uses(bad)) == [
        "line 20: 0.5", "line 20: float", "line 21: 0.001", "line 21: 2j",
    ]
    assert prefix_helpers(bad) == ["line 26: def _walk_trie", "line 27: commonprefix"]
    # a second walker's helper in a real module is seen
    source = (SRC / "vankampen.py").read_text(encoding="utf-8")
    assert prefix_helpers(ast.parse(source)) == []
    lines = source.count("\n")
    made_up = source + "def _common_prefix(p, q):\n    return 0\n"
    assert prefix_helpers(ast.parse(made_up)) == [f"line {lines + 1}: def _common_prefix"]
