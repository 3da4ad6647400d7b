"""No module of the package reaches into another one's private names,
none uses true division, and importing the CLI loads none of
`dataclasses`, `inspect` and `fractions`.

A name that starts with an underscore belongs to the module that
defines it; a module that needs it from elsewhere should get a public
name instead.  The test reads the sources with ``ast``, so it sees both
``from .derived import _name`` and ``alias._name`` after ``from . import
derived as alias`` (or ``import aisles.derived as alias``).
"""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "aisles"

# Prints the modules among `dataclasses`, `inspect` and `fractions` that
# importing the CLI adds; a site hook that loaded them before the import
# does not count.
NEW_MODULES = """
import sys
before = set(sys.modules)
import aisles.cli
print(sorted({"dataclasses", "inspect", "fractions"} & (set(sys.modules) - before)))
"""


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def _is_package(module, level):
    return level > 0 or module == "aisles" or module.startswith("aisles.")


def private_imports(source):
    """(line, name) for each private name that ``source`` imports from,
    or reads through an alias of, another module of the package."""
    found = []
    aliases = set()
    nodes = list(ast.walk(ast.parse(source)))
    for node in nodes:
        if isinstance(node, ast.ImportFrom) and _is_package(
            node.module or "", node.level
        ):
            for alias in node.names:
                if _is_private(alias.name):
                    found.append((node.lineno, alias.name))
                elif node.module in (None, "aisles"):
                    aliases.add(alias.asname or alias.name)  # a module
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name, 0):
                    aliases.add(alias.asname or alias.name.split(".")[0])
    for node in nodes:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and _is_private(node.attr)
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


def test_no_module_imports_a_private_name():
    offences = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in offences.items() if found} == {}


def test_the_check_sees_both_forms():
    source = (
        "from .derived import _bits, hom_masks\n"
        "from . import kronecker as kr\n"
        "import aisles.torsion as tm\n"
        "kr._subsets(x)\n"
        "tm._orth_masks(t)\n"
        "kr.subsets(x)\n"
        "kr.__name__\n"
    )
    assert private_imports(source) == [
        (1, "_bits"),
        (4, "kr._subsets"),
        (5, "tm._orth_masks"),
    ]


def true_divisions(source):
    """The lines of ``source`` with a true division, ``/`` or ``/=``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.BinOp, ast.AugAssign))
        and isinstance(node.op, ast.Div)
    )


def test_no_module_uses_true_division():
    """`linalg.Mat` holds integral entries as ints, and a true division
    of two ints is a float: exact quotients are `//` or a `Fraction`."""
    offences = {
        path.name: true_divisions(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: found for name, found in offences.items() if found} == {}


def test_the_division_check_sees_both_forms():
    source = "a = 1 // 2\nb = a / 2\nb /= 3\nb //= 4\nc = '1 / 2'\n"
    assert true_divisions(source) == [2, 3]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Every run imports the CLI before it checks anything, and
    `dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`: the
    records are NamedTuples and plain classes instead.  The same check
    covers `fractions` (which pulls in `decimal` and `numbers`): it is
    imported only where a non-integral value is formed (`linalg`), which
    no builtin table needs."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", NEW_MODULES],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "[]\n"
