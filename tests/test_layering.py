"""The module layering of explab, read from the sources' imports.

Each module may import only modules below it in the order
polyexpr <- gridset <- geomdecomp <- expharness <- cli, and polyexpr, the
exact symbolic layer, imports the standard library only.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import explab
from explab.polyexpr import classify_special_form, parse_poly

PACKAGE = Path(explab.__file__).parent
LAYERS = ["polyexpr", "gridset", "geomdecomp", "expharness", "cli"]


def imports(module: str):
    """The (level, name) of every module the source of explab.<module>
    imports: level 0 for an absolute import, 1 or more for a relative one,
    whose name is the module it reaches inside the package."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import a, b
                yield from ((node.level, alias.name) for alias in node.names)
            else:
                yield node.level, node.module


def test_layers_cover_every_module():
    assert sorted(p.stem for p in PACKAGE.glob("*.py")) == sorted(LAYERS + ["__init__"])


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_layers_below_it(module):
    below = LAYERS[: LAYERS.index(module)]
    for level, name in imports(module):
        if level:
            assert name in below, f"{module} imports {name}"
        else:
            top = name.split(".")[0]
            assert top != "explab", f"{module} imports {name} absolutely"


def test_polyexpr_imports_the_standard_library_only():
    for level, name in imports("polyexpr"):
        assert level == 0 and name.split(".")[0] in sys.stdlib_module_names, name


def test_polyexpr_classifies_without_numpy():
    want = classify_special_form(parse_poly("x + y + x^2*y^2"))
    script = (
        "import importlib.util, sys\n"
        "sys.modules['numpy'] = None\n"
        f"spec = importlib.util.spec_from_file_location('polyexpr', {str(PACKAGE / 'polyexpr.py')!r})\n"
        "module = sys.modules['polyexpr'] = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "c = module.classify_special_form(module.parse_poly('x + y + x^2*y^2'))\n"
        "print(c.verdict.value, c.reason.value, c.witness)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == f"{want.verdict.value} {want.reason.value} {want.witness}\n"



NUMBER_READERS = {"int", "float", "Fraction", "number", "convert"}


def calls_to(node, names):
    """Whether node is a call of a plain name in names."""
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def test_cli_reads_every_number_text_through_number_text():
    """int, float and Fraction read underscores and other scripts' digits,
    so every call in cli.py that reads a number from text takes its one
    argument from expharness._number_text, which refuses both."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    unguarded = [
        f"line {node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if calls_to(node, NUMBER_READERS)
        and not (len(node.args) == 1 and not node.keywords and calls_to(node.args[0], {"_number_text"}))
    ]
    assert not unguarded
