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


NUMBER_TYPES = {"int", "float", "Fraction"}
# cli.py whole, and each function of a lower layer that reads number texts.
NUMBER_TEXT_SCOPES = [
    "cli",
    *(f"expharness.{f}" for f in ("parse_scenario", "_float", "_fraction", "_scales", "_pins", "_window")),
    "geomdecomp._parse_cube_line",
]


def number_type_names(tree):
    """Where tree names int, float or Fraction outside an annotation, an
    import included."""
    annotations = set()
    for node in ast.walk(tree):
        for annotation in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if annotation is not None:
                annotations.update(map(id, ast.walk(annotation)))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in NUMBER_TYPES and id(node) not in annotations:
            yield f"line {node.lineno}: {node.id}"
        elif isinstance(node, ast.ImportFrom):
            yield from (f"line {node.lineno}: import {a.name}" for a in node.names if a.name in NUMBER_TYPES)


@pytest.mark.parametrize("scope", NUMBER_TEXT_SCOPES)
def test_number_texts_are_read_through_polyexpr_readers(scope):
    """int, float and Fraction read underscores and other scripts' digits,
    so these scopes name none of them, not even as an argparse type or a
    map's function: a number text goes through polyexpr's read_int,
    read_float or read_fraction, which refuse both."""
    module, _, function = scope.partition(".")
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    if function:
        (tree,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    assert not list(number_type_names(tree))
