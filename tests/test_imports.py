"""Every module of the package uses each name it imports, read from its
syntax tree, so a name left behind by a removed caller fails here; and
no module calls the builtin id, so no cache is keyed by an object's
identity, which holds only while the object is alive."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twosquare_gaps"

# imported only to be re-exported: the package and the benchmark's tracer
# read the halving document writer as halving.halving_result_to_json
RE_EXPORTED = {("halving", "halving_result_to_json")}


def unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are used by being exported
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return imported - used


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_import_is_used(path):
    unused = {
        name for name in unused_imports(path.read_text())
        if (path.stem, name) not in RE_EXPORTED
    }
    assert not unused


def test_gate_sees_a_left_over_import():
    assert unused_imports("import re\nfrom x import a, b as c\nc()\n") == {"re", "a"}
    assert unused_imports("from x import a\n__all__ = ['a']\n") == set()


def id_calls(source: str) -> list[int]:
    """Line numbers of the calls id(...) in source."""
    return [
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_module_calls_id(path):
    assert id_calls(path.read_text()) == []


def test_gate_sees_an_id_call():
    assert id_calls("x = {}\nx[id(x)] = 1\nx.id(2)\n") == [2]
