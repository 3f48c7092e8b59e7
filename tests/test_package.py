"""The package surface: ``import lattact`` resolves each exported name on
first use from its home module, lists it in ``dir`` and ``*`` imports, and
keeps no copy of it, so a function rebound in its home module is seen."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lattact

EXPORTED = [name for name in lattact.__all__ if name != "__version__"]


def test_dir_lists_every_exported_name():
    assert set(lattact.__all__) <= set(dir(lattact))


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from lattact import *", namespace)
    assert set(lattact.__all__) <= set(namespace)
    for name in EXPORTED:
        assert namespace[name] is getattr(lattact, name), name


def test_each_name_is_its_home_module_attribute():
    for name in EXPORTED:
        obj = getattr(lattact, name)
        home = obj.__module__
        assert home.startswith("lattact."), name
        assert getattr(importlib.import_module(home), name) is obj, name
    # read through the home module every time, never copied into the package
    assert not set(EXPORTED) & set(vars(lattact))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'lattact' has no attribute 'no_such_name'$"):
        lattact.no_such_name
    assert not hasattr(lattact, "no_such_name")


def test_rebinding_in_the_home_module_is_seen(monkeypatch):
    from lattact import group_actions

    original = group_actions.fundamental_data

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(group_actions, "fundamental_data", patched)
        assert lattact.fundamental_data is patched
    assert lattact.fundamental_data is original


def test_walls_does_not_import_group_actions():
    # walls names group_actions' types only in annotations, so importing it
    # must not load group_actions (segment_vectors users never need it)
    src = str(Path(lattact.__file__).resolve().parents[1])
    code = "import sys, lattact.walls; print('lattact.group_actions' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# The functions that name Fraction: the input checks, the two rational
# outputs (discriminant form values, wall eigenprojections), and rref and
# solve. Every other kernel works on integers only.
FRACTION_USERS = {
    "linalg.int_rows",
    "linalg.rational_vec",
    "linalg.rref",
    "linalg.solve",
    "lattice.discriminant_form",
    "walls._halved",
}


def _functions_where(matches):
    """module.function (or module.Class.method) of every library function
    with a node, nested functions included, for which matches is true."""
    found = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(matches(n) for n in ast.walk(child)):
                    found.add(prefix + child.name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")

    for path in Path(lattact.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), f"{path.stem}.")
    return found


def test_only_the_allowed_functions_name_fraction():
    assert _functions_where(lambda n: isinstance(n, ast.Name) and n.id == "Fraction") == FRACTION_USERS


def test_no_library_module_imports_fractions_at_module_level():
    # fractions (with decimal and numbers) loads only where a Fraction is built
    for path in Path(lattact.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Import):
                assert "fractions" not in [alias.name for alias in node.names], path.name
            elif isinstance(node, ast.ImportFrom):
                assert node.level or node.module != "fractions", path.name


# The functions that decide what an exact argument is, by calling
# isinstance with one of these types: linalg's input boundary, and nothing
# else. Every other module asks int_rows, rational_vec or is_bound.
EXACT_TYPES = {"int", "bool", "Fraction", "Rational"}
EXACTNESS_DECIDERS = {"linalg.int_rows", "linalg.is_bound"}


def _tests_an_exact_type(node):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"):
        return False
    kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
    return any(isinstance(k, ast.Name) and k.id in EXACT_TYPES for k in kinds)


def test_only_the_input_boundary_decides_what_is_exact():
    assert _functions_where(_tests_an_exact_type) == EXACTNESS_DECIDERS


# The library functions that only tests call: solve, the rational solve
# the benchmark's tracer names (rref is named by solve). Every other
# top-level function is named by library code or exported; a new helper
# that serves tests alone belongs in tests/helpers.py.
TEST_ONLY = {"linalg.solve"}


def test_only_the_listed_functions_serve_tests_alone():
    trees = {path.stem: ast.parse(path.read_text()) for path in Path(lattact.__file__).parent.glob("*.py")}
    named = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    # module hooks such as __getattr__ are called by the interpreter
    unnamed = {
        f"{stem}.{node.name}"
        for stem, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("__")
        and node.name not in named
        and node.name not in lattact.__all__
    }
    assert unnamed == TEST_ONLY


def _unread_imports(tree):
    """Names a module's import statements bind, anywhere in it, that no
    expression of the module reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_no_library_module_imports_a_name_it_never_reads():
    unread = {
        path.name: sorted(_unread_imports(ast.parse(path.read_text())))
        for path in Path(lattact.__file__).parent.glob("*.py")
    }
    assert {name: names for name, names in unread.items() if names} == {}
    # the scan sees an orphaned import, in a function body too
    orphan = "from .lattice import Isometry, _trusted\n\ndef f():\n    import math\n    return _trusted\n"
    assert _unread_imports(ast.parse(orphan)) == {"Isometry", "math"}
