"""Every public routine of the library is reached by something that is not
its own unit test.

A top-level public function or class in ``src/sbrl/*.py`` counts as reached
when its name is used as code (a name or an attribute, not a comment or a
docstring) outside its own definition and outside ``__init__.py``: in its
module, in another library module, or in the acceptance suite.  The names
that fail are exactly the kept API listed below, so a new unreached routine
fails this test, and so does a promotion or deletion that leaves the list
stale.

A public method of a top-level class (properties and static methods
included) counts as reached when its name is used as code anywhere in the
library or the acceptance suite outside its own definition.  Methods are
matched by name, not by class, and none may be unreached.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "sbrl"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# reached only through their own unit tests, kept on purpose:
# CustomStorage is Python API; g0, linear_internal and
# certify_controller_general state results of the paper and await a
# config kind of their own
UNREACHED_API = {"CustomStorage", "g0", "linear_internal",
                 "certify_controller_general"}

PUBLIC = re.compile(r"[A-Za-z]\w*\Z")


def used_names(tree, skip=None):
    """Names used as code in ``tree``, leaving out the subtree ``skip``."""
    inside = set() if skip is None else {id(n) for n in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def library_trees():
    return {path.name: ast.parse(path.read_text())
            for path in sorted(LIBRARY.glob("*.py"))
            if path.name != "__init__.py"}


def unreached_names():
    trees = library_trees()
    acceptance = used_names(ast.parse(ACCEPTANCE.read_text()))
    unreached = set()
    for module, tree in trees.items():
        elsewhere = set(acceptance)
        for other, other_tree in trees.items():
            if other != module:
                elsewhere |= used_names(other_tree)
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and PUBLIC.match(node.name)):
                continue
            if node.name not in elsewhere | used_names(tree, skip=node):
                unreached.add(node.name)
    return unreached


def test_only_the_kept_api_is_unreached():
    assert unreached_names() == UNREACHED_API


def unreached_methods():
    trees = library_trees()
    acceptance = used_names(ast.parse(ACCEPTANCE.read_text()))
    unreached = set()
    for tree in trees.values():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if not (isinstance(node, ast.FunctionDef)
                        and PUBLIC.match(node.name)):
                    continue
                used = set(acceptance)
                for other_tree in trees.values():
                    used |= used_names(other_tree, skip=node)
                if node.name not in used:
                    unreached.add(f"{cls.name}.{node.name}")
    return unreached


def test_every_public_method_is_reached():
    assert unreached_methods() == set()
