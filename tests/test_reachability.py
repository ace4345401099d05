"""Every public routine of the library is reached, and every option of it is
set, by something that is not its own unit test.

A top-level public function or class in ``src/sbrl/*.py`` counts as reached
when its name is used as code (a name or an attribute, not a comment or a
docstring) outside its own definition and outside ``__init__.py``: in its
module, in another library module, or in the acceptance suite.  The names
that fail are exactly the kept API listed below, so a new unreached routine
fails this test, and so does a promotion or deletion that leaves the list
stale.

A public method of a top-level class (properties and static methods
included) counts as reached when its name is used as an attribute
(``obj.name``) anywhere in the library or the acceptance suite outside its
own definition; a bare name, such as a local function of the same name,
does not count.  Methods are matched by name, not by class, and none may be
unreached.

A defaulted parameter of a public function or method counts as passed when
some call of that name in the library or the acceptance suite gives it by
keyword or by position; a call with ``*`` or ``**`` passes everything.  The
parameters that are never passed are exactly the pinned set below.

A module-level UPPER_CASE constant (leading underscore or not) counts as
read when library code loads it outside its own assignment; a constant
only a test sets or monkeypatches is a knob with no effect, and fails.
"""

import ast
import functools
import re
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "sbrl"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# reached only through their own unit tests, kept on purpose:
# CustomStorage, and check_convex that certifies it, are Python API (every
# storage a config builds claims convexity); certify_controller_general
# states a result of the paper and awaits a config kind of its own;
# simulate, one trajectory under one policy, and expect, one Monte Carlo
# expectation, are public API and layer boundaries of bench/trace_cli.py
UNREACHED_API = {"CustomStorage", "check_convex", "certify_controller_general",
                 "expect", "simulate"}

# defaulted parameters no call passes, kept on purpose
UNPASSED_OPTIONS = {
    # the CLI entry point reads sys.argv unless a caller gives argv
    "main.argv",
    # the divergence bound, OVERFLOW_BOUND unless a caller gives one
    "simulate.overflow",
    "simulate_ensemble.overflow",
    # the time window of the paper's time-varying theorem, one step until
    # that theorem gets a config kind of its own or is deleted
    "certify_controller_general.k_window",
    "taylor_certify.k_window",
}

PUBLIC = re.compile(r"[A-Za-z]\w*\Z")


class Index:
    """One walk of a parsed tree: its name uses (names and attributes),
    its attribute uses alone and its calls by name."""

    def __init__(self, tree):
        self.tree = tree
        self.uses = Counter()
        self.attributes = Counter()
        # name -> [(positional count, keyword names, has * or **)]
        self.calls = defaultdict(list)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                self.uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                self.uses[node.attr] += 1
                self.attributes[node.attr] += 1
            elif isinstance(node, ast.Call):
                fn = node.func
                name = (fn.id if isinstance(fn, ast.Name)
                        else getattr(fn, "attr", None))
                if name is None:
                    continue
                keywords = {k.arg for k in node.keywords}
                star = (None in keywords
                        or any(isinstance(a, ast.Starred) for a in node.args))
                self.calls[name].append((len(node.args), keywords, star))


def uses_in(node):
    """Name uses inside one definition."""
    return Index(node).uses


def public_functions(tree):
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and PUBLIC.match(node.name)]


def public_methods(tree):
    """(class, method) for each public method of a top-level class."""
    return [(cls, node) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and PUBLIC.match(node.name)]


@functools.cache
def indexes():
    """One Index per library module, and the acceptance suite's Index."""
    library = [Index(ast.parse(path.read_text()))
               for path in sorted(LIBRARY.glob("*.py"))
               if path.name != "__init__.py"]
    return library, Index(ast.parse(ACCEPTANCE.read_text()))


def total_uses(kind="uses"):
    """Uses of every name ("uses") or attribute ("attributes") in the
    library and the acceptance suite."""
    library, acceptance = indexes()
    total = Counter(getattr(acceptance, kind))
    for index in library:
        total.update(getattr(index, kind))
    return total


def unreached_names():
    library, _ = indexes()
    total = total_uses()
    unreached = set()
    for index in library:
        for node in index.tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and PUBLIC.match(node.name)):
                continue
            if total[node.name] == uses_in(node)[node.name]:
                unreached.add(node.name)
    return unreached


def test_only_the_kept_api_is_unreached():
    assert unreached_names() == UNREACHED_API


def unreached_methods():
    library, _ = indexes()
    total = total_uses("attributes")
    return {f"{cls.name}.{node.name}"
            for index in library
            for cls, node in public_methods(index.tree)
            if total[node.name] == Index(node).attributes[node.name]}


def test_every_public_method_is_reached():
    assert unreached_methods() == set()


def defaulted(node, bound):
    """(name, positional index or None) of each defaulted parameter; a
    bound method's index leaves out self."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def unpassed_options():
    library, acceptance = indexes()
    calls = defaultdict(list)
    for index in (*library, acceptance):
        for name, found in index.calls.items():
            calls[name] += found
    routines = []
    for index in library:
        routines += [(node.name, node, 0) for node in public_functions(index.tree)]
        for cls, node in public_methods(index.tree):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in node.decorator_list)
            routines.append((f"{cls.name}.{node.name}", node, int(not static)))
    unpassed = set()
    for label, node, bound in routines:
        for param, position in defaulted(node, bound):
            if not any(star or param in keywords
                       or (position is not None and count > position)
                       for count, keywords, star in calls[node.name]):
                unpassed.add(f"{label}.{param}")
    return unpassed


def test_every_option_is_passed_by_some_caller():
    assert unpassed_options() == UNPASSED_OPTIONS


CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*\Z")


def unread_constants():
    library = {path.name: ast.parse(path.read_text())
               for path in sorted(LIBRARY.glob("*.py"))
               if path.name != "__init__.py"}
    reads = Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in library.values() for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
        and isinstance(node.ctx, ast.Load))
    constants = {
        (module, target.id)
        for module, tree in library.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and CONSTANT.match(target.id)}
    assert len(constants) > 30  # the walk found the module constants
    return {f"{module}:{name}" for module, name in constants
            if not reads[name]}


def test_every_module_constant_is_read_by_the_library():
    assert unread_constants() == set()


def test_all_lists_every_public_import_and_each_resolves():
    # a stale or missing entry fails here, not at ``from sbrl import *``
    import sbrl
    tree = ast.parse((LIBRARY / "__init__.py").read_text())
    imported = sorted(alias.asname or alias.name for node in tree.body
                      if isinstance(node, ast.ImportFrom)
                      for alias in node.names
                      if PUBLIC.match(alias.asname or alias.name))
    assert sorted(sbrl.__all__) == imported
    namespace = {}
    exec("from sbrl import *", namespace)
    assert set(sbrl.__all__) <= namespace.keys()
