"""Static checks of the package source, with the standard library's ast.

Every name a module of src/polycf imports is read in that module, and every
private module-level name (one leading underscore) is read somewhere in the
package outside its own definition, and only the count reader cf._count
reads sys.maxsize, the bound of every count.  Only cf._lowest, which
only cf._fraction and convergents call, builds a Fraction past its
constructor: by object.__new__ and a write of its private slots; and
transforms.py calls Fraction with two arguments nowhere, building every
such value by cf._fraction.  In analysis.py, _split is the one function
that calls itself, and every series oracle sums by it.  The limit loop
cf._limit has three callers, evaluate, verify_limit and the CLI's eval
command, and no second entry point wraps it.
"""

import ast
import pathlib

import pytest

_SOURCES = sorted((pathlib.Path(__file__).parent.parent / "src" / "polycf").glob("*.py"))
_TREES = {path.name: ast.parse(path.read_text(), str(path)) for path in _SOURCES}


def _imported(tree):
    """(line, name) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def _read(node):
    """The names node reads: loaded names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _defined(statement):
    """The module-level names a top-level statement defines."""
    if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [statement.name]
    targets = []
    if isinstance(statement, ast.Assign):
        targets = statement.targets
    elif isinstance(statement, ast.AnnAssign):
        targets = [statement.target]
    return [sub.id for target in targets for sub in ast.walk(target) if isinstance(sub, ast.Name)]


@pytest.mark.parametrize("module", sorted(_TREES))
def test_no_unused_import(module):
    tree = _TREES[module]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert [(line, name) for line, name in _imported(tree) if name not in loaded] == []


def test_every_private_module_level_name_is_read():
    statements = [(module, s, set(_read(s))) for module, tree in _TREES.items() for s in tree.body]
    unread = [
        f"{module}: {name}"
        for module, statement, _ in statements
        for name in _defined(statement)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in read for _, other, read in statements if other is not statement)
    ]
    assert unread == []


def test_only_the_count_reader_reads_sys_maxsize():
    readers = [f"{module}: {', '.join(_defined(statement)) or type(statement).__name__}"
               for module, tree in _TREES.items() for statement in tree.body
               if "maxsize" in set(_read(statement))]
    assert readers == ["cf.py: _count"]


def _fraction_slot_writes(node):
    """What in node builds a Fraction by hand: a __new__ call given Fraction,
    and a store to, or a string naming, _numerator or _denominator."""
    slots = ("_numerator", "_denominator")
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "__new__"
                and any(isinstance(arg, ast.Name) and arg.id == "Fraction" for arg in sub.args)):
            yield "__new__(Fraction)"
        elif isinstance(sub, ast.Attribute) and sub.attr in slots and isinstance(sub.ctx, ast.Store):
            yield sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value in slots:
            yield sub.value


def test_only_the_trusted_fraction_builder_writes_fraction_slots():
    writes = sorted(f"{module}: {', '.join(_defined(statement)) or type(statement).__name__}: {what}"
                    for module, tree in _TREES.items() for statement in tree.body
                    for what in _fraction_slot_writes(statement))
    assert writes == ["cf.py: _lowest: __new__(Fraction)", "cf.py: _lowest: _denominator",
                      "cf.py: _lowest: _numerator"]
    callers = [f"{module}: {', '.join(_defined(statement))}"
               for module, tree in _TREES.items() for statement in tree.body
               if "_lowest" in set(_read(statement))]
    assert callers == ["cf.py: _fraction", "cf.py: convergents"]
    two_argument_builds = [sub.lineno for sub in ast.walk(_TREES["transforms.py"])
                           if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                           and sub.func.id == "Fraction" and len(sub.args) == 2]
    assert two_argument_builds == []


def _called(node):
    """The plain names node calls."""
    return {sub.func.id for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)}


def test_one_splitting_routine_sums_the_series_oracles():
    functions = {node.name: node for node in ast.walk(_TREES["analysis.py"])
                 if isinstance(node, ast.FunctionDef)}
    assert [name for name, node in functions.items() if name in _called(node)] == ["_split"]
    assert [name for name in ("_fp_pi", "_fp_e", "_fp_zeta")
            if "_split" not in _called(functions[name])] == []


def test_the_limit_loop_has_one_caller_per_entry_point():
    callers = sorted(f"{module}: {', '.join(_defined(statement))}"
                     for module, tree in _TREES.items() for statement in tree.body
                     if any(isinstance(sub, ast.Call) and "_limit" in _read(sub.func)
                            for sub in ast.walk(statement)))
    assert callers == ["analysis.py: verify_limit", "cf.py: evaluate", "cli.py: _cmd_eval"]
    defined = {node.name for tree in _TREES.values() for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"extrapolate", "_estimate"} == set()
