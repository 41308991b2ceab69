"""Source hygiene: no package module imports a name it never uses, no
private definition is left unused, every public name and every public
member of a public class is read outside the tests, no package function is
recursive, every oracle is read and imports from the package only what its
rule allows, the CLI imports no heavy stdlib module, and integer data loads
neither ``json`` at import nor ``fractions``."""
import ast
import importlib
from fractions import Fraction
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Union

import pytest

import stripconcave
from stripconcave.core import Record

from fresh import fresh_python

PACKAGE = Path(stripconcave.__file__).parent
REPO = Path(__file__).resolve().parent.parent
TESTS = REPO / "tests"


def unused_imports(source: str) -> list:
    """Names bound by ``import`` statements that nothing else in the module reads.

    ``from __future__`` imports are directives, not bindings, and are skipped.
    A name counts as used when it appears as a ``Name`` or as the root of an
    attribute chain, or as a parameter of a pytest test or fixture, which
    pytest fills with the fixture of that name; names mentioned only inside
    string annotations count as unused.
    """
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {arg.arg for node in ast.walk(tree) if _takes_fixtures(node) for arg in node.args.args}
    return sorted(imported - used)


def _takes_fixtures(node) -> bool:
    """A ``test_*`` function, or one decorated with ``fixture`` or ``pytest.fixture(...)``."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    decorators = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return node.name.startswith("test_") or any(
        (d.attr if isinstance(d, ast.Attribute) else getattr(d, "id", None)) == "fixture"
        for d in decorators)


def test_no_unused_imports():
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py")) + sorted((REPO / "tools").glob("*.py"))
    found = {
        path.relative_to(REPO).as_posix(): names
        for path in paths
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def test_detector_flags_unused_names():
    source = "from __future__ import annotations\nimport os, json\nfrom a import b as c, d\nprint(json.dumps(d))\n"
    assert unused_imports(source) == ["c", "os"]
    source = ("import pytest\nfrom conf import tmp_db, tmp_dir, spare, other\n"
              "def test_a(tmp_db):\n    pass\n"
              "@pytest.fixture(scope='module')\ndef made(tmp_dir):\n    pass\n"
              "def helper(spare):\n    pass\n")
    assert unused_imports(source) == ["other", "spare"]


def unreferenced_private_definitions(sources: dict) -> list:
    """``module:name`` of each module-level private function or class
    (``_name``, not dunder) whose name no module reads.

    ``sources`` maps module names to source text.  A name is read when it
    appears as a ``Name``, as an attribute or in an import of any module,
    its own included; names are matched across modules, not per module.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            (module, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_")
            and not node.name.startswith("__")
        ]
        read |= names_read(tree)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def names_read(tree: ast.AST) -> set:
    """Every name that appears as a ``Name``, as an attribute or in an import;
    a ``Name`` that is only bound (``name = ...``) is not read."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if not isinstance(node.ctx, ast.Store):
                read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_unreferenced_private_definitions():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_definitions(sources) == []


def test_detector_flags_unreferenced_private_definitions():
    sources = {
        "a": (
            "def _local():\n    pass\n"
            "def _exported():\n    pass\n"
            "def _dead():\n    return _dead_class\n"
            "class _DeadClass:\n    def _method(self):\n        pass\n"
            "def __getattr__(name):\n    pass\n"
            "def public():\n    return _local()\n"
        ),
        "b": "from a import _exported\nimport a\na._attr_only\n",
        "c": "def _attr_only():\n    pass\n",
    }
    assert unreferenced_private_definitions(sources) == ["a:_DeadClass", "a:_dead"]


# Public names that only the tests read, each kept for a reason of its own.
UNREAD_PUBLIC_NAMES = {
    "config_to_json": "the inverse of config_from_json",
    "spec_to_json": "the inverse of spec_from_json",
    "permute_nu": "the paper's rearrangement of nu by adjacent zigzag swaps",
    "Rat": "the exact-rational type that the package's quoted annotations name",
}


def unread_public_names(public, sources) -> list:
    """The names of ``public`` that none of ``sources`` reads."""
    read = set().union(*(names_read(ast.parse(source)) for source in sources))
    return sorted(set(public) - read)


def sources_outside_the_tests() -> list:
    """The package modules other than ``__init__``, the demos and the benchmark."""
    paths = [path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"]
    paths += sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "bench").glob("*.py"))
    return [path.read_text() for path in paths]


def test_every_public_name_is_read_outside_the_tests():
    public = [name for name in stripconcave.__all__
              if not isinstance(getattr(stripconcave, name), ModuleType)]
    assert unread_public_names(public, sources_outside_the_tests()) == sorted(UNREAD_PUBLIC_NAMES)


def test_detector_flags_unread_public_names():
    sources = ["from a import imported\n", "import a\na.attr_only\nname_only()\n",
               "planted = bound = imported\n"]
    public = ["imported", "attr_only", "name_only", "planted"]
    assert unread_public_names(public, sources) == ["planted"]


# Public methods, properties and classmethods that only the tests read,
# each kept for a reason of its own.
UNREAD_PUBLIC_MEMBERS = {}


def unread_public_members(classes, sources) -> list:
    """``Class.name`` of each public method, property or classmethod defined
    in the body of one of ``classes`` that none of ``sources`` reads as an
    attribute."""
    read = {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)}
    return sorted(
        f"{cls.__name__}.{name}"
        for cls in classes
        for name, value in vars(cls).items()
        if not name.startswith("_") and name not in read
        and isinstance(value, (FunctionType, property, classmethod, staticmethod))
    )


def test_every_public_member_is_read_outside_the_tests():
    classes = [value for name in stripconcave.__all__
               if isinstance(value := getattr(stripconcave, name), type)]
    assert unread_public_members(classes, sources_outside_the_tests()) == sorted(UNREAD_PUBLIC_MEMBERS)


def test_detector_flags_unread_public_members():
    class Planted:
        slot = None

        def method(self):
            pass

        @property
        def prop(self):
            pass

        @classmethod
        def build(cls):
            pass

        def _private(self):
            pass

        def named_only(self):
            pass

    sources = ["x.method()\nx.prop\nnamed_only()\n"]
    assert unread_public_members([Planted], sources) == ["Planted.build", "Planted.named_only"]


def self_calling_functions(source: str) -> list:
    """Names of functions that call themselves by name, directly or from a
    def nested inside them.

    Calls through an attribute (``self.f()``) are not counted.
    """
    tree = ast.parse(source)
    return sorted(
        func.name
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == func.name
            for node in ast.walk(func)
        )
    )


def test_no_recursive_functions():
    found = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := self_calling_functions(path.read_text()))
    }
    assert found == {}


def test_detector_flags_self_calls():
    source = (
        "def f(n):\n    return f(n - 1) if n else 0\n"
        "def g():\n    def h():\n        return g()\n    return h\n"
        "def k(x):\n    return x.k()\n"
    )
    assert self_calling_functions(source) == ["f", "g"]


def orphan_oracles(oracle_source: str, reader_sources) -> list:
    """The top-level functions of ``oracle_source`` that no reader reads,
    neither directly nor through another oracle that is itself read."""
    body = ast.parse(oracle_source).body
    reads = {node.name: names_read(node) for node in body if isinstance(node, ast.FunctionDef)}
    todo = set().union(*(names_read(ast.parse(source)) for source in reader_sources)) & set(reads)
    reached = set()
    while todo:
        name = todo.pop()
        reached.add(name)
        todo |= (reads[name] & set(reads)) - reached
    return sorted(set(reads) - reached)


def test_every_oracle_is_read():
    readers = [path.read_text() for path in [*sorted(TESTS.glob("test_*.py")), TESTS / "golden.py"]]
    assert orphan_oracles((TESTS / "oracles.py").read_text(), readers) == []


def test_detector_flags_orphan_oracles():
    oracles = ("def used():\n    return helper()\n"
               "def helper():\n    return 1\n"
               "def _ramp_shape():\n    return _left_behind()\n"
               "def _left_behind():\n    return _ramp_shape()\n"
               "def by_attribute():\n    pass\n")
    readers = ["from oracles import used\n", "import oracles\noracles.by_attribute()\n"]
    assert orphan_oracles(oracles, readers) == ["_left_behind", "_ramp_shape"]


def library_imports_outside_the_rule(source: str) -> list:
    """What ``source`` imports from ``stripconcave`` other than its records,
    its errors and the functions that the module docstring names as
    ````name````; every plain ``import stripconcave...`` counts."""
    tree = ast.parse(source)
    doc = ast.get_docstring(tree) or ""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "stripconcave"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "stripconcave":
            module = importlib.import_module(node.module)
            for alias in node.names:
                value = getattr(module, alias.name, None)
                if not (isinstance(value, type) and issubclass(value, (Record, Exception))
                        or isinstance(value, FunctionType) and f"``{alias.name}``" in doc):
                    found.append(alias.name)
    return sorted(found)


def test_oracles_import_only_records_and_errors():
    assert library_imports_outside_the_rule((TESTS / "oracles.py").read_text()) == []


def test_detector_flags_library_imports_outside_the_rule():
    source = ('"""Oracles; ``integrate`` turns patterns into arrays, ``core`` is a module."""\n'
              "from stripconcave import BoundarySpec, InputError, check_trapezoid, integrate\n"
              "from stripconcave.flow import _slacks\n"
              "from stripconcave import core\n"
              "import stripconcave.tableau\n")
    assert library_imports_outside_the_rule(source) == [
        "_slacks", "check_trapezoid", "core", "stripconcave.tableau"]


def loaded_by(code: str) -> tuple:
    """The modules that ``code`` adds to those of a bare interpreter start,
    run in a fresh interpreter, and what it printed before the list."""
    probe = (
        "import sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    result = fresh_python(probe)
    assert result.returncode == 0, result.stderr
    out = result.stdout.splitlines()
    return set(out[-1].split()), "\n".join(out[:-1])


def test_cli_import_skips_dataclasses_and_inspect():
    """``dataclasses`` pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``;
    every CLI call would pay for them at start-up."""
    loaded, _ = loaded_by("import stripconcave.cli")
    assert "stripconcave.cli" in loaded
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)


FRACTION_STACK = {"fractions", "decimal", "numbers"}


def test_package_import_skips_json_and_fractions():
    """``json`` and ``fractions`` (with ``decimal`` and ``numbers``) load on
    first need, not with the package."""
    loaded, _ = loaded_by("import stripconcave")
    assert "stripconcave.core" in loaded
    assert loaded.isdisjoint(FRACTION_STACK | {"json"})


def test_integer_cli_call_skips_fractions():
    call = "from stripconcave import cli\nprint(cli.main(['check', '--spec', {!r}]))"
    loaded, out = loaded_by(call.format('{"lambda":[6,4,3,1,1],"lambda_bar":[5,2],"nu":[3,2,3]}'))
    assert out == '{"certificate":null,"feasible":true}\n0'
    assert "stripconcave.cli" in loaded and loaded.isdisjoint(FRACTION_STACK)
    loaded, out = loaded_by(call.format('{"lambda":[2,1],"nu":[3,0]}'))  # a str field, "kind"
    assert out == '{"certificate":{"I":[1],"deficit":0,"kind":"subset","lhs":-1},"feasible":false}\n1'
    assert loaded.isdisjoint(FRACTION_STACK)
    loaded, out = loaded_by(call.format('{"lambda":[2,"1/2"],"lambda_bar":["5/2"],"nu":[0]}'))
    assert out == ('{"certificate":{"I":[],"deficit":"1/2","kind":"subset","lhs":"-1/2"},'
                   '"feasible":false}\n1')
    assert "fractions" in loaded


def test_rat_is_read_on_demand():
    assert stripconcave.Rat == Union[int, Fraction]
    assert "Rat" in stripconcave.__all__
    assert stripconcave.core.Rat is stripconcave.Rat
    with pytest.raises(AttributeError, match="has no attribute 'Rot'"):
        stripconcave.Rot
