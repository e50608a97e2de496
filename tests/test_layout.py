"""The routes stay independent: each module imports only the shared base
(weights, partition, errors) it is allowed, never another route, and no
module imports the tests' references (the scalar partition count, the
Freudenthal recursion over every positive root, the tests' algebra);
Tsukamoto names no interlacing test, so its zeros are its own.  Every memo
in the package is bounded, every value type is a validated named tuple (no
module imports dataclasses), and the package ships no public function or
class that it does not read itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "sobranch"

ALLOWED = {
    "errors": set(),
    "weights": {"errors"},
    "partition": {"weights", "errors"},
    "kostant": {"weights", "partition", "errors"},
    "clebsch_gordan": {"weights", "partition", "errors"},
    "tsukamoto": {"weights", "errors"},
    "oracle": {"weights", "errors"},
    "u3_so3": {"weights", "clebsch_gordan", "errors"},
}


def relative_imports(module: str) -> set[str]:
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.add(node.module.split(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_only_its_allowed_layers(module):
    assert relative_imports(module) <= ALLOWED[module], module


def names(source: str | ast.AST) -> set[str]:
    """Every identifier ``source`` (text or a syntax tree) uses: names,
    attributes, imported names and their aliases."""
    found = set()
    for node in ast.walk(ast.parse(source) if isinstance(source, str) else source):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update(filter(None, (node.name.split(".")[-1], node.asname)))
    return found


def test_tsukamoto_decides_its_own_zeros():
    # the a-tuple boxes alone make the series zero: the vanishing pattern is
    # what the sweeps test the route against, never a shortcut inside it
    assert "interlace" not in names((SRC / "tsukamoto.py").read_text())


@pytest.mark.parametrize("source, flagged", [
    ("from .weights import check_pair, interlace\n", True),
    ("from .weights import interlace as triple\n", True),
    ("from . import weights\nweights.interlace('triple', 'B', lam, mu)\n", True),
    ("ok = interlace('triple', family, lam, mu)\n", True),
    ("from .weights import check_pair\n", False),
    ('"""off the vanishing pattern (triple interlacing)"""\n', False),
])
def test_name_scan_flags_every_form(source, flagged):
    assert ("interlace" in names(source)) == flagged


#: what an absolute import of the tests names: the package, or one of its
#: modules on the path pytest gives them
TEST_MODULES = {"tests"} | {path.stem for path in Path(__file__).resolve().parent.glob("*.py")}


def absolute_imports(source: str) -> set[str]:
    """The top-level names of every absolute import in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.add(node.module.split(".")[0])
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_the_tests(path):
    assert absolute_imports(path.read_text()).isdisjoint(TEST_MODULES)


@pytest.mark.parametrize("source, flagged", [
    ("from partition_reference import ScalarPartitionFunction\n", True),
    ("import tests.partition_reference as reference\n", True),
    ("from freudenthal_reference import reference_dominant_mults\n", True),
    ("from algebra_reference import xi\n", True),
    ("def f():\n    import conftest\n", True),
    ("from .partition import partition_function\n", False),
    ("import itertools\n", False),
])
def test_test_import_scan_flags_every_form(source, flagged):
    assert (not absolute_imports(source).isdisjoint(TEST_MODULES)) == flagged


CACHES = {"lru_cache", "cache"}


def unbounded_caches(source: str) -> list[int]:
    """Line numbers of every use of functools' lru_cache or cache that does
    not pass a maxsize given as an int literal or a module-level int
    constant: a bare decorator, ``cache`` itself, or ``maxsize=None``."""
    tree = ast.parse(source)
    constants = {
        node.targets[0].id
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and isinstance(node.value, ast.Constant)
        and type(node.value.value) is int
    }
    imported = {  # local name -> functools name
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHES
    }

    def cache_kind(node) -> str | None:
        if isinstance(node, ast.Name):
            return imported.get(node.id)
        if (isinstance(node, ast.Attribute) and node.attr in CACHES
                and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            return node.attr
        return None

    def bounded(arg) -> bool:
        if isinstance(arg, ast.Constant):
            return type(arg.value) is int
        return isinstance(arg, ast.Name) and arg.id in constants

    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    bad = []
    for node in ast.walk(tree):
        kind = cache_kind(node)
        if kind is None:
            continue
        call = calls.get(id(node))
        sizes = []
        if call is not None:
            sizes = call.args[:1] + [kw.value for kw in call.keywords if kw.arg == "maxsize"]
        if kind == "cache" or len(sizes) != 1 or not bounded(sizes[0]):
            bad.append(node.lineno)
    return bad


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_every_cache_is_bounded(path):
    assert unbounded_caches(path.read_text()) == []


@pytest.mark.parametrize("source, flagged", [
    ("from functools import lru_cache\nN = 4\n@lru_cache(maxsize=N)\ndef f(x): pass\n", False),
    ("from functools import lru_cache\n@lru_cache(8)\ndef f(x): pass\n", False),
    ("from functools import lru_cache\n@lru_cache\ndef f(x): pass\n", True),
    ("from functools import lru_cache\n@lru_cache()\ndef f(x): pass\n", True),
    ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass\n", True),
    ("import functools\n@functools.lru_cache(maxsize=size())\ndef f(x): pass\n", True),
    ("from functools import cache\n@cache\ndef f(x): pass\n", True),
    ("import functools\ng = functools.cache(len)\n", True),
    ("from functools import lru_cache as memo\n@memo\ndef f(x): pass\n", True),
    ("cache = {}\ncache[1] = 2\n", False),
])
def test_cache_scan_flags_every_unbounded_form(source, flagged):
    assert bool(unbounded_caches(source)) == flagged


def dataclass_imports(source: str) -> list[int]:
    """Line numbers of every import of the dataclasses module or of a name
    from it."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names))
        or (isinstance(node, ast.ImportFrom) and node.module == "dataclasses")
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.stem)
def test_no_module_imports_dataclasses(path):
    assert dataclass_imports(path.read_text()) == []


@pytest.mark.parametrize("source, flagged", [
    ("from dataclasses import dataclass\n", True),
    ("import dataclasses\n", True),
    ("import itertools, dataclasses as dc\n", True),
    ("def f():\n    from dataclasses import field\n", True),
    ("from collections import namedtuple\n", False),
])
def test_dataclass_scan_flags_every_import_form(source, flagged):
    assert bool(dataclass_imports(source)) == flagged


#: public definitions that nothing in the package reads: the paper's SU(2)
#: tensor lemma, which criteria 4-6 reproduce, and Tsukamoto's a-tuples,
#: which ``sobranch.__all__`` exports, the tests' reference series sums and
#: perfbench's tracer looks up in ``sobranch.tsukamoto`` (it fails at install
#: without it), though the route sums its series box by box
UNREAD_ALLOWED = {"enumerate_atuples", "su2_tensor_multiplicity"}


def unread_definitions(sources: dict[str, str]) -> set[str]:
    """The public top-level functions and classes of ``sources`` (module
    name -> text) that no module reads outside their own definition;
    ``__init__``, which only re-exports, is not read."""
    defined, read = set(), set()
    for module, source in sources.items():
        if module == "__init__":
            continue
        for node in ast.parse(source).body:
            own = {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else set()
            defined |= {name for name in own if not name.startswith("_")}
            read |= names(node) - own
    return defined - read


def test_every_public_definition_is_read_in_the_package():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    assert unread_definitions(sources) == UNREAD_ALLOWED


@pytest.mark.parametrize("sources, flagged", [
    ({"a": "def f(): pass\n"}, {"f"}),
    ({"a": "def f(): pass\n", "b": "from .a import f\n"}, set()),
    ({"a": "def f(): pass\n", "b": "from . import a\ng = a.f\n"}, set()),
    ({"a": "def f(): pass\ndef g(): return f()\n"}, {"g"}),
    ({"a": "def f(n): return f(n - 1)\n"}, {"f"}),
    ({"a": "class C:\n    def copy(self): return C()\n"}, {"C"}),
    ({"a": "class C: pass\n", "__init__": "from .a import C\n__all__ = ['C']\n"}, {"C"}),
    ({"a": "def _f(): pass\nclass _C: pass\n"}, set()),
    ({"a": "def f():\n    def g(): pass\n    return g\nf()\n"}, set()),
])
def test_unread_scan_flags_every_form(sources, flagged):
    assert unread_definitions(sources) == flagged
