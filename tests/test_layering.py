"""Static layering checks on the ``mbmlat`` sources.

Each module may import only from the modules below it in ``LAYERS``, at
module level, and only names it uses.  A function-local import usually
hides an import cycle between layers; an unused one, sibling or stdlib,
hides a dependency that is not there.  No source holds a float literal
or a ``float(...)`` call: every decision is exact; nor do the modules
that compute in ints call ``int(...)``.  No ``except``
swallows an error to learn a yes/no answer, integer arguments above
``core`` are checked by its one helper, and every ``Wall(...)`` names its
two fields, which a positional call could swap unseen.  Only
``enumeration.learn_chamber`` writes the record of certified chambers, and
only ``WallSpec.reflective`` spells the squares that always reflect.  The
names the benchmark's tracer binds must also resolve, or its metrics read
0 without an error.
Importing the package must not load ``dataclasses``, nor, without
``site``, ``importlib.resources``, ``pathlib`` or ``tempfile``.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mbmlat"
BENCH_TRACING = SRC.parent.parent / "bench" / "tracing.py"
LAYERS = ["errors", "core", "enumeration", "chambers", "orbits", "catalog", "cli"]


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))


def _sibling_imports(tree: ast.Module):
    """(imported module, bound names) for each ``from .x import ...``."""
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module, [alias.asname or alias.name for alias in node.names]


def test_every_module_is_layered():
    assert sorted(LAYERS + ["__init__"]) == sorted(p.stem for p in SRC.glob("*.py"))


@pytest.mark.parametrize("module", LAYERS)
def test_no_function_local_imports(module):
    tree = _tree(module)
    top = {id(node) for node in tree.body}
    local = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top]
    assert local == [], f"{module}.py imports inside a function or class at lines {local}"


@pytest.mark.parametrize("module", LAYERS)
def test_sibling_imports_follow_layers_and_are_used(module):
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    below = LAYERS[:LAYERS.index(module)]
    for target, names in _sibling_imports(tree):
        assert target in below, f"{module}.py imports .{target}, which is not below it in {LAYERS}"
        unused = [n for n in names if n not in used]
        assert unused == [], f"{module}.py imports unused names {unused} from .{target}"


@pytest.mark.parametrize("module", LAYERS)
def test_module_level_imports_are_used(module):
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    unused = [n for n in bound if n not in used]
    assert unused == [], f"{module}.py imports unused names {unused}"


@pytest.mark.parametrize("module", LAYERS + ["__init__"])
def test_no_floating_point(module):
    floats = [node.lineno for node in ast.walk(_tree(module))
              if (isinstance(node, ast.Constant) and isinstance(node.value, float))
              or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float")]
    assert floats == [], f"{module}.py has a float literal or float() call at lines {floats}"


@pytest.mark.parametrize("module", ["enumeration", "chambers", "orbits"])
def test_no_int_casts(module):
    """These modules compute in ints and validate their inputs, so an
    ``int(...)`` call there could only truncate a float."""
    casts = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "int"]
    assert casts == [], f"{module}.py calls int() at lines {casts}"


def _names_int(node) -> bool:
    """The expression is ``int`` or a tuple holding it."""
    return (isinstance(node, ast.Name) and node.id == "int") or (
        isinstance(node, ast.Tuple) and any(_names_int(e) for e in node.elts))


@pytest.mark.parametrize("module", ["enumeration", "chambers", "orbits", "cli"])
def test_integer_arguments_have_one_check(module):
    """Integer arguments go through ``core.int_arg``, which refuses bools as
    ``core.int_matrix`` does; a hand-rolled ``isinstance(x, int)`` takes
    True for 1.  ``catalog`` keeps its own JSON type tests, whose errors
    name the entry."""
    tests = [node.lineno for node in ast.walk(_tree(module))
             if (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                 and len(node.args) == 2 and _names_int(node.args[1]))
             or (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                 and getattr(node.left.func, "id", None) == "type"
                 and any(_names_int(c) for c in node.comparators))]
    assert tests == [], f"{module}.py tests for int by hand at lines {tests}; use core.int_arg"


@pytest.mark.parametrize("module", LAYERS)
def test_walls_are_built_by_keyword(module):
    """``Wall`` is (square, vector), so that walls sort by their fields; a
    positional call in the (vector, square) order would swap them silently."""
    calls = [node.lineno for node in ast.walk(_tree(module))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Wall"
             and (node.args or sorted(k.arg or "**" for k in node.keywords) != ["square", "vector"])]
    assert calls == [], f"{module}.py builds a Wall without naming square= and vector= at lines {calls}"


def test_fractions_stay_at_the_boundary():
    """Only ``core`` (exact rationals at the interface) and ``cli`` (parsing)
    import ``fractions``; the kernels above ``core`` work in integers."""
    importers = {module for module in LAYERS for node in ast.walk(_tree(module))
                 if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
                 or (isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names))}
    assert importers <= {"core", "cli"}, f"{sorted(importers - {'core', 'cli'})} import fractions; only core and cli may"


def _scoped(tree: ast.Module):
    """(dotted name of the innermost enclosing def or class, "" at module
    level, node) for every node of the tree."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}".lstrip(".")
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "")


_MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "__setitem__", "__delitem__"}


def test_the_chamber_record_has_one_writer():
    """``learn_chamber`` is the one writer of ``_chambers``: it tests
    ``WallSpec.reflective`` before its certificate, so a store elsewhere
    could record a chamber for a spec whose chambers are no Coxeter
    chambers.  Reads (``in``, ``.get``) are free, and so is the binding that
    defines the record."""
    writes = []
    for module in LAYERS:
        for scope, node in _scoped(_tree(module)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _MUTATORS:
                target = node.func.value
            elif isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                target = node.value if isinstance(node, ast.Subscript) else node
            else:
                continue
            named = getattr(target, "id", getattr(target, "attr", None)) == "_chambers"
            defines = isinstance(node, ast.Name) and (module, scope) == ("enumeration", "")
            if named and not defines and (module, scope) != ("enumeration", "learn_chamber"):
                writes.append(f"{module}.py:{node.lineno}")
    assert writes == [], f"_chambers is written outside enumeration.learn_chamber at {writes}"


def test_the_reflective_squares_have_one_spelling():
    """The set of squares whose walls always reflect, {-1, -2}, is written
    once, in ``WallSpec.reflective``; every other test of a spec reads it."""
    spelled = [f"{module}.{scope}" for module in LAYERS for scope, node in _scoped(_tree(module))
               if isinstance(node, ast.Set) and _literal(node) == {-1, -2}]
    assert spelled == ["enumeration.WallSpec.reflective"], f"the set {{-1, -2}} is spelled out in {spelled}"


def _literal(node):
    """The value of a literal expression, or None for any other."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError):
        return None


def _bench_constant(name: str):
    """A literal module-level constant of bench/tracing.py, read without importing it."""
    tree = ast.parse(BENCH_TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"bench/tracing.py defines no {name}")


def test_benchmark_bindings_resolve():
    for module, names in _bench_constant("TRACED").items():
        mod = importlib.import_module(f"mbmlat.{module}")
        missing = [n for n in names if not callable(getattr(mod, n, None))]
        assert missing == [], f"bench/tracing.py traces {missing}, which mbmlat.{module} does not define"
    for metric, (module, name) in _bench_constant("CACHES").items():
        fn = getattr(importlib.import_module(f"mbmlat.{module}"), name, None)
        assert hasattr(fn, "cache_info"), f"{metric}: mbmlat.{module}.{name} is missing or has no cache_info()"


def _names_used(paths) -> set:
    """Every ``ast.Name`` id and ``ast.Attribute`` attr in the given sources."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_package_code_has_a_non_test_caller():
    """Package code is public API or has a caller in the package or the
    benchmark; code that only tests call, the test oracles among them, is
    dead weight on the package.  The API is every name ``__init__``
    imports, with the methods of the classes among them."""
    used = _names_used([*SRC.glob("*.py"), *BENCH_TRACING.parent.glob("*.py")])
    exported = {name for _, names in _sibling_imports(_tree("__init__")) for name in names}
    uncalled = []
    for module in LAYERS:
        for node in _tree(module).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in exported:
                continue
            if node.name not in used:
                uncalled.append(f"{module}.{node.name}")
            if isinstance(node, ast.ClassDef):
                uncalled += [f"{module}.{node.name}.{m.name}" for m in node.body
                             if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                             and m.name not in used]
    assert uncalled == [], f"only tests call {uncalled}"


def test_no_exception_is_swallowed():
    """An ``except`` whose body is only ``pass`` or ``continue`` turns an
    error into a yes/no answer, which a predicate should give directly."""
    swallowed = [f"{module}.py:{node.lineno}" for module in LAYERS + ["__init__"]
                 for node in ast.walk(_tree(module)) if isinstance(node, ast.ExceptHandler)
                 and all(isinstance(stmt, (ast.Pass, ast.Continue)) for stmt in node.body)]
    assert swallowed == [], f"exceptions swallowed at {swallowed}"


def test_import_loads_no_dataclasses():
    """Every CLI command pays for the import, so the records are
    ``NamedTuple``s: ``dataclasses`` would pull in ``inspect`` and
    generate code for each class.  A subprocess, as pytest loads both."""
    code = "import sys, mbmlat, mbmlat.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC.parent, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]", f"import mbmlat, mbmlat.cli loads {out.stdout.strip()}"


def test_import_loads_no_resource_machinery():
    """The catalog file lies beside ``catalog.py`` and is read with
    ``open()``, so finding it needs no ``importlib.resources``.  Under
    ``-S``, as ``site`` may load these modules itself."""
    code = ("import sys, mbmlat, mbmlat.cli; "
            "print(sorted({'importlib.resources', 'pathlib', 'tempfile'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], cwd=SRC.parent, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]", f"import mbmlat, mbmlat.cli loads {out.stdout.strip()}"
