"""Source hygiene of the package, its scripts and its tests, checked with
the standard library only (no linter is configured for the project)."""

import ast
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The package ``__init__`` is not scanned: its imports are the public API.
PUBLIC_API = ROOT / "src" / "qroute" / "__init__.py"


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def unused_imports_in(*patterns: str) -> dict[str, list[str]]:
    """Unused imports of each file matching a pattern under the repository root."""
    paths = sorted(p for pattern in patterns for p in ROOT.glob(pattern) if p != PUBLIC_API)
    assert paths, f"nothing matches {patterns}"
    return {
        str(path.relative_to(ROOT)): names
        for path in paths
        if (names := unused_imports(path.read_text(encoding="utf-8")))
    }


#: The parameters of a ``Policy`` implementation: the protocol fixes them,
#: whether or not one policy reads them all.
POLICY_CALL = ["self", "state", "mask", "rng"]


def unused_parameters(source: str) -> list[str]:
    """Parameters a function body never reads, as ``function.parameter``.

    ``self``, ``_``-prefixed names and ``Policy.__call__`` implementations
    are exempt. A read inside a nested function counts.
    """
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        if node.name == "__call__" and params == POLICY_CALL:
            continue
        read = {
            n.id
            for stmt in node.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        unused += [
            f"{node.name}.{p} (line {node.lineno})"
            for p in params
            if p != "self" and not p.startswith("_") and p not in read
        ]
    return unused


def test_scanner_sees_unused_and_attribute_uses():
    src = "import os\nimport numpy as np\nfrom a import b, c\nnp.zeros(1)\nc()\n"
    assert unused_imports(src) == ["b (line 3)", "os (line 1)"]


def test_no_unused_imports_in_tests():
    assert unused_imports_in("tests/*.py") == {}


def test_no_unused_imports_in_package_and_scripts():
    assert unused_imports_in("src/qroute/*.py", "scripts/*.py") == {}


def test_package_attributes_do_not_shadow_submodules():
    import qroute.evaluate as evaluate_module
    import qroute.train as train_module

    assert inspect.ismodule(train_module) and inspect.ismodule(evaluate_module)


def test_parameter_scanner():
    src = (
        "def f(a, b, _c, *args, d, **kw):\n    b = 1\n    def g():\n        return a + d\n    return g\n"
        "class P:\n    def __call__(self, state, mask, rng):\n        return None\n"
    )
    assert unused_parameters(src) == ["f.b (line 1)", "f.args (line 1)", "f.kw (line 1)"]


def test_no_unused_parameters():
    paths = sorted((ROOT / "src" / "qroute").glob("*.py"))
    unused = {path.name: names for path in paths if (names := unused_parameters(path.read_text(encoding="utf-8")))}
    assert unused == {}


def defined_functions(source: str) -> list[tuple[str, int]]:
    """(name, line) of every function and method a module defines, dunder
    methods left out."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def names_read(source: str) -> set[str]:
    """Every name a module reads: loaded names and attributes, imported
    names, and string constants (which name the targets of a patch)."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def test_function_scanner():
    src = (
        "import m\nfrom a import f\nclass C:\n    def __len__(self):\n        return 0\n"
        "    def used(self):\n        return m.g\n    def unused(self):\n        x = 1\n"
        "def h():\n    return C().used()\ntarget = 'patched'\n"
    )
    read = names_read(src)
    assert read >= {"m", "f", "g", "C", "used", "patched"} and "unused" not in read and "x" not in read
    assert sorted(defined_functions(src)) == [("h", 10), ("unused", 8), ("used", 6)]


def names_read_anywhere() -> set[str]:
    """Every name the package, scripts, tests or benchmark read."""
    return set().union(
        *(
            names_read(path.read_text(encoding="utf-8"))
            for pattern in ("src/qroute/*.py", "scripts/*.py", "tests/*.py", "perfbench/*.py")
            for path in ROOT.glob(pattern)
        )
    )


def unread_in_package(defined) -> list[str]:
    """The names ``defined(source)`` lists for a package module that
    nothing reads, as ``module: name (line n)``."""
    read = names_read_anywhere()
    return [
        f"{path.name}: {name} (line {line})"
        for path in sorted((ROOT / "src" / "qroute").glob("*.py"))
        for name, line in defined(path.read_text(encoding="utf-8"))
        if name not in read
    ]


def test_no_unread_functions():
    """A function or method of the package whose name nothing in the
    package, scripts, tests or benchmark reads is dead code. Names are
    matched alone, so a method that shares its name with a read name passes."""
    assert unread_in_package(defined_functions) == []


def module_constants(source: str) -> list[tuple[str, int]]:
    """(name, line) of every upper-case name a module assigns at its top
    level."""
    return [
        (target.id, node.lineno)
        for node in ast.parse(source).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.isupper()
    ]


def test_constant_scanner():
    src = (
        "A = 1\nB: int = 2\n_C = 3\nlower = 4\nD = A\nclass K:\n    E = 5\n"
        "def f():\n    F = 6\n    return F\n"
    )
    assert module_constants(src) == [("A", 1), ("B", 2), ("_C", 3), ("D", 5)]
    assert {"A"} <= names_read(src) and not {"B", "_C", "D"} & names_read(src)


def test_no_unread_constants():
    """An upper-case module constant of the package that nothing in the
    package, scripts, tests or benchmark reads, besides its own
    assignment, is dead code."""
    assert unread_in_package(module_constants) == []


def defined_classes(source: str) -> list[tuple[str, int]]:
    """(name, line) of every class a module defines."""
    return [(node.name, node.lineno) for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]


def test_class_scanner():
    src = "class A:\n    class B:\n        pass\nclass C(A):\n    pass\ndef f():\n    class D:\n        pass\n"
    assert sorted(defined_classes(src)) == [("A", 1), ("B", 2), ("C", 4), ("D", 7)]
    assert {"A"} <= names_read(src) and not {"B", "C", "D"} & names_read(src)


def test_no_unread_classes():
    """A class of the package that nothing in the package, scripts, tests or
    benchmark reads is dead code."""
    assert unread_in_package(defined_classes) == []


def test_readme_layout_lists_every_module():
    """Every module of the package but ``__init__`` and ``__main__`` has a
    line under the README's ``## Layout``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    listed = {line.split()[0] for line in layout.splitlines() if line.startswith("  ") and line.strip()}
    modules = {path.name for path in (ROOT / "src" / "qroute").glob("*.py")} - {"__init__.py", "__main__.py"}
    assert modules - listed == set()
