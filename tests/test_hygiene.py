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
