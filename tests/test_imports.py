"""No module of the package imports another module's private names."""

import ast
from pathlib import Path

import bellkit

PACKAGE = Path(bellkit.__file__).resolve().parent


def imports(module: Path):
    """(imported module, names) of each ``from ... import`` in ``module``, the
    package's own modules written as "bellkit.<module>"."""
    for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            source = "bellkit." * (node.level > 0) + (node.module or "")
            yield node.lineno, source, [alias.name for alias in node.names]


def test_modules_are_found():
    assert {"bell.py", "egf.py", "transforms.py"} <= {p.name for p in PACKAGE.glob("*.py")}


def test_no_private_name_crosses_modules():
    found = [
        f"{module.name}:{line}: from {source} import {name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for line, source, names in imports(module)
        if source.startswith("bellkit")
        for name in names
        if name.startswith("_")
    ]
    assert found == []


def test_egf_does_not_read_the_bell_route():
    sources = {source for _, source, _ in imports(PACKAGE / "egf.py")}
    assert not sources & {"bellkit.bell", "bellkit.transforms"}
