"""Every function of ``src/bellkit`` runs on some golden argv.

The test replays each ``CASES`` argv of ``test_golden_cli`` and
``test_golden_verify`` under ``sys.settrace`` and records the code objects
of the package that start.  A ``def`` (found with ``ast``) is reached when
a code object starts on one of its lines: its own, whose first line is the
``def`` line or its first decorator's, or one nested in it, such as the
handler that ``cli._double_sums`` returns at import.  Code that no command
runs fails the test unless ``ALLOWED`` names it, with the reason it stays.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import bellkit
import test_golden_cli
import test_golden_verify

PACKAGE = Path(bellkit.__file__).resolve().parent

#: "module.qualname" -> why it stays though no golden argv enters it
ALLOWED = {
    "cli.console_main": "the installed bellkit command runs it (a CI step)",
    "egf.TruncatedEGF.__repr__": "the egf doctests print series with it",
    "sequences.SequenceSpec.__repr__": "bell._integral_entry's fault message uses it",
    "sparsepoly.SparsePoly.__eq__": "bell_symbolic returns a public value type",
}


def functions(module: Path):
    """(qualname, first line, last line) of each def in ``module``; the first
    line is the first decorator's when there is one."""

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                lines = [d.lineno for d in child.decorator_list] + [child.lineno]
                yield f"{prefix}{child.name}", min(lines), child.end_lineno
                yield from walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.")

    yield from walk(ast.parse(module.read_text(encoding="utf-8")), f"{module.stem}.")


def started_lines(tmp_path) -> set[tuple[Path, int]]:
    """(file, first line) of each package code object that starts on a golden argv."""
    files = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("bellkit."):
            files[module.__file__] = Path(module.__file__).resolve()
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()  # a warm cache would hide the call
    test_golden_cli.write_files(tmp_path)
    seen = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if code.co_filename in files:
            seen.add((files[code.co_filename], code.co_firstlineno))

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        for argv in test_golden_cli.CASES:
            test_golden_cli.digest(argv, tmp_path)
        for argv in test_golden_verify.CASES:
            test_golden_verify.digest(argv)
    finally:
        sys.settrace(previous)
    return seen


def test_every_function_runs_on_some_golden_argv(tmp_path):
    seen = started_lines(tmp_path)
    unreached = []
    for module in sorted(PACKAGE.glob("*.py")):
        lines = [line for path, line in seen if path == module]
        for name, first, last in functions(module):
            if not any(first <= line <= last for line in lines):
                unreached.append(f"{module.name}:{first} {name}")
    stray = [u for u in unreached if u.split()[1] not in ALLOWED]
    assert not stray, "no golden argv enters:\n" + "\n".join(stray)
    # an allowance that some argv now reaches is dropped from ALLOWED
    assert sorted(u.split()[1] for u in unreached) == sorted(ALLOWED)
