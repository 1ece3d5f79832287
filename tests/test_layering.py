"""Layering: the CLI alone formats and writes files; the library modules
return arrays and dataclasses."""

import ast
from pathlib import Path

import dualfilter

SRC = Path(dualfilter.__file__).resolve().parent
FILE_MODULES = {"pathlib", "click"}     # what a module needs to write artifacts or talk to a user


def file_handling(path: Path) -> list[str]:
    """The file-module imports and CSV formatters a module holds."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef) and (node.name == "csv" or node.name.endswith("_csv")):
            found.append(f"defines {node.name}")
        elif isinstance(node, ast.Import):
            found += [f"imports {a.name}" for a in node.names if a.name.split(".")[0] in FILE_MODULES]
        elif isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] in FILE_MODULES:
            found.append(f"imports {node.module}")
    return found


def test_only_the_cli_formats_and_writes_files():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "cli.py")
    assert len(modules) >= 10
    assert {p.stem: found for p in modules if (found := file_handling(p))} == {}
