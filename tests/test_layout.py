"""Every function, method and class that src defines is used in src.

A helper that only tests call, or that nothing calls, is code the library
carries for no caller.  The scan parses each module of src/miop with ast
and looks for each defined name among the names and attributes that src
references anywhere.  Dunder names (called by the language) are exempt.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "miop"


def unreferenced_definitions() -> list:
    defined, referenced = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.setdefault(node.name, f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(f"{where} {name}" for name, where in defined.items()
                  if name not in referenced
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []
