"""Every function, method and class that src defines is used in src.

A helper that only tests call, or that nothing calls, is code the library
carries for no caller.  The scan parses each module of src/miop with ast
and looks for each defined name among the names and attributes that src
references anywhere.  A method or property counts as used only when src
reads it as an attribute: a local variable of the same name is no caller.
Dunder names (called by the language) are exempt.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "miop"


def unreferenced_definitions(src: Path = SRC) -> list:
    defined, names, attrs = [], set(), set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((node.name, id(node) in methods, f"{path.relative_to(src)}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
    return sorted(f"{where} {name}" for name, method, where in defined
                  if name not in attrs and (method or name not in names)
                  and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_referenced():
    assert unreferenced_definitions() == []


def test_a_local_of_the_same_name_is_no_caller(tmp_path):
    """A method that src never reads as an attribute is flagged even where
    a local variable or a function call shares its name."""
    (tmp_path / "m.py").write_text(
        "class C:\n"
        "    @property\n"
        "    def hi(self):\n"
        "        return 1\n\n"
        "    def used(self):\n"
        "        return self.lo\n\n"
        "def lo():\n"
        "    hi = used = C()\n"
        "    return hi, used.used()\n\n"
        "lo()\n")
    assert unreferenced_definitions(tmp_path) == ["m.py:3 hi"]
