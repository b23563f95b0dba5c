"""Every function, method, class and module-level name that src defines is
used in src.

A helper that only tests call, or that nothing calls, is code the library
carries for no caller; a module-level constant that only tests read is
data it carries for no reader.  The scan parses each module of src/miop
with ast and looks for each defined name among the names and attributes
that src references anywhere.  A method or property counts as used only
when src reads it as an attribute: a local variable of the same name is
no caller.  A name assigned at module level counts as used when src loads
it as a name, reads it as an attribute or imports it; its own assignment
is no reader.  Dunder names (read by the language) are exempt.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "miop"


def unreferenced_definitions(src: Path = SRC) -> list:
    defined, names, loads, attrs = [], set(), set(), set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        where = path.relative_to(src)
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for stmt in tree.body:
            targets = stmt.targets if isinstance(stmt, ast.Assign) else (
                [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            defined += [(n.id, "module", f"{where}:{n.lineno}")
                        for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                kind = "method" if id(node) in methods else "def"
                defined.append((node.name, kind, f"{where}:{node.lineno}"))
            elif isinstance(node, ast.Name):
                names.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    loads.add(node.id)
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loads.update(alias.name for alias in node.names)
    readers = {"method": set(), "def": names, "module": loads}
    return sorted(f"{where} {name}" for name, kind, where in defined
                  if name not in attrs and name not in readers[kind]
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


def test_an_assignment_is_no_reader(tmp_path):
    """A module-level name that src only assigns is flagged; one that src
    loads, reads as an attribute or imports is not."""
    (tmp_path / "a.py").write_text(
        "__all__ = ()\n"
        "LOADED, ATTR, IMPORTED = 1, 2, 3\n"
        "UNREAD: int = 4\n"
        "STORED = 5\n\n"
        "def f():\n"
        "    STORED = LOADED\n"
        "    return 0\n\n"
        "f()\n")
    (tmp_path / "b.py").write_text(
        "import a\n"
        "from a import IMPORTED\n\n"
        "a.ATTR\n")
    assert unreferenced_definitions(tmp_path) == ["a.py:3 UNREAD", "a.py:4 STORED"]
