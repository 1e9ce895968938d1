"""Everything ``src/vecport`` defines is used by ``src/vecport`` itself.

A class field or method, or a module-level function or class, that no code
of the package references is surface kept alive only by tests, or by
nothing. Names are matched by their last part, so a method counts as used
when any attribute of that name appears; the scan is a floor, not proof of
use. Dunders are skipped: the language calls them.
"""

import ast
from pathlib import Path

import vecport

SRC = Path(vecport.__file__).parent

# "<module>.<qualified name>" -> why it stays although nothing in src/ names it.
ALLOWED: dict[str, str] = {}


def _definitions(tree: ast.Module):
    """(qualified name, bare name) of each module-level function and class
    and of each class's methods and annotated fields."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _references(tree: ast.Module):
    """Every name read, attribute, keyword argument and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname


def unreferenced(src: Path) -> list[str]:
    defined, used = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(f"{path.stem}.{qual}", bare) for qual, bare in _definitions(tree)]
        used.update(_references(tree))
    return [
        qual for qual, bare in defined
        if bare not in used and not (bare.startswith("__") and bare.endswith("__"))
    ]


def test_every_definition_in_src_is_referenced_in_src():
    found = unreferenced(SRC)
    assert [q for q in found if q not in ALLOWED] == []
    # An entry names something still unreferenced, and says why it stays.
    assert all(q in found and reason.strip() for q, reason in ALLOWED.items())


def test_the_scan_sees_each_kind_of_reference(tmp_path):
    (tmp_path / "a.py").write_text("from m import imported as alias\nalias()\n")
    (tmp_path / "m.py").write_text(
        "def imported(): pass\n"
        "class C:\n"
        "    field: int\n"
        "    unused_field: int\n"
        "    def method(self): return self.field\n"
        "    def __eq__(self, other): return True\n"
        "def by_keyword(): pass\n"
        "def unused(): pass\n"
        "def called(): return C(by_keyword=1).method()\n"
        "called()\n"
    )
    assert unreferenced(tmp_path) == ["m.C.unused_field", "m.unused"]
