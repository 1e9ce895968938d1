"""Everything ``src/vecport`` defines is used by ``src/vecport`` itself.

A class field or method, or a module-level function or class, that no code
of the package references is surface kept alive only by tests, or by
nothing. Names are matched by their last part, so a method counts as used
when any attribute of that name appears; the scan is a floor, not proof of
use. A reference inside the definition itself, as in a recursion, does not
count. Dunders are skipped: the language calls them. A module, too, imports
only names it reads or lists in ``__all__``; ``__future__`` imports are
skipped.

Likewise a parameter with a default that no call in the package passes is an
option only tests set. A call passes it when its callee has the function's
name (a class's name for ``__init__``) and it names the parameter as a
keyword, reaches its position, or spreads ``*args`` or ``**kwargs``. A
dataclass field with a default, plain or ``field(default=...)``, is a
parameter of its class at its field position, and ``cls(...)`` in a class's
method calls that class. Fields that are state, not options, are skipped:
one the package assigns as an attribute after construction, and one with a
``default_factory``.
"""

import ast
from collections import Counter
from pathlib import Path

import vecport

SRC = Path(vecport.__file__).parent

# "<module>.<qualified name>", or "<module>.<function>(<parameter>)" for a
# default ("<module>.<class>(<field>)" for a dataclass field) -> why it stays although nothing in src/ names it, or passes it.
ALLOWED: dict[str, str] = {
    "cli.main(argv)": "bench/pipeline.py and the tests drive the CLI in process",
    "liveness.solve_liveness(order)": (
        "tests vary the sweep order to show that the fixpoint does not depend on it"
    ),
    "liveness.PressureReport.per_stmt_pressure": (
        "the Fraction-sum oracle tests and tests/identity_sweep.py read it"
    ),
    "llm_client.ReplayClient.calls_made": (
        "tests count the replies a run consumed, and the replay-consumption gate"
        " of ROADMAP item 7 reads it"
    ),
}


def _definitions(tree: ast.Module):
    """(qualified name, bare name, node) of each module-level function and
    class and of each class's methods and annotated fields."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name, item
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id, item


def _references(tree: ast.AST):
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
    defined, used = [], Counter()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined += [(f"{path.stem}.{qual}", bare, list(_references(node)).count(bare))
                    for qual, bare, node in _definitions(tree)]
        used.update(_references(tree))
    return [
        qual for qual, bare, own in defined
        if used[bare] == own and not (bare.startswith("__") and bare.endswith("__"))
    ]


def _exported(tree: ast.Module) -> set[str]:
    """The names a module-level ``__all__`` lists."""
    return {
        elt.value for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for elt in getattr(node.value, "elts", ()) if isinstance(elt, ast.Constant)
    }


def unread_imports(src: Path) -> list[str]:
    """"<module>.<name>" of each name a module imports, but neither reads nor exports."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        kept = read | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound != "*" and bound not in kept:
                        found.append(f"{path.stem}.{bound}")
    return found


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
        for d in node.decorator_list
    )


def _field_defaults(cls: ast.ClassDef, state: set[str]):
    """(field, position) of each dataclass field with a default that is not
    state: not a name in ``state`` and not a ``default_factory``."""
    fields = [item for item in cls.body
              if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for position, item in enumerate(fields):
        default = item.value
        if default is None or item.target.id in state:
            continue
        if isinstance(default, ast.Call) and getattr(default.func, "id", None) == "field":
            if "default" not in {k.arg for k in default.keywords}:
                continue  # a default_factory, or no default at all
        yield item.target.id, position


def _assigned(tree: ast.Module):
    """Every attribute name stored to, as in ``obj.name = ...``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.attr


def _defaults(tree: ast.Module, state: set[str]):
    """(qualified name, callee name, parameter, call position or None) of
    each parameter with a default; a keyword-only one has no position. A
    dataclass's fields are its class's parameters, except those in ``state``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            for name, position in _field_defaults(node, state):
                yield node.name, node.name, name, position
    methods = {
        id(item): node.name for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(fn))
        qual = fn.name if cls is None else f"{cls}.{fn.name}"
        callee = cls if fn.name == "__init__" else fn.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in fn.decorator_list)
        bound = cls is not None and not static  # self or cls is not in the call
        positional = fn.args.posonlyargs + fn.args.args
        first = len(positional) - len(fn.args.defaults)
        for i in range(first, len(positional)):
            yield qual, callee, positional[i].arg, i - bound
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
            if default is not None:
                yield qual, callee, arg.arg, None


def _calls(tree: ast.Module):
    """(callee name, positions passed, keywords passed) of every call; ``*``
    passes every position and ``**`` (keyword None) every keyword. ``cls``
    inside a class names that class."""
    owner = {
        id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
        for node in ast.walk(cls)
    }  # an inner class is walked after its outer one, so it wins
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if isinstance(func, ast.Name) and func.id == "cls":
                name = owner.get(id(node), name)
            spread = any(isinstance(arg, ast.Starred) for arg in node.args)
            passed = float("inf") if spread else len(node.args)
            yield name, passed, {k.arg for k in node.keywords}


def unpassed_defaults(src: Path) -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), str(path))
             for path in sorted(src.glob("*.py"))}
    state = {name for tree in trees.values() for name in _assigned(tree)}
    defaults, calls = [], []
    for stem, tree in trees.items():
        defaults += [(f"{stem}.{qual}", *rest) for qual, *rest in _defaults(tree, state)]
        calls += _calls(tree)
    return [
        f"{qual}({param})" for qual, callee, param, position in defaults
        if not any(
            name == callee and (param in keywords or None in keywords
                                or (position is not None and passed > position))
            for name, passed, keywords in calls
        )
    ]


def test_every_definition_in_src_is_referenced_in_src():
    assert [q for q in unreferenced(SRC) if q not in ALLOWED] == []


def test_every_import_in_src_is_read_or_exported():
    assert unread_imports(SRC) == []


def test_every_default_in_src_is_passed_in_src():
    assert [q for q in unpassed_defaults(SRC) if q not in ALLOWED] == []


def test_each_allowed_entry_is_still_flagged_and_says_why():
    # An entry names something a scan still flags, and says why it stays.
    found = unreferenced(SRC) + unpassed_defaults(SRC)
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
        "def recursive(): return recursive()\n"
        "def called(): return C(by_keyword=1).method()\n"
        "called()\n"
    )
    assert unreferenced(tmp_path) == ["m.C.unused_field", "m.unused", "m.recursive"]


def test_the_import_scan_sees_reads_and_exports(tmp_path):
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from m import annotated, exported, unread\n"
        "from m import original as unread_alias\n"
        "__all__ = ['exported']\n"
        "def f(x: annotated) -> None: return os.path.join(js.dumps(x))\n"
    )
    assert unread_imports(tmp_path) == ["a.unread", "a.unread_alias"]


def test_the_default_scan_sees_each_way_to_pass(tmp_path):
    (tmp_path / "a.py").write_text("from m import C, f\nf(0, 1, by_keyword=2)\n")
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass, field\n"
        "def f(a, by_position=1, by_keyword=2, unpassed=3, *, kw_only=4): pass\n"
        "class C:\n"
        "    def __init__(self, by_position=1, unpassed=2): pass\n"
        "    def method(self, by_position=1, unpassed=2): pass\n"
        "    @staticmethod\n"
        "    def static(by_position=1, unpassed=2): pass\n"
        "def spread(a=1, b=2, *, c=3): pass\n"
        "C(1).method(1)\n"
        "C.static(1)\n"
        "spread(*args, **kwargs)\n"
        "@dataclass\n"
        "class D:\n"
        "    a: int\n"
        "    by_cls: int = 1\n"
        "    unpassed: int = 2\n"
        "    unpassed_field: int = field(default=3)\n"
        "    state: int = 4\n"
        "    factory: list = field(default_factory=list)\n"
        "    @classmethod\n"
        "    def make(cls): return cls(0, 1)\n"
        "@dataclass(frozen=True)\n"
        "class E:\n"
        "    unpassed: int = 1\n"
        "D.make().state = 5\n"
    )
    assert sorted(unpassed_defaults(tmp_path)) == [
        "m.C.__init__(unpassed)", "m.C.method(unpassed)", "m.C.static(unpassed)",
        "m.D(unpassed)", "m.D(unpassed_field)", "m.E(unpassed)",
        "m.f(kw_only)", "m.f(unpassed)",
    ]
